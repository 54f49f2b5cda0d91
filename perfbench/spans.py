"""Spans and counters recorded around calls into ymqm's public functions.

The program itself is not instrumented: ``Tracer.install`` replaces each
listed function (in every loaded ``ymqm`` module that holds a reference to
it, and on the class for methods) with a wrapper that records a span, and
``uninstall`` puts the originals back.  Untraced rounds therefore run the
program unchanged.

A span's self time is its duration minus the durations of the spans it
directly encloses.  The span stack is shared by all threads, which is
correct only while one thread at a time runs program code: the benchmark
sets ``YMQM_THREADS=1``, so the ``sweep`` pool has one worker and the
submitting thread is blocked while it runs.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, attribute, span name); ``Class.method`` attributes patch the class
SPANS = (
    ("ymqm.special", "whittaker_w", "special.whittaker_w"),
    ("ymqm.special", "bessel_k0", "special.bessel"),
    ("ymqm.special", "bessel_k0_scaled", "special.bessel"),
    ("ymqm.special", "bessel_i0", "special.bessel"),
    ("ymqm.special", "bessel_i0_scaled", "special.bessel"),
    ("ymqm.heatkernel", "integral_Imn_closed", "heatkernel.integral_Imn_closed"),
    ("ymqm.heatkernel", "radial_Jb", "heatkernel.radial_Jb"),
    ("ymqm.heatkernel", "series_assemble", "heatkernel.series_assemble"),
    ("ymqm.polynomial", "PhasePolynomial.__mul__", "polynomial.mul"),
    ("ymqm.polynomial", "PhasePolynomial.__add__", "polynomial.add"),
    ("ymqm.polynomial", "PhasePolynomial.diff", "polynomial.diff"),
    ("ymqm.kernels", "recursion_step", "kernels.recursion_step"),
    ("ymqm.kernels", "unresum", "kernels.unresum"),
    ("ymqm.reduction", "integrate_momenta", "reduction.integrate_momenta"),
    ("ymqm.reduction", "MomentReduction.partition_value", "reduction.partition_value"),
    ("ymqm.quadrature", "imn_quadrature", "quadrature.imn_quadrature"),
    ("ymqm.quadrature", "phase_space_quadrature", "quadrature.phase_space_quadrature"),
    ("ymqm.quadrature", "radial_quadrature_n3", "quadrature.radial_quadrature_n3"),
    ("ymqm.quadrature", "raw_coordinate_n3", "quadrature.raw_coordinate_n3"),
    ("ymqm.spectral", "HamiltonianBlocks.__init__", "spectral.build"),
    ("ymqm.spectral", "HamiltonianBlocks.solve", "spectral.solve"),
    ("ymqm.spectral", "trace_maximizing_omega", "spectral.omega_scan"),
    ("ymqm.cli", "run", "cli.run"),
    ("ymqm.cli", "write_csv", "cli.write"),
    ("ymqm.cli", "write_json", "cli.write"),
)

#: functions wrapped only to count their results (no span)
COUNTED = (
    ("ymqm.kernels", "resummed_kernels"),
    ("ymqm.spectral", "eigenvalues"),
)


def _resolve(module, attr):
    """``(owner, function)`` for ``module.attr``; the owner is the class for
    ``Class.method``."""
    obj = sys.modules[module]
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


class Tracer:
    """Collects per-name ``calls`` and ``self_s`` plus named counters."""

    def __init__(self):
        self.reset()
        self._saved = []

    def reset(self):
        self.stats = {}
        self.counters = {}
        self._stack = []

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += dur
        st = self.stats.setdefault(name, [0, 0.0])
        st[0] += 1
        st[1] += dur - child

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def _after(self, span_name):
        """Counters recorded from a span's arguments and result."""
        if span_name.startswith("polynomial."):
            return lambda args, res: self.count("polynomial.terms_out", res.n_terms)
        if span_name == "reduction.integrate_momenta":
            return lambda args, res: self.count("reduction.entries", len(res.entries))
        if span_name == "spectral.build":

            def built(args, res):
                h = args[0]
                self.count("spectral.dimension", h.dimension)
                # float64 T and V per parity block, from the block shapes
                self.count(
                    "spectral.bytes_assembled",
                    sum(2 * 8 * T.shape[0] ** 2 for _, T, _ in h.blocks),
                )

            return built
        if span_name == "cli.run":
            return lambda args, res: self.count("cli.rows", len(res[1]))
        return None

    def _name(self, span_name):
        if span_name == "spectral.build":
            return lambda args: f"spectral.build.n{args[1].n_model}"
        if span_name == "spectral.solve":
            return lambda args: f"spectral.solve.n{args[0].params.n_model}"
        return span_name

    def _count_after(self, attr):
        if attr == "resummed_kernels":
            return lambda args, res: self.count("kernels.top_order_terms", res[-1].n_terms)

        def converged(args, res):
            self.count("spectral.levels_converged", res.count_converged)
            self.count("spectral.levels_computed", len(res.eigenvalues))

        return converged

    def _counted_quad(self, quad):
        tracer = self

        @functools.wraps(quad)
        def wrapper(f, a, b, **kwargs):
            # full_output only adds the evaluation count; ymqm.quadrature
            # already discards scipy's integration warnings
            res = quad(f, a, b, full_output=1, **kwargs)
            tracer.count("quadrature.quad_calls")
            tracer.count("quadrature.integrand_evals", res[2]["neval"])
            return res[0], res[1]

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for module, attr, span_name in SPANS:
            owner, fn = _resolve(module, attr)
            wrapped = self._span(self._name(span_name), fn, self._after(span_name))
            replacements[id(fn)] = (fn, wrapped, owner if isinstance(owner, type) else None)
        for module, attr in COUNTED:
            _, fn = _resolve(module, attr)
            replacements[id(fn)] = (fn, self._counted(fn, self._count_after(attr)), None)
        quad_mod = sys.modules["ymqm.quadrature"]
        self._patch(quad_mod, "quad", self._counted_quad(quad_mod.quad))
        for fn, wrapped, cls in replacements.values():
            if cls is not None:
                for name, val in list(vars(cls).items()):
                    if val is fn:
                        self._patch(cls, name, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "ymqm" or mod_name.startswith("ymqm."):
                    for name, val in list(vars(mod).items()):
                        if val is fn:
                            self._patch(mod, name, wrapped)

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def snapshot(self):
        """Flat ``{metric: value}`` of the current stats and counters."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        return out
