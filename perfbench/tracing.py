"""Per-layer spans and counters around hillstab's public functions.

The tracer patches module attributes and class methods of the imported
hillstab modules for the length of a traced pass and restores them after.
Each span adds its self time (its duration minus the time of the spans it
encloses) to one bucket; counters are incremented at the same boundaries.
Callers reach the wrapped functions through module attributes
(``cf.l1_distance``, ``fq.discriminant``, ...), so no code under
``src/hillstab`` changes.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

TIME_METRICS = (
    "expr.eval_s",
    "coeff.quad_s", "coeff.sample_s", "coeff.load_s",
    "floquet.monodromy_s", "floquet.eig_search_s", "floquet.trajectory_s",
    "lyapunov.certify_s",
    "zeros.extract_s",
    "nonlinear.solve_s", "nonlinear.check_s",
)
COUNT_METRICS = (
    "expr.evals",
    "coeff.point_evals",
    "floquet.discriminants", "floquet.ode_solves", "floquet.ode_rhs_evals",
    "lyapunov.certificates",
    "nonlinear.ode_solves", "nonlinear.ode_rhs_evals",
)
RATIO_METRICS = ("floquet.discriminants_per_eig",
                 "nonlinear.ode_solves_per_start")
CLI_SUBCOMMANDS = ("eigs", "certify", "chart", "zeros", "witness", "nonlinear")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []          # child time accumulated by each open span
        self._patches = []        # (owner, name, original attribute)
        self._expr_depth = 0
        self._eig_depth = 0
        self._eig_discriminants = 0
        self._eigs_returned = 0
        self._starts = 0

    # -- spans --------------------------------------------------------------

    def timed(self, bucket: str, fn, *args, **kwargs):
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self.self_s[bucket] += dt - self._stack.pop()
            if self._stack:
                self._stack[-1] += dt

    def _span(self, bucket: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.timed(bucket, fn, *args, **kwargs)
        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, name: str, make):
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patches.append((owner, name, original))
        if isinstance(original, staticmethod):
            setattr(owner, name, staticmethod(make(original.__func__)))
        else:
            setattr(owner, name, make(original))

    def span(self, owner, name: str, bucket: str):
        self._patch(owner, name, lambda fn: self._span(bucket, fn))

    def install(self, hs):
        """Wrap the layers of the hillstab package `hs` (its cli module's
        siblings: expr, coeff, floquet, lyapunov, zeros, nonlinear)."""
        ex, cf, fq = hs.expr, hs.coeff, hs.floquet
        ly, zr, nl = hs.lyapunov, hs.zeros, hs.nonlinear

        # expr: top-level evaluations only; nested node calls pass through
        for cls in _subclasses(ex.Expression):
            if "eval" in cls.__dict__:
                self._patch(cls, "eval", self._expr_eval)

        # coeff
        self._patch(cf.PeriodicCoefficient, "eval", self._counted(
            "coeff.point_evals"))
        for name in ("l1_distance", "integral", "mean"):
            self.span(cf, name, "coeff.quad_s")
        for name in ("dominates", "linf_norm"):
            self.span(cf, name, "coeff.sample_s")
        self.span(cf.PeriodicCoefficient, "from_dict", "coeff.load_s")

        # floquet
        self._patch(fq, "monodromy", self._monodromy)
        self._patch(fq, "solve_ivp", self._ode("floquet"))
        for name in ("periodic_eigenvalues", "antiperiodic_eigenvalues",
                     "spectrum"):
            self._patch(fq, name, self._eig_search)
        self.span(fq, "eigenfunction", "floquet.trajectory_s")
        for name in ("__init__", "state"):
            self.span(fq.Trajectory, name, "floquet.trajectory_s")

        # lyapunov
        self._patch(ly, "certify_all", self._certify_all)
        for name in ("certify_l1_periodic", "certify_l1_antiperiodic",
                     "certify_zone_kp", "certify_linf_first_zone",
                     "certify_linf_periodic", "classical_16T"):
            self.span(ly, name, "lyapunov.certify_s")

        # zeros
        for name in ("extract_zero_structure", "subinterval_inequality",
                     "check_periodic_structure",
                     "check_antiperiodic_structure"):
            self.span(zr, name, "zeros.extract_s")

        # nonlinear
        self._patch(nl, "solve_periodic", self._solve_periodic)
        self._patch(nl, "solve_ivp", self._ode("nonlinear"))
        for name in ("check_l1_hypotheses", "check_linf_hypotheses",
                     "check_classical_band"):
            self.span(nl, name, "nonlinear.check_s")

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- wrappers with counters ---------------------------------------------

    def _expr_eval(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(node, **env):
            if tracer._expr_depth:
                return fn(node, **env)
            tracer._expr_depth = 1
            tracer.counts["expr.evals"] += 1
            try:
                return tracer.timed("expr.eval_s", fn, node, **env)
            finally:
                tracer._expr_depth = 0
        return wrapper

    def _counted(self, counter: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[counter] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _monodromy(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # discriminant() calls monodromy() exactly once
            self.counts["floquet.discriminants"] += 1
            if self._eig_depth:
                self._eig_discriminants += 1
            return self.timed("floquet.monodromy_s", fn, *args, **kwargs)
        return wrapper

    def _ode(self, layer: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sol = fn(*args, **kwargs)
                self.counts[f"{layer}.ode_solves"] += 1
                self.counts[f"{layer}.ode_rhs_evals"] += int(sol.nfev)
                return sol
            return wrapper
        return make

    def _eig_search(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._eig_depth += 1
            try:
                s = self.timed("floquet.eig_search_s", fn, *args, **kwargs)
            finally:
                self._eig_depth -= 1
            if not self._eig_depth:
                self._eigs_returned += len(s.periodic) + len(s.antiperiodic)
            return s
        return wrapper

    def _certify_all(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            certs = self.timed("lyapunov.certify_s", fn, *args, **kwargs)
            self.counts["lyapunov.certificates"] += len(certs)
            return certs
        return wrapper

    def _solve_periodic(self, fn):
        @functools.wraps(fn)
        def wrapper(p, starts=16, *args, **kwargs):
            self._starts += starts
            return self.timed("nonlinear.solve_s", fn, p, starts, *args,
                              **kwargs)
        return wrapper

    # -- report --------------------------------------------------------------

    def job(self, subcommand: str, fn, *args):
        return self.timed(f"cli.job_s.{subcommand}", fn, *args)

    def metrics(self) -> dict:
        out = {name: float(self.self_s[name]) for name in TIME_METRICS}
        out.update({f"cli.job_s.{s}": float(self.self_s[f"cli.job_s.{s}"])
                    for s in CLI_SUBCOMMANDS})
        out.update({name: int(self.counts[name]) for name in COUNT_METRICS})
        out["floquet.discriminants_per_eig"] = (
            self._eig_discriminants / self._eigs_returned
            if self._eigs_returned else 0.0)
        out["nonlinear.ode_solves_per_start"] = (
            self.counts["nonlinear.ode_solves"] / self._starts
            if self._starts else 0.0)
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


UNITS = {**{m: "s" for m in TIME_METRICS},
         **{f"cli.job_s.{s}": "s" for s in CLI_SUBCOMMANDS},
         **{m: "count" for m in COUNT_METRICS},
         "floquet.discriminants_per_eig": "calls/eig",
         "nonlinear.ode_solves_per_start": "solves/start",
         "trace.overhead_ref_s": "ref_s"}
