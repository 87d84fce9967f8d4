"""Certification theorems built on the optimal L1 and Linf constants.

Each ``certify_*`` function checks the hypotheses of one stability /
nontrivial-kernel theorem against a periodic coefficient and emits a
Certificate: the named hypothesis values, the margins, a boolean verdict,
and the exact conclusion the theorem licenses -- never more.  Failed
hypotheses yield ``holds = False`` rather than an exception, and the x0 / p
searches are exhaustive with per-candidate diagnostics so near-misses are
explainable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import coeff as cf
from .constants import (  # noqa: F401  (re-exported module API)
    ConstantsRow,
    beta1,
    beta1_anti,
    constants_table,
    gamma1,
    gamma1_anti,
    j_functional,
    j_min,
    lambda_anti_const,
    lambda_const,
    zhang,
    zone_rhs,
)
from .errors import DomainError

#: slack on non-strict L1 hypotheses (the sharp constants are not attained,
#: so the bound itself is admissible)
L1_SLACK = 1e-12

#: x0 grid resolution for the Linf certificates
X0_GRID = 1024

THEOREM_IDS = (
    "L1_PERIODIC_N",
    "L1_ANTIPERIODIC_N",
    "L1_ZONE_KP",
    "LINF_FIRST_ZONE",
    "LINF_PERIODIC",
    "CLASSICAL_16T",
)


@dataclass(frozen=True)
class Certificate:
    theorem_id: str
    n_or_p: int | None
    hypothesis_values: dict
    holds: bool
    conclusion: str
    diagnostics: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "n_or_p": self.n_or_p,
            "hypothesis_values": dict(self.hypothesis_values),
            "holds": self.holds,
            "conclusion": self.conclusion,
            "diagnostics": [dict(d) for d in self.diagnostics],
        }


def _ess_inf(a: cf.PeriodicCoefficient) -> float:
    return float(np.min(cf.sample(a, (0.0, a.period))[1]))


def certify_l1_periodic(a: cf.PeriodicCoefficient, n: int) -> Certificate:
    """a strictly above lam_{2n-1} with ||a||_L1 <= gamma1(n, T) forces
    lam_{2n}(a) < 0 < lam_{2n+1}(a)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    T = a.period
    lam = lambda_const(n, T)
    dom = cf.dominates(a, lam)
    norm = cf.l1_distance(a, 0.0, (0.0, T))
    g = gamma1(n, T)
    holds = dom.strict_on_positive_measure and norm <= g + L1_SLACK
    return Certificate(
        "L1_PERIODIC_N", n,
        {"lambda_2n_minus_1": lam, "l1_norm": norm, "gamma1": g,
         "margin_l1": g - norm, "dominance_min_gap": dom.min_gap,
         "dominance_strict_fraction": dom.strict_fraction},
        holds,
        f"lambda_{2 * n}(a) < 0 < lambda_{2 * n + 1}(a)",
    )


def certify_l1_antiperiodic(a: cf.PeriodicCoefficient, n: int) -> Certificate:
    """Antiperiodic analogue of certify_l1_periodic."""
    if n < 1:
        raise DomainError("n must be >= 1")
    T = a.period
    lam = lambda_anti_const(n, T)
    dom = cf.dominates(a, lam)
    norm = cf.l1_distance(a, 0.0, (0.0, T))
    g = gamma1_anti(n, T)
    holds = dom.strict_on_positive_measure and norm <= g + L1_SLACK
    return Certificate(
        "L1_ANTIPERIODIC_N", n,
        {"lambda_anti_2n_minus_1": lam, "l1_norm": norm, "gamma1_anti": g,
         "margin_l1": g - norm, "dominance_min_gap": dom.min_gap,
         "dominance_strict_fraction": dom.strict_fraction},
        holds,
        f"anti_lambda_{2 * n}(a) < 0 < anti_lambda_{2 * n + 1}(a)",
    )


def certify_zone_kp(a: cf.PeriodicCoefficient) -> Certificate:
    """k <= a with ||a||_L1 below the k-p zone bound places mu = 0 inside a
    stability zone.

    For each integer p >= 1 whose bracket (p^2 pi^2/T^2, (p+1)^2 pi^2/T^2]
    meets (0, ess-inf a], the largest admissible k is tried (the bound is
    increasing in k); every candidate's margin is recorded.
    """
    T = a.period
    ess = _ess_inf(a)
    norm = cf.l1_distance(a, 0.0, (0.0, T))
    diags = []
    holds = False
    best_p = None
    p = 1
    while (p * math.pi / T) ** 2 < ess:
        k = min(ess, (p + 1) ** 2 * math.pi ** 2 / T ** 2)
        rhs = zone_rhs(k, p, T)
        ok = norm <= rhs + L1_SLACK
        diags.append({"p": p, "k": k, "rhs": rhs, "margin": rhs - norm,
                      "ok": ok})
        if ok and not holds:
            holds = True
            best_p = p
        p += 1
    return Certificate(
        "L1_ZONE_KP", best_p,
        {"ess_inf": ess, "l1_norm": norm,
         "margin": max((d["margin"] for d in diags), default=-math.inf)},
        holds,
        "mu = 0 lies in a stability zone (the periodic/antiperiodic "
        "eigenvalues bracketing 0 are reported by the spectrum check)",
        tuple(diags),
    )


def _require_period_pi(a: cf.PeriodicCoefficient):
    if abs(a.period - math.pi) > 1e-12:
        raise DomainError("this certificate is stated for period pi")


def _split_sups(a: cf.PeriodicCoefficient):
    """Dense one-pass |a| sampling with prefix/suffix running maxima.

    Returns (sup_left, sup_right) callables so the x0 scan costs O(1) per
    split point instead of re-sampling both sides.
    """
    xs, vals = cf.sample(a, (0.0, a.period))
    vals = np.abs(vals)
    prefix = np.maximum.accumulate(vals)
    suffix = np.maximum.accumulate(vals[::-1])[::-1]

    def sup_left(x0: float) -> float:
        i = int(np.searchsorted(xs, x0))
        return float(prefix[i - 1]) if i > 0 else 0.0

    def sup_right(x0: float) -> float:
        i = int(np.searchsorted(xs, x0))
        return float(suffix[i]) if i < len(xs) else 0.0

    return sup_left, sup_right


def certify_linf_first_zone(a: cf.PeriodicCoefficient) -> Certificate:
    """Two-sided Linf bound on (0, x0) and (x0, pi) placing mu = 0 in the
    first stability zone, for coefficients strictly above 0.

    Scans 1024 interior x0; each needs alpha_needed < pi/2 and x0 inside
    the window (pi (1 - cos alpha)/2, pi (1 + cos alpha)/2).
    """
    _require_period_pi(a)
    dom = cf.dominates(a, 0.0)
    sup_left, sup_right = _split_sups(a)
    xs = np.linspace(0.0, math.pi, X0_GRID + 2)[1:-1]
    diags = []
    holds = False
    best = None
    for x0 in xs:
        x0 = float(x0)
        m = max(x0 ** 2 * sup_left(x0),
                (math.pi - x0) ** 2 * sup_right(x0))
        alpha = math.sqrt(m)
        alpha_ok = alpha < math.pi / 2
        if alpha_ok:
            lo = math.pi * (1 - math.cos(alpha)) / 2
            hi = math.pi * (1 + math.cos(alpha)) / 2
            window_ok = lo < x0 < hi
        else:
            lo = hi = math.nan
            window_ok = False
        ok = alpha_ok and window_ok
        diags.append({"x0": x0, "alpha_needed": alpha, "alpha_ok": alpha_ok,
                      "window": (lo, hi), "window_ok": window_ok, "ok": ok})
        if ok and best is None:
            best = diags[-1]
        holds = holds or ok
    holds = holds and dom.strict_on_positive_measure
    hyp = {"dominance_min_gap": dom.min_gap,
           "dominance_strict_fraction": dom.strict_fraction}
    if best is not None:
        hyp.update({"x0": best["x0"], "alpha_needed": best["alpha_needed"],
                    "alpha_margin": math.pi / 2 - best["alpha_needed"]})
    return Certificate(
        "LINF_FIRST_ZONE", None, hyp, holds,
        "the equation is stable at mu = 0: lambda_0(a) < 0 < anti_lambda_1(a)",
        tuple(diags),
    )


def certify_linf_periodic(a: cf.PeriodicCoefficient) -> Certificate:
    """Weaker max-bound < pi^2 at some split point: lambda_0(a) < 0 < lambda_1(a)."""
    _require_period_pi(a)
    dom = cf.dominates(a, 0.0)
    sup_left, sup_right = _split_sups(a)
    xs = np.linspace(0.0, math.pi, X0_GRID + 2)[1:-1]
    diags = []
    best_margin = -math.inf
    best_x0 = None
    for x0 in xs:
        x0 = float(x0)
        m = max(x0 ** 2 * sup_left(x0),
                (math.pi - x0) ** 2 * sup_right(x0))
        margin = math.pi ** 2 - m
        ok = m < math.pi ** 2  # strict: the boundary case is excluded
        diags.append({"x0": x0, "max_value": m, "margin": margin, "ok": ok})
        if margin > best_margin:
            best_margin, best_x0 = margin, x0
    holds = best_margin > 0 and dom.strict_on_positive_measure
    return Certificate(
        "LINF_PERIODIC", None,
        {"best_x0": best_x0, "best_margin": best_margin,
         "dominance_min_gap": dom.min_gap,
         "dominance_strict_fraction": dom.strict_fraction},
        holds,
        "lambda_0(a) < 0 < lambda_1(a)",
        tuple(diags),
    )


def classical_16T(a: cf.PeriodicCoefficient) -> Certificate:
    """The classical criterion: a not identically 0, nonnegative mean, and
    integral of the positive part at most 16/T rule out a nontrivial
    periodic kernel at mu = 0."""
    T = a.period
    nonzero = cf.linf_norm(a, (0.0, T)) > 1e-14
    mean_int = cf.integral(a, (0.0, T))
    pos_int = cf.integral(a.positive_part(), (0.0, T))
    bound = 16.0 / T
    holds = nonzero and mean_int >= -L1_SLACK and pos_int <= bound + L1_SLACK
    return Certificate(
        "CLASSICAL_16T", None,
        {"integral": mean_int, "positive_part_integral": pos_int,
         "bound_16_over_T": bound, "margin": bound - pos_int,
         "nonzero": float(nonzero)},
        holds,
        "0 is not a periodic eigenvalue of a (only the trivial T-periodic "
        "solution)",
    )


def certify_all(a: cf.PeriodicCoefficient, n_list=(1, 2, 3),
                theorems=None) -> list[Certificate]:
    """Run every applicable theorem; Linf theorems only when T = pi."""
    wanted = set(theorems) if theorems else set(THEOREM_IDS)
    out = []
    for n in n_list:
        if "L1_PERIODIC_N" in wanted:
            out.append(certify_l1_periodic(a, n))
        if "L1_ANTIPERIODIC_N" in wanted:
            out.append(certify_l1_antiperiodic(a, n))
    if "L1_ZONE_KP" in wanted:
        out.append(certify_zone_kp(a))
    if abs(a.period - math.pi) <= 1e-12:
        if "LINF_FIRST_ZONE" in wanted:
            out.append(certify_linf_first_zone(a))
        if "LINF_PERIODIC" in wanted:
            out.append(certify_linf_periodic(a))
    if "CLASSICAL_16T" in wanted:
        out.append(classical_16T(a))
    return out
