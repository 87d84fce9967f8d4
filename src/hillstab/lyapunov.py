"""Certification theorems built on the optimal L1 and Linf constants.

Each ``certify_*`` function checks the hypotheses of one stability /
nontrivial-kernel theorem against a periodic coefficient and emits a
Certificate: the named hypothesis values, the margins, a boolean verdict,
and the exact conclusion the theorem licenses -- never more.  Failed
hypotheses yield ``holds = False`` rather than an exception.  The x0 search
of the Linf certificates is exhaustive, with per-candidate diagnostics so
near-misses are explainable; the k-p zone certificate evaluates the one p
that can hold and records its diagnostic.  The constants themselves, and
their table, are read from ``constants``.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass, field

import numpy as np

from . import coeff as cf
from .constants import (gamma1, gamma1_anti, lambda_anti_const, lambda_const,
                        zone_rhs)
from .errors import DomainError
from .settings import current

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


#: (a, {(f, args): f(a, *args)}) while certify_all runs on a, so that what
#: several of its certificates read of a is computed once
_shared = contextvars.ContextVar("shared", default=None)


def _once(f, a: cf.PeriodicCoefficient, *args):
    """f(a, *args), or while certify_all runs on a, the value it gave first."""
    memo = _shared.get()
    if memo is None or memo[0] is not a:
        return f(a, *args)
    if (f, args) not in memo[1]:
        memo[1][f, args] = f(a, *args)
    return memo[1][f, args]


def _dominates(a: cf.PeriodicCoefficient, c: float) -> cf.DominanceReport:
    """cf.dominates(a, c), a on its dominance grid evaluated once per
    certify_all."""
    return cf.dominates(a, c, _once(cf.dominance_grid, a))


def _ess_inf(a: cf.PeriodicCoefficient) -> float:
    return float(np.min(_once(cf.sample, a, (0.0, a.period))[1]))


def _certify_l1(a: cf.PeriodicCoefficient, n: int, theorem_id: str,
                lam_key: str, lam_of, g_key: str, g_of, eig: str) -> Certificate:
    """a strictly above lam = lam_of(n, T) with ||a||_L1 <= g = g_of(n, T)
    forces eig_{2n}(a) < 0 < eig_{2n+1}(a): the body both L1 theorems share."""
    if n < 1:
        raise DomainError("n must be >= 1")
    T = a.period
    lam, g = lam_of(n, T), g_of(n, T)
    dom = _once(_dominates, a, lam)
    norm = _once(cf.l1_distance, a, 0.0, (0.0, T))
    holds = dom.strict_on_positive_measure and norm <= g + current().l1_slack
    return Certificate(
        theorem_id, n,
        {lam_key: lam, "l1_norm": norm, g_key: g,
         "margin_l1": g - norm, "dominance_min_gap": dom.min_gap,
         "dominance_strict_fraction": dom.strict_fraction},
        holds,
        f"{eig}_{2 * n}(a) < 0 < {eig}_{2 * n + 1}(a)",
    )


def certify_l1_periodic(a: cf.PeriodicCoefficient, n: int) -> Certificate:
    """a strictly above lam_{2n-1} with ||a||_L1 <= gamma1(n, T) forces
    lam_{2n}(a) < 0 < lam_{2n+1}(a)."""
    return _certify_l1(a, n, "L1_PERIODIC_N", "lambda_2n_minus_1",
                       lambda_const, "gamma1", gamma1, "lambda")


def certify_l1_antiperiodic(a: cf.PeriodicCoefficient, n: int) -> Certificate:
    """Antiperiodic analogue of certify_l1_periodic."""
    return _certify_l1(a, n, "L1_ANTIPERIODIC_N", "lambda_anti_2n_minus_1",
                       lambda_anti_const, "gamma1_anti", gamma1_anti,
                       "anti_lambda")


def certify_zone_kp(a: cf.PeriodicCoefficient) -> Certificate:
    """k <= a with ||a||_L1 below the k-p zone bound places mu = 0 inside a
    stability zone.

    Only p*, the largest p >= 1 with p^2 pi^2/T^2 < ess-inf a, is tried,
    with the largest admissible k = min(ess-inf a, (p*+1)^2 pi^2/T^2) (the
    bound is increasing in k); its margin is the one diagnostic.  A lower p
    has k at the top of its bracket, where the bound is kT <= ||a||_L1, so
    it cannot hold.  Nor can p* with k at the top: there a = k attains the
    bound and 0 is an eigenvalue.
    """
    T = a.period
    ess = _ess_inf(a)
    norm = _once(cf.l1_distance, a, 0.0, (0.0, T))

    # p* is ceil(T sqrt(ess) / pi) - 1, or one off where the quotient rounds
    p = math.ceil(T * math.sqrt(max(ess, 0.0)) / math.pi) - 1
    if ((p + 1) * math.pi / T) ** 2 < ess:
        p += 1
    elif p >= 1 and (p * math.pi / T) ** 2 >= ess:
        p -= 1
    holds, margin, diags = False, -math.inf, ()
    if p >= 1:
        top = ((p + 1) * math.pi / T) ** 2
        k = min(ess, top)
        rhs = zone_rhs(k, p, T)
        holds, margin = k < top and norm <= rhs + current().l1_slack, rhs - norm
        diags = ({"p": p, "k": k, "rhs": rhs, "margin": margin, "ok": holds},)
    return Certificate(
        "L1_ZONE_KP", p if holds else None,
        {"ess_inf": ess, "l1_norm": norm, "margin": margin},
        holds,
        "mu = 0 lies in a stability zone (--verify reports the band edges "
        "below 0, edges_below, and the discriminant there)",
        diags,
    )


def linf_applies(period: float) -> bool:
    """Whether the L-infinity theorems apply: they are stated for period pi."""
    return abs(period - math.pi) <= 1e-12


def _require_period_pi(a: cf.PeriodicCoefficient):
    if not linf_applies(a.period):
        raise DomainError("this certificate is stated for period pi")


def _x0_scan(a: cf.PeriodicCoefficient) -> tuple[np.ndarray, np.ndarray]:
    """The `x0_grid` interior split points x0 of (0, pi) and m(x0) = max(x0^2
    sup_(0,x0)|a|, (pi - x0)^2 sup_(x0,pi)|a|), the sups read from running
    maxima of one sampling of |a| (0 on an empty side)."""
    xs, vals = _once(cf.sample, a, (0.0, a.period))
    vals = np.abs(vals)
    prefix = np.concatenate(([0.0], np.maximum.accumulate(vals)))
    suffix = np.concatenate((np.maximum.accumulate(vals[::-1])[::-1], [0.0]))
    x0 = np.linspace(0.0, math.pi, current().x0_grid + 2)[1:-1]
    i = np.searchsorted(xs, x0)
    return x0, np.maximum(x0 ** 2 * prefix[i], (math.pi - x0) ** 2 * suffix[i])


def certify_linf_first_zone(a: cf.PeriodicCoefficient) -> Certificate:
    """Two-sided Linf bound on (0, x0) and (x0, pi) placing mu = 0 in the
    first stability zone, for coefficients strictly above 0.

    Scans 1024 interior x0; each needs alpha_needed < pi/2 and x0 inside
    the window (pi (1 - cos alpha)/2, pi (1 + cos alpha)/2).
    """
    _require_period_pi(a)
    dom = _once(_dominates, a, 0.0)
    x0, m = _x0_scan(a)
    alpha = np.sqrt(m)
    alpha_ok = alpha < math.pi / 2
    cos = np.where(alpha_ok, np.cos(alpha), math.nan)
    lo = math.pi * (1 - cos) / 2
    hi = math.pi * (1 + cos) / 2
    # NaN windows compare False, so window_ok implies alpha_ok
    window_ok = (lo < x0) & (x0 < hi)
    diags = tuple(
        {"x0": x, "alpha_needed": al, "alpha_ok": al_ok, "window": (l, h),
         "window_ok": ok, "ok": ok}
        for x, al, al_ok, l, h, ok in zip(
            x0.tolist(), alpha.tolist(), alpha_ok.tolist(), lo.tolist(),
            hi.tolist(), window_ok.tolist()))
    best = next((d for d in diags if d["ok"]), None)
    holds = best is not None and dom.strict_on_positive_measure
    hyp = {"dominance_min_gap": dom.min_gap,
           "dominance_strict_fraction": dom.strict_fraction}
    if best is not None:
        hyp.update({"x0": best["x0"], "alpha_needed": best["alpha_needed"],
                    "alpha_margin": math.pi / 2 - best["alpha_needed"]})
    return Certificate(
        "LINF_FIRST_ZONE", None, hyp, holds,
        "the equation is stable at mu = 0: lambda_0(a) < 0 < anti_lambda_1(a)",
        diags,
    )


def certify_linf_periodic(a: cf.PeriodicCoefficient) -> Certificate:
    """Weaker max-bound < pi^2 at some split point: lambda_0(a) < 0 < lambda_1(a)."""
    _require_period_pi(a)
    dom = _once(_dominates, a, 0.0)
    x0, m = _x0_scan(a)
    margin = math.pi ** 2 - m
    # strict: the boundary case is excluded
    diags = tuple({"x0": x, "max_value": v, "margin": g,
                   "ok": v < math.pi ** 2}
                  for x, v, g in zip(x0.tolist(), m.tolist(), margin.tolist()))
    best = int(np.argmax(margin))
    best_margin = float(margin[best])
    holds = best_margin > 0 and dom.strict_on_positive_measure
    return Certificate(
        "LINF_PERIODIC", None,
        {"best_x0": float(x0[best]), "best_margin": best_margin,
         "dominance_min_gap": dom.min_gap,
         "dominance_strict_fraction": dom.strict_fraction},
        holds,
        "lambda_0(a) < 0 < lambda_1(a)",
        diags,
    )


def classical_16T(a: cf.PeriodicCoefficient) -> Certificate:
    """The classical criterion: a not identically 0, nonnegative mean, and
    integral of the positive part at most 16/T rule out a nontrivial
    periodic kernel at mu = 0."""
    T = a.period
    nonzero = float(np.max(np.abs(_once(cf.sample, a, (0.0, T))[1]))) > 1e-14
    mean_int = cf.integral(a, (0.0, T))
    pos_int = cf.integral(a.positive_part(), (0.0, T))
    bound, slack = 16.0 / T, current().l1_slack
    holds = nonzero and mean_int >= -slack and pos_int <= bound + slack
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
    """Run every applicable theorem; Linf theorems only when T = pi.  What
    several certificates read of a (||a||_L1, its samples, a dominance
    check) is computed once."""
    token = _shared.set((a, {}))
    try:
        wanted = set(theorems) if theorems else set(THEOREM_IDS)
        out = []
        for n in n_list:
            if "L1_PERIODIC_N" in wanted:
                out.append(certify_l1_periodic(a, n))
            if "L1_ANTIPERIODIC_N" in wanted:
                out.append(certify_l1_antiperiodic(a, n))
        if "L1_ZONE_KP" in wanted:
            out.append(certify_zone_kp(a))
        if linf_applies(a.period):
            if "LINF_FIRST_ZONE" in wanted:
                out.append(certify_linf_first_zone(a))
            if "LINF_PERIODIC" in wanted:
                out.append(certify_linf_periodic(a))
        if "CLASSICAL_16T" in wanted:
            out.append(classical_16T(a))
        return out
    finally:
        _shared.reset(token)
