"""Nonlinear periodic boundary value problems u'' + f(x, u) = 0.

The certificates here verify the hypothesis sets under which the periodic
problem has a unique solution: an envelope sandwich alpha <= f_u <= beta
with the envelopes certified by the L1 or Linf criteria, or the classical
band condition that the range of f_u avoids the resonant squares.  The
shooting solver probes existence/uniqueness numerically by Newton
multistart on the periodicity map.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import coeff as cf
from . import expr as ex
from . import lyapunov as ly
from .errors import (DomainError, IntegrationFailure, MissingEnvelopes,
                     NoConvergence, ParseError)

#: envelope sandwich slack on the verification grid
SANDWICH_SLACK = 1e-10
#: grid for envelope verification: 256 x values by 256 u values
GRID = 256
#: periodicity residual accepted for a shooting solution
RESIDUAL_TOL = 1e-8
#: initial-data distance merging two converged solutions
CLUSTER_TOL = 1e-6

_ODE_TOL = 1e-12


@dataclass(frozen=True)
class NonlinearProblem:
    f: ex.Expression
    period: float
    fu: ex.Expression | None = None
    alpha_env: cf.PeriodicCoefficient | None = None
    beta_env: cf.PeriodicCoefficient | None = None
    u_box: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.period > 0:
            raise DomainError("period must be positive")
        xs = np.linspace(0.0, self.period, 64, endpoint=False)
        us = np.linspace(-3.0, 3.0, 8)
        for u in us:
            d = np.abs(self.f.eval(x=xs + self.period, u=u)
                       - self.f.eval(x=xs, u=u))
            if np.max(d) > 1e-10:
                raise DomainError("f is not T-periodic in x on samples")

    def f_eval(self, x, u):
        return self.f.eval(x=x, u=u)

    def fu_eval(self, x, u):
        if self.fu is not None:
            return self.fu.eval(x=x, u=u)
        h = 1e-6 * (1.0 + np.abs(u))
        return (self.f.eval(x=x, u=u + h) - self.f.eval(x=x, u=u - h)) / (2 * h)

    @staticmethod
    def from_dict(doc: dict) -> "NonlinearProblem":
        try:
            f = ex.parse(doc["f"], variables=("x", "u"))
            fu = (ex.parse(doc["fu"], variables=("x", "u"))
                  if doc.get("fu") else None)
            period = float(doc["period"])
            alpha = (cf.PeriodicCoefficient.from_dict(doc["alpha_env"])
                     if doc.get("alpha_env") else None)
            beta = (cf.PeriodicCoefficient.from_dict(doc["beta_env"])
                    if doc.get("beta_env") else None)
            box = tuple(float(v) for v in doc["u_box"]) if doc.get("u_box") \
                else None
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(f"bad problem document: {err}") from err
        return NonlinearProblem(f, period, fu, alpha, beta, box)

    @staticmethod
    def from_json(text: str) -> "NonlinearProblem":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ParseError(f"bad JSON: {err}") from err
        return NonlinearProblem.from_dict(doc)


@dataclass(frozen=True)
class Solution:
    u0: float
    du0: float
    residual: float
    xs: np.ndarray
    u: np.ndarray
    du: np.ndarray


@dataclass(frozen=True)
class ShootingResult:
    solutions: tuple[Solution, ...]
    unique: bool
    n_converged_starts: int


def _box(p: NonlinearProblem, u_box) -> tuple[float, float]:
    if u_box is not None:
        return float(u_box[0]), float(u_box[1])
    if p.u_box is not None:
        return p.u_box
    raise DomainError("no u_box supplied")


def _sandwich(p: NonlinearProblem, u_box) -> tuple[bool, float]:
    """Verify alpha(x) <= f_u(x,u) <= beta(x) on the grid; worst violation."""
    lo, hi = _box(p, u_box)
    xs = np.linspace(0.0, p.period, GRID, endpoint=False)
    us = np.linspace(lo, hi, GRID)
    fu = p.fu_eval(xs, us[:, None])
    worst = min(float(np.min(fu - p.alpha_env(xs))),
                float(np.min(p.beta_env(xs) - fu)))
    return worst >= -SANDWICH_SLACK, worst


def check_l1_hypotheses(p: NonlinearProblem, n: int, u_box=None) -> ly.Certificate:
    """lam_{2n-1} strictly below alpha <= f_u <= beta with ||beta||_L1 within
    the sharp constant: the periodic problem has a unique solution."""
    if p.alpha_env is None or p.beta_env is None:
        raise MissingEnvelopes("alpha_env and beta_env are required")
    T = p.period
    lam = ly.lambda_const(n, T)
    dom = cf.dominates(p.alpha_env, lam)
    sandwich_ok, worst = _sandwich(p, u_box)
    bnorm = cf.l1_distance(p.beta_env, 0.0, (0.0, T))
    g = ly.gamma1(n, T)
    holds = dom.strict_on_positive_measure and sandwich_ok and \
        bnorm <= g + ly.L1_SLACK
    return ly.Certificate(
        "NL_L1_PERIODIC_N", n,
        {"lambda_2n_minus_1": lam, "dominance_min_gap": dom.min_gap,
         "dominance_strict_fraction": dom.strict_fraction,
         "sandwich_worst_margin": worst, "beta_l1_norm": bnorm,
         "gamma1": g, "margin_l1": g - bnorm},
        holds,
        "the periodic problem u'' + f(x,u) = 0 has a unique solution",
    )


def check_linf_hypotheses(p: NonlinearProblem, u_box=None) -> ly.Certificate:
    """0 strictly below alpha <= f_u <= beta with beta passing the split-point
    Linf bound (period pi)."""
    if p.alpha_env is None or p.beta_env is None:
        raise MissingEnvelopes("alpha_env and beta_env are required")
    if abs(p.period - math.pi) > 1e-12:
        raise DomainError("this certificate is stated for period pi")
    dom = cf.dominates(p.alpha_env, 0.0)
    sandwich_ok, worst = _sandwich(p, u_box)
    inner = ly.certify_linf_periodic(p.beta_env)
    holds = dom.strict_on_positive_measure and sandwich_ok and inner.holds
    hyp = {"dominance_min_gap": dom.min_gap,
           "dominance_strict_fraction": dom.strict_fraction,
           "sandwich_worst_margin": worst}
    hyp.update({"beta_" + k: v for k, v in inner.hypothesis_values.items()})
    return ly.Certificate(
        "NL_LINF_PERIODIC", None, hyp, holds,
        "the periodic problem u'' + f(x,u) = 0 has a unique solution",
        inner.diagnostics,
    )


def check_classical_band(p: NonlinearProblem, u_box=None) -> ly.Certificate:
    """f_u's sampled range strictly inside a gap ((2n)^2 pi^2/T^2,
    (2(n+1))^2 pi^2/T^2) for some n >= 0."""
    lo, hi = _box(p, u_box)
    T = p.period
    xs = np.linspace(0.0, T, GRID, endpoint=False)
    us = np.linspace(lo, hi, GRID)
    fu = p.fu_eval(xs, us[:, None])
    fmin, fmax = float(np.min(fu)), float(np.max(fu))
    band = None
    n = 0
    while (2 * n * math.pi / T) ** 2 < fmax:
        glo = (2 * n * math.pi / T) ** 2
        ghi = (2 * (n + 1) * math.pi / T) ** 2
        if glo < fmin and fmax < ghi:
            band = n
            break
        n += 1
    return ly.Certificate(
        "NL_CLASSICAL_BAND", band,
        {"fu_min": fmin, "fu_max": fmax},
        band is not None,
        "the periodic problem u'' + f(x,u) = 0 has a unique solution",
    )


# -- shooting -----------------------------------------------------------------

def _integrate(p: NonlinearProblem, y0):
    def rhs(x, y):
        return [y[1], -float(p.f_eval(x, y[0]))]

    sol = solve_ivp(rhs, (0.0, p.period), y0, method="DOP853",
                    rtol=_ODE_TOL, atol=_ODE_TOL, dense_output=True)
    if not sol.success:
        raise IntegrationFailure(sol.message)
    return sol


def _periodicity_map(p: NonlinearProblem, c: np.ndarray) -> np.ndarray:
    sol = _integrate(p, c)
    return sol.y[:, -1] - c


def solve_periodic(p: NonlinearProblem, starts: int = 16,
                   seed: int = 0, max_steps: int = 50) -> ShootingResult:
    """Newton multistart on F(c) = (u(T) - u(0), u'(T) - u'(0)).

    Starts are drawn uniformly from the box |u(0)|, |u'(0)| <=
    10 (1 + max_x |f(x, 0)|); converged roots are deduplicated at 1e-6 in
    initial data.  Raises NoConvergence when no start converges.
    """
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, p.period, 256, endpoint=False)
    scale = 10.0 * (1.0 + float(np.max(np.abs(p.f_eval(xs, 0.0)))))
    roots = []
    n_conv = 0
    for _ in range(starts):
        c = rng.uniform(-scale, scale, size=2)
        ok = False
        for _ in range(max_steps):
            F = _periodicity_map(p, c)
            if np.linalg.norm(F) < RESIDUAL_TOL * 1e-2:
                ok = True
                break
            J = np.empty((2, 2))
            for j in range(2):
                h = 1e-6 * (1.0 + abs(c[j]))
                cp, cm = c.copy(), c.copy()
                cp[j] += h
                cm[j] -= h
                J[:, j] = (_periodicity_map(p, cp)
                           - _periodicity_map(p, cm)) / (2 * h)
            try:
                step = np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 10 * scale:
                break
            c = c - step
        if ok and np.linalg.norm(_periodicity_map(p, c)) < RESIDUAL_TOL:
            n_conv += 1
            if not any(np.linalg.norm(c - r) < CLUSTER_TOL for r in roots):
                roots.append(c.copy())
    if n_conv == 0:
        raise NoConvergence("no shooting start converged")
    sols = []
    for c in roots:
        sol = _integrate(p, c)
        xs = np.linspace(0.0, p.period, 4096)
        states = sol.sol(xs)
        res = float(np.linalg.norm(sol.y[:, -1] - c))
        sols.append(Solution(float(c[0]), float(c[1]), res,
                             xs, states[0], states[1]))
    return ShootingResult(tuple(sols), len(roots) == 1, n_conv)


def ode_residual(p: NonlinearProblem, s: Solution) -> float:
    """Max-norm defect of u'' + f(x, u) along a reported solution, measured
    by central-differencing u' from the dense output."""
    sol = _integrate(p, (s.u0, s.du0))
    h = 1e-5 * p.period
    xs = np.linspace(h, p.period - h, 4096)
    ddu = (sol.sol(xs + h)[1] - sol.sol(xs - h)[1]) / (2 * h)
    u = sol.sol(xs)[0]
    return float(np.max(np.abs(ddu + p.f_eval(xs, u))))
