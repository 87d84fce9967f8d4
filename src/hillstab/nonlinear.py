"""Nonlinear periodic boundary value problems u'' + f(x, u) = 0.

The certificates here verify the hypothesis sets under which the periodic
problem has a unique solution: an envelope sandwich alpha <= f_u <= beta
with the envelopes certified by the L1 or Linf criteria, or the classical
band condition that the range of f_u avoids the resonant squares.  The
shooting solver probes existence/uniqueness numerically by Newton
multistart on the periodicity map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coeff as cf
from . import constants as cn
from . import expr as ex
from . import lyapunov as ly
from ._scipy import solve_ivp
from .errors import (DomainError, IntegrationFailure, MissingEnvelopes,
                     NoConvergence, NonFiniteValue, ParseError)
from .settings import current


def _step(u):
    """Step in u of the central difference at u."""
    return 1e-6 * (1.0 + abs(u))


def _central_difference(f, x, u):
    """df/du by a central difference with step _step(u); f(x, u) takes
    arrays or floats."""
    h = _step(u)
    return (f(x, u + h) - f(x, u - h)) / (2 * h)


def _finite(values, name: str, where: str):
    """values, or NonFiniteValue when one of them is not finite."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"{name} is not finite on {where}")
    return values


@dataclass(frozen=True)
class NonlinearProblem:
    f: ex.Expression
    period: float
    fu: ex.Expression | None = None
    alpha_env: cf.PeriodicCoefficient | None = None
    beta_env: cf.PeriodicCoefficient | None = None
    u_box: tuple[float, float] | None = None

    @np.errstate(over="ignore", invalid="ignore")  # _finite reports them
    def __post_init__(self):
        if not (self.period > 0 and math.isfinite(self.period)):
            raise ParseError("period must be a positive finite real")
        box = self.u_box
        if box is not None and not (len(box) == 2 and np.all(np.isfinite(box))):
            raise ParseError("u_box must be two finite reals")
        for name in ("alpha_env", "beta_env"):
            env = getattr(self, name)
            if env is not None and \
                    abs(env.period - self.period) > 1e-12 * self.period:
                raise ParseError(f"{name} has period {env.period}, not the "
                                 f"problem's period {self.period}")
        xs = np.linspace(0.0, self.period, 64, endpoint=False)
        us = np.linspace(-3.0, 3.0, 8)[:, None]
        f0 = _finite(self.f_eval(xs, us), "f", "samples")
        # x + T rounds, which moves f by up to |f_x| ulp(x + T), and f
        # rounds at its size: the allowance grows with both, f_x read from
        # a central difference in x at the samples
        shift = np.max(np.abs(self.f_eval(xs + self.period, us) - f0))
        hi, lo = xs + 1e-8 * (1.0 + xs), xs - 1e-8 * (1.0 + xs)
        fx = np.abs((self.f_eval(hi, us) - self.f_eval(lo, us)) / (hi - lo))
        slope = np.max(fx, where=np.isfinite(fx), initial=0.0)
        if shift > 1e-10 * (1.0 + np.max(np.abs(f0))) \
                + 4 * slope * np.spacing(2 * self.period):
            raise DomainError("f is not T-periodic in x on samples")
        if self.fu is not None:
            fu = _finite(self.fu.eval(x=xs, u=us), "fu", "samples")
            fd = _central_difference(self.f_eval, xs, us)
            # The difference of two values of size |f| is off by a few ulps
            # of |f|, divided by the width 2h of the difference.
            rounding = 4 * np.finfo(float).eps * np.abs(f0) / (2 * _step(us))
            if np.any(np.abs(fu - fd) > 1e-6 * (1.0 + np.abs(fu)) + rounding):
                raise DomainError("fu is not the u-derivative of f on samples")

    def f_eval(self, x, u):
        return self.f.eval(x=x, u=u)

    def fu_eval(self, x, u):
        if self.fu is not None:
            return self.fu.eval(x=x, u=u)
        return _central_difference(self.f_eval, x, u)

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
        return NonlinearProblem.from_dict(cf.parse_json(text))


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
    """The distinct roots' solutions, whether there is one, and how many
    starts converged: confirmed a root at `ode` or reached one confirmed
    before them."""
    solutions: tuple[Solution, ...]
    unique: bool
    n_converged_starts: int


@np.errstate(over="ignore", invalid="ignore")  # _finite reports them
def _fu_grid(p: NonlinearProblem) -> tuple[np.ndarray, np.ndarray]:
    """`sandwich_grid` points x of [0, T) and f_u at them by as many u values
    of the problem's u_box, u along the first axis."""
    if p.u_box is None:
        raise DomainError("no u_box supplied")
    xs = np.linspace(0.0, p.period, current().sandwich_grid, endpoint=False)
    us = np.linspace(p.u_box[0], p.u_box[1], current().sandwich_grid)
    return xs, _finite(p.fu_eval(xs, us[:, None]), "f_u", "the sandwich grid")


def _envelope_hypotheses(p: NonlinearProblem, lam: float) -> tuple[bool, dict]:
    """lam strictly below alpha, and alpha(x) <= f_u(x,u) <= beta(x) on the
    grid up to `sandwich_slack`: the hypotheses both envelope certificates
    share, as (whether they hold, their values)."""
    if p.alpha_env is None or p.beta_env is None:
        raise MissingEnvelopes("alpha_env and beta_env are required")
    dom = cf.dominates(p.alpha_env, lam)
    xs, fu = _fu_grid(p)
    worst = min(float(np.min(fu - p.alpha_env(xs))),
                float(np.min(p.beta_env(xs) - fu)))
    return dom.strict_on_positive_measure and worst >= -current().sandwich_slack, {
        "dominance_min_gap": dom.min_gap,
        "dominance_strict_fraction": dom.strict_fraction,
        "sandwich_worst_margin": worst}


def check_l1_hypotheses(p: NonlinearProblem, n: int) -> ly.Certificate:
    """lam_{2n-1} strictly below alpha <= f_u <= beta with ||beta||_L1 within
    the sharp constant: the periodic problem has a unique solution."""
    T = p.period
    lam = cn.lambda_const(n, T)
    env_ok, env = _envelope_hypotheses(p, lam)
    bnorm = cf.l1_distance(p.beta_env, 0.0, (0.0, T))
    g = cn.gamma1(n, T)
    holds = env_ok and bnorm <= g + current().l1_slack
    return ly.Certificate(
        "NL_L1_PERIODIC_N", n,
        {"lambda_2n_minus_1": lam, **env, "beta_l1_norm": bnorm,
         "gamma1": g, "margin_l1": g - bnorm},
        holds,
        "the periodic problem u'' + f(x,u) = 0 has a unique solution",
    )


def check_linf_hypotheses(p: NonlinearProblem) -> ly.Certificate:
    """0 strictly below alpha <= f_u <= beta with beta passing the split-point
    Linf bound (period pi)."""
    if abs(p.period - math.pi) > 1e-12:
        raise DomainError("this certificate is stated for period pi")
    env_ok, hyp = _envelope_hypotheses(p, 0.0)
    inner = ly.certify_linf_periodic(p.beta_env)
    holds = env_ok and inner.holds
    hyp.update({"beta_" + k: v for k, v in inner.hypothesis_values.items()})
    return ly.Certificate(
        "NL_LINF_PERIODIC", None, hyp, holds,
        "the periodic problem u'' + f(x,u) = 0 has a unique solution",
        inner.diagnostics,
    )


def check_classical_band(p: NonlinearProblem) -> ly.Certificate:
    """f_u's sampled range strictly inside a gap ((2n)^2 pi^2/T^2,
    (2(n+1))^2 pi^2/T^2) for some n >= 0."""
    T = p.period
    _, fu = _fu_grid(p)
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
    """Dense solution of u'' + f(x, u) = 0 on [0, T] from (u(0), u'(0))."""
    f = p.f.compiled()

    def rhs(x, y):
        return [y[1], -f(x, y[0])]

    sol = solve_ivp(rhs, (0.0, p.period), y0, method="DOP853",
                    rtol=current().ode, atol=current().ode, dense_output=True)
    if not sol.success:
        raise IntegrationFailure(sol.message)
    return sol


def _shoot(p: NonlinearProblem, c: np.ndarray, tol: float):
    """F(c) = (u(T), u'(T)) - c and its Jacobian Phi(T) - I, from one
    integration at rtol = atol = tol of the state with its variational
    equation Phi' = [[0, 1], [-f_u, 0]] Phi, Phi(0) = I."""
    f = p.f.compiled()
    if p.fu is not None:
        fu = p.fu.compiled()
    else:
        def fu(x, u):
            return _central_difference(f, x, u)

    def rhs(x, y):
        q = fu(x, y[0])
        return [y[1], -f(x, y[0]), y[3], -q * y[2], y[5], -q * y[4]]

    sol = solve_ivp(rhs, (0.0, p.period), [c[0], c[1], 1.0, 0.0, 0.0, 1.0],
                    method="DOP853", rtol=tol, atol=tol)
    if not sol.success:
        raise IntegrationFailure(sol.message)
    y = sol.y[:, -1]
    return y[:2] - c, np.array([[y[2] - 1.0, y[4]], [y[3], y[5] - 1.0]])


def _newton(p: NonlinearProblem, c: np.ndarray, tol: float, scale: float,
            roots: list[np.ndarray]):
    """The root Newton reaches from c in at most 50 steps, first
    integrating at tol, or None when it stops on a failed integration, a
    singular Jacobian, a non-finite step or one longer than 10 scale.
    Before each integration an iterate within `cluster` of one of the
    confirmed roots stops there: that root is returned unchanged."""
    cfg = current()
    for _ in range(50):
        for root in roots:
            if np.linalg.norm(c - root) < cfg.cluster:
                return root
        try:
            F, J = _shoot(p, c, tol)
            if np.linalg.norm(F) < cfg.residual * 1e-2 and tol != cfg.ode:
                tol = cfg.ode
                F, J = _shoot(p, c, tol)
        except IntegrationFailure:
            return None
        r = np.linalg.norm(F)
        if r < cfg.residual * 1e-2:
            return c
        tol = min(tol, max(cfg.ode, r * r))
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 10 * scale:
            return None
        c = c - step
    return None


def solve_periodic(p: NonlinearProblem, starts: int = 16,
                   seed: int = 0) -> ShootingResult:
    """Newton multistart on F(c) = (u(T) - u(0), u'(T) - u'(0)).

    Starts are drawn uniformly from the box |u(0)|, |u'(0)| <=
    10 (1 + max_x |f(x, 0)|); each Newton step takes F and its exact
    Jacobian from one integration.  That integration is only as accurate
    as the next step needs (inexact Newton): a start's first runs at
    sqrt(`ode`), and after a step from |F| = r the next runs at
    min(sqrt(`ode`), max(`ode`, r**2)), but never looser than the one
    before, so a start cannot cycle between the fixed points of a loose
    and a tight integration.  A start converges when |F| < `residual` /
    100 from an integration at `ode`; when a looser one meets the test
    first, c is integrated once more at `ode` within the same step.  A
    start that does not converge so, a failed integration included, is run
    again from the same point with every integration at `ode`, as loose
    early steps can send Newton away from a root near where the Jacobian is
    ill-conditioned.  Converged roots are deduplicated at `cluster` in
    initial data, and each is confirmed once: the starts after it share
    it, so a start whose iterate comes within `cluster` of a root an
    earlier start confirmed stops there before its next integration,
    in the loose run and the retry alike, and counts as converged to that
    root.  Raises NonFiniteValue when f(x, 0) is not finite, and
    NoConvergence when no start converges.
    """
    rng, cfg = np.random.default_rng(seed), current()
    xs = np.linspace(0.0, p.period, 256, endpoint=False)
    scale = 10.0 * (1.0 + float(np.max(np.abs(p.f_eval(xs, 0.0)))))
    if not math.isfinite(scale):
        raise NonFiniteValue("f(x, 0) is not finite: the starts have no scale")
    roots = []
    n_conv = 0
    for _ in range(starts):
        c0 = rng.uniform(-scale, scale, size=2)
        c = _newton(p, c0, math.sqrt(cfg.ode), scale, roots)
        if c is None:
            c = _newton(p, c0, cfg.ode, scale, roots)
        if c is None:
            continue
        n_conv += 1
        if not any(np.linalg.norm(c - root) < cfg.cluster for root in roots):
            roots.append(c)
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
