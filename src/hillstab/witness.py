"""Extremal coefficient families showing the L1 constants are sharp.

Two families live here:

* ``a_eps``: built from an explicit C^2 function u_eps whose quotient
  -u''/u equals the eigenvalue constant outside boundary layers of width
  eps.  Its L1 distance to the constant approaches the sharp threshold
  from above as eps -> 0 but never reaches it.

* ``a_{alpha,x0}``: the two-plateau potential on (0, pi) whose antiperiodic
  problem resonates exactly at x0 = pi (1 -+ cos alpha) / 2, while its
  periodic problem never does.  Both facts come with closed-form 4x4
  determinants, re-derived here by assembling the matching conditions.

Each builder returns a plain ``PeriodicCoefficient``: ``make_u_eps`` and
``make_a_eps`` give u_eps and a_eps, ``make_two_step`` the potential.
"""

from __future__ import annotations

import math

import numpy as np

from . import coeff as cf
from . import constants as cn
from . import expr as ex
from .errors import DomainError


def _check_eps(n: int, T: float, eps: float):
    if n < 1 or T <= 0:
        raise DomainError("need n >= 1 and T > 0")
    if not 0 < eps < T / (8 * (n + 1)):
        raise DomainError(f"eps must lie in (0, {T / (8 * (n + 1))})")


def _base_clause(n: int, T: float, eps: float) -> ex.Expression:
    """u on [0, eps]: sine plus a cubic correction flattening u' at 0."""
    w = 2 * n * math.pi / T
    q = T / (4 * (n + 1))
    C = math.cos(n * math.pi / (2 * (n + 1)))
    sine = ex.Neg(ex.Sin(ex.Mul(ex.Const(w), ex.Sub(ex.Var("x"), ex.Const(q)))))
    cubic = ex.Mul(ex.Const(w * C / (3 * eps ** 2)),
                   ex.Pow(ex.Sub(ex.Var("x"), ex.Const(eps)), 3))
    return ex.Add(sine, cubic)


def make_u_eps(n: int, T: float, eps: float) -> cf.PeriodicCoefficient:
    """The C^2 piecewise function: cubic-corrected sine on [0, eps], pure sine
    up to the quarter point, odd/even reflections, then T/(n+1)-periodic."""
    _check_eps(n, T, eps)
    w = 2 * n * math.pi / T
    q = T / (4 * (n + 1))
    u0 = _base_clause(n, T, eps)
    x = ex.Var("x")

    def sine_about(c):
        # -sin(w (x - c)) shifted so the clause matches the reflections
        return ex.Neg(ex.Sin(ex.Mul(ex.Const(w), ex.Sub(x, ex.Const(c)))))

    pieces = []
    for j in range(n + 1):
        o = j * 4 * q
        pieces += [
            (o, o + eps, ex.shift_var(u0, -o)),
            (o + eps, o + 2 * q - eps, sine_about(o + q)),
            (o + 2 * q - eps, o + 2 * q, ex.Neg(ex.reflect_var(u0, o + 2 * q))),
            (o + 2 * q, o + 2 * q + eps, ex.Neg(ex.shift_var(u0, -(o + 2 * q)))),
            (o + 2 * q + eps, o + 4 * q - eps,
             ex.Sin(ex.Mul(ex.Const(w), ex.Sub(x, ex.Const(o + 3 * q))))),
            (o + 4 * q - eps, o + 4 * q, ex.reflect_var(u0, o + 4 * q)),
        ]
    return cf.PeriodicCoefficient(T, tuple(pieces))


def derivative(c: cf.PeriodicCoefficient, order: int = 1) -> cf.PeriodicCoefficient:
    """Piecewise symbolic derivative (interior of the pieces)."""
    pieces = c.pieces
    for _ in range(order):
        pieces = tuple((s, e, p.diff("x")) for s, e, p in pieces)
    return cf.PeriodicCoefficient(c.period, pieces, c.removable_points)


def make_a_eps(n: int, T: float, eps: float) -> cf.PeriodicCoefficient:
    """The witness coefficient -u_eps'' / u_eps.

    Outside the boundary layers the quotient is identically the eigenvalue
    constant, so those pieces are emitted as exact constants; inside the
    layers the quotient is kept symbolically.
    """
    _check_eps(n, T, eps)
    q = T / (4 * (n + 1))
    lam = cn.lambda_const(n, T)
    u0 = _base_clause(n, T, eps)
    a0 = ex.Div(ex.Neg(u0.diff("x").diff("x")), u0)

    pieces = []
    removable = []
    for j in range(n + 1):
        o = j * 4 * q
        pieces += [
            (o, o + eps, ex.shift_var(a0, -o)),
            (o + eps, o + 2 * q - eps, ex.Const(lam)),
            (o + 2 * q - eps, o + 2 * q, ex.reflect_var(a0, o + 2 * q)),
            (o + 2 * q, o + 2 * q + eps, ex.shift_var(a0, -(o + 2 * q))),
            (o + 2 * q + eps, o + 4 * q - eps, ex.Const(lam)),
            (o + 4 * q - eps, o + 4 * q, ex.reflect_var(a0, o + 4 * q)),
        ]
        removable += [o + q, o + 3 * q]
    return cf.PeriodicCoefficient(T, tuple(pieces), tuple(removable))


def tightness_sweep(n: int, T: float, eps_list) -> list[tuple[float, float]]:
    """L1 distances ||a_eps - lam_{2n-1}|| for a decreasing list of eps."""
    lam = cn.lambda_const(n, T)
    out = []
    for eps in eps_list:
        a = make_a_eps(n, T, eps)
        out.append((eps, cf.l1_distance(a, lam, (0.0, T))))
    return out


# -- two-plateau resonance family ---------------------------------------------

def make_two_step(alpha: float, x0: float) -> cf.PeriodicCoefficient:
    """The potential alpha^2/x0^2 on (0, x0), alpha^2/(pi - x0)^2 on (x0, pi)."""
    if not (alpha > 0 and 0 < x0 < math.pi):
        raise DomainError("need alpha > 0 and x0 in (0, pi)")
    return cf.step_function(math.pi, [
        (0.0, x0, alpha ** 2 / x0 ** 2),
        (x0, math.pi, alpha ** 2 / (math.pi - x0) ** 2),
    ])


def _matching_system(alpha: float, x0: float, sign: float) -> np.ndarray:
    """4x4 system from C^1 matching at x0 plus (anti)periodic end conditions.

    Unknowns (A, B, C, D) parameterize A sin(alpha x / x0) + B cos(alpha x / x0)
    on the left and C sin(alpha (x - pi)/(pi - x0)) + D cos(...) on the right;
    sign = +1 encodes u(0) + u(pi) = 0 (antiperiodic), -1 the periodic case.
    """
    pi = math.pi
    wl = alpha / x0
    wr = alpha / (pi - x0)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return np.array([
        [0.0, 1.0, 0.0, sign],
        [wl, 0.0, sign * wr, 0.0],
        [sa, ca, sa, -ca],
        [wl * ca, -wl * sa, -wr * ca, -wr * sa],
    ])


def anti_determinant(alpha: float, x0: float) -> float:
    """Closed-form determinant of the antiperiodic matching system."""
    if not (0 < x0 < math.pi and alpha > 0):
        raise DomainError("need alpha > 0 and x0 in (0, pi)")
    pi = math.pi
    return (-4 * x0 ** 2 + 4 * x0 * pi - pi ** 2 * math.sin(alpha) ** 2) * \
        alpha ** 2 / (x0 ** 2 * (pi - x0) ** 2)


def periodic_determinant(alpha: float, x0: float) -> float:
    """Closed-form determinant of the periodic matching system; always > 0."""
    if not (0 < x0 < math.pi and 0 < alpha < math.pi):
        raise DomainError("need alpha in (0, pi) and x0 in (0, pi)")
    pi = math.pi
    return pi ** 2 * alpha ** 2 * math.sin(alpha) ** 2 / \
        (x0 ** 2 * (pi - x0) ** 2)


def anti_determinant_assembled(alpha: float, x0: float) -> float:
    """Same determinant, from the assembled 4x4 system (transcription guard)."""
    return float(np.linalg.det(_matching_system(alpha, x0, +1.0)))


def periodic_determinant_assembled(alpha: float, x0: float) -> float:
    return float(np.linalg.det(_matching_system(alpha, x0, -1.0)))


def anti_resonant_x0(alpha: float) -> tuple[float, float]:
    """The two x0 where the antiperiodic two-step problem resonates."""
    if not 0 < alpha < math.pi / 2:
        raise DomainError("need alpha in (0, pi/2)")
    pi = math.pi
    return (pi * (1 - math.cos(alpha)) / 2, pi * (1 + math.cos(alpha)) / 2)
