"""Zero-structure diagnostics for nontrivial periodic/antiperiodic solutions.

A nontrivial solution u of u'' + a(x) u = 0 with (anti)periodic boundary
conditions is phase-normalized to start at its first zero r in [0, T].  As
u(x + T) = +-u(x), the solution on [r, r + T] is read from the
eigenfunction's one pass over [0, T], and its zeros and critical points are
extracted from sign changes on a grid, read in one array call.  The spacing
bounds, parity of the zero count, and the per-subinterval L1 inequalities
can then be checked against the structure theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coeff as cf
from . import constants as cn
from . import floquet as fq
from ._scipy import brentq
from .errors import DegenerateSolution, DomainError, RootSearchFailure
from .settings import current


@dataclass(frozen=True)
class ZeroStructure:
    """Zeros of u (even positions, endpoints included) and of u' (odd)."""

    u_zeros: tuple[float, ...]
    du_zeros: tuple[float, ...]
    m: int
    spacings: tuple[float, ...]
    bc: str
    shift: float

    def merged(self) -> list[float]:
        """The full alternating sequence x_0 < x_1 < ... < x_{2m}."""
        return sorted(self.u_zeros + self.du_zeros)

    def to_dict(self) -> dict:
        return {"u_zeros": list(self.u_zeros), "du_zeros": list(self.du_zeros),
                "m": self.m, "spacings": list(self.spacings), "bc": self.bc,
                "shift": self.shift}


@dataclass(frozen=True)
class StructureReport:
    spacing_bound: float
    all_spacings_within: bool
    one_spacing_strict: bool
    parity_ok: bool
    count_ok: bool

    @property
    def all_ok(self) -> bool:
        return (self.all_spacings_within and self.one_spacing_strict
                and self.parity_ok and self.count_ok)

    def to_dict(self) -> dict:
        return {**vars(self), "all_ok": self.all_ok}


def _sign_change_zeros(f, xs: np.ndarray, vals: np.ndarray) -> list[float]:
    """Zeros of the scalar function f on [xs[0], xs[-1]]: sign changes of
    its values vals on the grid xs, each refined by brentq."""
    zeros, x_tol = [], current().x_tol
    for i in range(len(xs) - 1):
        lo, hi = float(xs[i]), float(xs[i + 1])
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            zeros.append(lo)
        elif a * b < 0:
            zeros.append(float(brentq(f, lo, hi, xtol=x_tol)))
    if vals[-1] == 0.0:
        zeros.append(float(xs[-1]))
    # merge duplicates from grid points landing on a zero
    out = []
    for z in zeros:
        if not out or z - out[-1] > 10 * x_tol:
            out.append(z)
    return out


def extract_zero_structure(a: cf.PeriodicCoefficient, bc: str,
                           samples: int = 4096) -> ZeroStructure:
    """Phase-normalize the kernel solution at mu = 0 and list its zeros.

    The eigenfunction is computed once, on [0, T], and r is its first zero
    there.  As it is (anti)periodic, u(x + T) = +-u(x), so the same
    solution on [r, r + T] is read from that one pass, and the zeros of u
    and u' are taken on a grid of [r, r + T] and listed relative to r.
    """
    traj = fq.eigenfunction(a, 0.0, bc)
    T, cfg = a.period, current()
    sign = 1.0 if bc == "periodic" else -1.0
    xs = np.linspace(0.0, T, samples)
    vals = traj.state(xs)
    y0, yT = vals[:, 0], vals[:, -1]
    if np.max(np.abs(yT - sign * y0)) > cfg.endpoint_tol * np.max(np.abs(y0)):
        raise DegenerateSolution(f"eigenfunction is not {bc}")
    u0_zeros = _sign_change_zeros(traj.u, xs, vals[0])
    if not u0_zeros:
        raise RootSearchFailure("eigenfunction has no zero in [0, T]")
    r = u0_zeros[0]

    def state(x):
        """(u, u') at r + x, read as sign * (u, u') at r + x - T past T."""
        y = np.asarray(x, dtype=float) + r
        past = y > T
        return np.where(past, sign, 1.0) * traj.state(np.where(past, y - T, y))

    # x = 0 and x = T are zeros of u, asserted, so u' is away from 0 there
    vals = state(xs)
    uz = [0.0] + [z for z in _sign_change_zeros(lambda x: state(x)[0], xs,
                                                vals[0])
                  if cfg.endpoint_tol < z < T - cfg.endpoint_tol] + [T]
    dz = [z for z in _sign_change_zeros(lambda x: state(x)[1], xs, vals[1])
          if cfg.x_tol < z < T - cfg.x_tol]

    du = np.abs(state(np.array(uz))[1])
    if np.any(du < 1e-8 * abs(vals[1, 0])):
        raise DegenerateSolution(
            f"u and u' both vanish near x={uz[int(du.argmin())]}: "
            "numerical fault")

    m = len(uz) - 1
    if len(dz) != m:
        raise DegenerateSolution(
            f"alternation broken: {m + 1} zeros of u but {len(dz)} of u'")
    for i in range(m):
        if not uz[i] < dz[i] < uz[i + 1]:
            raise DegenerateSolution("zeros of u and u' do not alternate")

    merged = sorted(uz + dz)  # the alternating sequence, as checked above
    spac = tuple(float(b - a_) for a_, b in zip(merged[:-1], merged[1:]))
    return ZeroStructure(tuple(uz), tuple(dz), m, spac, bc, r)


def _check_structure(z: ZeroStructure, bound: float, parity: int,
                     min_m: int) -> StructureReport:
    """Every spacing <= bound with one strict, m % 2 == parity, m >= min_m."""
    return StructureReport(
        bound,
        all(s <= bound + 1e-9 for s in z.spacings),
        any(s < bound - 1e-9 for s in z.spacings),
        z.m % 2 == parity,
        z.m >= min_m,
    )


def check_periodic_structure(z: ZeroStructure, n: int, T: float) -> StructureReport:
    """Spacing <= T/(4n) with one strict, m even and >= 2(n+1)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return _check_structure(z, T / (4 * n), 0, 2 * (n + 1))


def check_antiperiodic_structure(z: ZeroStructure, n: int, T: float) -> StructureReport:
    """Spacing <= T/(2(2n-1)) with one strict, m odd and >= 2n+1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return _check_structure(z, T / (2 * (2 * n - 1)), 1, 2 * n + 1)


def subinterval_inequality(a: cf.PeriodicCoefficient, z: ZeroStructure,
                           n: int, T: float, side: str) -> dict:
    """Per-subinterval L1 lower bounds between consecutive zeros of u and u'.

    On each [x_i, x_{i+1}] of the merged alternating sequence,
    int (a - lam) >= sqrt(lam) cot(sqrt(lam) (x_{i+1} - x_i)); the margins
    and the chained total are returned.  ``a`` is the coefficient the
    structure was extracted from: the zeros are relative to z.shift, so
    each integral runs over [x_i + z.shift, x_{i+1} + z.shift].
    """
    if side == "periodic":
        lam = cn.lambda_const(n, T)
    elif side == "antiperiodic":
        lam = cn.lambda_anti_const(n, T)
    else:
        raise DomainError("side must be 'periodic' or 'antiperiodic'")
    r = math.sqrt(lam)
    pts = z.merged()
    margins = []
    cot_sum = 0.0
    dist_sum = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        arg = r * (hi - lo)
        if not 0 < arg < math.pi:
            raise DomainError("spacing outside the cot bound's domain")
        cot_term = r * math.cos(arg) / math.sin(arg)
        dist = cf.l1_distance(a, lam, (lo + z.shift, hi + z.shift))
        margins.append({"interval": (lo, hi), "l1_distance": dist,
                        "cot_bound": cot_term, "margin": dist - cot_term})
        cot_sum += cot_term
        dist_sum += dist
    total = cf.l1_distance(a, lam, (0.0, T))
    return {"per_interval": margins, "cot_sum": cot_sum,
            "distance_sum": dist_sum, "total_distance": total,
            "chain_ok": cot_sum <= total + 1e-7}


def equal_spacing_bound(n: int, T: float, m: int) -> float:
    """(4 n pi / T) m cot(n pi / m): the equal-spacing lower bound on beta1."""
    if m <= 2 * n:
        raise DomainError("need m > 2n")
    return (4 * n * math.pi / T) * m / math.tan(n * math.pi / m)


def mixed_principal_eigenvalue(s: float, e: float) -> float:
    """pi^2 / (4 (e - s)^2): principal eigenvalue with u(s) = 0, u'(e) = 0."""
    if not s < e:
        raise DomainError("need s < e")
    return math.pi ** 2 / (4 * (e - s) ** 2)
