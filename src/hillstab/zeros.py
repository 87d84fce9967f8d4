"""Zero-structure diagnostics for nontrivial periodic/antiperiodic solutions.

A nontrivial solution u of u'' + a(x) u = 0 with (anti)periodic boundary
conditions is phase-normalized so u(0) = 0 by shifting the coefficient to a
zero of u, then its zeros and critical points in [0, T] are extracted from
sign changes on a grid, read from the trajectory in one array call.  The
spacing bounds, parity of the zero count, and the per-subinterval L1
inequalities can then be checked against the structure theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import coeff as cf
from . import constants as cn
from . import floquet as fq
from .errors import DegenerateSolution, DomainError, RootSearchFailure

#: x-resolution of zero locations
X_TOL = 1e-10
#: endpoint zeros are asserted, not searched
ENDPOINT_TOL = 1e-8


@dataclass(frozen=True)
class ZeroStructure:
    """Zeros of u (even positions, endpoints included) and of u' (odd)."""

    u_zeros: tuple[float, ...]
    du_zeros: tuple[float, ...]
    m: int
    spacings: tuple[float, ...]
    bc: str
    shift: float
    shifted_coefficient: cf.PeriodicCoefficient

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


def _sign_change_zeros(traj: fq.Trajectory, k: int,
                       samples: int) -> list[float]:
    """Zeros in [0, T] of u (k = 0) or u' (k = 1): sign changes on a grid
    read in one array call, each refined by brentq on scalar calls."""
    T = traj.a.period
    xs = np.linspace(0.0, T, samples)
    vals = traj.state(xs)[k]
    f = (traj.u, traj.du)[k]
    zeros = []
    for i in range(len(xs) - 1):
        lo, hi = float(xs[i]), float(xs[i + 1])
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            zeros.append(lo)
        elif a * b < 0:
            zeros.append(float(brentq(f, lo, hi, xtol=X_TOL)))
    if vals[-1] == 0.0:
        zeros.append(T)
    # merge duplicates from grid points landing on a zero
    out = []
    for z in zeros:
        if not out or z - out[-1] > 10 * X_TOL:
            out.append(z)
    return out


def extract_zero_structure(a: cf.PeriodicCoefficient, bc: str,
                           samples: int = 4096) -> ZeroStructure:
    """Phase-normalize the kernel solution at mu = 0 and list its zeros.

    The eigenfunction is computed once, a zero r of u is located, and the
    structure is re-read from the solution of the r-shifted coefficient with
    u(0) = 0, u'(0) = 1 (the same solution up to phase and scale).
    """
    traj = fq.eigenfunction(a, 0.0, bc)
    T = a.period
    u0_zeros = _sign_change_zeros(traj, 0, samples)
    if not u0_zeros:
        raise RootSearchFailure("eigenfunction has no zero in [0, T]")
    r = u0_zeros[0]
    ash = a.shift(r)
    norm = fq.Trajectory(ash, 0.0, (0.0, 1.0))

    if abs(norm.u(0.0)) > ENDPOINT_TOL:
        raise DegenerateSolution("normalized solution does not vanish at 0")
    end_ok = abs(norm.u(T)) <= ENDPOINT_TOL * max(1.0, abs(norm.du(T)))
    if not end_ok:
        raise DegenerateSolution("normalized solution does not vanish at T")

    uz = _sign_change_zeros(norm, 0, samples)
    if abs(uz[0]) > ENDPOINT_TOL:
        uz.insert(0, 0.0)
    else:
        uz[0] = 0.0
    if abs(uz[-1] - T) > ENDPOINT_TOL:
        uz.append(T)
    else:
        uz[-1] = T
    dz = [z for z in _sign_change_zeros(norm, 1, samples)
          if X_TOL < z < T - X_TOL]

    for z in uz:
        if abs(norm.du(z)) < 1e-8:
            raise DegenerateSolution(
                f"u and u' both vanish near x={z}: numerical fault")

    m = len(uz) - 1
    if len(dz) != m:
        raise DegenerateSolution(
            f"alternation broken: {m + 1} zeros of u but {len(dz)} of u'")
    for i in range(m):
        if not uz[i] < dz[i] < uz[i + 1]:
            raise DegenerateSolution("zeros of u and u' do not alternate")

    merged = sorted(uz + dz)  # the alternating sequence, as checked above
    spac = tuple(float(b - a_) for a_, b in zip(merged[:-1], merged[1:]))
    return ZeroStructure(tuple(uz), tuple(dz), m, spac, bc, r, ash)


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
    and the chained total are returned.  ``a`` must be the shifted
    coefficient stored in the structure (or any coefficient the structure
    describes).
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
        dist = cf.l1_distance(a, lam, (lo, hi))
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
