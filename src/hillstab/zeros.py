"""Zero-structure diagnostics for nontrivial periodic/antiperiodic solutions.

A nontrivial solution u of u'' + a(x) u = 0 with (anti)periodic boundary
conditions is phase-normalized to start at its first zero r in [0, T].  As
u(x + T) = +-u(x), its zeros and critical points on [r, r + T] are those of
the eigenfunction's one pass over [0, T] rotated by r: each is found once,
from the sign changes on a grid read in one array call, and refined to
`root` by floquet's bracketed Newton method, the band edges' own, from the
chord root of its grid step.  That start is kept when it is the step's end,
as it is for a zero on a grid point or at T, so such a zero takes a Newton
step or two, not a bisection down to `root`.  The
spacing bounds, parity of the zero count, and the per-subinterval L1
inequalities can then be checked against the structure theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coeff as cf
from . import constants as cn
from . import floquet as fq
from .errors import DegenerateSolution, DomainError, RootSearchFailure
from .settings import current

#: points of the grid of [0, T] on which the eigenfunction's zeros are found
SAMPLES = 4096


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


def _zeros(f, xs: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(zeros, slopes) of the function whose values on the grid xs are vals:
    one zero in each step where the sign changes, or ends at 0, refined by
    floquet's bracketed Newton from the chord's root, all zeros in lockstep.
    f(x) gives the values and the derivatives at an array of points x, and
    is called once per Newton step for all zeros; a zero's slope is the
    derivative there."""
    ode = current().ode

    def search(i):
        lo, hi, v, w = xs[i], xs[i + 1], vals[i], vals[i + 1]
        return fq._refine(lambda x, reply: (*reply, 0.0, ode), lo, hi,
                          lo - v * (hi - lo) / (w - v), None, v < 0, ode)

    def answer(requests):
        at = list(requests)
        v, dv = f(np.array([x for x, _ in at]))
        return dict(zip(at, zip(v.tolist(), dv.tolist())))

    sg = np.sign(vals)
    out = fq._lockstep([search(i) for i in np.flatnonzero(
        (sg[:-1] != sg[1:]) & (sg[:-1] != 0))], answer)
    return np.array([(z, slope) for z, _, slope in out]).reshape(-1, 2).T


def extract_zero_structure(a: cf.PeriodicCoefficient, bc: str) -> ZeroStructure:
    """Phase-normalize the kernel solution at mu = 0 and list its zeros.

    The eigenfunction is read once, on a grid of [0, T], and the zeros of u
    and u' are found there, u'' = -a u giving the slope of u'.  As it is
    (anti)periodic, u(x + T) = +-u(x), so the same solution on [r, r + T],
    r its first zero, has those zeros rotated by r; they are listed
    relative to r.
    """
    traj = fq.eigenfunction(a, 0.0, bc)
    T, cfg = a.period, current()
    sign = 1.0 if bc == "periodic" else -1.0
    xs = np.linspace(0.0, T, SAMPLES)
    vals = traj.state(xs)
    y0, yT = vals[:, 0], vals[:, -1]
    if np.max(np.abs(yT - sign * y0)) > cfg.endpoint_tol * np.max(np.abs(y0)):
        raise DegenerateSolution(f"eigenfunction is not {bc}")
    # T is read as the image of 0, so a zero there is found once, not twice
    vals[:, -1] = sign * y0

    def du(x):
        u, v = traj.state(x)
        return v, -a(x) * u

    uz, slopes = _zeros(traj.state, xs, vals[0])
    dz, _ = _zeros(du, xs, vals[1])
    if not uz.size:
        raise RootSearchFailure("eigenfunction has no zero in [0, T]")
    if np.any(np.abs(slopes) < 1e-8 * np.max(np.abs(vals[1]))):
        raise DegenerateSolution(
            f"u and u' both vanish near x={uz[np.abs(slopes).argmin()]}: "
            "numerical fault")
    uz = uz % T  # a zero at T is the one at 0
    r = float(uz.min())
    uz = np.sort(uz - r).tolist() + [T]
    dz = np.sort((dz - r) % T).tolist()

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
                           n: int) -> dict:
    """Per-subinterval L1 lower bounds between consecutive zeros of u and u'.

    On each [x_i, x_{i+1}] of the merged alternating sequence,
    int (a - lam) >= sqrt(lam) cot(sqrt(lam) (x_{i+1} - x_i)), lam being
    lambda_const or lambda_anti_const (n, T) as z.bc is; the margins and
    the chained total are returned.  ``a`` is the coefficient the structure
    was extracted from, of period T: the zeros are relative to z.shift, so
    each integral runs over [x_i + z.shift, x_{i+1} + z.shift].
    """
    T = a.period
    lam = (cn.lambda_const if z.bc == "periodic" else cn.lambda_anti_const)(n, T)
    r = math.sqrt(lam)
    pts = z.merged()
    spans = list(zip(pts[:-1], pts[1:]))
    cots = []
    for lo, hi in spans:
        arg = r * (hi - lo)
        if not 0 < arg < math.pi:
            raise DomainError("spacing outside the cot bound's domain")
        cots.append(r * math.cos(arg) / math.sin(arg))
    *dists, total = cf.l1_distances(
        a, lam, [(lo + z.shift, hi + z.shift) for lo, hi in spans] + [(0.0, T)])
    cot_sum = sum(cots)
    return {"per_interval": [
                {"interval": span, "l1_distance": dist, "cot_bound": cot,
                 "margin": dist - cot}
                for span, dist, cot in zip(spans, dists, cots)],
            "cot_sum": cot_sum, "distance_sum": sum(dists),
            "total_distance": total, "chain_ok": cot_sum <= total + 1e-7}


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
