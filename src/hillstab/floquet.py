"""Ground-truth spectral engine for u'' + (mu + a(x)) u = 0.

One propagator gives each piece's 2x2 transfer matrix (an exact
trigonometric/hyperbolic block, or one integration of the fundamental
matrix) to monodromies, trajectories and eigenfunctions.  Periodic and
antiperiodic eigenvalues are the roots of Delta(mu) = +-2 where Delta is the
trace of the monodromy matrix.  Both kinds interlace along the one curve
Delta(mu), so a single upward scan evaluates Delta once per grid point and
collects the band edges of both kinds; double band edges show up as
tangencies of Delta with +-2 and are detected by local maximization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import coeff as cf
from . import expr as ex
from ._scipy import brentq, minimize_scalar, solve_ivp
from .errors import IntegrationFailure, NotAnEigenvalue, RootSearchFailure
from .settings import current


class EigEntry(NamedTuple):
    index: int
    value: float
    multiplicity: int


@dataclass
class SpectrumSlice:
    """Ordered periodic (index from 0) and antiperiodic (from 1) eigenvalues."""

    periodic: list[EigEntry] = field(default_factory=list)
    antiperiodic: list[EigEntry] = field(default_factory=list)

    def periodic_values(self) -> np.ndarray:
        return np.array([e.value for e in self.periodic])

    def antiperiodic_values(self) -> np.ndarray:
        return np.array([e.value for e in self.antiperiodic])


@dataclass(frozen=True)
class StabilityVerdict:
    kind: str  # Stable | Unstable | BoundaryStable | BoundaryUnstable
    zone_index: int | None
    witness: tuple | None
    discriminant: float


# -- piecewise propagation ----------------------------------------------------

def _const_block(q: float, L: float) -> np.ndarray:
    """Exact transfer matrix of u'' + q u = 0 over an interval of length L:
    the 2x2 map of (u, u') at its start to (u, u') at its end."""
    if q > 0:
        w = math.sqrt(q)
        c, s = math.cos(w * L), math.sin(w * L)
        return np.array([[c, s / w], [-w * s, c]])
    if q < 0:
        w = math.sqrt(-q)
        ch, sh = math.cosh(w * L), math.sinh(w * L)
        return np.array([[ch, sh / w], [w * sh, ch]])
    return np.array([[1.0, L], [0.0, 1.0]])


def _propagators(a: cf.PeriodicCoefficient, mu: float, dense: bool):
    """One pass over the pieces of a, yielding (s, e, B, columns) per piece.

    B maps (u, u') at s to (u, u') at e: the exact block on a constant piece,
    else the fundamental matrix from one integration, the same bit for bit
    with or without dense output.  With dense, columns(xs) gives the transfer
    matrices from s to the points xs column by column, shape (4, n).
    """
    for s, e, piece in a.pieces:
        cval = ex.constant_value(piece)
        if cval is not None:
            q = mu + cval
            B = _const_block(q, e - s)
            columns = functools.partial(_const_columns, q, s) if dense else None
        else:
            def rhs(x, y, f=piece.compiled()):
                q = mu + f(x)
                return [y[1], -q * y[0], y[3], -q * y[2]]

            tol = current().ode
            sol = solve_ivp(rhs, (s, e), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                            rtol=tol, atol=tol, dense_output=dense,
                            max_step=max((e - s) / 16, 1e-12))
            if not sol.success:
                raise IntegrationFailure(
                    f"ODE solver failed on [{s}, {e}]: {sol.message}")
            y = sol.y[:, -1]
            B, columns = np.array([[y[0], y[2]], [y[1], y[3]]]), sol.sol
        yield s, e, B, columns


def _const_columns(q: float, s: float, xs: np.ndarray) -> np.ndarray:
    """_const_block(q, x - s) for each x in xs on arrays, column by column."""
    L, w = xs - s, math.sqrt(abs(q))
    if q > 0:
        c, sw, ws = np.cos(w * L), np.sin(w * L) / w, -w * np.sin(w * L)
    elif q < 0:
        c, sw, ws = np.cosh(w * L), np.sinh(w * L) / w, w * np.sinh(w * L)
    else:
        c, sw, ws = np.ones_like(L), L, np.zeros_like(L)
    return np.array([c, ws, sw, c])


def _product(pieces) -> np.ndarray:
    """The transfer matrices B of one pass, multiplied in order."""
    M = np.eye(2)
    for _, _, B, _ in pieces:
        M = B @ M
    return M


def monodromy(a: cf.PeriodicCoefficient, mu: float) -> np.ndarray:
    """Fundamental matrix of u'' + (mu + a(x)) u = 0 over one period."""
    return _product(_propagators(a, mu, dense=False))


def discriminant(a: cf.PeriodicCoefficient, mu: float) -> float:
    """Trace of the monodromy matrix."""
    return float(np.trace(monodromy(a, mu)))


# -- dense trajectories -------------------------------------------------------

def _states(columns, y0, xs: np.ndarray) -> np.ndarray:
    """(u, u') at the points xs from the state y0 at the piece start."""
    m = columns(xs)
    return m[:2] * y0[0] + m[2:] * y0[1]


class Trajectory:
    """Dense solution of u'' + (mu + a(x)) u = 0 on [0, T] from given data:
    one (start, end, states) per piece, where states maps an array of points
    to their (u, u') by the transfer matrices of a dense _propagators pass."""

    def __init__(self, a: cf.PeriodicCoefficient, mu: float, y0, _pieces=None):
        self.a, self.mu = a, mu
        self.segments = []
        y = np.asarray(y0, dtype=float)
        for s, e, B, columns in _pieces or _propagators(a, mu, dense=True):
            self.segments.append((s, e, functools.partial(_states, columns, y)))
            y = B @ y

    def state(self, x) -> np.ndarray:
        """(u, u') at x in [0, T], shape (2,), or at an array of n points,
        shape (2, n).  A point is read, clamped, in the first segment whose
        end it does not pass by more than 1e-12."""
        xs = np.asarray(x, dtype=float)
        flat = xs.reshape(-1)
        ends = np.array([e for _, e, _ in self.segments])
        seg = np.minimum(np.searchsorted(ends + 1e-12, flat),
                         len(self.segments) - 1)
        out = np.empty((2, flat.size))
        for j in np.unique(seg):
            s, e, states = self.segments[j]
            out[:, seg == j] = states(np.clip(flat[seg == j], s, e))
        return out if xs.ndim else out[:, 0]

    def u(self, x: float) -> float:
        return float(self.state(x)[0])

    def du(self, x: float) -> float:
        return float(self.state(x)[1])


# -- eigenvalue search --------------------------------------------------------

def _mu_lo(a: cf.PeriodicCoefficient) -> float:
    return -cf.linf_norm(a, (0.0, a.period), samples_per_piece=256) - 1.0


def _polish_tangency(g, m: float, scale: float) -> float:
    """Refine a tangential double root by locating the zero of g'."""
    h = 1e-6 * max(1.0, scale)

    def dg(mu):
        return (g(mu + h) - g(mu - h)) / (2 * h)

    lo, hi = m - 20 * h, m + 20 * h
    d_lo, d_hi = dg(lo), dg(hi)
    if d_lo > 0 > d_hi or d_lo < 0 < d_hi:
        return brentq(dg, lo, hi, xtol=current().root)
    return m


def _gap_scale(mu: float, T: float, abar: float) -> float:
    """Local spacing of the unperturbed band edges near mu."""
    j = max(1.0, T * math.sqrt(max(mu + abar, 1.0)) / math.pi)
    return max((2 * j + 1) * math.pi ** 2 / T ** 2, 0.5 * math.pi ** 2 / T ** 2)


class _Edges:
    """Roots of g = sign * Delta - 2 met along the scan, with multiplicity.

    g is <= 0 between band-edge pairs and > 0 inside them; simple edges are
    sign changes, coincident pairs are interior local maxima touching zero.
    The periodic kind (sign +1) starts inside: the scan begins below lam0,
    where Delta > 2, so its first root is a single down-crossing.
    """

    def __init__(self, a, sign: float, count: int, scale, mu: float, d: float):
        self.a, self.sign, self.count, self.scale = a, sign, count, scale
        self.roots = []
        self.inside = sign > 0
        # grid points since the last edge, and g there
        self.xs, self.gs = [mu], [sign * d - 2.0]

    def g(self, mu: float) -> float:
        return self.sign * discriminant(self.a, mu) - 2.0

    def open(self) -> bool:
        return len(self.roots) < self.count

    def step(self, mu: float, mu_next: float, d: float) -> bool:
        """Take the next grid point, where Delta = d; True if an edge was found."""
        g_prev, g_next = self.gs[-1], self.sign * d - 2.0
        if (g_prev > 0 >= g_next) if self.inside else (g_prev <= 0 < g_next):
            self.roots.append((brentq(self.g, mu, mu_next, xtol=current().root), 1))
            self.inside = not self.inside
        else:
            self.xs.append(mu_next)
            self.gs.append(g_next)
            if self.inside or not self._tangency():
                return False
        self.xs, self.gs = [mu_next], [g_next]
        return True

    def _tangency(self) -> bool:
        """An interior local maximum of a non-positive stretch: two close
        simple edges, a double edge, or neither."""
        gs = self.gs
        if not (len(gs) >= 3 and gs[-2] > gs[-3] and gs[-2] >= gs[-1]
                and gs[-2] > -1.0):
            return False
        g, lo, hi, cfg = self.g, self.xs[-3], self.xs[-1], current()
        res = minimize_scalar(lambda m: -g(m), bounds=(lo, hi),
                              method="bounded", options={"xatol": cfg.root / 10})
        gmax, mmax = -res.fun, res.x
        if gmax > 1e-12:
            self.roots.append((brentq(g, lo, mmax, xtol=cfg.root), 1))
            self.roots.append((brentq(g, mmax, hi, xtol=cfg.root), 1))
            return True
        if gmax > -cfg.boundary:
            mmax = _polish_tangency(g, mmax, self.scale(mmax))
            self.roots += [(mmax, 2), (mmax, 2)]
            return True
        return False


def _scan(a: cf.PeriodicCoefficient, n_periodic: int, n_antiperiodic: int):
    """The first n_periodic periodic and n_antiperiodic antiperiodic
    eigenvalues, as EigEntry lists, from one upward scan of Delta(mu).

    The grid starts at _mu_lo and steps by gap_scale / 64; each kind refines
    its own brackets and stops once it holds its count.
    """
    T, abar = a.period, cf.mean(a)

    def scale(mu):
        return _gap_scale(mu, T, abar)

    mu = _mu_lo(a)
    d = discriminant(a, mu)
    guard = 0
    while d <= 2.0:
        # lam0 lies below the start: step down until Delta > 2
        mu -= scale(mu)
        d = discriminant(a, mu)
        guard += 1
        if guard > 200:
            raise RootSearchFailure("could not bracket the lowest eigenvalue")
    kinds = [_Edges(a, 1.0, n_periodic, scale, mu, d),
             _Edges(a, -1.0, n_antiperiodic, scale, mu, d)]
    idle = 0
    while any(k.open() for k in kinds):
        mu_next = mu + scale(mu) / 64
        d = discriminant(a, mu_next)
        found = [k.step(mu, mu_next, d) for k in kinds if k.open()]
        idle = 0 if any(found) else idle + 1
        if idle > 100000:
            raise RootSearchFailure("eigenvalue scan exhausted")
        mu = mu_next
    periodic, anti = (k.roots[:k.count] for k in kinds)
    return ([EigEntry(i, v, m) for i, (v, m) in enumerate(periodic)],
            [EigEntry(i + 1, v, m) for i, (v, m) in enumerate(anti)])


def periodic_eigenvalues(a: cf.PeriodicCoefficient, count: int) -> SpectrumSlice:
    """First `count` periodic eigenvalues (roots of Delta = 2), with multiplicity."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return SpectrumSlice(periodic=_scan(a, count, 0)[0])


def antiperiodic_eigenvalues(a: cf.PeriodicCoefficient, count: int) -> SpectrumSlice:
    """First `count` antiperiodic eigenvalues (roots of Delta = -2), indexed from 1."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return SpectrumSlice(antiperiodic=_scan(a, 0, count)[1])


def spectrum(a: cf.PeriodicCoefficient, n_periodic: int,
             n_antiperiodic: int) -> SpectrumSlice:
    """Both kinds from one scan; see periodic_eigenvalues and
    antiperiodic_eigenvalues."""
    if min(n_periodic, n_antiperiodic) < 1:
        raise ValueError("count must be >= 1")
    return SpectrumSlice(*_scan(a, n_periodic, n_antiperiodic))


def check_interlacing(s: SpectrumSlice, slack: float = 1e-9):
    """Verify lam0 < alam1 <= alam2 < lam1 <= lam2 < alam3 <= ...

    Returns (ok, first_violation_description).
    """
    # place in the chain: lam_i at 2i + i%2, alam_j (j from 1) at 2j - 2 + j%2
    chain = sorted([(2 * i + i % 2, "lam", i, v)
                    for i, v in enumerate(s.periodic_values())] +
                   [(2 * j + (j + 1) % 2, "anti", j, v)
                    for j, v in enumerate(s.antiperiodic_values())])
    for (_, k0, i0, v0), (_, k1, i1, v1) in zip(chain, chain[1:]):
        if k0 == k1:
            if v1 < v0 - slack:
                return False, f"ordering violated between {(k0, i0)} and {(k1, i1)}"
        elif v1 <= v0 - slack:
            return False, f"strict ordering violated between {(k0, i0)} and {(k1, i1)}"
    return True, None


def band(d: float) -> str:
    """Stable, Unstable or Boundary: |Delta| = |d| against 2 -+ `boundary`."""
    if abs(d) < 2.0 - current().boundary:
        return "Stable"
    if abs(d) > 2.0 + current().boundary:
        return "Unstable"
    return "Boundary"


def classify(a: cf.PeriodicCoefficient, mu: float,
             spec: SpectrumSlice | None = None) -> StabilityVerdict:
    """Stability verdict at mu from the discriminant, with boundary resolution.

    Stable and Unstable come from band(Delta); within tolerance of a band
    edge the verdict depends on whether the nearest eigenvalue pair
    coincides.  The zone index is filled in when a spectrum is available.
    """
    d = discriminant(a, mu)
    kind, tol = band(d), current().boundary
    if kind == "Stable":
        zone = None
        if spec is not None:
            below = int(np.sum(spec.periodic_values() < mu - tol)) + \
                int(np.sum(spec.antiperiodic_values() < mu - tol))
            zone = below // 2
        return StabilityVerdict("Stable", zone, None, d)
    if kind == "Unstable":
        return StabilityVerdict("Unstable", None, None, d)
    # band edge: locate the nearest eigenvalue pair
    if spec is None:
        if d > 0:
            spec = periodic_eigenvalues(a, 9)
        else:
            spec = antiperiodic_eigenvalues(a, 8)
    vals = spec.periodic_values() if d > 0 else spec.antiperiodic_values()
    entries = spec.periodic if d > 0 else spec.antiperiodic
    if len(vals) == 0:
        return StabilityVerdict("BoundaryUnstable", None, None, d)
    k = int(np.argmin(np.abs(vals - mu)))
    if d > 0 and entries[k].index == 0:
        # mu = lam0: in the (-inf, lam0] instability range
        return StabilityVerdict("BoundaryUnstable", None, (entries[k],), d)
    # pair partner: indices (2j-1, 2j) for periodic, (2j-1, 2j) from 1 for anti
    idx = entries[k].index
    partner_idx = idx + 1 if idx % 2 == 1 else idx - 1
    partner = next((e for e in entries if e.index == partner_idx), None)
    if partner is None:
        return StabilityVerdict("BoundaryUnstable", None, (entries[k],), d)
    if abs(partner.value - entries[k].value) <= tol:
        return StabilityVerdict("BoundaryStable", None, (entries[k], partner), d)
    return StabilityVerdict("BoundaryUnstable", None, (entries[k], partner), d)


# -- eigenfunctions -----------------------------------------------------------

def eigenfunction(a: cf.PeriodicCoefficient, mu: float, bc: str):
    """Nontrivial solution at an eigenvalue, as a dense Trajectory.

    bc is "periodic" or "antiperiodic".  The initial data is the kernel
    direction of (M -+ I), M read from the trajectory's own dense pass.
    """
    sign = 1.0 if bc == "periodic" else -1.0
    pieces = list(_propagators(a, mu, dense=True))
    M = _product(pieces)
    A = M - sign * np.eye(2)
    _, svals, vt = np.linalg.svd(A)
    v = vt[-1]
    if np.linalg.norm(A @ v) > 1e-4:
        raise NotAnEigenvalue(
            f"mu={mu} is not a {bc} eigenvalue (defect {np.linalg.norm(A @ v):.2e})")
    return Trajectory(a, mu, v, _pieces=pieces)
