"""Ground-truth spectral engine for u'' + (mu + a(x)) u = 0.

One propagator gives each piece's 2x2 transfer matrix (an exact
trigonometric/hyperbolic block, or one integration of the fundamental
matrix) to monodromies, trajectories, eigenfunctions and edge counts.
Periodic and antiperiodic eigenvalues, the roots of Delta(mu) = +-2 for the
monodromy trace Delta, lie on one chain of band edges.  By Sturm oscillation
a pass's zero count gives E(mu), the number of edges below mu: each edge is
bracketed by Weyl's bounds, isolated by bisection on E and refined on Delta;
a same-kind pair E cannot part is split or found double at max +-Delta - 2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import coeff as cf
from . import expr as ex
from ._scipy import brentq, minimize_scalar, solve_ivp
from .errors import (IntegrationFailure, NonFiniteValue, NotAnEigenvalue,
                     RootSearchFailure)
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
    the 2x2 map of (u, u') at its start to (u, u') at its end.  Raises
    NonFiniteValue when its cosh(sqrt(-q) L) overflows a float."""
    if q > 0:
        w = math.sqrt(q)
        c, s = math.cos(w * L), math.sin(w * L)
        return np.array([[c, s / w], [-w * s, c]])
    if q < 0:
        w = math.sqrt(-q)
        try:
            ch, sh = math.cosh(w * L), math.sinh(w * L)
        except OverflowError:
            raise NonFiniteValue(f"cosh(sqrt(-q) L) overflows on a constant "
                                 f"piece: q = {q!r}, L = {L!r}") from None
        return np.array([[ch, sh / w], [w * sh, ch]])
    return np.array([[1.0, L], [0.0, 1.0]])


def _propagators(a: cf.PeriodicCoefficient, mu: float, dense: bool):
    """One pass over the pieces of a, yielding (s, e, B, columns) per piece.

    B maps (u, u') at s to (u, u') at e: the exact block on a constant piece,
    else the fundamental matrix from one integration, the same bit for bit
    with or without dense output.  With dense, columns(xs) gives the transfer
    matrices from s to the points xs column by column, shape (4, n); without,
    it is q = mu + a on a constant piece and else the accepted steps
    (t, columns(t)).  More than `ode_budget` right-hand-side calls in a pass
    raise IntegrationFailure.
    """
    budget, evals = current().ode_budget, itertools.count(1)
    for s, e, piece in a.pieces:
        cval = ex.constant_value(piece)
        if cval is not None:
            q = mu + cval
            B = _const_block(q, e - s)
            columns = functools.partial(_const_columns, q, s) if dense else q
        else:
            def rhs(x, y, f=piece.compiled()):
                if next(evals) > budget:
                    raise IntegrationFailure(f"ODE budget of {budget} "
                                             f"evaluations exhausted at mu={mu}")
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
            B = np.array([[y[0], y[2]], [y[1], y[3]]])
            columns = sol.sol if dense else (sol.t, sol.y)
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


def _finite(M: np.ndarray, mu: float) -> np.ndarray:
    """M, the product of one pass, or NonFiniteValue when it overflowed: a
    hyperbolic block, or the product of finite ones, past the floats."""
    if not all(map(math.isfinite, M.flat)):
        raise NonFiniteValue(f"the transfer matrix over one period overflows "
                             f"at mu={mu!r}")
    return M


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflow
def _product(pieces, mu: float) -> np.ndarray:
    """The transfer matrices B of one pass at mu, multiplied in order."""
    M = np.eye(2)
    for _, _, B, _ in pieces:
        M = B @ M
    return _finite(M, mu)


def monodromy(a: cf.PeriodicCoefficient, mu: float) -> np.ndarray:
    """Fundamental matrix of u'' + (mu + a(x)) u = 0 over one period."""
    return _product(_propagators(a, mu, dense=False), mu)


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


# -- edge counting and eigenvalue search -------------------------------------

def _sign(u, du):
    """Sign of a solution just after a point: of u, or of u' where u = 0."""
    return np.where(u != 0, np.sign(u), np.sign(du))


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflow
def _edge_count(a, mu: float, sup: float, dense=False) -> tuple[int, float]:
    """edge_count(a, mu) given sup a, which bounds the Sturm spacing."""
    M, n = np.eye(2), 0
    half = 0.5 * math.pi / math.sqrt(max(mu + sup, 1e-300))
    for s, e, B, columns in _propagators(a, mu, dense):
        y, M = M[:, 1], _finite(B @ M, mu)
        end = _sign(*M[:, 1])
        if np.isscalar(columns):
            # q <= 0 allows at most one zero, the sign change; for q > 0 the
            # scaled Pruefer phase atan2(sqrt(q) u, u') passes x multiples of
            # pi: of the counts of the sign change's parity, the nearest
            flip = int(_sign(*y) != end)
            if columns > 0:
                w = math.sqrt(columns)
                x = (math.atan2(w * y[0], y[1]) % math.pi + w * (e - s)) / math.pi
                flip += 2 * round((x - 0.5 - flip) / 2)
            n += flip
            continue
        # points half a Sturm spacing apart have at most one zero between
        # them: the steps, or if one is longer a dense grid that fine
        if not dense and np.max(np.diff(columns[0])) > half:
            return _edge_count(a, mu, sup, dense=True)
        m = columns(np.linspace(s, e, math.ceil((e - s) / half) + 1)) \
            if dense else columns[1]
        # e's sign is read from the block, as the next piece reads it
        sg = np.append(_sign(*(m[:2] * y[0] + m[2:] * y[1]))[:-1], end)
        n += int(np.count_nonzero(sg[1:] != sg[:-1]))
    d = float(np.trace(M))
    k = n if (n % 2 == 0) == (d > 0) else n + 1  # in a gap: its index
    return (2 * n + 1 if abs(d) < 2.0 else 2 * k), d


def edge_count(a: cf.PeriodicCoefficient, mu: float) -> tuple[int, float]:
    """(E, Delta) from one pass: E band edges lie below mu, and Delta is
    discriminant(a, mu) bit for bit.  The N zeros in (0, T) of the solution
    with (u, u')(0) = (0, 1) count the Dirichlet eigenvalues below mu, the
    k-th in the closure of gap k (edges 2k - 1 to 2k), where Delta has the
    sign (-1)^k: E = 2N + 1 in a band, and in a gap E = 2k with k the one of
    N, N + 1 of that parity.  E may be off by one within rounding of an edge."""
    return _edge_count(a, mu, float(np.max(cf.sample(a, (0.0, a.period), 256)[1])))


def _polish_tangency(g, m: float, scale: float) -> float:
    """Refine a tangential double root by locating the zero of g'."""
    h = 1e-6 * max(1.0, scale)

    def dg(mu):
        return (g(mu + h) - g(mu - h)) / (2 * h)

    lo, hi = m - 20 * h, m + 20 * h
    if dg(lo) * dg(hi) < 0:
        return brentq(dg, lo, hi, xtol=current().root)
    return m


def _edges(a: cf.PeriodicCoefficient, positions) -> list[tuple[float, int]]:
    """(value, multiplicity) of each chain edge in positions, the chain being
    lam0 < alam1 <= alam2 < lam1 <= ...  Edge i starts from Weyl's bracket
    e_i(0) - [sup a, inf a], e_i(0) = (ceil(i / 2) pi / T)^2, so it comes out
    the same whatever else is asked for; brackets snap to a dyadic grid, so
    nearby edges share probes."""
    cfg, T, counts, deltas = current(), a.period, {}, {}
    vals = cf.sample(a, (0.0, T), 256)[1]
    inf, sup = float(np.min(vals)), float(np.max(vals))

    def probe(mu):  # None near an edge: E may be off by one, a double unparted
        if mu not in counts:
            counts[mu], deltas[mu] = _edge_count(a, mu, sup)
        return None if band(deltas[mu]) == "Boundary" else counts[mu]

    def edge(i):
        k = (i + 1) // 2  # gap k lies between edges 2k - 1 and 2k
        sign = -1.0 if k % 2 else 1.0

        def g(mu):
            if mu not in deltas:
                deltas[mu] = discriminant(a, mu)
            return sign * deltas[mu] - 2.0

        # edge-pair spacing, and edges 2k - 1 and 2k, at a = 0
        scale, e0 = (2 * k + 1) * (math.pi / T) ** 2, (k * math.pi / T) ** 2
        lo, hi = e0 - sup - scale / 128, e0 - inf + scale / 128
        # widen until E(lo) <= i < E(hi), unless rounding leaves no bracket
        for _ in range(64 if hi > lo else 0):
            w = 2.0 ** math.ceil(math.log2(hi - lo))
            lo = math.floor(lo / w) * w
            hi = lo + 2 * w
            if probe(lo) not in range(i + 1):
                lo -= w
            elif (probe(hi) or 0) <= i:
                hi += w
            else:
                break
        else:
            raise RootSearchFailure(f"could not bracket band edge {i}")
        pair = (2 * k - 1, 2 * k + 1)  # in gap k's closure: unparted by E
        while counts[hi] - counts[lo] > 1 and not (
                (counts[lo], counts[hi]) == pair and hi - lo <= scale / 16):
            m = next((m for m in (lo + f * (hi - lo) for f in (0.5, 0.25, 0.75))
                      if lo < m < hi and probe(m) is not None), None)
            if m is None:  # what is left lies within rounding of one point
                break
            lo, hi = (m, hi) if counts[m] <= i else (lo, m)
        if (counts[lo], counts[hi]) != pair:
            if g(lo) * g(hi) > 0:
                raise RootSearchFailure(f"could not part edges in [{lo}, {hi}]")
            return brentq(g, lo, hi, xtol=cfg.root), 1
        # a same-kind pair in a bracket with g < 0 at both ends: g peaks
        # above 0 between two edges and at 0 on a double one
        res = minimize_scalar(lambda m: -g(m), bounds=(lo, hi),
                              method="bounded", options={"xatol": cfg.root / 10})
        gmax, mmax = -res.fun, res.x
        if gmax > 1e-12:
            ends = (lo, mmax) if i == 2 * k - 1 else (mmax, hi)
            return brentq(g, *ends, xtol=cfg.root), 1
        if gmax > -cfg.boundary:
            return _polish_tangency(g, mmax, scale), 2
        raise RootSearchFailure(f"no band edge pair in [{lo}, {hi}]")

    return [edge(i) for i in positions]


def _eigenvalues(a: cf.PeriodicCoefficient, n_periodic: int | None,
                 n_antiperiodic: int | None) -> SpectrumSlice:
    """The first n_periodic lam_j (edge 2j + j % 2 of the chain) and
    n_antiperiodic alam_j (edge 2j - 2 + j % 2)."""
    if any(n is not None and n < 1 for n in (n_periodic, n_antiperiodic)):
        raise ValueError("count must be >= 1")
    p, ap = range(n_periodic or 0), range(1, (n_antiperiodic or 0) + 1)
    found = _edges(a, [2 * j + j % 2 for j in p] +
                   [2 * j - 2 + j % 2 for j in ap])
    return SpectrumSlice([EigEntry(j, *v) for j, v in zip(p, found)],
                         [EigEntry(j, *v) for j, v in zip(ap, found[len(p):])])


def periodic_eigenvalues(a: cf.PeriodicCoefficient, count: int) -> SpectrumSlice:
    """First `count` periodic eigenvalues (roots of Delta = 2), with multiplicity."""
    return _eigenvalues(a, count, None)


def antiperiodic_eigenvalues(a: cf.PeriodicCoefficient, count: int) -> SpectrumSlice:
    """First `count` antiperiodic eigenvalues (roots of Delta = -2), indexed from 1."""
    return _eigenvalues(a, None, count)


def spectrum(a: cf.PeriodicCoefficient, n_periodic: int,
             n_antiperiodic: int) -> SpectrumSlice:
    """Both kinds from one search; see periodic_eigenvalues and
    antiperiodic_eigenvalues."""
    return _eigenvalues(a, n_periodic, n_antiperiodic)


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


def classify(a: cf.PeriodicCoefficient, mu: float) -> StabilityVerdict:
    """Stability verdict at mu from one edge count, with boundary resolution.

    Stable and Unstable come from band(Delta), a Stable mu lying in zone
    (E - 1) / 2.  Within tolerance of a band edge mu lies at an edge of gap
    k, the edges 2k - 1 and 2k of the chain, where Delta has the sign
    (-1)^k: k = E / 2 for even E, and for odd E whichever of (E -+ 1) / 2
    has that parity.  The verdict depends on whether that pair coincides;
    the witness is the pair, nearest to mu first, or lam0 alone for k = 0.
    """
    E, d = edge_count(a, mu)
    kind = band(d)
    if kind != "Boundary":
        return StabilityVerdict(kind, (E - 1) // 2 if kind == "Stable" else None,
                                None, d)
    k = E // 2
    if E % 2 and (k % 2 == 1) != (d < 0):
        k += 1
    if k == 0:
        return StabilityVerdict("BoundaryUnstable", None,
                                (EigEntry(0, *_edges(a, [0])[0]),), d)
    # lam_{k-1}, lam_k for even k; alam_k, alam_{k+1} for odd k
    pair = [EigEntry(k - 1 + k % 2 + i, *v)
            for i, v in enumerate(_edges(a, [2 * k - 1, 2 * k]))]
    near, partner = sorted(pair, key=lambda e: abs(e.value - mu))
    kind = "BoundaryStable" if abs(partner.value - near.value) \
        <= current().boundary else "BoundaryUnstable"
    return StabilityVerdict(kind, None, (near, partner), d)


# -- eigenfunctions -----------------------------------------------------------

def eigenfunction(a: cf.PeriodicCoefficient, mu: float, bc: str):
    """Nontrivial solution at an eigenvalue, as a dense Trajectory.

    bc is "periodic" or "antiperiodic".  The initial data is the kernel
    direction of (M -+ I), M read from the trajectory's own dense pass.
    """
    sign = 1.0 if bc == "periodic" else -1.0
    pieces = list(_propagators(a, mu, dense=True))
    M = _product(pieces, mu)
    A = M - sign * np.eye(2)
    _, svals, vt = np.linalg.svd(A)
    v = vt[-1]
    if np.linalg.norm(A @ v) > 1e-4:
        raise NotAnEigenvalue(
            f"mu={mu} is not a {bc} eigenvalue (defect {np.linalg.norm(A @ v):.2e})")
    return Trajectory(a, mu, v, _pieces=pieces)
