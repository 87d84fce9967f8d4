"""Ground-truth spectral engine for u'' + (mu + a(x)) u = 0.

One propagator gives each piece's 2x2 transfer matrix to monodromies,
trajectories, eigenfunctions and edge counts: an exact
trigonometric/hyperbolic block on a constant piece, and on the other pieces
the fundamental matrices from one integration per pass, all those pieces
stacked as one system over a common parameter.  On request that
integration also carries the variational equation in mu, so that one pass
gives Delta and Delta' (closed form on a constant piece).  Over an array of
mu, as a chart sweeps it, a constant piece's blocks come at all of them at
once.
Periodic and antiperiodic eigenvalues, the roots of Delta(mu) = +-2 for the
monodromy trace Delta, lie on one chain of band edges.  By Sturm oscillation
a pass's zero count gives E(mu), the number of edges below mu, read at
points at most one zero apart: each edge is bracketed by Weyl's bounds,
isolated by bisection on E from passes at sqrt(`ode`) (again at `ode` where
that pass's error could move E), and refined by Newton's method on Delta
with Delta' from the same pass, each pass only as accurate as the next step
needs; a same-kind pair E cannot part is split or found double at the root
of Delta' between them.  A root is taken only from a pass at `ode`.
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
from ._scipy import solve_ivp
from .errors import (DomainError, HillstabError, IntegrationFailure,
                     NonFiniteValue, NotAnEigenvalue, RootSearchFailure)
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
    NonFiniteValue when q is not finite or its cosh(sqrt(-q) L) overflows a
    float."""
    if not math.isfinite(q):
        raise NonFiniteValue(f"mu + a is not finite on a constant piece: "
                             f"q = {q!r}")
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


def _const_blocks(q: np.ndarray, L: float) -> np.ndarray:
    """_const_block(q, L) for each q of a 1-D array, shape (m, 2, 2), equal
    to it bit for bit, and inf where it raises.  cosh and sinh are math's,
    element by element: numpy's may differ from them in the last bit."""
    out = np.full((len(q), 2, 2), math.inf)
    finite = np.isfinite(q)
    pos, neg = finite & (q > 0), np.flatnonzero(finite & (q < 0))
    w = np.sqrt(q[pos])
    c, s = np.cos(w * L), np.sin(w * L)
    out[pos] = np.stack([c, s / w, -w * s, c], axis=-1).reshape(-1, 2, 2)
    w = np.sqrt(-q[neg])
    hyp = np.array([_cosh_sinh(x) for x in (w * L).tolist()]).reshape(-1, 2)
    ok = np.isfinite(hyp[:, 0])
    ch, sh, w = hyp[ok, 0], hyp[ok, 1], w[ok]
    out[neg[ok]] = np.stack([ch, sh / w, w * sh, ch], axis=-1).reshape(-1, 2, 2)
    out[q == 0] = [[1.0, L], [0.0, 1.0]]
    return out


def _cosh_sinh(x: float) -> tuple[float, float]:
    """(cosh x, sinh x), both inf where cosh x overflows a float."""
    try:
        return math.cosh(x), math.sinh(x)
    except OverflowError:
        return math.inf, math.inf


#: past _CAPPED capped steps on a piece (a tall narrow peak of a sets the
#: cap for all of it) a counting pass reads the interpolant of DOP853's own
#: steps instead, at three more right-hand-side calls per step
_CAPPED = 1024
#: a failed integration whose last state is past _HUGE failed because the
#: solution overflows the floats
_HUGE = 1e300


def _propagators(a: cf.PeriodicCoefficient, mu: float, dense: bool,
                 tol: float | None = None, slope: bool = False,
                 spacing=None):
    """One pass over the pieces of a, yielding (s, e, B, columns) per piece.

    B maps (u, u') at s to (u, u') at e: the exact block on a constant piece,
    else the fundamental matrix from one integration that all the ODE pieces
    share (see _integrate), the same bit for bit with or without dense
    output.  columns is q = mu + a on a constant piece; on an ODE piece it
    is y at the accepted steps, rows 0-3 the columns of the transfer matrix
    from s to each step, or with dense the interpolant giving y at any
    points of the piece.  spacing, one length per piece, keeps the steps of
    an ODE piece at most that far apart: they are capped at it, or past
    _CAPPED such steps y is read from the interpolant at points that far
    apart.  With slope, y also carries dB/dmu in rows 4-7, from the
    variational equation Phi_mu' = A Phi_mu - [[0, 0], [1, 0]] Phi.
    """
    spacing = spacing or itertools.repeat(math.inf)
    solved = None
    for (s, e, piece), h in zip(a.pieces, spacing):
        cval = ex.constant_value(piece)
        if cval is not None:
            yield s, e, _const_block(mu + cval, e - s), mu + cval
            continue
        if solved is None:  # at the first ODE piece, as a pass reaches it
            solved = iter(_integrate(
                [(lo, hi, p, w) for (lo, hi, p), w in zip(a.pieces, spacing)
                 if ex.constant_value(p) is None], mu, dense, tol, slope))
        yield (s, e, *next(solved))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _integrate(ode, mu: float, dense: bool, tol: float | None, slope: bool):
    """[(B, columns)] for the ODE pieces (s, e, expression, spacing) in ode, as
    _propagators yields them, from one DOP853 call on the stacked 4p system
    (8p with slope) of its p pieces.  Its parameter t runs over the first
    piece, and piece j is read at x = s_j + (t - s_0) L_j / L_0, L_j its
    length, so that every piece is one interval of t.  The call integrates
    at rtol = atol = tol / sqrt(p) (`ode` when tol is None), as the RMS
    error norm runs over all 4p components, with steps of at most a
    sixteenth of a piece and, for a spacing, at most min_j h_j L_0 / L_j.
    Its right-hand side calls each piece's compiled a once; a non-finite
    mu + a raises NonFiniteValue, and more than `ode_budget` calls in a
    pass raise IntegrationFailure."""
    cfg = current()
    budget, evals = cfg.ode_budget, itertools.count(1)
    tol = cfg.ode if tol is None else tol
    width, p = 8 if slope else 4, len(ode)
    s0, e0, _, _ = ode[0]
    L0 = e0 - s0
    ratio = [(e - s) / L0 for s, e, _, _ in ode]
    fs = [(piece.compiled(), s, r) for (s, _, piece, _), r in zip(ode, ratio)]

    def non_finite(q, x):
        return NonFiniteValue(f"mu + a is not finite at x={float(x)!r}: "
                              f"q = {float(q)!r}")

    if p > 1:
        r = np.array(ratio)

        def rhs(t, y):
            if next(evals) > budget:
                raise _exhausted(budget, mu)
            q = [mu + f(s + (t - s0) * k) for f, s, k in fs]
            total = sum(q)
            if total - total:  # nan: some q may not be finite
                for v, (_, s, k) in zip(q, fs):
                    if not math.isfinite(v):
                        raise non_finite(v, s + (t - s0) * k)
            # y holds component i of piece j at i p + j: rows 0, 2, 4, 6 of
            # y.reshape(width, p) are values, rows 1, 3, 5, 7 derivatives
            y = y.reshape(width, p)
            dy = np.empty_like(y)
            dy[0::2] = y[1::2]
            dy[1::2] = np.negative(q) * y[0::2]
            if slope:
                dy[5::2] -= y[0:4:2]
            return (dy * r).ravel()
    elif slope:
        def rhs(x, y, f=fs[0][0]):
            if next(evals) > budget:
                raise _exhausted(budget, mu)
            q = mu + f(x)
            if q - q:  # nan: q is not finite
                raise non_finite(q, x)
            return [y[1], -q * y[0], y[3], -q * y[2],
                    y[5], -q * y[4] - y[0], y[7], -q * y[6] - y[2]]
    else:
        def rhs(x, y, f=fs[0][0]):
            if next(evals) > budget:
                raise _exhausted(budget, mu)
            q = mu + f(x)
            if q - q:  # nan: q is not finite
                raise non_finite(q, x)
            return [y[1], -q * y[0], y[3], -q * y[2]]

    h = min(h / k for (_, _, _, h), k in zip(ode, ratio))
    grid = L0 / h > _CAPPED
    y0 = np.zeros((width, p))
    y0[0] = y0[3] = 1.0
    sol = solve_ivp(rhs, (s0, e0), y0.ravel().tolist(), method="DOP853",
                    rtol=tol / math.sqrt(p), atol=tol / math.sqrt(p),
                    dense_output=dense or grid,
                    max_step=min(max(L0 / 16, 1e-12),
                                 math.inf if grid else h))
    end = sol.y[:, -1]
    if not sol.success:
        where = f"[{s0}, {e0}]" + (f" and {p - 1} more pieces" if p > 1 else "")
        if not np.all(np.abs(end) <= _HUGE):  # also when y is not finite
            raise NonFiniteValue(f"the solution overflows on {where} "
                                 f"at mu={mu!r}")
        raise IntegrationFailure(
            f"ODE solver failed on {where}: {sol.message}")
    if grid and not dense:
        ys = sol.sol(np.linspace(s0, e0, math.ceil(L0 / h) + 1))
    else:
        ys = sol.y
    out = []
    for j, (s, _, _, _) in enumerate(ode):
        if dense:  # t = x on the first piece, whose length t runs over
            columns = functools.partial(_dense_columns, sol.sol, j, p,
                                        None if j == 0 else (s0, s, ratio[j]))
        else:
            columns = ys[j::p]
        y = end[j::p]
        out.append((np.array([[y[0], y[2]], [y[1], y[3]]]), columns))
    return out


def _dense_columns(interpolant, j: int, p: int, to_t,
                   xs: np.ndarray) -> np.ndarray:
    """y of piece j of a stacked dense pass of p pieces at the points xs of
    that piece, to_t = (s_0, s_j, L_j / L_0) mapping them to the parameter
    (None: xs are on it)."""
    if to_t is not None:
        s0, s, ratio = to_t
        xs = s0 + (xs - s) / ratio
    return interpolant(xs)[j::p]


def _exhausted(budget: int, mu: float) -> IntegrationFailure:
    return IntegrationFailure(f"ODE budget of {budget} evaluations "
                              f"exhausted at mu={mu}")


def _const_slope(q: float, L: float, B: np.ndarray) -> np.ndarray:
    """d/dq of B = _const_block(q, L).  With c = B11 and s = B12 =
    sin(sqrt(q) L) / sqrt(q), an entire function of q, it is
    [[-L s/2, s'], [-(s + L c)/2, -L s/2]] with s' = (L c - s) / (2q), or
    where |q| L^2 < 1/2 its series -sum_k k (-q)^(k-1) L^(2k+1) / (2k+1)!,
    as L c - s cancels there."""
    c, s = B[0, 0], B[0, 1]
    if abs(q) * L * L < 0.5:
        term, ds = -L ** 3 / 6, 0.0
        for k in range(1, 10):
            ds += term
            term *= -q * L * L * (k + 1) / (k * (2 * k + 2) * (2 * k + 3))
    else:
        ds = (L * c - s) / (2 * q)
    return np.array([[-L * s / 2, ds], [-(s + L * c) / 2, -L * s / 2]])


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


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflow
def _slope(a: cf.PeriodicCoefficient, mu: float, tol: float):
    """(Delta, dDelta/dmu) at mu from one pass integrating at tol: the trace
    of M = B_n ... B_1 and of its derivative, the sum over pieces of
    B_n ... dB_j ... B_1, dB_j/dmu being _const_slope on a constant piece
    and Phi_mu at its end on an ODE piece."""
    M, dM = np.eye(2), np.zeros((2, 2))
    for s, e, B, columns in _propagators(a, mu, False, tol, slope=True):
        dB = _const_slope(columns, e - s, B) if np.isscalar(columns) \
            else columns[4:, -1].reshape(2, 2).T
        M, dM = B @ M, dB @ M + B @ dM
    return float(np.trace(_finite(M, mu))), float(np.trace(_finite(dM, mu)))


def monodromy(a: cf.PeriodicCoefficient, mu) -> np.ndarray:
    """Fundamental matrix of u'' + (mu + a(x)) u = 0 over one period, shape
    (2, 2) at a float mu, or (m, 2, 2) at each of a 1-D array of m values
    (see _monodromies)."""
    if np.ndim(mu) == 0:
        return _product(_propagators(a, mu, dense=False), mu)
    return _monodromies(a, np.asarray(mu, dtype=float))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite M re-runs
def _monodromies(a: cf.PeriodicCoefficient, mus: np.ndarray) -> np.ndarray:
    """monodromy(a, mu) for each mu of mus, bit for bit, shape (m, 2, 2).
    A constant piece's blocks come in closed form at every mu at once, an
    ODE piece's from one integration per mu, in order.  The first mu whose
    blocks or product are not finite, or whose integration fails, raises
    the error of the one-mu pass there."""
    blocks = [_const_blocks(mus + cval, e - s)
              if (cval := ex.constant_value(p)) is not None else None
              for s, e, p in a.pieces]
    fine = np.ones(len(mus), dtype=bool)
    for B in blocks:
        if B is not None:
            fine &= np.isfinite(B).all(axis=(1, 2))
    # no integration at or past the first non-finite block, whose pass fails
    stop = len(mus) if fine.all() else int(np.argmin(fine))
    ode = [(s, e, p, math.inf) for s, e, p in a.pieces
           if ex.constant_value(p) is None]
    solved, failure = np.empty((len(ode), stop, 2, 2)), None
    for i, x in enumerate(mus[:stop].tolist() if ode else ()):
        try:
            for j, (B, _) in enumerate(_integrate(ode, x, False, None, False)):
                solved[j, i] = B
        except HillstabError as err:
            failure, stop = err, i
            break
    solved = iter(solved[:, :stop])
    M = np.broadcast_to(np.eye(2), (stop, 2, 2))
    for B in blocks:
        M = (next(solved) if B is None else B[:stop]) @ M
    fine = np.isfinite(M).all(axis=(1, 2))
    if not fine.all():
        stop, failure = int(np.argmin(fine)), None
    if failure is not None:  # the one-mu pass's error: its blocks are finite
        raise failure
    if stop < len(mus):
        x = float(mus[stop])
        _product(_propagators(a, x, dense=False), x)  # raises at x
        raise AssertionError(f"the pass at mu={x!r} did not fail")
    return M


def discriminant(a: cf.PeriodicCoefficient, mu):
    """Trace of the monodromy matrix: a float at a float mu, an array of
    them at a 1-D array of mu."""
    d = np.trace(monodromy(a, mu), axis1=-2, axis2=-1)
    return float(d) if np.ndim(mu) == 0 else d


# -- dense trajectories -------------------------------------------------------

def _states(columns, s: float, y0, xs: np.ndarray) -> np.ndarray:
    """(u, u') at the points xs from the state y0 at the piece start s,
    columns being a dense _propagators pass's."""
    m = _const_columns(columns, s, xs) if np.isscalar(columns) else columns(xs)
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
            self.segments.append(
                (s, e, functools.partial(_states, columns, s, y)))
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


# -- edge counting and eigenvalue search -------------------------------------

def _sign(u, du):
    """Sign of a solution just after a point: of u, or of u' where u = 0."""
    return np.where(u != 0, np.sign(u), np.sign(du))


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflow
def _edge_count(a, mu: float, sups: list[float],
                tol: float | None = None) -> tuple[int, np.ndarray]:
    """(E, M): edge_count(a, mu) given sups, the sup of a on each piece,
    which bounds the Sturm spacing there, from one pass integrating at tol,
    with its monodromy matrix.  The pass reads an ODE piece at points at
    most half its shortest spacing of zeros, pi / sqrt(mu + sup), apart, so
    at most one zero lies between two of them."""
    M, n = np.eye(2), 0
    half = [0.5 * math.pi / math.sqrt(max(mu + sup, 1e-300)) for sup in sups]
    for s, e, B, columns in _propagators(a, mu, False, tol, spacing=half):
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
        # e's sign is read from the block, as the next piece reads it
        sg = np.append(_sign(*(columns[:2] * y[0] + columns[2:] * y[1]))[:-1],
                       end)
        n += int(np.count_nonzero(sg[1:] != sg[:-1]))
    d = float(np.trace(M))
    k = n if (n % 2 == 0) == (d > 0) else n + 1  # in a gap: its index
    return (2 * n + 1 if abs(d) < 2.0 else 2 * k), M


def edge_count(a: cf.PeriodicCoefficient, mu: float) -> tuple[int, float]:
    """(E, Delta) from one pass: E band edges lie below mu, and Delta is
    discriminant(a, mu) bit for bit.  The N zeros in (0, T) of the solution
    with (u, u')(0) = (0, 1) count the Dirichlet eigenvalues below mu, the
    k-th in the closure of gap k (edges 2k - 1 to 2k), where Delta has the
    sign (-1)^k: E = 2N + 1 in a band, and in a gap E = 2k with k the one of
    N, N + 1 of that parity.  E may be off by one within rounding of an edge."""
    E, M = _edge_count(a, mu, _bounds(a)[1])
    return E, float(np.trace(M))


def _bounds(a: cf.PeriodicCoefficient) -> tuple[float, list[float]]:
    """(inf a, [sup a on each piece]) over cf.sample's points."""
    xs, vals = cf.sample(a, (0.0, a.period), 256)
    return float(np.min(vals)), [float(np.max(vals[(s <= xs) & (xs <= e)]))
                                 for s, e, _ in a.pieces]


#: a pass looser than `ode` is trusted to within _LOOSE tol max(1, |value|)
#: per half-wave of the solution: 30 times the most that Delta, Delta' and
#: u(T) were measured off by at sqrt(`ode`) over mu in [-3, 120] on smooth
#: coefficients of period pi and 2 pi
_LOOSE = 32.0


def _error(a, mu: float, sup: float, tol: float, size: float) -> float:
    """What a pass at tol may be off by in a value of the given size, sup
    being sup a: 0 at `ode`, which the search takes as exact, and else
    _LOOSE tol max(1, size) (1 + T sqrt(mu + sup) / pi)."""
    if tol <= current().ode:
        return 0.0
    waves = 1.0 + a.period * math.sqrt(max(mu + sup, 0.0)) / math.pi
    return _LOOSE * tol * max(1.0, size) * waves


def _probe(a, mu: float, sups: list[float], tol: float) -> tuple[int, float]:
    """(E, Delta) as edge_count gives them, from a pass at tol unless its
    ||Delta| - 2| or u(T), of the solution whose zeros E counts, is within
    the pass's error: only those can move E, the first across a band edge
    and the second across T.  Then the pass is made again at `ode`."""
    E, M = _edge_count(a, mu, sups, tol)
    if tol > current().ode and min(abs(abs(np.trace(M)) - 2.0), abs(M[0, 1])) \
            <= _error(a, mu, max(sups), tol, np.max(np.abs(M))):
        E, M = _edge_count(a, mu, sups)
    return E, float(np.trace(M))


def _refine(f, lo: float, hi: float, x: float, df: float | None,
            rising: bool, tol: float):
    """(root, x, slope): a root of f in [lo, hi], which f crosses upward
    when rising and else downward, by Newton's method from x kept in the
    bracket.  f(x, tol) gives f(x) from a pass at tol, its derivative (or
    None: then the secant through the pass before, or df for the first) and
    the pass's error.  The first pass runs at tol, and after one with
    |f| = r the next at max(`ode`, r**2), never looser (inexact Newton).
    Only a pass whose |f| exceeds its error moves an end of the bracket; a
    step that would leave the bracket, or not halve the one before last,
    bisects it.  The root is taken from a pass at `ode` when its Newton step
    or the bracket is within `root` plus rounding of x, and x and slope are
    that pass's point and derivative."""
    cfg = current()
    step = step_old = hi - lo
    prev = None
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(200):
        v, dv, err = f(x, tol)
        if dv is None:
            dv = df if prev is None or prev[0] == x else \
                (v - prev[1]) / (x - prev[0])
        if abs(v) > err:
            lo, hi = (lo, x) if (v > 0) == rising else (x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = float(np.divide(v, dv))
        xtol = cfg.root + 4 * np.finfo(float).eps * abs(x)
        if tol == cfg.ode and (abs(newton) <= xtol or hi - lo <= xtol):
            root = x - newton if abs(newton) <= xtol else 0.5 * (lo + hi)
            return min(max(root, lo), hi), x, dv
        if lo < x - newton < hi and abs(2 * newton) <= abs(step_old):
            step_old, step, x_next = step, newton, x - newton
        else:
            step_old, step, x_next = step, 0.5 * (hi - lo), 0.5 * (lo + hi)
        tol = cfg.ode if abs(step) <= xtol or hi - lo <= xtol else \
            min(tol, max(cfg.ode, v * v))
        prev, df, x = (x, v), dv, x_next
    raise RootSearchFailure(f"no root found in [{lo}, {hi}]")


def _edges(a: cf.PeriodicCoefficient, positions) -> list[tuple[float, int]]:
    """(value, multiplicity) of each chain edge in positions, the chain being
    lam0 < alam1 <= alam2 < lam1 <= ...  Edge i starts from Weyl's bracket
    e_i(0) - [sup a, inf a], e_i(0) = (ceil(i / 2) pi / T)^2, so it comes out
    the same whatever else is asked for; brackets snap to a dyadic grid, so
    nearby edges share probes.  Probes integrate at sqrt(`ode`) (see
    _probe), and Newton on g = +-Delta - 2 with Delta' from the same pass
    refines an edge (see _refine); a same-kind pair E cannot part is split
    or found double at the root of Delta' between them."""
    cfg, T, counts, deltas, slopes = current(), a.period, {}, {}, {}
    inf, sups = _bounds(a)
    sup = max(sups)
    smooth = any(ex.constant_value(p) is None for _, _, p in a.pieces)
    loose = math.sqrt(cfg.ode) if smooth else cfg.ode

    def probe(mu):  # None near an edge: E may be off by one, a double unparted
        if mu not in counts:
            counts[mu], deltas[mu] = _probe(a, mu, sups, loose)
        return None if band(deltas[mu]) == "Boundary" else counts[mu]

    def slope(mu, tol):
        if (mu, tol) not in slopes:
            slopes[mu, tol] = _slope(a, mu, tol)
        return slopes[mu, tol]

    def edge(i):
        k = (i + 1) // 2  # gap k lies between edges 2k - 1 and 2k
        sign = -1.0 if k % 2 else 1.0

        def g(mu, tol):
            d, dd = slope(mu, tol)
            return sign * d - 2.0, sign * dd, _error(a, mu, sup, tol, abs(d))

        def dg(mu, tol):
            d, dd = slope(mu, tol)
            return sign * dd, None, _error(a, mu, sup, tol, abs(dd))

        # edge-pair spacing, and edges 2k - 1 and 2k, at a = 0
        scale, e0 = (2 * k + 1) * (math.pi / T) ** 2, (k * math.pi / T) ** 2
        # the rounding of mu at the edges: the bracket is padded past it,
        # and edges fewer than 8 floats apart cannot be told apart
        ulp = math.ulp(max(abs(e0 - sup), abs(e0 - inf)))
        if 8 * ulp >= scale:
            raise RootSearchFailure(f"band edge {i} lies within rounding "
                                    f"of the next")
        pad = max(scale / 128, 4 * ulp)
        lo, hi = e0 - sup - pad, e0 - inf + pad
        # widen until E(lo) <= i < E(hi)
        for _ in range(64):
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
        glo, ghi = sign * deltas[lo] - 2.0, sign * deltas[hi] - 2.0
        if (counts[lo], counts[hi]) != pair:
            if glo * ghi > 0:
                raise RootSearchFailure(f"could not part edges in [{lo}, {hi}]")
            x = lo - glo * (hi - lo) / (ghi - glo)  # regula falsi
            return _refine(g, lo, hi, x, None, ghi > 0, loose)[0], 1
        # a same-kind pair in a bracket with g < 0 at both ends: g' falls
        # through 0 once, where g peaks above 0 between two edges and at 0
        # on a double one; start where g = -c (mu - m)^2 through both ends
        # would peak
        wl, wh = math.sqrt(-glo), math.sqrt(-ghi)
        m, x, curv = _refine(dg, lo, hi, lo + (hi - lo) * wl / (wl + wh),
                             -2 * ((wl + wh) / (hi - lo)) ** 2, False, loose)
        # g at m on the parabola through g and g' at x, the last pass
        gmax = g(x, cfg.ode)[0] + 0.5 * (m - x) * dg(x, cfg.ode)[0]
        if gmax > 1e-12:
            # each edge from g = gmax + curv (mu - m)^2 / 2, first at the
            # accuracy that g near the edge (of order gmax) needs
            r = math.sqrt(2 * gmax / -curv) if curv < 0 else 0.0
            tol = min(loose, max(cfg.ode, gmax * gmax))
            if i == 2 * k - 1:
                return _refine(g, lo, m, m - r, None, True, tol)[0], 1
            return _refine(g, m, hi, m + r, None, False, tol)[0], 1
        if gmax > -cfg.boundary:
            return m, 2
        raise RootSearchFailure(f"no band edge pair in [{lo}, {hi}]")

    return [edge(i) for i in positions]


def chain_position(kind: str, j: int) -> int:
    """Place of lam_j (kind "periodic", j from 0) or alam_j ("antiperiodic",
    j from 1) on the chain of band edges lam0 < alam1 <= alam2 < lam1 <=
    lam2 < alam3 <= ...: 2j + j % 2, or 2j - 2 + j % 2."""
    return 2 * j + j % 2 - (2 if kind == "antiperiodic" else 0)


def _eigenvalues(a: cf.PeriodicCoefficient, n_periodic: int | None,
                 n_antiperiodic: int | None) -> SpectrumSlice:
    """The first n_periodic lam_j and n_antiperiodic alam_j."""
    if any(n is not None and n < 1 for n in (n_periodic, n_antiperiodic)):
        raise ValueError("count must be >= 1")
    p, ap = range(n_periodic or 0), range(1, (n_antiperiodic or 0) + 1)
    found = _edges(a, [chain_position("periodic", j) for j in p] +
                   [chain_position("antiperiodic", j) for j in ap])
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


def check_interlacing(s: SpectrumSlice):
    """Verify lam0 < alam1 <= alam2 < lam1 <= lam2 < alam3 <= ..., each
    inequality up to a slack of 1e-9.

    Returns (ok, first_violation_description).
    """
    chain = sorted((chain_position(kind, e.index), kind, e.index, e.value)
                   for kind in ("periodic", "antiperiodic")
                   for e in getattr(s, kind))
    for (_, k0, i0, v0), (_, k1, i1, v1) in zip(chain, chain[1:]):
        if k0 == k1:
            if v1 < v0 - 1e-9:
                return False, f"ordering violated between {(k0, i0)} and {(k1, i1)}"
        elif v1 <= v0 - 1e-9:
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

    bc is "periodic" or "antiperiodic", else DomainError.  The initial data
    is the kernel direction of (M -+ I), M read from the trajectory's own
    dense pass.
    """
    if bc not in ("periodic", "antiperiodic"):
        raise DomainError(f"bc must be 'periodic' or 'antiperiodic', "
                          f"not {bc!r}")
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
