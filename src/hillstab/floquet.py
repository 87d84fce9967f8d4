"""Ground-truth spectral engine for u'' + (mu + a(x)) u = 0.

One propagator gives each piece's 2x2 transfer matrix to monodromies,
trajectories, eigenfunctions and edge counts: an exact
trigonometric/hyperbolic block on a constant piece, and on the other pieces
the fundamental matrices from one integration per pass, all those pieces
stacked as one system over a common parameter.  On request that
integration also carries the variational equation in mu, so that one pass
gives Delta and Delta' (closed form on a constant piece).  One closed form
gives a constant piece's blocks, at one mu, at an array of mu at once, or
at an array of points for its dense states: a trajectory reads an array of
points on all its constant pieces in one such call, and on all its ODE
pieces in one call of its pass's interpolant.  A pass may carry an array of
mu, its ODE pieces at all of them stacked in its one integration: the
eigenvalue search makes such passes, and so does a chart on a coefficient
of constant pieces (a chart with an ODE piece, which keeps every mu's
output, makes one pass per mu).
Periodic and antiperiodic eigenvalues, the roots of Delta(mu) = +-2 for the
monodromy trace Delta, lie on one chain of band edges.  By Sturm oscillation
a pass's zero count gives E(mu), the number of edges below mu, read at
points at most one zero apart: each edge is bracketed by Weyl's bounds,
isolated by multisection on E from passes at sqrt(`ode`) (again at `ode`
where that pass's error could move E), and refined by Newton's method on
Delta with Delta' from the same pass, each pass only as accurate as the
next step needs; a same-kind pair E cannot part is split or found double at
the root of Delta' between them.  A root is taken only from a pass at
`ode`.  All edges are searched in lockstep, one pass per round serving
every probe, another every Delta'.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import coeff as cf
from ._dop853 import solve_ivp
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
    """_const_blocks(q, L) at a float q and L, shape (2, 2), raising
    NonFiniteValue where it is all inf, with the cause: q or sqrt(|q|) L is
    not finite, or cosh(sqrt(-q) L) overflows a float."""
    B = _const_blocks(q, L)
    if math.isfinite(B[0, 0]):
        return B
    if not math.isfinite(q):
        raise NonFiniteValue(f"mu + a is not finite on a constant piece: "
                             f"q = {q!r}")
    if q > 0:
        raise NonFiniteValue(f"sqrt(q) L is not finite on a constant "
                             f"piece: q = {q!r}, L = {L!r}")
    raise NonFiniteValue(f"cosh(sqrt(-q) L) overflows on a constant "
                         f"piece: q = {q!r}, L = {L!r}")


@np.errstate(over="ignore", invalid="ignore")  # inf marks a block overflow
def _const_blocks(q, L) -> np.ndarray:
    """Exact transfer matrices of u'' + q u = 0 over intervals of length L,
    the 2x2 maps of (u, u') at their start to (u, u') at their end, with
    w = sqrt(|q|): [[cos wL, sin(wL) / w], [-w sin wL, cos wL]] for q > 0,
    the same with cosh and sinh and +w for q < 0, and [[1, L], [0, 1]] for
    q = 0.  q and L broadcast to the shape (...) of the result, shape
    (..., 2, 2).  A block is all inf where q or wL is not finite or cosh wL
    overflows a float (an entry w sinh wL alone may overflow too).  cosh
    and sinh are math's, element by element: numpy's may differ from them
    in the last bit."""
    q, L = np.broadcast_arrays(np.asarray(q, dtype=float),
                               np.asarray(L, dtype=float))
    shape, q, L = q.shape, q.ravel(), L.ravel()
    out = np.full((len(q), 2, 2), math.inf)
    w = np.sqrt(np.abs(q))
    wL = w * L
    pos, neg = np.isfinite(wL) & (q > 0), np.isfinite(q) & (q < 0)
    _fill(out, pos, np.cos(wL[pos]), np.sin(wL[pos]), w[pos], -1.0)
    hyp = np.array([_cosh_sinh(x) for x in wL[neg].tolist()])
    hyp = hyp.reshape(-1, 2)
    neg[neg] = ok = np.isfinite(hyp[:, 0])
    _fill(out, neg, hyp[ok, 0], hyp[ok, 1], w[neg], 1.0)
    zero = q == 0
    out[zero, 0, 0] = out[zero, 1, 1] = 1.0
    out[zero, 0, 1], out[zero, 1, 0] = L[zero], 0.0
    return out.reshape(*shape, 2, 2)


def _fill(out: np.ndarray, at: np.ndarray, c, s, w, sign: float):
    """Blocks [[c, s / w], [sign w s, c]] into out where at holds."""
    out[at, 0, 0] = out[at, 1, 1] = c
    out[at, 0, 1], out[at, 1, 0] = s / w, sign * w * s


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


def _propagators(a: cf.PeriodicCoefficient, mu, dense: bool,
                 tol: float | None = None, slope: bool = False,
                 spacing=None):
    """One pass over the pieces of a at mu, a float or a 1-D array of m
    values, yielding (s, e, B, columns) per piece.

    B maps (u, u') at s to (u, u') at e, shape (2, 2) at a float mu and
    (m, 2, 2) over an array: the exact block on a constant piece, one with
    a value in a.constants (_const_blocks, inf where a block is not a
    float; at a float mu _const_block, which raises there instead), else the
    fundamental matrix from one integration that all the ODE pieces at all
    the mu share (see _integrate), the same bit for bit with or without
    dense output.  columns is q = mu + a on a constant piece; on an ODE
    piece it is y at the accepted steps, rows 0-3 the columns of the
    transfer matrix from s to each step (a row per mu over an array), or
    with dense (interpolant, j, s_0, L_j / L_0): the pass's interpolant,
    whose rows i p + j give piece j's y at t = s_0 + (x - s_j) L_0 / L_j
    (t = x on the first ODE piece, j = 0).
    spacing, one length per piece, keeps the steps of an ODE piece at most
    that far apart: they are capped at it, or past _CAPPED such steps y is
    read from the interpolant at points that far apart.  With slope, y also
    carries dB/dmu in rows 4-7, from the variational equation
    Phi_mu' = A Phi_mu - [[0, 0], [1, 0]] Phi.
    """
    spacing = spacing or itertools.repeat(math.inf)
    block = _const_block if np.ndim(mu) == 0 else _const_blocks
    solved = None
    for (s, e, _), c in zip(a.pieces, a.constants):
        if c is not None:
            yield s, e, block(mu + c, e - s), mu + c
            continue
        if solved is None:  # at the first ODE piece, as a pass reaches it
            solved = iter(_integrate(
                [(lo, hi, p, w) for (lo, hi, p), c, w
                 in zip(a.pieces, a.constants, spacing) if c is None],
                mu, dense, tol, slope))
        yield (s, e, *next(solved))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _integrate(ode, mu, dense: bool, tol: float | None, slope: bool):
    """[(B, columns)] for the ODE pieces (s, e, expression, spacing) in ode, as
    _propagators yields them at mu (a float, or a 1-D array of m values),
    from one DOP853 call on the stacked 4mp system (8mp with slope) of its p
    pieces at its m values.  Its parameter t runs over the first piece, and
    piece j is read at x = s_j + (t - s_0) L_j / L_0, L_j its length, so
    that every piece is one interval of t.  The call integrates at
    rtol = atol = tol / sqrt(m p) (`ode` when tol is None), as the RMS error
    norm runs over all 4mp components, with steps of at most a sixteenth of
    a piece and, for a spacing, at most min_j h_j L_0 / L_j.  Its
    right-hand side calls each piece's compiled a once, whatever m; a
    non-finite mu + a raises NonFiniteValue, and more than `ode_budget`
    calls in a pass raise IntegrationFailure."""
    cfg = current()
    budget, evals = cfg.ode_budget, itertools.count(1)
    tol = cfg.ode if tol is None else tol
    mus = np.atleast_1d(np.asarray(mu, dtype=float))
    width, p, m = 8 if slope else 4, len(ode), len(mus)
    one = float(mus[0])  # the mu of a one-mu pass, for its messages
    s0, e0, _, _ = ode[0]
    L0 = e0 - s0
    ratio = [(e - s) / L0 for s, e, _, _ in ode]
    fs = [(piece.compiled(), s, r) for (s, _, piece, _), r in zip(ode, ratio)]

    def non_finite(q, x):
        return NonFiniteValue(f"mu + a is not finite at x={float(x)!r}: "
                              f"q = {float(q)!r}")

    if p > 1 or m > 1:
        # component i of piece j at mu c sits at (i p + j) m + c: even i are
        # values, odd i derivatives.  dy takes each value's derivative, and
        # each derivative's value times -q (with slope, rows 5 and 7 less
        # rows 0 and 2), all times L_j / L_0
        at = np.arange(width * p * m).reshape(width, p, m)
        take = np.empty_like(at)
        take[0::2], take[1::2] = at[1::2], at[0::2]
        take, src, dst = take.ravel(), at[0:4:2].ravel(), at[5::2].ravel()
        ones = np.ones((width, p, m))
        scale = np.broadcast_to(np.array(ratio)[:, None], at.shape).ravel()
        top = float(np.max(np.abs(mus)))

        def rhs(t, y):
            if next(evals) > budget:
                raise _exhausted(budget, one)
            fx = [f(s + (t - s0) * k) for f, s, k in fs]
            q = mus + fx[0] if p == 1 else np.add.outer(fx, mus)
            bound = top + sum(map(abs, fx))
            if bound - bound:  # nan or inf: some q may not be finite
                for row, (_, s, k) in zip(q.reshape(p, m), fs):
                    for v in row:
                        if not math.isfinite(v):
                            raise non_finite(v, s + (t - s0) * k)
            coef = ones.copy()
            coef[1::2] = np.negative(q)
            dy = y[take] * coef.ravel()
            if slope:
                dy[dst] -= y[src]
            return dy if p == 1 else dy * scale
    elif slope:
        def rhs(x, y, f=fs[0][0], mu=one):
            if next(evals) > budget:
                raise _exhausted(budget, mu)
            q = mu + f(x)
            if q - q:  # nan: q is not finite
                raise non_finite(q, x)
            return [y[1], -q * y[0], y[3], -q * y[2],
                    y[5], -q * y[4] - y[0], y[7], -q * y[6] - y[2]]
    else:
        def rhs(x, y, f=fs[0][0], mu=one):
            if next(evals) > budget:
                raise _exhausted(budget, mu)
            q = mu + f(x)
            if q - q:  # nan: q is not finite
                raise non_finite(q, x)
            return [y[1], -q * y[0], y[3], -q * y[2]]

    h = min(h / k for (_, _, _, h), k in zip(ode, ratio))
    grid = L0 / h > _CAPPED
    y0 = np.zeros((width, p, m))
    y0[0] = y0[3] = 1.0
    rtol = tol / math.sqrt(m * p)
    sol = solve_ivp(rhs, (s0, e0), y0.ravel().tolist(), rtol=rtol,
                    atol=rtol, dense_output=dense or grid,
                    max_step=min(max(L0 / 16, 1e-12),
                                 math.inf if grid else h))
    end = sol.y[:, -1]
    if not sol.success:
        where = f"[{s0}, {e0}]" + (f" and {p - 1} more pieces" if p > 1 else "")
        if not np.all(np.abs(end) <= _HUGE):  # also when y is not finite
            raise NonFiniteValue(f"the solution overflows on {where} "
                                 f"at mu={one!r}")
        raise IntegrationFailure(
            f"ODE solver failed on {where}: {sol.message}")
    if grid and not dense:
        ys = sol.sol(np.linspace(s0, e0, math.ceil(L0 / h) + 1))
    else:
        ys = sol.y
    ys, end = ys.reshape(width, p, m, -1), end.reshape(width, p, m)
    out = []
    for j in range(p):
        if dense:  # x maps to t = s_0 + (x - s_j) / ratio_j, t = x for j = 0
            columns = (sol.sol, j, s0, ratio[j])
        else:
            columns = ys[:, j].reshape(width, *np.shape(mu), -1)
        B = end[[0, 2, 1, 3], j].T.reshape(*np.shape(mu), 2, 2)
        out.append((B, columns))
    return out


def _exhausted(budget: int, mu: float) -> IntegrationFailure:
    return IntegrationFailure(f"ODE budget of {budget} evaluations "
                              f"exhausted at mu={mu}")


@np.errstate(divide="ignore", invalid="ignore")  # the series serves q = 0
def _const_slope(q, L: float, B: np.ndarray) -> np.ndarray:
    """d/dq of B = _const_block(q, L), at a float q or over an array of q
    with their blocks B.  With c = B11 and s = B12 = sin(sqrt(q) L) /
    sqrt(q), an entire function of q, it is [[-L s/2, s'], [-(s + L c)/2,
    -L s/2]] with s' = (L c - s) / (2q), or where |q| L^2 < 1/2 its series
    -sum_k k (-q)^(k-1) L^(2k+1) / (2k+1)!, as L c - s cancels there."""
    c, s = B[..., 0, 0], B[..., 0, 1]
    ds, small = (L * c - s) / (2 * q), np.abs(q) * L * L < 0.5
    if np.any(small):
        term, series = -L ** 3 / 6, 0.0
        for k in range(1, 10):
            series += term
            term *= -q * L * L * (k + 1) / (k * (2 * k + 2) * (2 * k + 3))
        ds = np.where(small, series, ds)
    return np.stack([-L * s / 2, ds, -(s + L * c) / 2, -L * s / 2],
                    axis=-1).reshape(B.shape)


def _finite(M: np.ndarray, mu) -> np.ndarray:
    """M, the product of one pass, or NonFiniteValue when it overflowed: a
    hyperbolic block, or the product of finite ones, past the floats."""
    if not np.isfinite(M).all():
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


def _by_mu(run, a: cf.PeriodicCoefficient, mus: np.ndarray, *args):
    """run(a, mus, *args), a pass over the 1-D array mus giving a tuple of
    arrays over them.  Where that pass fails, it is made again at one mu at
    a time, in order, so that the first mu whose pass fails raises the
    error its one-mu pass raises."""
    try:
        return run(a, mus, *args)
    except HillstabError:
        pass  # raised again, if at all, by the one-mu pass that fails
    return tuple(map(np.array, zip(*(run(a, mu, *args)
                                     for mu in mus.tolist()))))


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflow
def _slope(a: cf.PeriodicCoefficient, mu, tol: float):
    """(Delta, dDelta/dmu) at mu, a float or a 1-D array, from one pass
    integrating at tol: the trace of M = B_n ... B_1 and of its derivative,
    the sum over pieces of B_n ... dB_j ... B_1, dB_j/dmu being _const_slope
    on a constant piece and Phi_mu at its end on an ODE piece."""
    M, dM = np.eye(2), np.zeros((2, 2))
    for s, e, B, columns in _propagators(a, mu, False, tol, slope=True):
        if np.ndim(columns) <= 1:  # q on a constant piece
            dB = _const_slope(columns, e - s, B)
        else:  # Phi_mu at the end, its columns in rows 4-7
            dB = np.moveaxis(columns[[4, 6, 5, 7], ..., -1], 0, -1).reshape(
                *np.shape(mu), 2, 2)
        M, dM = B @ M, dB @ M + B @ dM
    return (np.trace(_finite(M, mu), axis1=-2, axis2=-1),
            np.trace(_finite(dM, mu), axis1=-2, axis2=-1))


def monodromy(a: cf.PeriodicCoefficient, mu) -> np.ndarray:
    """Fundamental matrix of u'' + (mu + a(x)) u = 0 over one period, shape
    (2, 2) at a float mu, or (m, 2, 2) at each of a 1-D array of m values,
    each the one-mu pass's bit for bit: on a coefficient of constant pieces
    from one pass over all of them (see _by_mu), else from one pass per mu,
    in order.  The first mu whose one-mu pass fails raises its error."""
    if np.ndim(mu) == 0:
        return _product(_propagators(a, mu, dense=False), mu)
    mus = np.asarray(mu, dtype=float)
    if mus.ndim > 1:
        raise DomainError(f"mu must be a float or a 1-D array, not an array "
                          f"of shape {mus.shape}")
    if None not in a.constants:
        return _by_mu(lambda a, mu: (_product(_propagators(a, mu, False),
                                              mu),), a, mus)[0]
    return np.array([_product(_propagators(a, x, False), x)
                     for x in mus.tolist()]).reshape(-1, 2, 2)


def discriminant(a: cf.PeriodicCoefficient, mu):
    """Trace of the monodromy matrix: a float at a float mu, an array of
    them at a 1-D array of mu."""
    d = np.trace(monodromy(a, mu), axis1=-2, axis2=-1)
    return float(d) if np.ndim(mu) == 0 else d


# -- dense trajectories -------------------------------------------------------

class Trajectory:
    """Dense solution of u'' + (mu + a(x)) u = 0 on [0, T] from given data,
    read from a dense _propagators pass: each piece's ends, its start state,
    and q on a constant piece or else its index j and parameter map in the
    pass's one interpolant, so that a state call reads any array of points
    with at most one _const_blocks call and one interpolant call."""

    def __init__(self, a: cf.PeriodicCoefficient, mu: float, y0, _pieces=None):
        self.a, self.mu, self._interpolant = a, mu, None
        rows, y = [], np.asarray(y0, dtype=float)
        for s, e, B, columns in _pieces or _propagators(a, mu, dense=True):
            if np.isscalar(columns):  # q on a constant piece
                rows.append((s, e, *y, columns, -1, 0.0, 1.0))
            else:
                self._interpolant, j, s0, ratio = columns
                rows.append((s, e, *y, math.nan, j, s0, ratio))
            y = B @ y
        self._pieces = np.array(rows)

    def state(self, x) -> np.ndarray:
        """(u, u') at x in [0, T], shape (2,), or at an array of n points,
        shape (2, n).  A point is read, clamped, in the first piece whose
        end it does not pass by more than 1e-12."""
        xs = np.asarray(x, dtype=float)
        flat = xs.reshape(-1)
        k = np.minimum(np.searchsorted(self._pieces[:, 1] + 1e-12, flat),
                       len(self._pieces) - 1)
        s, e, u, du, q, j, s0, ratio = self._pieces[k].T
        flat = np.clip(flat, s, e)
        m, ode = np.empty((4, flat.size)), j >= 0
        if not ode.all():  # the columns of B from s to each point
            m[:, ~ode] = _const_blocks(q[~ode], (flat - s)[~ode]).swapaxes(
                -1, -2).reshape(-1, 4).T
        if ode.any():  # rows i p + j of the interpolant at each point's t
            j, x = j[ode].astype(int), flat[ode]
            t = np.where(j == 0, x, s0[ode] + (x - s[ode]) / ratio[ode])
            m[:, ode] = self._interpolant(t).reshape(4, -1, t.size)[
                :, j, np.arange(t.size)]
        out = m[:2] * u + m[2:] * du
        return out if xs.ndim else out[:, 0]


# -- edge counting and eigenvalue search -------------------------------------

def _sign(u, du):
    """Sign of a solution just after a point: of u, or of u' where u = 0."""
    return np.where(u != 0, np.sign(u), np.sign(du))


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflow
def _edge_count(a, mu, sups: list[float], tol: float | None = None):
    """(E, M): edge_count(a, mu) at mu, a float or a 1-D array, given sups,
    the sup of a on each piece, which bounds the Sturm spacing there, from
    one pass integrating at tol, with its monodromy matrices.  The pass reads
    an ODE piece at points at most half its shortest spacing of zeros at the
    largest mu, pi / sqrt(mu + sup), apart, so at most one zero lies between
    two of them."""
    M, n, top = np.eye(2), 0, float(np.max(mu))
    half = [0.5 * math.pi / math.sqrt(max(top + sup, 1e-300)) for sup in sups]
    for s, e, B, columns in _propagators(a, mu, False, tol, spacing=half):
        y, M = M[..., 1], _finite(B @ M, mu)
        end = _sign(M[..., 0, 1], M[..., 1, 1])
        if np.ndim(columns) <= 1:  # q on a constant piece
            # q <= 0 allows at most one zero, the sign change; for q > 0 the
            # scaled Pruefer phase atan2(sqrt(q) u, u') passes x multiples of
            # pi: of the counts of the sign change's parity, the nearest
            flip = (_sign(y[..., 0], y[..., 1]) != end).astype(int)
            w = np.sqrt(np.maximum(columns, 0.0))
            x = (np.arctan2(w * y[..., 0], y[..., 1]) % math.pi
                 + w * (e - s)) / math.pi
            n = n + flip + np.where(
                columns > 0, 2 * np.round((x - 0.5 - flip) / 2), 0).astype(int)
            continue
        # e's sign is read from the block, as the next piece reads it
        sg = _sign(*(columns[:2] * y[..., :1] + columns[2:4] * y[..., 1:]))
        sg[..., -1] = end
        n = n + np.count_nonzero(sg[..., 1:] != sg[..., :-1], axis=-1)
    d = np.trace(M, axis1=-2, axis2=-1)
    k = np.where((n % 2 == 0) == (d > 0), n, n + 1)  # in a gap: its index
    return np.where(np.abs(d) < 2.0, 2 * n + 1, 2 * k), M


def edge_count(a: cf.PeriodicCoefficient, mu: float) -> tuple[int, float]:
    """(E, Delta) from one pass: E band edges lie below mu, and Delta is
    discriminant(a, mu) bit for bit.  The N zeros in (0, T) of the solution
    with (u, u')(0) = (0, 1) count the Dirichlet eigenvalues below mu, the
    k-th in the closure of gap k (edges 2k - 1 to 2k), where Delta has the
    sign (-1)^k: E = 2N + 1 in a band, and in a gap E = 2k with k the one of
    N, N + 1 of that parity.  E may be off by one within rounding of an edge."""
    E, M = _edge_count(a, mu, _bounds(a)[1])
    return int(E), float(np.trace(M))


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


def _error(a, mu, sup: float, tol: float, size):
    """What a pass at tol may be off by in a value of the given size at mu
    (floats or arrays), sup being sup a: 0 at `ode`, which the search takes
    as exact, and else _LOOSE tol max(1, size) (1 + T sqrt(mu + sup) / pi)."""
    if tol <= current().ode:
        return 0.0
    waves = 1.0 + a.period * np.sqrt(np.maximum(mu + sup, 0.0)) / math.pi
    return _LOOSE * tol * np.maximum(1.0, size) * waves


def _probe(a, mus: np.ndarray, sups: list[float], tol: float):
    """(E, Delta) at each mu of mus as edge_count gives them, from one pass
    at tol, save where ||Delta| - 2| or u(T), of the solution whose zeros E
    counts, is within the pass's error: only those can move E, the first
    across a band edge and the second across T.  Those mu are passed again
    together at `ode`."""
    E, M = _by_mu(_edge_count, a, mus, sups, tol)
    if tol > current().ode:
        redo = np.minimum(np.abs(np.abs(np.trace(M, axis1=1, axis2=2)) - 2.0),
                          np.abs(M[:, 0, 1])) <= _error(
            a, mus, max(sups), tol, np.max(np.abs(M), axis=(1, 2)))
        if redo.any():
            E[redo], M[redo] = _by_mu(_edge_count, a, mus[redo], sups, None)
    return E, np.trace(M, axis1=1, axis2=2)


def _refine(f, lo: float, hi: float, x: float, df: float | None,
            rising: bool, tol: float):
    """A search for a root of f in [lo, hi], which f crosses upward when
    rising and else downward, by Newton's method from x, or from the
    midpoint where x lies outside [lo, hi] (an end is kept: the root may
    lie on it), kept in the bracket, returning (root, x, slope).  It runs under _lockstep: it
    yields [(x, tol)] for a pass at x integrating at tol and is sent
    [reply], from which f(x, reply) gives f(x), its derivative (or None:
    then the secant through the pass before, or df for the first), the
    pass's error and the tol that pass integrated at, which may be tighter
    than asked.  The first pass runs at tol, and after one with |f| = r the
    next at max(`ode`, r**2), never looser (inexact Newton).  Only a pass
    whose |f| exceeds its error moves an end of the bracket; a step that
    would leave the bracket, or not halve the one before last, bisects it.
    The root is taken from a pass at `ode` when its Newton step or the
    bracket is within `root` plus rounding of x, and x and slope are that
    pass's point and derivative."""
    cfg = current()
    step = step_old = hi - lo
    prev = None
    if not lo <= x <= hi:
        x = 0.5 * (lo + hi)
    for _ in range(200):
        [reply] = yield [(x, tol)]
        v, dv, err, tol = f(x, reply)
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


def _lockstep(searches, answer) -> list:
    """What each generator of searches returns, the generators run together
    in rounds.  A search yields a list of requests and is sent the list of
    their answers.  Each round answer(requests) answers every request
    pending in any search at once, as a dict over the set of them, so that
    one pass serves them all."""
    searches, pending, out = list(searches), {}, {}

    def advance(j, replies):
        try:
            pending[j] = searches[j].send(replies)
        except StopIteration as stop:
            out[j] = stop.value

    for j in range(len(searches)):
        advance(j, None)
    while pending:
        asked, pending = pending, {}
        replies = answer({r for requests in asked.values() for r in requests})
        for j, requests in asked.items():
            advance(j, [replies[r] for r in requests])
    return [out[j] for j in range(len(searches))]


#: the edge search cuts a bracket into _SECTIONS equal parts per round and
#: probes all their inner points in one pass: 3 bits of E per pass, not 1
_SECTIONS = 8


def _edges(a: cf.PeriodicCoefficient, positions) -> list[tuple[float, int]]:
    """(value, multiplicity) of each chain edge in positions, the chain being
    lam0 < alam1 <= alam2 < lam1 <= ...  Edge i starts from Weyl's bracket
    e_i(0) - [sup a, inf a], e_i(0) = (ceil(i / 2) pi / T)^2; brackets snap
    to a dyadic grid, so nearby edges share probes.  Probes integrate at
    sqrt(`ode`) (see _probe), and Newton on g = +-Delta - 2 with Delta' from
    the same pass refines an edge (see _refine); a same-kind pair E cannot
    part is split or found double at the root of Delta' between them.  The
    edges are searched in lockstep (see _lockstep): each round, one
    counting pass gives every probe that any edge asks for, and one slope
    pass every Delta', at the tightest tol asked."""
    cfg, T, counts, deltas, slopes = current(), a.period, {}, {}, {}
    inf, sups = _bounds(a)
    sup = max(sups)
    loose = math.sqrt(cfg.ode) if None in a.constants else cfg.ode

    def answer(requests):
        # a float mu asks for a probe, None near an edge: E may be off by
        # one, a double unparted; (mu, tol) for (tol, Delta, Delta') from a
        # pass at tol or tighter
        new = sorted({r for r in requests if not isinstance(r, tuple)}
                     - counts.keys())
        if new:
            E, d = _probe(a, np.array(new), sups, loose)
            counts.update(zip(new, E.tolist()))
            deltas.update(zip(new, d.tolist()))
        asked = [r for r in requests if isinstance(r, tuple)
                 and slopes.get(r[0], (math.inf,))[0] > r[1]]
        if asked:
            tol = min(t for _, t in asked)
            xs = sorted({x for x, _ in asked})
            d, dd = _by_mu(_slope, a, np.array(xs), tol)
            slopes.update((x, (tol, v, w))
                          for x, v, w in zip(xs, d.tolist(), dd.tolist()))
        return {r: slopes[r[0]] if isinstance(r, tuple) else
                None if band(deltas[r]) == "Boundary" else counts[r]
                for r in requests}

    def edge(i):
        k = (i + 1) // 2  # gap k lies between edges 2k - 1 and 2k
        sign = -1.0 if k % 2 else 1.0

        def g(mu, reply):
            tol, d, dd = reply
            return (sign * d - 2.0, sign * dd, _error(a, mu, sup, tol, abs(d)),
                    tol)

        def dg(mu, reply):
            tol, d, dd = reply
            return sign * dd, None, _error(a, mu, sup, tol, abs(dd)), tol

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
            at_lo, at_hi = yield [lo, hi]
            if at_lo not in range(i + 1):
                lo -= w
            elif (at_hi or 0) <= i:
                hi += w
            else:
                break
        else:
            raise RootSearchFailure(f"could not bracket band edge {i}")
        pair = (2 * k - 1, 2 * k + 1)  # in gap k's closure: unparted by E
        while counts[hi] - counts[lo] > 1 and not (
                (counts[lo], counts[hi]) == pair and hi - lo <= scale / 16):
            cuts = [x for x in (lo + j * (hi - lo) / _SECTIONS
                                for j in range(1, _SECTIONS)) if lo < x < hi]
            cuts = [x for x, E in zip(cuts, (yield cuts)) if E is not None]
            if not cuts:  # what is left lies within rounding of one point
                break
            lo = max([lo] + [x for x in cuts if counts[x] <= i])
            hi = min([hi] + [x for x in cuts if x > lo and counts[x] > i])
        glo, ghi = sign * deltas[lo] - 2.0, sign * deltas[hi] - 2.0
        if (counts[lo], counts[hi]) != pair:
            if glo * ghi > 0:
                raise RootSearchFailure(f"could not part edges in [{lo}, {hi}]")
            x = lo - glo * (hi - lo) / (ghi - glo)  # regula falsi
            root = yield from _refine(g, lo, hi, x, None, ghi > 0, loose)
            return root[0], 1
        # a same-kind pair in a bracket with g < 0 at both ends: g' falls
        # through 0 once, where g peaks above 0 between two edges and at 0
        # on a double one; start where g = -c (mu - m)^2 through both ends
        # would peak
        wl, wh = math.sqrt(-glo), math.sqrt(-ghi)
        m, x, curv = yield from _refine(
            dg, lo, hi, lo + (hi - lo) * wl / (wl + wh),
            -2 * ((wl + wh) / (hi - lo)) ** 2, False, loose)
        # g at m on the parabola through g and g' at x, the last pass
        gmax = g(x, slopes[x])[0] + 0.5 * (m - x) * dg(x, slopes[x])[0]
        if gmax > 1e-12:
            # each edge from g = gmax + curv (mu - m)^2 / 2, first at the
            # accuracy that g near the edge (of order gmax) needs
            r = math.sqrt(2 * gmax / -curv) if curv < 0 else 0.0
            tol = min(loose, max(cfg.ode, gmax * gmax))
            if i == 2 * k - 1:
                root = yield from _refine(g, lo, m, m - r, None, True, tol)
            else:
                root = yield from _refine(g, m, hi, m + r, None, False, tol)
            return root[0], 1
        if gmax > -cfg.boundary:
            return m, 2
        raise RootSearchFailure(f"no band edge pair in [{lo}, {hi}]")

    return _lockstep((edge(i) for i in positions), answer)


def chain_position(kind: str, j: int) -> int:
    """Place of lam_j (kind "periodic", j from 0) or alam_j ("antiperiodic",
    j from 1) on the chain of band edges lam0 < alam1 <= alam2 < lam1 <=
    lam2 < alam3 <= ...: 2j + j % 2, or 2j - 2 + j % 2."""
    return 2 * j + j % 2 - (2 if kind == "antiperiodic" else 0)


def spectrum(a: cf.PeriodicCoefficient, n_periodic: int | None,
             n_antiperiodic: int | None) -> SpectrumSlice:
    """The first n_periodic lam_j and n_antiperiodic alam_j, both kinds
    from one search; None asks for no eigenvalue of its kind."""
    if any(n is not None and n < 1 for n in (n_periodic, n_antiperiodic)):
        raise ValueError("count must be >= 1")
    p, ap = range(n_periodic or 0), range(1, (n_antiperiodic or 0) + 1)
    found = _edges(a, [chain_position("periodic", j) for j in p] +
                   [chain_position("antiperiodic", j) for j in ap])
    return SpectrumSlice([EigEntry(j, *v) for j, v in zip(p, found)],
                         [EigEntry(j, *v) for j, v in zip(ap, found[len(p):])])


def periodic_eigenvalues(a: cf.PeriodicCoefficient, count: int) -> SpectrumSlice:
    """First `count` periodic eigenvalues (roots of Delta = 2), with multiplicity."""
    return spectrum(a, count, None)


def antiperiodic_eigenvalues(a: cf.PeriodicCoefficient, count: int) -> SpectrumSlice:
    """First `count` antiperiodic eigenvalues (roots of Delta = -2), indexed from 1."""
    return spectrum(a, None, count)


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
            f"mu={mu} is not {'a' if sign > 0 else 'an'} {bc} eigenvalue "
            f"(defect {np.linalg.norm(A @ v):.2e})")
    return Trajectory(a, mu, v, _pieces=pieces)
