"""T-periodic piecewise-defined coefficients with exact expression pieces.

A coefficient is a finite list of half-open intervals partitioning [0, T),
each carrying a closed-form expression in x; its attribute `constants`
holds, piece by piece, the value of a variable-free expression or None,
found once as the coefficient is made.  Evaluation takes an array of
points, extends the coefficient T-periodically to the whole line and
evaluates each piece's expression once on the points inside it.  An
interval's integration cells are cut at piece breakpoints and removable
points and moved into [0, T] by whole periods; `sample` draws dense points
in each cell for the sup/inf functionals, and integrals run adaptive
Gauss-Kronrod (7, 15) quadrature breadth first over all cells at once,
several intervals' in one call, each cell at its interval's tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import NonFiniteValue, ParseError, QuadratureFailure
from .settings import current


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of checking a(x) >= c almost everywhere."""

    holds_ae: bool
    strict_on_positive_measure: bool
    min_gap: float
    strict_fraction: float


@dataclass(frozen=True)
class PeriodicCoefficient:
    period: float
    pieces: tuple[tuple[float, float, ex.Expression], ...]
    removable_points: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        T = self.period
        if not (T > 0 and np.isfinite(T)):
            raise ParseError("period must be a positive finite real")
        if not self.pieces:
            raise ParseError("coefficient needs at least one piece")
        bounds = [v for s, e, _ in self.pieces for v in (s, e)]
        if not np.all(np.isfinite(bounds + list(self.removable_points))):
            raise ParseError("piece bounds and removable points must be finite")
        tol = 1e-9 * max(1.0, T)
        with np.errstate(over="ignore"):
            constants = tuple(ex.constant_value(p) for _, _, p in self.pieces)
        # not a field, so equality, hashing and repr read the pieces alone
        object.__setattr__(self, "constants", constants)
        prev = 0.0
        for (s, e, p), c in zip(self.pieces, constants):
            if abs(s - prev) > tol:
                raise ParseError(f"pieces do not partition [0,T): gap/overlap at {s}")
            if e <= s:
                raise ParseError("empty piece interval")
            if c is not None and not math.isfinite(c):
                raise NonFiniteValue(
                    f"coefficient is not finite on [{s}, {e}): {p} = {c}")
            prev = e
        if abs(prev - T) > tol:
            raise ParseError("pieces do not cover [0,T)")

    # -- evaluation -----------------------------------------------------------

    def _reduce(self, x) -> np.ndarray:
        y = np.mod(np.ravel(x), self.period)
        # guard against y == period from floating-point roundoff
        y[y >= self.period] = 0.0
        return y

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def __call__(self, x):
        """T-periodic evaluation at a point or an array of points; removable
        points use the right-hand limit.  Each piece's expression is
        evaluated once, on all the points that fall in it, and a value that
        is not finite raises NonFiniteValue."""
        xs = np.asarray(x, dtype=float)
        y = self._reduce(xs)
        hit = np.zeros(y.shape, dtype=bool)
        for p in self._reduce(self.removable_points):
            near = ~hit & (np.abs(y - p) <= 1e-12)
            y[near] = p + current().removable_eps
            hit |= near
        starts = self.breakpoints()[:-1]
        # points before the first start (a tolerated gap) go to the last piece
        idx = (np.searchsorted(starts, y, side="right") - 1) % len(starts)
        vals = np.empty_like(y)
        for i in np.unique(idx):
            at = idx == i
            try:
                vals[at] = self.pieces[i][2].eval(x=y[at])
            except (ZeroDivisionError, OverflowError):
                vals[at] = np.nan
        bad = ~np.isfinite(vals)
        if bad.any():
            raise NonFiniteValue(
                f"coefficient is not finite at x={xs.ravel()[bad.argmax()]}")
        return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)

    def eval(self, x: float) -> float:
        """T-periodic evaluation at one point; see __call__."""
        return float(self(x))

    # -- structure ------------------------------------------------------------

    def breakpoints(self) -> np.ndarray:
        """Piece boundaries in [0, T]."""
        bps = [s for s, _, _ in self.pieces] + [self.period]
        return np.array(bps)

    # -- transformations ------------------------------------------------------

    def positive_part(self) -> "PeriodicCoefficient":
        """Pointwise max(a, 0)."""
        return PeriodicCoefficient(
            self.period,
            tuple((s, e, ex.Clamp(p)) for s, e, p in self.pieces),
            self.removable_points,
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "pieces": [{"from": s, "to": e, "expr": str(p)}
                       for s, e, p in self.pieces],
            "removable": list(self.removable_points),
        }

    @staticmethod
    def from_dict(doc: dict) -> "PeriodicCoefficient":
        try:
            period = float(doc["period"])
            pieces = tuple(
                (float(p["from"]), float(p["to"]), ex.parse(p["expr"]))
                for p in doc["pieces"]
            )
            removable = tuple(float(v) for v in doc.get("removable", []))
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(f"bad coefficient document: {err}") from err
        return PeriodicCoefficient(period, pieces, removable)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_json(text: str) -> "PeriodicCoefficient":
        return PeriodicCoefficient.from_dict(parse_json(text))


def parse_json(text: str):
    """The JSON document text holds; ParseError when it is malformed or
    nested deeper than the decoder can recurse."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise ParseError(f"bad JSON: {err}") from err


# -- constructors -------------------------------------------------------------

def constant(value: float, period: float) -> PeriodicCoefficient:
    return PeriodicCoefficient(period, ((0.0, period, ex.Const(float(value))),))


def step_function(period: float,
                  plateaus: list[tuple[float, float, float]]) -> PeriodicCoefficient:
    """Piecewise-constant coefficient from (start, end, value) plateaus."""
    pieces = tuple((s, e, ex.Const(float(v))) for s, e, v in plateaus)
    return PeriodicCoefficient(period, pieces)


def from_expression(text_or_expr, period: float) -> PeriodicCoefficient:
    e = ex.parse(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
    return PeriodicCoefficient(period, ((0.0, period, e),))


# -- sampling and quadrature --------------------------------------------------

def _integration_cells(a: PeriodicCoefficient, s: float, e: float):
    """Split [s, e] at piece breakpoints and removable points.

    Returns (lo, hi, shift): cell i is [lo_i, hi_i] + shift_i, where
    [lo_i, hi_i] is its place in [0, T] and shift_i a whole number of periods,
    so that no point of a cell wraps into another period's piece.
    """
    T = a.period
    marks = np.concatenate([a.breakpoints(), a._reduce(a.removable_points)])
    cells = []
    for k in range(math.floor(s / T), math.ceil(e / T)):
        lo, hi = max(s - k * T, 0.0), min(e - k * T, T)
        pts = np.unique(np.concatenate([[lo, hi],
                                        marks[(lo < marks) & (marks < hi)]]))
        cells += [(p, q, k * T) for p, q in zip(pts[:-1], pts[1:])]
    return np.array(cells).T


def sample(a: PeriodicCoefficient, interval: tuple[float, float],
           samples_per_piece: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Dense samples of a inside every integration cell of the interval.

    Each cell [lo, hi] gets samples_per_piece points from lo to hi, inset by
    1e-12 (hi - lo) at both ends.  Returns (xs, a(xs)) with xs ascending.
    """
    s, e = interval
    if e <= s:
        raise ValueError("interval must be nonempty")
    lo, hi, shift = _integration_cells(a, s, e)
    inset = 1e-12 * (hi - lo)
    xs = np.linspace(lo + inset, hi - inset, samples_per_piece, axis=1)
    return (xs + shift[:, None]).ravel(), a(xs.ravel())


# QUADPACK's qk15 rule: the nodes in [0, 1] with their Kronrod and Gauss
# weights (0 at Kronrod's own nodes), mirrored into the 15 nodes in (-1, 1)
_GK_HALF = np.array([
    (0.0, 0.20948214108472782, 0.4179591836734694),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.9914553711208126, 0.022935322010529224, 0.0)])
_X, _W_K, _W_G = np.concatenate([_GK_HALF[:0:-1] * (-1, 1, 1), _GK_HALF]).T
# rows applied to f at -1, the 15 nodes and 1: K, K - G, and at each end f
# less the polynomial through f at the nodes (in barycentric form) there,
# times the gap between that end and its nearest node
_AT_1 = 1 / np.prod(_X[:, None] - _X + np.eye(15), axis=1) / (1 - _X)
_GAP = (1 - _X[-1]) * np.r_[0, -_AT_1 / _AT_1.sum(), 1]
_WEIGHTS = np.array([np.pad(_W_K, 1), np.pad(_W_K - _W_G, 1), _GAP[::-1], _GAP])


@np.errstate(over="ignore", invalid="ignore")
def _gauss_kronrod(f, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray,
                   group: np.ndarray, groups: int) -> list[float]:
    """Adaptive Gauss-Kronrod (7, 15) over all cells [lo_i, hi_i] at once,
    breadth first: the integral of each of `groups` intervals, cell i
    belonging to interval group_i and accepted at its own tolerance tol_i.

    Each level calls f once, on the 15 nodes and the ends of every open
    cell (the right end an ulp inside, in the cell's piece).  A cell whose
    error, |K - G| of its Kronrod and Gauss estimates plus what a kink can
    hide between an end and its nearest node (the rule's health indicator),
    is at most tol_i or QUADPACK's round-off floor 50 eps h sum(w_K |f|)
    adds K to its interval's total, level by level, in the order a call on
    that interval's cells alone would add it; the others split in two at
    half the tolerance.  One open past depth 60 fails; a non-finite
    estimate or total raises NonFiniteValue.
    """
    total, used = np.zeros(groups), 0
    for _ in range(62):
        mid, h = (lo + hi) / 2, (hi - lo) / 2
        x = np.c_[lo, mid[:, None] + h[:, None] * _X, np.nextafter(hi, lo)]
        used += x.size
        if used > current().quad_budget:
            raise _unmet(lo, hi, f"its budget of {current().quad_budget} "
                                 "evaluations ran out")
        fx = f(x.ravel()).reshape(x.shape)
        # row sums, not fx @ w: BLAS may round a row by the number of rows
        kronrod, *errors = h * (fx[:, None] * _WEIGHTS).sum(axis=2).T
        floor = 50 * np.finfo(float).eps * h * (np.abs(fx) * _WEIGHTS[0]).sum(1)
        done = np.abs(errors).sum(axis=0) <= np.maximum(tol, floor)
        total += np.bincount(group[done], weights=kronrod[done], minlength=groups)
        if not (np.isfinite(kronrod).all() and np.isfinite(total).all()):
            raise NonFiniteValue("integral is not finite")
        if done.all():
            return total.tolist()
        go = ~done
        lo, hi = np.concatenate([lo[go], mid[go]]), np.concatenate([mid[go], hi[go]])
        tol, group = np.tile(tol[go] / 2, 2), np.tile(group[go], 2)
    raise _unmet(lo, hi, "its cells reached the depth limit")


def _unmet(lo: np.ndarray, hi: np.ndarray, why: str) -> QuadratureFailure:
    """The failure of a quadrature whose cells [lo_i, hi_i] are still open."""
    return QuadratureFailure(
        f"quadrature cannot meet quad = {current().quad!r}: {why}, with "
        f"{len(lo)} cells open in x = [{lo.min():.10g}, {hi.max():.10g}]")


def _integrate(a: PeriodicCoefficient, f, intervals) -> list[float]:
    """The integrals of f, T-periodic, over each interval (s, e), from one
    _gauss_kronrod call; an interval's n cells each take `quad` / n."""
    cells = []
    for k, (s, e) in enumerate(intervals):
        if e < s:
            raise ValueError("interval must satisfy s <= e")
        if e > s:
            # f is T-periodic: integrate it over the cells' places in [0, T]
            lo, hi, _ = _integration_cells(a, s, e)
            cells.append((lo, hi, np.full(len(lo), current().quad / len(lo)),
                          np.full(len(lo), k)))
    if not cells:
        return [0.0] * len(intervals)
    return _gauss_kronrod(f, *map(np.concatenate, zip(*cells)), len(intervals))


def l1_distances(a: PeriodicCoefficient, c: float, intervals) -> list[float]:
    """The integral of |a(x) - c| over each interval, from one quadrature:
    each to `quad`, or to the round-off floor where that is larger."""
    return _integrate(a, lambda x: np.abs(a(x) - c), intervals)


def l1_distance(a: PeriodicCoefficient, c: float,
                interval: tuple[float, float]) -> float:
    """Integral of |a(x) - c| over the interval; see l1_distances."""
    return l1_distances(a, c, [interval])[0]


def integral(a: PeriodicCoefficient, interval: tuple[float, float]) -> float:
    """Signed integral of a over the interval."""
    return _integrate(a, a, [interval])[0]


def mean(a: PeriodicCoefficient) -> float:
    return integral(a, (0.0, a.period)) / a.period


def linf_norm(a: PeriodicCoefficient, interval: tuple[float, float]) -> float:
    """Essential supremum of |a| on the interval: the largest |a| over the
    per-cell samples of `sample`."""
    _, vals = sample(a, interval)
    return float(np.max(np.abs(vals)))


def dominance_grid(a: PeriodicCoefficient) -> np.ndarray:
    """a at the points `dominates` reads, in one array evaluation:
    `dominance_samples` uniform points per period, then the piece endpoints
    offset by +-1e-9."""
    xs = np.linspace(0.0, a.period, current().dominance_samples,
                     endpoint=False)
    extra = (a.breakpoints()[:, None] + [-1e-9, 1e-9]).ravel()
    return a(np.concatenate([xs, extra]))


def dominates(a: PeriodicCoefficient, c: float,
              grid: np.ndarray | None = None) -> DominanceReport:
    """Check c <= a almost everywhere, with strictness on positive measure,
    on dominance_grid(a) (or grid, its value); "positive measure" means at
    least one uniform sample is strictly above c.
    """
    n = current().dominance_samples
    gaps = (dominance_grid(a) if grid is None else grid) - c
    min_gap = float(np.min(gaps))
    holds_ae = bool(min_gap >= -1e-12)
    strict_fraction = float(np.mean(gaps[:n] > 1e-12))
    strict = bool(holds_ae and strict_fraction >= 1.0 / n)
    return DominanceReport(holds_ae, strict, min_gap, strict_fraction)
