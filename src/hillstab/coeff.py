"""T-periodic piecewise-defined coefficients with exact expression pieces.

A coefficient is a finite list of half-open intervals partitioning [0, T),
each carrying a closed-form expression in x.  Evaluation takes an array of
points, extends the coefficient T-periodically to the whole line and
evaluates each piece's expression once on the points inside it.  The
integration cells of an interval are cut at piece breakpoints and removable
points and moved into [0, T] by whole periods; `sample` draws dense points
inside each cell for the sup/inf functionals, and integrals use adaptive
Simpson quadrature run breadth first over all cells at once, those of
several intervals in one call with each cell at its own interval's
tolerance, and with each cell's ends evaluated in its own piece, so
two-plateau potentials and boundary-layer witness families integrate to
full accuracy.
"""

from __future__ import annotations

import itertools
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
        prev = 0.0
        for s, e, p in self.pieces:
            if abs(s - prev) > tol:
                raise ParseError(f"pieces do not partition [0,T): gap/overlap at {s}")
            if e <= s:
                raise ParseError("empty piece interval")
            with np.errstate(over="ignore"):
                c = ex.constant_value(p)
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
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ParseError(f"bad JSON: {err}") from err
        return PeriodicCoefficient.from_dict(doc)


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


@np.errstate(over="ignore", invalid="ignore")
def _adaptive_simpson(f, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray,
                      group: np.ndarray, groups: int) -> list[float]:
    """Adaptive Simpson over all cells [lo_i, hi_i] at once, breadth first:
    the integral of each of `groups` intervals, cell i belonging to interval
    group_i and accepted at its own tolerance tol_i.

    Each level halves every open cell with one call of f on all the new
    nodes and halves its tolerance.  A cell is accepted from depth 3 on when
    the two halves differ from the whole by at most 15 tol, with the
    Richardson term added to its interval's total, level by level, in the
    order a call on that interval's cells alone would add it; one still open
    past depth 60 fails, and a Simpson estimate or total that is not finite
    raises NonFiniteValue.
    """
    # the right end is taken one ulp inside, so that it is in the cell's piece
    f_lo, f_mid, f_hi = np.split(
        f(np.concatenate([lo, (lo + hi) / 2, np.nextafter(hi, lo)])), 3)
    used = 3 * len(lo)
    # the open cells, one column each: their ends, f at the ends and the
    # middle, their Simpson estimate, tolerance and interval
    cells = np.array([lo, hi, f_lo, f_mid, f_hi,
                      (hi - lo) / 6 * (f_lo + 4 * f_mid + f_hi), tol, group])
    total = [0.0] * groups
    for depth in itertools.count():
        lo, hi, f_lo, f_mid, f_hi, whole, tol, group = cells
        used += 2 * len(lo)
        if used > current().quad_budget:
            raise QuadratureFailure("quadrature evaluation budget exhausted")
        m = (lo + hi) / 2
        f_lm, f_rm = np.split(f(np.concatenate([(lo + m) / 2, (m + hi) / 2])), 2)
        left = (m - lo) / 6 * (f_lo + 4 * f_lm + f_mid)
        right = (hi - m) / 6 * (f_mid + 4 * f_rm + f_hi)
        diff = left + right - whole
        done = (depth > 2) & (np.abs(diff) <= 15 * tol)
        accepted = (left + right + diff / 15)[done]
        owner = group[done].astype(int)
        for k in np.flatnonzero(np.bincount(owner, minlength=groups)):
            total[k] += float(np.sum(accepted[owner == k]))
        if not (np.isfinite(left + right).all()
                and all(map(math.isfinite, total))):
            raise NonFiniteValue("integral is not finite")
        if done.all():
            return total
        if depth > 60:
            raise QuadratureFailure("quadrature did not converge (depth limit)")
        # the open cells split into [lo, m] and [m, hi] at half the tolerance
        go = ~done
        cells = np.concatenate(
            [np.array([lo, m, f_lo, f_lm, f_mid, left, tol / 2, group])[:, go],
             np.array([m, hi, f_mid, f_rm, f_hi, right, tol / 2, group])[:, go]],
            axis=1)


def _integrate(a: PeriodicCoefficient, f, intervals) -> list[float]:
    """The integrals of f, T-periodic, over each interval (s, e), from one
    _adaptive_simpson call over all their cells, an interval's cells each
    at `quad` / (their number)."""
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
    return _adaptive_simpson(f, *map(np.concatenate, zip(*cells)),
                             len(intervals))


def l1_distances(a: PeriodicCoefficient, c: float, intervals) -> list[float]:
    """The integral of |a(x) - c| over each interval, absolute tolerance
    1e-10 each, from one quadrature."""
    return _integrate(a, lambda x: np.abs(a(x) - c), intervals)


def l1_distance(a: PeriodicCoefficient, c: float,
                interval: tuple[float, float]) -> float:
    """Integral of |a(x) - c| over the interval, absolute tolerance 1e-10."""
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
