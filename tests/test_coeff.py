import dataclasses
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillstab import coeff as cf
from hillstab import constants as cn
from hillstab import expr as ex
from hillstab import settings as config
from hillstab import witness as wt
from hillstab.errors import NonFiniteValue, ParseError, QuadratureFailure

T = 2 * math.pi


def three_step(vals, breaks=None):
    b = breaks or [0.0, 2.0, 4.0, T]
    return cf.step_function(T, list(zip(b[:-1], b[1:], vals)))


def test_partition_validation():
    with pytest.raises(ParseError):
        cf.PeriodicCoefficient(T, ((0.0, 1.0, ex.Const(1.0)),
                                   (2.0, T, ex.Const(2.0))))  # gap
    with pytest.raises(ParseError):
        cf.PeriodicCoefficient(T, ((0.0, 1.0, ex.Const(1.0)),))  # short
    with pytest.raises(ParseError):
        cf.PeriodicCoefficient(-1.0, ((0.0, 1.0, ex.Const(1.0)),))
    with pytest.raises(ParseError):
        cf.PeriodicCoefficient(T, ())


def test_periodic_eval():
    a = three_step([1.0, 2.0, 3.0])
    assert a.eval(1.0) == 1.0
    assert a.eval(3.0) == 2.0
    assert a.eval(5.0) == 3.0
    # wrap-around
    assert a.eval(1.0 + T) == 1.0
    assert a.eval(1.0 - 3 * T) == 1.0


def test_call_vectorizes():
    a = three_step([1.0, 2.0, 3.0])
    out = a(np.array([1.0, 3.0, 5.0]))
    np.testing.assert_allclose(out, [1.0, 2.0, 3.0])


def _scan_eval(a, x):
    """Reference: one point at a time, removable points first, then the
    first piece whose half-open interval holds the reduced point."""
    y = x % a.period
    y = 0.0 if y >= a.period else y
    for p in a.removable_points:
        if abs(y - p % a.period) <= 1e-12:
            y = p % a.period + config.current().removable_eps
            break
    piece = next((f for s, e, f in a.pieces if s <= y < e), a.pieces[-1][2])
    return float(piece.eval(x=y))


def test_array_eval_matches_pointwise_scan():
    a = wt.make_a_eps(2, T, 0.05)
    rng = np.random.default_rng(3)
    marks = np.concatenate([a.breakpoints(), a.removable_points])
    xs = np.concatenate([rng.uniform(-2 * T, 3 * T, 2000), marks,
                         marks + T, marks - 1e-13, [-1e-17]])
    np.testing.assert_array_equal(a(xs), [_scan_eval(a, x) for x in xs])


def test_nonfinite_detection():
    a = cf.from_expression("1/x", T)
    with pytest.raises(NonFiniteValue):
        a.eval(0.0)


def test_json_roundtrip():
    a = cf.PeriodicCoefficient(
        T,
        ((0.0, 1.0, ex.parse("sin(x)")), (1.0, T, ex.parse("x^2 - 1"))),
        (1.0,),
    )
    b = cf.PeriodicCoefficient.from_json(a.to_json())
    assert b.period == a.period
    xs = np.linspace(0.05, T - 0.05, 57)
    np.testing.assert_allclose([b.eval(float(x)) for x in xs],
                               [a.eval(float(x)) for x in xs], atol=1e-12)


def test_from_json_rejects_bad_documents():
    with pytest.raises(ParseError):
        cf.PeriodicCoefficient.from_json("not json")
    with pytest.raises(ParseError):
        cf.PeriodicCoefficient.from_json('{"period": 1.0}')


def test_integral_exact_pieces():
    a = three_step([1.0, 2.0, 3.0])
    # 1*2 + 2*2 + 3*(2pi-4)
    expected = 2 + 4 + 3 * (T - 4)
    assert cf.integral(a, (0.0, T)) == pytest.approx(expected, abs=1e-10)


def test_integral_smooth():
    a = cf.from_expression("sin(x)^2", T)
    assert cf.integral(a, (0.0, T)) == pytest.approx(math.pi, abs=1e-9)
    assert cf.mean(a) == pytest.approx(0.5, abs=1e-10)


def test_integral_across_period_wrap():
    a = cf.from_expression("cos(x)", T)
    v = cf.integral(a, (T - 1.0, T + 1.0))
    assert v == pytest.approx(2 * math.sin(1.0), abs=1e-9)


def test_l1_distance():
    a = cf.from_expression("sin(x)", T)
    assert cf.l1_distance(a, 0.0, (0.0, T)) == pytest.approx(4.0, abs=1e-9)
    assert cf.l1_distance(a, 1.0, (0.0, math.pi / 2)) == pytest.approx(
        math.pi / 2 - 1.0, abs=1e-9)
    # an integral past the largest float is not finite, not a budget
    # failure, and its overflow warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="integral is not finite"):
            cf.l1_distance(cf.constant(1e308, T), 0.0, (0.0, T))


def test_linf_norm():
    a = cf.from_expression("sin(x)", T)
    assert cf.linf_norm(a, (0.0, T)) == pytest.approx(1.0, abs=1e-6)
    b = three_step([1.0, -5.0, 2.0])
    assert cf.linf_norm(b, (0.0, T)) == pytest.approx(5.0)
    assert cf.linf_norm(b, (0.0, 1.9)) == pytest.approx(1.0)


def test_positive_part():
    a = three_step([1.0, -5.0, 2.0])
    p = a.positive_part()
    assert p.eval(3.0) == 0.0
    assert p.eval(1.0) == 1.0
    expected = 1 * 2 + 0 + 2 * (T - 4)
    assert cf.integral(p, (0.0, T)) == pytest.approx(expected, abs=1e-9)


def test_dominance_strict():
    a = three_step([1.5, 2.0, 1.1])
    rep = cf.dominates(a, 1.0)
    assert rep.holds_ae and rep.strict_on_positive_measure
    assert rep.min_gap == pytest.approx(0.1)


def test_dominance_equality_not_strict():
    a = cf.constant(1.0, T)
    rep = cf.dominates(a, 1.0)
    assert rep.holds_ae
    assert not rep.strict_on_positive_measure


def test_dominance_fails():
    a = three_step([1.5, 0.5, 1.1])
    rep = cf.dominates(a, 1.0)
    assert not rep.holds_ae
    assert rep.min_gap == pytest.approx(-0.5)


def test_removable_point_uses_right_limit():
    # x/x is 1 everywhere except the removable hole at 0
    a = cf.PeriodicCoefficient(T, ((0.0, T, ex.parse("sin(x)/x")),), (0.0,))
    v = a.eval(0.0)
    assert np.isfinite(v) and v == pytest.approx(1.0, abs=1e-6)
    assert cf.integral(a, (0.0, 1.0)) == pytest.approx(0.9460830703671830,
                                                       abs=1e-8)


def test_removable_point_keeps_its_measure():
    # a removable point inside a piece takes nothing away from the integral
    a = cf.PeriodicCoefficient(T, ((0.0, T, ex.Const(3.0)),), (1.0,))
    assert cf.integral(a, (0.0, T)) == pytest.approx(3.0 * T, abs=1e-12)


def test_quadrature_at_jumps_and_across_the_wrap():
    # 1/2/3 on [0,2)/[2,4)/[4,T): nodes just below a multiple of T belong to
    # the plateau 3, not to the 1 that starts the next period
    a = cf.step_function(T, [(0.0, 2.0, 1.0), (2.0, 4.0, 2.0), (4.0, T, 3.0)])

    def antiderivative(x):
        k, r = divmod(x, T)
        return (k * (3 * T - 6) + min(r, 2.0) + 2 * min(max(r - 2, 0.0), 2.0)
                + 3 * max(r - 4, 0.0))

    for s, e in [(-1.0, 0.2), (-20.0, 7.0)]:
        assert cf.integral(a, (s, e)) == pytest.approx(
            antiderivative(e) - antiderivative(s), abs=1e-12)


@given(st.floats(min_value=-3, max_value=3),
       st.floats(min_value=0.1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_constant_integral_property(c, width):
    a = cf.constant(c, T)
    assert cf.integral(a, (0.0, width)) == pytest.approx(c * width, abs=1e-9)


def gauss_kronrod_one_interval(f, lo, hi, tol):
    """The breadth-first adaptive Gauss-Kronrod (7, 15) over the cells of
    one interval, one scalar total and one tolerance, each level's accepted
    estimates summed in a loop: what _gauss_kronrod must give for a single
    interval, bit for bit."""
    total = 0.0
    while True:
        mid, h = (lo + hi) / 2, (hi - lo) / 2
        x = np.c_[lo, mid[:, None] + h[:, None] * cf._X, np.nextafter(hi, lo)]
        fx = f(x.ravel()).reshape(x.shape)
        kronrod, *errors = h * (fx[:, None] * cf._WEIGHTS).sum(axis=2).T
        floor = 50 * np.finfo(float).eps * h * (np.abs(fx) * cf._WEIGHTS[0]).sum(1)
        done = np.abs(errors).sum(axis=0) <= np.maximum(tol, floor)
        level = 0.0
        for value in kronrod[done]:
            level += value
        total += level
        if done.all():
            return total
        go = ~done
        lo, hi = np.concatenate([lo[go], mid[go]]), np.concatenate([mid[go], hi[go]])
        tol /= 2


@pytest.mark.parametrize("a", [
    three_step([1.0, -2.0, 3.0]),
    cf.from_expression("0.5+0.3*cos(x)", T),
    wt.make_a_eps(1, T, 0.05),
], ids=["steps", "smooth", "a_eps"])
def test_grouped_quadrature(a):
    # one call integrates several intervals, each cell at its own interval's
    # tolerance: each total is the one a call on that interval alone gives,
    # and that is the single-interval algorithm's, bit for bit
    intervals = [(0.0, T), (0.3, 1.7), (-1.0, 0.2), (2.0, 2.0), (5.0, 9.0)]
    grouped = cf.l1_distances(a, 0.4, intervals)
    assert grouped == [cf.l1_distance(a, 0.4, iv) for iv in intervals]
    assert grouped[3] == 0.0
    for (s, e), value in zip(intervals, grouped):
        if e > s:
            lo, hi, _ = cf._integration_cells(a, s, e)
            assert value == gauss_kronrod_one_interval(
                lambda x: np.abs(a(x) - 0.4), lo, hi,
                config.current().quad / len(lo))
    with pytest.raises(ValueError):
        cf.l1_distances(a, 0.4, [(0.0, 1.0), (1.0, 0.5)])


def test_grouped_quadrature_budget():
    # the evaluation budget covers the whole call: one interval takes two
    # levels, 17 + 34 evaluations; twenty take 340 at the first level and
    # 680 more at the second, past the budget
    a = cf.from_expression("0.5+0.3*cos(x)", T)
    with config.use(quad_budget=450):
        cf.l1_distance(a, 0.0, (0.0, T))
        with pytest.raises(QuadratureFailure, match="budget"):
            cf.l1_distances(a, 0.0, [(0.0, T)] * 20)


def test_gauss_kronrod_rule_is_exact_on_polynomials():
    # Kronrod's 15 nodes integrate x^k exactly up to degree 22, Gauss's 7
    # (the weights that are not 0) up to degree 13, so K - G vanishes up
    # to degree 13; the ends get no weight, and the gap terms vanish up to
    # degree 14, the degree of the polynomial through the 15 nodes
    x = np.r_[-1, cf._X, 1]
    kronrod, k_less_g, *gaps = cf._WEIGHTS
    assert np.all(np.diff(x) > 0) and kronrod[0] == kronrod[-1] == 0
    assert np.count_nonzero(kronrod - k_less_g) == 7
    for k in range(23):
        exact = 2 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(kronrod * x ** k) == pytest.approx(exact, abs=1e-15)
        if k < 14:
            assert abs(np.sum(k_less_g * x ** k)) < 1e-15
        if k < 15:
            assert np.abs(np.dot(gaps, x ** k)).max() < 1e-16
    assert np.abs(np.dot(gaps, x ** 15)).min() > 1e-8


@pytest.mark.parametrize("c", [1e-3, 0.02, T - 1e-3])
def test_l1_distance_sees_a_kink_next_to_a_cell_end(c):
    # |x - c| on [0, T] is linear at all 15 inner nodes of the first cell,
    # where K = G; its kink lies between an end and the nearest node, and
    # only the ends show it
    a = cf.from_expression("x", T)
    exact = c * c / 2 + (T - c) ** 2 / 2
    assert cf.l1_distance(a, c, (0.0, T)) == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("c", [-0.9, -0.3, 0.0, 0.5, 0.99])
def test_l1_distance_refines_at_a_kink(c):
    # |cos x - c| has kinks at +-arccos c, inside the one cell of [0, 2pi]
    a = cf.from_expression("cos(x)", T)
    exact = 4 * math.sqrt(1 - c * c) + c * (T - 4 * math.acos(c))
    assert cf.l1_distance(a, c, (0.0, T)) == pytest.approx(exact, abs=1e-10)


def test_round_off_floor_accepts_large_constants():
    # K and G of a constant differ in their last bits, which for 1e10 is
    # far above quad; the round-off floor accepts the cell at the first
    # level, within a budget of 17 evaluations
    with config.use(quad_budget=17):
        v = cf.l1_distance(cf.constant(1e10, T), 0.0, (0.0, T))
    assert v == pytest.approx(1e10 * T, rel=1e-15)


def test_quadrature_depth_limit():
    # a jump inside a cell never converges: the cell holding it splits at
    # each of the 62 levels, and then the quadrature fails (a jump where
    # the floats are coarser than 2pi / 2^61 would end in cells too narrow
    # to hold a node between their ends)
    calls = []

    def jump(x):
        calls.append(len(x))
        return (x > 1e-3) * 1.0

    with pytest.raises(QuadratureFailure, match="depth limit"):
        cf._integrate(cf.constant(0.0, T), jump, [(0.0, T)])
    assert len(calls) == 62 and max(calls) == 2 * 17


def test_witness_l1_distance_is_one_call(monkeypatch):
    # every cell of a_eps converges at the first level: one call of the
    # integrand (adaptive Simpson made 8)
    a = wt.make_a_eps(3, T, 0.0125)
    lam = cn.lambda_const(3, T)
    calls = []
    call = cf.PeriodicCoefficient.__call__

    def counted(self, x):
        calls.append(np.size(x))
        return call(self, x)

    monkeypatch.setattr(cf.PeriodicCoefficient, "__call__", counted)
    cf.l1_distances(a, lam, [(0.0, T)])
    assert 1 <= len(calls) <= 2


def mpmath_l1_distance(f, c, s, e, breaks):
    """The integral of |f - c| over [s, e] by mpmath.quad at 30 digits, split
    at the T-periodic breaks of a step f, or else at every sign change of
    f - c on a fine grid, each located by mpmath.findroot."""
    with mpmath.workdps(30):
        g = lambda x: f(x) - c  # noqa: E731
        points = [s, e] + [k * T + b for k in range(-1, 3) for b in breaks
                           if s < k * T + b < e]
        if not breaks:
            xs = np.linspace(s, e, 1001)
            points += [mpmath.findroot(g, (p, q), solver="anderson")
                       for p, q in zip(xs[:-1], xs[1:]) if g(p) * g(q) < 0]
        return float(mpmath.quad(lambda x: abs(g(x)),
                                 sorted(map(mpmath.mpf, points))))


@st.composite
def steps_and_trig(draw):
    """(a, f, breaks): a coefficient, the same function for mpmath and its
    breaks in [0, T), for a step of 2-5 plateaus; or a trigonometric
    polynomial of 1-3 harmonics, with no breaks."""
    values = st.floats(min_value=-3, max_value=3)
    if draw(st.booleans()):
        k = draw(st.integers(min_value=2, max_value=5))
        cuts = sorted(draw(st.lists(st.floats(min_value=0.05, max_value=T - 0.05),
                                    min_size=k - 1, max_size=k - 1, unique=True)))
        b = [0.0, *cuts, T]
        vals = draw(st.lists(values, min_size=k, max_size=k))

        def f(x):
            r = x % T
            return mpmath.mpf(vals[max(i for i in range(k) if b[i] <= r)])
        return cf.step_function(T, list(zip(b[:-1], b[1:], vals))), f, b[:-1]
    n = draw(st.integers(min_value=1, max_value=3))
    cos = draw(st.lists(values, min_size=n + 1, max_size=n + 1))
    sin = draw(st.lists(values, min_size=n, max_size=n))
    terms = [ex.Const(cos[0])]
    for k in range(1, n + 1):
        kx = ex.Mul(ex.Const(float(k)), ex.Var("x"))
        terms += [ex.Mul(ex.Const(cos[k]), ex.Cos(kx)),
                  ex.Mul(ex.Const(sin[k - 1]), ex.Sin(kx))]

    def f(x):
        return cos[0] + sum(cos[k] * mpmath.cos(k * x) + sin[k - 1] * mpmath.sin(k * x)
                            for k in range(1, n + 1))
    return cf.from_expression(functools.reduce(ex.Add, terms), T), f, []


@given(steps_and_trig(), st.floats(min_value=-3, max_value=3),
       st.floats(min_value=-T, max_value=T), st.floats(min_value=0.1, max_value=2 * T))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_l1_distance_matches_mpmath(coefficient, c, s, width):
    # a step's kinks are its breaks, which cut the cells; a trigonometric
    # polynomial's are where it crosses c, which the refinement must find
    a, f, breaks = coefficient
    exact = mpmath_l1_distance(f, c, s, s + width, breaks)
    assert cf.l1_distance(a, c, (s, s + width)) == pytest.approx(
        exact, abs=config.current().quad)


def test_constants_found_once_and_not_a_field():
    # one entry per piece, its value or None; equality, hashing and repr
    # read the pieces alone
    a = cf.PeriodicCoefficient(T, ((0.0, 1.0, ex.parse("2*3 - 0.5")),
                                   (1.0, T, ex.parse("1 + cos(x)"))))
    assert a.constants == (5.5, None)
    b = cf.PeriodicCoefficient(T, a.pieces)
    assert a == b and hash(a) == hash(b)
    assert "constants" not in repr(a)
    assert [f.name for f in dataclasses.fields(a)] == [
        "period", "pieces", "removable_points"]
    assert cf.step_function(T, [(0.0, 2.0, 1.5), (2.0, T, -0.25)]
                            ).constants == (1.5, -0.25)
