import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillstab import coeff as cf
from hillstab import expr as ex
from hillstab import witness as wt
from hillstab.errors import NonFiniteValue, ParseError

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
            y = p % a.period + cf.REMOVABLE_EPS
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
