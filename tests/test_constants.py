import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillstab import constants as cn
from hillstab.errors import DegenerateDenominator, DomainError

T = 2 * math.pi


def test_lambda_values():
    assert cn.lambda_const(1, T) == pytest.approx(1.0, abs=1e-12)
    assert cn.lambda_const(2, T) == pytest.approx(4.0, abs=1e-12)
    assert cn.lambda_const(1, math.pi) == pytest.approx(4.0, abs=1e-12)
    assert cn.lambda_anti_const(1, T) == pytest.approx(0.25, abs=1e-12)
    assert cn.lambda_anti_const(2, T) == pytest.approx(2.25, abs=1e-12)


def test_beta1_values():
    assert cn.beta1(1, T) == pytest.approx(8.0, abs=1e-12)
    assert cn.beta1(2, T) == pytest.approx(24 / math.sqrt(3), abs=1e-12)
    assert cn.beta1(0, T) == pytest.approx(16 / T, abs=1e-12)


def test_gamma1_values():
    assert cn.gamma1(1, T) == pytest.approx(T + 8.0, abs=1e-12)
    assert cn.gamma1(2, T) == pytest.approx(8 * math.pi + 24 / math.sqrt(3),
                                            abs=1e-12)


def test_beta1_anti_values():
    assert cn.beta1_anti(1, T) == pytest.approx(3 * math.sqrt(3), abs=1e-12)
    assert cn.beta1_anti(0, T) == pytest.approx(4 / T, abs=1e-12)
    assert cn.beta1_anti(2, T) == pytest.approx(
        15 / math.tan(3 * math.pi / 10), abs=1e-12)


def test_gamma1_anti_values():
    assert cn.gamma1_anti(1, T) == pytest.approx(
        math.pi / 2 + 3 * math.sqrt(3), abs=1e-12)
    vals = [cn.gamma1_anti(n, T) for n in range(1, 51)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_zhang_below_gamma1():
    for n in range(1, 101):
        assert cn.zhang(n, T) < cn.gamma1(n, T)


def test_zhang_asymptotics():
    n = 1000
    ratio = T * cn.gamma1(n, T) / (16 * (n + 1) ** 2)
    assert abs(ratio - math.pi ** 2 / 4) < 0.025


def test_beta1_zero_limit():
    # real-n extension only probes the n -> 0+ limit; the series expansion
    # gives beta1(n) - 16/T = (32 n + O(n^2))/T, so 33n/T envelopes it
    for k in range(3, 12):
        n = 1.0 / 2 ** k
        assert abs(cn.beta1(n, T) - 16 / T) <= 33 * n / T


def test_scaling_in_T():
    for c in (2.0, 0.5, 7.3):
        for n in (1, 2, 5):
            assert cn.beta1(n, c * T) == pytest.approx(cn.beta1(n, T) / c,
                                                       rel=1e-12)
            assert cn.beta1_anti(n, c * T) == pytest.approx(
                cn.beta1_anti(n, T) / c, rel=1e-12)
            assert cn.zhang(n, c * T) == pytest.approx(cn.zhang(n, T) / c,
                                                       rel=1e-12)


def test_zone_rhs_identities():
    # the zone bound collapses to the sharp constants at the double eigenvalues
    for n in (1, 2, 3, 5):
        lam = cn.lambda_const(n, T)
        assert cn.zone_rhs(lam, 2 * n + 1, T) == pytest.approx(
            cn.gamma1(n, T), abs=1e-12)
        lat = cn.lambda_anti_const(n, T)
        assert cn.zone_rhs(lat, 2 * n, T) == pytest.approx(
            cn.gamma1_anti(n, T), abs=1e-12)


def test_zone_rhs_domain():
    with pytest.raises(DomainError):
        cn.zone_rhs(-1.0, 1, T)
    with pytest.raises(DomainError):
        # cot argument hits pi
        cn.zone_rhs((4 * math.pi / T) ** 2 * 1.01, 0, T)


def test_zone_rhs_increasing_in_k():
    # increasing on the admissible bracket (p^2 pi^2/T^2, (p+1)^2 pi^2/T^2]
    ks = np.linspace(0.26, 1.0, 40)
    vals = [cn.zone_rhs(float(k), 1, T) for k in ks]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_constants_table():
    rows = cn.constants_table(3, T)
    assert [r.n for r in rows] == [0, 1, 2, 3]
    assert rows[0].beta1 == pytest.approx(16 / T)
    assert rows[0].zhang is None
    for r in rows[1:]:
        assert r.gamma1 == pytest.approx(r.T * r.lambda_2n_minus_1 + r.beta1)
        assert r.zhang < r.gamma1


def test_j_min_values():
    assert cn.j_min(1.0, 0.0, math.pi / 4) == pytest.approx(1.0, abs=1e-12)
    b = 1.0
    M = math.pi ** 2 / 4
    assert cn.j_min(M, 0.0, b) == pytest.approx(0.0, abs=1e-9)
    assert cn.j_min(1e-8, 0.0, 1.0) == pytest.approx(1.0, abs=1e-6)


def test_j_min_domain():
    with pytest.raises(DomainError):
        cn.j_min(10.0, 0.0, 1.0)  # above pi^2/4
    with pytest.raises(DomainError):
        cn.j_min(1.0, 1.0, 0.0)


def test_j_functional_extremal_sine():
    M, a, b = 1.0, 0.0, math.pi / 4
    xs = np.linspace(a, b, 8001)
    u = np.sin(np.sqrt(M) * (xs - a)) / math.sin(math.sqrt(M) * (b - a))
    du = np.sqrt(M) * np.cos(np.sqrt(M) * (xs - a)) / math.sin(
        math.sqrt(M) * (b - a))
    assert cn.j_functional(xs, u, M, du) == pytest.approx(
        cn.j_min(M, a, b), abs=1e-6)


def test_j_functional_linear_small_M():
    a, b = 0.0, 2.0
    xs = np.linspace(a, b, 4001)
    u = (xs - a) / (b - a)
    du = np.full_like(xs, 1.0 / (b - a))
    assert cn.j_functional(xs, u, 1e-12, du) == pytest.approx(
        1.0 / (b - a), abs=1e-6)


def test_j_functional_denominator_guard():
    xs = np.linspace(0.0, 1.0, 101)
    u = np.sin(math.pi * xs)  # vanishes at both ends
    with pytest.raises(DegenerateDenominator):
        cn.j_functional(xs, u, 0.5)
    with pytest.raises(DomainError):
        cn.j_functional(xs, u + 1.0, 0.5)  # u(a) != 0


def test_j_functional_simpson_exact_on_cubics():
    # Simpson's rule is exact on cubics: u = x on [0, 2] has int u'^2 = 2
    # and int u^2 = 8/3, so J = (2 - M 8/3) / 4 on any odd grid
    for n in (3, 5, 101):
        xs = np.linspace(0.0, 2.0, n)
        assert cn.j_functional(xs, xs, 0.5, np.ones(n)) == pytest.approx(
            (2.0 - 0.5 * 8.0 / 3.0) / 4.0, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 100])
def test_j_functional_needs_an_odd_grid(n):
    xs = np.linspace(0.0, 1.0, n)
    with pytest.raises(DomainError):
        cn.j_functional(xs, xs, 0.5)


@given(st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=0.2, max_value=0.7),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_j_functional_above_j_min(M, width, seed):
    """Random admissible test functions never beat the closed-form infimum."""
    a, b = 0.0, width
    if M > math.pi ** 2 / (4 * width ** 2):
        M = math.pi ** 2 / (4 * width ** 2)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, size=4)
    xs = np.linspace(a, b, 4001)
    t = xs - a
    u = coeffs[0] * t + coeffs[1] * t ** 2 + coeffs[2] * t ** 3 \
        + coeffs[3] * t ** 4
    du = coeffs[0] + 2 * coeffs[1] * t + 3 * coeffs[2] * t ** 2 \
        + 4 * coeffs[3] * t ** 3
    if u[-1] ** 2 < 1e-6:
        return
    assert cn.j_functional(xs, u, M, du) >= cn.j_min(M, a, b) - 1e-8
