import math
import sys

import numpy as np
import pytest

from hillstab import coeff as cf
from hillstab import expr as ex
from hillstab import floquet as fq
from hillstab import witness as wt
from hillstab._dop853 import Interpolant
from hillstab.errors import (DomainError, IntegrationFailure, NonFiniteValue,
                             NotAnEigenvalue, RootSearchFailure)
from hillstab.settings import current, use

T = 2 * math.pi


def test_transfer_matrix_det_one():
    a = cf.step_function(T, [(0.0, 2.0, 1.3), (2.0, 5.0, -0.7),
                             (5.0, T, 2.2)])
    for mu in (-1.0, 0.0, 0.5, 3.0):
        M = fq.monodromy(a, mu)
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-10)


def test_discriminant_constant_coefficient():
    # a == c: Delta(mu) = 2 cos(sqrt(mu + c) T) for mu + c > 0
    a = cf.constant(0.7, T)
    for mu in (0.1, 1.0, 2.5):
        q = mu + 0.7
        assert fq.discriminant(a, mu) == pytest.approx(
            2 * math.cos(math.sqrt(q) * T), abs=1e-9)
    # hyperbolic branch
    mu = -1.5
    q = mu + 0.7
    assert fq.discriminant(a, mu) == pytest.approx(
        2 * math.cosh(math.sqrt(-q) * T), abs=1e-9)


def test_monodromy_hyperbolic_block_overflow():
    # cosh(sqrt(-q) L) is a float up to acosh(max float) and no further
    largest = math.acosh(sys.float_info.max)
    assert np.all(np.isfinite(fq._const_block(-1.0, largest)))
    with pytest.raises(NonFiniteValue, match="overflows"):
        fq._const_block(-1.0, math.nextafter(largest, math.inf))
    # the constant -1e6 over 2 pi: sqrt(-q) T is about 6283; over 0.71
    # cosh(710) is a float and 1000 sinh(710) is not; the two steps are
    # floats near e^400 whose product is not, and oscillatory steps after
    # them meet an overflowed state
    steps = [(0.0, 0.4, -1e6), (0.4, 0.8, -1.0001e6)]
    for a in (cf.constant(-1e6, T), cf.constant(-1e6, 0.71),
              cf.step_function(0.8, steps),
              cf.step_function(1.4, steps + [(0.8, 1.0, 5.0), (1.0, 1.2, 7.0),
                                             (1.2, 1.4, 3.0)])):
        with pytest.raises(NonFiniteValue, match="overflows"):
            fq.monodromy(a, 0.0)
        with pytest.raises(NonFiniteValue, match="overflows"):
            fq.edge_count(a, 0.0)


def const_block_reference(q: float, L: float) -> np.ndarray:
    """The transfer matrix of u'' + q u = 0 over a length L by the scalar
    formula of math's cos, sin, cosh and sinh, raising NonFiniteValue when
    q or sqrt(|q|) L is not finite or cosh(sqrt(-q) L) overflows."""
    if not math.isfinite(q):
        raise NonFiniteValue("mu + a is not finite")
    if q > 0:
        w = math.sqrt(q)
        if not math.isfinite(w * L):
            raise NonFiniteValue("sqrt(q) L is not finite")
        c, s = math.cos(w * L), math.sin(w * L)
        return np.array([[c, s / w], [-w * s, c]])
    if q < 0:
        w = math.sqrt(-q)
        try:
            ch, sh = math.cosh(w * L), math.sinh(w * L)
        except OverflowError:
            raise NonFiniteValue("cosh(sqrt(-q) L) overflows") from None
        return np.array([[ch, sh / w], [w * sh, ch]])
    return np.array([[1.0, L], [0.0, 1.0]])


def reference_or_inf(q: float, L: float) -> np.ndarray:
    try:
        return const_block_reference(q, L)
    except NonFiniteValue:
        return np.full((2, 2), math.inf)


SPECIAL_Q = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, -1.0, 1.0, -1e6,
             1.7e308, -1.7e308, math.inf, -math.inf, math.nan]


def test_const_blocks_match_const_block():
    # the closed form equals the scalar formula bit for bit, with inf where
    # that raises: q not finite, or cosh overflowing past about 710
    q = np.concatenate([np.linspace(-50.0, 50.0, 20005), SPECIAL_Q])
    for L in (0.3, 1.0, 2.0, T, math.acosh(sys.float_info.max) / 50):
        blocks = fq._const_blocks(q, L)
        assert blocks.shape == (len(q), 2, 2)
        for x, got in zip(q.tolist(), blocks):
            want = reference_or_inf(x, L)
            assert np.array_equal(got, want), (x, L)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (x, L)


def test_const_blocks_over_lengths():
    # at a float q over an array of lengths, as a constant piece's dense
    # states read it, up to and past the lengths where cosh overflows
    largest = math.acosh(sys.float_info.max)
    edges = [largest, largest / 1000, largest / math.sqrt(1.7e308)]
    L = np.concatenate([np.linspace(0.0, largest, 2001), edges,
                        [math.nextafter(e, d) for e in edges
                         for d in (0.0, math.inf)]])
    for x in SPECIAL_Q:
        blocks = fq._const_blocks(x, L)
        assert blocks.shape == (len(L), 2, 2)
        for length, got in zip(L.tolist(), blocks):
            want = reference_or_inf(x, length)
            assert np.array_equal(got, want), (x, length)
            assert np.array_equal(np.signbit(got), np.signbit(want)), \
                (x, length)
    # q and L broadcast against each other
    grid = fq._const_blocks(np.array(SPECIAL_Q)[:, None], L[None, :])
    assert grid.shape == (len(SPECIAL_Q), len(L), 2, 2)
    for row, x in zip(grid, SPECIAL_Q):
        assert np.array_equal(row, fq._const_blocks(x, L))


@pytest.mark.parametrize("L", [0.3, T, math.acosh(sys.float_info.max) / 1000])
def test_const_block_raises_where_the_block_is_inf(L):
    # the float block is the closed form's, and raises where the scalar
    # formula does, naming the same cause
    for x in SPECIAL_Q:
        try:
            want = const_block_reference(x, L)
        except NonFiniteValue as err:
            with pytest.raises(NonFiniteValue) as got:
                fq._const_block(x, L)
            assert str(got.value).startswith(str(err)), (x, L)
            continue
        got = fq._const_block(x, L)
        assert np.array_equal(got, want), (x, L)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (x, L)


README_TWO_PIECE = cf.PeriodicCoefficient.from_dict({"period": T, "pieces": [
    {"from": 0.0, "to": 2.0, "expr": "1.5"},
    {"from": 2.0, "to": T, "expr": "0.5 + 0.3*cos(x)"}]})


@pytest.mark.parametrize("a, mus", [
    (cf.step_function(T, [(0.0, 1.1, 1.3), (1.1, 2.5, -0.7), (2.5, 4.0, 0.0),
                          (4.0, T, 2.2)]), np.linspace(-4.0, 60.0, 401)),
    (README_TWO_PIECE, np.linspace(-1.0, 12.0, 27)),
    (cf.from_expression("1.2+0.4*cos(2*x)", math.pi),
     np.linspace(-2.0, 40.0, 21)),
], ids=["4-plateau step", "README two-piece", "mathieu"])
def test_monodromy_over_mu_array(a, mus):
    # each matrix is the one-mu pass's product, bit for bit
    M = fq.monodromy(a, mus)
    assert M.shape == (len(mus), 2, 2)
    for mu, got in zip(mus.tolist(), M):
        assert np.array_equal(got, fq._product(fq._propagators(a, mu, False),
                                               mu))
    d = fq.discriminant(a, mus)
    assert isinstance(d, np.ndarray) and d.shape == mus.shape
    assert d.tolist() == [fq.discriminant(a, mu) for mu in mus.tolist()]
    assert type(fq.discriminant(a, float(mus[0]))) is float
    assert fq.monodromy(a, float(mus[0])).shape == (2, 2)


SMOOTH_THEN_STEP = cf.PeriodicCoefficient.from_dict({"period": T, "pieces": [
    {"from": 0.0, "to": 3.0, "expr": "0.5+0.3*cos(x)"},
    {"from": 3.0, "to": T, "expr": "2"}]})


# two hyperbolic steps whose blocks are floats near e^400 and whose product
# is not, at mu near 0, then an ODE piece and a constant one
STEPS_THEN_SMOOTH = cf.PeriodicCoefficient.from_dict({"period": T, "pieces": [
    {"from": 0.0, "to": 0.4, "expr": "-1e6"},
    {"from": 0.4, "to": 0.8, "expr": "-1.0001e6"},
    {"from": 0.8, "to": 3.0, "expr": "0.5+0.3*cos(x)"},
    {"from": 3.0, "to": T, "expr": "2"}]})


@pytest.mark.parametrize("a, mus", [
    # the ODE piece exhausts the budget at mu = 400 before mu = -1e7 makes
    # the last block overflow, and at -1e7 before that block is reached
    (SMOOTH_THEN_STEP, [0.5, 400.0, -1e7]),
    (SMOOTH_THEN_STEP, [0.5, -1e7, 400.0]),
    # at -1e6 the first piece's block overflows before the budget runs out
    (cf.PeriodicCoefficient.from_dict({"period": T, "pieces": [
        {"from": 0.0, "to": 3.0, "expr": "2"},
        {"from": 3.0, "to": T, "expr": "0.5+0.3*cos(x)"}]}), [0.5, -1e6]),
    # the product overflows at 0 before the integration fails at 400, and
    # the integration at 400 fails before its product is formed
    (STEPS_THEN_SMOOTH, [0.0, 400.0]),
    (STEPS_THEN_SMOOTH, [400.0, 0.0]),
    # q = inf on the first piece at 1e308, but at -1 the second overflows
    (cf.step_function(T, [(0.0, 1.0, 1.7e308), (1.0, T, -1e6)]),
     [-1.0, 5e307, 1e308]),
], ids=["budget before block", "budget inside block", "block first",
        "product first", "budget first", "sweep order"])
def test_monodromy_over_mu_array_raises_first_error(a, mus):
    # the error is the one of the first mu, in order, whose one-mu pass fails
    def first_error():
        for mu in mus:
            try:
                fq._product(fq._propagators(a, mu, False), mu)
            except (NonFiniteValue, IntegrationFailure) as err:
                return err
    with use(ode_budget=300):
        want = first_error()
        assert want is not None
        with pytest.raises(type(want)) as got:
            fq.monodromy(a, np.array(mus))
    assert str(got.value) == str(want)


@pytest.mark.parametrize("a", [
    cf.step_function(T, [(0.0, 1.1, 1.3), (1.1, T, -0.7)]),
    README_TWO_PIECE,
], ids=["step", "with an ODE piece"])
def test_monodromy_over_mu_array_shapes(a):
    # an empty 1-D array gives empty results; an array of 2 or more
    # dimensions is refused, on both kinds of coefficient
    assert fq.monodromy(a, np.array([])).shape == (0, 2, 2)
    assert fq.discriminant(a, np.array([])).shape == (0,)
    for f in (fq.monodromy, fq.discriminant):
        with pytest.raises(DomainError, match="1-D"):
            f(a, np.zeros((2, 2)))
        with pytest.raises(DomainError, match="1-D"):
            f(a, np.zeros((1, 3, 1)))


@pytest.mark.parametrize("a, mus", [
    (cf.from_expression("1.2+0.4*cos(2*x)", math.pi),
     np.linspace(-2.0, 40.0, 17)),
    (README_TWO_PIECE, np.linspace(-1.0, 12.0, 17)),
    # twelve pieces, eight of them ODE pieces stacked in one integration
    (wt.make_a_eps(1, T, 0.35), np.linspace(-4.0, 10.0, 17)),
], ids=["mathieu", "README two-piece", "a_eps stacked"])
def test_batched_passes_agree_with_one_mu_passes(a, mus):
    # one pass over all mus gives, column by column, the edge count of the
    # one-mu pass, and its Delta and Delta' within 1e-10 relative
    sups, ode = fq._bounds(a)[1], current().ode
    E, M = fq._edge_count(a, mus, sups)
    d, dd = fq._slope(a, mus, ode)
    assert E.shape == d.shape == dd.shape == mus.shape
    for j, mu in enumerate(mus.tolist()):
        E1, M1 = fq._edge_count(a, mu, sups)
        d1, dd1 = fq._slope(a, mu, ode)
        assert E[j] == E1, mu
        for got, want in ((np.trace(M[j]), np.trace(M1)), (d[j], d1),
                          (dd[j], dd1)):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), mu


@pytest.mark.parametrize("a, mus, bad", [
    # at -1e6 the ODE piece's solution overflows
    (README_TWO_PIECE, [0.5, -1e6, 2.0, -2e6], -1e6),
    # below about 2e5 the product of two hyperbolic steps overflows
    (cf.step_function(0.8, [(0.0, 0.4, -1e6), (0.4, 0.8, -1.0001e6)]),
     [9e5, 0.0, 9.5e5, -1.0], 0.0),
], ids=["integration", "product"])
def test_batch_raises_the_one_mu_error(a, mus, bad):
    # a batch with a failing column raises the error of its first failing
    # mu's one-mu pass
    sups, ode = fq._bounds(a)[1], current().ode
    loose = math.sqrt(ode)
    for batch, one in (
            (lambda: fq._probe(a, np.array(mus), sups, loose),
             lambda: fq._edge_count(a, bad, sups, loose)),
            (lambda: fq._by_mu(fq._slope, a, np.array(mus), ode),
             lambda: fq._slope(a, bad, ode))):
        with pytest.raises(NonFiniteValue) as want:
            one()
        with pytest.raises(NonFiniteValue) as got:
            batch()
        assert str(got.value) == str(want.value)


def test_discriminant_smooth_vs_step_consistency():
    # same coefficient entered as one expression piece vs many constants
    a_expr = cf.from_expression("1 + 0*x", T)
    a_const = cf.constant(1.0, T)
    for mu in (-0.5, 0.3, 2.0):
        assert fq.discriminant(a_expr, mu) == pytest.approx(
            fq.discriminant(a_const, mu), abs=1e-9)


def test_periodic_eigenvalues_zero_coefficient():
    s = fq.periodic_eigenvalues(cf.constant(0.0, T), 7)
    expected = [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]
    np.testing.assert_allclose(s.periodic_values(), expected, atol=1e-8)
    mults = [e.multiplicity for e in s.periodic]
    assert mults[0] == 1 and all(m == 2 for m in mults[1:])


def test_antiperiodic_eigenvalues_zero_coefficient():
    s = fq.antiperiodic_eigenvalues(cf.constant(0.0, T), 6)
    expected = [0.25, 0.25, 2.25, 2.25, 6.25, 6.25]
    np.testing.assert_allclose(s.antiperiodic_values(), expected, atol=1e-8)


def test_constant_shift_covariance():
    a0 = cf.constant(0.0, T)
    a1 = cf.constant(1.7, T)
    s0 = fq.periodic_eigenvalues(a0, 5).periodic_values()
    s1 = fq.periodic_eigenvalues(a1, 5).periodic_values()
    np.testing.assert_allclose(np.array(s1) + 1.7, s0, atol=1e-8)


def test_eigenvalues_split_for_generic_coefficient():
    a = cf.step_function(T, [(0.0, 2.0, 0.0), (2.0, T, 2.0)])
    s = fq.spectrum(a, 5, 4)
    ok, msg = fq.check_interlacing(s)
    assert ok, msg
    pv = s.periodic_values()
    # generic coefficient: double eigenvalues split
    assert pv[1] < pv[2] - 1e-6


def passes(monkeypatch):
    """The mu of every monodromy pass, edge counts and discriminants alike."""
    calls = []
    propagators = fq._propagators

    def counted(a, mu, *args, **kwargs):
        calls.append(mu)
        return propagators(a, mu, *args, **kwargs)

    monkeypatch.setattr(fq, "_propagators", counted)
    return calls


def test_spectrum_is_one_search(monkeypatch):
    # both kinds come from one search: the same entries as the two
    # single-kind searches, whatever else is asked for, for fewer passes
    a = cf.step_function(T, [(0.0, 2.0, 0.0), (2.0, T, 2.0)])
    calls = passes(monkeypatch)
    s = fq.spectrum(a, 5, 4)
    n_spectrum = len(calls)
    p = fq.periodic_eigenvalues(a, 5)
    ap = fq.antiperiodic_eigenvalues(a, 4)
    assert s.periodic == p.periodic
    assert s.antiperiodic == ap.antiperiodic
    assert n_spectrum < len(calls) - n_spectrum


MATHIEU = cf.from_expression("1.2+0.4*cos(2*x)", math.pi)
SMOOTH = [
    MATHIEU,
    cf.from_expression("0.5+0.3*cos(x)", T),
    cf.from_expression("1.2+0.4*cos(2*x)+0.15*cos(4*x+2.5)", math.pi),
    cf.PeriodicCoefficient.from_dict({"period": T, "pieces": [
        {"from": 0.0, "to": 2.0, "expr": "1.5"},
        {"from": 2.0, "to": T, "expr": "0.5+0.3*cos(x)"}]}),
]
SMOOTH_IDS = ["mathieu", "0.5+0.3cos(x)", "trig", "step and cos"]


def central_difference(a, mu, h=1e-5):
    return (fq.discriminant(a, mu + h) - fq.discriminant(a, mu - h)) / (2 * h)


@pytest.mark.parametrize("a, mus", [
    # q = mu + a < 0 on one piece or all three
    (cf.step_function(T, [(0.0, 2.0, 1.3), (2.0, 5.0, -0.7), (5.0, T, 2.2)]),
     [-3.0, -1.5, 0.3, 4.0, 11.7]),
    (MATHIEU, [-2.0, -0.5, 1.0, 3.0, 10.0]),
    # |q| T^2 on both sides of 1/2, where the block's slope becomes a series
    (cf.constant(0.3, T), [q / T ** 2 - 0.3 for q in
                           (-0.6, -0.4, -1e-3, 0.0, 1e-3, 0.4, 0.6, 3.0)]),
], ids=["steps", "mathieu", "constant"])
def test_slope_against_central_difference(a, mus):
    for mu in mus:
        d, dd = fq._slope(a, mu, current().ode)
        assert dd == pytest.approx(central_difference(a, mu), rel=1e-6,
                                   abs=1e-6)
        if all(ex.constant_value(p) is not None for _, _, p in a.pieces):
            assert d == fq.discriminant(a, mu)  # the same block product
        else:
            assert d == pytest.approx(fq.discriminant(a, mu), abs=1e-9)


def test_constant_slope_continuous_at_series_switch():
    L = 2.0
    for q in (0.5 / L ** 2, -0.5 / L ** 2):
        below, above = (fq._const_slope(x, L, fq._const_block(x, L))
                        for x in (q * (1 - 1e-14), q * (1 + 1e-14)))
        assert np.max(np.abs(below - above)) <= 1e-13 * np.max(np.abs(below))


@pytest.mark.parametrize("a", SMOOTH, ids=SMOOTH_IDS)
def test_loose_probe_counts_as_edge_count(a):
    # a probe at sqrt(ode) gives the count a pass at ode gives, on a grid
    # and 1e-5 from each edge, where it must integrate again at ode
    # and so does each mu of one pass over them all
    sups, loose = fq._bounds(a)[1], math.sqrt(current().ode)
    edges = chain(fq.spectrum(a, 3, 2))
    mus = np.concatenate([np.linspace(-2.0, 60.0, 32), edges - 1e-5,
                          edges + 1e-5])
    batch = zip(*fq._probe(a, mus, sups, loose))
    for mu, (E_batch, d_batch) in zip(mus, batch):
        [E], [d] = fq._probe(a, np.array([mu]), sups, loose)
        E_ode, d_ode = fq.edge_count(a, mu)
        assert (E, abs(d) < 2) == (E_ode, abs(d_ode) < 2), mu
        assert (E_batch, abs(d_batch) < 2) == (E_ode, abs(d_ode) < 2), mu


def hill_eigenvalues(period, fourier, anti, modes=41):
    """Oracle: eigenvalues of -u'' - a u = mu u on the modes e^(i n w x),
    w = 2 pi / T, n integer (periodic) or half-integer (antiperiodic), for
    a = sum_j fourier[j] e^(i j w x) with real fourier[j] = fourier[-j]."""
    n = np.arange(modes) - modes // 2 + 0.5 * anti
    j = np.rint(n[:, None] - n[None, :]).astype(int)
    H = np.diag((2 * math.pi / period * n) ** 2) - np.vectorize(
        lambda k: fourier.get(abs(k), 0.0))(j)
    return np.linalg.eigvalsh(H)


@pytest.mark.parametrize("a, fourier, counts, pair", [
    # lam3/lam4, 2.8e-5 apart
    (SMOOTH[1], {0: 0.5, 1: 0.15}, (5, 4), ("periodic", 3)),
    # alam3/alam4, 2.5e-4 apart
    (MATHIEU, {0: 1.2, 1: 0.2}, (3, 4), ("antiperiodic", 2)),
], ids=["0.5+0.3cos(x)", "mathieu"])
def test_narrow_gaps_against_hill_matrix(a, fourier, counts, pair):
    # every edge within 1e-8 of a Hill matrix; the narrow pair stays split,
    # as no loose pass may pick a side of a bracket inside its own error
    s = fq.spectrum(a, *counts)
    for kind, es in (("periodic", s.periodic),
                     ("antiperiodic", s.antiperiodic)):
        oracle = hill_eigenvalues(a.period, fourier, kind == "antiperiodic")
        np.testing.assert_allclose([e.value for e in es], oracle[:len(es)],
                                   rtol=0, atol=1e-8)
        assert all(e.multiplicity == 1 for e in es)
    es = getattr(s, pair[0])[pair[1]:pair[1] + 2]
    assert es[1].value - es[0].value > 1e-5


@pytest.mark.parametrize("c", [1e6, 1e9, 1e12])
def test_large_constant_double_edges(c):
    # a = c, T = 2 pi: lam0 = -c, then double edges at (m/2)^2 - c; the
    # tangency is the root of Delta' whatever the rounding of mu
    s = fq.spectrum(cf.constant(c, T), 3, 2)
    tol = max(1e-9, 4 * math.ulp(c))
    assert [(e.value, e.multiplicity) for e in s.periodic] == [
        (pytest.approx(-c, abs=tol), 1), (pytest.approx(1 - c, abs=tol), 2),
        (pytest.approx(1 - c, abs=tol), 2)]
    assert [(e.value, e.multiplicity) for e in s.antiperiodic] == [
        (pytest.approx(0.25 - c, abs=tol), 2)] * 2


def test_smooth_spectrum_rhs_calls(monkeypatch):
    # spectrum(2, 2) on the Mathieu coefficient: the search made 49 passes
    # and 18 482 right-hand-side calls before probes ran at sqrt(ode) and
    # Newton took Delta' from its own passes, and 31 passes before the four
    # edges were searched in lockstep, 9 with 2 886 calls since
    calls, rhs = passes(monkeypatch), []
    solve_ivp = fq.solve_ivp

    def counted(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        rhs.append(sol.nfev)
        return sol

    monkeypatch.setattr(fq, "solve_ivp", counted)
    fq.spectrum(MATHIEU, 2, 2)
    assert len(calls) <= 9
    assert sum(rhs) <= 3_000


def chain(s):
    """The band edges of a spectrum in increasing order, with multiplicity."""
    return np.sort(np.concatenate([s.periodic_values(),
                                   s.antiperiodic_values()]))


def expected_counts(edges, mus):
    return [int(np.sum(edges < mu)) for mu in mus]


@pytest.mark.parametrize("c", [0.0, 0.3, -1.7, 16.5])
@pytest.mark.parametrize("period", [T, math.pi])
def test_edge_count_constant(c, period):
    # a = c: the edges are (k pi / T)^2 - c, k = 0, 1, 1, 2, 2, ...; every
    # one but the first is double
    a = cf.constant(c, period)
    edges = (np.ceil(np.arange(15) / 2) * math.pi / period) ** 2 - c
    mus = np.concatenate([np.linspace(edges[0] - 3, edges[-1], 57),
                          edges + 1e-6, edges[:-1] - 1e-6])
    mus = mus[np.min(np.abs(mus[:, None] - edges), axis=1) >= 1e-6 * 0.99]
    got = [fq.edge_count(a, mu) for mu in mus]
    assert [E for E, _ in got] == expected_counts(edges, mus)
    assert all(d == fq.discriminant(a, mu) for (_, d), mu in zip(got, mus))


@pytest.mark.parametrize("c, period, count", [
    (0.0, T, 40), (1.0, T, 29), (2.0, math.pi, 29), (16.5, T, 29)])
def test_edge_count_at_double_edges(c, period, count):
    # a = c: lam_0 = -c is edge 0, and the m-th double edge (m pi / T)^2 - c
    # is edges 2m - 1 and 2m; at an edge E is a count from either side
    a = cf.constant(c, period)
    assert fq.edge_count(a, -c)[0] in (0, 1)
    got = [fq.edge_count(a, (m * math.pi / period) ** 2 - c)[0]
           for m in range(1, count + 1)]
    assert all(abs(E - 2 * m) <= 1 for m, E in enumerate(got, 1)), got


def random_steps(count):
    rng = np.random.default_rng(1101)
    for _ in range(count):
        b = np.sort(rng.uniform(0.2, T - 0.2, size=rng.integers(1, 4)))
        ends = [0.0, *b, T]
        yield cf.step_function(T, [(s, e, rng.uniform(-3.0, 4.0))
                                   for s, e in zip(ends, ends[1:])])


@pytest.mark.parametrize("a, counts", [
    *((a, (5, 4)) for a in random_steps(6)),
    (cf.from_expression("1.2+0.4*cos(2*x)", math.pi), (3, 2)),
    (cf.from_expression("0.5+0.3*cos(x)-0.4*sin(2*x)", T), (3, 2)),
])
def test_edge_count_against_spectrum(a, counts):
    # the spectrum holds every edge up to its highest: test points below it,
    # 1e-6 from each edge and spread between them
    edges = chain(fq.spectrum(a, *counts))
    rng = np.random.default_rng(7)
    mus = np.concatenate([rng.uniform(edges[0] - 2, edges[-1], 20),
                          edges + 1e-6, edges - 1e-6])
    mus = mus[(np.min(np.abs(mus[:, None] - edges), axis=1) >= 1e-6 * 0.99)
              & (mus < edges[-1])]
    assert [fq.edge_count(a, mu)[0] for mu in mus] == \
        expected_counts(edges, mus)


@pytest.mark.parametrize("mu, E", [(100.3, 21), (400.7, 41), (900.1, 61)])
def test_edge_count_steps_hold_one_zero(mu, E, monkeypatch):
    # every step of the counting pass is at most half the shortest zero
    # spacing pi / sqrt(mu + sup a), so no step holds two zeros
    solve_ivp, steps = fq.solve_ivp, []

    def recorded(*args, **kwargs):
        steps.append(kwargs["max_step"])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(fq, "solve_ivp", recorded)
    assert fq.edge_count(MATHIEU, mu)[0] == E
    assert len(steps) == 1
    assert steps[0] <= 0.5 * math.pi / math.sqrt(mu + 1.6)
    edges = np.concatenate([hill_eigenvalues(math.pi, {0: 1.2, 1: 0.2}, anti)
                            for anti in (False, True)])
    assert int(np.sum(edges < mu)) == E


def recorded_solves(monkeypatch):
    """(kwargs, right-hand-side calls) of every solve_ivp call in floquet."""
    solve_ivp, solves = fq.solve_ivp, []

    def recorded(fun, *args, **kwargs):
        calls = [0]

        def counted(x, y):
            calls[0] += 1
            return fun(x, y)

        solves.append((kwargs, calls))
        return solve_ivp(counted, *args, **kwargs)

    monkeypatch.setattr(fq, "solve_ivp", recorded)
    return solves


@pytest.mark.parametrize("mu, E", [(0.3, 6370), (5.7, 6376), (50.2, 6392)])
def test_edge_count_tall_constant_piece(mu, E, monkeypatch):
    # a constant piece of 1e8 is counted in closed form: it leaves the step
    # of the ODE piece beside it to that piece's own sup, 1.1
    a = cf.PeriodicCoefficient.from_dict({"period": T, "pieces": [
        {"from": 0.0, "to": 1.0, "expr": "1e8"},
        {"from": 1.0, "to": T, "expr": "1+0.1*cos(x)"}]})
    solves = recorded_solves(monkeypatch)
    assert fq.edge_count(a, mu)[0] == E
    [(kwargs, calls)] = solves
    assert kwargs["max_step"] >= min((T - 1.0) / 16,
                                     0.5 * math.pi / math.sqrt(mu + 1.1))
    assert not kwargs["dense_output"] and calls[0] <= 3000


@pytest.mark.parametrize("mu, E", [(0.3, 75), (5.7, 80), (50.2, 96)])
def test_edge_count_tall_narrow_peak(mu, E, monkeypatch):
    # a peak of 1e5 and width about 0.1 would cap the whole piece's steps at
    # 0.005; past _CAPPED such steps the pass takes DOP853's own steps and
    # reads the interpolant at points that far apart, in one integration
    a = cf.from_expression("1+1e5*cos(0.5*x)^400", T)
    solves = recorded_solves(monkeypatch)
    assert fq.edge_count(a, mu)[0] == E
    [(kwargs, calls)] = solves
    assert kwargs["dense_output"] and kwargs["max_step"] == T / 16
    assert calls[0] <= 15000


def test_witness_spectrum_pinned(monkeypatch):
    # the a_eps witness: a simple lam0 and two double edges
    a = wt.make_a_eps(1, T, 0.35)
    calls = passes(monkeypatch)
    s = fq.spectrum(a, 3, 2)
    assert len(calls) <= 11  # 31 before the edges were searched in lockstep
    assert [e.multiplicity for e in s.periodic] == [1, 2, 2]
    assert [e.multiplicity for e in s.antiperiodic] == [2, 2]
    np.testing.assert_allclose(
        s.periodic_values(), [-2.805778343, -1.878800706, -1.878800706],
        rtol=0, atol=1e-9)
    np.testing.assert_allclose(
        s.antiperiodic_values(), [-2.570689511, -2.570689511], rtol=0,
        atol=1e-9)


def test_chain_position_one_to_one():
    # lam_0..lam_5 and alam_1..alam_6 fill the first 12 places of the chain
    places = [fq.chain_position("periodic", j) for j in range(6)] + \
        [fq.chain_position("antiperiodic", j) for j in range(1, 7)]
    assert sorted(places) == list(range(12))
    assert places[:3] == [0, 3, 4] and places[6:9] == [1, 2, 5]


def test_band_narrower_than_rounding():
    # a deep well: band 0 is narrower than one ulp at lam0, so no count can
    # part lam0 from alam1, and each is refined where it is
    a = cf.step_function(T, [(0.0, 1.0, 60.0), (1.0, T, -3.0)])
    s = fq.spectrum(a, 2, 1)
    assert s.periodic[0].value == pytest.approx(-53.747069047529, abs=1e-9)
    assert s.antiperiodic[0].value == pytest.approx(s.periodic[0].value,
                                                    abs=1e-13)
    assert fq.check_interlacing(s)[0]


def test_interlacing_random_steps():
    rng = np.random.default_rng(7)
    for _ in range(5):
        b = np.sort(rng.uniform(0.5, T - 0.5, size=2))
        vals = rng.uniform(-1.0, 3.0, size=3)
        a = cf.step_function(T, [(0.0, b[0], vals[0]), (b[0], b[1], vals[1]),
                                 (b[1], T, vals[2])])
        s = fq.spectrum(a, 5, 4)
        ok, msg = fq.check_interlacing(s)
        assert ok, msg


def test_classify_verdicts():
    a = cf.constant(0.0, T)
    assert fq.classify(a, 0.5).kind == "Stable"
    assert fq.classify(a, -0.5).kind == "Unstable"
    assert fq.classify(a, 0.5).zone_index == 1
    assert fq.classify(a, 1.5).zone_index == 2
    assert fq.classify(a, 2.5).kind == "Stable"
    v = fq.classify(a, 0.0)
    assert v.kind == "BoundaryUnstable"  # mu = lambda_0
    v = fq.classify(a, 1.0)
    assert v.kind == "BoundaryStable"  # coincident pair: coexistence


def test_classify_band_edge_without_spectrum():
    # at a band edge the witness pair is the one at mu, found from the
    # count of edges below mu
    a = cf.constant(0.0, T)
    v = fq.classify(a, 25.0)
    assert v.kind == "BoundaryStable"
    assert [(e.index, e.value) for e in v.witness] == \
        [(9, pytest.approx(25.0, abs=1e-8)), (10, pytest.approx(25.0, abs=1e-8))]
    a = cf.step_function(T, [(0.0, 2.0, 0.0), (2.0, T, 2.0)])
    lam = fq.periodic_eigenvalues(a, 13).periodic
    v = fq.classify(a, lam[11].value)
    assert v.kind == "BoundaryUnstable"
    assert v.witness == (lam[11], lam[12])
    # band 11 lies between edges 22 and 23
    edges = chain(fq.spectrum(a, 13, 12))
    v = fq.classify(a, 0.5 * (edges[22] + edges[23]))
    assert (v.kind, v.zone_index) == ("Stable", 11)


def test_classify_discriminant_reported():
    a = cf.constant(0.0, T)
    v = fq.classify(a, 0.5)
    assert abs(v.discriminant) < 2


def test_eigenfunction_periodic():
    a = cf.constant(4.0, T)
    traj = fq.eigenfunction(a, 0.0, "periodic")
    xs = np.linspace(0, T, 200)
    u = traj.state(xs)[0]
    assert np.max(np.abs(u)) > 1e-3
    np.testing.assert_allclose(traj.state(0.0), traj.state(T), rtol=0,
                               atol=1e-7)


def test_eigenfunction_antiperiodic():
    a = cf.constant(0.25, T)
    traj = fq.eigenfunction(a, 0.0, "antiperiodic")
    np.testing.assert_allclose(traj.state(0.0), -traj.state(T), rtol=0,
                               atol=1e-7)


@pytest.mark.parametrize("a", [
    cf.from_expression("0.5+0.3*cos(x)", T),
    cf.PeriodicCoefficient.from_dict({"period": T, "pieces": [
        {"from": 0.0, "to": 2.0, "expr": "1.5"},
        {"from": 2.0, "to": 4.0, "expr": "0.5+0.3*cos(x)"},
        {"from": 4.0, "to": T, "expr": "-0.5"}]}),
], ids=["0.5+0.3cos(x)", "steps and cos"])
def test_eigenfunction_single_pass(a, monkeypatch):
    """eigenfunction integrates each non-constant piece once, and takes M
    from that pass: the product of its blocks is monodromy(a, mu) exactly."""
    mu = fq.periodic_eigenvalues(a, 1).periodic[0].value
    solve_ivp, propagators = fq.solve_ivp, fq._propagators
    calls, blocks = [], []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    def recorded(*args, **kwargs):
        for p in propagators(*args, **kwargs):
            blocks.append(p[2])
            yield p

    monkeypatch.setattr(fq, "solve_ivp", counted)
    monkeypatch.setattr(fq, "_propagators", recorded)
    traj = fq.eigenfunction(a, mu, "periodic")
    monkeypatch.undo()
    smooth = [(s, e) for s, e, p in a.pieces if ex.constant_value(p) is None]
    assert calls == smooth
    M = np.eye(2)
    for B in blocks:
        M = B @ M
    assert np.array_equal(M, fq.monodromy(a, mu))
    # the kernel direction returns after one period
    assert np.allclose(traj.state(T), traj.state(0.0), atol=1e-7)


def test_eigenfunction_rejects_non_eigenvalue():
    a = cf.constant(0.0, T)
    with pytest.raises(NotAnEigenvalue, match="is not a periodic eigen"):
        fq.eigenfunction(a, 0.5, "periodic")
    with pytest.raises(NotAnEigenvalue, match="is not an antiperiodic eigen"):
        fq.eigenfunction(a, 0.5, "antiperiodic")


def test_trajectory_matches_closed_form():
    a = cf.constant(4.0, T)
    traj = fq.Trajectory(a, 0.0, (0.0, 2.0))  # u = sin(2x)
    xs = np.linspace(0, T, 100)
    np.testing.assert_allclose(traj.state(xs)[0],
                               np.sin(2 * xs), atol=1e-9)


def loop_state(pieces, y0, x):
    """One point at a time from the blocks of a dense _propagators pass: the
    first piece whose end x does not pass by more than 1e-12, with x clamped
    into it; past the last, its end."""
    y = np.asarray(y0, dtype=float)
    for i, (s, e, B, columns) in enumerate(pieces):
        if x <= e + 1e-12 or i == len(pieces) - 1:
            x = min(max(x, s), e)
            if np.isscalar(columns):  # q on a constant piece
                return fq._const_block(columns, x - s) @ y
            # y of the pass's stacked interpolant at x's parameter
            interpolant, j, s0, ratio = columns
            m = interpolant(x if j == 0 else s0 + (x - s) / ratio)
            m = m.reshape(4, -1)[:, j]
            return m[:2] * y[0] + m[2:] * y[1]
        y = B @ y


@pytest.mark.parametrize("a", [
    cf.constant(4.0, T),
    cf.step_function(T, [(0.0, 2.0, -1.5), (2.0, 4.0, 3.0), (4.0, T, 0.0)]),
    cf.from_expression("0.5+0.3*cos(x)", T),
], ids=["q>0", "steps q<0,q>0,q=0", "0.5+0.3cos(x)"])
def test_trajectory_array_state(a):
    y0 = np.array([1.0, -0.5])
    traj = fq.Trajectory(a, 0.0, y0)
    ends = [e for _, e, _ in a.pieces]
    xs = np.concatenate([np.linspace(0.0, T, 301), [0.0, T, T + 1e-9], ends])
    states = traj.state(xs)
    assert states.shape == (2, len(xs))
    tol = 1e-14 * np.max(np.abs(states))
    pieces = list(fq._propagators(a, 0.0, dense=True))
    for ref in (np.stack([traj.state(float(x)) for x in xs], axis=1),
                np.stack([loop_state(pieces, y0, float(x)) for x in xs],
                         axis=1)):
        assert np.max(np.abs(states - ref)) <= tol
    # on a constant first piece the array closed form is the exact block
    s, e, piece = a.pieces[0]
    q = ex.constant_value(piece)
    if q is not None:
        first = xs[xs <= e]
        block = np.stack([fq._const_block(q, x - s) @ y0 for x in first],
                         axis=1)
        assert np.max(np.abs(traj.state(first) - block)) <= tol


def test_trajectory_state_reads_in_one_call_each(monkeypatch):
    """A state call on a_eps, constant and ODE pieces alike, reads every
    constant-piece point in one _const_blocks call and every ODE-piece
    point in one call of the pass's interpolant."""
    a = wt.make_a_eps(2, T, 0.0136)
    traj = fq.Trajectory(a, 0.0, (0.3, 1.0))
    xs = np.linspace(0.0, T, 4096)
    want = traj.state(xs)
    blocks, interpolant = fq._const_blocks, Interpolant.__call__
    calls = []

    def counted_blocks(*args):
        calls.append("blocks")
        return blocks(*args)

    def counted_interpolant(self, t):
        calls.append("interpolant")
        return interpolant(self, t)

    monkeypatch.setattr(fq, "_const_blocks", counted_blocks)
    monkeypatch.setattr(Interpolant, "__call__", counted_interpolant)
    got = traj.state(xs)
    monkeypatch.undo()
    assert sorted(calls) == ["blocks", "interpolant"]
    assert np.array_equal(got, want)


def test_refine_keeps_a_start_on_a_bracket_end():
    """A search started on an end of its bracket, where f is 0, takes that
    end after one request."""
    ode = current().ode
    for lo, hi, x in ((0.0, 1.0, 1.0), (0.0, 1.0, 0.0)):
        rounds = []

        def answer(requests):
            rounds.append(requests)
            return {r: (r[0] - x, 1.0) for r in requests}

        [(root, at, slope)] = fq._lockstep([fq._refine(
            lambda z, reply: (*reply, 0.0, ode), lo, hi, x, None, True,
            ode)], answer)
        assert (root, at, slope) == (x, x, 1.0)
        assert rounds == [{(x, ode)}]


def test_spectrum_counts():
    a = cf.constant(0.3, T)
    s = fq.spectrum(a, 6, 5)
    assert len(s.periodic_values()) == 6
    assert len(s.antiperiodic_values()) == 5


def test_nonconstant_expression_pieces():
    a = cf.from_expression("0.5 + 0.3*cos(x)", T)
    s = fq.spectrum(a, 5, 4)
    ok, msg = fq.check_interlacing(s)
    assert ok, msg
    # Mathieu-type: first periodic eigenvalue below -mean shift of 0
    assert s.periodic_values()[0] < -0.3


def split(text, period, count):
    """text on [0, period) as count pieces of unequal lengths, each with
    its own copy of the expression."""
    cuts = np.sort(np.random.default_rng(count).uniform(0.1, 0.9, count - 1))
    ends = [0.0, *(cuts * period), period]
    return cf.PeriodicCoefficient(period, tuple(
        (s, e, ex.parse(text)) for s, e in zip(ends, ends[1:])))


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("text, period, fourier, narrow", [
    # alam3 is 2.5e-4 from alam4: an edge of so narrow a pair is only as
    # accurate as Delta's error over Delta' (one piece per integration gave
    # it within 3.7e-9 of the Hill matrix, cut or not)
    ("1.2+0.4*cos(2*x)", math.pi, {0: 1.2, 1: 0.2}, ("antiperiodic", 3)),
    ("0.5+0.3*cos(x)", T, {0: 0.5, 1: 0.15}, None),
], ids=["mathieu", "0.5+0.3cos(x)"])
def test_split_pieces_agree(text, period, fourier, narrow, count, monkeypatch):
    # the ODE pieces of a pass share one integration: cut into pieces, the
    # coefficient has the monodromy and the spectrum of the uncut one
    a, whole = split(text, period, count), cf.from_expression(text, period)
    calls = recorded_solves(monkeypatch)
    for mu in (-0.5, 0.7, 3.1, 10.2):
        np.testing.assert_allclose(fq.monodromy(a, mu), fq.monodromy(whole, mu),
                                   rtol=0, atol=1e-10)
    assert len(calls) == 8  # one integration per pass
    s, w = fq.spectrum(a, 3, 3), fq.spectrum(whole, 3, 3)
    for kind in ("periodic", "antiperiodic"):
        got, want = getattr(s, kind), getattr(w, kind)
        oracle = hill_eigenvalues(period, fourier, kind == "antiperiodic")
        for e, u, o in zip(got, want, oracle):
            assert e.multiplicity == u.multiplicity == 1
            assert abs(e.value - u.value) <= (
                1e-8 if (kind, e.index) == narrow else 1e-9)
            assert e.value == pytest.approx(o, rel=0, abs=1e-8)


def test_split_trajectory_and_count():
    # a dense pass reads each piece on the shared parameter; a counting pass
    # spaces every piece's points by its own length
    a, whole = split("0.5+0.3*cos(x)", T, 4), cf.from_expression(
        "0.5+0.3*cos(x)", T)
    xs = np.linspace(0.0, T, 301)
    np.testing.assert_allclose(fq.Trajectory(a, 0.7, (1.0, -0.5)).state(xs),
                               fq.Trajectory(whole, 0.7, (1.0, -0.5)).state(xs),
                               rtol=0, atol=1e-9)
    for mu in (0.1, 2.3, 30.4, 400.7):
        assert fq.edge_count(a, mu)[0] == fq.edge_count(whole, mu)[0]


def test_budget_counts_calls_not_pieces(monkeypatch):
    # one right-hand-side call serves every ODE piece of the pass
    a = split("0.5+0.3*cos(x)", T, 5)
    solves = recorded_solves(monkeypatch)
    fq.monodromy(a, 0.7)
    [(_, calls)] = solves
    with use(ode_budget=calls[0]):
        fq.monodromy(a, 0.7)
    with use(ode_budget=calls[0] - 1), pytest.raises(IntegrationFailure,
                                                     match="budget"):
        fq.monodromy(a, 0.7)


@pytest.mark.parametrize("c", [1e13, 1e14, -1e14])
def test_large_constant_edges(c):
    # the Weyl bracket is padded past the rounding of mu at -c
    a = cf.constant(c, T)
    s = fq.spectrum(a, 3, 3)
    want = [0.0, 1.0, 1.0, 0.25, 0.25, 2.25]
    got = [e.value + c for e in s.periodic + s.antiperiodic]
    np.testing.assert_allclose(got, want, rtol=0, atol=2 * math.ulp(abs(c)))


@pytest.mark.parametrize("c", [1e15, -1e15, 1e200])
def test_edges_within_rounding(c):
    # fewer than 8 floats lie between the first edges: a search failure
    with pytest.raises(RootSearchFailure, match="within rounding"):
        fq.spectrum(cf.constant(c, T), 2, 2)


@pytest.mark.parametrize("text", ["1e200*x*1e200", "x^100000000000000000000"])
def test_non_finite_ode_piece(text):
    a = cf.PeriodicCoefficient.from_dict({"period": T, "pieces": [
        {"from": 0.0, "to": 3.0, "expr": text},
        {"from": 3.0, "to": T, "expr": "1+0.1*cos(x)"}]})
    with pytest.raises(NonFiniteValue, match="mu \\+ a is not finite at x="):
        fq.eigenfunction(a, 0.0, "periodic")


@pytest.mark.parametrize("text, budget, error, match", [
    ("0.5+0.3*cos(x)", 50, IntegrationFailure,
     "ODE budget of 50 evaluations exhausted at mu=1.0"),
    ("1+x^-2", None, NonFiniteValue, r"not finite at x=0\.0: q = inf"),
], ids=["budget", "non-finite"])
def test_one_mu_slope_pass_exits(text, budget, error, match):
    # the one-mu right-hand side with the variational equation stops at its
    # budget and at a q that is not finite, as the one without it does
    a = cf.from_expression(text, 1.0)
    with use(ode_budget=budget), pytest.raises(error, match=match):
        fq._slope(a, 1.0, 1e-12)


def test_passes_read_the_constant_pieces_of_the_coefficient(monkeypatch):
    # which pieces are constant is found once, as the coefficient is made:
    # monodromies, slopes and the eigenvalue search do not ask again
    step = cf.step_function(T, [(0.0, 2.0, 1.3), (2.0, T, -0.7)])
    want = (fq.discriminant(step, np.array([0.5, 2.0])),
            fq.spectrum(README_TWO_PIECE, 2, 1))

    def refuse(e):
        raise AssertionError("constant_value called again")

    monkeypatch.setattr(ex, "constant_value", refuse)
    np.testing.assert_array_equal(
        fq.discriminant(step, np.array([0.5, 2.0])), want[0])
    assert fq.spectrum(README_TWO_PIECE, 2, 1) == want[1]
    fq._slope(README_TWO_PIECE, 0.7, current().ode)
    fq.Trajectory(README_TWO_PIECE, 0.7, (1.0, 0.0)).state(1.0)


def test_spectrum_searches_only_the_kinds_asked_for():
    a = cf.constant(0.0, T)
    assert fq.spectrum(a, 3, None).antiperiodic == []
    assert fq.spectrum(a, None, 2).periodic == []
    assert fq.periodic_eigenvalues(a, 3) == fq.spectrum(a, 3, None)
    assert fq.antiperiodic_eigenvalues(a, 2) == fq.spectrum(a, None, 2)
    with pytest.raises(ValueError, match="count must be >= 1"):
        fq.spectrum(a, 0, None)
