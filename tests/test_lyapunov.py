import math

import pytest

from hillstab import coeff as cf
from hillstab import floquet as fq
from hillstab import lyapunov as ly
from hillstab import settings as config
from hillstab import witness as wt
from hillstab.errors import DomainError

T = 2 * math.pi
PI = math.pi


def test_l1_periodic_constant_above():
    c = ly.certify_l1_periodic(cf.constant(1.1, T), 1)
    assert c.holds
    assert c.theorem_id == "L1_PERIODIC_N"
    assert c.n_or_p == 1
    # margins nonnegative when holds
    assert c.hypothesis_values["margin_l1"] >= 0
    assert c.hypothesis_values["dominance_min_gap"] >= -1e-12
    # ground truth agrees
    vals = fq.periodic_eigenvalues(cf.constant(1.1, T), 4).periodic_values()
    assert vals[2] < 0 < vals[3]


def test_l1_periodic_boundary_not_strict():
    assert not ly.certify_l1_periodic(cf.constant(1.0, T), 1).holds


def test_l1_periodic_witness_exceeds_ball():
    a = wt.make_a_eps(1, T, 0.01)
    c = ly.certify_l1_periodic(a, 1)
    assert not c.holds
    assert c.hypothesis_values["margin_l1"] < 0


def test_l1_periodic_rejects_bad_n():
    with pytest.raises(DomainError):
        ly.certify_l1_periodic(cf.constant(1.1, T), 0)


def test_l1_antiperiodic():
    assert ly.certify_l1_antiperiodic(cf.constant(0.35, T), 1).holds
    assert not ly.certify_l1_antiperiodic(cf.constant(0.25, T), 1).holds


def test_l1_antiperiodic_resonant_two_step():
    # resonant two-step potential: 0 is an antiperiodic eigenvalue, so the
    # certificate must refuse
    alpha = math.pi / 4
    x0 = wt.anti_resonant_x0(alpha)[0]
    a = wt.make_two_step(alpha, x0)
    c = ly.certify_l1_antiperiodic(a, 1)
    assert not c.holds


def test_zone_kp_gap_midpoints():
    for cval, p_expected in ((0.625, 1), (1.625, 2)):
        cert = ly.certify_zone_kp(cf.constant(cval, T))
        assert cert.holds
        assert cert.n_or_p == p_expected
        assert all("margin" in d for d in cert.diagnostics)
    # a = ((p+1) pi/T)^2 makes 0 an eigenvalue: k is at its bracket top,
    # where a = k attains the bound; only p* is evaluated
    for cval, p_star in ((1.0, 1), (2.25, 2), (1e10, 199_999)):
        cert = ly.certify_zone_kp(cf.constant(cval, T))
        assert not cert.holds
        assert cert.n_or_p is None
        assert [d["p"] for d in cert.diagnostics] == [p_star]
        assert cert.diagnostics[0]["k"] == cval


def test_zone_kp_below_first_bracket():
    cert = ly.certify_zone_kp(cf.constant(0.125, T))
    assert not cert.holds
    assert cert.diagnostics == ()  # empty k window


def test_linf_periodic():
    c = ly.certify_linf_periodic(cf.constant(1.0, PI))
    assert c.holds
    assert c.hypothesis_values["best_margin"] > 0
    assert not ly.certify_linf_periodic(cf.constant(4.1, PI)).holds


def test_linf_periodic_rejects_wrong_period():
    with pytest.raises(DomainError):
        ly.certify_linf_periodic(cf.constant(1.0, T))


def test_linf_first_zone():
    assert ly.certify_linf_first_zone(cf.constant(0.81, PI)).holds
    assert not ly.certify_linf_first_zone(cf.constant(1.1, PI)).holds


def test_linf_first_zone_diagnostics_cover_grid():
    c = ly.certify_linf_first_zone(cf.constant(1.1, PI))
    assert len(c.diagnostics) == config.current().x0_grid
    assert all(not d["ok"] for d in c.diagnostics)
    # a changed grid holds inside its block only
    with config.use(x0_grid=64):
        c = ly.certify_linf_first_zone(cf.constant(1.1, PI))
    assert len(c.diagnostics) == 64
    c = ly.certify_linf_first_zone(cf.constant(1.1, PI))
    assert len(c.diagnostics) == 1024


def test_linf_first_zone_tall_short_interval_fixture():
    # ||a||_inf > 4 on a short first interval, still certifiable
    a = cf.step_function(PI, [(0.0, 0.22, 5.0), (0.22, PI, 0.026)])
    c = ly.certify_linf_first_zone(a)
    assert c.holds
    assert c.hypothesis_values["alpha_needed"] < math.pi / 2


def test_classical_16T():
    assert ly.classical_16T(cf.constant(1 / PI ** 2, T)).holds
    assert not ly.classical_16T(cf.constant(0.0, T)).holds
    assert not ly.classical_16T(cf.constant(4 / PI ** 2 + 1e-6, T)).holds


def test_classical_16T_uses_positive_part():
    # negative excursions don't count against the 16/T budget, but they help
    # the mean constraint fail if too deep
    a = cf.step_function(T, [(0.0, 3.0, 0.3), (3.0, T, -0.1)])
    c = ly.classical_16T(a)
    assert c.holds
    assert c.hypothesis_values["positive_part_integral"] == pytest.approx(
        0.9, abs=1e-9)
    b = cf.step_function(T, [(0.0, 1.0, 0.3), (1.0, T, -0.5)])
    assert not ly.classical_16T(b).holds  # negative mean


def test_certify_all_filters():
    certs = ly.certify_all(cf.constant(1.1, T), n_list=[1])
    ids = [c.theorem_id for c in certs]
    assert "L1_PERIODIC_N" in ids and "CLASSICAL_16T" in ids
    assert "LINF_PERIODIC" not in ids  # period is not pi
    only = ly.certify_all(cf.constant(1.1, T), n_list=[1],
                          theorems=["L1_PERIODIC_N"])
    assert [c.theorem_id for c in only] == ["L1_PERIODIC_N"]


def test_certificate_serialization():
    c = ly.certify_zone_kp(cf.constant(0.625, T))
    d = c.to_dict()
    assert d["theorem_id"] == "L1_ZONE_KP"
    assert isinstance(d["diagnostics"], list)


@pytest.mark.parametrize("quad", [None, 1e-6])
def test_certify_all_computes_shared_values_once(monkeypatch, quad):
    # ||a||_L1, the samples of a and its dominance over 0 are computed once
    # per call, under the settings in effect, and every certificate is the
    # one its own function gives
    a = cf.from_expression("1.2+0.4*cos(2*x)", PI)
    with config.use(quad=quad):
        alone = [f(a, n) for n in (1, 2, 3) for f in (
            ly.certify_l1_periodic, ly.certify_l1_antiperiodic)] + [
            ly.certify_zone_kp(a), ly.certify_linf_first_zone(a),
            ly.certify_linf_periodic(a), ly.classical_16T(a)]
        calls = []
        for name in ("l1_distance", "sample", "dominates"):
            def counted(*args, _f=getattr(cf, name), _name=name):
                calls.append((_name, args[1:]))
                return _f(*args)
            monkeypatch.setattr(cf, name, counted)
        together = ly.certify_all(a)
    # repr: the diagnostics hold NaN windows
    assert [repr(c.to_dict()) for c in together] == \
        [repr(c.to_dict()) for c in alone]
    assert sorted(name for name, _ in calls) == [
        "dominates"] * 7 + ["l1_distance", "sample"]
    assert len(set(calls)) == len(calls)
