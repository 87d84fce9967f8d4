import math

import numpy as np
import pytest

from hillstab import coeff as cf
from hillstab import constants as cn
from hillstab import expr as ex
from hillstab import floquet as fq
from hillstab import witness as wt
from hillstab import zeros as zr
from hillstab.errors import DomainError, NotAnEigenvalue

T = 2 * math.pi


def test_constant_4_periodic():
    z = zr.extract_zero_structure(cf.constant(4.0, T), "periodic")
    np.testing.assert_allclose(
        z.u_zeros, [0, math.pi / 2, math.pi, 3 * math.pi / 2, T], atol=1e-8)
    np.testing.assert_allclose(
        z.du_zeros,
        [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4],
        atol=1e-8)
    assert z.m == 4


def test_constant_quarter_antiperiodic():
    z = zr.extract_zero_structure(cf.constant(0.25, T), "antiperiodic")
    np.testing.assert_allclose(z.u_zeros, [0.0, T], atol=1e-8)
    np.testing.assert_allclose(z.du_zeros, [math.pi], atol=1e-8)
    assert z.m == 1


def test_non_eigenvalue_rejected():
    with pytest.raises(NotAnEigenvalue):
        zr.extract_zero_structure(cf.constant(0.5, T), "periodic")


def test_alternation_and_sum():
    z = zr.extract_zero_structure(cf.constant(9.0, T), "periodic")
    pts = z.merged()
    assert all(b > a for a, b in zip(pts, pts[1:]))
    assert sum(z.spacings) == pytest.approx(T, abs=1e-9)


@pytest.mark.parametrize("q", [4, 6, 8])
def test_periodic_structure_checks(q):
    lam_q = (q / 2) ** 2  # a == lam_q has u = sin(q x / 2), m = q
    z = zr.extract_zero_structure(cf.constant(lam_q, T), "periodic")
    assert z.m == q
    rep = zr.check_periodic_structure(z, 1, T)
    assert rep.all_ok


@pytest.mark.parametrize("n, eps, tol", [
    (1, 0.35, 1e-12), (1, 0.01, 1e-12), (3, 0.17, 1e-12), (3, 1e-3, 1e-12),
    # through layers 1e-3 wide the eigenfunction itself is off by 1.6e-12
    (1, 1e-3, 4e-12)])
def test_witness_structure_closed_form(n, eps, tol):
    # u_eps vanishes at the odd multiples of q and u_eps' at the even ones
    q = T / (4 * (n + 1))
    z = zr.extract_zero_structure(wt.make_a_eps(n, T, eps), "periodic")
    assert z.m == 2 * (n + 1)
    assert z.shift == pytest.approx(q, abs=tol)
    np.testing.assert_allclose(z.u_zeros, 2 * q * np.arange(z.m + 1),
                               rtol=0, atol=tol)
    np.testing.assert_allclose(z.du_zeros, q * (2 * np.arange(z.m) + 1),
                               rtol=0, atol=tol)


@pytest.mark.parametrize("bc", ["Periodic", "periodc", "both"])
def test_bc_must_be_named_exactly(bc):
    # "Periodic" once gave the antiperiodic structure, labelled "Periodic"
    with pytest.raises(DomainError, match="bc must be"):
        zr.extract_zero_structure(cf.constant(2.25, T), bc)
    with pytest.raises(DomainError, match="bc must be"):
        fq.eigenfunction(cf.constant(2.25, T), 0.0, bc)


def test_witness_structure():
    a = wt.make_a_eps(1, T, 1e-3)
    z = zr.extract_zero_structure(a, "periodic")
    assert z.m == 4
    rep = zr.check_periodic_structure(z, 1, T)
    assert rep.all_ok
    # quarter-point spacings
    np.testing.assert_allclose(z.spacings, T / 8, atol=1e-2)


def test_extract_integrates_once(monkeypatch):
    """The structure is read from the eigenfunction's own pass: one
    integration, of all the non-constant pieces at once, and none on a
    shifted copy."""
    a = wt.make_a_eps(1, T, 1e-3)
    solve_ivp = fq.solve_ivp
    calls = []

    def counted(*args, **kwargs):
        calls.append((args[1], len(args[2])))
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(fq, "solve_ivp", counted)
    z = zr.extract_zero_structure(a, "periodic")
    monkeypatch.undo()
    smooth = [(s, e) for s, e, p in a.pieces if ex.constant_value(p) is None]
    assert 1 < len(smooth) < len(a.pieces)
    # over the first piece, with the 4 components of each piece
    assert calls == [(smooth[0], 4 * len(smooth))]
    assert z.m == 4


def test_extract_in_few_rounds(monkeypatch):
    """The searches on a_eps, n = 2, end in a few lockstep rounds, each one
    state call: the zeros of u' at the grid points k T/6 start on their
    grid step's end and stay there."""
    a = wt.make_a_eps(2, T, 0.0136)
    state, calls = fq.Trajectory.state, []

    def counted(self, x):
        calls.append(np.size(x))
        return state(self, x)

    monkeypatch.setattr(fq.Trajectory, "state", counted)
    z = zr.extract_zero_structure(a, "periodic")
    monkeypatch.undo()
    assert len(calls) <= 8
    assert z.m == 6
    k = (np.array(z.du_zeros) + z.shift) / (T / 6)
    assert np.max(np.abs(k - np.round(k))) * T / 6 <= 1e-10
    assert sorted(np.round(k).astype(int) % 6) == list(range(6))


def test_antiperiodic_structure():
    z = zr.extract_zero_structure(cf.constant(2.25, T), "antiperiodic")
    assert z.m == 3
    rep = zr.check_antiperiodic_structure(z, 1, T)
    assert rep.all_ok


def test_structure_check_domain():
    z = zr.extract_zero_structure(cf.constant(4.0, T), "periodic")
    with pytest.raises(DomainError):
        zr.check_periodic_structure(z, 0, T)


def test_zero_stability_under_refinement(monkeypatch):
    a = cf.step_function(T, [(0.0, 2.5, 4.2), (2.5, T, 4.0)])
    # shift a so that 0 is exactly a periodic eigenvalue: use a true
    # eigen-coefficient instead
    monkeypatch.setattr(zr, "SAMPLES", 2048)
    z1 = zr.extract_zero_structure(cf.constant(4.0, T), "periodic")
    monkeypatch.setattr(zr, "SAMPLES", 8192)
    z2 = zr.extract_zero_structure(cf.constant(4.0, T), "periodic")
    np.testing.assert_allclose(z1.u_zeros, z2.u_zeros, atol=1e-8)
    np.testing.assert_allclose(z1.du_zeros, z2.du_zeros, atol=1e-8)


def test_subinterval_inequality_constant():
    n = 1
    a = cf.constant(9.0, T)
    z = zr.extract_zero_structure(a, "periodic")
    out = zr.subinterval_inequality(a, z, n)
    assert out["chain_ok"]
    for d in out["per_interval"]:
        assert d["margin"] >= -1e-7
    # total distance (lam_q - lam_1) * T dominates the cot sum
    assert out["total_distance"] == pytest.approx(8 * T, abs=1e-8)
    assert out["cot_sum"] <= out["total_distance"]


def test_subinterval_inequality_witness_tight():
    n, T_ = 1, T
    a = wt.make_a_eps(n, T_, 1e-3)
    z = zr.extract_zero_structure(a, "periodic")
    out = zr.subinterval_inequality(a, z, n)
    margins = [d["margin"] for d in out["per_interval"]]
    assert all(m >= -1e-7 for m in margins)
    # tight family: margins collapse toward 0 with eps
    assert min(margins) < 0.05


def test_subinterval_inequality_integrates_from_the_shift():
    # antiresonant two-step potential: the solution on [r, r + T] is
    # symmetric about its one critical point, and so is a there, so the two
    # subintervals carry the same L1 distance; read from 0 they do not
    alpha = math.pi / 4
    a = wt.make_two_step(alpha, wt.anti_resonant_x0(alpha)[0])
    z = zr.extract_zero_structure(a, "antiperiodic")
    assert z.m == 1 and 0.5 < z.shift < a.period - 0.5
    out = zr.subinterval_inequality(a, z, 1)
    left, right = (d["l1_distance"] for d in out["per_interval"])
    assert left == pytest.approx(right, abs=1e-8)


def test_equal_spacing_bound_matches_beta1():
    # at the minimal m = 4(n+1)/2... m = 2(n+1) the bound equals beta1
    for n in (1, 2, 3):
        m = 2 * (n + 1)
        assert zr.equal_spacing_bound(n, T, m) == pytest.approx(
            cn.beta1(n, T), rel=1e-12)
    # and is what larger m cannot go below
    assert zr.equal_spacing_bound(1, T, 6) > cn.beta1(1, T)


def test_mixed_principal_eigenvalue():
    assert zr.mixed_principal_eigenvalue(0.0, math.pi / 2) == pytest.approx(1.0)
    assert zr.mixed_principal_eigenvalue(0.0, 1.0) == pytest.approx(
        math.pi ** 2 / 4)
    v1 = zr.mixed_principal_eigenvalue(0.0, 1.0)
    v2 = zr.mixed_principal_eigenvalue(0.0, 2.0)
    assert v1 / v2 == pytest.approx(4.0)
    with pytest.raises(DomainError):
        zr.mixed_principal_eigenvalue(1.0, 1.0)
