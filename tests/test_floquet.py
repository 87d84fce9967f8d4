import math

import numpy as np
import pytest

from hillstab import coeff as cf
from hillstab import expr as ex
from hillstab import floquet as fq
from hillstab.errors import NotAnEigenvalue

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


def test_spectrum_is_one_scan(monkeypatch):
    # both kinds come from one scan of Delta: the same entries as the two
    # single-kind searches, for fewer discriminant evaluations
    a = cf.step_function(T, [(0.0, 2.0, 0.0), (2.0, T, 2.0)])
    calls = []
    discriminant = fq.discriminant

    def counted(a, mu):
        calls.append(mu)
        return discriminant(a, mu)

    monkeypatch.setattr(fq, "discriminant", counted)
    s = fq.spectrum(a, 5, 4)
    n_spectrum = len(calls)
    p = fq.periodic_eigenvalues(a, 5)
    ap = fq.antiperiodic_eigenvalues(a, 4)
    assert s.periodic == p.periodic
    assert s.antiperiodic == ap.antiperiodic
    assert n_spectrum < len(calls) - n_spectrum


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
    s = fq.spectrum(a, 5, 4)
    assert fq.classify(a, 0.5, s).kind == "Stable"
    assert fq.classify(a, -0.5, s).kind == "Unstable"
    assert fq.classify(a, 0.5, s).zone_index == 1
    assert fq.classify(a, 1.5, s).zone_index == 2
    assert fq.classify(a, 2.5, s).kind == "Stable"
    v = fq.classify(a, 0.0, s)
    assert v.kind == "BoundaryUnstable"  # mu = lambda_0
    v = fq.classify(a, 1.0, s)
    assert v.kind == "BoundaryStable"  # coincident pair: coexistence


def test_classify_discriminant_reported():
    a = cf.constant(0.0, T)
    v = fq.classify(a, 0.5, fq.spectrum(a, 3, 2))
    assert abs(v.discriminant) < 2


def test_eigenfunction_periodic():
    a = cf.constant(4.0, T)
    traj = fq.eigenfunction(a, 0.0, "periodic")
    xs = np.linspace(0, T, 200)
    u = np.array([traj.u(float(x)) for x in xs])
    assert np.max(np.abs(u)) > 1e-3
    assert traj.u(0.0) == pytest.approx(traj.u(T), abs=1e-7)
    assert traj.du(0.0) == pytest.approx(traj.du(T), abs=1e-7)


def test_eigenfunction_antiperiodic():
    a = cf.constant(0.25, T)
    traj = fq.eigenfunction(a, 0.0, "antiperiodic")
    assert traj.u(0.0) == pytest.approx(-traj.u(T), abs=1e-7)
    assert traj.du(0.0) == pytest.approx(-traj.du(T), abs=1e-7)


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
    with pytest.raises(NotAnEigenvalue):
        fq.eigenfunction(a, 0.5, "periodic")


def test_trajectory_matches_closed_form():
    a = cf.constant(4.0, T)
    traj = fq.Trajectory(a, 0.0, (0.0, 2.0))  # u = sin(2x)
    xs = np.linspace(0, T, 100)
    np.testing.assert_allclose([traj.u(float(x)) for x in xs],
                               np.sin(2 * xs), atol=1e-9)


def loop_state(traj, x):
    """One point at a time: the first segment whose end x does not pass by
    more than 1e-12, with x clamped into it; past the last, its end."""
    for s, e, states in traj.segments:
        if x <= e + 1e-12:
            return states(np.array([min(max(x, s), e)]))[:, 0]
    s, e, states = traj.segments[-1]
    return states(np.array([e]))[:, 0]


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
    for ref in (np.stack([traj.state(float(x)) for x in xs], axis=1),
                np.stack([loop_state(traj, float(x)) for x in xs], axis=1)):
        assert np.max(np.abs(states - ref)) <= tol
    # on a constant first piece the array closed form is the exact block
    s, e, piece = a.pieces[0]
    q = ex.constant_value(piece)
    if q is not None:
        first = xs[xs <= e]
        block = np.stack([fq._const_block(q, x - s) @ y0 for x in first],
                         axis=1)
        assert np.max(np.abs(traj.state(first) - block)) <= tol


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
