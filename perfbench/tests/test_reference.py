"""Tests of the benchmark's reference computations.

They live outside ``tests/`` so the package's own suite does not collect
them; run them with ``python3 -m pytest perfbench/tests``.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference as ref  # noqa: E402


@pytest.mark.parametrize("T", [math.pi, 2 * math.pi, 3.0])
@pytest.mark.parametrize("c", [-0.7, 0.0, 2.3])
def test_hill_matrix_constant_coefficient(T, c):
    """Periodic eigenvalues (2 pi k / T)^2 - c, each k >= 1 twice;
    antiperiodic ((2k + 1) pi / T)^2 - c, each twice."""
    a = ref.step(T, [(0.0, T, c)])
    p = ref.hill_eigenvalues(a, "periodic", 9, 12)
    k = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4])
    np.testing.assert_allclose(p, (2 * math.pi * k / T) ** 2 - c,
                               rtol=0, atol=1e-10)
    ap = ref.hill_eigenvalues(a, "antiperiodic", 8, 12)
    k = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    np.testing.assert_allclose(ap, ((2 * k + 1) * math.pi / T) ** 2 - c,
                               rtol=0, atol=1e-10)


def test_step_discriminant_matches_hill_matrix():
    """Delta -+ 2 vanishes at the Hill eigenvalues of a four-plateau step
    function; the Hill matrix converges slowly on jumps, so at 600 modes the
    eigenvalues sit within 1e-6 of the roots."""
    T = 2 * math.pi
    a = ref.step(T, [(0.0, 1.0, 1.3), (1.0, 2.5, 0.2), (2.5, 4.0, 2.0),
                     (4.0, T, 0.8)])
    spec = ref.spectrum_from_scan(a, 20.0, 1e-3)
    p = ref.hill_eigenvalues(a, "periodic", 7, 600)
    ap = ref.hill_eigenvalues(a, "antiperiodic", 7, 600)
    np.testing.assert_allclose(spec.periodic[:7], p, rtol=0, atol=1e-6)
    np.testing.assert_allclose(spec.antiperiodic[:7], ap, rtol=0, atol=1e-6)
    np.testing.assert_allclose(ref.discriminant(a, spec.periodic[:7]), 2.0,
                               atol=1e-9)
    np.testing.assert_allclose(ref.discriminant(a, spec.antiperiodic[:7]),
                               -2.0, atol=1e-9)


def test_ode_discriminant_matches_closed_form_on_constants():
    """The ODE path and the exact blocks agree on a constant piece; a
    frequency of 1e-300 keeps that piece on the ODE path."""
    T = 2 * math.pi
    blocks = ref.step(T, [(0.0, 2.0, 1.5), (2.0, T, 0.5)])
    as_ode = ref.Coeff(T, ((0.0, 2.0, ((1.5, 0.0, 0.0),)),
                           (2.0, T, ((0.25, 0.0, 0.0), (0.25, 1e-300, 0.0)))))
    mus = np.linspace(-2.0, 10.0, 7)
    np.testing.assert_allclose(ref.discriminant(as_ode, mus),
                               ref.discriminant(blocks, mus), atol=1e-9)


def test_scan_finds_double_roots_of_constant_coefficient():
    """A constant coefficient has every periodic eigenvalue k >= 1 double."""
    T = 2 * math.pi
    spec = ref.spectrum_from_scan(ref.step(T, [(0.0, T, 16.5)]), 10.0, 1e-3)
    want = [k * k - 16.5 for k in (0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5)]
    np.testing.assert_allclose(spec.periodic, want, atol=1e-6)


def test_mathieu_hill_matrix_matches_ode_discriminant():
    a = ref.trig_poly(math.pi, [(1.2, 0.0, 0.0), (0.4, 2.0, 0.0)])
    spec = ref.spectrum_from_hill(a, 40.0)
    np.testing.assert_allclose(ref.discriminant(a, spec.periodic), 2.0,
                               atol=1e-9)
    np.testing.assert_allclose(ref.discriminant(a, spec.antiperiodic), -2.0,
                               atol=1e-9)


@pytest.mark.parametrize("k,c", [(1.0, 2.5), (2.0, 1.5), (3.0, 5.5)])
def test_collocation_linear_problem(k, c):
    """u'' + c u + A cos(k x) = 0 has the periodic solution
    A cos(k x) / (k^2 - c)."""
    A = 0.8
    p = ref.Pendulum(c, 0.0, ((A, k, 0.0),), 2 * math.pi)
    u0, du0, u = ref.collocation_solve(p)
    x = np.arange(u.size) * p.period / u.size
    np.testing.assert_allclose(u, A * np.cos(k * x) / (k * k - c), atol=1e-12)
    assert abs(u0 - A / (k * k - c)) < 1e-12
    assert abs(du0) < 1e-10
    assert ref.periodicity_defect(p, u0, du0) < 1e-9


def test_witness_distance_exceeds_beta1_and_decreases():
    T = 2 * math.pi
    for n in (1, 2, 3):
        excess = [ref.witness_norms(n, T, eps)[1] - ref.beta1(n, T)
                  for eps in (1e-2, 1e-3, 1e-4)]
        assert all(e > 0 for e in excess)
        assert excess[0] > excess[1] > excess[2]


def test_meter_restores_the_timer_and_rescales_by_the_probe():
    """Meter.call leaves no timer armed and the previous SIGALRM handler in
    place, also when the call raises, and its reference time is the wall
    time over a speed factor within the range the probes can read."""
    import signal

    import speed

    previous = signal.getsignal(signal.SIGALRM)
    meter = speed.Meter()
    assert meter.call(sum, range(10 ** 6)) == sum(range(10 ** 6))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert 0.1 < meter.wall_s / meter.ref_s < 10.0

    with pytest.raises(ZeroDivisionError):
        meter.call(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert meter.wall_s > 0.0
