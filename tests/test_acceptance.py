"""End-to-end acceptance gate: eleven criteria, one pass/fail line each.

Each criterion prints ``[criterion NN] <name>: PASS`` (or FAIL) so a plain
``pytest -s`` run doubles as the sign-off checklist.  The randomized sweep
used by criteria 4 and 6 is generated once at module scope with a fixed
seed.
"""

import math
import sys

import numpy as np
import pytest

from hillstab import coeff as cf
from hillstab import constants as cn
from hillstab import expr as ex
from hillstab import floquet as fq
from hillstab import lyapunov as ly
from hillstab import nonlinear as nl
from hillstab import witness as wt
from hillstab import zeros as zr
from hillstab.errors import NoConvergence

T = 2 * math.pi
PI = math.pi


class _Criterion:
    """Prints the one-line verdict even when the body raises."""

    def __init__(self, number, name):
        self.number, self.name = number, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:02d}] {self.name}: {verdict}",
              file=sys.stderr)
        return False


# -- shared randomized sweep (criteria 4 and 6) -------------------------------

def _random_sweep():
    """100 coefficients a = lam_{2n-1} + s * g with ||a||_L1 in
    [0.5, 1.0] * gamma1(n, T), g a nonnegative 3-piece step function."""
    rng = np.random.default_rng(20240817)
    out = []
    i = 0
    while len(out) < 100:
        n = int(rng.integers(1, 4))
        lam = cn.lambda_const(n, T)
        g_breaks = np.sort(rng.uniform(0.5, T - 0.5, size=2))
        g_vals = rng.uniform(0.0, 1.0, size=3)
        if np.max(g_vals) < 1e-3:
            continue
        t = rng.uniform(0.5, 1.0)
        gamma = cn.gamma1(n, T)
        g_int = (g_vals[0] * g_breaks[0]
                 + g_vals[1] * (g_breaks[1] - g_breaks[0])
                 + g_vals[2] * (T - g_breaks[1]))
        s = (t * gamma - lam * T) / g_int
        a = cf.step_function(T, [
            (0.0, float(g_breaks[0]), lam + s * g_vals[0]),
            (float(g_breaks[0]), float(g_breaks[1]), lam + s * g_vals[1]),
            (float(g_breaks[1]), T, lam + s * g_vals[2]),
        ])
        out.append((n, a))
        i += 1
    return out


@pytest.fixture(scope="module")
def sweep():
    return _random_sweep()


@pytest.fixture(scope="module")
def sweep_spectra(sweep):
    spectra = []
    for n, a in sweep:
        spectra.append(fq.spectrum(a, 2 * n + 2, 2 * n + 2))
    return spectra


# -- criteria -----------------------------------------------------------------

def test_criterion_01_spectral_oracle():
    with _Criterion(1, "spectral oracle for the zero coefficient"):
        a = cf.constant(0.0, T)
        p = fq.periodic_eigenvalues(a, 7).periodic_values()
        np.testing.assert_allclose(p, [0, 1, 1, 4, 4, 9, 9], atol=1e-8)
        ap = fq.antiperiodic_eigenvalues(a, 6).antiperiodic_values()
        np.testing.assert_allclose(
            ap, [0.25, 0.25, 2.25, 2.25, 6.25, 6.25], atol=1e-8)


def test_criterion_02_constants_table():
    with _Criterion(2, "closed-form constants table"):
        assert abs(cn.beta1(1, T) - 8.0) < 1e-12
        assert abs(cn.gamma1(1, T) - (T + 8.0)) < 1e-12
        assert abs(cn.beta1_anti(1, T) - 3 * math.sqrt(3)) < 1e-12
        assert abs(cn.gamma1_anti(1, T) - (PI / 2 + 3 * math.sqrt(3))) < 1e-12
        for T_ in (1.0, T, 11.3):
            assert abs(cn.beta1(0, T_) - 16 / T_) < 1e-12
            assert abs(cn.beta1_anti(0, T_) - 4 / T_) < 1e-12
        for n in range(1, 101):
            assert cn.zhang(n, T) < cn.gamma1(n, T)
        assert abs(T * cn.gamma1(1000, T) / (16 * 1001 ** 2)
                   - PI ** 2 / 4) < 0.025


def test_criterion_03_witness_tightness():
    with _Criterion(3, "witness family L1 tightness and membership"):
        sweep_vals = wt.tightness_sweep(1, T, [1e-2, 1e-3, 1e-4])
        dists = [d for _, d in sweep_vals]
        assert dists[0] > dists[1] > dists[2], "not strictly decreasing"
        assert all(d > 8.0 for d in dists), "non-attainment violated"
        assert dists[2] - 8.0 < 0.05
        for eps in (1e-2, 1e-3, 1e-4):
            a = wt.make_a_eps(1, T, eps)
            assert abs(fq.discriminant(a, 0.0) - 2.0) < 1e-6


def test_criterion_04_certificate_soundness(sweep, sweep_spectra):
    with _Criterion(4, "certificate soundness on 100 random coefficients"):
        n_true = 0
        for (n, a), spec in zip(sweep, sweep_spectra):
            cert = ly.certify_l1_periodic(a, n)
            if not cert.holds:
                continue
            n_true += 1
            vals = spec.periodic_values()
            assert vals[2 * n] < -1e-8, f"soundness violation at n={n}"
            assert vals[2 * n + 1] > 1e-8, f"soundness violation at n={n}"
        assert n_true >= 30, "sweep produced too few positive certificates"


def test_criterion_05_two_step_resonance():
    with _Criterion(5, "two-step antiperiodic resonance locations"):
        for alpha in (PI / 6, PI / 4, PI / 3):
            for x0 in wt.anti_resonant_x0(alpha):
                assert abs(wt.anti_determinant(alpha, x0)) < 1e-12
                a = wt.make_two_step(alpha, x0).a
                assert abs(fq.discriminant(a, 0.0) + 2.0) < 1e-6
            x_off = wt.anti_resonant_x0(alpha)[0] + 0.05
            a = wt.make_two_step(alpha, x_off).a
            assert abs(fq.discriminant(a, 0.0) + 2.0) > 1e-4
        alphas = np.linspace(0.05, PI - 0.05, 100)
        x0s = np.linspace(0.05, PI - 0.05, 100)
        for al in alphas:
            for x0 in x0s:
                assert wt.periodic_determinant(float(al), float(x0)) > 0
        for al in np.linspace(0.3, 2.8, 10):
            for x0 in np.linspace(0.3, PI - 0.3, 10):
                a = wt.make_two_step(float(al), float(x0)).a
                assert abs(fq.discriminant(a, 0.0) - 2.0) > 1e-4


def test_criterion_06_interlacing(sweep, sweep_spectra):
    with _Criterion(6, "interlacing across the random sweep"):
        for spec in sweep_spectra:
            ok, msg = fq.check_interlacing(spec, slack=1e-9)
            assert ok, msg


def test_criterion_07_zero_structure():
    with _Criterion(7, "zero structure of kernel solutions"):
        for q in (4, 6, 8):
            lam_q = (q / 2) ** 2
            z = zr.extract_zero_structure(cf.constant(lam_q, T), "periodic")
            rep = zr.check_periodic_structure(z, 1, T)
            assert z.m == q and z.m % 2 == 0 and z.m >= 4
            assert rep.all_ok
        z = zr.extract_zero_structure(wt.make_a_eps(1, T, 1e-3), "periodic")
        assert z.m == 4 and zr.check_periodic_structure(z, 1, T).all_ok
        z = zr.extract_zero_structure(cf.constant(2.25, T), "antiperiodic")
        assert z.m == 3 and zr.check_antiperiodic_structure(z, 1, T).all_ok


def test_criterion_08_rayleigh_quotient_suite():
    with _Criterion(8, "mixed-boundary Rayleigh quotient bounds"):
        rng = np.random.default_rng(5)
        for _ in range(200):
            b = rng.uniform(0.2, 1.5)
            M = rng.uniform(0.05, 1.0) * PI ** 2 / (4 * b ** 2)
            xs = np.linspace(0.0, b, 3001)
            co = rng.uniform(-1, 1, size=4)
            u = co[0] * xs + co[1] * xs ** 2 + co[2] * xs ** 3 \
                + co[3] * np.sin(PI * xs / (2 * b))
            du = co[0] + 2 * co[1] * xs + 3 * co[2] * xs ** 2 \
                + co[3] * PI / (2 * b) * np.cos(PI * xs / (2 * b))
            if u[-1] ** 2 < 1e-6:
                continue
            assert cn.j_functional(xs, u, M, du) >= \
                cn.j_min(M, 0.0, b) - 1e-8
        # extremal sine attains the infimum
        M, b = 1.0, 1.2
        xs = np.linspace(0.0, b, 8001)
        u = np.sin(xs) / math.sin(b)
        du = np.cos(xs) / math.sin(b)
        assert abs(cn.j_functional(xs, u, M, du)
                   - cn.j_min(M, 0.0, b)) < 1e-6


def test_criterion_09_zone_criterion():
    with _Criterion(9, "k-p zone certification at gap midpoints"):
        lam_t1, lam_1 = 0.25, 1.0
        lam_2, lam_t3 = 1.0, 2.25
        for c in (0.5 * (lam_t1 + lam_1), 0.5 * (lam_2 + lam_t3)):
            a = cf.constant(c, T)
            cert = ly.certify_zone_kp(a)
            assert cert.holds
            v = fq.classify(a, 0.0)
            assert v.kind == "Stable"
        # zone-bound identity at the double eigenvalues (periodic case
        # needs p = 2n + 1, antiperiodic p = 2n)
        for n in (1, 2, 3):
            assert abs(cn.zone_rhs(cn.lambda_const(n, T), 2 * n + 1, T)
                       - cn.gamma1(n, T)) < 1e-12
            assert abs(cn.zone_rhs(cn.lambda_anti_const(n, T), 2 * n, T)
                       - cn.gamma1_anti(n, T)) < 1e-12


def test_criterion_10_linf_criteria():
    with _Criterion(10, "Linf criteria with ground-truth confirmation"):
        a1 = cf.constant(1.0, PI)
        assert ly.certify_linf_periodic(a1).holds
        vals = fq.periodic_eigenvalues(a1, 2).periodic_values()
        assert abs(vals[0] + 1.0) < 1e-8 and abs(vals[1] - 3.0) < 1e-8
        # frozen fixture: ||a||_inf = 5 > 4 on a short first interval
        a2 = cf.step_function(PI, [(0.0, 0.22, 5.0), (0.22, PI, 0.026)])
        cert = ly.certify_linf_first_zone(a2)
        assert cert.holds
        v = fq.classify(a2, 0.0)
        assert v.kind == "Stable"


def test_criterion_11_nonlinear():
    with _Criterion(11, "nonlinear fixtures: certify, shoot, resonate"):
        p = nl.NonlinearProblem(
            ex.parse("1.5*u + 0.1*sin(u) + cos(2*x)", variables=("x", "u")),
            T,
            fu=ex.parse("1.5 + 0.1*cos(u)", variables=("x", "u")),
            alpha_env=cf.constant(1.4, T), beta_env=cf.constant(1.6, T),
            u_box=(-20.0, 20.0))
        assert nl.check_l1_hypotheses(p, 1).holds
        r = nl.solve_periodic(p, starts=16)
        assert r.unique and r.solutions[0].residual < 1e-8
        lin = nl.NonlinearProblem(
            ex.parse("2*u - 2*sin(x)", variables=("x", "u")), T)
        s = nl.solve_periodic(lin).solutions[0]
        assert abs(s.u0 - 0.0) < 1e-7 and abs(s.du0 - 2.0) < 1e-7
        res = nl.NonlinearProblem(
            ex.parse("u + sin(x)", variables=("x", "u")), T)
        with pytest.raises(NoConvergence):
            nl.solve_periodic(res)
