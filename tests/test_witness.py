import math

import numpy as np
import pytest

from hillstab import coeff as cf
from hillstab import constants as cn
from hillstab import floquet as fq
from hillstab import witness as wt
from hillstab.errors import DomainError

T = 2 * math.pi


def test_eps_validation():
    with pytest.raises(DomainError):
        wt.make_a_eps(1, T, 0.0)
    with pytest.raises(DomainError):
        wt.make_a_eps(1, T, T / 8)  # at the cap
    with pytest.raises(DomainError):
        wt.make_a_eps(0, T, 0.01)


@pytest.mark.parametrize("n,eps", [(1, 0.05), (2, 0.03), (1, 0.2)])
def test_u_eps_is_C2_across_seams(n, eps):
    u = wt.make_u_eps(n, T, eps)
    du = wt.derivative(u)
    ddu = wt.derivative(u, 2)
    # the one-sided samples sit 1e-10 away from the seam, so the comparison
    # picks up ~|f'| * 2e-10 of smooth variation on top of any true jump;
    # layer derivatives scale like 1/eps^2
    for b in u.breakpoints()[1:-1]:
        for f, tol in ((u, 1e-9), (du, 1e-7), (ddu, 1e-5)):
            left = f.eval(float(b) - 1e-10)
            right = f.eval(float(b) + 1e-10)
            assert left == pytest.approx(right, abs=tol)


def test_u_eps_periodic_closure():
    u = wt.make_u_eps(1, T, 0.05)
    du = wt.derivative(u)
    assert u.eval(1e-12) == pytest.approx(u.eval(T - 1e-12), abs=1e-8)
    assert du.eval(1e-12) == pytest.approx(du.eval(T - 1e-12), abs=1e-8)


@pytest.mark.parametrize("n", [1, 2])
def test_a_eps_solves_the_equation(n):
    eps = 0.04
    u, a = wt.make_u_eps(n, T, eps), wt.make_a_eps(n, T, eps)
    ddu = wt.derivative(u, 2)
    xs = np.linspace(1e-6, T - 1e-6, 1500)
    res = [abs(ddu.eval(float(x)) + a.eval(float(x)) * u.eval(float(x)))
           for x in xs]
    assert max(res) < 1e-9


def test_a_eps_constant_away_from_layers():
    n, eps = 1, 0.05
    a = wt.make_a_eps(n, T, eps)
    lam = cn.lambda_const(n, T)
    q = T / (4 * (n + 1))
    for x in np.linspace(eps + 1e-3, 2 * q - eps - 1e-3, 50):
        assert a.eval(float(x)) == pytest.approx(lam, abs=1e-12)


def test_a_eps_zero_is_periodic_eigenvalue():
    # u_eps is a T-periodic solution at mu = 0, so Delta(0) = 2
    for eps in (0.05, 0.01):
        a = wt.make_a_eps(1, T, eps)
        assert fq.discriminant(a, 0.0) == pytest.approx(2.0, abs=1e-6)


def test_tightness_monotone_to_beta1():
    n = 1
    b1 = cn.beta1(n, T)
    sweep = wt.tightness_sweep(n, T, [0.1, 0.05, 0.02, 0.01])
    dists = [d for _, d in sweep]
    assert all(d > b1 for d in dists)  # non-attainment
    assert all(b < a for a, b in zip(dists, dists[1:]))  # decreasing
    assert dists[-1] - b1 < 0.1


def test_two_step_shape():
    a = wt.make_two_step(1.0, 1.0)
    assert a.period == pytest.approx(math.pi)
    assert a.eval(0.5) == pytest.approx(1.0)
    assert a.eval(2.0) == pytest.approx(1.0 / (math.pi - 1.0) ** 2)


#: the expr strings of the first six pieces of a_eps(1, 2pi, 0.35), as
#: `witness a-eps --n 1 --eps 0.35` prints them: the layer at 0 as built,
#: then a constant, a reflection, a shift, a constant and a reflection
A_EPS_PIECES = [
    ("((-((-(-sin((1.0 * (x - 0.7853981633974483))))) + "
     "(1.9241000848613543 * (3.0 * (2.0 * ((x - 0.35) ^ 1)))))) / "
     "((-sin((1.0 * (x - 0.7853981633974483)))) + "
     "(1.9241000848613543 * ((x - 0.35) ^ 3))))"),
    "1.0",
    ("((-((-(-sin(((1.5707963267948966 - x) - "
     "0.7853981633974483)))) + (1.9241000848613543 * (3.0 * (2.0 * "
     "(((1.5707963267948966 - x) - 0.35) ^ 1)))))) / "
     "((-sin(((1.5707963267948966 - x) - 0.7853981633974483))) + "
     "(1.9241000848613543 * (((1.5707963267948966 - x) - 0.35) ^ "
     "3))))"),
    ("((-((-(-sin(((x + -1.5707963267948966) - "
     "0.7853981633974483)))) + (1.9241000848613543 * (3.0 * (2.0 * "
     "(((x + -1.5707963267948966) - 0.35) ^ 1)))))) / ((-sin(((x + "
     "-1.5707963267948966) - 0.7853981633974483))) + "
     "(1.9241000848613543 * (((x + -1.5707963267948966) - 0.35) ^ "
     "3))))"),
    "1.0",
    ("((-((-(-sin(((pi - x) - 0.7853981633974483)))) + "
     "(1.9241000848613543 * (3.0 * (2.0 * (((pi - x) - 0.35) ^ "
     "1)))))) / ((-sin(((pi - x) - 0.7853981633974483))) + "
     "(1.9241000848613543 * (((pi - x) - 0.35) ^ 3))))"),
]


def test_witness_piece_strings_pinned():
    pieces = wt.make_a_eps(1, T, 0.35).to_dict()["pieces"][:6]
    assert [p["expr"] for p in pieces] == A_EPS_PIECES


def test_determinants_match_assembled_systems():
    rng = np.random.default_rng(3)
    for _ in range(40):
        x0 = rng.uniform(0.1, math.pi - 0.1)
        al = rng.uniform(0.1, 3.0)
        assert wt.anti_determinant(al, x0) == pytest.approx(
            wt.anti_determinant_assembled(al, x0), abs=1e-10)
        al = rng.uniform(0.1, math.pi - 0.05)
        assert wt.periodic_determinant(al, x0) == pytest.approx(
            wt.periodic_determinant_assembled(al, x0), abs=1e-10)


def test_anti_determinant_roots():
    for alpha in (math.pi / 6, math.pi / 4, math.pi / 3):
        lo, hi = wt.anti_resonant_x0(alpha)
        assert wt.anti_determinant(alpha, lo) == pytest.approx(0.0, abs=1e-12)
        assert wt.anti_determinant(alpha, hi) == pytest.approx(0.0, abs=1e-12)


def test_periodic_determinant_positive_grid():
    alphas = np.linspace(0.05, math.pi - 0.05, 30)
    x0s = np.linspace(0.05, math.pi - 0.05, 30)
    for al in alphas:
        for x0 in x0s:
            assert wt.periodic_determinant(float(al), float(x0)) > 0


def test_resonance_confirmed_by_monodromy():
    alpha = math.pi / 4
    for x0 in wt.anti_resonant_x0(alpha):
        a = wt.make_two_step(alpha, x0)
        assert abs(fq.discriminant(a, 0.0) + 2.0) < 1e-6
    # off-resonance: clearly away from -2
    a = wt.make_two_step(alpha, wt.anti_resonant_x0(alpha)[0] + 0.05)
    assert abs(fq.discriminant(a, 0.0) + 2.0) > 1e-4


def test_no_periodic_resonance_on_grid():
    # periodic determinant never vanishes: Delta(0) stays away from +2
    alphas = np.linspace(0.3, 2.6, 8)
    x0s = np.linspace(0.3, math.pi - 0.3, 8)
    for al in alphas:
        for x0 in x0s:
            a = wt.make_two_step(float(al), float(x0))
            assert abs(fq.discriminant(a, 0.0) - 2.0) > 1e-4


def test_anti_resonant_x0_domain():
    with pytest.raises(DomainError):
        wt.anti_resonant_x0(2.0)  # alpha >= pi/2
