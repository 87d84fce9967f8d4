"""hillstab's DOP853 against scipy's solve_ivp(method="DOP853"): the same
states at the same steps, bit for bit, the same right-hand-side calls, the
same verdict and message, and the same dense output."""

import math

import numpy as np
import pytest

from hillstab import _dop853

scipy_ivp = pytest.importorskip("scipy.integrate")
coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")


def both(fun, t_span, y0, **kwargs):
    """(scipy's result, hillstab's) of one integration, asserted equal."""
    want = scipy_ivp.solve_ivp(fun, t_span, y0, method="DOP853", **kwargs)
    got = _dop853.solve_ivp(fun, t_span, y0, **kwargs)
    assert got.y.shape == want.y.shape
    assert np.array_equal(got.y, want.y)
    assert got.nfev == want.nfev
    assert got.success == want.success
    assert got.message == want.message
    return want, got


def mathieu(mu):
    """The one-mu right-hand side of floquet's passes: u'' + q u = 0 for
    the two columns of the fundamental matrix, returned as a list."""
    def rhs(x, y):
        q = mu + 1.2 * math.cos(2 * x) + 0.4 * math.cos(4 * x)
        return [y[1], -q * y[0], y[3], -q * y[2]]
    return rhs


def rejected_steps(result, dense=False):
    """Step attempts rejected in a run: 2 calls pick the first step, each
    attempt makes 12 and each accepted step 3 more with dense output."""
    accepted = result.y.shape[1] - 1
    return (result.nfev - 2 - (15 if dense else 12) * accepted) // 12


def test_tableau_is_scipys():
    for name in ("A", "B", "C", "D", "E3", "E5"):
        assert np.array_equal(getattr(_dop853, name),
                              getattr(coefficients, name)), name


@pytest.mark.parametrize("mu", [-3.0, 0.5, 40.0])
@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_one_mu_list_rhs(mu, tol):
    both(mathieu(mu), (0.0, math.pi), [1.0, 0.0, 0.0, 1.0], rtol=tol,
         atol=tol, max_step=math.pi / 16)


def test_stacked_rhs_with_slope():
    # 3 mu, each with its fundamental matrix and its derivative in mu
    mus = np.array([0.5, 3.0, 17.0])

    def rhs(x, y):
        q = mus + 1.2 * np.cos(2 * x)
        y = y.reshape(8, 3)
        dy = np.empty_like(y)
        dy[0::2], dy[1::2] = y[1::2], -q * y[0::2]
        dy[5] -= y[0]
        dy[7] -= y[2]
        return dy.ravel()

    y0 = np.zeros((8, 3))
    y0[0] = y0[3] = 1.0
    tol = 1e-12 / math.sqrt(3)
    both(rhs, (0.3, 2.0), y0.ravel().tolist(), rtol=tol, atol=tol)


def test_dense_output():
    # at the step ends, both ends of the interval among them, and between
    # them, in and out of order, as an array and one point at a time
    want, got = both(mathieu(10.0), (0.5, 3.5), [1.0, 0.0, 0.0, 1.0],
                     rtol=1e-10, atol=1e-10, dense_output=True)
    ts = np.concatenate([want.t, np.linspace(0.5, 3.5, 1001), want.t[::-1]])
    assert np.array_equal(got.sol(ts), want.sol(ts))
    for t in (0.5, 3.5, want.t[1], 1.7):
        assert np.array_equal(got.sol(t), want.sol(t))


def test_rejected_step():
    # q rises by 60 within about 0.05 of x = 1: steps across it are rejected
    def rhs(x, y):
        q = 1.0 + 30.0 * math.tanh(20.0 * (x - 1.0))
        return [y[1], -q * y[0], y[3], -q * y[2]]

    want, got = both(rhs, (0.0, math.pi), [1.0, 0.0, 0.0, 1.0], rtol=1e-9,
                     atol=1e-9, dense_output=True)
    assert rejected_steps(got, dense=True) > 0
    ts = np.linspace(0.0, math.pi, 513)
    assert np.array_equal(got.sol(ts), want.sol(ts))


def test_overflow_fails_at_the_last_accepted_step():
    want, got = both(lambda x, y: [y[1], 1e6 * y[0] ** 3], (0.0, 10.0),
                     [1.0, 1.0], rtol=1e-9, atol=1e-9)
    assert not got.success
    assert got.message.startswith("Required step size")
    assert got.sol is None
    assert np.all(np.isfinite(got.y[:, -1])) and got.y[0, -1] > 1e10
