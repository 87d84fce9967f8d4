"""Computations made apart from hillstab, used to check its outputs.

Nothing here imports hillstab.  Coefficients are described by the
benchmark's own model: each piece of [0, T) is a sum of terms
``c * cos(nu * x + phi)`` (``nu = 0`` gives a constant).  From that model
the benchmark writes the program's coefficient files and computes

* Fourier coefficients in closed form and Hill (Fourier) matrices, whose
  eigenvalues are the periodic / antiperiodic eigenvalues;
* the discriminant from exact 2x2 blocks on constant pieces and
  ``scipy.integrate.solve_ivp`` on a numpy right-hand side elsewhere,
  vectorised over an array of mu;
* reference spectra of piecewise coefficients by a dense scan of that
  discriminant;
* the witness norms of ``a_eps`` by ``scipy.integrate.quad``;
* periodic solutions of ``u'' + c u + d sin u + F(x) = 0`` by Fourier
  collocation and Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq, minimize_scalar

#: local tolerance of the reference integrator
ODE_TOL = 1e-12


# -- coefficient model --------------------------------------------------------

@dataclass(frozen=True)
class Coeff:
    """T-periodic coefficient; pieces are (start, end, ((c, nu, phi), ...))."""

    period: float
    pieces: tuple

    def piece_is_constant(self, terms) -> bool:
        return all(nu == 0.0 for _, nu, _ in terms)

    def is_constant(self) -> bool:
        return all(self.piece_is_constant(t) for _, _, t in self.pieces)

    def is_piecewise(self) -> bool:
        """Anything but a single trigonometric polynomial over the period."""
        return len(self.pieces) > 1 or self.is_constant()

    @staticmethod
    def term_text(c: float, nu: float, phi: float) -> str:
        if nu == 0.0:
            return repr(c * math.cos(phi))
        if phi == 0.0:
            return f"{c!r}*cos({nu!r}*x)"
        return f"{c!r}*cos({nu!r}*x + {phi!r})"

    def to_doc(self) -> dict:
        return {
            "period": self.period,
            "pieces": [{"from": s, "to": e,
                        "expr": " + ".join(self.term_text(*t) for t in terms)}
                       for s, e, terms in self.pieces],
            "removable": [],
        }

    @staticmethod
    def piece_values(terms, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, nu, phi in terms:
            out = out + c * np.cos(nu * x + phi)
        return out

    def mean(self) -> float:
        return float(self.fourier(np.array([0]))[0].real)

    def sup_abs(self) -> float:
        return float(sum(abs(c) for _, _, terms in self.pieces
                         for c, _, _ in terms))

    def fourier(self, m: np.ndarray) -> np.ndarray:
        """c_m = (1/T) int_0^T a(x) exp(-2 pi i m x / T) dx, in closed form."""
        T = self.period
        m = np.asarray(m, dtype=float)
        out = np.zeros(m.shape, dtype=complex)
        for s, e, terms in self.pieces:
            for c, nu, phi in terms:
                for sign in (1.0, -1.0):
                    kappa = sign * nu - 2 * math.pi * m / T
                    out += 0.5 * c * np.exp(1j * sign * phi) * \
                        _exp_integral(kappa, s, e)
        return out / T


def _exp_integral(kappa: np.ndarray, s: float, e: float) -> np.ndarray:
    """int_s^e exp(i kappa x) dx, elementwise; a Taylor form for tiny kappa."""
    kappa = np.asarray(kappa, dtype=float)
    small = np.abs(kappa) < 1e-9
    safe = np.where(small, 1.0, kappa)
    exact = (np.exp(1j * safe * e) - np.exp(1j * safe * s)) / (1j * safe)
    taylor = (e - s) + 0.5j * kappa * (e * e - s * s)
    return np.where(small, taylor, exact)


def trig_poly(period: float, terms) -> Coeff:
    return Coeff(period, ((0.0, period, tuple(terms)),))


def step(period: float, plateaus) -> Coeff:
    return Coeff(period, tuple((s, e, ((v, 0.0, 0.0),))
                               for s, e, v in plateaus))


# -- Hill matrix --------------------------------------------------------------

def hill_eigenvalues(a: Coeff, bc: str, count: int, modes: int) -> np.ndarray:
    """Lowest `count` eigenvalues of -u'' - a u = mu u in 2 modes + 1 waves.

    Periodic: exp(2 pi i k x / T); antiperiodic: exp(pi i (2k+1) x / T).
    The matrix is diag(freq^2) - [c_{j-l}], Hermitian, so eigvalsh applies.
    """
    T = a.period
    if bc == "periodic":
        k = np.arange(-modes, modes + 1)
        freq = 2 * math.pi * k / T
    else:
        k = np.arange(-modes - 1, modes + 1)
        freq = math.pi * (2 * k + 1) / T
    diff = k[:, None] - k[None, :]
    cm = a.fourier(np.arange(-2 * modes - 1, 2 * modes + 2))
    C = cm[diff + 2 * modes + 1]
    H = np.diag(freq ** 2).astype(complex) - C
    return np.linalg.eigvalsh(H)[:count]


# -- discriminant -------------------------------------------------------------

def const_blocks(q: np.ndarray, L: float) -> np.ndarray:
    """Exact transfer matrices of u'' + q u = 0 over length L, (K, 2, 2)."""
    q = np.asarray(q, dtype=float)
    w = np.sqrt(np.abs(q))
    wl = w * L
    pos = q > 0
    c = np.where(pos, np.cos(wl), np.cosh(wl))
    # sin(wL)/w and sinh(wL)/w, stable as w -> 0
    s_over_w = np.where(pos, L * np.sinc(wl / math.pi),
                        np.where(wl < 1e-8, L,
                                 np.sinh(wl) / np.where(w > 0, w, 1.0)))
    w_s = np.where(pos, -w * np.sin(wl), w * np.sinh(wl))
    M = np.empty(q.shape + (2, 2))
    M[..., 0, 0] = c
    M[..., 0, 1] = s_over_w
    M[..., 1, 0] = w_s
    M[..., 1, 1] = c
    return M


def _ode_blocks(terms, mus: np.ndarray, s: float, e: float) -> np.ndarray:
    """Transfer matrices over [s, e] by DOP853, all mu in one system."""
    K = mus.size

    def rhs(x, y):
        y = y.reshape(K, 4)
        q = mus + Coeff.piece_values(terms, x)
        return np.stack([y[:, 1], -q * y[:, 0], y[:, 3], -q * y[:, 2]],
                        axis=1).ravel()

    y0 = np.tile([1.0, 0.0, 0.0, 1.0], K)
    sol = solve_ivp(rhs, (s, e), y0, method="DOP853", rtol=ODE_TOL,
                    atol=ODE_TOL, t_eval=[e])
    if not sol.success:
        raise RuntimeError(f"reference integrator failed: {sol.message}")
    y = sol.y[:, -1].reshape(K, 4)
    M = np.empty((K, 2, 2))
    M[:, 0, 0], M[:, 1, 0] = y[:, 0], y[:, 1]
    M[:, 0, 1], M[:, 1, 1] = y[:, 2], y[:, 3]
    return M


def monodromy(a: Coeff, mus) -> np.ndarray:
    """Monodromy matrices for every mu, shape (K, 2, 2)."""
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    M = np.broadcast_to(np.eye(2), mus.shape + (2, 2)).copy()
    for s, e, terms in a.pieces:
        if a.piece_is_constant(terms):
            B = const_blocks(mus + Coeff.piece_values(terms, 0.0), e - s)
        else:
            B = _ode_blocks(terms, mus, s, e)
        M = B @ M
    return M


def discriminant(a: Coeff, mus) -> np.ndarray:
    M = monodromy(a, mus)
    return M[:, 0, 0] + M[:, 1, 1]


def discriminant_slope(a: Coeff, mu: float, h: float = 1e-6) -> float:
    d = discriminant(a, [mu - h, mu + h])
    return float((d[1] - d[0]) / (2 * h))


# -- reference spectra --------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """Periodic and antiperiodic eigenvalues below some mu, ascending."""

    periodic: tuple
    antiperiodic: tuple

    def edges(self) -> np.ndarray:
        return np.sort(np.array(self.periodic + self.antiperiodic))


def spectrum_from_hill(a: Coeff, mu_hi: float, modes: int = 48) -> Spectrum:
    """Eigenvalues below mu_hi of a trigonometric polynomial.

    For a finite Fourier series the Hill matrix converges faster than any
    power of `modes`; 48 modes resolve mu up to a few hundred to 1e-12.
    """
    p = hill_eigenvalues(a, "periodic", 2 * modes + 1, modes)
    ap = hill_eigenvalues(a, "antiperiodic", 2 * modes + 2, modes)
    return Spectrum(tuple(float(v) for v in p if v < mu_hi),
                    tuple(float(v) for v in ap if v < mu_hi))


def _roots(a: Coeff, mus, vals, sign: float, near: float) -> list:
    """Roots of g = sign * Delta - 2 on a grid, refined by brentq.

    Sign changes are simple edges.  Where g has an interior local maximum
    below 0 but within `near` of it, a gap may hide between grid points:
    the maximum is refined, and it is a double root when it reaches 0
    within 1e-11, or a pair of simple roots when it crosses 0.
    """
    def g(mu):
        return sign * float(discriminant(a, [mu])[0]) - 2.0

    gv = sign * vals - 2.0
    out = []
    for i in range(len(mus) - 1):
        if gv[i] * gv[i + 1] < 0:
            out.append(brentq(g, mus[i], mus[i + 1], xtol=1e-13))
    for i in range(1, len(mus) - 1):
        if gv[i] == 0.0 and gv[i - 1] * gv[i + 1] < 0:
            out.append(float(mus[i]))
        if not (gv[i - 1] < gv[i] >= gv[i + 1] and -near < gv[i] <= 0):
            continue
        lo, hi = float(mus[i - 1]), float(mus[i + 1])
        res = minimize_scalar(lambda m: -g(m), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-13})
        top = -res.fun
        if top > 0:
            out += [brentq(g, lo, res.x, xtol=1e-13),
                    brentq(g, res.x, hi, xtol=1e-13)]
        elif top > -1e-11:
            out += [float(res.x)] * 2
    return sorted(out)


def spectrum_from_scan(a: Coeff, mu_hi: float, step: float) -> Spectrum:
    """Eigenvalues below mu_hi from a grid scan of the reference discriminant.

    Near a double root g ~ -kappa (mu - lam)^2 with kappa <= T^2 / 4 for
    mu + mean >= 1, so the grid point nearest to it has g >= -T^2 step^2 / 16;
    local maxima within four times that of 0 are refined.
    """
    mu_lo = -a.sup_abs() - 1.0
    mus = np.arange(mu_lo, mu_hi + step, step)
    vals = discriminant(a, mus)
    near = a.period ** 2 * step ** 2 / 4
    return Spectrum(
        tuple(v for v in _roots(a, mus, vals, 1.0, near) if v < mu_hi),
        tuple(v for v in _roots(a, mus, vals, -1.0, near) if v < mu_hi))


def eigenvalue_tolerance(mu: float, mean: float, period: float,
                         delta_error: float = 1e-11) -> float:
    """How far a computed eigenvalue may sit from the true one.

    Near a closing gap Delta - 2 ~ -kappa (mu - l1)(mu - l2) with
    kappa ~ |Delta''| / 2 ~ T^2 / (4 (mu + mean)) (the constant-coefficient
    value of 2 cos(T sqrt(mu + mean))).  A discriminant known to within
    `delta_error` cannot tell the two edges apart once kappa g^2 / 4 falls
    below it, so either edge may be reported anywhere in a window of
    half-width sqrt(delta_error / kappa).
    """
    kappa = period ** 2 / (4 * max(mu + mean, 1.0))
    return math.sqrt(delta_error / kappa) + 1e-9 * (1 + abs(mu))


# -- witness a_eps ------------------------------------------------------------

def witness_layer(n: int, T: float, eps: float):
    """a_0 = -u_0''/u_0 on [0, eps] and the constant lam_{2n-1}.

    u_0(x) = -sin(w (x - q)) + (w C / (3 eps^2)) (x - eps)^3 with
    w = 2 n pi / T, q = T / (4 (n + 1)), C = cos(n pi / (2 (n + 1))).
    """
    w = 2 * n * math.pi / T
    q = T / (4 * (n + 1))
    C = math.cos(n * math.pi / (2 * (n + 1)))
    k = w * C / (3 * eps ** 2)

    def a0(x):
        u = -math.sin(w * (x - q)) + k * (x - eps) ** 3
        d2u = w * w * math.sin(w * (x - q)) + 6 * k * (x - eps)
        return -d2u / u

    return a0, w * w


def witness_norms(n: int, T: float, eps: float) -> tuple[float, float]:
    """(||a_eps||_L1, ||a_eps - lam_{2n-1}||_L1) from the 4(n+1) layers."""
    a0, lam = witness_layer(n, T, eps)
    layers = 4 * (n + 1)
    opts = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 200}
    abs_int = quad(lambda x: abs(a0(x)), 0.0, eps, **opts)[0]
    dist_int = quad(lambda x: abs(a0(x) - lam), 0.0, eps, **opts)[0]
    return lam * (T - layers * eps) + layers * abs_int, layers * dist_int


def beta1(n: int, T: float) -> float:
    return (8 * math.pi * n * (n + 1) / T) / \
        math.tan(n * math.pi / (2 * (n + 1)))


def lambda_double(n: int, T: float) -> float:
    return (2 * n * math.pi / T) ** 2


# -- nonlinear periodic problems ----------------------------------------------

@dataclass(frozen=True)
class Pendulum:
    """u'' + c u + d sin(u) + sum_j A_j cos(k_j x + p_j) = 0, period T."""

    c: float
    d: float
    forcing: tuple  # ((A, k, p), ...)
    period: float

    def f(self, x, u):
        x = np.asarray(x, dtype=float)
        out = self.c * u + self.d * np.sin(u)
        for A, k, p in self.forcing:
            out = out + A * np.cos(k * x + p)
        return out


def collocation_solve(p: Pendulum, points: int = 96, tol: float = 1e-11):
    """Periodic solution by Fourier collocation; returns (u(0), u'(0), u).

    Newton on D2 u + f(x, u) = 0 at `points` equispaced nodes, where D2 is
    the spectral second-derivative matrix; starts from u = 0.
    """
    T = p.period
    x = np.arange(points) * T / points
    k = np.fft.fftfreq(points, d=1.0 / points) * 2 * math.pi / T
    eye = np.eye(points)
    D1 = np.real(np.fft.ifft(1j * k[:, None] * np.fft.fft(eye, axis=0),
                             axis=0))
    D2 = np.real(np.fft.ifft(-(k ** 2)[:, None] * np.fft.fft(eye, axis=0),
                             axis=0))
    u = np.zeros(points)
    for _ in range(60):
        G = D2 @ u + p.f(x, u)
        J = D2 + np.diag(p.c + p.d * np.cos(u))
        du = np.linalg.solve(J, G)
        u = u - du
        if np.max(np.abs(du)) < tol * (1 + np.max(np.abs(u))):
            break
    else:
        raise RuntimeError("collocation Newton did not converge")
    return float(u[0]), float((D1 @ u)[0]), u


def periodicity_defect(p: Pendulum, u0: float, du0: float) -> float:
    """|(u, u')(T) - (u, u')(0)| with the reference integrator."""
    def rhs(x, y):
        return [y[1], -float(p.f(x, y[0]))]

    sol = solve_ivp(rhs, (0.0, p.period), [u0, du0], method="DOP853",
                    rtol=ODE_TOL, atol=ODE_TOL)
    if not sol.success:
        raise RuntimeError(f"reference integrator failed: {sol.message}")
    return float(np.hypot(sol.y[0, -1] - u0, sol.y[1, -1] - du0))
