"""Optimal L1 constants for the periodic and antiperiodic problems.

Closed forms: at the periodic eigenvalue lam_{2n-1} = 4 n^2 pi^2 / T^2 the
sharp L1 threshold on ||a - lam_{2n-1}|| is

    beta1(n, T)  = (8 pi n (n+1) / T) * cot(n pi / (2 (n+1)))       (n >= 1)
    beta1(0, T)  = 16 / T

and gamma1(n, T) = T lam_{2n-1} + beta1(n, T) is the corresponding bound on
||a||.  The antiperiodic analogues replace 2n by 2n-1.  The module also
carries the mixed-boundary Rayleigh quotient machinery behind these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, DomainError


def _cot(x: float) -> float:
    return math.cos(x) / math.sin(x)


def lambda_const(n: int, T: float) -> float:
    """Periodic double eigenvalue lam_{2n-1} = lam_{2n} = 4 n^2 pi^2 / T^2."""
    if n < 1 or T <= 0:
        raise DomainError("need n >= 1 and T > 0")
    return (2 * n * math.pi / T) ** 2


def lambda_anti_const(n: int, T: float) -> float:
    """Antiperiodic double eigenvalue (2n-1)^2 pi^2 / T^2."""
    if n < 1 or T <= 0:
        raise DomainError("need n >= 1 and T > 0")
    return ((2 * n - 1) * math.pi / T) ** 2


def beta1(n, T: float) -> float:
    """Sharp L1 constant at the periodic eigenvalue index n (16/T at n = 0).

    Accepts real n > 0 as well; the real extension is only used to probe the
    n -> 0+ limit and never for certification.
    """
    if T <= 0:
        raise DomainError("T must be positive")
    if n == 0:
        return 16.0 / T
    if n < 0:
        raise DomainError("n must be >= 0")
    return (8 * math.pi * n * (n + 1) / T) * _cot(n * math.pi / (2 * (n + 1)))


def gamma1(n: int, T: float) -> float:
    """T lam_{2n-1} + beta1(n, T): the L1 ball radius pinning the signs."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return T * lambda_const(n, T) + beta1(n, T)


def beta1_anti(n: int, T: float) -> float:
    """Sharp L1 constant for the antiperiodic problem (4/T at n = 0)."""
    if T <= 0:
        raise DomainError("T must be positive")
    if n == 0:
        return 4.0 / T
    if n < 0:
        raise DomainError("n must be >= 0")
    return (2 * math.pi * (2 * n - 1) * (2 * n + 1) / T) * \
        _cot((2 * n - 1) * math.pi / (2 * (2 * n + 1)))


def gamma1_anti(n: int, T: float) -> float:
    if n < 1:
        raise DomainError("n must be >= 1")
    return T * lambda_anti_const(n, T) + beta1_anti(n, T)


def zhang(n: int, T: float) -> float:
    """The earlier 16 (n+1)^2 / T threshold, strictly below gamma1(n, T)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return 16.0 * (n + 1) ** 2 / T


def zone_rhs(k: float, p: int, T: float) -> float:
    """kT + sqrt(k) 2 (p+1) cot(sqrt(k) T / (2 (p+1))), the k-p zone bound."""
    if k <= 0:
        raise DomainError("k must be positive")
    arg = math.sqrt(k) * T / (2 * (p + 1))
    if not 0 < arg < math.pi:
        raise DomainError("cot argument outside (0, pi)")
    return k * T + math.sqrt(k) * 2 * (p + 1) * _cot(arg)


@dataclass(frozen=True)
class ConstantsRow:
    n: int
    T: float
    lambda_2n_minus_1: float
    beta1: float
    gamma1: float
    beta1_anti: float | None
    gamma1_anti: float | None
    zhang: float | None


def constants_table(n_max: int, T: float) -> list[ConstantsRow]:
    rows = [ConstantsRow(0, T, 0.0, beta1(0, T), T * 0.0 + beta1(0, T),
                         beta1_anti(0, T), None, None)]
    for n in range(1, n_max + 1):
        rows.append(ConstantsRow(
            n, T, lambda_const(n, T), beta1(n, T), gamma1(n, T),
            beta1_anti(n, T), gamma1_anti(n, T), zhang(n, T)))
    return rows


# -- mixed-boundary Rayleigh quotient ----------------------------------------

def j_min(M: float, a: float, b: float) -> float:
    """Infimum of the quotient (int u'^2 - M int u^2) / u(b)^2 over u(a) = 0.

    Valid for 0 < M <= pi^2 / (4 (b-a)^2); the value is sqrt(M) cot(sqrt(M)(b-a)).
    """
    if not a < b:
        raise DomainError("need a < b")
    if not 0 < M <= math.pi ** 2 / (4 * (b - a) ** 2) * (1 + 1e-12):
        raise DomainError("M outside (0, pi^2 / (4 (b-a)^2)]")
    r = math.sqrt(M)
    return r * _cot(r * (b - a))


def j_functional(x: np.ndarray, u: np.ndarray, M: float,
                 du: np.ndarray | None = None) -> float:
    """Quotient (int u'^2 - M int u^2) / u(b)^2 for a sampled test function.

    x must be a fine uniform grid on [a, b] of an odd number of points, with
    u(a) = 0 and u(b) != 0; both integrals are composite Simpson sums over
    it.  The derivative is second-order finite-differenced unless supplied.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if len(x) < 3 or len(x) % 2 == 0:
        raise DomainError("the grid must hold an odd number of at least 3 "
                          "points")
    if abs(u[0]) > 1e-9:
        raise DomainError("test function must vanish at the left endpoint")
    if u[-1] ** 2 < 1e-18:
        raise DegenerateDenominator("u(b)^2 below threshold")
    dudx = np.gradient(u, x) if du is None else np.asarray(du, dtype=float)
    num = _simpson(dudx ** 2, x) - M * _simpson(u ** 2, x)
    return float(num / u[-1] ** 2)


def _simpson(f: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of the samples f on the uniform grid x of
    an odd number of points: h/3 (f_0 + 4 f_1 + 2 f_2 + ... + 4 f_n-1 + f_n)."""
    return (x[-1] - x[0]) / (3 * (len(x) - 1)) * (
        f[0] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum() + f[-1])
