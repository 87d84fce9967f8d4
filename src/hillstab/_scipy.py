"""The three scipy functions hillstab calls, each imported on its first call.

Importing scipy.integrate and scipy.optimize costs about 0.6 s of a 0.86 s
``import hillstab.cli`` and 80 MB of resident memory against 31 MB without
them (2-vCPU VM, Python 3.11, scipy 1.17).  Most commands never call scipy:
``witness``, ``constants``, ``certify``, ``certify --verify``, ``eigs`` and
``chart`` on constant pieces, and ``nonlinear check`` work from the
coefficient alone, and the band-edge search refines its roots itself, by
Newton's method on the discriminant and its slope.
Only the zero refinement of ``zeros`` (``brentq``), ODE integration
(``solve_ivp``) and the sampled quotient ``constants.j_functional``
(``simpson``, which no command calls) need it, so each function below
imports its scipy counterpart when it is first called and forwards to it
unchanged.  Modules import these names
instead of scipy's, so ``floquet.solve_ivp`` and ``nonlinear.solve_ivp``
stay module attributes that callers may patch.
"""


def brentq(*args, **kwargs):
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def simpson(*args, **kwargs):
    from scipy.integrate import simpson
    return simpson(*args, **kwargs)
