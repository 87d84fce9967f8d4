"""The two scipy functions hillstab calls, each imported on its first call.

Importing scipy.integrate costs about 0.5 s of a 0.8 s ``import
hillstab.cli`` and 81 MB of resident memory against 32 MB without it
(2-vCPU Xeon VM, Python 3.11, scipy 1.17).  Most commands never call
scipy: ``witness``, ``constants``, ``certify``, ``certify --verify``,
``eigs``, ``chart`` and ``zeros`` on constant pieces, and ``nonlinear
check`` work from the coefficient alone, and band edges and zeros are
refined by hillstab's own bracketed Newton method.  Only ODE integration
(``solve_ivp``) and the sampled quotient ``constants.j_functional``
(``simpson``, which no command calls) need it, so each function below
imports its scipy counterpart when it is first called and forwards to it
unchanged.  Modules import these names
instead of scipy's, so ``floquet.solve_ivp`` and ``nonlinear.solve_ivp``
stay module attributes that callers may patch.
"""


def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def simpson(*args, **kwargs):
    from scipy.integrate import simpson
    return simpson(*args, **kwargs)
