"""The numerical settings of a run.  `current()` returns the settings in
effect; `use(**changes)` puts changed settings in effect for one ``with``
block and restores the previous ones when it ends, also when it raises."""

import contextlib
import contextvars
import dataclasses


@dataclasses.dataclass(frozen=True)
class Settings:
    quad: float = 1e-10  #: absolute tolerance for quadrature
    quad_budget: int = 1_000_000  #: evaluation budget for one quadrature call
    #: width in mu within which a band edge's Newton refinement stops
    root: float = 1e-10
    #: tolerance on |Delta| - 2 below which mu counts as a band edge
    boundary: float = 1e-7
    #: local ODE tolerance for non-constant pieces and for accepting a
    #: shooting root; Newton steps far from a root integrate as loosely as
    #: sqrt(ode)
    ode: float = 1e-12
    #: right-hand-side evaluation budget for one monodromy pass
    ode_budget: int = 250_000
    residual: float = 1e-8  #: periodicity residual accepted for a shooting solution
    cluster: float = 1e-6  #: initial-data distance merging two converged solutions
    sandwich_grid: int = 256  #: envelope verification grid: this many x by as many u
    #: uniform samples per period used for a.e. dominance checks
    dominance_samples: int = 1 << 14
    x0_grid: int = 1024  #: x0 grid resolution for the Linf certificates
    #: offset past a removable point at which its right-hand limit is taken
    removable_eps: float = 1e-9
    #: slack on non-strict L1 hypotheses (the sharp constants are not attained,
    #: so the bound itself is admissible)
    l1_slack: float = 1e-12
    sandwich_slack: float = 1e-10  #: envelope sandwich slack on the verification grid
    x_tol: float = 1e-10  #: x-resolution of zero locations
    endpoint_tol: float = 1e-8  #: endpoint zeros are asserted, not searched


_current = contextvars.ContextVar("settings", default=Settings())


def current() -> Settings:
    """The settings in effect."""
    return _current.get()


@contextlib.contextmanager
def use(**changes):
    """`changes` in effect for one ``with`` block; None keeps a setting."""
    token = _current.set(dataclasses.replace(
        current(), **{k: v for k, v in changes.items() if v is not None}))
    try:
        yield
    finally:
        _current.reset(token)
