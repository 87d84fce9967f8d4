"""Stability certification for Hill's equation u'' + (mu + a(x)) u = 0.

The package pairs two independent routes to the same facts:

* ``floquet`` computes ground truth -- monodromy, discriminant, periodic
  and antiperiodic eigenvalues, stability verdicts;
* ``lyapunov`` certifies stability from integral conditions on the
  coefficient alone, using the sharp L1 and Linf constants.

``witness`` builds the extremal families showing those constants cannot be
improved, ``zeros`` checks the zero-structure theorems behind them, and
``nonlinear`` carries the hypothesis checks and shooting solver for the
nonlinear periodic problem u'' + f(x, u) = 0.
"""

from importlib.metadata import PackageNotFoundError, version

try:
    __version__ = version("hillstab")
except PackageNotFoundError:  # running from a source tree
    __version__ = "0.0.0"

from .coeff import (  # noqa: F401
    DominanceReport,
    PeriodicCoefficient,
    constant,
    dominates,
    from_expression,
    integral,
    l1_distance,
    linf_norm,
    mean,
    step_function,
)
from .errors import HillstabError  # noqa: F401
from .floquet import (  # noqa: F401
    SpectrumSlice,
    StabilityVerdict,
    antiperiodic_eigenvalues,
    check_interlacing,
    classify,
    discriminant,
    edge_count,
    eigenfunction,
    monodromy,
    periodic_eigenvalues,
    spectrum,
)
from .lyapunov import (  # noqa: F401
    Certificate,
    beta1,
    beta1_anti,
    certify_all,
    certify_l1_antiperiodic,
    certify_l1_periodic,
    certify_linf_first_zone,
    certify_linf_periodic,
    certify_zone_kp,
    classical_16T,
    constants_table,
    gamma1,
    gamma1_anti,
    lambda_anti_const,
    lambda_const,
    zhang,
    zone_rhs,
)
