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

The package holds only ``__version__``: each name is imported from the
module that defines it, as in ``from hillstab import coeff, floquet``.
"""

# kept equal to [project] version in pyproject.toml (a test checks it)
__version__ = "0.1.0"

