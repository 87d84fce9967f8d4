"""Exception types shared across the package."""


class HillstabError(Exception):
    """Base class for all package errors."""


class ParseError(HillstabError):
    """Malformed expression or coefficient document."""


class NonFiniteValue(HillstabError):
    """Expression evaluated to inf/NaN at a point not declared removable."""


class QuadratureFailure(HillstabError):
    """Adaptive quadrature did not reach tolerance within its budget."""


class RootSearchFailure(HillstabError):
    """Eigenvalue search could not bracket, part or find a requested band edge."""


class IntegrationFailure(HillstabError):
    """ODE integrator failed (step-size collapse or solver error)."""


class NotAnEigenvalue(HillstabError):
    """Requested eigenfunction at a value that is not an eigenvalue."""


class DegenerateSolution(HillstabError):
    """u and u' vanish simultaneously; impossible for nontrivial solutions."""


class DegenerateDenominator(HillstabError):
    """Boundary value in a Rayleigh-type quotient is numerically zero."""


class DomainError(HillstabError):
    """Arguments outside the validity range of a closed-form constant."""


class MissingEnvelopes(HillstabError):
    """Nonlinear hypothesis check requires alpha/beta envelopes."""


class NoConvergence(HillstabError):
    """No shooting start converged to a periodic solution."""
