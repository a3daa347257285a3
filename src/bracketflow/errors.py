"""Exception hierarchy shared by all modules."""


class BracketFlowError(Exception):
    """Base class for all errors raised by this package."""


class SingularGauge(BracketFlowError):
    """Change-of-basis matrix is numerically singular."""


class NotALieBracket(BracketFlowError):
    """Operation requires the Jacobi identity but the residual is too large."""


class NotSolvable(BracketFlowError):
    """Operation requires a solvable Lie bracket."""


class NilpotentInput(BracketFlowError):
    """Operation requires a non-nilpotent solvable bracket (rank >= 1)."""


class ZeroBracket(BracketFlowError):
    """Operation is undefined for the zero bracket."""


class MaxStepsExceeded(BracketFlowError):
    """Iteration budget exhausted; carries the partial result."""

    def __init__(self, message, result=None, residual=None):
        super().__init__(message)
        self.result = result
        self.residual = residual


class NonCanonicalBeta(BracketFlowError):
    """Stratum data must be in diagonal, ascending-eigenvalue form."""


class GaugeMismatch(BracketFlowError):
    """Bracket is not gauged correctly with respect to the given stratum."""


class IdentityViolation(BracketFlowError):
    """A structural identity that certified input must satisfy failed."""


class NotPositiveDefinite(BracketFlowError):
    """Matrix expected to be positive definite is not."""


class OutOfRange(BracketFlowError):
    """Requested time or parameter lies outside the computed range."""


class UnknownName(BracketFlowError):
    """Catalog lookup with an unregistered name."""


class ParamOutOfRange(BracketFlowError):
    """Catalog parameter violates its documented constraint."""


class NonConvergence(BracketFlowError):
    """Experiment driver could not flow every seed to convergence."""

    def __init__(self, message, failing_seeds=()):
        super().__init__(message)
        self.failing_seeds = tuple(failing_seeds)
