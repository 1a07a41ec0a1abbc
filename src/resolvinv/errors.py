"""Exception hierarchy for resolvinv."""


class ResolvinvError(Exception):
    """Base class for all library errors."""


class EmptyInputError(ResolvinvError):
    """An operation received an empty point set or series."""


class PoleEvaluationError(ResolvinvError):
    """Evaluation was requested at (or too close to) a pole."""

    def __init__(self, pole, z):
        self.pole = pole
        self.z = z
        super().__init__(f"evaluation point {z} coincides with pole {pole}")


class DegenerateSeriesError(ResolvinvError):
    """The coefficient sum vanishes, so no affine inverse part exists."""


class HypothesisError(ResolvinvError):
    """Inputs violate the hypotheses of the inversion theorem
    (nonnegative real coefficients with positive sum, distinct poles, ...)."""


class SeparationError(ResolvinvError):
    """The pole hull is not separated from the operator spectrum;
    the configuration is ill posed for left inversion."""


class SingularResolventError(ResolvinvError):
    """A resolvent solve was requested at a point on or too near the spectrum."""


class SingularTransferError(ResolvinvError):
    """The filter characteristic polynomial vanishes at a grid frequency."""


class SingularOperatorError(ResolvinvError):
    """The operator matrix is singular where invertibility is required."""


class ConditioningError(ResolvinvError):
    """A numerical subproblem was too ill conditioned to trust."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class MalformedSpecError(ResolvinvError):
    """A filter or problem specification is structurally invalid."""


class InvalidInputError(MalformedSpecError, ValueError):
    """An argument lies outside its domain: a grid without extent, data
    of the wrong length, an unordered regularization grid, a negative
    margin, a non-finite point."""


class RepeatedPoleError(HypothesisError, ValueError):
    """Two terms of a series share a pole."""


class RepeatedRootError(HypothesisError):
    """The characteristic polynomial has a repeated root where distinct
    roots are required."""


class ConstructionError(ResolvinvError):
    """The requested counterexample target lies outside the pole hull
    or coincides with a pole."""
