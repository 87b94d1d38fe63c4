"""Exception types shared across the solver stack."""


class MaxminError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(MaxminError):
    pass


class NonFinite(MaxminError):
    """A computation produced (or would produce) a non-finite value."""


class InfeasibleInput(MaxminError):
    """A point or parameter violates the domain constraints."""


class NormBoundViolated(MaxminError):
    """Matrix rows exceed the assumed p -> infinity operator norm bound."""


class BudgetExceeded(MaxminError):
    """Cumulative query movement exceeded the data structure's range."""


class PreconditionViolated(MaxminError):
    """A documented precondition failed; the message names the inequality."""


class RejectionStall(MaxminError):
    """Too many consecutive rejections; the estimator's good event failed."""


class GradientCallbackFailed(MaxminError):
    """The gradient estimator raised inside an inner-loop iteration."""


class IterationCapExceeded(MaxminError):
    """The outer loop exceeded ten times its expected iteration bound."""


class InvalidParams(MaxminError):
    pass
