"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing genuine programming errors (``TypeError`` etc.).
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidInstanceError(ReproError):
    """A problem instance violates a structural requirement.

    Examples: a task capacity below the minimum group size ``B``, a
    cooperation matrix whose shape does not match the worker count, or a
    negative speed.
    """


class ValidityError(ReproError):
    """An assignment pairs a worker with a task the worker cannot serve.

    Raised when a worker-task pair violates Definition 3 of the paper:
    the task is outside the worker's working area, or the worker cannot
    reach the task location before its deadline.
    """


class CapacityError(ReproError):
    """An assignment gives a task more workers than its capacity allows."""


class DegradedResultError(ReproError):
    """A budgeted solve answered with less than the primary's full solve.

    Only raised when the caller opted into strict mode
    (``FallbackSolver(on_degrade="raise")``); the default mode records
    the degradation and returns the degraded assignment instead.
    """
