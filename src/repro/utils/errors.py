"""Exception hierarchy for the ``repro`` library.

All library-raised errors derive from :class:`ReproError` so that callers can
catch everything originating from this package with a single ``except``
clause, while still distinguishing parameter problems from numerical ones.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidParameterError(ReproError, ValueError):
    """A user-supplied parameter is outside its documented domain."""


class InvalidDistributionError(ReproError, ValueError):
    """A vector that must be a probability distribution is not one."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative computation failed to converge within its budget."""


class InvariantError(ReproError, RuntimeError):
    """A simulation's state broke an invariant its law guarantees.

    For example, live counts that no longer describe ``n`` agents.
    """


class FabricUnavailable(RuntimeError):
    """The execution environment failed, not the task: the fabric
    coordinator could not be reached (retryable transport failure) or a
    local pool worker died mid-task.  Defined here so catching it loads
    no HTTP stack."""
