"""Exception hierarchy shared by all modules."""


class LowPrevError(Exception):
    """Base class for all library errors."""


class SpaceMismatchError(LowPrevError):
    """Objects defined on different possibility spaces were combined."""


class SureLossError(LowPrevError):
    """The assessment incurs sure loss: its credal set is empty."""


class CapExceededError(LowPrevError):
    """A combinatorial routine was asked to exceed its configured cap."""


class NoInvariantDominatorError(LowPrevError):
    """No invariant coherent prevision dominates the assessment."""


class NotAGroupError(LowPrevError):
    """The operation needs a group but the monoid is not one."""


class PositivityError(LowPrevError):
    """Updating was attempted on an observation with lower probability 0,
    or a fractional objective has a non-positive denominator somewhere on
    the feasible set."""


class NotStronglyInvariantError(LowPrevError):
    """Quotient extraction requires a strongly invariant assessment."""


class TruncatedClosureError(LowPrevError):
    """A closure, or a gamble's set of lifts, exceeded the monoid's cap."""


class ValidationError(LowPrevError):
    """A JSON document does not match the expected schema.

    ``path`` locates the offending fragment, e.g. ``items[2].lower``.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)
