"""Exception types shared across the library."""


class RamcountError(Exception):
    """Base class for all library-specific errors."""


class NonPrimeError(RamcountError):
    """A field characteristic was not a prime number."""


class PrimalityRangeError(RamcountError):
    """A number lies beyond the range where primality is decided exactly."""


class MixedFieldsError(RamcountError):
    """Operands belong to different fields."""


class MixedRingsError(RamcountError):
    """Operands belong to different Witt rings."""


class GroupTooLargeError(RamcountError):
    """Group order exceeds the supported bound."""


class BudgetExceededError(RamcountError):
    """An exhaustive enumeration would exceed the configured budget."""


class NotTotallyRamifiedError(RamcountError):
    """The reduction pair does not have full inertia image."""


class OddPrimeRequiredError(RamcountError):
    """The construction requires an odd prime."""


class InternalInconsistencyError(RamcountError):
    """Two computations of the same quantity disagreed; surfaced, not patched."""
