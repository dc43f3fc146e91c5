"""Exception types shared across the package."""


class TpcalcError(Exception):
    """Base class for package-specific errors."""


class ParameterError(TpcalcError, ValueError):
    """A constructor or operation received invalid parameters."""


class PreconditionError(TpcalcError, ValueError):
    """An operation's stated precondition does not hold."""


class SizeLimitError(TpcalcError):
    """An operation exceeded its configured size cap."""


class BudgetError(SizeLimitError):
    """An enumeration exceeded its configured work budget."""


class ActionError(ParameterError):
    """A semidirect-product action failed homomorphism/automorphism validation.
    The action is named in the builder expression, so this is bad input."""


class NormalityError(PreconditionError):
    """A quotient was requested by a subgroup that is not normal."""


class FormatError(TpcalcError, ValueError):
    """A text input (Cayley table, generator file, catalog file) failed to parse."""


class VerificationError(TpcalcError):
    """An internal cross-check that must always hold failed."""
