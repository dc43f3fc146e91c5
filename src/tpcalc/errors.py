"""Exception types shared across the package, and the one resource policy."""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


class TpcalcError(Exception):
    """Base class for package-specific errors."""


class ParameterError(TpcalcError, ValueError):
    """A constructor or operation received invalid parameters."""


class PreconditionError(TpcalcError, ValueError):
    """An operation's stated precondition does not hold."""


class SizeLimitError(TpcalcError):
    """A group exceeded the active `Limits`; `check_limit` raises it first."""


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


@dataclass(frozen=True)
class Limits:
    """The resource policy, one value per command (see `using`)."""
    order: int = 256     # largest group whose subgroups are enumerated or compared
    table: int = 20_000  # most elements a builder may allocate a Cayley table for


LIMITS: ContextVar[Limits] = ContextVar("limits", default=Limits())


@contextmanager
def using(limits: Limits):
    """Make `limits` the active Limits inside the with-block."""
    token = LIMITS.set(limits)
    try:
        yield
    finally:
        LIMITS.reset(token)


def check_limit(n: int, kind: str, what: str = "group") -> None:
    """Raise SizeLimitError, naming `what`, if n exceeds the active `kind` limit."""
    limit = getattr(LIMITS.get(), kind)
    if n > limit:
        raise SizeLimitError(f"{what} exceeded {limit} elements ({n} > {kind} limit)")
