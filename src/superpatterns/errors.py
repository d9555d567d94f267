"""Exception types shared across the package."""

from __future__ import annotations


class PermutationError(ValueError):
    """A text or sequence does not describe a valid permutation."""


class NonIntegerTokenError(PermutationError):
    pass


class DuplicateValueError(PermutationError):
    pass


class ValueOutOfRangeError(PermutationError):
    pass


class InvalidEmbeddingError(ValueError):
    """Positions are not strictly increasing or fall outside the host."""


class CapExceededError(ValueError):
    """An enumeration or verification was asked to exceed its size cap."""


class BudgetExceededError(RuntimeError):
    """A run is over its node budget, summed over all of a command's scans:
    the nodes a layered length visited, charged after its scan, or
    candidates x patterns for any other length, charged before.

    Carries the nodes the refused length brought the run to, the budget,
    and the lengths its search had already fully enumerated (none for a
    single-length scan such as a claim check), so callers can report an
    honest partial result; nothing is silently truncated.
    """

    def __init__(self, message: str, *, lengths_exhausted=(), estimated: int = 0,
                 budget: int = 0):
        super().__init__(message)
        self.lengths_exhausted = tuple(lengths_exhausted)
        self.estimated = estimated
        self.budget = budget


class InternalDefectError(RuntimeError):
    """An internal invariant that must hold was violated; never swallowed."""
