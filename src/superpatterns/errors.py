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
    the nodes a layered length visited (none for a length that enters no
    chain), a scan stopped at the node past the budget, or candidates x
    patterns for any other length, charged before its scan.

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


class NodeLimitError(RuntimeError):
    """A layered scan entered one chain more than its table's node limit
    allows (chains.LayeredTable.limit) and stopped there; the search that
    set the limit refuses the run with a BudgetExceededError."""


class InternalDefectError(RuntimeError):
    """An internal invariant that must hold was violated; never swallowed."""
