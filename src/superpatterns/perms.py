"""Permutations in one-line notation, sum composition, and pattern containment.

A permutation of length n is the sequence of values pi(1), ..., pi(n), each
of 1..n exactly once.  Values are 1-based and so are the positions reported
in embeddings; the empty permutation is valid and is contained in everything.

All operations are pure; Permutation and Embedding are immutable.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Iterator, Sequence

from . import kernels
from .errors import (
    CapExceededError,
    DuplicateValueError,
    InvalidEmbeddingError,
    NonIntegerTokenError,
    PermutationError,
    ValueOutOfRangeError,
)

# Longest pattern contains takes into a host at least as long.  A query
# first builds the pattern's window table, k (k + 1) / 2 entries for length
# k: in pure Python about 31 MB and 0.08 s (2-vCPU VM) at k = 1,000, growing
# fourfold per doubling (123 MB at 2,000), so k = 20,000 would need 13 GB.
CONTAINMENT_CAP = 1_000


def _check_values(values: tuple[int, ...]) -> None:
    """Raise unless the values are 1..n once each, n their count, naming
    the first bad entry."""
    n = len(values)
    seen = [False] * (n + 1)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise PermutationError(f"permutation entries must be integers, got {v!r}")
        if not 1 <= v <= n:
            raise ValueOutOfRangeError(f"value {v} out of range 1..{n}")
        if seen[v]:
            raise DuplicateValueError(f"duplicate value {v}")
        seen[v] = True


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation.

    >>> str(Permutation((3, 1, 2)))
    '3 1 2'
    >>> len(Permutation(()))
    0
    """

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        _check_values(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.values)


EMPTY = Permutation(())


def permutation_at_rank(m: int, rank: int) -> tuple[int, ...]:
    """The values of the rank-th permutation of 1..m (rank 0-based) in
    lexicographic one-line order.

    >>> permutation_at_rank(3, 3)
    (2, 3, 1)
    """
    vals = list(range(1, m + 1))
    out = []
    f = math.factorial(m)
    r = rank
    for i in range(m, 0, -1):
        f //= i
        d, r = divmod(r, f)
        out.append(vals.pop(d))
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class Embedding:
    """Strictly increasing 1-based positions witnessing one containment."""

    positions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(self.positions))
        prev = 0
        for p in self.positions:
            if not isinstance(p, int) or p <= prev:
                raise InvalidEmbeddingError(
                    f"positions must be strictly increasing and >= 1, got {self.positions}"
                )
            prev = p

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions)

    def __str__(self) -> str:
        return " ".join(str(p) for p in self.positions)


def parse(text: str) -> Permutation:
    """Parse whitespace- or comma-separated one-line notation.

    >>> parse("3 4 8 1 7 5 6 2").values
    (3, 4, 8, 1, 7, 5, 6, 2)
    >>> parse("")
    Permutation(values=())
    """
    tokens = text.replace(",", " ").split()
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise NonIntegerTokenError(f"non-integer token {tok!r}") from None
    return Permutation(tuple(values))


def decreasing(n: int) -> Permutation:
    """The decreasing permutation n, n-1, ..., 1.

    >>> str(decreasing(3))
    '3 2 1'
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return Permutation(tuple(range(n, 0, -1)))


def direct_sum(parts: Iterable[Permutation]) -> Permutation:
    """Sum of permutations: each part's plot sits above and right of the last.

    >>> str(direct_sum([decreasing(3), decreasing(1), decreasing(2), decreasing(1)]))
    '3 2 1 4 6 5 7'
    """
    values: list[int] = []
    offset = 0
    for part in parts:
        values.extend(v + offset for v in part.values)
        offset += len(part)
    return Permutation(tuple(values))


def contains(pattern: Permutation, host: Permutation) -> Embedding | None:
    """Search the host for a subsequence in the same relative order as the
    pattern; return the lexicographically smallest witness, or None.

    >>> str(contains(parse("5 1 3 4 2"), parse("3 4 8 1 7 5 6 2")))
    '3 4 6 7 8'
    >>> contains(parse("2 1"), parse("1 2")) is None
    True

    A pattern longer than CONTAINMENT_CAP and no longer than the host raises
    CapExceededError before any work; one longer than the host is absent.
    """
    if CONTAINMENT_CAP < len(pattern) <= len(host):
        raise CapExceededError(
            f"pattern of length {len(pattern)} is above the containment cap of "
            f"{CONTAINMENT_CAP}"
        )
    raw = kernels.lex_min_embedding(pattern.values, host.values)
    if raw is None:
        return None
    return Embedding(tuple(p + 1 for p in raw))


def rank_reduce(values: Sequence[int]) -> tuple[int, ...]:
    """Relabel distinct values with their ranks 1..k, preserving order."""
    order = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(order[v] for v in values)


def pattern_of(host: Permutation, positions: Embedding | Sequence[int]) -> Permutation:
    """The permutation in the same relative order as the host entries at the
    given (1-based, strictly increasing) positions."""
    pos = tuple(positions)
    prev = 0
    for p in pos:
        if p <= prev:
            raise InvalidEmbeddingError(f"positions not strictly increasing: {pos}")
        if p > len(host):
            raise InvalidEmbeddingError(f"position {p} out of range 1..{len(host)}")
        prev = p
    return Permutation(rank_reduce([host.values[p - 1] for p in pos]))
