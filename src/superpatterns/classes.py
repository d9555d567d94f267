"""Permutation classes used by verification and search.

Four classes: layered, the 231-avoiders, the 321-avoiders, and all
permutations.  Each class has one enumeration route, lexicographic in
one-line notation: compositions for the layered class, a split at the
maximum for the 231-avoiders, pruned backtracking for the 321-avoiders and
itertools for all permutations.  The tests check the avoider routes against
filtering all permutations by the forbidden pattern.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections.abc import Callable, Iterator

from . import kernels, layered
from .errors import CapExceededError
from .perms import Permutation

AV_ENUMERATION_CAP = 12

_PATTERN_231 = (2, 3, 1)
_PATTERN_321 = (3, 2, 1)


class ClassTag(str, enum.Enum):
    LAYERED = "layered"
    AV231 = "av231"
    AV321 = "av321"
    ALL = "all"

    def __str__(self) -> str:
        return self.value


_TAGS = {tag.value: tag for tag in ClassTag}


def coerce_tag(tag: ClassTag | str) -> ClassTag:
    """The ClassTag of a tag or of its string value, by one dict lookup (a
    member hashes and compares as its value); anything else raises the
    ValueError of ClassTag(tag)."""
    try:
        return _TAGS[tag]
    except (KeyError, TypeError):
        pass
    return ClassTag(tag)


def in_class(perm: Permutation, tag: ClassTag | str) -> bool:
    tag = coerce_tag(tag)
    if tag is ClassTag.LAYERED:
        return layered.layer_profile(perm) is not None
    if tag is ClassTag.AV231:
        return not kernels.contains(_PATTERN_231, perm.values)
    if tag is ClassTag.AV321:
        return not kernels.contains(_PATTERN_321, perm.values)
    return True


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def class_counter(tag: ClassTag | str) -> Callable[[int], int]:
    """The function n -> number of length-n members, from the closed-form
    counts, so that counting many lengths coerces the tag once."""
    tag = coerce_tag(tag)
    if tag is ClassTag.LAYERED:
        return layered.composition_count
    if tag is ClassTag.ALL:
        return math.factorial
    return catalan


def class_count(tag: ClassTag | str, n: int) -> int:
    """Number of length-n members, from the closed-form counts."""
    return class_counter(tag)(n)


@functools.lru_cache(maxsize=None)
def _av231_span(span: int) -> tuple[tuple[int, ...], ...]:
    """All 231-avoiding permutations of 1..span (unsorted).

    A 231-avoider splits at its maximum: everything left of the maximum is
    below everything right of it, and both sides avoid 231 recursively.
    """
    if span == 0:
        return ((),)
    out = []
    for left_size in range(span):
        right_size = span - 1 - left_size
        for left in _av231_span(left_size):
            for right in _av231_span(right_size):
                out.append(left + (span,) + tuple(v + left_size for v in right))
    return tuple(out)


def _av321_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All 321-avoiding permutations of 1..n, lexicographically, lazily.

    Backtracking over positions with O(1) feasibility state: track the
    maximum placed so far and the largest value that already sits below an
    earlier, larger entry (the floor).  Placing anything under the floor
    completes a decreasing triple, and any unused value under the floor can
    never be placed, so both prune exactly.  The last entry is the one
    unused value, placed without a further level of generators.
    """
    if n == 0:
        return iter([()])
    used = [False] * (n + 1)
    prefix: list[int] = []

    def extend(max_so_far: int, floor: int, min_unused: int) -> Iterator[tuple]:
        if min_unused < floor:
            return
        if len(prefix) == n - 1:
            yield (*prefix, min_unused)
            return
        for v in range(min_unused, n + 1):
            if used[v] or v < floor:
                continue
            used[v] = True
            prefix.append(v)
            new_min = min_unused
            if v == min_unused:
                new_min += 1
                while new_min <= n and used[new_min]:
                    new_min += 1
            if v < max_so_far:
                yield from extend(max_so_far, max(floor, v), new_min)
            else:
                yield from extend(v, floor, new_min)
            prefix.pop()
            used[v] = False

    return extend(0, 0, 1)


def class_tuples(tag: ClassTag | str, n: int) -> Iterator[tuple[int, ...]]:
    """Members of the class at length n as raw one-line tuples, lex order.
    A negative n raises ValueError."""
    tag = coerce_tag(tag)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if tag is ClassTag.LAYERED:
        for profile in layered.enumerate_layered(n):
            yield layered.realize_values(profile.sizes)
        return
    if n > AV_ENUMERATION_CAP:
        raise CapExceededError(
            f"enumeration of {tag.value} length {n} exceeds cap {AV_ENUMERATION_CAP}"
        )
    if tag is ClassTag.ALL:
        yield from itertools.permutations(range(1, n + 1))
    elif tag is ClassTag.AV231:
        yield from sorted(_av231_span(n))
    else:
        yield from _av321_tuples(n)


def enumerate_class(tag: ClassTag | str, n: int) -> Iterator[Permutation]:
    """All length-n members of the class, in lexicographic one-line order."""
    for values in class_tuples(tag, n):
        yield Permutation(values)
