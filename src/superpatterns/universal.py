"""Shortest universal permutations for the layered class.

The minimal length of a permutation containing every layered permutation of
length n satisfies

    L(0) = 0,      L(n) = n + min{ L(k) + L(n-k-1) : 0 <= k <= n-1 }

and has the closed form (n+1)*ceil(log2(n+1)) - 2^ceil(log2(n+1)) + 1.  This
module computes the table exactly, builds the recursive witness
U(n) = U(k) + decreasing(n) + U(n-k-1), verifies universality of arbitrary
candidates, and implements the transform that replaces any permutation by a
layered one of the same length containing every layered pattern the
original contains.
"""

from __future__ import annotations

import bisect
import dataclasses
from array import array
from collections.abc import Sequence

from . import layered as layered_mod
# L(n) by the paper's closed form, defined with the chain engine, which
# proves the layered family bounds with it
from .chains import _layered_length as superpattern_length_closed
from .classes import ClassTag, coerce_tag, class_tuples
from .errors import CapExceededError, InternalDefectError
from .kernels import contains as _contains
# unused here, but bound for tracers that wrap universal._greedy
from .kernels import greedy_layer_indices as _greedy  # noqa: F401
from .perms import EMPTY, Embedding, Permutation

VERIFY_CAP = {
    ClassTag.LAYERED: 16,
    ClassTag.AV231: 8,
    ClassTag.AV321: 8,
    ClassTag.ALL: 8,
}

# Largest n the length table is built to: 8 bytes an entry, so about 80 MB
# and a few seconds; the closed form answers any n.  Also the most entries a
# built permutation may have: building one peaks at about 120 bytes an entry.
# And the largest n a layered reach-table verification takes: its miss is
# realized as a permutation of n entries, about 127 bytes an n.
TABLE_CAP = 10**7


class LengthTable:
    """Memoized table of minimal universal lengths.

    If the table below m is convex, the split cost f(k) = L(k) + L(m-1-k)
    is convex and symmetric about (m-1)/2, so its middle attains the
    minimum and L(m) = m + L((m-1)//2) + L(m//2), the split build_universal
    uses.  Entries are built one at a time in one loop.  L has
    nondecreasing differences ceil(log2(n+1)), and each new step is checked
    against the step before it: a failed check means a corrupt table and
    raises InternalDefectError, naming the first non-convex n, with what
    the call appended taken off again.  That check is what makes the middle
    split exact.

    The values are one machine-integer array, and nothing else is stored: a
    100,000-entry table takes 0.8 MB, against 3.6 MB as a list of int
    objects.  The smallest argmin is found on demand, by binary search.
    The table grows to TABLE_CAP at most: a request beyond it raises
    CapExceededError before any entry is built.

    Concurrency: extend first, share after; concurrent reads of a fully
    extended table are safe, growth is single-writer.
    """

    def __init__(self) -> None:
        self._values = array("q", [0])

    def __len__(self) -> int:
        return len(self._values)

    def extend_to(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if n < len(self._values):
            return
        if n > TABLE_CAP:
            raise CapExceededError(
                f"the length table is capped at n={TABLE_CAP}, got {n}; "
                "superpattern_length_closed and sequence a --closed answer any n"
            )
        vals = self._values
        lo = len(vals)
        last = vals[lo - 1]
        step = last - vals[lo - 2] if lo > 1 else 0
        for m in range(lo, n + 1):
            v = m + vals[(m - 1) >> 1] + vals[m >> 1]
            if v - last < step:
                del vals[lo:]
                raise InternalDefectError(f"length table is not convex at n={m}")
            step = v - last
            last = v
            vals.append(v)

    def value(self, n: int) -> int:
        self.extend_to(n)
        return self._values[n]

    def argmin(self, n: int) -> int | None:
        """Smallest k attaining the minimum in the split (None for n=0).

        f(k) = L(k) + L(n-1-k) is convex and symmetric, so it does not
        increase up to the middle k = (n-1)//2, which attains the minimum,
        and the minimizers up to there are one interval ending at the middle:
        its first k is found by binary search in O(log n)."""
        self.extend_to(n)
        if n == 0:
            return None
        vals = self._values
        last = n - 1
        mid = last >> 1
        best = vals[mid] + vals[last - mid]
        # -f(k) is nondecreasing on 0..mid: the first k with -f(k) >= -best
        return bisect.bisect_left(range(mid), -best, key=lambda k: -vals[k] - vals[last - k])

    def prefix(self, n: int) -> list[int]:
        """Values for 0..n as a list (extends the table as needed)."""
        self.extend_to(n)
        return self._values[: n + 1].tolist()


_TABLE = LengthTable()


def superpattern_length(n: int) -> int:
    """Minimal length of an n-universal permutation for the layered class,
    from the recurrence."""
    return _TABLE.value(n)


def superpattern_split(n: int) -> int | None:
    """Smallest split k attaining the recurrence minimum (None for n=0),
    found by binary search up to the middle split (n-1)//2."""
    return _TABLE.argmin(n)


def _universal_sizes(n: int) -> tuple[int, ...]:
    """Layer sizes of U(n) at the default split n//2."""
    if n == 0:
        return ()
    k = n // 2
    return _universal_sizes(k) + (n,) + _universal_sizes(n - k - 1)


def build_universal(n: int, split: int | None = None) -> Permutation:
    """The recursive witness U(k) + decreasing(n) + U(n-k-1).

    The default split k = n//2 attains the recurrence minimum, so the
    result has the minimal universal length; an explicit split applies to
    the top level only, with the recursion below always using the default.
    U(n) is layered, so the recursion runs on layer sizes, and the result is
    realized from them once.

    >>> str(build_universal(3))
    '1 4 3 2 5'
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        if split is not None:
            raise ValueError("no split exists for n=0")
        return EMPTY
    k = n // 2 if split is None else split
    if not 0 <= k <= n - 1:
        raise ValueError(f"split {k} out of range 0..{n - 1}")
    length = superpattern_length_closed(k) + n + superpattern_length_closed(n - k - 1)
    if length > TABLE_CAP:
        raise CapExceededError(
            f"U({n}) would have {length} entries, above the cap of {TABLE_CAP}"
        )
    sizes = _universal_sizes(k) + (n,) + _universal_sizes(n - k - 1)
    return Permutation(layered_mod.realize_values(sizes))


def _to_json(value):
    """A report as a JSON dict: its fields in order, class tags by value,
    permutations in one-line notation, tuples as lists and nested reports
    as dicts."""
    if isinstance(value, ClassTag):
        return value.value
    if isinstance(value, Permutation):
        return str(value)
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return {f.name: _to_json(getattr(value, f.name)) for f in fields}
    return value


@dataclasses.dataclass(frozen=True)
class UniversalityReport:
    candidate: Permutation
    n: int
    class_name: ClassTag
    ok: bool
    missing: Permutation | None
    patterns_checked: int

    to_json_dict = _to_json


def verify_universal(
    candidate: Permutation, n: int, class_name: ClassTag | str
) -> UniversalityReport:
    """Check the candidate against every length-n member of the class, in
    lexicographic order, stopping at the first miss.

    A layered candidate checked for the layered class is decided by the
    reach table of layered.first_missing_profile in O(layers * n) steps
    plus the candidate's length, with the first miss and the count of
    patterns up to it that the ordered enumeration would give, up to
    n = TABLE_CAP (CapExceededError above it, before the table is built).
    Otherwise the class is enumerated, up to n = VERIFY_CAP
    (CapExceededError above it), and each pattern is checked by containment.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    tag = coerce_tag(class_name)
    profile = layered_mod.layer_profile(candidate) if tag is ClassTag.LAYERED else None
    return _verify(candidate, n, tag, profile)


def _verify(
    candidate: Permutation,
    n: int,
    tag: ClassTag,
    host_profile: layered_mod.LayerProfile | None,
) -> UniversalityReport:
    """verify_universal for n >= 0, given the candidate's layer profile
    (None when it is not layered, and unread unless the class is layered),
    so that a caller that has the profile does not take it again."""
    checked = 0
    missing: Permutation | None = None
    if tag is ClassTag.LAYERED and host_profile is not None:
        if n > TABLE_CAP:
            raise CapExceededError(
                f"layered verification is capped at n={TABLE_CAP}, got {n}"
            )
        checked, missing_profile = layered_mod.first_missing_profile(n, host_profile)
        if missing_profile is not None:
            missing = layered_mod.realize(missing_profile)
    else:
        cap = VERIFY_CAP[tag]
        if n > cap:
            raise CapExceededError(f"verification for {tag.value} capped at n={cap}")
        host_values = candidate.values
        for values in class_tuples(tag, n):
            checked += 1
            if not _contains(values, host_values):
                missing = Permutation(values)
                break
    return UniversalityReport(
        candidate=candidate,
        n=n,
        class_name=tag,
        ok=missing is None,
        missing=missing,
        patterns_checked=checked,
    )


def _decreasing_chains(values: tuple[int, ...]) -> tuple[list[int], int]:
    """(chain, top): chain[i] is the length of the longest decreasing run of
    values starting at position i, and top the longest of them, in
    O(m log m) by patience sorting from the right.

    tails[k] is the smallest value heading a decreasing run of length k + 1
    among the entries seen so far, so tails increases, and the runs that
    values[i] can head are one longer than those headed by the
    bisect_left(tails, values[i]) entries below it.  Only the relative order
    of the values matters, so they need not be 1..m.

    Entries with equal run length increase left to right: if i < j had
    chain[i] == chain[j] and values[i] > values[j], then values[i] followed
    by j's run would be a run of length chain[j] + 1 from i.  So the
    lexicographically smallest maximum-length decreasing subsequence D, which
    takes each entry below the last one taken that still heads a run of the
    remaining length, has D_0 the first entry of run length top, and D_i the
    first entry after D_(i-1) of run length top - i: D_(i-1) has run length
    top - i + 1, so every entry after it and below it has run length at most
    top - i; and the first entry q after it of run length exactly top - i
    lies below it, since its run continues through some such entry r below
    it, and r is not before q, so values[q] <= values[r].
    """
    tails: list[int] = []
    chain: list[int] = []
    for v in reversed(values):
        k = bisect.bisect_left(tails, v)
        if k == len(tails):
            tails.append(v)
        else:
            tails[k] = v
        chain.append(k + 1)
    chain.reverse()
    return chain, len(tails)


def _max_decreasing_positions(values: tuple[int, ...]) -> tuple[int, ...]:
    """0-based positions of the lexicographically smallest maximum-length
    decreasing subsequence of distinct values, in O(m log m): D_i is the
    first entry after D_(i-1) whose run length is top - i
    (_decreasing_chains)."""
    chain, top = _decreasing_chains(values)
    positions = []
    p = -1
    for need in range(top, 0, -1):
        p = chain.index(need, p + 1)
        positions.append(p)
    return tuple(positions)


def max_decreasing_subsequence(perm: Permutation) -> Embedding:
    """A maximum-length decreasing subsequence; ties break to the
    lexicographically smallest position sequence.

    >>> str(max_decreasing_subsequence(Permutation((3, 4, 8, 1, 7, 5, 6, 2))))
    '3 5 6 8'
    """
    if len(perm) == 0:
        raise ValueError("empty permutation has no decreasing subsequence")
    return Embedding(tuple(p + 1 for p in _max_decreasing_positions(perm.values)))


def layerize(perm: Permutation) -> Permutation:
    """A layered permutation of the same length containing every layered
    permutation contained in the input.

    Repeatedly split on the lexicographically smallest maximum decreasing
    subsequence D: entries southwest of D recurse on the left, D flattens
    to one layer of size |D|, entries northeast of D recurse on the right.
    Each side recurses on its raw values, since only their relative order
    matters.  An explicit work stack assembles the layer sizes in order, so
    deep inputs (the identity would recurse to depth n) cannot exhaust the
    call stack.  Layered inputs are fixed points under the leftmost
    tie-break, so one layer_profile check returns them as they are.

    Each node takes one patience pass (_decreasing_chains) and one forward
    walk, which picks D by run length.  D's positions increase while its
    values decrease, so an entry above the last D entry is northeast of D;
    any other entry is southwest of it, and maximality of D puts it below
    the next D entry, which the walk checks when that entry comes: anything
    else is a defect.  A node shorter than 2, decreasing (top == k) or
    increasing (top == 1) is its own answer and is not walked.
    """
    if layered_mod.layer_profile(perm) is not None:
        return perm
    beyond = len(perm) + 1  # every raw value lies in 1..len(perm)
    sizes: list[int] = []
    stack: list[Sequence[int] | int] = [perm.values]
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            sizes.append(item)
            continue
        k = len(item)
        if k < 2:
            sizes.extend((1,) * k)
            continue
        chain, top = _decreasing_chains(item)
        if top == k:  # decreasing: one layer
            sizes.append(k)
            continue
        if top == 1:  # increasing: k layers of one
            sizes.extend((1,) * k)
            continue
        need = top
        last = beyond  # the last D entry; none yet
        high = 0  # the highest southwest entry since it; none yet
        southwest = []
        northeast = []
        for v, c in zip(item, chain):
            if c == need:
                if not high < v < last:
                    break
                need -= 1
                last = v
                high = 0
            elif v > last:
                northeast.append(v)
            else:
                southwest.append(v)
                if v > high:
                    high = v
        if need or high:
            raise InternalDefectError(
                f"{k} entries do not split around their maximum decreasing "
                "subsequence: some entry is neither southwest nor northeast of it"
            )
        stack.extend((northeast, top, southwest))
    return Permutation(layered_mod.realize_values(sizes))
