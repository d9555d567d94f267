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
from pathlib import Path

from . import layered as layered_mod
from .classes import ClassTag, coerce_tag, class_tuples
from .errors import CapExceededError, InternalDefectError
from .kernels import contains as _contains
from .kernels import greedy_layer_indices as _greedy
from .perms import EMPTY, Embedding, Permutation, decreasing, direct_sum, rank_reduce

VERIFY_CAP = {
    ClassTag.LAYERED: 16,
    ClassTag.AV231: 8,
    ClassTag.AV321: 8,
    ClassTag.ALL: 8,
}


class LengthTable:
    """Memoized table of minimal universal lengths and their smallest argmin.

    Evaluating the minimum naively costs O(n) per entry; since the table is
    convex (checked as it grows), the split cost f(k) = L(k) + L(n-1-k) is
    a convex function of k, so the smallest minimizer is found by walking
    right while f strictly decreases and then left over any flat run.  The
    walk starts from the previous argmin and is amortized O(1) per entry,
    which keeps million-entry tables cheap.  L has nondecreasing
    differences ceil(log2(n+1)), so a failed convexity check means a corrupt
    table and raises InternalDefectError instead of appending.

    Both columns are machine-integer arrays (the argmin of n = 0 is stored
    as -1): a 100,000-entry table takes 1.6 MB instead of the 5.8 MB of two
    lists of int objects.

    Concurrency: extend first, share after; concurrent reads of a fully
    extended table are safe, growth is single-writer.
    """

    def __init__(self) -> None:
        self._values = array("q", [0])
        self._argmin = array("q", [-1])

    def __len__(self) -> int:
        return len(self._values)

    def extend_to(self, n: int) -> None:
        while len(self._values) <= n:
            self._append_next()

    def _append_next(self) -> None:
        vals = self._values
        m = len(vals)  # computing entry m
        last = m - 1  # f(k) = vals[k] + vals[last - k]
        k = min(self._argmin[last], last) if m > 1 else 0
        best = vals[k] + vals[last - k]
        while k < last:
            fk = vals[k + 1] + vals[last - k - 1]
            if fk >= best:
                break
            k += 1
            best = fk
        while k > 0:
            fk = vals[k - 1] + vals[last - k + 1]
            if fk > best:
                break
            k -= 1
            best = fk
        if m >= 2 and m + best - vals[last] < vals[last] - vals[m - 2]:
            raise InternalDefectError(f"length table is not convex at n={m}")
        vals.append(m + best)
        self._argmin.append(k)

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.extend_to(n)
        return self._values[n]

    def argmin(self, n: int) -> int | None:
        """Smallest k attaining the minimum in the split (None for n=0)."""
        self.extend_to(n)
        k = self._argmin[n]
        return None if k < 0 else k

    def prefix(self, n: int) -> list[int]:
        """Values for 0..n as a list (extends the table as needed)."""
        self.extend_to(n)
        return self._values[: n + 1].tolist()

    def save(self, path: str | Path) -> None:
        """Write the table, one integer per line, line index = n."""
        Path(path).write_text("\n".join(str(v) for v in self._values) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "LengthTable":
        """Rebuild a table at least as long as the file; stored values are
        recomputed, so a stale or hand-edited file cannot poison results."""
        lines = Path(path).read_text().split()
        table = cls()
        table.extend_to(max(len(lines) - 1, 0))
        for n, line in enumerate(lines):
            if table._values[n] != int(line):
                raise ValueError(f"table file disagrees at n={n}: {line}")
        return table


_TABLE = LengthTable()


def superpattern_length(n: int, table: LengthTable | None = None) -> int:
    """Minimal length of an n-universal permutation for the layered class,
    from the recurrence."""
    return (table or _TABLE).value(n)


def superpattern_split(n: int, table: LengthTable | None = None) -> int | None:
    """Smallest split k attaining the recurrence minimum (None for n=0)."""
    return (table or _TABLE).argmin(n)


def superpattern_length_closed(n: int) -> int:
    """Closed form (n+1)*ceil(log2(n+1)) - 2^ceil(log2(n+1)) + 1, evaluated
    in exact integer arithmetic: ceil(log2(n+1)) == n.bit_length()."""
    if n < 0:
        raise ValueError("n must be non-negative")
    lg = n.bit_length()
    return (n + 1) * lg - (1 << lg) + 1


def build_universal(n: int, split: int | None = None) -> Permutation:
    """The recursive witness U(k) + decreasing(n) + U(n-k-1).

    The default split k = n//2 attains the recurrence minimum, so the
    result has the minimal universal length; an explicit split applies to
    the top level only, with the recursion below always using the default.

    >>> str(build_universal(3))
    '1 4 3 2 5'
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        if split is not None:
            raise ValueError("no split exists for n=0")
        return EMPTY
    k = n // 2 if split is None else split
    if not 0 <= k <= n - 1:
        raise ValueError(f"split {k} out of range 0..{n - 1}")
    return direct_sum([build_universal(k), decreasing(n), build_universal(n - k - 1)])


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
    reach table of layered.first_missing_profile in O(layers * n^2), with
    the first miss and the count of patterns up to it that the ordered
    enumeration would give.  Otherwise the class is enumerated, and layered
    patterns of a layered candidate are matched greedily on profiles
    instead of by the backtracking search.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    tag = coerce_tag(class_name)
    cap = VERIFY_CAP[tag]
    if n > cap:
        raise CapExceededError(f"verification for {tag.value} capped at n={cap}")
    host_profile = layered_mod.layer_profile(candidate)
    checked = 0
    missing: Permutation | None = None
    if tag is ClassTag.LAYERED and host_profile is not None:
        checked, missing_profile = layered_mod.first_missing_profile(n, host_profile)
        if missing_profile is not None:
            missing = layered_mod.realize(missing_profile)
    else:
        host_values = candidate.values
        host_sizes = host_profile.sizes if host_profile is not None else None
        for values in class_tuples(tag, n):
            checked += 1
            if host_sizes is not None:
                pattern_profile = layered_mod.layer_profile(Permutation(values))
                if pattern_profile is not None:
                    if _greedy(pattern_profile.sizes, host_sizes) is None:
                        missing = Permutation(values)
                        break
                    continue
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


def _max_decreasing_positions(values: tuple[int, ...]) -> tuple[int, ...]:
    """0-based positions of the lexicographically smallest maximum-length
    decreasing subsequence, in O(m log m).

    chain[i] = longest decreasing run starting at i, by patience sorting
    from the right: tails[k] is the smallest value heading a decreasing run
    of length k + 1 among the entries seen so far, so tails increases and
    the runs that values[i] can head are one longer than those headed by the
    bisect_left(tails, values[i]) entries below it.  The witness is rebuilt
    greedily in one left-to-right pass, taking the earliest position that
    can still head a run of the required remaining length, which yields the
    lexicographically smallest position sequence.
    """
    n = len(values)
    chain = [0] * n
    tails: list[int] = []
    for i in range(n - 1, -1, -1):
        v = values[i]
        k = bisect.bisect_left(tails, v)
        if k == len(tails):
            tails.append(v)
        else:
            tails[k] = v
        chain[i] = k + 1
    target = len(tails)
    positions = []
    need = target
    prev_pos = -1
    prev_val = n + 1
    for _ in range(target):
        for p in range(prev_pos + 1, n):
            if values[p] < prev_val and chain[p] >= need:
                positions.append(p)
                prev_pos = p
                prev_val = values[p]
                need -= 1
                break
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


def _split_southwest_northeast(
    values: tuple[int, ...], dec_positions: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition the entries outside a maximum decreasing subsequence D into
    those southwest of some D entry and those northeast of some D entry.

    D's positions increase while its values decrease, so it is enough to
    compare against the nearest D entry on each side.  Maximality of D
    forces exactly one side to apply; anything else is a defect.
    """
    dec_set = set(dec_positions)
    dec_vals = [values[p] for p in dec_positions]
    southwest = []
    northeast = []
    for p, v in enumerate(values):
        if p in dec_set:
            continue
        idx = bisect.bisect_right(dec_positions, p)
        sw = idx < len(dec_positions) and v < dec_vals[idx]
        ne = idx > 0 and v > dec_vals[idx - 1]
        if sw == ne:
            raise InternalDefectError(
                f"entry {v} at position {p + 1} is {'both' if sw else 'neither'} "
                "southwest and northeast of the maximum decreasing subsequence"
            )
        (southwest if sw else northeast).append(p)
    return tuple(southwest), tuple(northeast)


def layerize(perm: Permutation) -> Permutation:
    """A layered permutation of the same length containing every layered
    permutation contained in the input.

    Repeatedly split on a maximum decreasing subsequence D: entries
    southwest of D recurse on the left, D flattens to one layer of size
    |D|, entries northeast of D recurse on the right.  An explicit work
    stack assembles the layer sizes in order, so deep inputs (the identity
    recurses to depth n) cannot exhaust the call stack.  Layered inputs are
    fixed points under the leftmost tie-break.
    """
    sizes: list[int] = []
    stack: list[tuple[int, ...] | int] = [perm.values]
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            sizes.append(item)
            continue
        if not item:
            continue
        dec = _max_decreasing_positions(item)
        southwest, northeast = _split_southwest_northeast(item, dec)
        stack.append(rank_reduce([item[p] for p in northeast]))
        stack.append(len(dec))
        stack.append(rank_reduce([item[p] for p in southwest]))
    return layered_mod.realize(layered_mod.LayerProfile(tuple(sizes)))
