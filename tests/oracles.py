"""Brute-force reference implementations, used only as test oracles.

Everything here is deliberately independent of the library's algorithms:
containment by scanning all subsequences, maximum decreasing subsequences by
scanning all combinations, recurrence minima by full scans.  The one
exception is filter_class_tuples, which takes the pure kernel's containment
(itself checked against brute_contains) to stay fast up to n = 9.
"""

import functools
import itertools
import math

from superpatterns import _kernels_py


def rank_reduce(values):
    order = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(order[v] for v in values)


def brute_contains(pattern, host):
    k = len(pattern)
    if k == 0:
        return True
    target = tuple(pattern)
    return any(
        rank_reduce(combo) == target for combo in itertools.combinations(host, k)
    )


def brute_lex_min_embedding(pattern, host):
    """0-based positions; itertools.combinations yields them in lex order."""
    k = len(pattern)
    if k == 0:
        return ()
    target = tuple(pattern)
    for combo in itertools.combinations(range(len(host)), k):
        if rank_reduce(tuple(host[i] for i in combo)) == target:
            return combo
    return None


def backtrack_lex_min_embedding(pattern, host):
    """The same answer as brute_lex_min_embedding for hosts too long to scan
    every combination: plain backtracking over positions in increasing
    order, each entry checked against every matched one, with no pruning."""
    k = len(pattern)
    pos = []

    def extend(start):
        if len(pos) == k:
            return True
        i = len(pos)
        for p in range(start, len(host)):
            if all((pattern[j] < pattern[i]) == (host[pos[j]] < host[p]) for j in range(i)):
                pos.append(p)
                if extend(p + 1):
                    return True
                pos.pop()
        return False

    return tuple(pos) if extend(0) else None


def patterns_contained(host, k):
    """All rank-reduced k-length subsequence patterns of the host."""
    return {rank_reduce(combo) for combo in itertools.combinations(host, k)}


def brute_max_decreasing_positions(values):
    """Lex-smallest maximum-length decreasing subsequence, 0-based."""
    n = len(values)
    for k in range(n, 0, -1):
        for combo in itertools.combinations(range(n), k):
            vals = [values[i] for i in combo]
            if all(x > y for x, y in zip(vals, vals[1:])):
                return combo
    return ()


def dp_max_decreasing_positions(values):
    """The same answer as brute_max_decreasing_positions in polynomial time,
    for inputs too long to scan every combination: best[i] is the
    lex-smallest longest decreasing run starting at i, built from the
    lex-smallest of the best runs it can continue with."""
    best = [()] * len(values)
    for i in range(len(values) - 1, -1, -1):
        tails = [best[j] for j in range(i + 1, len(values)) if values[j] < values[i]]
        longest = max(map(len, tails), default=0)
        best[i] = (i,) + min((t for t in tails if len(t) == longest), default=())
    longest = max(map(len, best), default=0)
    return min((b for b in best if len(b) == longest), default=())


def recursive_layerize(values):
    """The layerizing transform as the paper states it, by plain recursion:
    split on the lex-first maximum decreasing subsequence D, rank-reduce the
    entries southwest of some D entry and those northeast of some D entry
    (each by scanning all of D), and lay out the southwest side's result, D
    as one layer, then the northeast side's result.  Returns the values of
    the layered permutation."""

    def sizes(vals):
        if not vals:
            return ()
        dec = dp_max_decreasing_positions(vals)
        southwest, northeast = [], []
        for p, v in enumerate(vals):
            if p in dec:
                continue
            sw = any(p < d and v < vals[d] for d in dec)
            ne = any(p > d and v > vals[d] for d in dec)
            assert sw != ne, "D is not a maximum decreasing subsequence"
            (southwest if sw else northeast).append(v)
        left, right = sizes(rank_reduce(southwest)), sizes(rank_reduce(northeast))
        return left + (len(dec),) + right

    return layered_values(sizes(tuple(values)))


def direct_sum_universal(n, split=None):
    """The recursive witness U(n) = U(k) + decreasing(n) + U(n-k-1) as
    values, by summing the three parts (each shifted above the ones before
    it) at every level; the top level splits at the given k, every level
    below at n//2."""
    if n == 0:
        return ()
    k = n // 2 if split is None else split
    left = direct_sum_universal(k)
    right = direct_sum_universal(n - k - 1)
    below = len(left)
    middle = tuple(range(below + n, below, -1))
    return left + middle + tuple(v + below + n for v in right)


def longest_decreasing_from(values):
    """chain[i] = the length of the longest decreasing run starting at
    position i, by a quadratic scan of the later entries below values[i]."""
    chain = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        later = [chain[j] for j in range(i + 1, len(values)) if values[j] < values[i]]
        chain[i] = 1 + max(later, default=0)
    return chain


def brute_compositions(n):
    if n == 0:
        return [()]
    out = []

    def rec(remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for first in range(1, remaining + 1):
            rec(remaining - first, acc + [first])

    rec(n, [])
    return sorted(out)


def brute_split_min(values, n):
    """Full scan of the split minimum at n given exact values below n.

    Returns (min over k of values[k] + values[n-1-k], smallest argmin).
    """
    best = None
    arg = None
    for k in range(n):
        v = values[k] + values[n - 1 - k]
        if best is None or v < best:
            best, arg = v, k
    return best, arg


def catalan_ref(n):
    return math.comb(2 * n, n) // (n + 1)


def filter_class_tuples(forbidden, n):
    """The length-n avoiders of one pattern, lexicographically, by filtering
    all permutations."""
    return [
        values
        for values in itertools.permutations(range(1, n + 1))
        if not _kernels_py.contains(forbidden, values)
    ]


CLASS_BASES = {
    "layered": ((2, 3, 1), (3, 1, 2)),
    "av231": ((2, 3, 1),),
    "av321": ((3, 2, 1),),
    "all": (),
}


def brute_in_class(tag, values):
    return not any(brute_contains(basis, values) for basis in CLASS_BASES[tag])


def brute_first_outside(pattern_tag, candidate_tag, n):
    """The lex-first length-n member of the pattern class that the candidate
    class lacks, or None."""
    for values in itertools.permutations(range(1, n + 1)):
        if brute_in_class(pattern_tag, values):
            if not brute_in_class(candidate_tag, values):
                return values
    return None


def layered_values(sizes):
    """The layered permutation with these layer sizes: decreasing blocks of
    consecutive values, each block above the ones before it."""
    values = []
    top = 0
    for size in sizes:
        values.extend(range(top + size, top, -1))
        top += size
    return tuple(values)


@functools.lru_cache(maxsize=None)
def _brute_layered_contains(pattern_sizes, host_sizes):
    return brute_contains(layered_values(pattern_sizes), layered_values(host_sizes))


def brute_scan_layered(m, profiles, lo, hi):
    """The scan_layered contract by a flat scan: the first rank in [lo, hi)
    of the lex-ordered compositions of m whose layered permutation contains
    every profile's, by brute containment, as (rank, scanned)."""
    profiles = [tuple(p) for p in profiles]
    for rank, host in enumerate(brute_compositions(m)[lo:hi], start=lo):
        if all(_brute_layered_contains(p, host) for p in profiles):
            return (rank, rank - lo + 1)
    return (-1, hi - lo)


def layered_fits(pattern_sizes, host_sizes):
    """Layered containment on profiles by trying every placement of the
    pattern's layers into strictly later host layers at least as large (a
    decreasing block lies inside one host layer), memoised on the pair of
    layer indices: exhaustive, not greedy."""

    @functools.lru_cache(maxsize=None)
    def fits(p, h):
        if p == len(pattern_sizes):
            return True
        return any(
            host_sizes[j] >= pattern_sizes[p] and fits(p + 1, j + 1)
            for j in range(h, len(host_sizes))
        )

    return fits(0, 0)


def brute_first_missing_layered(n, host_sizes, contains=None):
    """Layered universality by enumeration: walk the compositions of n in
    lexicographic order and return (patterns checked, the first one the host
    does not contain, or None).  Containment is brute_contains on the
    realizations unless another predicate on (pattern, host) sizes is given."""
    contains = contains or _brute_layered_contains
    compositions = brute_compositions(n)
    for checked, sizes in enumerate(compositions, start=1):
        if not contains(sizes, tuple(host_sizes)):
            return checked, sizes
    return len(compositions), None


@functools.lru_cache(maxsize=None)
def pruned_scan_layered(m, profiles, lo, hi):
    """The scan_layered contract by a prefix search with one greedy pointer
    per pattern and no table of dead states, for lengths too long for the
    flat scan: depth first over composition prefixes, smallest next part
    first, pruning a prefix once some pattern's unmatched layer sizes add up
    to more than the positions left, and counting each pruned or clipped
    prefix with r > 0 positions left as its block of 2^(r-1) ranks.
    Memoised, so a test that runs once per backend pays for it once; the
    profiles must be a tuple."""
    # each pattern's states run from its first layer unmatched to all
    # matched: heads[g] is the next layer's size (m + 1 once all are
    # matched) and needs[g] the sum of the unmatched sizes
    heads, needs, root = [], [], []
    for profile in profiles:
        root.append(len(heads))
        need = sum(profile)
        for s in profile:
            heads.append(s)
            needs.append(need)
            need -= s
        heads.append(m + 1)
        needs.append(0)
    if lo >= hi or max((needs[g] for g in root), default=0) > m:
        return (-1, hi - lo)
    if m == 0:
        return (0, 1)

    def first_fit(r, base, state):
        first = base
        for p in range(1, r + 1):
            rest = r - p
            size = 2 ** (rest - 1) if rest else 1
            if first >= hi:
                return -1
            moved = [g + (heads[g] <= p) for g in state]
            if first + size > lo and all(needs[g] <= rest for g in moved):
                if rest == 0:
                    return first
                found = first_fit(rest, first, moved)
                if found >= 0:
                    return found
            first += size
        return -1

    found = first_fit(m, 0, root)
    return (found, found - lo + 1) if found >= 0 else (-1, hi - lo)
