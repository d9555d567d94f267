"""Brute-force reference implementations, used only as test oracles.

Everything here is deliberately independent of the library's algorithms:
containment by scanning all subsequences, maximum decreasing subsequences by
scanning all combinations, recurrence minima by full scans.
"""

import functools
import itertools
import math


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
