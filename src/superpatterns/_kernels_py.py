"""Pure-Python twin of the compiled kernel ``superpatterns._kernels``.

It defines what ``_kernels.c`` implements, with the same semantics:
containment (``lex_min_embedding``) and the scans over every permutation of
a length and over a list of candidates (``scan_all_perms``,
``scan_perm_list``), with ``contains`` beside them.  ``superpatterns.kernels``
takes the three from the extension when it imports and from here otherwise,
and the parity tests compare the two.

Positions and ranks are 0-based, values in one-line notation are 1-based,
and the permutations of 1..m are ordered by rank, their lexicographic
one-line order.  The public modules own the 1-based reporting convention.
"""

from __future__ import annotations

import itertools
import math

BACKEND = "python"


# Backtracks after which a containment search also checks its shallow
# prefixes gap by gap, and how many entries such a prefix may have.  Most
# queries never backtrack that often and never pay for the check.
_GAP_CHECK_AFTER = 20
_GAP_CHECK_DEPTH = 2


def _windows(pattern):
    """windows[i][j - i] = (a, b) for j >= i: the entries of pattern[:i]
    nearest below and above pattern[j] in value, with k and k + 1 standing
    for the sentinels 0 and the host's top value (k = len(pattern))."""
    k = len(pattern)
    windows = [[] for _ in range(k + 1)]
    for j, v in enumerate(pattern):
        a, b = k, k + 1
        for i in range(j + 1):
            windows[i].append((a, b))
            w = pattern[i]
            if w < v:
                if a == k or w > pattern[a]:
                    a = i
            elif b == k + 1 or w < pattern[b]:
                b = i
    return windows


def _gaps(pattern, windows):
    """gaps[i] for the prefixes pattern[:i + 1] of up to _GAP_CHECK_DEPTH
    entries: (a, b, sub, sub_windows) for each value gap of the prefix, between
    its entries a and b, that holds two or more later entries; sub is the
    pattern those entries form in the gap."""
    gaps = []
    for i in range(min(_GAP_CHECK_DEPTH, len(pattern))):
        members = {}
        for j, window in enumerate(windows[i + 1], start=i + 1):
            members.setdefault(window, []).append(pattern[j])
        gaps.append([(a, b, tuple(sub), _windows(sub))
                     for (a, b), sub in members.items() if len(sub) >= 2])
    return gaps


def _gaps_fit(host, vals, pos, p, gaps):
    """Whether, for every gap, the host entries after position p with values
    in the gap contain the pattern of the later entries in that gap."""
    for a, b, sub, sub_windows in gaps:
        lo = vals[pos[a]]
        hi = vals[pos[b]]
        inside = [v - lo for v in host[p + 1:] if lo < v < hi]
        if _embed(inside, sub, sub_windows, hi - lo) is None:
            return False
    return True


def _embed(host, pattern, windows, top=None):
    """lex_min_embedding, given the pattern's _windows; host values lie
    strictly between 0 and top (default len(host) + 1)."""
    k = len(pattern)
    m = len(host)
    if k == 0:
        return ()
    if k > m:
        return None
    vals = (*host, 0, m + 1 if top is None else top)
    pos = [0] * k + [m, m + 1]  # the sentinels' positions in vals
    gaps = None
    backtracks = 0
    i = 0
    start = 0
    while True:
        a, b = windows[i][0]
        lo = vals[pos[a]]
        hi = vals[pos[b]]
        later = windows[i + 1]
        found = -1
        for p in range(start, m - (k - i - 1)):
            if lo < vals[p] < hi:
                # Place every later entry at the first free position in its
                # window given pattern[:i + 1] alone; if that greedy pass
                # runs out of host, no completion of this prefix exists.
                pos[i] = p
                q = p + 1
                for c, d in later:
                    lo2 = vals[pos[c]]
                    hi2 = vals[pos[d]]
                    while q < m and not lo2 < vals[q] < hi2:
                        q += 1
                    if q == m:
                        break
                    q += 1
                else:
                    if gaps is not None and i < len(gaps) and not _gaps_fit(
                            host, vals, pos, p, gaps[i]):
                        continue
                    found = p
                    break
        if found >= 0:
            i += 1
            if i == k:
                return tuple(pos[:k])
            start = found + 1
        else:
            i -= 1
            if i < 0:
                return None
            start = pos[i] + 1
            backtracks += 1
            if gaps is None and backtracks > _GAP_CHECK_AFTER:
                gaps = _gaps(pattern, windows)
                # The shallow prefixes already placed were never checked;
                # resume at the first of them that fails.
                for d in range(min(i, len(gaps))):
                    if not _gaps_fit(host, vals, pos, pos[d], gaps[d]):
                        i = d
                        start = pos[d] + 1
                        break


def lex_min_embedding(pattern, host):
    """Positions (0-based) of the lexicographically smallest embedding.

    Depth-first matching of pattern entries left to right over host
    positions, pruning by the value window implied by already-matched
    entries.  A candidate position is kept only if the later entries can
    still be placed in order, each at the first free position in the window
    the matched entries alone give it; this relaxation ignores the order
    among the later entries, so it never prunes a real embedding.  A search
    that still backtracks _GAP_CHECK_AFTER times is mostly refuting a doomed
    first or second entry, so from then on a prefix of up to
    _GAP_CHECK_DEPTH entries is kept only if, in each of its value gaps, the
    later entries there embed by themselves in the host entries after it
    with values in the gap.  Both checks cut work whose amount varied widely
    between random queries of the same size.  Trying positions in increasing
    order makes the first complete match the lexicographically smallest one.
    Returns None when the pattern does not embed.
    """
    return _embed(host, pattern, _windows(pattern))


def contains(pattern, host):
    """True iff the pattern embeds into the host."""
    return lex_min_embedding(pattern, host) is not None


def scan_all_perms(m, patterns, rank_lo, rank_hi):
    """Scan permutations of 1..m by lexicographic rank for one containing
    every pattern (one-line tuples).

    Returns (witness_rank, scanned): the smallest rank in [rank_lo, rank_hi)
    whose permutation contains every pattern, scanned counting the ranks
    from rank_lo through it, or -1 when there is none, in which case
    scanned == rank_hi - rank_lo.  The ranks must satisfy
    0 <= rank_lo <= rank_hi <= m!, else ValueError; an empty range, the one
    at m! included, gives (-1, 0).
    """
    total = math.factorial(m)
    if not 0 <= rank_lo <= rank_hi <= total:
        raise ValueError(f"ranks [{rank_lo}, {rank_hi}) are outside [0, {total})")
    perms = itertools.permutations(range(1, m + 1))
    return _scan(itertools.islice(perms, rank_lo, rank_hi), patterns, rank_lo, rank_hi)


def scan_perm_list(candidates, patterns):
    """Scan the whole list of candidates (one-line tuples) for one
    containing every pattern.

    Returns (witness_index, scanned): (i, i + 1) for the smallest index i
    whose candidate contains every pattern, or (-1, len(candidates)) when
    there is none; an empty list gives (-1, 0).
    """
    return _scan(candidates, patterns, 0, len(candidates))


def _scan(candidates, patterns, lo, hi):
    """The scan both permutation scans run: candidates holds those of
    indices lo..hi-1, in order."""
    shapes = [(pat, _windows(pat)) for pat in patterns]
    for idx, cand in enumerate(candidates, start=lo):
        for pat, windows in shapes:
            if _embed(cand, pat, windows) is None:
                break
        else:
            return (idx, idx - lo + 1)
    return (-1, hi - lo)
