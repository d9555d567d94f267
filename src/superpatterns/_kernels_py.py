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


def _windows(pattern):
    """windows[i][j - i] = (a, b) for j >= i: the entries of pattern[:i]
    nearest below and above pattern[j] in value, with k and k + 1 standing
    for the sentinels 0 and the host's top value (k = len(pattern)).  Row
    i + 1 is row i with entry i taken in."""
    k = len(pattern)
    row = [(k, k + 1)] * k
    windows = [row]
    for i, w in enumerate(pattern):
        prev = row
        row = []
        for j in range(i + 1, k):
            a, b = prev[j - i]
            if w < pattern[j]:
                if a == k or w > pattern[a]:
                    a = i
            elif b == k + 1 or w < pattern[b]:
                b = i
            row.append((a, b))
        windows.append(row)
    return windows


def _roles(windows):
    """roles[i] for each entry i of the pattern whose _windows these are:
    given pattern[:i + 1], bit 1 is set when entry i is the lower end of some
    later entry's window and bit 2 when it is the upper end of one."""
    roles = []
    for i in range(len(windows) - 1):
        role = 0
        for a, b in windows[i + 1]:
            if a == i:
                role |= 1
            elif b == i:
                role |= 2
        roles.append(role)
    return roles


def _embed(host, pattern, windows, roles=None):
    """lex_min_embedding, given the pattern's _windows and, optionally, its
    _roles (computed at the first failed placement when not given)."""
    k = len(pattern)
    m = len(host)
    if k == 0:
        return ()
    if k > m:
        return None
    pos = [0] * k
    val = [0] * k + [0, m + 1]  # the values placed, then the sentinels
    # each level's value window, narrowed by the placements that failed
    # there since the level was last entered from the one above
    lows = [0] * k
    highs = [0] * k
    lo, hi = 0, m + 1
    i = 0
    start = 0
    while True:
        later = windows[i + 1]
        found = False
        for p in range(start, m - (k - i - 1)):
            v = host[p]
            if lo < v < hi:
                # Place every later entry at the first free position in its
                # window given pattern[:i + 1] alone; if that greedy pass
                # runs out of host, no completion of this prefix exists.
                val[i] = v
                q = p + 1
                for c, d in later:
                    lo2 = val[c]
                    hi2 = val[d]
                    while q < m and not lo2 < host[q] < hi2:
                        q += 1
                    if q == m:
                        break
                    q += 1
                else:
                    found = True
                    break
                if roles is None:
                    roles = _roles(windows)
                role = roles[i]
                if role == 1:
                    hi = v
                elif role == 2:
                    lo = v
                elif not role:
                    break
        if found:
            pos[i] = p
            lows[i] = lo
            highs[i] = hi
            i += 1
            if i == k:
                return tuple(pos)
            start = p + 1
            a, b = windows[i][0]
            lo = val[a]
            hi = val[b]
        else:
            # No placement of entry i completes, so the placement of entry
            # i - 1 failed too; a failure ends a level whose entry bounds no
            # later one.
            if roles is None:
                roles = _roles(windows)
            i -= 1
            while i >= 0 and not roles[i]:
                i -= 1
            if i < 0:
                return None
            lo = lows[i]
            hi = highs[i]
            role = roles[i]
            if role == 1:
                hi = val[i]
            elif role == 2:
                lo = val[i]
            start = pos[i] + 1


def lex_min_embedding(pattern, host):
    """Positions (0-based) of the lexicographically smallest embedding.

    Depth-first matching of pattern entries left to right over host
    positions, pruning by the value window implied by already-matched
    entries.  A candidate position is kept only if the later entries can
    still be placed in order, each at the first free position in the window
    the matched entries alone give it; this relaxation ignores the order
    among the later entries, so it never prunes a real embedding.  A
    placement that fails, by that check or because no later entry can follow
    it, also rules out placements of the same entry further right that
    dominate it: positions further right and windows no wider leave only
    fewer completions.  So when the entry bounds no later entry's window,
    the failure ends its level; when it is only the lower end of such
    windows, larger values fail too; when it is only the upper end, smaller
    values fail too.  A level's bounds start afresh each time the search
    enters it from the level above.  Trying positions in increasing order
    makes the first complete match the lexicographically smallest one.
    Returns None when the pattern does not embed, at once when it is longer
    than the host, before its windows are built.
    """
    if len(pattern) > len(host):
        return None
    return _embed(host, pattern, _windows(pattern))


def contains(pattern, host):
    """True iff the pattern embeds into the host."""
    return lex_min_embedding(pattern, host) is not None


def scan_all_perms(m, patterns):
    """Scan all m! permutations of 1..m in lexicographic (rank) order for
    one containing every pattern (one-line tuples).

    Returns (witness_rank, scanned): (r, r + 1) for the smallest rank r
    whose permutation contains every pattern, or (-1, m!) when there is
    none.  A negative m raises ValueError.
    """
    total = math.factorial(m)
    return _scan(itertools.permutations(range(1, m + 1)), patterns, total, m)


def scan_perm_list(candidates, patterns):
    """Scan the whole list of candidates (one-line tuples) for one
    containing every pattern.

    Returns (witness_index, scanned): (i, i + 1) for the smallest index i
    whose candidate contains every pattern, or (-1, len(candidates)) when
    there is none; an empty list gives (-1, 0).
    """
    longest = max(map(len, candidates), default=0)
    return _scan(candidates, patterns, len(candidates), longest)


def _scan(candidates, patterns, count, longest):
    """The scan both permutation scans run, over all count candidates in
    order, none longer than longest.  A pattern longer than that embeds in
    no candidate, so the answer is (-1, count) before any window is built."""
    patterns = tuple(patterns)
    if any(len(pat) > longest for pat in patterns):
        return (-1, count)
    shapes = [(pat, windows, _roles(windows))
              for pat, windows in ((pat, _windows(pat)) for pat in patterns)]
    for idx, cand in enumerate(candidates):
        for pat, windows, roles in shapes:
            if _embed(cand, pat, windows, roles) is None:
                break
        else:
            return (idx, idx + 1)
    return (-1, count)
