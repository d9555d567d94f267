"""Pure-Python kernels for the hot inner loops.

This module is the reference for the compiled extension
``superpatterns._kernels``; ``superpatterns.kernels`` selects one of the two
at import time.  The extension implements the same functions with the same
semantics, except ``contains`` and ``permutation_at_rank``, which only this
module defines; the parity tests compare the two.

Conventions local to the kernels: positions and ranks are 0-based, values in
one-line notation are 1-based, and candidates within a length are ordered by
rank (compositions in lexicographic order, permutations of 1..m in
lexicographic one-line order).  The public modules own the 1-based reporting
convention.
"""

from __future__ import annotations

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


def greedy_layer_indices(pattern_sizes, host_sizes):
    """Greedy left-to-right layer matching on layer-size profiles.

    Each pattern layer of size s consumes the first not-yet-passed host
    layer of size >= s.  Returns the 0-based host layer indices (strictly
    increasing) or None when some pattern layer cannot be placed.
    """
    out = []
    j = 0
    nh = len(host_sizes)
    for s in pattern_sizes:
        while j < nh and host_sizes[j] < s:
            j += 1
        if j == nh:
            return None
        out.append(j)
        j += 1
    return tuple(out)


def composition_at_rank(m, rank):
    """The rank-th composition of m, compositions ordered lexicographically.

    Compositions of m correspond to cut sets of {1..m-1}; reading the cut
    bits most-significant-first, lexicographic order of compositions is
    descending order of the bit value, hence the complement below.
    """
    if m == 0:
        return ()
    mask = ((1 << (m - 1)) - 1) - rank
    parts = []
    cur = 1
    for i in range(m - 1):
        if (mask >> (m - 2 - i)) & 1:
            parts.append(cur)
            cur = 1
        else:
            cur += 1
    parts.append(cur)
    return tuple(parts)


def permutation_at_rank(m, rank):
    """The rank-th permutation of 1..m in lexicographic one-line order."""
    vals = list(range(1, m + 1))
    out = []
    f = math.factorial(m)
    r = rank
    for i in range(m, 0, -1):
        f //= i
        d, r = divmod(r, f)
        out.append(vals.pop(d))
    return tuple(out)


def _next_permutation(a):
    """Advance list a to its lexicographic successor in place."""
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = a[:i:-1]
    return True


def scan_layered(m, pattern_profiles, rank_lo, rank_hi):
    """Scan compositions of m by rank for one whose layered permutation
    contains every pattern profile (greedy layer matching).

    Returns (witness_rank, scanned): the smallest rank in [rank_lo, rank_hi)
    whose composition fits every profile, or -1 when there is none, in which
    case scanned == rank_hi - rank_lo.

    The search is depth first over composition prefixes, smallest next part
    first, so prefixes are visited in rank order.  Each pattern keeps a
    greedy pointer to its first unmatched layer; a host part p matches that
    layer when it is at least as large.  A prefix is pruned as soon as some
    pattern's unmatched layer sizes add up to more than the positions left:
    each of those layers needs its own later host layer at least as large.
    A prefix with r > 0 positions left stands for exactly 2^(r-1)
    compositions, a contiguous block of ranks, so a pruned prefix accounts
    for its whole block, and blocks outside [rank_lo, rank_hi) are skipped
    or clipped.  The first leaf reached is the lex-first witness, and the
    counts equal those of a flat scan of every rank.

    Profile parts must be >= 1 (ValueError otherwise): a part 0 would match
    without using a host position, which the pruning bound does not allow
    for.
    """
    # Each pattern's states run from its first layer unmatched to all
    # matched; heads[g] is the size of the next layer to match (m + 1, which
    # no part reaches, once all are matched) and needs[g] the sum of the
    # unmatched sizes.  Pointers are indices into these lists.
    heads = []
    needs = []
    root = []
    for profile in pattern_profiles:
        smallest = min(profile, default=1)
        if smallest < 1:
            raise ValueError(f"profile parts must be >= 1, got {smallest}")
        root.append(len(heads))
        need = sum(profile)
        for s in profile:
            heads.append(s)
            needs.append(need)
            need -= s
        heads.append(m + 1)
        needs.append(0)
    if rank_lo >= rank_hi or max(map(needs.__getitem__, root), default=0) > m:
        return (-1, rank_hi - rank_lo)
    if m == 0:
        return (0, 1) if rank_lo == 0 else (-1, rank_hi - rank_lo)
    # moves[p][g]: the state after a host part p; after[p][g]: its need
    moves = [None] * (m + 1)
    after = [None] * (m + 1)
    for p in range(1, m + 1):
        moves[p] = [g + (h <= p) for g, h in enumerate(heads)]
        after[p] = [needs[g] for g in moves[p]]
    # block[r]: the compositions of r; pointers[r]: the pattern states at the
    # prefix on the current path with r positions left
    block = [1] + [1 << (r - 1) for r in range(1, m + 1)]
    pointers = [list(root) for _ in range(m + 1)]
    found = _first_fit(m, 0, (moves, after, block, pointers), rank_lo, rank_hi)
    return (found, found - rank_lo + 1) if found >= 0 else (-1, rank_hi - rank_lo)


def _first_fit(r, base, tables, rank_lo, rank_hi):
    """The first rank in [rank_lo, rank_hi) among the compositions extending
    the prefix in pointers[r] (r > 0 positions left, first rank base) that
    fit every pattern, or -1.  Child p covers the next block[r - p] ranks.

    A module-level function, not a closure in scan_layered: a recursive
    closure is a reference cycle that keeps the tables alive until the cycle
    collector runs."""
    moves, after, block, pointers = tables
    state = pointers[r]
    first = base
    for p in range(1, r + 1):
        rest = r - p
        if first >= rank_hi:
            return -1
        # prune unless every pattern still fits in the rest positions
        if first + block[rest] > rank_lo and not any(
            map(rest.__lt__, map(after[p].__getitem__, state))
        ):
            if rest == 0:
                return first
            pointers[rest][:] = map(moves[p].__getitem__, state)
            found = _first_fit(rest, first, tables, rank_lo, rank_hi)
            if found >= 0:
                return found
        first += block[rest]
    return -1


def scan_all_perms(m, patterns, rank_lo, rank_hi):
    """Scan permutations of 1..m by lexicographic rank for one containing
    every pattern (one-line tuples).  Same return contract as scan_layered.
    """
    if m == 0:
        ok = all(len(p) == 0 for p in patterns)
        if rank_lo == 0 and rank_hi > 0 and ok:
            return (0, 1)
        return (-1, rank_hi - rank_lo)
    shapes = [(pat, _windows(pat)) for pat in patterns]
    perm = list(permutation_at_rank(m, rank_lo))
    r = rank_lo
    while r < rank_hi:
        t = tuple(perm)
        ok = True
        for pat, windows in shapes:
            if _embed(t, pat, windows) is None:
                ok = False
                break
        if ok:
            return (r, r - rank_lo + 1)
        r += 1
        if r < rank_hi:
            _next_permutation(perm)
    return (-1, rank_hi - rank_lo)


def scan_perm_list(candidates, patterns, lo, hi):
    """Scan candidates[lo:hi] (one-line tuples) for one containing every
    pattern.  Same return contract as scan_layered, with list indices in
    place of ranks.
    """
    shapes = [(pat, _windows(pat)) for pat in patterns]
    for idx in range(lo, hi):
        cand = candidates[idx]
        ok = True
        for pat, windows in shapes:
            if _embed(cand, pat, windows) is None:
                ok = False
                break
        if ok:
            return (idx, idx - lo + 1)
    return (-1, hi - lo)
