"""Pure-Python kernels for the hot inner loops.

This module is the reference for the compiled extension
``superpatterns._kernels``, which implements three of its functions with
the same semantics: ``lex_min_embedding``, ``scan_all_perms`` and
``scan_perm_list``.  ``superpatterns.kernels`` takes those three from the
extension when it imports, and the parity tests compare the two on them.
The rest, ``contains``, ``greedy_layer_indices``, ``composition_at_rank``,
``permutation_at_rank``, ``scan_layered`` and ``LayeredTable``, only this
module defines, and ``superpatterns.kernels`` takes them from here on
either backend.

The layered facts the public modules share are defined here once: the
count of the compositions of n (``composition_count``), the cap of 20 on a
layered length (``check_layered_length``) and L(n) (``_layered_length``).
This module imports only ``errors``, so every module can import it.

Conventions local to the kernels: positions and ranks are 0-based, values in
one-line notation are 1-based, and candidates within a length are ordered by
rank (compositions in lexicographic order, permutations of 1..m in
lexicographic one-line order).  The public modules own the 1-based reporting
convention.
"""

from __future__ import annotations

import itertools
import math

from .errors import CapExceededError, InternalDefectError

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


def composition_count(n):
    """Number of compositions of n (= layered permutations of length n)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return 1 << (n - 1) if n else 1


def _check_ranks(lo, hi, count):
    """ValueError unless [lo, hi) is a range of ranks in [0, count)."""
    if not 0 <= lo <= hi <= count:
        raise ValueError(f"ranks [{lo}, {hi}) are outside [0, {count})")


def composition_at_rank(m, rank):
    """The rank-th composition of m, compositions ordered lexicographically.

    Decodes id 2^m - 1 - rank of the compositions' binary code
    (LayeredTable): the parts are read off from the top bit down, each one
    the distance from a set bit to the next, or to the end.  A rank outside
    [0, 2^(m-1)) (0 alone for m = 0) raises ValueError.
    """
    if not 0 <= rank < composition_count(m):
        raise ValueError(f"rank {rank} out of range for m={m}")
    g = (1 << m) - 1 - rank
    parts = []
    while g:
        tail = g ^ 1 << (g.bit_length() - 1)
        parts.append(g.bit_length() - tail.bit_length())
        g = tail
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


# The largest need a LayeredTable takes, and so the longest layered
# enumeration: a state has a bit for each id below 2^need.
_MAX_NEED = 20


def check_layered_length(n):
    """ValueError unless 0 <= n <= _MAX_NEED, CapExceededError above it:
    the one cap on a layered enumeration's length and a LayeredTable's need."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > _MAX_NEED:
        raise CapExceededError(f"enumeration of layered length {n} exceeds cap {_MAX_NEED}")


def _layered_length(n):
    """L(n), the length of the shortest layered permutation that contains
    every layered permutation of length n, by the paper's closed form
    (n + 1) * ceil(log2(n + 1)) - 2^ceil(log2(n + 1)) + 1 in exact integer
    arithmetic: ceil(log2(n + 1)) is n.bit_length().  A negative n raises
    ValueError.  universal.superpattern_length_closed is this function."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    lg = n.bit_length()
    return (n + 1) * lg - (1 << lg) + 1


def _need_ids(k):
    """The mask of the ids of need k, bits 2^(k-1) to 2^k - 1 (bit 0 for
    k = 0)."""
    return (1 << (1 << k)) - (1 << (1 << k >> 1))


class LayeredTable:
    """scan_layered's tables for one set of layer profiles, the patterns,
    built once so that one table serves every length of a search;
    len(table) is the number of patterns.

    What a prefix of a candidate still needs is its state, the set of the
    patterns' distinct unmatched suffixes (scan_layered), and whether some
    completion of r positions fits a state depends on r and the state alone,
    not on the length m being scanned.  So the table of dead states is built
    once and serves every m.

    A state is one int with bit g set for suffix id g, and a suffix's id is
    its binary code: id(()) = 0 and id((a, *t)) = id(t) | 1 << (need(t) +
    a - 1), where the need of a suffix is the sum of its sizes.  So the id
    of (a1, a2, ...) is the bit string 1 0^(a1-1) 1 0^(a2-1) ..., the ids of
    need k are exactly 2^(k-1) .. 2^k - 1, and the rank-r composition of m
    has id 2^m - 1 - r.  A suffix's need is its id's bit_length, its tail,
    what is left once its first layer is matched, is its id without the top
    bit, and its head is the difference of the two needs.  Ids are ordered
    by need, so id 0 is the empty suffix, whose bit every state has, and a
    state's largest need is that of its top bit.  heads[h] is the mask of
    every id of need at most the largest pattern need whose first layer has
    size h, suffixes the mask of the patterns' suffixes, and root the state
    of the empty prefix.  dead maps a reduced state to the largest r known
    to have no fitting completion.  A need above _MAX_NEED raises
    CapExceededError (check_layered_length), since its masks would take
    2^need bits.

    LayeredTable(profiles) ORs the bits of each profile's suffixes into
    suffixes and root.  LayeredTable.family(n), the table of every
    composition of n, which is what a layered search proves, needs none of
    that: its root is bit 0 and the need-n ids, and its suffixes are every
    id below 2^n, since every composition of at most n is a suffix of one of
    n (prepend a first layer).

    Every state the search forms is reduced to its containment-maximal
    suffixes before it is looked up or searched.  Greedy fit is containment
    of layered permutations, which is transitive: when a state holds
    suffixes h and g and g contains h, every completion that fits g fits h,
    so dropping h leaves the set of fitting completions, and with it every
    answer and count, as it was.  A suffix properly contained in another
    has the smaller need, so the top bit of a state is contained in no
    other suffix of it; the reduction keeps the top bit, clears every bit
    that suffix contains, and repeats on what is left, keeping bit 0.
    downs[g] keeps the mask of the ids suffix g contains (_down) once
    built, keys maps each state the search has formed to its reduced
    state, and children maps each state the search has entered to the
    children it formed there (_children), so a state entered again at
    another r only walks them.

    The first scan through a table first proves the family bounds, smallest
    k first: for each k below the largest pattern need whose 2^(k-1)
    compositions are all suffixes, the state that holds exactly them is
    scanned once, exhaustively, at r = L(k) - 1, where L(k) is the length
    of the shortest layered permutation that contains every layered
    permutation of length k (_layered_length, the paper's closed form).
    No completion of L(k) - 1 positions fits, nor then of fewer, so a state
    that holds every need-k suffix needs at least L(k) positions, since
    greedy fit is monotone under subsets.  The bound rests on that failing
    scan, not on where the number came from; a fit there contradicts the
    paper and raises InternalDefectError.  k = 1 has L(1) - 1 = 0 and
    scans nothing.  A reduced state may have dropped family members that
    its larger suffixes contain, so the bound is taken from the state as
    formed, when it is first met, and entered under its reduced state as
    the larger of that bound and the one known there.  families holds a
    (mask, L(k) - 1) pair per proved family, largest k first, where mask
    has the bits of the need-k ids, so a state holds the family when
    state & mask == mask.  Each bound rests on a scan of this table that
    uses only the bounds below it, so a scan that prunes by them is still a
    proof by enumeration.  No bound is proved at the largest need, which is
    what a search of that need is proving.
    """

    def __init__(self, pattern_profiles):
        root = suffixes = 1
        count = 0
        for profile in map(tuple, pattern_profiles):
            smallest = min(profile, default=1)
            if smallest < 1:
                raise ValueError(f"profile parts must be >= 1, got {smallest}")
            check_layered_length(sum(profile))
            g = 0
            for part in reversed(profile):
                g |= 1 << (g.bit_length() + part - 1)
                suffixes |= 1 << g
            root |= 1 << g
            count += 1
        self._start(root, suffixes, count)

    @classmethod
    def family(cls, n):
        """The table of every composition of n; n outside 0.._MAX_NEED
        raises as check_layered_length does."""
        check_layered_length(n)
        table = cls.__new__(cls)
        table._start(1 | _need_ids(n), (1 << (1 << n)) - 1, composition_count(n))
        return table

    def _start(self, root, suffixes, count):
        self.root = root
        self.suffixes = suffixes
        self._count = count
        largest = (root.bit_length() - 1).bit_length()
        # the ids (a, t) of need k are those of the tails t of need k - a
        # lifted by 2^(k-1); heads has an entry for part 1 even when every
        # profile is empty
        self.heads = [0] + [
            sum(_need_ids(k - a) << (1 << (k - 1)) for k in range(a, largest + 1))
            for a in range(1, largest + 2)
        ]
        # the empty suffix contains itself alone
        self.downs = {0: 1}
        self.keys = {}
        self.children = {}
        self.dead = {}
        self.families = None

    def __len__(self):
        return self._count

    def _prove_families(self):
        if self.families is not None:
            return
        self.families = []
        for k in range(1, (self.root.bit_length() - 1).bit_length()):
            mask = _need_ids(k)
            if self.suffixes & mask != mask:
                continue
            # equal needs: no member contains another, so the state is reduced
            bound = _layered_length(k) - 1
            if bound:
                if _first_fit(bound, 0, mask | 1, self) >= 0:
                    raise InternalDefectError(
                        f"a completion of length {bound} holds every "
                        f"layered permutation of length {k}"
                    )
                self.dead[mask | 1] = bound
            self.families.insert(0, (mask, bound))


def scan_layered(m, table):
    """Scan the compositions of m by rank for one whose layered permutation
    contains every profile of the LayeredTable (greedy layer matching).

    Returns (witness_rank, scanned): the smallest rank whose composition
    fits every profile and scanned == witness_rank + 1, or (-1, 2^(m-1))
    (1 for m = 0) when there is none; m < 0 raises ValueError.  The table's
    tables then serve every later call made with it.

    The search is depth first over composition prefixes, smallest next part
    first, so prefixes are visited in rank order.  Greedy matching consumes a
    pattern's first unmatched layer with the first host part at least as
    large, so what a pattern still needs is its unmatched suffix, and
    patterns with equal suffixes behave alike from there on.  A prefix's
    state is therefore the set of distinct unmatched suffixes, held as a
    mask of suffix ids, each suffix's binary code (LayeredTable), whose
    ordering by need puts a state's largest need at its top bit; finished
    patterns drop out, and so does a suffix that another suffix of the
    state contains, since every completion that fits the larger one fits it
    too (containment of layered permutations is transitive).  A prefix is
    pruned as soon as some suffix's sizes add up to more than the positions
    left: each of its layers needs its own later host layer at least as
    large.  A reduced state with two or more suffixes needs one position
    more than its largest need N: a completion of exactly N positions that
    fits a suffix g of need N is g itself, since each layer of g takes a
    host part at least as large, and g contains no other suffix of a
    reduced state.

    Whether some completion of r positions fits depends only on r and the
    set of completions that fit each suffix of the state, and if none of r
    fits, none of r' < r does either (appending a last part r - r' to a
    fitting completion keeps it fitting).  So the table of dead states maps
    a reduced state to the largest r whose whole block of completions was
    scanned without a fit, or for which a proved family bound (LayeredTable,
    one exhaustive scan of L(k) - 1 positions per family) rules every
    completion out, and a child whose reduced state is dead for at least its
    positions left is skipped.

    A prefix with r > 0 positions left stands for exactly 2^(r-1)
    compositions, a contiguous block of ranks, so a pruned or skipped prefix
    accounts for its whole block.  The first leaf reached is the lex-first
    witness, and the counts equal those of a flat scan of every rank.

    Profile parts must be >= 1 (ValueError when the table is built): a part
    0 would match without using a host position, which the pruning bound
    does not allow for.
    """
    total = composition_count(m)
    if (table.root.bit_length() - 1).bit_length() > m:
        return (-1, total)
    if m == 0:
        return (0, 1)
    table._prove_families()
    found = _first_fit(m, 0, table.root, table)
    return (found, found + 1) if found >= 0 else (-1, total)


def _family_bound(state, families):
    """The largest L(k) - 1 among the families the state holds, or 0."""
    for mask, bound in families:
        if state & mask == mask:
            return bound
    return 0


def _down(g, table):
    """The mask of the suffix ids that suffix g contains, g and the empty
    suffix included (LayeredTable), built on first use.

    h is in g = (a, t) iff h is empty, or h is in t, or head(h) <= a and
    tail(h) is in t.  So the down-set of (a, t) is that of (a - 1, t), or
    of t for a = 1, together with the ids (a, t') for t' in t's down-set:
    in the binary code, each need-j slice of t's down-set lifted by
    2^(j + a - 1)."""
    down = table.downs.get(g)
    if down is None:
        need = g.bit_length()
        t = g ^ 1 << (need - 1)
        a = need - t.bit_length()
        down = _down(g - (1 << (need - 2)) if a > 1 else t, table)
        below = _down(t, table)
        while below:
            j = (below.bit_length() - 1).bit_length()
            lo = 1 << j >> 1
            down |= below >> lo << (lo + (1 << (j + a - 1)))
            below &= (1 << lo) - 1
        table.downs[g] = down
    return down


def _reduce(state, table):
    """The state's containment-maximal suffixes, and bit 0: the top
    remaining bit is contained in no other suffix, so it is kept and every
    bit it contains is cleared.  The down-sets are read from table.downs,
    and _down builds one only on a miss (a down-set is never 0)."""
    downs = table.downs
    key = 1
    while state > 1:
        g = state.bit_length() - 1
        key |= 1 << g
        state ^= state & (downs.get(g) or _down(g, table))
    return key


def _children(state, table):
    """The children of a state, formed when the search first enters it and
    kept in table.children: one (a, reach, need, key) for part 1 and for
    each larger part a that reaches a new head, in increasing a, where
    reach is a plus the largest need of the tails that part a moves, key
    the child's reduced state and need the fewest positions a fitting
    completion of the child takes: the child's largest need, plus one when
    key keeps two or more suffixes (scan_layered).

    Part a matches the first layer of every suffix whose head is at most a,
    so the child is the state's unreached suffixes, those with larger
    heads, together with the tails of the reached ones.  In the binary code
    (LayeredTable) the tail of an id of need k is the id less 2^(k-1), so
    the reached ids move one need slice at a time, each shifted down by its
    lowest id.  The two stay apart as unreached and moved until the child
    is formed: a tail can be a suffix that the same part also reaches, and
    that suffix must stay a tail, not move again.  A part that reaches no
    new head leaves the same child as the part before it with fewer
    positions left, so it forms none.  A child is reduced to its
    containment-maximal suffixes (LayeredTable) when it is first formed,
    and its family bound, taken from the child as formed, is entered in the
    dead table under the reduced state.  Every child is formed, whatever r
    the state is entered at, so bounds are also entered for children that a
    search at that r never reaches."""
    heads, dead, keys = table.heads, table.dead, table.keys
    kids = table.children[state] = []
    unreached = state
    moved = 1
    for a in range(1, len(heads)):
        hit = unreached & heads[a]
        if a > 1 and not hit:
            continue
        unreached ^= hit
        while hit:
            half = 1 << ((hit.bit_length() - 1).bit_length() - 1)
            moved |= hit >> half
            hit &= (1 << half) - 1
        child = unreached | moved
        key = keys.get(child)
        if key is None:
            key = keys[child] = _reduce(child, table)
            bound = _family_bound(child, table.families)
            if bound > dead.get(key, 0):
                dead[key] = bound
        # the suffixes the key keeps, bit 0 dropped: two or more ask one
        # position more than the largest need
        kept = key ^ 1
        kids.append((
            a, a + (moved.bit_length() - 1).bit_length(),
            (key.bit_length() - 1).bit_length() + (kept & (kept - 1) != 0), key,
        ))
    return kids


def _first_fit(r, base, state, table):
    """The first rank among the compositions of r > 0 positions (first rank
    base) that complete a prefix with this state and fit every pattern, or
    -1.

    Child a, the prefix extended by a part a (_children), covers the
    2^(r-a-1) ranks (1 for a = r) from base + 2^(r-1) - 2^(r-a).  Once a
    child's reach exceeds r, the tails part a moves need more than the
    r - a positions left, and so does every later child's reach, since a
    later part moves no fewer tails; so the walk stops there.  A child
    that needs more than r - a positions (its stored need, which counts one
    more for a reduced state of two or more suffixes) is skipped, and so is
    one whose reduced state is dead for at least r - a; the reduced state
    is what is searched.

    A module-level function, not a closure in scan_layered: a recursive
    closure is a reference cycle that keeps the tables alive until the cycle
    collector runs."""
    kids = table.children.get(state)
    if kids is None:
        kids = _children(state, table)
    dead = table.dead
    top = 1 << (r - 1)
    for a, reach, need, key in kids:
        if reach > r:
            return -1
        rest = r - a
        if need > rest:
            continue
        first = base + top - (1 << rest)
        if rest == 0:
            return first
        if dead.get(key, 0) < rest:
            found = _first_fit(rest, first, key, table)
            if found >= 0:
                return found
            dead[key] = rest
    return -1


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
    _check_ranks(rank_lo, rank_hi, math.factorial(m))
    perms = itertools.permutations(range(1, m + 1))
    return _scan(itertools.islice(perms, rank_lo, rank_hi), patterns, rank_lo, rank_hi)


def scan_perm_list(candidates, patterns, lo, hi):
    """Scan candidates[lo:hi] (one-line tuples) for one containing every
    pattern.

    Returns (witness_index, scanned): the smallest index in [lo, hi) whose
    candidate contains every pattern, scanned counting the indices from lo
    through it, or -1 when there is none, in which case scanned == hi - lo.
    The indices must satisfy 0 <= lo <= hi <= len(candidates), else
    ValueError; an empty range, the one at len(candidates) included, gives
    (-1, 0).
    """
    _check_ranks(lo, hi, len(candidates))
    return _scan(itertools.islice(candidates, lo, hi), patterns, lo, hi)


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
