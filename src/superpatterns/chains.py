"""The layered chain engine.

scan_layered scans the compositions of m in rank order for the first whose
layered permutation contains every layered permutation of length n, on a
LayeredTable of threshold chains that serves every length of one n.
LayeredTable proves the chain form closed and exact, and proves each family
bound L(k) - 1, k = 2..n, by one failing scan, the root's (k = n) last;
scan_layered gives the pruning rules, and reads every length below L(n)
off the root's dead entry, so that only L(n) is scanned for its witness.
The layered facts the other modules share are defined here once: greedy
layer matching on profiles, the count and the ranking of compositions, and
L(n) (_layered_length).  Ranks are 0-based, compositions ordered
lexicographically.  This module imports only ``errors``.

>>> table = LayeredTable(3)
>>> scan_layered(3, table), table.nodes  # proves L(2) - 1 = 2 and L(3) - 1 = 4
((-1, 4), 2)
>>> scan_layered(4, table), table.nodes  # none of the 8 compositions of 4 fits
((-1, 8), 2)
>>> rank, scanned = scan_layered(5, table)
>>> composition_at_rank(5, rank), scanned
((1, 3, 1), 7)
"""

from __future__ import annotations

import math

from .errors import InternalDefectError, NodeLimitError


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


def composition_at_rank(m, rank):
    """The rank-th composition of m, compositions ordered lexicographically.

    Decodes g = 2^m - 1 - rank: the binary code of (a1, a2, ...) is the
    bit string 1 0^(a1-1) 1 0^(a2-1) ..., and the codes of the compositions
    of m, 2^(m-1) .. 2^m - 1, fall as their ranks rise.  The parts are read
    off from the top bit down, each one the distance from a set bit to the
    next, or to the end.  A rank outside [0, 2^(m-1)) (0 alone for m = 0)
    raises ValueError.
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


class LayeredTable:
    """scan_layered's tables for the layered family of n, every composition
    of n as a pattern, built once so that one table serves every length of
    a search; nodes counts the chains its scans entered, the family
    proofs' too.  A negative n raises ValueError.

    What a prefix of a candidate still needs is its state, the set of the
    patterns' distinct unmatched suffixes (scan_layered), reduced to its
    containment-maximal suffixes.  Greedy fit is containment of layered
    permutations, which is transitive: a completion that fits a suffix fits
    every suffix that one contains, so dropping those leaves every answer
    and count as it was.  Whether some completion of r positions fits a
    state depends on r and the state alone, not on the length m being
    scanned, so the table of dead states is built once and serves every m.

    Every state is a threshold chain.  Let F(k, t) be the compositions of k
    whose first part is at least t.  A chain is a list of pairs (k1, t1),
    (k2, t2), ..., with k strictly decreasing and the slack k - t strictly
    increasing, and stands for the reduced union of its families.  The root
    is the single pair (n, 1), and the empty chain holds only the empty
    suffix.  The chain form is closed under a part a, and exact:

    - Part a matches the first layer of each member whose first part h is
      at most a and leaves its tail.  So a pair with t <= a leaves all of
      F(k - h, 1) for each h in [t, min(a, k)], and what stays unreached is
      F(k, a + 1), empty once a >= k.  A pair with t > a stays whole.
    - A composition of i < k lies in some member of F(k, t) iff its first
      part is at least t - (k - i).  So the down-closure of F(k, t) holds
      F(i, max(1, i - s)) for every i <= k, with s = k - t: the slack
      carries down.  Hence the reduction drops every pair whose slack is
      not above that of some pair of larger need, and of the tails part a
      leaves, only F(K, 1) can survive, with K the largest slack among the
      reached pairs.
    - A member that the parent's reduction dropped lies in a kept one, and
      what part a leaves of it lies in what part a leaves of that one (the
      tail of a layered permutation lies in it).  So forming the child from
      whole families gives the same reduced state as forming it from the
      kept members.

    In chain form, with s_i the slack of pair i and s_0 = -1:

    - Pair i keeps the members with first parts t_i .. k_i - s_(i-1) - 1;
      the others lie in a pair of larger need.  A kept member's first part
      is its head, so a part forms a child iff it is 1 or lies in a kept
      range: a larger part that reaches no new head leaves the same child
      as the part before it with fewer positions left.
    - t strictly decreases along a chain, so part a reaches the pairs from
      the first i with t_i <= a on, and K is the last pair's slack.  Of the
      reached pairs only pair i's remainder (k_i, a + 1) can survive: its
      slack k_i - a - 1 is at least s_(i-1), equal only at the top of the
      kept range, and every later remainder's is smaller.  F(K, 1), with
      slack K - 1, survives iff K - 1 > k_i - a - 1, and goes last, since K
      is below every k of the chain.
    - need, the fewest positions a fitting completion takes: k1, plus one
      unless the chain is the single pair (k, k), whose one member is (k,)
      (scan_layered); 0 for the empty chain.
    - reach, the fewest positions part a and a fitting completion after it
      take: a + K, or a when part a reaches no pair.

    The first scan through a table proves the family bounds, smallest k
    first: for each k from 2 to n, the chain (k, 1), every composition of
    k, is scanned once, exhaustively, at r = L(k) - 1, where L(k) is the
    length of the shortest layered permutation that contains every layered
    permutation of length k (_layered_length, the paper's closed form).  No
    completion of L(k) - 1 positions fits, nor then of fewer.  The bound
    rests on that failing scan, not on where the number came from; a fit
    there contradicts the paper and raises InternalDefectError.  k = 1 has
    L(1) - 1 = 0 and scans nothing.  The last family is the root (n, 1)
    itself, so its proof is the claim that no composition of L(n) - 1
    fits, and every shorter length is read off the root's entry
    (scan_layered).  A scan enters every chain whose walk ends without a
    fit in the dead table, the chain it starts from included, so the proof
    of k leaves dead[(k, 1)] = L(k) - 1.  A chain whose largest slack is s
    holds all of F(s + 1, 1) in its down-closure, so the walk (_first_fit)
    skips a child when the entry of its own chain or of that family chain
    is at least its positions left.  proved is the largest k proved so
    far, 0 before any.  The chains below (k, 1) have slacks below k - 1, so
    every bound a proof uses rests on a scan made before it, and a scan
    that prunes by them is still a proof by enumeration.

    A chain is one int of two bit sets, each width = n + 1 bits wide: the
    low one has bit k set for each pair's need k, the high one bit s + 1
    for each pair's slack s.  Along a chain k falls while the slack rises,
    so the i-th largest need pairs with the i-th smallest slack, and the
    two sets fix the chain.  The empty chain is 0, and the family chain
    F(j, 1), of need j and slack j - 1, is unit << j, with the constant
    unit = 1 | 1 << width; the root is that of n (0 for n = 0).  dead maps
    a chain to the largest r its scans found no fitting completion of, and
    children maps each chain the search has entered to the children it
    formed there (_children), so a chain entered again at another r only
    walks them.  A scan stops with NodeLimitError at the node past limit
    (unlimited unless the caller sets it), leaving what it proved in place.
    """

    def __init__(self, n):
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self.n = n
        self.width = n + 1
        self.unit = 1 | 1 << self.width
        self.root = self.unit << n if n else 0
        self.children = {}
        self.dead = {}
        self.proved = 0
        self.nodes = 0
        self.limit = math.inf

    def _prove_families(self):
        # each family is proved once, the root (k = n) last; a scan stopped
        # at its node limit in the proof of k leaves the families below k
        # proved and resumes at k
        for k in range(self.proved + 1, self.n + 1):
            bound = _layered_length(k) - 1
            if bound and _first_fit(bound, 0, self.unit << k, self) >= 0:
                raise InternalDefectError(
                    f"a completion of length {bound} holds every "
                    f"layered permutation of length {k}"
                )
            self.proved = k


def scan_layered(m, table):
    """Scan the compositions of m by rank for one whose layered permutation
    contains every composition of the LayeredTable's n (greedy layer
    matching).

    Returns (witness_rank, scanned): the smallest rank whose composition
    fits every pattern and scanned == witness_rank + 1, or (-1, 2^(m-1))
    (1 for m = 0) when there is none; m < 0 raises ValueError, and a scan
    that would pass the table's node limit NodeLimitError.  The table, its
    nodes grown by this scan's, serves every later call made with it.

    The search is depth first over composition prefixes, smallest next part
    first, so prefixes are visited in rank order.  Greedy matching consumes a
    pattern's first unmatched layer with the first host part at least as
    large, so what a pattern still needs is its unmatched suffix, and
    patterns with equal suffixes behave alike from there on.  A prefix's
    state is therefore the set of distinct unmatched suffixes, with
    finished patterns dropped, and so is a suffix that another suffix of
    the state contains, since every completion that fits the larger one
    fits it too; the states are threshold chains (LayeredTable).  A prefix
    is pruned as soon as some suffix's sizes add up to more than the
    positions left: each of its layers needs its own later host layer at
    least as large.  A reduced state with two or more suffixes needs one
    position more than its largest need N: a completion of exactly N
    positions that fits a suffix g of need N is g itself, since each layer
    of g takes a host part at least as large, and g contains no other
    suffix of a reduced state.

    Whether some completion of r positions fits depends only on r and the
    set of completions that fit each suffix of the state, and if none of r
    fits, none of r' < r does either (appending a last part r - r' to a
    fitting completion keeps it fitting).  So the table of dead states maps
    a chain to the largest r whose whole block of completions was scanned
    without a fit.  The proved family bounds (LayeredTable, one exhaustive
    scan of L(k) - 1 positions per family, k = 2..n) are entries of the
    same table, under the family's chain (k, 1), and a child is skipped
    when its own entry, or that of the family its largest slack holds
    whole, is at least its positions left.  The same rule serves the chain
    the scan starts from: the root (n, 1) is the family of n, so every m
    up to its bound L(n) - 1 is answered (-1, 2^(m-1)) from its entry,
    without entering a node, and only L(n) is walked.  Every completion
    fits the empty chain, so a child that is the empty chain is a leaf
    (_first_fit), and n = 0, whose one pattern is the empty composition,
    is answered (0, 1) for every m without a table lookup.

    A prefix with r > 0 positions left stands for exactly 2^(r-1)
    compositions, a contiguous block of ranks, so a pruned or skipped prefix
    accounts for its whole block.  The first leaf reached is the lex-first
    witness, and the counts equal those of a flat scan of every rank.
    """
    if m <= 0 or table.n > m or not table.n:
        # m < 0 raises here
        total = composition_count(m)
        return (-1, total) if table.n > m else (0, 1)
    if table.proved < table.n:
        table._prove_families()
    # a root that failed at m positions or more fails at m
    if table.dead.get(table.root, 0) < m:
        found = _first_fit(m, 0, table.root, table)
        if found >= 0:
            return found, found + 1
    return -1, 1 << (m - 1)


def _need(state, width):
    """The fewest positions a fitting completion of a chain takes: its
    largest need, plus one unless it is a single pair (k, k), whose slack
    set is {0}; 0 for the empty chain (LayeredTable)."""
    return (state & (1 << width) - 1).bit_length() - (state >> width == 2)


def _children(state, table):
    """The children of a chain other than the empty one, formed when the
    search first enters it and kept in table.children: one (a, reach,
    need, family, key) for part 1 and for each part a in a kept range, in
    increasing a, where key is the child's chain, family the chain
    F(s + 1, 1) of its largest slack s (the empty chain for a child that
    is the empty chain), and reach and need are as LayeredTable derives
    them.  The search never enters the empty chain, a leaf (_first_fit),
    so it has no children.

    The kept ranges run from the last pair's up to the first's.  For a part
    a in pair i's range, the child keeps the pairs before i whole, then
    pair i's remainder (k_i, a + 1) and F(K, 1) where each survives: the
    remainder for every part but the range's last, F(K, 1) once the
    remainder's slack k_i - a - 1 is below K - 1, or for the last part
    once the slack of pair i - 1 is.  Pair i is read off what is left of
    the chain as its lowest need bit and its highest slack bit, and is
    removed by clearing those two bits."""
    width, unit = table.width, table.unit
    kids = table.children[state] = []
    # the last pair's need k, the lowest need bit, and its slack K, the
    # chain's largest, one below the highest slack bit: every part in a
    # kept range reaches that pair
    k = (state & -state).bit_length() - 1
    top = state.bit_length() - width - 2
    family = unit << top
    if k - top > 1:
        # part 1 reaches no pair and leaves the chain as it is
        kids.append((1, 1, _need(state, width), family << 1, state))
    # a child that keeps a remainder has two or more pairs, or is the
    # single pair (k, a + 1) of the first pair's range, so it needs the
    # chain's first k plus one (_need), but for the single pair (k, k),
    # whose slack set is {0}
    mask = (1 << width) - 1
    full = (state & mask).bit_length()
    append = kids.append
    prefix = state
    slack = top + 1
    while True:
        # pair i, (k, k - slack + 1), off the chain; below is the slack bit
        # of the pair before it, or 0
        prefix ^= 1 << k | 1 << width + slack
        below = prefix.bit_length() - width - 1 if prefix else 0
        # parts t .. last - 1 keep pair i's remainder (k, a + 1), and from
        # part edge + 1 on F(K, 1) above it
        last = k - below
        edge = k - top
        needs = prefix | 1 << k
        for a in range(k - slack + 1, last):
            child = needs | 1 << width + k - a
            if a > edge:
                append((a, a + top, full, family, child | family))
            else:
                append((a, a + top, full - (child >> width == 2), unit << k - a, child))
        # the last part leaves no remainder, and F(K, 1) where it survives;
        # else the child's family is the one below's, or the empty chain.
        # Its need is _need's, inline
        if below < top:
            key, held = prefix | family, family
        else:
            key, held = prefix, prefix and unit << below
        append((last, last + top, (key & mask).bit_length() - (key >> width == 2), held, key))
        if not prefix:
            return kids
        k = (prefix & -prefix).bit_length() - 1
        slack = below


def _first_fit(r, base, state, table):
    """The first rank among the compositions of r > 0 positions (first rank
    base) that complete a prefix with this chain and fit every pattern, or
    -1.

    Child a, the prefix extended by a part a (_children), covers the
    2^(r-a-1) ranks (1 for a = r) from base + 2^(r-1) - 2^(r-a).  Once a
    child's reach exceeds r, the tails part a moves need more than the
    r - a positions left, and so does every later child's reach, since a
    later part reaches no fewer pairs; so the walk stops there.  A child
    that needs more than r - a positions is skipped, and so is one whose
    dead entry, or that of its family chain F(s + 1, 1) for its largest
    slack s (LayeredTable), is at least r - a.  A child that is the empty
    chain has matched every pattern, so the first completion of its block,
    all ones, fits: the walk returns the block's first rank without
    entering it.  It is the only child with no position left that passes
    the need test.

    The search is one loop over a stack of frames (r, base, state, walk),
    walk the iterator over the chain's children, one frame per part of the
    prefix: entering a child pushes its parent's frame, and a chain whose
    walk ends without a fit, the one the search starts from included, is
    recorded dead for its r and pops back to its parent, or ends the
    search.  Entering a chain counts a node, and the node past table.limit
    raises NodeLimitError instead, the nodes it brought the table to kept."""
    dead, children = table.dead, table.children
    nodes, limit = table.nodes, table.limit
    frames = []
    walk = None
    while True:
        if walk is None:
            nodes += 1
            if nodes > limit:
                table.nodes = nodes
                raise NodeLimitError(f"a layered scan reached its limit of {limit} nodes")
            kids = children.get(state)
            if kids is None:
                kids = _children(state, table)
            walk = iter(kids)
        top = 1 << (r - 1)
        for a, reach, need, family, key in walk:
            if reach > r:
                break
            rest = r - a
            if need > rest:
                continue
            if not key:
                table.nodes = nodes
                return base + top - (1 << rest)
            if dead.get(family, 0) < rest and dead.get(key, 0) < rest:
                frames.append((r, base, state, walk))
                r, base, state, walk = rest, base + top - (1 << rest), key, None
                break
        if walk is not None:
            # the walk ended without entering a child: no fit below this chain
            dead[state] = r
            if not frames:
                table.nodes = nodes
                return -1
            r, base, state, walk = frames.pop()
