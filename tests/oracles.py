"""Brute-force reference implementations, used only as test oracles.

Everything here is deliberately independent of the library's algorithms:
containment by scanning all subsequences, maximum decreasing subsequences by
scanning all combinations, recurrence minima by full scans, and the layered
search on masks of suffix ids (MaskTable) rather than threshold chains.  The
one exception is filter_class_tuples, which takes the pure kernel's
containment (itself checked against brute_contains) to stay fast up to
n = 9.  chain_pairs is the reference decoder of the chain engine's chain
format, for the tests that read a chain's pairs.
"""

import functools
import itertools
import math

from superpatterns import _kernels_py, chains
from superpatterns.errors import InternalDefectError
from superpatterns.layered import check_layered_length


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


@functools.lru_cache(maxsize=1)
def _ordered_compositions(n):
    """brute_compositions(n) as a tuple, kept for the next host of the same n."""
    return tuple(brute_compositions(n))


def brute_first_missing_layered(n, host_sizes, contains=None):
    """Layered universality by enumeration: walk the compositions of n in
    lexicographic order and return (patterns checked, the first one the host
    does not contain, or None).  Containment is brute_contains on the
    realizations unless another predicate on (pattern, host) sizes is given."""
    contains = contains or _brute_layered_contains
    compositions = _ordered_compositions(n)
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


def chain_pairs(state, bits):
    """The (k, t) pairs of a LayeredTable chain, largest need first: pair i
    is read off bits 2 * bits * i and up, k below t."""
    low = (1 << bits) - 1
    pairs = []
    while state:
        pairs.append((state & low, state >> bits & low))
        state >>= 2 * bits
    return pairs


def mask_id(profile):
    """A suffix's id in MaskTable: its binary code, the bit string
    1 0^(a1-1) 1 0^(a2-1) ... for (a1, a2, ...), 0 for ()."""
    g = 0
    for part in reversed(profile):
        g |= 1 << (g.bit_length() + part - 1)
    return g


def mask_need_ids(k):
    """The mask of the ids of need k, bits 2^(k-1) to 2^k - 1 (bit 0 for
    k = 0)."""
    return (1 << (1 << k)) - (1 << (1 << k >> 1))


class MaskTable:
    """mask_scan_layered's tables for any set of layer profiles, the
    patterns, built once so that one table serves every length of a
    search; len(table) is the number of patterns.  The states are masks
    of suffix ids, not the library's threshold chains, so for whole
    families it is an independent oracle for superpatterns' LayeredTable,
    child by child (mask_children) and scan by scan.

    What a prefix of a candidate still needs is its state, the set of the
    patterns' distinct unmatched suffixes (mask_scan_layered), and whether some
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
    to have no fitting completion.  A need above 20 raises
    CapExceededError (layered.check_layered_length), since its masks would
    take 2^need bits.

    Every state the search forms is reduced to its containment-maximal
    suffixes before it is looked up or searched.  Greedy fit is containment
    of layered permutations, which is transitive: when a state holds
    suffixes h and g and g contains h, every completion that fits g fits h,
    so dropping h leaves the set of fitting completions, and with it every
    answer and count, as it was.  A suffix properly contained in another
    has the smaller need, so the top bit of a state is contained in no
    other suffix of it; the reduction keeps the top bit, clears every bit
    that suffix contains, and repeats on what is left, keeping bit 0.
    downs[g] keeps the mask of the ids suffix g contains (mask_down) once
    built, keys maps each state the search has formed to its reduced
    state, and children maps each state the search has entered to the
    children it formed there (mask_children), so a state entered again at
    another r only walks them.

    The first scan through a table first proves the family bounds, smallest
    k first: for each k below the largest pattern need whose 2^(k-1)
    compositions are all suffixes, the state that holds exactly them is
    scanned once, exhaustively, at r = L(k) - 1, where L(k) is the length
    of the shortest layered permutation that contains every layered
    permutation of length k (the paper's closed form).
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
            for i in range(len(profile)):
                suffixes |= 1 << mask_id(profile[i:])
            root |= 1 << mask_id(profile)
            count += 1
        self.root = root
        self.suffixes = suffixes
        self._count = count
        largest = (root.bit_length() - 1).bit_length()
        # the ids (a, t) of need k are those of the tails t of need k - a
        # lifted by 2^(k-1); heads has an entry for part 1 even when every
        # profile is empty
        self.heads = [0] + [
            sum(mask_need_ids(k - a) << (1 << (k - 1)) for k in range(a, largest + 1))
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
            mask = mask_need_ids(k)
            if self.suffixes & mask != mask:
                continue
            # equal needs: no member contains another, so the state is reduced
            bound = chains._layered_length(k) - 1
            if bound:
                if mask_first_fit(bound, 0, mask | 1, self) >= 0:
                    raise InternalDefectError(
                        f"a completion of length {bound} holds every "
                        f"layered permutation of length {k}"
                    )
                self.dead[mask | 1] = bound
            self.families.insert(0, (mask, bound))


def mask_scan_layered(m, table):
    """Scan the compositions of m by rank for one whose layered permutation
    contains every profile of the MaskTable (greedy layer matching).

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
    mask of suffix ids, each suffix's binary code (MaskTable), whose
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
    scanned without a fit, or for which a proved family bound (MaskTable,
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
    total = chains.composition_count(m)
    if (table.root.bit_length() - 1).bit_length() > m:
        return (-1, total)
    if m == 0:
        return (0, 1)
    table._prove_families()
    found = mask_first_fit(m, 0, table.root, table)
    return (found, found + 1) if found >= 0 else (-1, total)


def mask_family_bound(state, families):
    """The largest L(k) - 1 among the families the state holds, or 0."""
    for mask, bound in families:
        if state & mask == mask:
            return bound
    return 0


def mask_down(g, table):
    """The mask of the suffix ids that suffix g contains, g and the empty
    suffix included (MaskTable), built on first use.

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
        down = mask_down(g - (1 << (need - 2)) if a > 1 else t, table)
        below = mask_down(t, table)
        while below:
            j = (below.bit_length() - 1).bit_length()
            lo = 1 << j >> 1
            down |= below >> lo << (lo + (1 << (j + a - 1)))
            below &= (1 << lo) - 1
        table.downs[g] = down
    return down


def mask_reduce(state, table):
    """The state's containment-maximal suffixes, and bit 0: the top
    remaining bit is contained in no other suffix, so it is kept and every
    bit it contains is cleared.  The down-sets are read from table.downs,
    and mask_down builds one only on a miss (a down-set is never 0)."""
    downs = table.downs
    key = 1
    while state > 1:
        g = state.bit_length() - 1
        key |= 1 << g
        state ^= state & (downs.get(g) or mask_down(g, table))
    return key


def mask_children(state, table):
    """The children of a state, formed when the search first enters it and
    kept in table.children: one (a, reach, need, key) for part 1 and for
    each larger part a that reaches a new head, in increasing a, where
    reach is a plus the largest need of the tails that part a moves, key
    the child's reduced state and need the fewest positions a fitting
    completion of the child takes: the child's largest need, plus one when
    key keeps two or more suffixes (mask_scan_layered).

    Part a matches the first layer of every suffix whose head is at most a,
    so the child is the state's unreached suffixes, those with larger
    heads, together with the tails of the reached ones.  In the binary code
    (MaskTable) the tail of an id of need k is the id less 2^(k-1), so
    the reached ids move one need slice at a time, each shifted down by its
    lowest id.  The two stay apart as unreached and moved until the child
    is formed: a tail can be a suffix that the same part also reaches, and
    that suffix must stay a tail, not move again.  A part that reaches no
    new head leaves the same child as the part before it with fewer
    positions left, so it forms none.  A child is reduced to its
    containment-maximal suffixes (MaskTable) when it is first formed,
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
            key = keys[child] = mask_reduce(child, table)
            bound = mask_family_bound(child, table.families)
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


def mask_first_fit(r, base, state, table):
    """The first rank among the compositions of r > 0 positions (first rank
    base) that complete a prefix with this state and fit every pattern, or
    -1.

    Child a, the prefix extended by a part a (mask_children), covers the
    2^(r-a-1) ranks (1 for a = r) from base + 2^(r-1) - 2^(r-a).  Once a
    child's reach exceeds r, the tails part a moves need more than the
    r - a positions left, and so does every later child's reach, since a
    later part moves no fewer tails; so the walk stops there.  A child
    that needs more than r - a positions (its stored need, which counts one
    more for a reduced state of two or more suffixes) is skipped, and so is
    one whose reduced state is dead for at least r - a; the reduced state
    is what is searched.

    A module-level function, not a closure in mask_scan_layered: a recursive
    closure is a reference cycle that keeps the tables alive until the cycle
    collector runs."""
    kids = table.children.get(state)
    if kids is None:
        kids = mask_children(state, table)
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
            found = mask_first_fit(rest, first, key, table)
            if found >= 0:
                return found
            dead[key] = rest
    return -1
