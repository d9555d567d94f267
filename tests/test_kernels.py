import functools
import gc
import importlib.util
import itertools
import math
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

from oracles import (
    backtrack_lex_min_embedding,
    brute_compositions,
    brute_contains,
    brute_lex_min_embedding,
    chain_pairs,
    MaskTable,
    brute_scan_layered,
    layered_fits,
    mask_children,
    mask_id,
    mask_reduce,
    mask_scan_layered,
    pruned_scan_layered,
)
from superpatterns import _kernels_py, chains, kernels, layered, perms, superpattern_length
from superpatterns.errors import CapExceededError, InternalDefectError, NodeLimitError
from superpatterns.chains import LayeredTable

_ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def _hard_cases():
    """(pattern, host, backtracked answer) for 24 random patterns of 9-14
    entries in hosts of 20-60."""
    rng = random.Random(31)
    cases = []
    for _ in range(24):
        m = rng.randint(20, 60)
        k = rng.randint(9, 14)
        host = tuple(rng.sample(range(1, m + 1), m))
        pat = tuple(rng.sample(range(1, k + 1), k))
        cases.append((pat, host, backtrack_lex_min_embedding(pat, host)))
    return cases


class _CountedReads(tuple):
    """A host that counts the entries read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return tuple.__getitem__(self, index)


class TestEmbedding:
    def test_matches_oracle_exhaustive(self, backend):
        for m in range(7):
            for host in itertools.permutations(range(1, m + 1)):
                for k in range(min(m, 4) + 1):
                    for pat in itertools.permutations(range(1, k + 1)):
                        got = backend.lex_min_embedding(pat, host)
                        assert got == brute_lex_min_embedding(pat, host)

    def test_matches_oracle_random(self, backend):
        rng = random.Random(20260810)
        for _ in range(300):
            m = rng.randint(1, 10)
            k = rng.randint(0, min(m, 5))
            host = tuple(rng.sample(range(1, m + 1), m))
            pat = tuple(rng.sample(range(1, k + 1), k))
            assert backend.lex_min_embedding(pat, host) == brute_lex_min_embedding(
                pat, host
            )

    def test_contains(self):
        for host in itertools.permutations(range(1, 6)):
            for k in range(4):
                for pat in itertools.permutations(range(1, k + 1)):
                    expected = brute_lex_min_embedding(pat, host) is not None
                    assert kernels.contains(pat, host) == expected
                    assert _kernels_py.contains(pat, host) == expected

    def test_matches_brute_up_to_length_11(self, backend):
        # longer patterns than above, in hosts where brute force still
        # scans every combination
        rng = random.Random(20261018)
        for _ in range(400):
            m = rng.randint(1, 11)
            k = rng.randint(0, min(m, 7))
            host = tuple(rng.sample(range(1, m + 1), m))
            pat = tuple(rng.sample(range(1, k + 1), k))
            assert backend.lex_min_embedding(pat, host) == brute_lex_min_embedding(
                pat, host
            )

    def test_hard_refutations(self, backend):
        # patterns of 9-14 entries in hosts of 20-60, most of them not
        # contained, where the search fails many placements
        cases = _hard_cases()
        assert sum(expected is None for _, _, expected in cases) > len(cases) // 2
        for pat, host, expected in cases:
            assert backend.lex_min_embedding(pat, host) == expected

    @pytest.mark.parametrize("role", [0, 1, 2])
    def test_each_prune_skips_placements(self, role, monkeypatch):
        # with every entry of another role taken as role 3, which prunes
        # nothing, the prune of this role alone reads fewer host entries
        # than no prune at all, and leaves every answer as it was
        roles = _kernels_py._roles

        def run(keep):
            monkeypatch.setattr(
                _kernels_py, "_roles", lambda w: [r if r in keep else 3 for r in roles(w)]
            )
            host = _CountedReads(host_values)
            return _kernels_py.lex_min_embedding(pat, host), host.reads

        rng = random.Random(20261020)
        fewer = 0
        for _ in range(200):
            m = rng.randint(12, 20)
            k = rng.randint(5, 8)
            host_values = tuple(rng.sample(range(1, m + 1), m))
            pat = tuple(rng.sample(range(1, k + 1), k))
            pruned, pruned_reads = run({role})
            plain, plain_reads = run(set())
            assert pruned == plain == backtrack_lex_min_embedding(pat, host_values)
            assert pruned_reads <= plain_reads
            fewer += pruned_reads < plain_reads
        assert fewer

    def test_long_host(self, backend):
        rng = random.Random(7)
        host = tuple(rng.sample(range(1, 201), 200))
        pat = (2, 4, 1, 3)
        assert backend.lex_min_embedding(pat, host) == brute_lex_min_embedding(
            pat, host
        )


    def test_pattern_longer_than_host_builds_no_windows(self, backend, monkeypatch):
        def no_windows(pattern):
            raise AssertionError("built the windows of a pattern longer than its host")

        monkeypatch.setattr(_kernels_py, "_windows", no_windows)
        pattern = tuple(range(3000, 0, -1))
        assert backend.lex_min_embedding(pattern, (1, 2, 3)) is None
        assert backend.lex_min_embedding((1, 2), (1,)) is None


class TestRanks:
    def test_composition_at_rank(self):
        decode = chains.composition_at_rank
        for n in range(10):
            ranked = [decode(n, r) for r in range(max(1, 2 ** (n - 1)))]
            assert ranked == brute_compositions(n)
        for rank in (-1, 4, 5):
            with pytest.raises(ValueError):
                decode(3, rank)
        with pytest.raises(ValueError):
            decode(0, 1)

    def test_compositions_longer_than_62_decode(self):
        # compositions decode on Python ints, so ranks are unbounded
        assert chains.composition_at_rank(64, 0) == (1,) * 64
        assert chains.composition_at_rank(64, 2**63 - 1) == (64,)
        assert layered.composition_at_rank(64, 0).sizes == (1,) * 64
        assert layered.composition_at_rank(64, 2**63 - 1).sizes == (64,)

    def test_permutation_at_rank(self):
        for m in range(7):
            expected = sorted(itertools.permutations(range(1, m + 1)))
            got = [
                perms.permutation_at_rank(m, r) for r in range(math.factorial(m))
            ]
            assert got == expected


def _whole_family(patterns):
    """n when the patterns are every composition of n, else None."""
    needs = set(map(sum, patterns))
    if len(needs) == 1 and sorted(patterns) == brute_compositions(*needs):
        return needs.pop()
    return None


def _layered(m, patterns):
    """A layered scan over every composition of m, on a table of its own:
    the chain engine's for every composition of one n, the mask oracle's
    else."""
    n = _whole_family(patterns)
    if n is None:
        return mask_scan_layered(m, MaskTable(patterns))
    return chains.scan_layered(m, LayeredTable(n))


class TestScans:
    def test_scan_layered_parity(self):
        # the oracle is a flat scan with brute containment, so it checks the
        # prefix search's pruning and block counting independently, on the
        # library's chains for whole families and on the mask oracle for
        # random subsets
        rng = random.Random(20261018)
        for m in range(13):
            total = 2 ** (m - 1) if m else 1
            # every profile of n <= 5 (a(5) = 11); at m = 12 the n = 5 set
            # alone would double the oracle's time
            top = min(m, 5 if m < 12 else 4)
            pattern_sets = [tuple(brute_compositions(n)) for n in range(top + 1)]
            for _ in range(5):
                pool = brute_compositions(rng.randint(1, 6))
                size = min(len(pool), rng.randint(1, 4))
                pattern_sets.append(tuple(rng.sample(pool, size)))
            for patterns in pattern_sets:
                assert _layered(m, patterns) == (
                    brute_scan_layered(m, patterns, 0, total)
                ), (m, patterns)

    def test_scan_layered_long_lengths(self):
        # lengths beyond the flat oracle's reach, against the per-pattern
        # prefix search, for whole families and random subsets of them
        rng = random.Random(20261019)
        for n in (6, 7, 8):
            every = tuple(brute_compositions(n))
            for m in range(13, 21):
                total = 2 ** (m - 1)
                subsets = [
                    tuple(rng.sample(every, rng.randint(1, len(every) - 1))),
                    tuple(rng.sample(every, rng.randint(1, 6))),
                ]
                for patterns in (every, *subsets):
                    assert _layered(m, patterns) == (
                        pruned_scan_layered(m, patterns, 0, total)
                    ), (m, patterns)

    def test_scan_all_perms_parity(self, backend):
        patterns = ((1, 2), (2, 1))
        for m in range(2, 6):
            assert backend.scan_all_perms(m, patterns) == (
                _kernels_py.scan_all_perms(m, patterns)
            )

    def test_scan_perm_list_parity(self, backend):
        rng = random.Random(99)
        candidates = [
            tuple(rng.sample(range(1, 8), 7)) for _ in range(64)
        ]
        patterns = ((2, 1, 3), (3, 1, 2))
        assert backend.scan_perm_list(candidates, patterns) == (
            _kernels_py.scan_perm_list(candidates, patterns)
        )
        # the whole list is scanned: an empty one, a witness only at the
        # last index, and none at all
        assert backend.scan_perm_list([], patterns) == (-1, 0)
        perms = [(1, 2, 3), (2, 1, 3), (3, 1, 2)]
        assert backend.scan_perm_list(perms, ((3, 1, 2),)) == (2, 3)
        assert backend.scan_perm_list(perms, ((3, 2, 1),)) == (-1, 3)

    def test_a_pattern_longer_than_every_candidate_is_answered_unbuilt(
        self, backend, monkeypatch
    ):
        # no candidate contains a pattern longer than itself, so both scans
        # answer (-1, count) without building that pattern's windows; at
        # 3,000 entries the twin's table alone would take seconds
        def no_windows(pattern):
            raise AssertionError("built the windows of a pattern longer than every candidate")

        monkeypatch.setattr(_kernels_py, "_windows", no_windows)
        pattern = tuple(range(3000, 0, -1))
        t0 = time.perf_counter()
        assert backend.scan_perm_list([(1, 2, 3)], [pattern]) == (-1, 1)
        assert backend.scan_perm_list([(1, 2, 3), (2, 1)], [(1,), pattern]) == (-1, 2)
        assert backend.scan_all_perms(3, [pattern]) == (-1, 6)
        assert backend.scan_all_perms(3, [(2, 1), pattern]) == (-1, 6)
        assert time.perf_counter() - t0 < 0.05
        monkeypatch.undo()
        # one candidate as long as the pattern is scanned as before
        pattern = pattern[-40:]
        assert backend.scan_perm_list([(1, 2), pattern], [pattern]) == (1, 2)

    def test_scan_counts_on_exhaustion(self):
        # a pattern that never fits: every length-m composition lacks a part m+1
        assert _layered(4, ((5,),)) == (-1, 8)
        assert _layered(4, brute_compositions(5)) == (-1, 8)

    def test_scan_layered_rejects_nonpositive_parts(self):
        # a part 0 would match without using a host position
        for profiles in (((1, 0),), ((2,), (-1,))):
            with pytest.raises(ValueError):
                MaskTable(profiles)

    def test_empty_length_zero(self, backend):
        assert backend.scan_all_perms(0, ()) == (0, 1)

    def test_scan_all_perms_whole_length(self, backend):
        # each length scanned whole, against a brute scan of
        # itertools.permutations, which is in rank order; the last two sets
        # fit no permutation of length 5 or less
        pattern_sets = [
            (), ((1,),), ((1, 2), (2, 1)), ((2, 3, 1), (3, 1, 2)), ((3, 2, 1),),
            ((4, 3, 2, 1), (1, 2, 3, 4)), ((1, 2, 3, 4, 5, 6),),
        ]
        for m in range(6):
            perms = list(itertools.permutations(range(1, m + 1)))
            for patterns in pattern_sets:
                rank = next((r for r, perm in enumerate(perms)
                             if all(brute_contains(p, perm) for p in patterns)), -1)
                expected = (rank, rank + 1) if rank >= 0 else (-1, math.factorial(m))
                assert backend.scan_all_perms(m, patterns) == expected, (m, patterns)
        with pytest.raises(ValueError):
            backend.scan_all_perms(-1, ())

    def test_scan_layered_keeps_a_tail_the_same_part_reaches(self):
        # a part 2 turns (1, 2) into its tail (2,) and also reaches the
        # first layer of (2,) and of (2, 1, 1); the tail must wait for a
        # later part, so at m = 4 no composition fits (2, 1, 1) and (1, 2)
        pins = {
            ((1, 2), (2,)): [(-1, 2), (1, 2), (1, 2), (1, 2)],
            ((1, 2), (2, 1, 1)): [(-1, 2), (-1, 4), (-1, 8), (4, 5)],
        }
        for patterns, expected in pins.items():
            for m, pin in enumerate(expected, start=2):
                got = mask_scan_layered(m, MaskTable(patterns))
                assert got == pin == brute_scan_layered(m, patterns, 0, 2 ** (m - 1))
        # on chains: part 2 reaches both members of (2, 1), (1, 1) and (2,),
        # and leaves the tail (1,) of (1, 1) as the chain (1, 1), to wait
        # for a later part; so the composition (2) fits neither family.
        # The chain (1, 1), of slack 0, is its own family chain
        table = LayeredTable(2)
        kids = chains._children(table.root, table)
        tail = _chain([(1, 1)], table.bits)
        assert kids[-1] == (2, 3, 1, tail, tail)
        for m, pin in enumerate([(-1, 2), (1, 2)], start=2):
            got = chains.scan_layered(m, table)
            assert got == pin == brute_scan_layered(m, brute_compositions(2), 0, 2 ** (m - 1))

    def test_scan_layered_length_zero(self):
        assert chains.scan_layered(0, LayeredTable(0)) == (0, 1)
        assert chains.scan_layered(0, LayeredTable(1)) == (-1, 1)

    def test_scan_layered_is_the_brute_scan(self):
        # past the minimum too, where the search can reach the empty chain
        # with positions left: every completion fits it, so it returns its
        # first rank (n = 1, m = 3 counts 1 candidate, not 4)
        for n in range(7):
            table = LayeredTable(n)
            patterns = list(layered.enumerate_layered(n))
            for m in range(n, superpattern_length(n) + 4):
                hosts = layered.enumerate_layered(m)
                rank = next((
                    r for r, host in enumerate(hosts)
                    if all(layered.layered_contains(p, host) for p in patterns)
                ), -1)
                total = 2 ** (m - 1) if m else 1
                expected = (rank, rank + 1) if rank >= 0 else (-1, total)
                assert chains.scan_layered(m, table) == expected, (n, m)
                assert chains.scan_layered(m, LayeredTable(n)) == expected, (n, m)


def _family_sets(rng):
    """Profile sets for the shared-table tests: whole families of
    compositions (which the tables prove bounds for), the same with extras,
    and random samples (which mostly lack whole families)."""
    sets = [tuple(brute_compositions(n)) for n in (3, 5, 6, 7)]
    small = [c for k in range(1, 5) for c in brute_compositions(k)]
    sets.append((*small, *rng.sample(brute_compositions(7), 4)))
    sets.append((*brute_compositions(4), *rng.sample(brute_compositions(6), 6)))
    for _ in range(12):
        pool = brute_compositions(rng.randint(2, 7))
        sets.append(tuple(rng.sample(pool, rng.randint(1, len(pool)))))
    return sets


def _chain(pairs, bits):
    """The int of a chain given as (k, t) pairs (LayeredTable)."""
    return sum((k | t << bits) << 2 * bits * i for i, (k, t) in enumerate(pairs))


def _family(key, bits):
    """The chain F(s + 1, 1) of a chain's largest slack s, and the empty
    chain for the empty chain (LayeredTable)."""
    pairs = chain_pairs(key, bits)
    return _chain([(pairs[-1][0] - pairs[-1][1] + 1, 1)], bits) if pairs else 0


def _as_mask(state, bits, oracle):
    """A chain's reduced state in the mask oracle's ids."""
    members = _members(chain_pairs(state, bits))
    return mask_reduce(1 | sum(1 << mask_id(c) for c in members), oracle)


def _chains(n):
    """Every chain of need at most n, as tuples of (k, t) pairs: k strictly
    decreasing, the slack k - t strictly increasing, 1 <= t <= k."""
    out = []

    def extend(pairs, k_top, s_low):
        out.append(tuple(pairs))
        for k in range(1, k_top + 1):
            for s in range(s_low, k):
                extend([*pairs, (k, k - s)], k - 1, s + 1)

    extend([], n, 0)
    return out


def _members(pairs):
    """The union of a chain's families F(k, t)."""
    return [c for k, t in pairs for c in brute_compositions(k) if c[0] >= t]


def _kept(pairs):
    """The members LayeredTable says a chain keeps: pair i's with first
    parts t_i .. k_i - s_(i-1) - 1."""
    kept = []
    below = -1
    for k, t in pairs:
        kept += [c for c in brute_compositions(k) if t <= c[0] < k - below]
        below = k - t
    return kept


def _scanned(n, extra=0):
    """The table of n after scanning every length from n to L(n) + extra."""
    table = LayeredTable(n)
    for m in range(n, superpattern_length(n) + extra + 1):
        chains.scan_layered(m, table)
    return table


class TestLayeredTable:
    def test_one_table_serves_every_length(self):
        # one table per profile set scans m = 0..16 in shuffled order, so a
        # dead state or family bound found at one length must hold at both
        # shorter and longer ones: the library's chain table for whole
        # families, the mask oracle's for the other sets
        rng = random.Random(20261020)
        for patterns in _family_sets(rng):
            n = _whole_family(patterns)
            if n is None:
                table, scan = MaskTable(patterns), mask_scan_layered
            else:
                table, scan = LayeredTable(n), chains.scan_layered
            lengths = list(range(17))
            rng.shuffle(lengths)
            for m in lengths:
                total = 2 ** (m - 1) if m else 1
                assert scan(m, table) == (
                    pruned_scan_layered(m, patterns, 0, total)
                ), (m, patterns)

    def test_the_family_table_is_the_generic_one(self):
        # the chain table of n and the mask oracle's table of every
        # composition of n scan every length from n to L(n) + 2 alike, and
        # enter as many states.  Both dead tables hold each family proof and
        # each failed scan under its state, with the same r.  They differ
        # twice over: the chain table also holds its root, failed at
        # L(n) - 1, since a chain scan records the chain it starts from and
        # the oracle's does not; and the oracle also enters, under each
        # state it forms, the bound of the family the state holds whole,
        # which the chain walk reads off that family's own entry
        for n in range(13):
            family = LayeredTable(n)
            generic = MaskTable(brute_compositions(n))
            for m in range(n, superpattern_length(n) + 3):
                assert chains.scan_layered(m, family) == (
                    mask_scan_layered(m, generic)
                ), (n, m)
            assert len(family.children) == len(generic.children), n
            bits, dead = family.bits, family.dead
            scanned = {_as_mask(key, bits, generic): r for key, r in dead.items()}
            if n > 1:
                assert scanned.pop(generic.root) == superpattern_length(n) - 1, n
            held = {
                _as_mask(key, bits, generic): dead[kin]
                for kids in family.children.values() for *_, kin, key in kids
                if kin in dead
            }
            assert generic.dead == held | scanned, n
        with pytest.raises(ValueError, match="non-negative, got -1"):
            LayeredTable(-1)

    def test_family_bounds_are_proved_in_the_table(self):
        # every family bound is L(k) - 1, for each k up to n, and is the
        # dead entry of the chain (k, 1), the one its proof starts from; the
        # kernel takes L(k) from the closed form, and the bound rests on the
        # exhaustive scan that fails at L(k) - 1, not on that value.  k = 1,
        # whose bound is 0, has no entry.  The root, the chain (n, 1), is
        # the last family proved, so its entry is L(n) - 1, the claim, as
        # soon as the proofs are made, and the search's scans leave it so
        for n in range(1, 13):
            table = LayeredTable(n)
            # nothing is proved before a scan
            assert (table.dead, table.proved) == ({}, 0)
            table._prove_families()
            assert table.proved == n
            family = {k: _chain([(k, 1)], table.bits) for k in range(1, n + 1)}
            assert family[n] == table.root and family[1] not in table.dead
            for k in range(2, n + 1):
                assert table.dead[family[k]] == superpattern_length(k) - 1, (n, k)
                assert sorted(_members([(k, 1)])) == brute_compositions(k)
            for m in range(n, superpattern_length(n) + 1):
                chains.scan_layered(m, table)
            for k in range(2, n + 1):
                assert table.dead[family[k]] == superpattern_length(k) - 1, (n, k)

    def test_a_scan_stopped_at_its_node_limit_resumes(self):
        # a scan stops at the node past table.limit, with the nodes it
        # counted kept; what it proved stays in the table, so the same
        # length scanned again with no limit answers as a fresh table does,
        # and so does every later length.  A stop inside the proof of
        # family k, the root's (k = n) included, leaves no entry for its
        # chain (k, 1), and the resumed scan enters exactly L(k) - 1; a stop
        # in the witness scan of L(n) leaves the root's entry at L(n) - 1
        stops = set()
        for n in (5, 9):
            fresh = LayeredTable(n)
            lengths = range(n, superpattern_length(n) + 1)
            expected = [chains.scan_layered(m, fresh) for m in lengths]
            for limit in (1, 2, 7, fresh.nodes // 2, fresh.nodes - 1):
                table = LayeredTable(n)
                table.limit = limit
                got = []
                for m in lengths:
                    try:
                        got.append(chains.scan_layered(m, table))
                    except NodeLimitError:
                        assert table.nodes == limit + 1, (n, limit, m)
                        k = table.proved + 1
                        family = _chain([(min(k, n), 1)], table.bits)
                        before = table.dead.get(family)
                        table.limit = math.inf
                        got.append(chains.scan_layered(m, table))
                        if k <= n:
                            assert (before, m) == (None, n), (n, limit)
                            assert table.dead[family] == superpattern_length(k) - 1
                        else:
                            # the root keeps the entry of its proof
                            assert m == superpattern_length(n), (n, limit)
                            assert before == m - 1, (n, limit)
                        stops.add(k <= n)
                assert table.limit == math.inf, (n, limit)
                assert got == expected, (n, limit)
        # some stops fall inside a family proof, some in the witness scan
        assert stops == {True, False}

    def test_the_lengths_below_the_witness_enter_no_node(self, monkeypatch):
        # once the root's bound L(n) - 1 is proved, every length n..L(n) - 1
        # is read off the root's dead entry: none of r positions fits, so
        # none of fewer does, and no chain is entered
        def unscanned(*args):
            raise AssertionError("a length below the witness entered a chain")

        for n in range(13):
            table = LayeredTable(n)
            table._prove_families()
            nodes = table.nodes
            monkeypatch.setattr(chains, "_first_fit", unscanned)
            for m in range(n, superpattern_length(n)):
                assert chains.scan_layered(m, table) == (-1, 2 ** (m - 1)), (n, m)
            monkeypatch.undo()
            assert table.nodes == nodes, n
            # a fresh table's first length enters the proofs' nodes alone
            fresh = LayeredTable(n)
            if n < superpattern_length(n):
                chains.scan_layered(n, fresh)
            assert fresh.nodes == nodes, n

    def test_the_kernel_length_is_the_recurrence(self):
        for k in range(65):
            assert chains._layered_length(k) == superpattern_length(k), k

    def test_each_family_bound_is_one_failing_scan(self, monkeypatch):
        # the families are proved smallest k first, each by one top-level
        # scan of its chain (k, 1) at r = L(k) - 1 that finds no fit, the
        # root's (k = n) last; k = 1, with L(1) - 1 = 0, scans nothing
        first_fit = chains._first_fit
        top = []

        def tracked(r, base, state, table):
            found = first_fit(r, base, state, table)
            top.append((r, base, state, found))
            return found

        monkeypatch.setattr(chains, "_first_fit", tracked)
        for n in range(13):
            table = LayeredTable(n)
            top.clear()
            table._prove_families()
            assert top == [
                (superpattern_length(k) - 1, 0, _chain([(k, 1)], table.bits), -1)
                for k in range(2, n + 1)
            ], n

    def test_a_fit_at_a_family_bound_is_a_defect(self, monkeypatch):
        # a scan that reports a fit below L(k) contradicts the paper's bound
        monkeypatch.setattr(chains, "_first_fit", lambda r, base, state, table: 0)
        with pytest.raises(InternalDefectError, match="every layered permutation of length 2"):
            LayeredTable(5)._prove_families()
        monkeypatch.undo()
        # a family scanned at L(k) itself fits, already at k = 1
        length = chains._layered_length
        monkeypatch.setattr(chains, "_layered_length", lambda k: length(k) + 1)
        with pytest.raises(InternalDefectError, match="every layered permutation of length 1"):
            chains.scan_layered(6, LayeredTable(6))
        monkeypatch.undo()
        # a fit at the root's own bound is a defect too, raised from the
        # first length's scan with the families below the root proved
        first_fit = chains._first_fit

        def fits_at_the_root(r, base, state, table):
            return 0 if state == table.root else first_fit(r, base, state, table)

        monkeypatch.setattr(chains, "_first_fit", fits_at_the_root)
        table = LayeredTable(6)
        with pytest.raises(InternalDefectError, match="length 13 holds every layered permutation of length 6"):
            chains.scan_layered(6, table)
        assert table.proved == 5 and table.root not in table.dead

    def test_a_state_gets_the_bound_of_each_family_it_holds_whole(self):
        # a chain whose largest slack is s holds every composition of s + 1
        # in its down-closure; each child records that family's chain
        # F(s + 1, 1), and the dead entry the walk reads for it is
        # L(s + 1) - 1, none for s = 0.  The empty chain's family is the
        # empty chain, which never dies
        seen = set()
        for n in range(2, 10):
            table = _scanned(n)
            assert 0 not in table.dead
            for kids in table.children.values():
                for *_, held, key in kids:
                    assert held == _family(key, table.bits)
                    pairs = tuple(chain_pairs(key, table.bits))
                    if pairs:
                        [(size, _)] = chain_pairs(held, table.bits)
                        assert table.dead.get(held, 0) == superpattern_length(size) - 1
                        seen.add(pairs)
        for pairs in seen:
            members = _members(pairs)
            for c in brute_compositions(pairs[-1][0] - pairs[-1][1] + 1):
                assert any(layered_fits(c, g) for g in members), (pairs, c)
        assert sum(k > t for *_, (k, t) in seen) > 100

    def test_ids_are_the_compositions_binary_codes(self):
        # in the mask oracle and in composition_at_rank, the rank-r
        # composition of k is the suffix id 2^k - 1 - r
        for k in range(11):
            for rank, c in enumerate(brute_compositions(k)):
                assert mask_id(c) == 2**k - 1 - rank, c
                assert MaskTable([c]).root == 1 | 1 << (2**k - 1 - rank), c
                assert chains.composition_at_rank(k, rank) == c

    def test_needs_above_the_cap_are_refused(self):
        # the mask oracle has a bit for every id below 2^need, so it refuses
        # a need above the enumeration cap of 20 before any mask: at need 64
        # one would not fit in memory
        for profiles in (((21,),), ((1, 2), (7, 7, 7)), ((64,),)):
            with pytest.raises(CapExceededError):
                MaskTable(profiles)
        # a chain table holds two numbers per pair, so it takes any need
        table = LayeredTable(64)
        assert chain_pairs(table.root, table.bits) == [(64, 1)]
        assert chains.scan_layered(63, table) == (-1, 2**62)
        assert table.proved == 0 and table.nodes == 0

    def test_the_largest_need_scans(self):
        # (20,) fits only the last composition of 20
        table = MaskTable(((20,),))
        assert mask_scan_layered(19, table) == (-1, 2**18)
        assert mask_scan_layered(20, table) == (2**19 - 1, 2**19)


class TestReduction:
    def test_down_sets_are_the_brute_down_sets(self):
        # the slack carries down: a composition c of i <= k lies in some
        # member of F(k, t) iff c is empty or its first part is at least
        # t - (k - i)
        for k in range(1, 8):
            for t in range(1, k + 1):
                family = _members([(k, t)])
                for i in range(k + 1):
                    for c in brute_compositions(i):
                        brute = any(layered_fits(c, g) for g in family)
                        assert brute == (not c or c[0] >= t - (k - i)), (k, t, c)

    def test_reduced_states_keep_exactly_the_maximal_suffixes(self):
        # a chain's union keeps as its containment-maximal members exactly
        # the kept ranges, every pair keeps at least one, and distinct
        # chains are distinct reduced states; the need is the largest one,
        # plus one for two or more maximal members
        every = _chains(7)
        assert len(every) == 2**7
        seen = set()
        for pairs in every:
            members = set(_members(pairs))
            maximal = {
                g for g in members
                if not any(h != g and layered_fits(g, h) for h in members)
            }
            kept = _kept(pairs)
            assert maximal == set(kept) and len(kept) == len(maximal), pairs
            assert all(any(sum(c) == k and c[0] >= t for c in kept) for k, t in pairs)
            seen.add(frozenset(maximal))
            top = max(map(sum, maximal), default=0)
            assert chains._need(_chain(pairs, 3), 3) == top + (len(maximal) > 1), pairs
        assert len(seen) == len(every)

    def test_the_search_keys_its_dead_table_by_reduced_states(self):
        # every chain in the dead table and among the children is a
        # normalized chain: k strictly decreasing, slack strictly increasing
        for n in (3, 5, 9):
            table = _scanned(n, extra=2)
            keys = {key for kids in table.children.values() for *_, key in kids}
            # the n = 3 search is pruned by its family bounds alone, so its
            # dead table holds only the proof of (2, 1) and its root
            proofs = {_chain([(k, 1)], table.bits) for k in range(2, n + 1)}
            assert keys and set(table.dead) >= proofs
            assert (set(table.dead) > proofs) == (n > 3)
            for key in (*table.dead, *table.children, *keys):
                pairs = chain_pairs(key, table.bits)
                assert _chain(pairs, table.bits) == key
                assert all(1 <= t <= k <= n for k, t in pairs), pairs
                for (k, t), (k2, t2) in itertools.pairwise(pairs):
                    assert k > k2 and k - t < k2 - t2, pairs


def test_chain_children_are_the_mask_children():
    # every chain of need <= 10 against the mask oracle, child by child:
    # the same parts, reaches and needs, and each child's chain holds the
    # oracle's reduced state
    n = 10
    table = LayeredTable(n)
    table._prove_families()
    oracle = MaskTable(brute_compositions(n))
    oracle.families = []  # bounds are not compared; the oracle enters none

    @functools.lru_cache(maxsize=None)
    def reduced(state):
        return _as_mask(state, table.bits, oracle)

    every = _chains(n)
    assert len(every) == 2**n
    for pairs in every:
        state = _chain(pairs, table.bits)
        got = chains._children(state, table)
        expected = mask_children(reduced(state), oracle)
        assert [held for *_, held, key in got] == [
            _family(key, table.bits) for *_, key in got
        ], pairs
        assert [(a, reach, need) for a, reach, need, *_ in got] == [
            (a, reach, need) for a, reach, need, _ in expected
        ], pairs
        assert [reduced(key) for *_, key in got] == [key for *_, key in expected], pairs


def test_two_maximal_suffixes_need_one_more_position():
    # a completion of exactly N positions that fits a suffix of need N is
    # that suffix, which contains no other maximal suffix of its chain: so
    # no composition of a key's top need fits a key with two or more, and
    # the child's stored need is one more than its top need
    seen = 0
    for n in range(1, 9):
        table = _scanned(n)
        needs = {key: need for kids in table.children.values() for _, _, need, _, key in kids}
        for key, need in needs.items():
            kept = _kept(chain_pairs(key, table.bits))
            top = max(map(sum, kept), default=0)
            assert need == top + (len(kept) > 1), kept
            if len(kept) > 1:
                seen += 1
                for c in brute_compositions(top):
                    assert not all(layered_fits(g, c) for g in kept), (kept, c)
    assert seen > 100


def test_scan_layered_leaves_no_cycles():
    # a cycle through the scan's tables would keep them alive until the
    # cycle collector runs; so too for a table reused across lengths
    gc.collect()
    gc.disable()
    try:
        assert chains.scan_layered(16, LayeredTable(7)) == (-1, 2**15)
        assert gc.collect() == 0
        table = LayeredTable(7)
        for m in range(7, 17):
            assert chains.scan_layered(m, table) == (-1, 2 ** (m - 1))
        del table
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_scan_layered_argument_checks():
    # a negative length has no compositions to scan, and a negative n none
    # to search for
    with pytest.raises(ValueError):
        chains.scan_layered(-1, LayeredTable(1))
    with pytest.raises(ValueError):
        LayeredTable(-1)


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.usefixtures("default_recursion_limit")
@pytest.mark.parametrize("n, rank", [(1, 0), (2, 1), (5, 377)])
def test_scan_layered_answers_past_the_recursion_limit(n, rank):
    # the search is one loop, not a recursion once per part: a length of
    # 1,200 parts answers under a limit of 1,000, the first scan through
    # the table proving its family bounds too, with a witness that holds
    # every pattern
    assert chains.scan_layered(1200, LayeredTable(n)) == (rank, rank + 1)
    host = layered.LayerProfile(chains.composition_at_rank(1200, rank))
    assert layered.first_missing_profile(n, host)[1] is None


def test_compiled_argument_checks(compiled):
    # 64-bit permutation ranks bound the lengths, and C ints the values
    with pytest.raises(ValueError):
        compiled.scan_all_perms(21, ((1,),))
    with pytest.raises(OverflowError):
        compiled.lex_min_embedding((1,), (2**31,))


def _public_callables(module):
    return {
        name for name in dir(module)
        if not name.startswith("_") and callable(getattr(module, name))
    }


def test_compiled_names_are_the_twins(compiled):
    # the compiled module holds containment and the two permutation scans,
    # each a twin function, and the library takes the layered kernels from
    # the chain engine
    public = _public_callables(compiled)
    assert public == {"lex_min_embedding", "scan_all_perms", "scan_perm_list"}
    assert all(callable(getattr(_kernels_py, name, None)) for name in public)
    for name in ("greedy_layer_indices", "scan_layered"):
        assert getattr(kernels, name) is getattr(chains, name)


def test_the_twin_defines_what_the_kernel_source_defines():
    # read from _kernels.c's method table, so no compiler is needed: the
    # twin defines those functions and contains, and nothing else
    source = (_ROOT / "src" / "superpatterns" / "_kernels.c").read_text()
    table = re.search(r"PyMethodDef methods\[\] = \{(.*?)\n\};", source, re.S).group(1)
    names = set(re.findall(r'^\s*\{"(\w+)",', table, re.M))
    assert names == {"lex_min_embedding", "scan_all_perms", "scan_perm_list"}
    assert _public_callables(_kernels_py) == names | {"contains"}


def test_kernel_source_compiles_without_warnings(tmp_path):
    # catches, among others, static helpers that a deletion leaves unused
    cc = shutil.which("cc")
    include = sysconfig.get_paths()["include"]
    if cc is None or not Path(include, "Python.h").exists():
        pytest.skip("needs a C compiler and the Python headers")
    # a full -O2 compile, since some warnings (-Wmaybe-uninitialized) come
    # only from the optimiser
    flags = ["-c", "-O2", "-fPIC", "-std=c99", "-Wall", "-Wextra", "-Wno-unused-parameter",
             "-Werror", "-o", str(tmp_path / "k.o")]
    source = _ROOT / "src" / "superpatterns" / "_kernels.c"
    run = subprocess.run([cc, *flags, "-I", include, str(source)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def _bench_kernels():
    """benchmarks/bench_kernels.py, loaded as a module."""
    script = _ROOT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", script)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_layered_bench_workload_on_every_backend():
    # perfbench/micro.py times this workload on each importable backend,
    # each of which runs the chain engine's scan
    bench = _bench_kernels()
    _, work = bench._layered_scan_workload()
    assert work(_kernels_py) == (-1, 32768)


def test_layered_bench_counts_nodes():
    # the untimed run beside the layered rows counts the search's nodes,
    # entered states and dead entries on a table of its own; the 29 dead
    # hold the proofs of the families 2..7, the last the root's, at 16
    bench = _bench_kernels()
    _, work = bench._layered_scan_workload()
    assert bench._layered_nodes(work) == (47, 29, 29)
    table = work.table
    assert table.dead[table.root] == 16
    assert all(table.dead[k | 1 << table.bits] == superpattern_length(k) - 1 for k in range(2, 7))


def test_layered_bench_counts_nodes_by_phase():
    # the family proofs k < n, the root's proof and the witness scan add up
    # to the nodes of the whole search
    bench = _bench_kernels()
    assert bench._layered_phase_nodes(8) == (47, 55, 8)
    for n in range(1, 10):
        table = LayeredTable(n)
        for m in range(n, superpattern_length(n) + 1):
            chains.scan_layered(m, table)
        assert sum(bench._layered_phase_nodes(n)) == table.nodes, n


def test_layered_bench_times_the_search_by_layer():
    # the row beside the kernel scans times the whole search, its kernel
    # scans and its report check, and checks that the two searches agree
    bench = _bench_kernels()
    assert all(seconds > 0 for seconds in bench._layered_proof_layers(4, 2))
