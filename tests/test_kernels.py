import functools
import gc
import importlib.util
import itertools
import math
import random
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from oracles import (
    backtrack_lex_min_embedding,
    brute_compositions,
    brute_contains,
    brute_lex_min_embedding,
    brute_scan_layered,
    layered_fits,
    pruned_scan_layered,
)
from superpatterns import _kernels_py, kernels, layered, superpattern_length
from superpatterns.errors import InternalDefectError
from superpatterns._kernels_py import LayeredTable

_ROOT = Path(__file__).resolve().parent.parent


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

    def test_gap_check_from_the_start(self, monkeypatch):
        """With the gap check on from the first backtrack, every query takes
        the checked path."""
        monkeypatch.setattr(_kernels_py, "_GAP_CHECK_AFTER", 0)
        rng = random.Random(20261018)
        for _ in range(400):
            m = rng.randint(1, 11)
            k = rng.randint(0, min(m, 6))
            host = tuple(rng.sample(range(1, m + 1), m))
            pat = tuple(rng.sample(range(1, k + 1), k))
            assert _kernels_py.lex_min_embedding(pat, host) == brute_lex_min_embedding(
                pat, host
            )

    def test_long_patterns_in_long_hosts(self, monkeypatch):
        """Length-7 patterns in hosts of 20-60 entries, the sizes where the
        search backtracks enough to switch the gap check on."""
        switched = []
        gaps = _kernels_py._gaps
        monkeypatch.setattr(
            _kernels_py, "_gaps", lambda *args: switched.append(1) or gaps(*args)
        )
        rng = random.Random(11)
        for _ in range(150):
            m = rng.randint(20, 60)
            host = tuple(rng.sample(range(1, m + 1), m))
            pat = tuple(rng.sample(range(1, 8), 7))
            assert _kernels_py.lex_min_embedding(pat, host) == backtrack_lex_min_embedding(
                pat, host
            )
        assert switched

    def test_long_host(self, backend):
        rng = random.Random(7)
        host = tuple(rng.sample(range(1, 201), 200))
        pat = (2, 4, 1, 3)
        assert backend.lex_min_embedding(pat, host) == brute_lex_min_embedding(
            pat, host
        )


class TestRanks:
    def test_composition_at_rank(self, backend):
        # the decode the library runs with this backend selected: the
        # backend's own, or the twin's when it defines none
        decode = getattr(backend, "composition_at_rank", _kernels_py.composition_at_rank)
        for n in range(10):
            ranked = [decode(n, r) for r in range(max(1, 2 ** (n - 1)))]
            assert ranked == brute_compositions(n)
        for rank in (-1, 4, 5):
            with pytest.raises(ValueError):
                decode(3, rank)
        with pytest.raises(ValueError):
            decode(0, 1)

    def test_compositions_longer_than_62_decode(self):
        # every backend decodes through the twin, whose ranks are unbounded
        for decode in (kernels.composition_at_rank, _kernels_py.composition_at_rank):
            assert decode(64, 0) == (1,) * 64
            assert decode(64, 2**63 - 1) == (64,)
        assert layered.composition_at_rank(64, 0).sizes == (1,) * 64
        assert layered.composition_at_rank(64, 2**63 - 1).sizes == (64,)

    def test_permutation_at_rank(self):
        for m in range(7):
            expected = sorted(itertools.permutations(range(1, m + 1)))
            got = [
                _kernels_py.permutation_at_rank(m, r) for r in range(math.factorial(m))
            ]
            assert got == expected


def _layered(backend, m, patterns):
    """The layered scan that the library runs with this backend selected
    (the backend's own, or the twin's when it defines none), over every
    composition of m, on a table of its own."""
    scan = getattr(backend, "scan_layered", _kernels_py.scan_layered)
    return scan(m, LayeredTable(patterns))


class TestScans:
    def test_scan_layered_parity(self, backend):
        # the oracle is a flat scan with brute containment, so it checks the
        # prefix search's pruning and block counting independently
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
                assert _layered(backend, m, patterns) == (
                    brute_scan_layered(m, patterns, 0, total)
                ), (m, patterns)

    def test_scan_layered_long_lengths(self, backend):
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
                    assert _layered(backend, m, patterns) == (
                        pruned_scan_layered(m, patterns, 0, total)
                    ), (m, patterns)

    def test_scan_all_perms_parity(self, backend):
        patterns = ((1, 2), (2, 1))
        for m in range(2, 6):
            total = math.factorial(m)
            assert backend.scan_all_perms(m, patterns, 0, total) == (
                _kernels_py.scan_all_perms(m, patterns, 0, total)
            )

    def test_scan_perm_list_parity(self, backend):
        rng = random.Random(99)
        candidates = [
            tuple(rng.sample(range(1, 8), 7)) for _ in range(64)
        ]
        patterns = ((2, 1, 3), (3, 1, 2))
        assert backend.scan_perm_list(candidates, patterns, 0, 64) == (
            _kernels_py.scan_perm_list(candidates, patterns, 0, 64)
        )

    def test_scan_counts_on_exhaustion(self, backend):
        # a pattern that never fits: every length-m composition lacks a part m+1
        assert _layered(backend, 4, ((5,),)) == (-1, 8)

    def test_scan_layered_rejects_nonpositive_parts(self):
        # a part 0 would match without using a host position
        for profiles in (((1, 0),), ((2,), (-1,))):
            with pytest.raises(ValueError):
                LayeredTable(profiles)

    def test_empty_length_zero(self, backend):
        assert backend.scan_all_perms(0, (), 0, 1) == (0, 1)

    def test_scan_all_perms_every_range(self, backend):
        # every rank range, the empty ones at 0 and at m! included, against
        # a brute scan of itertools.permutations, which is in rank order
        pattern_sets = [
            (), ((1,),), ((1, 2), (2, 1)), ((2, 3, 1), (3, 1, 2)), ((3, 2, 1),)
        ]
        for m in range(6):
            total = math.factorial(m)
            perms = list(itertools.permutations(range(1, m + 1)))
            for patterns in pattern_sets:
                fits = [
                    r for r, perm in enumerate(perms)
                    if all(brute_contains(p, perm) for p in patterns)
                ]
                for lo in range(total + 1):
                    for hi in range(lo, total + 1):
                        rank = next((r for r in fits if lo <= r < hi), -1)
                        expected = (rank, rank - lo + 1) if rank >= 0 else (-1, hi - lo)
                        got = backend.scan_all_perms(m, patterns, lo, hi)
                        assert got == expected, (m, patterns, lo, hi)

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
                got = _kernels_py.scan_layered(m, LayeredTable(patterns))
                assert got == pin == brute_scan_layered(m, patterns, 0, 2 ** (m - 1))

    def test_scan_layered_length_zero(self):
        assert _kernels_py.scan_layered(0, LayeredTable(((),))) == (0, 1)
        assert _kernels_py.scan_layered(0, LayeredTable(((1,),))) == (-1, 1)


def _family_sets(rng):
    """Profile sets for the shared-table tests: whole families of
    compositions (which the table proves bounds for), the same with extras,
    and random samples (which mostly lack whole families)."""
    sets = [tuple(brute_compositions(n)) for n in (3, 5, 6, 7)]
    small = [c for k in range(1, 5) for c in brute_compositions(k)]
    sets.append((*small, *rng.sample(brute_compositions(7), 4)))
    sets.append((*brute_compositions(4), *rng.sample(brute_compositions(6), 6)))
    for _ in range(12):
        pool = brute_compositions(rng.randint(2, 7))
        sets.append(tuple(rng.sample(pool, rng.randint(1, len(pool)))))
    return sets


class TestLayeredTable:
    def test_one_table_serves_every_length(self):
        # one table per profile set scans m = 0..16 in shuffled order, so a
        # dead state or family bound found at one length must hold at both
        # shorter and longer ones
        rng = random.Random(20261020)
        for patterns in _family_sets(rng):
            table = LayeredTable(patterns)
            lengths = list(range(17))
            rng.shuffle(lengths)
            for m in lengths:
                total = 2 ** (m - 1) if m else 1
                assert _kernels_py.scan_layered(m, table) == (
                    pruned_scan_layered(m, patterns, 0, total)
                ), (m, patterns)

    def test_the_family_table_is_the_generic_one(self):
        # the table a layered search builds from n alone has the root,
        # suffixes, heads and pattern count of the table built from every
        # composition of n, and scans every length up to L(n) alike
        for n in range(13):
            family = LayeredTable.family(n)
            generic = LayeredTable(brute_compositions(n))
            assert len(family) == len(generic) == len(brute_compositions(n))
            assert (family.root, family.suffixes, family.heads) == (
                generic.root, generic.suffixes, generic.heads
            ), n
            for m in range(n, superpattern_length(n) + 1):
                assert _kernels_py.scan_layered(m, family) == (
                    _kernels_py.scan_layered(m, generic)
                ), (n, m)
        for n in (-1, 21):
            with pytest.raises(ValueError):
                LayeredTable.family(n)

    def test_family_bounds_are_proved_in_the_table(self):
        # every family bound is L(k) - 1, for a k below the largest pattern
        # need whose whole family is among the suffixes, and is entered in
        # the table's dead states under the family's state; the kernel takes
        # L(k) from the closed form, and the bound rests on the exhaustive
        # scan that fails at L(k) - 1, not on that value
        rng = random.Random(20261021)
        for patterns in _family_sets(rng):
            table = LayeredTable(patterns)
            assert table.families is None  # nothing is proved before a scan
            largest = max(map(sum, patterns))
            _kernels_py.scan_layered(largest, table)
            suffixes = {p[i:] for p in patterns for i in range(len(p))}
            whole = [
                k for k in range(1, largest)
                if suffixes.issuperset(brute_compositions(k))
            ]
            ids = list(_suffixes(table))
            members = [[g for g in ids if mask >> g & 1] for mask, _ in table.families]
            needs = [family[0].bit_length() for family in members]
            assert needs == whole[::-1], patterns
            for (mask, bound), family, k in zip(table.families, members, needs):
                # the family's mask has the bit of every need-k id and no other
                assert family == [g for g in ids if g.bit_length() == k]
                assert sorted(map(sum, brute_compositions(k))) == [
                    g.bit_length() for g in family
                ]
                assert bound == superpattern_length(k) - 1
                assert table.dead.get(mask | 1, 0) == bound

    def test_the_kernel_length_is_the_recurrence(self):
        for k in range(_kernels_py._MAX_NEED + 1):
            assert _kernels_py._layered_length(k) == superpattern_length(k), k

    def test_each_family_bound_is_one_failing_scan(self, monkeypatch):
        # the families are proved smallest k first, each by one top-level
        # scan of its state at r = L(k) - 1 that finds no fit; k = 1, with
        # L(1) - 1 = 0, scans nothing
        first_fit = _kernels_py._first_fit
        depth = [0]
        top = []

        def tracked(r, base, state, table):
            depth[0] += 1
            try:
                found = first_fit(r, base, state, table)
            finally:
                depth[0] -= 1
            if not depth[0]:
                top.append((r, base, state, found))
            return found

        monkeypatch.setattr(_kernels_py, "_first_fit", tracked)
        for n in range(13):
            table = LayeredTable.family(n)
            top.clear()
            table._prove_families()
            assert top == [
                (superpattern_length(k) - 1, 0, _kernels_py._need_ids(k) | 1, -1)
                for k in range(2, n)
            ], n
            assert [bound for _, bound in table.families] == [
                superpattern_length(k) - 1 for k in range(n - 1, 0, -1)
            ], n

    def test_a_fit_at_a_family_bound_is_a_defect(self, monkeypatch):
        # a scan that reports a fit below L(k) contradicts the paper's bound
        monkeypatch.setattr(_kernels_py, "_first_fit", lambda r, base, state, table: 0)
        with pytest.raises(InternalDefectError, match="every layered permutation of length 2"):
            LayeredTable.family(5)._prove_families()
        monkeypatch.undo()
        # a family scanned at L(k) itself fits, already at k = 1
        length = _kernels_py._layered_length
        monkeypatch.setattr(_kernels_py, "_layered_length", lambda k: length(k) + 1)
        with pytest.raises(InternalDefectError, match="every layered permutation of length 1"):
            _kernels_py.scan_layered(6, LayeredTable.family(6))

    def test_a_state_gets_the_bound_of_each_family_it_holds_whole(self):
        rng = random.Random(20261022)
        table = LayeredTable(brute_compositions(7))
        _kernels_py.scan_layered(7, table)
        ids = list(_suffixes(table))
        families = [
            ({g for g in ids if mask >> g & 1}, bound) for mask, bound in table.families
        ]
        for _ in range(2000):
            family, _ = rng.choice(families)
            state = {0, *family, *rng.sample(ids, rng.randint(0, 20))}
            if rng.random() < 0.5:
                state.discard(rng.choice(sorted(family)))
            held = [b for f, b in families if state.issuperset(f)]
            mask = sum(1 << g for g in state)
            assert _kernels_py._family_bound(mask, table.families) == max(held, default=0)

    def test_ids_are_the_compositions_binary_codes(self):
        # the rank-r composition of k is the suffix id 2^k - 1 - r
        for k in range(11):
            for rank, c in enumerate(brute_compositions(k)):
                assert LayeredTable([c]).root == 1 | 1 << (2**k - 1 - rank), c

    def test_needs_above_the_cap_are_refused(self):
        # a state has a bit for every id below 2^need, so the check comes
        # before any mask: at need 64 one would not fit in memory
        for profiles in (((21,),), ((1, 2), (7, 7, 7)), ((64,),)):
            with pytest.raises(ValueError):
                LayeredTable(profiles)

    def test_the_largest_need_scans(self):
        # (20,) fits only the last composition of 20
        table = LayeredTable(((20,),))
        assert _kernels_py.scan_layered(19, table) == (-1, 2**18)
        assert _kernels_py.scan_layered(20, table) == (2**19 - 1, 2**19)


def _suffixes(table):
    """The layer profile of each suffix id of the table, in id order: id g
    of need k is the binary code of the composition of k of rank
    2^k - 1 - g."""
    ids = [g for g in range(table.suffixes.bit_length()) if table.suffixes >> g & 1]
    decode = _kernels_py.composition_at_rank
    return {g: decode(g.bit_length(), (1 << g.bit_length()) - 1 - g) for g in ids}


# every completion of up to 10 positions, and for a suffix the mask of the
# completions it fits, by the exhaustive oracle
_COMPLETIONS = [c for r in range(11) for c in brute_compositions(r)]


@functools.lru_cache(maxsize=None)
def _fitting(suffix):
    return sum(1 << i for i, c in enumerate(_COMPLETIONS) if layered_fits(suffix, c))


def _completions(state, suffixes):
    """The mask of the completions that fit every suffix of the state."""
    fits = -1
    for g, suffix in suffixes.items():
        if state >> g & 1:
            fits &= _fitting(suffix)
    return fits


class TestReduction:
    def test_down_sets_are_the_brute_down_sets(self):
        table = LayeredTable(brute_compositions(7))
        suffixes = _suffixes(table)
        assert sorted(suffixes.values()) == sorted(
            c for k in range(8) for c in brute_compositions(k)
        )
        for g, host in suffixes.items():
            brute = sum(1 << h for h, sub in suffixes.items() if layered_fits(sub, host))
            assert _kernels_py._down(g, table) == brute, host

    def test_reduced_states_keep_exactly_the_maximal_suffixes(self):
        # random states of profile sets with and without whole families: the
        # reduction keeps bit 0 and the top bit, keeps an antichain that
        # covers every suffix it drops, and changes no fitting completion
        rng = random.Random(20261023)
        for patterns in (*_family_sets(rng), tuple(brute_compositions(7))):
            table = LayeredTable(patterns)
            suffixes = _suffixes(table)
            ids = list(suffixes)[1:]
            for _ in range(30):
                members = rng.sample(ids, rng.randint(0, min(40, len(ids))))
                state = 1 | sum(1 << g for g in members)
                reduced = _kernels_py._reduce(state, table)
                assert reduced & state == reduced
                assert reduced & 1 and reduced.bit_length() == state.bit_length()
                kept = [g for g in ids if reduced >> g & 1]
                dropped = [g for g in ids if (state ^ reduced) >> g & 1]
                for g, h in itertools.permutations(kept, 2):
                    assert not layered_fits(suffixes[h], suffixes[g]), (suffixes[h], suffixes[g])
                for h in dropped:
                    assert any(layered_fits(suffixes[h], suffixes[g]) for g in kept)
                assert _completions(reduced, suffixes) == _completions(state, suffixes)

    def test_the_search_keys_its_dead_table_by_reduced_states(self):
        for patterns in (tuple(brute_compositions(7)), ((1, 2), (2, 1, 1), (3,))):
            table = LayeredTable(patterns)
            for m in range(17):
                _kernels_py.scan_layered(m, table)
            assert table.dead and table.keys
            for key in (*table.dead, *table.keys.values()):
                assert _kernels_py._reduce(key, table) == key
            for child, key in table.keys.items():
                assert _kernels_py._reduce(child, table) == key


def test_two_maximal_suffixes_need_one_more_position():
    # a completion of exactly N positions that fits a suffix of need N is
    # that suffix, which contains no other maximal suffix of its state: so
    # no composition of a key's top need fits a key with two or more, and
    # the child's stored need is one more than its top need
    seen = 0
    for n in range(1, 9):
        table = LayeredTable.family(n)
        for m in range(n, superpattern_length(n) + 1):
            _kernels_py.scan_layered(m, table)
        suffixes = _suffixes(table)
        needs = {key: need for kids in table.children.values() for _, _, need, key in kids}
        for key, need in needs.items():
            kept = [suffixes[g] for g in suffixes if g and key >> g & 1]
            top = (key.bit_length() - 1).bit_length()
            assert need == top + (len(kept) > 1), kept
            if len(kept) > 1:
                seen += 1
                for c in brute_compositions(top):
                    assert not all(layered_fits(g, c) for g in kept), (kept, c)
    assert seen > 100


def test_scan_layered_leaves_no_cycles():
    # a cycle through the scan's tables would keep them alive until the
    # cycle collector runs; so too for a table reused across lengths
    patterns = tuple(brute_compositions(7))
    gc.collect()
    gc.disable()
    try:
        assert _kernels_py.scan_layered(16, LayeredTable(patterns)) == (-1, 2**15)
        assert gc.collect() == 0
        table = LayeredTable(patterns)
        for m in range(7, 17):
            assert _kernels_py.scan_layered(m, table) == (-1, 2 ** (m - 1))
        del table
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rank_checks(backend):
    # ranks outside [0, count) and reversed ranges are refused
    with pytest.raises(ValueError):
        backend.scan_all_perms(3, ((1,),), 0, 9)
    with pytest.raises(ValueError):
        backend.scan_all_perms(3, ((1,),), -1, 2)
    with pytest.raises(ValueError):
        backend.scan_perm_list([(1, 2), (2, 1)], [(1,)], 0, 5)
    with pytest.raises(ValueError):
        backend.scan_perm_list([(1, 2), (2, 1)], [(1,)], 2, 1)


def test_scan_layered_argument_checks():
    # a negative length has no compositions to scan
    with pytest.raises(ValueError):
        _kernels_py.scan_layered(-1, LayeredTable(((1,),)))


def test_compiled_argument_checks(compiled):
    # 64-bit permutation ranks bound the lengths, and C ints the values
    with pytest.raises(ValueError):
        compiled.scan_all_perms(21, ((1,),), 0, 1)
    with pytest.raises(OverflowError):
        compiled.lex_min_embedding((1,), (2**31,))


def test_compiled_names_are_the_twins(compiled):
    # the compiled module holds containment and the two permutation scans,
    # each a twin function, and the library takes every other kernel from
    # the twin
    public = {
        name for name in dir(compiled)
        if not name.startswith("_") and callable(getattr(compiled, name))
    }
    assert public == {"lex_min_embedding", "scan_all_perms", "scan_perm_list"}
    assert all(callable(getattr(_kernels_py, name, None)) for name in public)
    for name in ("composition_at_rank", "greedy_layer_indices", "scan_layered"):
        assert getattr(kernels, name) is getattr(_kernels_py, name)


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


def test_layered_bench_workload_on_every_backend(backend):
    # perfbench/micro.py times this workload on each importable backend,
    # each of which runs the twin's layered scan
    script = _ROOT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", script)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    _, work = bench._layered_scan_workload()
    assert work(backend) == (-1, 32768)


def test_layered_bench_counts_nodes():
    # the untimed run beside the layered rows counts the search's nodes and
    # entered states, and leaves the kernel unwrapped
    script = _ROOT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", script)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    first_fit = _kernels_py._first_fit
    _, work = bench._layered_scan_workload()
    assert bench._layered_nodes(work) == (47, 29)
    assert _kernels_py._first_fit is first_fit
