import functools
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_contains,
    brute_first_missing_layered,
    brute_max_decreasing_positions,
    brute_split_min,
    direct_sum_universal,
    dp_max_decreasing_positions,
    longest_decreasing_from,
    recursive_layerize,
    layered_fits,
    patterns_contained,
)
from superpatterns import (
    LayerProfile,
    LengthTable,
    Permutation,
    build_universal,
    contains,
    decreasing,
    enumerate_layered,
    layer_profile,
    layered_contains,
    layerize,
    max_decreasing_subsequence,
    parse,
    pattern_of,
    realize,
    superpattern_length,
    superpattern_length_closed,
    superpattern_split,
    verify_universal,
)
from superpatterns import layered, universal
from superpatterns.classes import ClassTag, class_tuples
from superpatterns.errors import CapExceededError, InternalDefectError
from superpatterns.universal import _decreasing_chains, _max_decreasing_positions


_SCAN_N = 4200


@functools.cache
def _full_scan_table(n):
    """Values and smallest argmins of the recurrence for 0..n, each entry by
    a scan of every split."""
    values = np.zeros(n + 1, dtype=np.int64)
    argmins = [None]
    for m in range(1, n + 1):
        f = values[:m] + values[m - 1 :: -1]
        k = int(f.argmin())
        values[m] = m + f[k]
        argmins.append(k)
    return values.tolist(), argmins


class TestLengthTable:
    def test_spot_values(self):
        assert superpattern_length(0) == 0
        assert [superpattern_length(n) for n in range(1, 6)] == [1, 3, 5, 8, 11]
        assert superpattern_length(7) == 17

    def test_closed_form_examples(self):
        assert superpattern_length_closed(0) == 0
        assert superpattern_length_closed(1) == 1
        assert superpattern_length_closed(4) == 8

    def test_matches_closed_form(self):
        table = LengthTable()
        for n in range(10_001):
            assert table.value(n) == superpattern_length_closed(n)

    def test_full_scan_oracle(self):
        # Independent check that the table's split minima (computed at the
        # middle split, one entry at a time, with argmin by binary search) are true
        # minima with the smallest argmin.
        table = LengthTable()
        values = table.prefix(4000)
        arr = np.array(values, dtype=np.int64)
        for n in range(1, 4001):
            f = arr[:n] + arr[n - 1 :: -1]
            assert values[n] == n + int(f.min())
            assert table.argmin(n) == int(f.argmin())
        oracle_best, oracle_arg = brute_split_min(values, 1234)
        assert values[1234] == 1234 + oracle_best
        assert table.argmin(1234) == oracle_arg

    def test_uneven_extensions_match_the_full_scan(self):
        # each call starts where the last one stopped: growth by 1, 2, 3, 5,
        # 8, ... entries gives the same table as the full scan
        values, argmins = _full_scan_table(_SCAN_N)
        table = LengthTable()
        n, step, nxt = 0, 1, 2
        while n <= _SCAN_N:
            table.extend_to(n)
            assert len(table) == n + 1
            n, step, nxt = n + step, nxt, step + nxt
        table.extend_to(_SCAN_N)
        assert table.prefix(_SCAN_N) == values
        assert [table.argmin(n) for n in range(_SCAN_N + 1)] == argmins

    @pytest.mark.parametrize("k", range(1, 13))
    def test_power_of_two_edges_match_the_full_scan(self, k):
        # built in one call, a table ends just before, at and just past a
        # power of two, where the step of L grows
        values, argmins = _full_scan_table(_SCAN_N)
        for n in (2**k - 1, 2**k, 2**k + 1):
            table = LengthTable()
            table.extend_to(n)
            assert len(table) == n + 1
            assert table.prefix(n) == values[: n + 1]
            assert [table.argmin(m) for m in range(n + 1)] == argmins[: n + 1]

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_extension_in_two_calls(self, extra):
        # a table built to 65,535, then extended in one more call to one
        # entry short of, exactly and one entry past twice 65,536; the
        # values and argmins at the seam and at the end are the brute ones
        size = 65_536
        top = 2 * size - 1 + extra
        table = LengthTable()
        table.extend_to(size - 1)
        table.extend_to(top)
        assert len(table) == top + 1
        values = table.prefix(top)
        assert values == [superpattern_length_closed(n) for n in range(top + 1)]
        arr = np.array(values, dtype=np.int64)
        edges = {size - 2, size - 1, size, size + 1, top - 1, top}
        for n in sorted(edges):
            f = arr[:n] + arr[n - 1 :: -1]
            assert values[n] == n + int(f.min())
            assert table.argmin(n) == int(f.argmin())

    def test_closed_form_to_a_million(self):
        top = 10**6
        values = LengthTable().prefix(top)
        assert values == [superpattern_length_closed(n) for n in range(top + 1)]

    def test_monotone_step(self):
        table = LengthTable()
        table.extend_to(2000)
        for n in range(1, 2001):
            assert table.value(n) >= table.value(n - 1) + 1

    def test_argmin_none_at_zero(self):
        assert superpattern_split(0) is None
        assert superpattern_split(4) == 1  # 1 and 2 tie; smallest wins

    def test_argmin_rejects_negative_n(self):
        table = LengthTable()
        table.extend_to(10)
        with pytest.raises(ValueError, match="n must be non-negative"):
            table.argmin(-1)

    def test_prefix_rejects_negative_n(self):
        table = LengthTable()
        table.extend_to(10)
        with pytest.raises(ValueError, match="n must be non-negative"):
            table.prefix(-5)

    def test_split_rejects_negative_n(self):
        with pytest.raises(ValueError, match="n must be non-negative"):
            superpattern_split(-1)

    def test_nonconvex_table_is_a_defect(self):
        # L(5) = 11 doctored to 20: L(6) = 14 would then step by -6 after a
        # step of +12, and the convex walk could miss the minimum
        table = LengthTable()
        table.extend_to(5)
        table._values[5] = 20
        with pytest.raises(InternalDefectError, match="convex"):
            table.extend_to(6)
        assert len(table) == 6

    @pytest.mark.parametrize("doctored, first_bad", [(999, 1000), (600, 1202)])
    def test_first_nonconvex_n_fails_and_its_call_is_undone(self, doctored, first_bad):
        # entries 1000..1500 are built in one call, which reads entries up
        # to 750: a value raised just before it makes L(1000) step down, and
        # L(600) raised makes L(1200) and L(1201) step up and L(1202) step
        # down; the call fails at that first bad n and takes off what it
        # appended before it, so the table keeps its 1000 entries
        table = LengthTable()
        table.extend_to(999)
        table._values[doctored] += 50
        with pytest.raises(InternalDefectError, match=f"convex at n={first_bad}$"):
            table.extend_to(1500)
        assert len(table) == 1000

    @pytest.mark.parametrize("doctored, first_bad", [(999, 1000), (600, 1202)])
    def test_a_step_that_falls_but_stays_positive_is_a_defect(self, doctored, first_bad):
        # raised by 5, not 50: L(1000) steps up by 5 after a step of 15, and
        # L(1202) by 6 after steps of 16; a check that the table only
        # increases would let both pass
        table = LengthTable()
        table.extend_to(999)
        table._values[doctored] += 5
        with pytest.raises(InternalDefectError, match=f"convex at n={first_bad}$"):
            table.extend_to(1500)
        assert len(table) == 1000

    @pytest.mark.parametrize(
        "call", [superpattern_length, superpattern_split, LengthTable().prefix]
    )
    def test_table_cap_refuses_before_building(self, call):
        # 10^13 entries would take 80 TB; the refusal comes before any entry
        before = len(universal._TABLE)
        with pytest.raises(CapExceededError, match="capped at n=10000000"):
            call(10**13)
        with pytest.raises(CapExceededError):
            call(universal.TABLE_CAP + 1)
        assert len(universal._TABLE) == before

    def test_table_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(universal, "TABLE_CAP", 3000)
        table = LengthTable()
        assert table.value(3000) == superpattern_length_closed(3000)
        with pytest.raises(CapExceededError):
            table.value(3001)
        assert len(table) == 3001


class TestBuildUniversal:
    def test_examples(self):
        assert str(build_universal(1)) == "1"
        assert str(build_universal(2, split=1)) == "1 3 2"
        assert str(build_universal(3, split=1)) == "1 4 3 2 5"
        assert build_universal(0) == Permutation(())

    def test_length_matches_table(self):
        for n in range(21):
            assert len(build_universal(n)) == superpattern_length(n)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            build_universal(3, split=3)
        with pytest.raises(ValueError):
            build_universal(3, split=-1)

    def test_built_permutation_is_layered(self):
        for n in range(15):
            assert layer_profile(build_universal(n)) is not None

    def test_direct_sum_oracle_every_top_split(self):
        for n in range(65):
            assert build_universal(n).values == direct_sum_universal(n)
            for k in range(n):
                assert build_universal(n, k).values == direct_sum_universal(n, k)


    def test_the_table_cap_bounds_the_built_length(self, monkeypatch):
        # L(10^7) is 223,222,809 entries, about 27 GB built: the refusal
        # comes before any layer size is formed
        def refuse(n):
            raise AssertionError(f"layer sizes of U({n}) were formed")

        monkeypatch.setattr(universal, "_universal_sizes", refuse)
        message = r"^U\(10000000\) would have 223222809 entries, above the cap of 10000000$"
        with pytest.raises(CapExceededError, match=message):
            build_universal(10**7)
        monkeypatch.undo()
        # the cap is inclusive, and an explicit split is charged its own
        # length: L(7) = 17, and split 0 of 7 gives 0 + 7 + L(6) = 21
        monkeypatch.setattr(universal, "TABLE_CAP", 17)
        assert len(build_universal(7)) == 17
        for n, split in ((8, None), (7, 0)):
            with pytest.raises(CapExceededError, match="above the cap of 17"):
                build_universal(n, split)


class TestVerifyUniversal:
    def test_examples(self):
        assert verify_universal(parse("1 3 2"), 2, "layered").ok
        report = verify_universal(parse("1 2"), 2, "layered")
        assert not report.ok
        assert report.missing == parse("2 1")
        assert report.patterns_checked == 2
        report = verify_universal(build_universal(5), 5, "layered")
        assert report.ok and report.patterns_checked == 16

    def test_construction_universal_through_12(self):
        for n in range(13):
            assert verify_universal(build_universal(n), n, "layered").ok

    def test_non_layered_candidate(self):
        # 2413 is not layered; the generic route must still verify it.
        report = verify_universal(parse("2 4 1 3"), 2, "layered")
        assert report.ok
        report = verify_universal(parse("2 4 1 3"), 2, "all")
        assert report.ok

    def test_av_classes(self):
        assert verify_universal(parse("1 3 2"), 2, ClassTag.AV231).ok
        report = verify_universal(decreasing(4), 3, "av321")
        assert not report.ok  # 321-avoiders of length 3 include 123

    def test_cap(self):
        # the cap bounds the enumeration of the class; a layered candidate
        # checked for the layered class enumerates nothing (below)
        with pytest.raises(CapExceededError):
            verify_universal(parse("2 4 1 3"), 17, "layered")
        with pytest.raises(CapExceededError):
            verify_universal(parse("1"), 9, "av231")

    def test_layered_candidates_are_verified_beyond_the_cap(self):
        for n in (17, 20, 40):
            assert verify_universal(build_universal(n), n, "layered").ok
        # shrink the first layer of size 3 of U(17), which misses pattern
        # 1,537 of 65,536: the report gives the first miss and count of the
        # ordered enumeration, the oracle placing profiles
        sizes = layer_profile(build_universal(17)).sizes
        i = sizes.index(3)
        shrunk = sizes[:i] + (sizes[i] - 1,) + sizes[i + 1 :]
        report = verify_universal(realize(LayerProfile(shrunk)), 17, "layered")
        checked, missing = brute_first_missing_layered(17, shrunk, layered_fits)
        assert missing is not None and not report.ok
        assert report.missing == realize(LayerProfile(missing))
        assert report.patterns_checked == checked

    def test_layered_verification_is_capped_at_the_table_cap(self, monkeypatch):
        # the reach table and the realized miss take about 127 bytes an n:
        # an n above TABLE_CAP is refused before the table is built, and the
        # cap is inclusive
        candidate = build_universal(40)
        monkeypatch.setattr(universal, "TABLE_CAP", 40)
        assert verify_universal(candidate, 40, "layered").ok

        def refuse(*args):
            raise AssertionError("the reach table was built")

        monkeypatch.setattr(layered, "first_missing_profile", refuse)
        for n in (41, 10**8):
            with pytest.raises(CapExceededError, match=f"capped at n=40, got {n}$"):
                verify_universal(parse("1"), n, "layered")

    def test_layered_candidates_of_other_classes_are_checked_by_containment(self):
        # U(n), U(n + 2), n + 1 layers of size 2, and one layer, which
        # misses a layered pattern first: the report is a walk of the class
        # in order, brute containment, stopping at the first miss
        for n in range(2, 7):
            hosts = (
                build_universal(n),
                build_universal(n + 2),
                realize(LayerProfile((2,) * (n + 1))),
                decreasing(n + 2),
            )
            for host, tag in itertools.product(hosts, ("all", "av231", "av321")):
                checked, missing = 0, None
                for values in class_tuples(tag, n):
                    checked += 1
                    if not brute_contains(values, host.values):
                        missing = Permutation(values)
                        break
                report = verify_universal(host, n, tag)
                assert (report.ok, report.missing, report.patterns_checked) == (
                    missing is None, missing, checked
                ), (str(host), n, tag)

    @pytest.mark.parametrize("class_name", ["layered", "av231", "av321", "all"])
    def test_negative_n_rejected(self, class_name):
        for perm in (parse("1"), parse("2 4 1 3"), Permutation(())):
            with pytest.raises(ValueError, match="n must be non-negative"):
                verify_universal(perm, -1, class_name)


def _random_sizes(rng, total):
    if total == 0:
        return ()
    cuts = sorted(rng.sample(range(1, total), rng.randint(0, total - 1)))
    bounds = [0, *cuts, total]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _check_layered_report(sizes, n, contains=None):
    """verify_universal on the layered host with these layer sizes gives the
    ordered enumeration's ok, first miss and patterns checked."""
    report = verify_universal(realize(LayerProfile(sizes)), n, "layered")
    checked, missing = brute_first_missing_layered(n, sizes, contains)
    assert report.ok == (missing is None), (sizes, n)
    assert report.missing == (None if missing is None else realize(LayerProfile(missing)))
    assert report.patterns_checked == checked, (sizes, n)


class TestLayeredReachTable:
    def test_random_hosts(self):
        rng = random.Random(20261018)
        for n in range(9):
            # The empty host, one shorter than n, and for n <= 5 (n-1)*n,
            # which holds every composition of n but the last, (n).
            hosts = [(), (1,) * max(n - 1, 0)]
            if 2 <= n <= 5:
                hosts.append((n - 1,) * n)
            hosts += [_random_sizes(rng, rng.randint(0, 13)) for _ in range(12)]
            for sizes in hosts:
                _check_layered_report(sizes, n)
            # Hosts with n or more layers mostly miss late; they are too long
            # for brute containment, so the oracle places profiles instead.
            for _ in range(12):
                layers = rng.randint(n, n + 4)
                sizes = tuple(rng.randint(1, max(n, 1)) for _ in range(layers))
                _check_layered_report(sizes, n, layered_fits)

    def test_miss_at_the_last_pattern(self):
        for n in range(2, 15):
            report = verify_universal(realize(LayerProfile((n - 1,) * n)), n, "layered")
            assert report.missing == decreasing(n)
            assert report.patterns_checked == 2 ** (n - 1)

    def test_construction_whole_and_one_layer_shrunk(self):
        # Brute containment on the realizations costs too much beyond U(5)
        # (length 11); above it the oracle places profiles exhaustively.
        for n in range(15):
            contains = None if n <= 5 else layered_fits
            sizes = layer_profile(build_universal(n)).sizes
            _check_layered_report(sizes, n, contains)
            for i, size in enumerate(sizes):
                shrunk = sizes[:i] + ((size - 1,) if size > 1 else ()) + sizes[i + 1 :]
                _check_layered_report(shrunk, n, contains)


class TestDecreasingChains:
    def test_against_the_quadratic_scan(self):
        rng = random.Random(17)
        inputs = [tuple(v) for m in range(7) for v in itertools.permutations(range(1, m + 1))]
        inputs += [tuple(rng.sample(range(1, m + 1), m)) for m in (20, 60, 150) for _ in range(5)]
        for values in inputs:
            chain, top = _decreasing_chains(values)
            assert chain == longest_decreasing_from(values)
            assert top == max(chain, default=0)

    def test_equal_run_lengths_increase(self):
        # the lemma that lets layerize pick D by run length alone
        rng = random.Random(18)
        for m in (5, 30, 200):
            for _ in range(10):
                values = tuple(rng.sample(range(1, m + 1), m))
                chain, _ = _decreasing_chains(values)
                for length in set(chain):
                    run = [v for v, c in zip(values, chain) if c == length]
                    assert run == sorted(run)


class TestMaxDecreasing:
    def test_examples(self):
        assert tuple(max_decreasing_subsequence(decreasing(5))) == (1, 2, 3, 4, 5)
        assert tuple(max_decreasing_subsequence(parse("1 2 3 4"))) == (1,)
        emb = max_decreasing_subsequence(parse("3 4 8 1 7 5 6 2"))
        assert tuple(emb) == (3, 5, 6, 8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_decreasing_subsequence(Permutation(()))

    def test_oracle_exhaustive_small(self):
        for m in range(1, 8):
            for values in itertools.permutations(range(1, m + 1)):
                got = max_decreasing_subsequence(Permutation(values))
                expected = brute_max_decreasing_positions(values)
                assert tuple(got) == tuple(p + 1 for p in expected)

    def test_oracle_random_at_layerize_sizes(self):
        # Scanning every combination is only affordable for short inputs; the
        # quadratic oracle, checked against it there, covers layerize's sizes.
        rng = random.Random(300)
        for m in (8, 10, 12):
            for _ in range(20):
                values = tuple(rng.sample(range(1, m + 1), m))
                expected = brute_max_decreasing_positions(values)
                assert dp_max_decreasing_positions(values) == expected
                got = max_decreasing_subsequence(Permutation(values))
                assert tuple(got) == tuple(p + 1 for p in expected)
        for m in (20, 50, 120, 200, 300):
            for _ in range(3):
                values = tuple(rng.sample(range(1, m + 1), m))
                got = max_decreasing_subsequence(Permutation(values))
                expected = dp_max_decreasing_positions(values)
                assert tuple(got) == tuple(p + 1 for p in expected)

    def test_values_need_not_be_one_to_m(self):
        # layerize recurses on raw values, so the positions must depend only
        # on their relative order: shifted and gapped copies give the same
        for m in range(1, 8):
            for values in itertools.permutations(range(1, m + 1)):
                expected = _max_decreasing_positions(values)
                for copy in (
                    tuple(v + 100 for v in values),
                    tuple(v - m for v in values),
                    tuple(v * v + 7 * v for v in values),
                ):
                    assert _max_decreasing_positions(copy) == expected

    def test_result_is_decreasing(self):
        perm = parse("3 5 4 10 1 9 6 8 7 11 2")
        emb = max_decreasing_subsequence(perm)
        vals = [perm.values[p - 1] for p in emb]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestLayerize:
    def test_golden_case(self):
        got = layerize(parse("3 5 4 10 1 9 6 8 7 11 2"))
        assert str(got) == "1 4 3 2 5 10 9 8 7 6 11"

    def test_fixed_point_on_layered(self):
        for n in range(11):
            for profile in enumerate_layered(n):
                perm = realize(profile)
                assert layerize(perm) == perm

    def test_layered_inputs_skip_the_split(self, monkeypatch):
        inputs = [realize(profile) for n in range(9) for profile in enumerate_layered(n)]
        inputs.append(realize(LayerProfile((3, 1, 40, 2, 1, 7))))

        def refuse(values):
            raise AssertionError(f"split {values}")

        monkeypatch.setattr(universal, "_decreasing_chains", refuse)
        for perm in inputs:
            assert layerize(perm) == perm
        with pytest.raises(AssertionError, match="split"):
            layerize(parse("2 4 1 3"))

    @pytest.mark.parametrize(
        "values, chain",
        [
            # 4 3 is a decreasing run but not a longest one: 1 would extend it
            ((4, 2, 3, 1), [2, 2, 1, 1]),
            # 4 1 skips 2 and 3, which lie below 4 but above 1
            ((4, 2, 3, 1), [2, 2, 2, 1]),
        ],
    )
    def test_a_non_maximal_run_is_a_defect(self, monkeypatch, values, chain):
        monkeypatch.setattr(universal, "_decreasing_chains", lambda item: (chain, 2))
        with pytest.raises(InternalDefectError, match="neither southwest nor northeast"):
            layerize(Permutation(values))

    def test_small_example_gains_patterns(self):
        got = layerize(parse("2 4 1 3"))
        assert got == parse("2 1 4 3")
        # the transform may add layered patterns, never lose them
        assert contains(parse("2 1 4 3"), parse("2 4 1 3")) is None
        assert contains(parse("2 1 4 3"), got) is not None

    def test_recursive_oracle_exhaustive_small(self):
        for m in range(9):
            for values in itertools.permutations(range(1, m + 1)):
                got = layerize(Permutation(values))
                assert got.values == recursive_layerize(values)

    def test_recursive_oracle_random(self):
        rng = random.Random(811)
        inputs = []
        for m in (20, 35, 60, 100, 180, 300):
            for _ in range(4):
                inputs.append(tuple(rng.sample(range(1, m + 1), m)))
            sizes, left = [], m
            while left:
                sizes.append(rng.randint(1, min(left, 9)))
                left -= sizes[-1]
            inputs.append(realize(LayerProfile(tuple(sizes))).values)
        for values in inputs:
            assert layerize(Permutation(values)).values == recursive_layerize(values)

    def test_superset_property_exhaustive_small(self):
        for m in range(7):
            for values in itertools.permutations(range(1, m + 1)):
                perm = Permutation(values)
                out = layerize(perm)
                assert len(out) == m
                out_profile = layer_profile(out)
                assert out_profile is not None
                for total in range(1, m + 1):
                    for profile in enumerate_layered(total):
                        if brute_contains(realize(profile).values, values):
                            assert layered_contains(profile, out_profile)

    def test_idempotent(self):
        for m in range(8):
            for values in itertools.permutations(range(1, m + 1)):
                once = layerize(Permutation(values))
                assert layerize(once) == once

    def test_output_layered_exhaustive_length_8(self):
        for values in itertools.permutations(range(1, 9)):
            assert layer_profile(layerize(Permutation(values))) is not None

    @given(st.permutations(list(range(1, 41))))
    @settings(max_examples=30, deadline=None)
    def test_longer_random_inputs(self, values):
        perm = Permutation(tuple(values))
        out = layerize(perm)
        assert len(out) == 40
        assert layer_profile(out) is not None
        assert layerize(out) == out

    def test_deep_inputs_do_not_touch_the_call_stack(self):
        # The identity is layered and comes back unsplit; rotated left by
        # one, it splits off 2 1 and then one entry per round, the worst case
        # for a recursive implementation.  Pin the iterative behavior by
        # leaving only constant headroom above the current stack depth.
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            ident = Permutation(tuple(range(1, 301)))
            assert layerize(ident) == ident
            rotated = Permutation((*range(2, 301), 1))
            assert layerize(rotated) == Permutation((2, 1, *range(3, 301)))
        finally:
            sys.setrecursionlimit(limit)
