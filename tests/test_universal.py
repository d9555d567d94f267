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
    dp_max_decreasing_positions,
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
from superpatterns.classes import ClassTag
from superpatterns.errors import CapExceededError, InternalDefectError


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
        # Independent check that the table's split minima (computed with the
        # convex walk) are true minima with the smallest argmin.
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

    def test_monotone_step(self):
        table = LengthTable()
        table.extend_to(2000)
        for n in range(1, 2001):
            assert table.value(n) >= table.value(n - 1) + 1

    def test_argmin_none_at_zero(self):
        assert superpattern_split(0) is None
        assert superpattern_split(4) == 1  # 1 and 2 tie; smallest wins

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "table.txt"
        table = LengthTable()
        table.extend_to(64)
        table.save(path)
        loaded = LengthTable.load(path)
        assert loaded.prefix(64) == table.prefix(64)

    def test_load_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("0\n1\n999\n")
        with pytest.raises(ValueError):
            LengthTable.load(path)

    def test_nonconvex_table_is_a_defect(self):
        # L(5) = 11 doctored to 20: L(6) = 14 would then step by -6 after a
        # step of +12, and the convex walk could miss the minimum
        table = LengthTable()
        table.extend_to(5)
        table._values[5] = 20
        with pytest.raises(InternalDefectError, match="convex"):
            table.extend_to(6)
        assert len(table) == 6


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
        with pytest.raises(CapExceededError):
            verify_universal(parse("1"), 17, "layered")
        with pytest.raises(CapExceededError):
            verify_universal(parse("1"), 9, "av231")

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

    def test_small_example_gains_patterns(self):
        got = layerize(parse("2 4 1 3"))
        assert got == parse("2 1 4 3")
        # the transform may add layered patterns, never lose them
        assert contains(parse("2 1 4 3"), parse("2 4 1 3")) is None
        assert contains(parse("2 1 4 3"), got) is not None

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
        # The identity splits off one entry per round, the worst case for a
        # recursive implementation.  Pin the iterative behavior by leaving
        # only constant headroom above the current stack depth.
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
        finally:
            sys.setrecursionlimit(limit)
