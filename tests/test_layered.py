import itertools
import random
import tracemalloc

import pytest

from oracles import (
    MaskTable,
    brute_compositions,
    brute_contains,
    brute_first_missing_layered,
    layered_fits,
)
from superpatterns import (
    LayerProfile,
    Permutation,
    composition_at_rank,
    composition_count,
    contains,
    enumerate_layered,
    greedy_layer_indices,
    layer_profile,
    layered_contains,
    minimal_superpattern,
    parse,
    parse_profile,
    realize,
    superpattern_length,
)
from superpatterns import kernels
from superpatterns.layered import first_missing_profile
from superpatterns.universal import _universal_sizes
from superpatterns.errors import CapExceededError


class TestProfile:
    def test_realize_examples(self):
        assert str(realize(LayerProfile((3, 1, 2, 1)))) == "3 2 1 4 6 5 7"
        assert realize(LayerProfile((5,))) == parse("5 4 3 2 1")
        assert str(realize(LayerProfile((1, 1, 1)))) == "1 2 3"
        assert realize(LayerProfile(())) == Permutation(())

    def test_text_round_trip(self):
        assert str(LayerProfile((3, 1, 2, 1))) == "[3,1,2,1]"
        assert parse_profile("[3,1,2,1]").sizes == (3, 1, 2, 1)
        assert parse_profile("[ 3, 1 ,2,1 ]").sizes == (3, 1, 2, 1)
        assert parse_profile("[]").sizes == ()
        with pytest.raises(ValueError):
            parse_profile("3,1,2,1")
        # empty parts and separators other than commas are refused by the
        # form itself, not by int()
        for text in ("[1,,2]", "[1,2,]", "[1 2]", "[,]", "[,1]", "[ , ]"):
            with pytest.raises(ValueError, match="not a layer profile"):
                parse_profile(text)
        with pytest.raises(ValueError):
            LayerProfile((0,))

    def test_layer_profile_examples(self):
        assert layer_profile(parse("3 2 1 4 6 5 7")).sizes == (3, 1, 2, 1)
        assert layer_profile(parse("1 2 3 4")).sizes == (1, 1, 1, 1)
        assert layer_profile(parse("2 4 1 3")) is None
        assert layer_profile(Permutation(())).sizes == ()

    def test_round_trip_all_profiles_total_up_to_12(self):
        for n in range(13):
            for profile in enumerate_layered(n):
                assert layer_profile(realize(profile)) == profile

    def test_not_layered_iff_contains_231_or_312(self):
        p231 = parse("2 3 1")
        p312 = parse("3 1 2")
        for m in range(8):
            for values in itertools.permutations(range(1, m + 1)):
                perm = Permutation(values)
                characterized = (
                    contains(p231, perm) is None and contains(p312, perm) is None
                )
                assert (layer_profile(perm) is not None) == characterized


class TestEnumeration:
    def test_lex_order_matches_reference(self):
        for n in range(11):
            got = [p.sizes for p in enumerate_layered(n)]
            assert got == brute_compositions(n)

    def test_example_n3(self):
        realized = [str(realize(p)) for p in enumerate_layered(3)]
        assert realized == ["1 2 3", "1 3 2", "2 1 3", "3 2 1"]

    def test_counts(self):
        assert sum(1 for _ in enumerate_layered(0)) == 1
        assert sum(1 for _ in enumerate_layered(10)) == 512
        for n in range(1, 17):
            assert composition_count(n) == 2 ** (n - 1)
        assert sum(1 for _ in enumerate_layered(16)) == composition_count(16)

    def test_realizations_in_one_line_lex_order(self):
        for n in range(9):
            realized = [realize(p).values for p in enumerate_layered(n)]
            assert realized == sorted(realized)

    def test_ranks_match_the_enumeration(self):
        for rank, profile in enumerate(enumerate_layered(6)):
            assert composition_at_rank(6, rank) == profile

    def test_cap(self):
        # one cap, one message, for a layered enumeration and for the mask
        # oracle's table; 20 itself passes the check, and nothing here scans
        message = "^enumeration of layered length 21 exceeds cap 20$"
        for refused in (
            lambda: enumerate_layered(21),
            lambda: MaskTable(((1, 20),)),
        ):
            with pytest.raises(CapExceededError, match=message):
                refused()
        assert next(enumerate_layered(20)).sizes == (1,) * 20
        assert len(MaskTable(((1, 19),))) == 1
        # the search's chain table has no cap, and the default budget covers
        # the nodes its search visits at 20 and 21
        for n in (20, 21):
            assert minimal_superpattern(n, "layered", "layered").min_length == superpattern_length(n)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            composition_at_rank(3, 4)

    def test_negative_length_is_refused_at_the_call(self):
        with pytest.raises(ValueError, match="non-negative"):
            enumerate_layered(-1)


class TestGreedyContainment:
    def test_examples(self):
        assert layered_contains(LayerProfile((2, 1)), LayerProfile((3, 1, 2, 1)))
        assert not layered_contains(LayerProfile((3, 3)), LayerProfile((3, 1, 2, 1)))
        assert layered_contains(LayerProfile(()), LayerProfile(()))
        assert layered_contains(LayerProfile(()), LayerProfile((4, 2)))

    def test_agrees_with_backtracking_small(self):
        # Full-scale equivalence (totals 6 and 10) runs in the acceptance suite.
        for pn in range(6):
            for hn in range(8):
                for pat in enumerate_layered(pn):
                    pat_perm = realize(pat)
                    for host in enumerate_layered(hn):
                        host_perm = realize(host)
                        assert layered_contains(pat, host) == (
                            contains(pat_perm, host_perm) is not None
                        )

    def test_greedy_indices_witness_structure(self):
        for pn in range(6):
            for hn in range(9):
                for pat in enumerate_layered(pn):
                    for host in enumerate_layered(hn):
                        idx = greedy_layer_indices(pat, host)
                        if idx is None:
                            assert not layered_contains(pat, host)
                            continue
                        assert list(idx) == sorted(set(idx))
                        for layer, j in zip(pat.sizes, idx):
                            assert host.sizes[j] >= layer

    def test_oracle_against_brute_containment(self):
        for pat in enumerate_layered(4):
            for host in enumerate_layered(7):
                expected = brute_contains(realize(pat).values, realize(host).values)
                assert layered_contains(pat, host) == expected


def _fits(pattern, host):
    return kernels.greedy_layer_indices(pattern, host) is not None


class TestFirstMissingProfile:
    """first_missing_profile against walking the compositions of n in order
    (brute_first_missing_layered): ok, first miss and patterns checked."""

    @staticmethod
    def _check(n, sizes, contains):
        checked, missing = first_missing_profile(n, LayerProfile(sizes))
        expected = brute_first_missing_layered(n, sizes, contains)
        assert (checked, missing and missing.sizes) == expected, (n, sizes)

    def test_random_hosts(self):
        # every placement tried (layered_fits), so the oracle shares nothing
        # with the greedy rule the reach table rests on
        rng = random.Random(20261019)
        for _ in range(3000):
            sizes = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 9)))
            self._check(rng.randint(0, 10), sizes, layered_fits)

    def test_the_construction_whole_and_one_layer_shrunk(self):
        # U(n) holds every composition of n but not every one of n + 1;
        # shrinking one layer makes most of them miss
        for n in range(18):
            sizes = _universal_sizes(n)
            hosts = [sizes] + [
                sizes[:i] + ((size - 1,) if size > 1 else ()) + sizes[i + 1 :]
                for i, size in enumerate(sizes)
            ]
            for host in hosts:
                self._check(n, host, _fits)
            assert first_missing_profile(n, LayerProfile(sizes))[1] is None

    def test_memory_is_linear_in_the_host(self):
        # 10^5 layers of one at n = 60: a table of the first layer of each
        # size from each index would hold 6.1 million slots (about 49 MB)
        host = LayerProfile((1,) * 10**5)
        tracemalloc.start()
        try:
            checked, missing = first_missing_profile(60, host)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (checked, missing.sizes) == (2, (1,) * 58 + (2,))
        assert peak < 8 * 2**20, peak
