import enum
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_contains, brute_lex_min_embedding, patterns_contained
from superpatterns import (
    Embedding,
    Permutation,
    contains,
    decreasing,
    direct_sum,
    parse,
    pattern_of,
)
from superpatterns import kernels, perms
from superpatterns.errors import (
    CapExceededError,
    DuplicateValueError,
    InvalidEmbeddingError,
    NonIntegerTokenError,
    PermutationError,
    ValueOutOfRangeError,
)

perms_upto = lambda max_n: st.integers(0, max_n).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda v: Permutation(tuple(v)))


class TestParse:
    def test_basic(self):
        assert parse("3 4 8 1 7 5 6 2").values == (3, 4, 8, 1, 7, 5, 6, 2)

    def test_commas(self):
        assert parse("3,1,2").values == (3, 1, 2)

    def test_empty(self):
        assert parse("") == Permutation(())
        assert len(parse("   ")) == 0

    def test_duplicate(self):
        with pytest.raises(DuplicateValueError):
            parse("1 1 2")

    def test_out_of_range(self):
        with pytest.raises(ValueOutOfRangeError):
            parse("1 2 4")
        with pytest.raises(ValueOutOfRangeError):
            parse("0 1")

    def test_non_integer(self):
        with pytest.raises(NonIntegerTokenError):
            parse("1 x 2")

    def test_direct_construction_validates(self):
        with pytest.raises(PermutationError):
            Permutation((2, 2))

    @given(perms_upto(8))
    def test_round_trip_is_canonical(self, perm):
        messy = " ,  ".join(str(v) for v in perm.values)
        assert str(parse(messy)) == str(perm)
        assert parse(str(perm)) == perm


class _Rank(enum.IntEnum):
    FIRST = 1
    SECOND = 2


def _outcome(check, values):
    try:
        check(values)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)
    return None


def _loop_error(values):
    """The error class the first bad entry calls for, written from the
    definition and not from perms: each entry an int, not a bool, in 1..n
    and not seen before.  None when every entry passes."""
    seen = set()
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            return PermutationError
        if not 1 <= v <= len(values):
            return ValueOutOfRangeError
        if v in seen:
            return DuplicateValueError
        seen.add(v)
    return None


class TestValidation:
    """Construction fails as an entry-by-entry loop of the test's own says
    the first bad entry calls for, with the exception class each input
    expects, and succeeds exactly for int entries, not bools, whose sorted
    values are 1..n."""

    @pytest.mark.parametrize(
        "values, error",
        [
            ((True,), PermutationError),
            ((2, True), PermutationError),
            ((1.0,), PermutationError),
            ((2, 1.0), PermutationError),
            (("1",), PermutationError),
            ((0,), ValueOutOfRangeError),
            ((1, 3), ValueOutOfRangeError),
            ((3, 1, 4), ValueOutOfRangeError),
            ((1, 1), DuplicateValueError),
            ((2, 1, 2), DuplicateValueError),
            ((_Rank.SECOND, _Rank.FIRST), None),
            ((2, _Rank.FIRST), None),
            ((), None),
            ((3, 1, 2), None),
        ],
    )
    def test_same_outcome_as_the_loop(self, values, error):
        got = _outcome(Permutation, values)
        assert (got and got[0]) == _loop_error(values) == error
        valid = all(isinstance(v, int) and not isinstance(v, bool) for v in values)
        assert (got is None) == (valid and sorted(values) == list(range(1, len(values) + 1)))

    def test_int_enum_members_are_kept(self):
        assert Permutation((_Rank.SECOND, _Rank.FIRST)) == Permutation((2, 1))

    def test_messages_name_the_first_bad_entry(self):
        with pytest.raises(PermutationError, match="must be integers, got True"):
            Permutation((True,))
        with pytest.raises(ValueOutOfRangeError, match=r"value 3 out of range 1\.\.2"):
            Permutation((1, 3))
        with pytest.raises(DuplicateValueError, match="duplicate value 1"):
            Permutation((1, 1))


class TestDecreasing:
    def test_examples(self):
        assert decreasing(3).values == (3, 2, 1)
        assert decreasing(0) == Permutation(())
        assert decreasing(5).values == (5, 4, 3, 2, 1)

    def test_negative(self):
        with pytest.raises(ValueError, match="^n must be non-negative, got -1$"):
            decreasing(-1)


class TestDirectSum:
    def test_examples(self):
        parts = [decreasing(3), decreasing(1), decreasing(2), decreasing(1)]
        assert str(direct_sum(parts)) == "3 2 1 4 6 5 7"
        assert direct_sum([Permutation(()), parse("2 1 3")]) == parse("2 1 3")
        assert str(direct_sum([parse("1"), parse("2 1")])) == "1 3 2"

    def test_empty_fold(self):
        assert direct_sum([]) == Permutation(())

    @given(perms_upto(5), perms_upto(5), perms_upto(5))
    def test_associative(self, a, b, c):
        assert direct_sum([a, direct_sum([b, c])]) == direct_sum(
            [direct_sum([a, b]), c]
        )


class TestContains:
    def test_known_witness(self):
        emb = contains(parse("5 1 3 4 2"), parse("3 4 8 1 7 5 6 2"))
        assert emb is not None
        assert tuple(emb) == (3, 4, 6, 7, 8)

    def test_singleton(self):
        for host in ["1", "2 1 3", "4 1 3 2"]:
            assert contains(parse("1"), parse(host)) is not None

    def test_absent(self):
        assert contains(parse("2 1"), parse("1 2")) is None
        assert contains(parse("2 1 4 3"), parse("2 4 1 3")) is None
        assert not brute_contains((2, 1, 4, 3), (2, 4, 1, 3))

    def test_empty_pattern(self):
        assert tuple(contains(Permutation(()), parse("2 1"))) == ()
        assert tuple(contains(Permutation(()), Permutation(()))) == ()

    def test_pattern_longer_than_host(self):
        assert contains(parse("1 2 3"), parse("1 2")) is None

    def test_containment_cap(self, monkeypatch):
        cap = perms.CONTAINMENT_CAP
        at_cap = decreasing(cap)
        above = decreasing(cap + 1)
        assert contains(at_cap, at_cap) == Embedding(tuple(range(1, cap + 1)))
        # longer than its host: absent, not refused
        assert contains(above, at_cap) is None

        def no_search(*args):
            raise AssertionError("searched a pattern above the cap")

        monkeypatch.setattr(kernels, "lex_min_embedding", no_search)
        with pytest.raises(CapExceededError, match="containment cap"):
            contains(above, decreasing(cap + 5))

    def test_matches_exhaustive_oracle_all_small(self):
        # Every host of length <= 7 against every pattern of length <= 5.
        for m in range(8):
            for host in itertools.permutations(range(1, m + 1)):
                by_len = {
                    k: patterns_contained(host, k) for k in range(min(m, 5) + 1)
                }
                for k in range(min(m, 5) + 1):
                    for pat in itertools.permutations(range(1, k + 1)):
                        expected = pat in by_len[k]
                        assert kernels.contains(pat, host) == expected

    @given(st.data())
    @settings(max_examples=150)
    def test_witness_is_lex_min_and_valid(self, data):
        n = data.draw(st.integers(1, 8))
        host = Permutation(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
        k = data.draw(st.integers(1, min(n, 5)))
        pattern = Permutation(
            tuple(data.draw(st.permutations(list(range(1, k + 1)))))
        )
        emb = contains(pattern, host)
        brute = brute_lex_min_embedding(pattern.values, host.values)
        if emb is None:
            assert brute is None
        else:
            assert tuple(emb) == tuple(p + 1 for p in brute)
            assert pattern_of(host, emb) == pattern

    @given(st.data())
    @settings(max_examples=150)
    def test_transitive(self, data):
        n = data.draw(st.integers(1, 7))
        rho = Permutation(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
        k = data.draw(st.integers(1, n))
        pos1 = sorted(data.draw(st.sets(st.integers(1, n), min_size=k, max_size=k)))
        pi = pattern_of(rho, pos1)
        j = data.draw(st.integers(1, k))
        pos2 = sorted(data.draw(st.sets(st.integers(1, k), min_size=j, max_size=j)))
        sigma = pattern_of(pi, pos2)
        assert contains(pi, rho) is not None
        assert contains(sigma, pi) is not None
        assert contains(sigma, rho) is not None


class TestPatternOf:
    def test_known_witness(self):
        host = parse("3 4 8 1 7 5 6 2")
        assert str(pattern_of(host, (3, 4, 6, 7, 8))) == "5 1 3 4 2"

    def test_identity(self):
        host = parse("2 4 1 3")
        assert pattern_of(host, (1, 2, 3, 4)) == host

    def test_pair(self):
        assert str(pattern_of(parse("2 4 1 3"), (2, 4))) == "2 1"

    def test_errors(self):
        host = parse("2 4 1 3")
        with pytest.raises(InvalidEmbeddingError):
            pattern_of(host, (2, 5))
        with pytest.raises(InvalidEmbeddingError):
            pattern_of(host, (3, 2))
        with pytest.raises(InvalidEmbeddingError):
            pattern_of(host, (2, 2))


class TestEmbedding:
    def test_validation(self):
        with pytest.raises(InvalidEmbeddingError):
            Embedding((0, 1))
        with pytest.raises(InvalidEmbeddingError):
            Embedding((2, 2))
        assert len(Embedding((1, 3, 5))) == 3
