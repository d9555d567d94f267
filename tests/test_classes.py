import itertools

import pytest

from oracles import catalan_ref, filter_class_tuples
from superpatterns import Permutation, parse
from superpatterns.classes import (
    ClassTag,
    catalan,
    class_count,
    class_counter,
    class_tuples,
    coerce_tag,
    enumerate_class,
    in_class,
)
from superpatterns.errors import CapExceededError


def test_av231_length_3_example():
    members = [str(p) for p in enumerate_class("av231", 3)]
    assert members == ["1 2 3", "1 3 2", "2 1 3", "3 1 2", "3 2 1"]


def test_all_length_0():
    assert list(enumerate_class("all", 0)) == [Permutation(())]


def test_av321_length_4_count():
    assert sum(1 for _ in enumerate_class("av321", 4)) == 14


def test_counts_match_catalan():
    for n in range(11):
        assert catalan(n) == catalan_ref(n)
        for tag in (ClassTag.AV231, ClassTag.AV321):
            assert class_count(tag, n) == catalan(n)
            assert sum(1 for _ in class_tuples(tag, n)) == catalan(n)


def test_each_tag_has_one_count_function():
    # the report check counts many lengths of one class with the function
    # class_counter picks once; it is class_count at every length, and a
    # bad tag is refused when the function is picked
    for tag in ClassTag:
        count = class_counter(tag.value)
        assert count is class_counter(tag)
        assert [count(n) for n in range(9)] == [
            sum(1 for _ in class_tuples(tag, n)) for n in range(9)
        ], tag
        assert [count(n) for n in range(30)] == [class_count(tag, n) for n in range(30)]
    with pytest.raises(ValueError, match="is not a valid ClassTag"):
        class_counter("Layered")


def test_direct_generators_match_filter():
    for tag, forbidden in ((ClassTag.AV231, (2, 3, 1)), (ClassTag.AV321, (3, 2, 1))):
        for n in range(10):
            assert list(class_tuples(tag, n)) == filter_class_tuples(forbidden, n)


def test_enumeration_is_lexicographic():
    for tag in ClassTag:
        for n in range(7):
            members = [p.values for p in enumerate_class(tag, n)]
            assert members == sorted(members)


def test_membership_predicates():
    assert in_class(parse("3 2 1 4 6 5 7"), "layered")
    assert not in_class(parse("2 4 1 3"), "layered")
    assert in_class(parse("3 2 1"), "av231")
    assert not in_class(parse("2 3 1"), "av231")
    assert not in_class(parse("3 2 1"), "av321")
    assert in_class(parse("2 3 1"), "av321")
    assert in_class(parse("2 3 1"), "all")


def test_membership_matches_enumeration():
    for tag in ClassTag:
        for n in range(6):
            members = set(class_tuples(tag, n))
            for values in itertools.permutations(range(1, n + 1)):
                assert (values in members) == in_class(Permutation(values), tag)


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        next(class_tuples("av231", 13))
    with pytest.raises(CapExceededError):
        next(class_tuples("all", 13))



@pytest.mark.parametrize("tag", list(ClassTag), ids=str)
def test_negative_length_is_refused(tag):
    with pytest.raises(ValueError, match="non-negative"):
        next(class_tuples(tag, -1))
    with pytest.raises(ValueError, match="non-negative"):
        next(enumerate_class(tag, -2))


def test_tags_coerce_from_their_values():
    # a string tag is looked up in a dict, a member stands for itself, and
    # anything else raises the ValueError of ClassTag(tag)
    for tag in ClassTag:
        assert coerce_tag(tag.value) is tag
        assert coerce_tag(tag) is tag
    for bad in ("Layered", "", None, 3, [1]):
        with pytest.raises(ValueError, match="is not a valid ClassTag"):
            coerce_tag(bad)
