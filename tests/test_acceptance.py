"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything here is exact (integer equality) except the
natural-log lower bound, which uses a 1e-9 guard on the ln term.
"""

import itertools
import math
import time

from oracles import brute_contains
from superpatterns import (
    LengthTable,
    Permutation,
    build_universal,
    check_claims_231,
    check_conjecture_321,
    enumerate_layered,
    layer_profile,
    layered_contains,
    layerize,
    minimal_superpattern,
    parse,
    realize,
    superpattern_length,
    superpattern_length_closed,
    verify_universal,
)
from superpatterns import kernels
from superpatterns.classes import class_count


def _report(num, desc, t0):
    print(f"\n[criterion {num}] {desc}: PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_01_recurrence_matches_closed_form():
    t0 = time.perf_counter()
    table = LengthTable()
    table.extend_to(100_000)
    values = table.prefix(100_000)
    for n in range(100_001):
        assert values[n] == superpattern_length_closed(n), n
    assert values[1:6] == [1, 3, 5, 8, 11]
    _report("01", "recurrence == closed form for 0 <= n <= 100000", t0)


def test_criterion_02_split_optimality():
    t0 = time.perf_counter()
    table = LengthTable()
    values = table.prefix(10_000)
    for n in range(1, 10_001):
        k = n // 2
        assert values[n] == n + values[k] + values[n - k - 1], n
    _report("02", "k = n//2 attains the split minimum for 1 <= n <= 10000", t0)


def test_criterion_03_construction_length_and_universality():
    t0 = time.perf_counter()
    for n in range(15):
        built = build_universal(n)
        assert len(built) == superpattern_length(n), n
        report = verify_universal(built, n, "layered")
        assert report.ok, (n, str(report.missing))
        assert report.patterns_checked == class_count("layered", n)
    _report("03", "built permutations have minimal length and are universal, n <= 14", t0)


def test_criterion_04_search_oracle_matches_recurrence_n_to_7():
    t0 = time.perf_counter()
    for n in range(1, 8):
        report = minimal_superpattern(n, "layered", "layered")
        assert report.min_length == superpattern_length(n), n
        assert [m for m, _ in report.lengths_exhausted] == list(
            range(n, report.min_length)
        )
        for m, count in report.lengths_exhausted:
            assert count == class_count("layered", m)
    _report("04", "exhaustive search minimum == recurrence for 1 <= n <= 7", t0)


def test_criterion_04_search_oracle_n8_enlarged_budget():
    t0 = time.perf_counter()
    report = minimal_superpattern(8, "layered", "layered")
    assert report.min_length == superpattern_length(8) == 21
    assert [m for m, _ in report.lengths_exhausted] == list(range(8, 21))
    for m, count in report.lengths_exhausted:
        assert count == class_count("layered", m)
    _report("04", "exhaustive search minimum == recurrence for n = 8", t0)


def test_criterion_05_unrestricted_candidates_cross_check():
    t0 = time.perf_counter()
    for n in range(1, 5):
        unrestricted = minimal_superpattern(n, "layered", "all")
        restricted = minimal_superpattern(n, "layered", "layered")
        assert unrestricted.min_length == restricted.min_length, n
    _report("05", "all-candidate minimum == layered-candidate minimum, n <= 4", t0)


def test_criterion_06_layerize_property_suite():
    t0 = time.perf_counter()
    golden = layerize(parse("3 5 4 10 1 9 6 8 7 11 2"))
    assert str(golden) == "1 4 3 2 5 10 9 8 7 6 11"
    patterns_by_total = {
        total: [(p, realize(p).values) for p in enumerate_layered(total)]
        for total in range(1, 8)
    }
    for m in range(8):
        for values in itertools.permutations(range(1, m + 1)):
            out = layerize(Permutation(values))
            assert len(out) == m
            out_profile = layer_profile(out)
            assert out_profile is not None
            for total in range(1, m + 1):
                for profile, pattern_values in patterns_by_total[total]:
                    if kernels.contains(pattern_values, values):
                        assert layered_contains(profile, out_profile), (
                            values,
                            profile.sizes,
                        )
    _report("06", "layerize is layered, length-preserving, pattern-superset, |pi| <= 7", t0)


def test_criterion_07_greedy_equivalence():
    t0 = time.perf_counter()
    hosts = [
        (h, realize(h)) for total in range(11) for h in enumerate_layered(total)
    ]
    for p_total in range(7):
        for pat in enumerate_layered(p_total):
            pat_perm = realize(pat)
            for host, host_perm in hosts:
                greedy = layered_contains(pat, host)
                backtracking = (
                    kernels.lex_min_embedding(pat_perm.values, host_perm.values)
                    is not None
                )
                assert greedy == backtracking, (pat.sizes, host.sizes)
    _report("07", "greedy layered containment == backtracking, totals <= 6 vs <= 10", t0)


def test_criterion_08_av231_computations():
    t0 = time.perf_counter()
    report = check_claims_231()
    for claim in report.claims:
        assert claim.passed, claim.name
    assert report.claims[2].details["candidates_checked"] == 58786
    _report("08", "all four recorded av231 computations reproduce", t0)


def test_criterion_09_length_bounds():
    t0 = time.perf_counter()
    table = LengthTable()
    values = table.prefix(10_000)
    for n in range(2, 10_001):
        lower = n * math.log(n) - n + 2
        assert values[n] >= lower - 1e-9, n
        assert values[n] <= n * (n.bit_length() - 1) + n, n
    _report("09", "n ln n - n + 2 <= a(n) <= n floor(log2 n) + n for 2 <= n <= 10000", t0)


def test_criterion_10_conjecture_checker_definite_verdicts():
    t0 = time.perf_counter()
    verdicts = {}
    for n in range(1, 4):
        report = check_conjecture_321(n)
        assert isinstance(report.holds, bool)
        assert report.avoiding_total == class_count("av321", report.min_length)
        verdicts[n] = (report.holds, report.min_length)
    report4 = check_conjecture_321(4, budget=200_000_000)
    verdicts[4] = (report4.holds, report4.min_length)
    _report("10", f"definite 321-conjecture verdicts for n <= 4: {verdicts}", t0)
