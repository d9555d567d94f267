import json
import math
import os

import pytest

from oracles import brute_first_outside, catalan_ref
from superpatterns import (
    check_claims_231,
    check_conjecture_321,
    kernels,
    minimal_superpattern,
    parse,
    search,
    superpattern_length,
    superpattern_length_closed,
    verify_universal,
)
from superpatterns.classes import ClassTag, class_count, in_class
from superpatterns.errors import BudgetExceededError, InternalDefectError
from superpatterns.search import (
    AVOIDING_5UNIVERSAL_AV231_LEN12,
    MIN_5UNIVERSAL_AV231_LEN11,
    InfeasibleReport,
)

_TAGS = ("layered", "av231", "av321", "all")

# Feasible searches at n = 3, 4 as (min_length, witness, candidates_examined),
# pinned from the search before infeasible queries were answered by class
# closure.  Up to n = 2 all four classes have the same members, so every
# pair gives the layered report.
_FEASIBLE = {
    ("layered", "layered", 3): (5, "1 4 3 2 5", 19),
    ("layered", "av231", 3): (5, "1 4 3 2 5", 28),
    ("layered", "all", 3): (5, "1 4 3 2 5", 45),
    ("av231", "av231", 3): (5, "1 5 3 2 4", 31),
    ("av231", "all", 3): (5, "1 5 3 2 4", 51),
    ("av321", "av321", 3): (5, "1 3 5 2 4", 29),
    ("av321", "all", 3): (5, "1 3 5 2 4", 41),
    ("all", "all", 3): (5, "2 5 3 1 4", 75),
    ("layered", "layered", 4): (8, "1 3 2 7 6 5 4 8", 167),
    ("layered", "av231", 4): (8, "1 3 2 7 6 5 4 8", 777),
    ("layered", "all", 4): (8, "1 3 2 7 6 5 4 8", 6711),
    ("av231", "av231", 4): (8, "1 8 5 3 2 4 7 6", 986),
    ("av231", "all", 4): (8, "1 3 8 6 2 5 4 7", 7299),
    ("av321", "av321", 4): (7, "2 4 6 1 3 7 5", 429),
    ("av321", "all", 4): (7, "2 4 6 1 3 7 5", 1898),
    ("all", "all", 4): (9, "1 3 7 9 6 2 5 8 4", 54820),
}
for _p in _TAGS:
    for _c in _TAGS:
        _FEASIBLE.update({(_p, _c, 0): (0, "", 1), (_p, _c, 1): (1, "1", 1)})
        _FEASIBLE[_p, _c, 2] = (3, "1 3 2", 4)


def _count_ref(tag, m):
    if tag == "layered":
        return 2 ** (m - 1) if m else 1
    return math.factorial(m) if tag == "all" else catalan_ref(m)


def _semantic(report):
    d = report.to_json_dict()
    d.pop("elapsed_ms")
    return d


class TestMinimalSuperpattern:
    def test_layered_n2(self):
        report = minimal_superpattern(2, "layered", "layered")
        assert report.min_length == 3
        assert report.lengths_exhausted == ((2, 2),)

    def test_layered_n4_matches_table(self):
        report = minimal_superpattern(4, "layered", "layered")
        assert report.min_length == superpattern_length(4) == 8

    def test_report_invariants(self):
        report = minimal_superpattern(5, "layered", "layered")
        assert verify_universal(report.witness, 5, "layered").ok
        assert in_class(report.witness, report.candidate_class)
        for m, count in report.lengths_exhausted:
            assert m < report.min_length
            assert count == class_count("layered", m)

    def test_unrestricted_matches_layered_small(self):
        for n in range(1, 4):
            all_report = minimal_superpattern(n, "layered", "all")
            layered_report = minimal_superpattern(n, "layered", "layered")
            assert all_report.min_length == layered_report.min_length

    def test_deterministic_reruns(self):
        a = minimal_superpattern(4, "layered", "layered")
        b = minimal_superpattern(4, "layered", "layered")
        assert _semantic(a) == _semantic(b)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
    def test_parallel_matches_serial(self):
        # n=6 reaches lengths with >2048 candidates, so workers really spawn
        serial = minimal_superpattern(6, "layered", "layered")
        parallel = minimal_superpattern(6, "layered", "layered", jobs=2)
        assert _semantic(serial) == _semantic(parallel)

    def test_layered_candidates_avoider_patterns(self):
        # up to n = 2 every pattern is layered, so layered candidates are
        # scanned on layer profiles whatever the pattern class
        for ptag in ("av231", "av321", "all"):
            for n in range(3):
                report = minimal_superpattern(n, ptag, "layered")
                layered = _semantic(minimal_superpattern(n, "layered", "layered"))
                assert _semantic(report) == {**layered, "pattern_class": ptag}
                assert in_class(report.witness, "layered")

    def test_json_schema(self):
        report = minimal_superpattern(3, "layered", "layered")
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert set(payload) == {
            "n",
            "pattern_class",
            "candidate_class",
            "min_length",
            "witness",
            "candidates_examined",
            "lengths_exhausted",
            "elapsed_ms",
        }
        assert payload["witness"] == str(report.witness)
        assert all(
            isinstance(m, int) and isinstance(c, int)
            for m, c in payload["lengths_exhausted"]
        )

    def test_infeasible_json_schema(self):
        report = minimal_superpattern(3, "all", "layered")
        assert report.to_json_dict() == {
            "n": 3,
            "pattern_class": "all",
            "candidate_class": "layered",
            "infeasible": True,
            "certificate": "2 3 1",
            "elapsed_ms": report.elapsed_ms,
        }

    def test_budget_exceeded_carries_partial(self):
        with pytest.raises(BudgetExceededError) as exc_info:
            minimal_superpattern(4, "layered", "layered", budget=200)
        err = exc_info.value
        assert err.lengths_exhausted == ((4, 8), (5, 16))
        assert err.budget == 200
        assert "layered length 6" in str(err) and "exhausted: 4, 5" in str(err)

    def test_rejects_bad_inputs(self, monkeypatch):
        with pytest.raises(ValueError, match="non-negative"):
            minimal_superpattern(-1, "layered", "layered")
        with pytest.raises(ValueError, match="non-negative"):
            check_conjecture_321(-2)
        for jobs in (0, -5):
            with pytest.raises(ValueError, match="jobs"):
                minimal_superpattern(3, "layered", "layered", jobs=jobs)
        # more workers than CPUs is refused before any pool starts
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(ValueError, match="jobs"):
            minimal_superpattern(3, "layered", "layered", jobs=2)
        with pytest.raises(ValueError, match="jobs"):
            check_conjecture_321(2, jobs=2)

    def test_infeasible_answered_before_budget_and_pool(self, monkeypatch):
        with pytest.raises(ValueError, match="non-negative"):
            minimal_superpattern(-1, "all", "layered")
        with pytest.raises(ValueError, match="jobs"):
            minimal_superpattern(3, "all", "layered", jobs=0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        report = minimal_superpattern(3, "all", "layered", budget=1, jobs=2)
        assert isinstance(report, InfeasibleReport)
        assert str(report.certificate) == "2 3 1"
        # a feasible search this long does start the pool
        with pytest.raises(AssertionError, match="pool"):
            minimal_superpattern(6, "layered", "layered", jobs=2)

    def test_layered_route_guard(self, monkeypatch):
        # were an infeasible query let through, the profile scan would check
        # only the layered patterns: the guard refuses it
        monkeypatch.setattr(search, "_outside_candidates", lambda *args: None)
        with pytest.raises(InternalDefectError):
            minimal_superpattern(3, "all", "layered")

    def test_bad_certificate_is_a_defect(self):
        for certificate in ("1 3 2", "2 1"):  # inside the candidates; wrong n
            report = InfeasibleReport(
                3, ClassTag.ALL, ClassTag.LAYERED, parse(certificate), elapsed_ms=0
            )
            with pytest.raises(InternalDefectError):
                search._check_report(report)


@pytest.mark.parametrize("ptag", _TAGS)
@pytest.mark.parametrize("ctag", _TAGS)
def test_class_pair_matrix(ptag, ctag):
    # infeasible exactly when brute containment finds a pattern outside the
    # candidate class, with the lex-first one as the certificate; feasible
    # reports as pinned
    for n in range(5):
        outside = brute_first_outside(ptag, ctag, n)
        report = minimal_superpattern(n, ptag, ctag)
        assert ((ptag, ctag, n) not in _FEASIBLE) == (outside is not None)
        if outside is not None:
            assert isinstance(report, InfeasibleReport)
            assert report.certificate.values == outside
            assert report.elapsed_ms < 1000
            continue
        min_length, witness, examined = _FEASIBLE[ptag, ctag, n]
        exhausted = [[m, _count_ref(ctag, m)] for m in range(n, min_length)]
        assert _semantic(report) == {
            "n": n,
            "pattern_class": ptag,
            "candidate_class": ctag,
            "min_length": min_length,
            "witness": witness,
            "candidates_examined": examined,
            "lengths_exhausted": exhausted,
        }


class TestClaims231:
    def test_all_claims_pass(self):
        report = check_claims_231()
        assert report.all_passed
        assert [c.passed for c in report.claims] == [True] * 4
        assert report.claims[2].details["candidates_checked"] == 58786

    def test_witness_constants(self):
        assert MIN_5UNIVERSAL_AV231_LEN11 == parse("1 5 11 9 3 2 8 4 7 6 10")
        assert AVOIDING_5UNIVERSAL_AV231_LEN12 == parse("1 11 3 2 10 7 5 4 6 9 8 12")

    def test_budget_gate(self):
        with pytest.raises(BudgetExceededError):
            check_claims_231(budget=1000)

    def test_budget_boundaries(self):
        # the length-11 exhaustion is charged 58,786 avoiders x 42 patterns
        assert check_claims_231(budget=2_469_012).all_passed
        with pytest.raises(BudgetExceededError, match="av231 length 11") as exc_info:
            check_claims_231(budget=2_469_011)
        err = exc_info.value
        assert (err.lengths_exhausted, err.estimated, err.budget) == ((), 2_469_012, 2_469_011)
        # the minimality scans are charged on top of it, 5! x 42 at length 5
        with pytest.raises(BudgetExceededError, match="all length 5") as exc_info:
            check_claims_231(verify_minimality=True, budget=2_474_051)
        err = exc_info.value
        assert (err.lengths_exhausted, err.estimated, err.budget) == ((), 2_474_052, 2_474_051)

    def test_claim3_counterexample_is_named(self, monkeypatch):
        monkeypatch.setattr(search, "_scan_range", lambda *args: 0)
        report = check_claims_231()
        assert not report.all_passed
        assert [c.passed for c in report.claims] == [True, True, False, True]
        assert report.claims[2].details == {
            "candidates_checked": 1,
            "counterexample": "1 2 3 4 5 6 7 8 9 10 11",
        }

    @pytest.mark.slow
    @pytest.mark.skipif(kernels.BACKEND == "python", reason="needs the compiled kernel")
    def test_optional_minimality_over_all_candidates(self):
        report = check_claims_231(verify_minimality=True, budget=300_000_000)
        assert report.all_passed
        assert len(report.claims) == 10


class TestConjecture321:
    def test_n1(self):
        report = check_conjecture_321(1)
        assert report.holds and report.min_length == 1
        assert str(report.avoiding_witness) == "1"

    def test_n2(self):
        report = check_conjecture_321(2)
        assert report.holds and report.min_length == 3
        assert str(report.avoiding_witness) == "1 3 2"

    def test_n3_definite_verdict(self):
        report = check_conjecture_321(3)
        assert report.holds in (True, False)
        assert report.avoiding_total == class_count("av321", report.min_length)
        if report.holds:
            assert verify_universal(report.avoiding_witness, 3, "av321").ok

    def test_budget_boundary(self):
        # phase 1 charges lengths 4..7 of all permutations, phase 2 the 429
        # 321-avoiders of length 7, each times 14 patterns, to one budget
        report = check_conjecture_321(4, budget=88_662)
        assert report.min_length == 7 and report.avoiding_total == 429
        with pytest.raises(BudgetExceededError, match="av321 length 7") as exc_info:
            check_conjecture_321(4, budget=88_661)
        err = exc_info.value
        assert (err.lengths_exhausted, err.estimated, err.budget) == ((), 88_662, 88_661)

    def test_json_schema(self):
        payload = check_conjecture_321(2).to_json_dict()
        assert set(payload) == {
            "n",
            "min_length",
            "all_search",
            "holds",
            "avoiding_witness",
            "avoiding_candidates_examined",
            "avoiding_total",
            "elapsed_ms",
        }


@pytest.mark.slow
@pytest.mark.skipif(kernels.BACKEND == "python", reason="needs the compiled kernel")
def test_av231_over_av231_candidates_full_search():
    report = minimal_superpattern(5, "av231", "av231")
    assert report.min_length == 12
    assert (11, 58786) in report.lengths_exhausted
    assert in_class(report.witness, "av231")
    assert verify_universal(report.witness, 5, "av231").ok


@pytest.mark.slow
@pytest.mark.parametrize("n", [9, 10])
def test_layered_minimality_by_enumeration(n):
    # beyond the acceptance suite's n <= 8: every shorter length exhausted
    report = minimal_superpattern(n, "layered", "layered", budget=10**12)
    assert report.min_length == superpattern_length(n) == superpattern_length_closed(n)
    assert [m for m, _ in report.lengths_exhausted] == list(range(n, report.min_length))
    assert all(count == 2 ** (m - 1) for m, count in report.lengths_exhausted)
    assert verify_universal(report.witness, n, "layered").ok
