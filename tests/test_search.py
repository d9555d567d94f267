import json
import os

import pytest

from superpatterns import (
    check_claims_231,
    check_conjecture_321,
    kernels,
    minimal_superpattern,
    parse,
    superpattern_length,
    superpattern_length_closed,
    verify_universal,
)
from superpatterns.classes import ClassTag, class_count, in_class
from superpatterns.errors import BudgetExceededError
from superpatterns.search import (
    AVOIDING_5UNIVERSAL_AV231_LEN12,
    MIN_5UNIVERSAL_AV231_LEN11,
    resolve_budget,
)


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
        # layered candidates checked against non-layered patterns uses the
        # realize-and-scan route
        report = minimal_superpattern(2, "av231", "layered")
        assert report.min_length == 3
        assert in_class(report.witness, "layered")
        # n = 0: only the empty pattern, contained in the empty candidate
        assert minimal_superpattern(0, "av231", "av231").min_length == 0

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

    def test_budget_exceeded_carries_partial(self):
        with pytest.raises(BudgetExceededError) as exc_info:
            minimal_superpattern(4, "layered", "layered", budget=200)
        err = exc_info.value
        assert err.lengths_exhausted == ((4, 8), (5, 16))
        assert err.budget == 200

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

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("SUPERPATTERN_BUDGET", "123")
        assert resolve_budget(None) == 123
        assert resolve_budget(999) == 999  # explicit argument wins
        with pytest.raises(BudgetExceededError):
            minimal_superpattern(4, "layered", "layered")


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
