import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from oracles import brute_first_outside, catalan_ref
from superpatterns import (
    build_universal,
    chains,
    check_claims_231,
    check_conjecture_321,
    Permutation,
    kernels,
    layered,
    minimal_superpattern,
    parse,
    search,
    superpattern_length,
    superpattern_length_closed,
    verify_universal,
)
from superpatterns.classes import ClassTag, class_count, in_class
from superpatterns.errors import BudgetExceededError, InternalDefectError
from superpatterns.chains import composition_at_rank
from superpatterns.layered import realize_values
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


# candidates_examined of the layered proofs for n = 0..10, pinned from the
# search before its dead-state table was shared across lengths, and the
# witnesses it found for n = 9..11 (n = 12 from the search with sorted-tuple
# states, before a state became one int; n = 15 and 16 from the search with
# sorted suffix ids, before an id became its composition's binary code)
_LAYERED_EXAMINED = (
    1, 1, 4, 19, 167, 1386, 11207, 92071, 1429351, 22871599, 365950842
)
_LAYERED_WITNESSES = {
    9: "1 3 2 7 6 5 4 8 17 16 15 14 13 12 11 10 9 18 20 19 24 23 22 21 25",
    10: "1 3 2 7 6 5 4 8 18 17 16 15 14 13 12 11 10 9 19 21 20 26 25 24 23 22 27 29 28",
    11: "1 3 2 7 6 5 4 8 19 18 17 16 15 14 13 12 11 10 9 20 22 21 28 27 26 25 24 23 "
    "29 32 31 30 33",
    12: "1 3 2 7 6 5 4 8 20 19 18 17 16 15 14 13 12 11 10 9 21 24 23 22 25 32 31 30 "
    "29 28 27 26 33 36 35 34 37",
    13: "1 3 2 8 7 6 5 4 9 11 10 24 23 22 21 20 19 18 17 16 15 14 13 12 25 28 27 26 "
    "29 36 35 34 33 32 31 30 37 40 39 38 41",
    14: "1 3 2 9 8 7 6 5 4 10 13 12 11 14 28 27 26 25 24 23 22 21 20 19 18 17 16 15 "
    "29 32 31 30 33 40 39 38 37 36 35 34 41 44 43 42 45",
    15: "1 4 3 2 5 12 11 10 9 8 7 6 13 16 15 14 17 32 31 30 29 28 27 26 25 24 23 22 "
    "21 20 19 18 33 36 35 34 37 44 43 42 41 40 39 38 45 48 47 46 49",
    16: "1 3 2 7 6 5 4 8 16 15 14 13 12 11 10 9 17 20 19 18 21 37 36 35 34 33 32 31 "
    "30 29 28 27 26 25 24 23 22 38 41 40 39 42 49 48 47 46 45 44 43 50 53 52 51 54",
    17: "1 3 2 7 6 5 4 8 16 15 14 13 12 11 10 9 17 20 19 18 21 38 37 36 35 34 33 32 "
    "31 30 29 28 27 26 25 24 23 22 39 41 40 45 44 43 42 46 54 53 52 51 50 49 48 47 55 "
    "58 57 56 59",
    18: "1 3 2 7 6 5 4 8 16 15 14 13 12 11 10 9 17 20 19 18 21 39 38 37 36 35 34 33 "
    "32 31 30 29 28 27 26 25 24 23 22 40 42 41 46 45 44 43 47 56 55 54 53 52 51 50 49 "
    "48 57 59 58 63 62 61 60 64",
    19: "1 3 2 7 6 5 4 8 16 15 14 13 12 11 10 9 17 20 19 18 21 40 39 38 37 36 35 34 "
    "33 32 31 30 29 28 27 26 25 24 23 22 41 43 42 47 46 45 44 48 58 57 56 55 54 53 52 "
    "51 50 49 59 61 60 66 65 64 63 62 67 69 68",
    20: "1 3 2 7 6 5 4 8 16 15 14 13 12 11 10 9 17 20 19 18 21 41 40 39 38 37 36 35 "
    "34 33 32 31 30 29 28 27 26 25 24 23 22 42 44 43 48 47 46 45 49 60 59 58 57 56 55 "
    "54 53 52 51 50 61 63 62 69 68 67 66 65 64 70 73 72 71 74",
}


# witness ranks at the minimum length for n = 19 and 20, as the search on
# masks of suffix ids gave them
_LAYERED_RANKS = {
    19: 107_214_522_316_091_292_025,
    20: 3_430_864_714_121_951_038_438,
}


def _count_ref(tag, m):
    if tag == "layered":
        return 2 ** (m - 1) if m else 1
    return math.factorial(m) if tag == "all" else catalan_ref(m)


def _semantic(report):
    d = report.to_json_dict()
    d.pop("elapsed_ms")
    return d


def _record_kernel_calls(monkeypatch):
    """Record each class enumeration and kernel scan a search makes, in
    order, as (kind, length) pairs; a call from another process would not
    reach the list."""
    calls = []
    enumerate_class = search.class_tuples
    scan_list = kernels.scan_perm_list
    scan_all = kernels.scan_all_perms
    scan_layered = kernels.scan_layered

    def enumerated(tag, m):
        calls.append(("enumerate", m))
        return enumerate_class(tag, m)

    def listed(candidates, patterns):
        calls.append(("list", len(candidates)))
        return scan_list(candidates, patterns)

    def every(m, patterns):
        calls.append(("all", m))
        return scan_all(m, patterns)

    def layered_scan(m, table):
        calls.append(("layered", m))
        return scan_layered(m, table)

    monkeypatch.setattr(search, "class_tuples", enumerated)
    monkeypatch.setattr(kernels, "scan_perm_list", listed)
    monkeypatch.setattr(kernels, "scan_all_perms", every)
    monkeypatch.setattr(kernels, "scan_layered", layered_scan)
    return calls


def _record_tables(monkeypatch):
    """The LayeredTable of each kernels.scan_layered call a search makes,
    in order."""
    tables = []
    scan = kernels.scan_layered

    def kept(m, table):
        tables.append(table)
        return scan(m, table)

    monkeypatch.setattr(kernels, "scan_layered", kept)
    return tables


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

    def test_layered_counts_are_pinned(self):
        for n in range(9):
            report = minimal_superpattern(n, "layered", "layered")
            assert report.candidates_examined == _LAYERED_EXAMINED[n], n
            assert report.min_length == superpattern_length(n), n

    def test_parallel_avoiders_are_enumerated_once(self, monkeypatch):
        # an avoider class is enumerated once per length, in this process,
        # and scanned whole in one call
        calls = _record_kernel_calls(monkeypatch)
        for tag in ("av231", "av321"):
            calls.clear()
            report = minimal_superpattern(4, tag, tag)
            lengths = range(4, report.min_length + 1)
            # the patterns first, then each candidate length
            assert calls == [("enumerate", 4)] + [
                call for m in lengths
                for call in (("enumerate", m), ("list", class_count(tag, m)))
            ]

    def test_each_length_is_one_kernel_call(self, monkeypatch):
        # every permutation of a length is scanned in one call, with no
        # class enumerated past the patterns
        calls = _record_kernel_calls(monkeypatch)
        report = minimal_superpattern(3, "all", "all")
        assert calls == [("enumerate", 3)] + [
            ("all", m) for m in range(3, report.min_length + 1)
        ]

    def test_layered_search_stays_in_this_process(self, monkeypatch):
        # a layered search scans each of its lengths here, once, with its
        # one table
        calls = _record_kernel_calls(monkeypatch)
        for n in (4, 6):
            calls.clear()
            report = minimal_superpattern(n, "layered", "layered")
            assert calls == [("layered", m) for m in range(n, report.min_length + 1)]

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
        # n = 4 charges its lengths 4..8 the nodes 6, 0, 0, 0, 4, 10 in all,
        # the first length's 6 the family proofs, the root's last: 5 refuses
        # length 4 inside the root's proof, and 9 the last, although it
        # holds the witness
        for budget, refused, where in ((5, 4, " (proving the family bound of k = 4)"),
                                       (9, 8, "")):
            with pytest.raises(BudgetExceededError) as exc_info:
                minimal_superpattern(4, "layered", "layered", budget=budget)
            err = exc_info.value
            assert err.lengths_exhausted == tuple((m, 2 ** (m - 1)) for m in range(4, refused))
            assert (err.estimated, err.budget) == (budget + 1, budget)
            done = ", ".join(map(str, range(4, refused))) or "none"
            assert str(err) == (
                f"scanning layered length {refused}{where} needs ~{budget + 1} nodes, over the "
                f"budget of {budget}; lengths exhausted: {done}"
            )
        assert minimal_superpattern(4, "layered", "layered", budget=10).min_length == 8

    def test_a_refused_layered_search_stops_one_node_past_its_budget(self, monkeypatch):
        # the scan counts its nodes against what the ledger has left, so it
        # stops at the node past the budget and names where it was: in the
        # proof of a family bound, or in a length's own scan.  budget=1 at
        # n = 24, a search of 371,700 nodes, stops at its second node
        tables = _record_tables(monkeypatch)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc_info:
            minimal_superpattern(24, "layered", "layered", budget=1)
        assert time.perf_counter() - t0 < 0.1
        err = exc_info.value
        assert (err.lengths_exhausted, err.estimated, err.budget) == ((), 2, 1)
        assert tables[-1].nodes == 2
        assert str(err) == (
            "scanning layered length 24 (proving the family bound of k = 3) needs ~2 "
            "nodes, over the budget of 1; lengths exhausted: none"
        )
        # n = 12 visits 1,480 nodes in all, its family proofs the first
        # 1,418, the root's from node 852 on; the 24 lengths 13..36 enter
        # none and are charged none, so the ledger is the table's nodes,
        # also for a stop in the witness scan of 37
        for budget, m, where in (
            (10, 12, " (proving the family bound of k = 5)"),
            (500, 12, " (proving the family bound of k = 11)"),
            (1000, 12, " (proving the family bound of k = 12)"),
            (1450, 37, ""),
        ):
            with pytest.raises(BudgetExceededError) as exc_info:
                minimal_superpattern(12, "layered", "layered", budget=budget)
            err = exc_info.value
            assert 12 + len(err.lengths_exhausted) == m
            assert err.estimated == tables[-1].nodes == budget + 1
            assert str(err).startswith(
                f"scanning layered length {m}{where} needs ~{budget + 1} nodes"
            )

    def test_layered_lengths_are_charged_the_nodes_they_visit(self, monkeypatch):
        # each length's nodes, once its scan returns; the first length's are
        # the 6 of the family proofs, the root's included, and the lengths
        # below the witness enter no node and are charged none
        charge = search._Budget.charge
        charged = []

        def recorded(ledger, ctag, m, nodes, exhausted):
            charged.append(nodes)
            return charge(ledger, ctag, m, nodes, exhausted)

        monkeypatch.setattr(search._Budget, "charge", recorded)
        minimal_superpattern(4, "layered", "layered")
        assert charged == [6, 0, 0, 0, 4]
        table = chains.LayeredTable(4)
        table._prove_families()
        assert table.nodes == 6

    def test_budget_refusal_at_the_first_length_scans_nothing(self, monkeypatch):
        # a non-layered length is charged its candidates times patterns
        # before any of it is scanned, and the first length is charged from
        # the class counts, so a refused search never builds its patterns
        def no_scan(*args):
            raise AssertionError("scanned or enumerated before the first length was charged")

        monkeypatch.setattr(kernels, "scan_all_perms", no_scan)
        monkeypatch.setattr(kernels, "scan_perm_list", no_scan)
        monkeypatch.setattr(search, "class_tuples", no_scan)
        for n, tag in ((4, "all"), (4, "av231"), (4, "av321"), (10, "all"), (12, "av231")):
            nodes = class_count(tag, n) ** 2
            with pytest.raises(BudgetExceededError) as exc_info:
                minimal_superpattern(n, tag, tag, budget=1)
            err = exc_info.value
            assert str(err) == (
                f"scanning {tag} length {n} needs ~{nodes} nodes, over the budget "
                "of 1; lengths exhausted: none"
            )
            assert (err.lengths_exhausted, err.estimated, err.budget) == ((), nodes, 1)

    def test_layered_node_counts_are_pinned(self, monkeypatch):
        # chains entered per search, the proofs of the family bounds
        # included, as the search's table counts them; a search that forms
        # a state's children anew each time it enters the state enters the
        # same chains as one that keeps them
        class Unkept(dict):
            # a children table that forgets every list it is given
            def get(self, key, default=None):
                return default

        scan = kernels.scan_layered
        tables = []

        def kept(m, table):
            if afresh:
                table.children = Unkept()
            tables.append(table)
            return scan(m, table)

        monkeypatch.setattr(kernels, "scan_layered", kept)
        for afresh in (True, False):
            nodes = []
            for n in range(4, 13):
                minimal_superpattern(n, "layered", "layered")
                nodes.append(tables[-1].nodes)
            assert nodes == [10, 18, 33, 60, 110, 239, 485, 883, 1480], afresh
        minimal_superpattern(20, "layered", "layered")
        assert tables[-1].nodes == 67_648

    def test_layered_dead_and_entered_chains_are_pinned(self, monkeypatch):
        # README's table: the chains in each search's dead table at the
        # end, the family proofs' and the root's included, and the distinct
        # chains it entered, one children entry each
        tables = _record_tables(monkeypatch)
        pins = {
            8: (53, 55), 12: (459, 461), 14: (962, 964), 15: (1_309, 1_311),
            16: (1_742, 1_744), 20: (12_206, 12_208),
        }
        for n, pin in pins.items():
            minimal_superpattern(n, "layered", "layered")
            assert (len(tables[-1].dead), len(tables[-1].children)) == pin, n

    @pytest.mark.slow
    def test_layered_search_of_24_is_pinned(self, monkeypatch):
        tables = _record_tables(monkeypatch)
        report = minimal_superpattern(24, "layered", "layered")
        assert report.min_length == superpattern_length(24)
        table = tables[-1]
        assert (table.nodes, len(table.dead), len(table.children)) == (371_700, 57_221, 57_223)

    def test_negative_budgets_are_refused_before_any_charge(self, monkeypatch):
        def no_charge(*args):
            raise AssertionError("a negative budget was charged")

        monkeypatch.setattr(search._Budget, "charge", no_charge)
        message = "budget must be non-negative, got -5"
        with pytest.raises(ValueError, match=message):
            minimal_superpattern(3, "layered", "layered", budget=-5)
        with pytest.raises(ValueError, match=message):
            check_claims_231(budget=-5)
        with pytest.raises(ValueError, match=message):
            check_conjecture_321(2, budget=-5)
        monkeypatch.undo()
        # a budget of 0 refuses the first length that enters a node, n = 3's
        # with its family proofs; n = 0 enters none, is charged none, and
        # completes
        with pytest.raises(BudgetExceededError, match="budget of 0; lengths exhausted: none"):
            minimal_superpattern(3, "layered", "layered", budget=0)
        assert minimal_superpattern(0, "layered", "layered", budget=0).min_length == 0

    def test_layered_search_memory_is_bounded(self):
        # the n = 16 search keeps a few thousand chains, each one small int
        # with its children; a table of 2^need-bit masks per state peaked
        # near 200 MB here
        tracemalloc.start()
        try:
            report = minimal_superpattern(16, "layered", "layered")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.min_length == 54
        assert peak < 16 * 2**20, peak

    def test_a_refused_search_of_a_large_n_is_small(self):
        # a chain key takes 2 (n + 1) bits, so at n = 20,000 each is about
        # 5 kB; a search refused at 1,000 nodes keeps only the keys it
        # formed, where a list of every family key F(j, 1) would take 77 MB
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="budget of 1000"):
                minimal_superpattern(20_000, "layered", "layered", budget=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_layered_search_beyond_the_cap(self):
        # the search runs on threshold chains and enumerates no profile, so
        # the enumeration's cap of 20 does not bind it: the default budget
        # proves L(21) with a checked report
        report = minimal_superpattern(21, "layered", "layered")
        assert report.min_length == superpattern_length(21) == 79
        assert [m for m, _ in report.lengths_exhausted] == list(range(21, 79))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="non-negative"):
            minimal_superpattern(-1, "layered", "layered")
        with pytest.raises(ValueError, match="non-negative"):
            check_conjecture_321(-2)
        # every search runs in this process: jobs is 1 or refused
        for jobs in (0, 2, -5):
            with pytest.raises(ValueError, match="one process"):
                minimal_superpattern(3, "av231", "av231", jobs=jobs)
        assert minimal_superpattern(3, "av231", "av231", jobs=1).min_length == 5
        with pytest.raises(TypeError):
            check_conjecture_321(2, jobs=1)

    def test_infeasible_answered_before_budget(self):
        with pytest.raises(ValueError, match="non-negative"):
            minimal_superpattern(-1, "all", "layered")
        report = minimal_superpattern(3, "all", "layered", budget=1)
        assert isinstance(report, InfeasibleReport)
        assert str(report.certificate) == "2 3 1"

    def test_import_loads_no_worker_pool(self):
        # neither importing the library and CLI nor running a search loads
        # a process pool
        import superpatterns

        src = Path(superpatterns.__file__).resolve().parent.parent
        code = (
            "import sys, superpatterns, superpatterns.cli; "
            "report = superpatterns.minimal_superpattern(4, 'av231', 'av231'); "
            "print(report.min_length, "
            "sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "8 []"

    def test_layered_route_guard(self, monkeypatch):
        # were an infeasible query let through, the profile scan would check
        # only the layered patterns: the guard refuses it
        monkeypatch.setattr(search, "_outside_candidates", lambda *args: None)
        with pytest.raises(InternalDefectError):
            minimal_superpattern(3, "all", "layered")

    def test_layered_reports_are_checked_beyond_the_verify_cap(self):
        # a layered search may run to n = 20; its witness is re-verified by
        # the reach table, which no verification cap applies to
        witness = build_universal(17)
        exhausted = tuple((m, 2 ** (m - 1)) for m in range(17, len(witness)))
        report = search.SearchReport(
            17, ClassTag.LAYERED, ClassTag.LAYERED, len(witness), witness,
            candidates_examined=1, lengths_exhausted=exhausted, elapsed_ms=0,
        )
        search._check_report(report)

    def test_a_report_must_exhaust_every_length_below_its_witness(self):
        # a report names every length from n up to its witness's, in order,
        # each with its whole class count
        report = minimal_superpattern(4, "layered", "layered")
        full = report.lengths_exhausted
        assert [m for m, _ in full] == [4, 5, 6, 7]
        search._check_report(report)
        for exhausted in (
            full[1:],
            full[:1] + full[2:],
            full[:-1],
            full + ((report.min_length, 2 ** (report.min_length - 1)),),
            full[::-1],
            (),
        ):
            doctored = dataclasses.replace(report, lengths_exhausted=exhausted)
            with pytest.raises(InternalDefectError, match="^incomplete nonexistence enumeration$"):
                search._check_report(doctored)

    def test_a_report_profiles_its_witness_once(self, monkeypatch):
        # one layer profile serves the class check and the re-verification,
        # whatever the classes
        profiled = []
        profile = layered.layer_profile

        def counted(perm):
            profiled.append(perm)
            return profile(perm)

        monkeypatch.setattr(layered, "layer_profile", counted)
        for n, ptag, ctag in [(6, "layered", "layered"), (2, "all", "layered"),
                              (3, "av231", "av231"), (3, "all", "all")]:
            report = minimal_superpattern(n, ptag, ctag)
            assert profiled.count(report.witness) == 1, (n, ptag, ctag)
            profiled.clear()

    def test_a_layered_report_with_a_wrong_witness_is_a_defect(self):
        def report(witness, n):
            return search.SearchReport(
                n, ClassTag.LAYERED, ClassTag.LAYERED, len(witness), witness,
                candidates_examined=1, lengths_exhausted=(), elapsed_ms=0,
            )

        # not layered: outside the candidate class
        with pytest.raises(InternalDefectError, match="outside its candidate class"):
            search._check_report(report(parse("2 4 1 3"), 2))
        # U(n) with one layer shrunk by one is layered and misses a pattern
        for n in (3, 8, 17):
            sizes = layered.layer_profile(build_universal(n)).sizes
            for i, size in enumerate(sizes):
                shrunk = sizes[:i] + ((size - 1,) if size > 1 else ()) + sizes[i + 1 :]
                witness = Permutation(realize_values(shrunk))
                if verify_universal(witness, n, "layered").ok:
                    continue
                with pytest.raises(InternalDefectError, match="failed re-verification"):
                    search._check_report(report(witness, n))

    @pytest.mark.parametrize("class_name", _TAGS)
    def test_a_negative_n_is_refused_before_any_profile(self, monkeypatch, class_name):
        def no_profile(perm):
            raise AssertionError("profiled before n was checked")

        monkeypatch.setattr(layered, "layer_profile", no_profile)
        for perm in (parse("1"), parse("2 4 1 3"), build_universal(3)):
            with pytest.raises(ValueError, match="n must be non-negative"):
                verify_universal(perm, -1, class_name)

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

    def test_minimality_refusal_names_the_lengths_exhausted(self):
        # lengths 5 and 6 fit (5! x 42 + 6! x 42 on top of the length-11
        # scan); length 7 (7! x 42 = 211,680) does not
        budget = 2_469_012 + 5_040 + 30_240
        with pytest.raises(BudgetExceededError, match="lengths exhausted: 5, 6$") as exc_info:
            check_claims_231(verify_minimality=True, budget=budget)
        err = exc_info.value
        assert err.lengths_exhausted == ((5, 120), (6, 720))
        assert (err.estimated, err.budget) == (budget + 211_680, budget)

    def test_claim3_counterexample_is_named(self, monkeypatch):
        # rank 0 among the avoiders of length 11, scanned 1: the identity
        monkeypatch.setattr(kernels, "scan_perm_list", lambda *args: (0, 1))
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
@pytest.mark.parametrize("n", range(9, 21))
def test_layered_minimality_by_enumeration(n):
    # beyond the acceptance suite's n <= 8: every shorter length exhausted
    report = minimal_superpattern(n, "layered", "layered")
    assert report.min_length == superpattern_length(n) == superpattern_length_closed(n)
    assert [m for m, _ in report.lengths_exhausted] == list(range(n, report.min_length))
    assert all(count == 2 ** (m - 1) for m, count in report.lengths_exhausted)
    assert verify_universal(report.witness, n, "layered").ok
    assert str(report.witness) == _LAYERED_WITNESSES[n]
    examined = (
        *_LAYERED_EXAMINED,
        5_855_234_023,
        93_683_867_623,
        1_504_849_057_767,
        24_134_494_865_383,
        395_714_664_212_455,
        12_279_126_815_533_031,
        392_932_058_099_666_919,
        12_573_825_859_218_767_663,
        402_362_427_495_443_855_738,
        12_875_597_679_861_240_941_543,
    )[n]
    assert report.candidates_examined == examined
    # the witness is the first fitting rank at the minimum length
    rank = examined - sum(count for _, count in report.lengths_exhausted) - 1
    assert realize_values(composition_at_rank(report.min_length, rank)) == report.witness.values
    if n in _LAYERED_RANKS:
        assert rank == _LAYERED_RANKS[n]
