"""Tests for the benchmark's own arithmetic, gates and tracer.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import sys
import types
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent), str(_HERE.parent.parent / "src")]

import gates  # noqa: E402
import gauge  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from superpatterns import search, universal  # noqa: E402
from superpatterns.errors import BudgetExceededError  # noqa: E402
from superpatterns.perms import Permutation  # noqa: E402
from tracing import Tracer  # noqa: E402
from run import Pass  # noqa: E402
from workloads import Op  # noqa: E402


class TestTail:
    @pytest.mark.parametrize("count, pct", [
        (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
        (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9), (50000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, count, pct):
        values = [float(v) for v in range(count)]
        got_pct, value = stats.tail(values)
        assert got_pct == pct
        beyond = sum(v > value for v in values)
        assert beyond >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > pct]
        if higher:
            idx = stats.rank_index(count, higher[0])
            assert count - 1 - idx < stats.MIN_BEYOND

    def test_too_few_samples_give_the_maximum(self):
        assert stats.tail([3.0, 9.0, 1.0] * 6 + [2.0]) == (100.0, 9.0)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
        assert stats.tail(values) == (50.0, 3.0)
        assert stats.percentile(values, 50) == 3.0


class TestSelfTime:
    def test_span_minus_the_part_its_children_cover(self):
        tracer = Tracer()
        ticks = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
        tracer.clock = lambda: next(ticks)
        tracer.begin("outer")  # 0 .. 10
        tracer.begin("inner")  # 2 .. 5
        tracer.finish()
        tracer.begin("inner")  # 6 .. 7
        tracer.finish()
        tracer.finish()
        assert tracer.totals["outer"] == [1, 10.0, 6.0]
        assert tracer.totals["inner"] == [2, 4.0, 4.0]
        assert list(tracer.parent) == [-1, 0, 0]
        assert list(tracer.start) == [0.0, 2.0, 6.0]

    def test_unkept_spans_still_count(self):
        tracer = Tracer()
        tracer.keep = False
        tracer.begin("outer")
        tracer.finish()
        assert tracer.totals["outer"][0] == 1
        assert len(tracer.start) == 0


class TestGates:
    @pytest.fixture(scope="class")
    def report(self):
        return search.minimal_superpattern(4, "layered", "layered")

    def test_accepts_the_real_report(self, report):
        assert gates.layered_report(report, 4) == report.candidates_examined

    def test_rejects_a_swapped_witness_entry(self, report):
        values = list(report.witness.values)
        values[0], values[1] = values[1], values[0]
        doctored = dataclasses.replace(report, witness=Permutation(tuple(values)))
        with pytest.raises(gates.WrongAnswer):
            gates.layered_report(doctored, 4)

    def test_rejects_an_incomplete_exhaustion(self, report):
        (m, count), *rest = report.lengths_exhausted
        doctored = dataclasses.replace(report, lengths_exhausted=((m, count - 1), *rest))
        with pytest.raises(gates.WrongAnswer):
            gates.layered_report(doctored, 4)

    def test_rejects_a_wrong_minimum(self):
        report = search.minimal_superpattern(3, "av321", "av321")
        gates.av_report(report, 3, "av321")
        with pytest.raises(gates.WrongAnswer):
            gates.av_report(dataclasses.replace(report, min_length=6), 3, "av321")


    PERM = Permutation((3, 1, 4, 6, 5, 2, 8, 7))

    def test_accepts_layerize(self):
        assert gates.layerize(universal.layerize(self.PERM), self.PERM) == 0

    @pytest.mark.parametrize("values", [(8, 7, 6, 5, 4, 3, 2, 1), (1, 2, 3, 4, 5, 6, 7, 8)])
    def test_rejects_a_layered_output_of_the_wrong_shape(self, values):
        with pytest.raises(gates.WrongAnswer):
            gates.layerize(Permutation(values), self.PERM)

    def test_longest_decreasing(self):
        assert gates.longest_decreasing(self.PERM.values) == 3
        assert gates.longest_decreasing(()) == 0


def _op(call, may_refuse=False):
    return Op("test", call, lambda result: 1, may_refuse)


def _raise(exc):
    def call():
        raise exc
    return call


class TestRunPass:
    def test_counts_candidates_and_one_latency_per_operation(self):
        out = run.run_pass([_op(lambda: 0)] * 3)
        assert (out.candidates, out.refused, len(out.latencies)) == (3, 0, 3)

    def test_an_error_is_a_wrong_answer(self):
        with pytest.raises(gates.WrongAnswer):
            run.run_pass([_op(_raise(ValueError("boom")))])

    def test_a_budget_refusal_is_a_wrong_answer_unless_allowed(self):
        refusal = BudgetExceededError("over", lengths_exhausted=((3, 6),))
        with pytest.raises(gates.WrongAnswer):
            run.run_pass([_op(_raise(refusal))])
        out = run.run_pass([_op(_raise(refusal), may_refuse=True)])
        assert (out.refused, out.candidates, out.lengths_exhausted) == (1, 0, 1)


class TestRescaling:
    def test_each_operation_takes_its_mean_over_the_passes(self):
        passes = [Pass([1.0, 9.0]), Pass([3.0, 5.0]), Pass([8.0, 7.0])]
        assert run.typical(passes) == [4.0, 7.0]

    def test_timings_are_rescaled_to_the_gauge_nominal_speed(self):
        passes = [Pass([1.0, 3.0], candidates=8), Pass([3.0, 5.0], candidates=8)]
        workload = types.SimpleNamespace(ops=[None, None])
        slow = [2 * gauge.NOMINAL_S, 2 * gauge.NOMINAL_S]  # machine at half speed
        metrics, details = run.end_to_end(workload, passes, [0.4, 0.2, 0.6], slow)
        assert metrics["wall_s"][0] == pytest.approx((2.0 + 4.0) / 2)
        assert metrics["setup_s"][0] == pytest.approx(0.4 / 2)
        assert metrics["op_latency_tail_s"][0] == pytest.approx(4.0 / 2)
        assert metrics["candidates_per_s"][0] == pytest.approx(8 / 3.0)
        assert details["unscaled_wall_s"] == pytest.approx(6.0)

    def test_the_gauge_does_fixed_work(self):
        assert gauge.chunk()[1] == gauge.CHUNK_HITS


class TestTracer:
    def test_install_records_engine_and_kernel_spans_and_restores(self):
        original = search._scan_length
        tracer = Tracer()
        tracer.install()
        try:
            tracer.begin("op.layered")
            report = search.minimal_superpattern(4, "layered", "layered")
            tracer.finish()
        finally:
            tracer.uninstall()
        assert search._scan_length is original
        lengths = len(report.lengths_exhausted) + 1
        assert tracer.totals["search.scan_length"][0] == lengths
        assert tracer.totals["kernels.scan_layered"][0] == lengths
        assert tracer.counters["kernels.scan_layered.candidates"] == report.candidates_examined
        assert tracer.totals["search.check_report"][0] == 1
        names = [tracer.names[n] for n in tracer.name_id]
        scans = [i for i, name in enumerate(names) if name == "search.scan_length"]
        assert all(tracer.parent[i] == 0 for i in scans)
