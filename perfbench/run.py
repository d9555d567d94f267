#!/usr/bin/env python3
"""Closed-loop benchmark of the superpatterns library.

    python3 perfbench/run.py --workload layered-proof --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from src/.
One client in one process issues the workload's operations back to back
(see workloads.py for the workloads and why each exists) and checks every
output (gates.py): a wrong answer exits non-zero without a result.

Passes over the workload's fixed operation list repeat until --seconds have
passed and at least four passes have run.  An operation that raises counts
as a wrong answer too, except for a budget refusal where the workload
allows one.  On a shared virtual machine each vCPU flips between a fast and
a slow phase several times a second, and the share of slow time drifts over
minutes (see gauge.py).  So each operation's latency is its mean over the
passes, and every timing of the run is rescaled to a fixed machine speed:
multiplied by gauge.NOMINAL_S over the mean time of a gauge chunk, a fixed
loop that runs for a tenth of each pass's time after the pass.  The timing
metrics are seconds at the gauge's nominal speed; the details line also
gives the unscaled wall and set-up times and the scale.  The tail latency is
the highest of p50, p75, p90, p95, p99, p99.9 that has ten operations beyond
it; a list of fewer than 20 operations has none, and its tail is the
slowest operation.

With --trace 0 the last line reports the end-to-end metrics: set-up time of
a fresh interpreter (the median of several, spread over the run), the
list's wall time (sum of the operation latencies), operations and certified
candidates per second, tail operation latency, and peak resident memory of
this process plus its largest child.  The lines above it also give the
median operation latency and the share of operations refused on their
budget.  With --trace 1 each untraced pass is followed by a traced one, and
the last line reports the per-layer metrics per traced pass from the spans
(tracing.py), the kernel microbenchmarks (micro.py), the cold import and CLI
times, and the tracing overhead (traced minus untraced wall time); these
are unscaled.

A run record (machine, backend, budgets, seed) and the full results are
written to .bench_out/ in the checkout, and the traced run's spans beside
them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 4
SETUP_PROBES = 20
GAUGE_SHARE = 0.1
PROCESS_PROBES = 5


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_library():
    if not (SRC / "superpatterns" / "__init__.py").is_file():
        _fail(f"no superpatterns package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import superpatterns

    if Path(superpatterns.__file__).resolve().parent != SRC / "superpatterns":
        _fail(f"imported superpatterns from {superpatterns.__file__}, not from {SRC}")


def _child_env() -> dict[str, str]:
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def _probe(args: list[str], expect: str | None = None) -> float:
    """Wall seconds for a fresh interpreter to run args to completion."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0 or (expect is not None and proc.stdout.strip() != expect):
        _fail(f"{args} exited {proc.returncode} with {proc.stdout!r} {proc.stderr!r}", 1)
    return seconds


def _fastest_probe(args: list[str], count: int, expect: str | None = None) -> float:
    return min(_probe(args, expect) for _ in range(count))


def _lengths_exhausted(outcome) -> int:
    report = getattr(outcome, "all_search", outcome)
    return len(getattr(report, "lengths_exhausted", ()))


@dataclasses.dataclass
class Pass:
    """Outcome of one pass over the operation list."""

    latencies: list[float] = dataclasses.field(default_factory=list)
    candidates: int = 0
    refused: int = 0
    lengths_exhausted: int = 0


def run_pass(ops, tracer=None) -> Pass:
    """One pass; a refusal on the budget counts only where the operation may
    refuse, and any other exception is a wrong answer."""
    from gates import WrongAnswer
    from superpatterns.errors import BudgetExceededError

    out = Pass()
    gc.collect()
    for op in ops:
        if tracer is not None:
            tracer.install()
            tracer.begin("op." + op.kind)
        result = refusal = None
        t0 = time.perf_counter()
        try:
            result = op.call()
        except BudgetExceededError as exc:
            if not op.may_refuse:
                raise WrongAnswer(f"{op.kind} refused on its budget: {exc}") from exc
            refusal = exc
        except Exception as exc:
            traceback.print_exception(exc, file=sys.stderr)
            raise WrongAnswer(f"{op.kind} raised {exc!r}") from exc
        finally:
            out.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.finish()
                tracer.uninstall()
        out.lengths_exhausted += _lengths_exhausted(refusal or result)
        if refusal is not None:
            out.refused += 1
        else:
            out.candidates += op.check(result)
    return out


def run_gauge(seconds: float, samples: list[float]) -> None:
    """Gauge chunks until they add up to at least the given seconds."""
    import gauge

    spent = 0.0
    while spent < seconds or not samples:
        took, hits = gauge.chunk()
        if hits != gauge.CHUNK_HITS:
            _fail(f"gauge chunk gave {hits} hits, expected {gauge.CHUNK_HITS}")
        samples.append(took)
        spent += took


def measure(ops, seconds: float, probe=None, tracer=None):
    """Passes until both the time and the pass minimum are met.

    After each untraced pass the gauge runs for GAUGE_SHARE of that pass's
    time.  The set-up probes are spread evenly over the run, between passes,
    so that they see the same machine as the passes do.  With a tracer each
    untraced pass is followed by a traced one, and the spans of the first
    traced pass are kept.  Returns (untraced, traced, probes, gauge samples).
    """
    passes, traced, probes, gauge = [], [], [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(ops))
        run_gauge(GAUGE_SHARE * sum(passes[-1].latencies), gauge)
        if tracer is not None:
            tracer.keep = not traced
            traced.append(run_pass(ops, tracer))
        due = SETUP_PROBES * (time.perf_counter() - t0) / seconds
        while probe is not None and len(probes) < min(SETUP_PROBES, due):
            probes.append(probe())
    while probe is not None and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return passes, traced, probes, gauge


def typical(passes: list[Pass]) -> list[float]:
    """Each operation's mean latency over the passes.  The mean, not the
    median: an operation shorter than a machine phase runs wholly fast or
    wholly slow, so its median jumps between the two as the share of slow
    time crosses a half, while its mean, like the gauge's, moves in
    proportion to that share."""
    return [statistics.fmean(lat) for lat in zip(*(p.latencies for p in passes))]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_record(args, workload) -> dict:
    from superpatterns import kernels

    import micro

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "backend": kernels.BACKEND,
        "compiled_importable": len(micro.backends()) > 1,
        "pure_forced": bool(os.environ.get("SUPERPATTERN_PURE_PYTHON")),
        "git_commit": _git_commit(),
        "operations_per_pass": len(workload.ops),
        "budgets": workload.budgets,
    }


def end_to_end(workload, passes: list[Pass], probes: list[float],
               gauge_samples: list[float]) -> tuple[dict, dict]:
    import gauge
    import stats

    per_pass = len(workload.ops)
    scale = gauge.NOMINAL_S / statistics.mean(gauge_samples)
    latencies = [lat * scale for lat in typical(passes)]
    tail_pct, tail_value = stats.tail(latencies)
    wall = sum(latencies)
    candidates = statistics.median(p.candidates for p in passes)
    metrics = {
        # The median of whole process starts, so that one start slowed by
        # something outside the library does not move it.
        "setup_s": (statistics.median(probes) * scale, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (per_pass / wall, "1/s"),
        "candidates_per_s": (candidates / wall, "1/s"),
        "op_latency_tail_s": (tail_value, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    refused = sum(p.refused for p in passes)
    details = {
        "passes": len(passes),
        "latency_samples": len(latencies),
        "tail_percentile": tail_pct,
        # Printed but not a BENCHMARK.json metric: on the proof workloads it
        # is one operation of a few tens of milliseconds, which is too noisy
        # on a shared machine to gate on.
        "op_latency_p50_s": stats.percentile(latencies, 50),
        "setup_probes": len(probes),
        "gauge_chunks": len(gauge_samples),
        "gauge_scale": scale,
        "unscaled_wall_s": wall / scale,
        "unscaled_setup_s": statistics.median(probes),
        "refused": refused,
        # Operations refused on their budget over those attempted; any other
        # failure is a wrong answer and ends the run.
        "failed_ratio": refused / (per_pass * len(passes)),
    }
    return metrics, details


def per_layer(workload: str, untraced: list[Pass], tracer, traced: list[Pass]) -> tuple[dict, dict]:
    """Per-layer figures, each per traced pass.  The permutation-list and
    all-permutation scans and budget refusals happen only in class-checks,
    and only its runs report them."""
    from superpatterns import kernels

    import micro

    runs = len(traced)
    counters = tracer.counters
    metrics = {}

    def span(name, *fields):
        calls, seconds, self_s = tracer.totals.get(name, (0, 0.0, 0.0))
        values = {"calls": (calls, "count"), "s": (seconds, "s"), "self_s": (self_s, "s")}
        for field in fields:
            value, unit = values[field]
            metrics[f"{name}.{field}"] = (value / runs, unit)

    def counter(name, unit):
        metrics[name] = (counters[name] / runs, unit)

    class_checks = workload == "class-checks"
    scans = ["kernels.scan_layered"]
    if class_checks:
        scans += ["kernels.scan_perm_list", "kernels.scan_all_perms"]
    for scan in scans:
        span(scan, "calls", "s")
        counter(scan + ".candidates", "count")
    span("kernels.lex_min_embedding", "calls", "s")
    span("kernels.greedy_layer_indices", "calls", "s")
    metrics.update((k, (v, "s")) for k, v in micro.run(kernels.BACKEND).items())
    span("search.scan_length", "calls", "s", "self_s")
    span("search.check_report", "s")
    metrics["search.lengths_exhausted"] = (
        sum(p.lengths_exhausted for p in traced) / runs, "count")
    if class_checks:
        metrics["search.budget_failures"] = (sum(p.refused for p in traced) / runs, "count")
    counter("classes.class_tuples.calls", "count")
    counter("classes.class_tuples.items", "count")
    counter("classes.class_tuples.s", "s")
    # every pass enumerates the same (class, length) pairs
    calls = counters["classes.class_tuples.calls"] / runs
    metrics["classes.enumeration_reuse_ratio"] = (
        len(tracer.class_pairs) / calls if calls else 0.0, "ratio")
    span("universal.verify_universal", "calls", "s")
    counter("universal.verify_universal.patterns_checked", "count")
    span("universal.layerize", "calls", "s")
    counter("layered.enumerate_layered.items", "count")
    counter("layered.enumerate_layered.s", "s")
    span("layered.layer_profile", "calls", "s")
    span("perms.contains", "calls", "s")
    metrics["process.import_s"] = (
        _fastest_probe(["-c", "import superpatterns"], PROCESS_PROBES), "s")
    metrics["process.cli_s"] = (_fastest_probe(
        ["-m", "superpatterns.cli", "sequence", "a", "100"], PROCESS_PROBES, expect="580"), "s")
    untraced_wall, traced_wall = sum(typical(untraced)), sum(typical(traced))
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    details = {"passes": runs, "untraced_wall_s": untraced_wall,
               "traced_wall_s": traced_wall, "spans_kept": len(tracer.start)}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import, generate the inputs and fill the caches")
    args = parser.parse_args(argv)

    _import_library()
    import gates
    import workloads
    from superpatterns.errors import InternalDefectError

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    workload = workloads.prepare(args.workload, args.seed)
    if args.setup_probe:
        return 0

    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            passes, traced, _, _ = measure(workload.ops, args.seconds, tracer=tracer)
            metrics, details = per_layer(args.workload, passes, tracer, traced)
        else:
            probe = functools.partial(_probe, [
                __file__, "--workload", args.workload, "--seed", str(args.seed),
                "--setup-probe"])
            passes, traced, probes, gauge = measure(workload.ops, args.seconds, probe)
            metrics, details = end_to_end(workload, passes, probes, gauge)
    except (gates.WrongAnswer, InternalDefectError) as exc:
        _fail(f"wrong answer: {exc}", 1)

    record = run_record(args, workload)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.json")
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"record": record, "details": details,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  fh, indent=1)

    print("record " + json.dumps(record))
    print("details " + json.dumps(details))
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_latency_tail_s":
            note = (f"  (p{details['tail_percentile']:g} of {details['latency_samples']} "
                    f"operations, each the mean of {details['passes']} passes, rescaled)")
        print(f"{name} {value:.6g} {unit}{note}")
    if not args.trace:
        print(f"op_latency_p50_s {details['op_latency_p50_s']:.6g} s")
        print(f"failed_ratio {details['failed_ratio']:.6g} ratio  ({details['refused']} refused)")
    attempted = len(workload.ops) * (len(passes) + len(traced))
    refused = sum(p.refused for p in passes + traced)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": refused,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
