#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Times the hot inner loops on representative workloads: backtracking
containment on random queries and on mostly failing ones, two composition
scans behind the layered search (n = 7 and n = 9 patterns), the permutation
scan behind the unrestricted search, and the candidate-list scan behind the
av-class runs.  Each result is checked to agree between the backends.  The
layered search is the chain engine's (superpatterns.chains) on either
backend, so the two layered workloads have no compiled column; below each of
them, one more untimed run reads off its table the search's nodes (one for
each time it enters a chain), the distinct chains it entered, and the
entries of its dead table, the proof table of failed chains that also holds
the family bounds and the root.  A row times the whole layered search of
n = 20 (every length from 20 to L(20) = 74 on one table, built inside the
timed work) and reads the same, with the microseconds per node.  One row
times a fresh universal.LengthTable built to n = 10^6.  For n = 4..8,
the whole minimal_superpattern(n, "layered", "layered") is timed beside its
layers: the kernel alone (scan_layered for each length n..L(n) on a fresh
table, as the search calls it: the first call proves the family bounds,
the root's last, the lengths below L(n) are read off the root's dead entry,
and L(n) is scanned for its witness), the report's re-verification
(_check_report) and the rest, the engine around them.  Last, for n = 4..8
and 20, the search's nodes by phase: the proofs of the families k < n, the
proof of the root's bound L(n) - 1, and the witness scan of L(n).  Run after
an in-place build:

    python3 benchmarks/bench_kernels.py [--repeat 3]
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import time

from superpatterns import _kernels_py
from superpatterns.chains import LayeredTable, _layered_length, scan_layered

try:
    from superpatterns import _kernels
except ImportError:
    _kernels = None

from superpatterns.classes import ClassTag, class_tuples
from superpatterns.search import _check_report, _ordered_pattern_tuples, minimal_superpattern
from superpatterns.universal import LengthTable


def _containment_cases(seed, count, hosts, lengths):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        m = rng.randint(*hosts)
        k = rng.randint(*lengths)
        host = tuple(rng.sample(range(1, m + 1), m))
        pattern = tuple(rng.sample(range(1, k + 1), k))
        cases.append((pattern, host))

    def work(mod):
        hits = 0
        for pattern, host in cases:
            if mod.lex_min_embedding(pattern, host) is not None:
                hits += 1
        return hits

    return work


def _containment_workload():
    return ("containment DFS (2000 queries, hosts 16-24)",
            _containment_cases(2024, 2000, (16, 24), (6, 9)))


def _refutation_workload():
    # 19 of these 1000 patterns embed: most queries fail every placement
    # of their first entries, the tail the failed-placement rule cuts
    return ("containment refutations (1000, k=10-12, hosts 20-30)",
            _containment_cases(2025, 1000, (20, 30), (10, 12)))


def _layered_scan_workload():
    # length 16 < a(7) = 17, so the scan must exhaust all 2^15 compositions,
    # which is exactly the nonexistence half of a search run; every backend
    # runs the chain engine's scan, on a table built cold for each repeat
    def work(mod):
        work.table = LayeredTable(7)
        return scan_layered(16, work.table)

    return "layered nonexistence scan (2^15 candidates, n=7 patterns)", work


def _layered_proof_scan_workload():
    # length 24 < a(9) = 25: the longest nonexistence scan of the n = 9
    # proof, where pruning whole blocks of ranks matters most
    def work(mod):
        work.table = LayeredTable(9)
        return scan_layered(24, work.table)

    return "layered nonexistence scan (2^23 candidates, n=9 patterns)", work


def _layered_search_workload():
    # the whole search for n = 20 on one table, each length scanned in turn
    # until the first that has a witness
    def work(mod):
        table = work.table = LayeredTable(20)
        for m in itertools.count(20):
            rank, _ = scan_layered(m, table)
            if rank >= 0:
                return m, rank

    return "layered search n=20 (lengths 20..74, one table)", work


def _length_table_workload():
    # the recurrence table of minimal layered lengths, built from empty
    def work(mod):
        return LengthTable().value(10**6)

    return "length table to n=10^6 (fresh LengthTable)", work


def _layered_proof_layers(n, repeat):
    """Fastest seconds of the whole layered search of n, of its kernel
    scans alone and of its report check, over repeat rounds that run the
    three in turn, so that a change in machine speed between them does not
    show as a layer's cost."""
    def search():
        return minimal_superpattern(n, "layered", "layered")

    def kernel():
        table = LayeredTable(n)
        for m in itertools.count(n):
            if scan_layered(m, table)[0] >= 0:
                return m

    report = search()
    if kernel() != report.min_length:
        raise AssertionError(f"kernel and search disagree at n={n}")
    best = [math.inf] * 3
    for _ in range(repeat):
        for i, work in enumerate((search, kernel, lambda: _check_report(report))):
            t0 = time.perf_counter()
            work()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _layered_phase_nodes(n):
    """(nodes of the proofs of the families k < n, of the root's proof, of
    the witness scan) of the layered search of n >= 1.  The proofs of k < n
    enter the same chains on the table of n - 1, whose last family is n - 1."""
    below = LayeredTable(n - 1)
    below._prove_families()
    table = LayeredTable(n)
    table._prove_families()
    proofs = table.nodes
    scan_layered(_layered_length(n), table)
    return below.nodes, proofs - below.nodes, table.nodes - proofs


def _all_perm_scan_workload():
    patterns = _ordered_pattern_tuples(ClassTag.AV321, 4)

    def work(mod):
        return mod.scan_all_perms(8, patterns)

    return "unrestricted permutation scan (8!, av321 n=4 patterns)", work


def _candidate_list_workload():
    candidates = list(class_tuples(ClassTag.AV231, 10))
    patterns = _ordered_pattern_tuples(ClassTag.AV231, 5)

    def work(mod):
        return mod.scan_perm_list(candidates, patterns)

    return "av231 candidate scan (16796 candidates, n=5 patterns)", work


def _time(work, mod, repeat):
    best = math.inf
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = work(mod)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _layered_nodes(work):
    """(nodes, distinct chains entered, dead entries) of one run on
    work.table."""
    work(_kernels_py)
    table = work.table
    return table.nodes, len(table.children), len(table.dead)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    builders = [
        _containment_workload,
        _refutation_workload,
        _layered_scan_workload,
        _layered_proof_scan_workload,
        _all_perm_scan_workload,
        _candidate_list_workload,
    ]
    chain_only = {_layered_scan_workload, _layered_proof_scan_workload}
    compiled = "compiled" if _kernels is None else _kernels.BACKEND
    print(f"{'workload':58s} {'python':>10s} {compiled:>10s} {'speedup':>8s}")
    for builder in builders:
        name, work = builder()
        py_time, py_result = _time(work, _kernels_py, args.repeat)
        if _kernels is None or builder in chain_only:
            print(f"{name:58s} {py_time * 1e3:9.1f}ms {'n/a':>10s} {'n/a':>8s}")
            if builder in chain_only:
                nodes, entered, dead = _layered_nodes(work)
                print(f"  {nodes:,} nodes, {entered:,} chains entered, {dead:,} dead")
            continue
        c_time, c_result = _time(work, _kernels, args.repeat)
        if py_result != c_result:
            raise AssertionError(f"backend mismatch on {name!r}")
        print(
            f"{name:58s} {py_time * 1e3:9.1f}ms {c_time * 1e3:9.1f}ms "
            f"{py_time / c_time:7.1f}x"
        )
    name, work = _layered_search_workload()
    search_s, _ = _time(work, _kernels_py, args.repeat)
    nodes, entered, dead = _layered_nodes(work)
    print(f"{name:58s} {search_s * 1e3:9.1f}ms {'n/a':>10s} {'n/a':>8s}")
    print(f"  {nodes:,} nodes, {entered:,} chains entered, {dead:,} dead, "
          f"{search_s / nodes * 1e6:.2f}us per node")
    name, work = _length_table_workload()
    table_s, _ = _time(work, None, args.repeat)
    print(f"{name:58s} {table_s * 1e3:9.1f}ms {'n/a':>10s} {'n/a':>8s}")
    print(f"{'layered search by layer (python)':34s} {'search':>9s} {'kernel':>9s} "
          f"{'report':>9s} {'engine':>9s}")
    for n in range(4, 9):
        search_s, kernel_s, check_s = _layered_proof_layers(n, args.repeat)
        engine_s = search_s - kernel_s - check_s
        cells = " ".join(f"{t * 1e6:7.0f}us" for t in (search_s, kernel_s, check_s, engine_s))
        print(f"  n={n:<31d} {cells}")
    print(f"{'layered search nodes by phase':34s} {'k < n':>9s} {'root':>9s} {'witness':>9s}")
    for n in (4, 5, 6, 7, 8, 20):
        cells = " ".join(f"{nodes:9,d}" for nodes in _layered_phase_nodes(n))
        print(f"  n={n:<31d} {cells}")


if __name__ == "__main__":
    main()
