"""The benchmark's workloads: fixed lists of library calls built from a seed.

Every call goes through a module attribute (search.minimal_superpattern,
universal.verify_universal, ...) so that the traced run sees it.  Inputs are
built here, before timing starts; an operation's latency covers only the
library call.

- layered-proof: minimal_superpattern(n, layered, layered) for n = 4..8.
  Nearly all of it is kernels.scan_layered, so a faster layered kernel or
  a pruned layered search shows here.
- class-checks: the 231 claims, the 321 conjecture for n = 3, 4, the av231
  and av321 minima, and one provably infeasible query that the library
  refuses on its budget.  It never calls scan_layered; it covers class
  enumeration, the permutation-list and all-permutation scans and the
  re-verification of non-layered witnesses.  Not listed in BENCHMARK.json:
  its allocation-heavy operations of seconds each spread too widely from
  run to run on a shared 2-vCPU VM (0.26 of the median wall time over ten
  seeds, measured before timings were rescaled by the gauge).  Run it by
  name.
- interactive-queries: many small calls (containment, layerize, verify,
  layer profiles, the length formulas).  It never enters the search
  engine, so call overhead in universal, layered and perms dominates.

No workload runs the engine with jobs=2.  Such a workload would be the
layered proofs split over two worker processes; on a shared 2-vCPU VM its wall
time spread 0.18 of the median over five seeds (before the gauge), and a
third listed workload would have to shorten every run to fit the
benchmark's time budget.

The seed builds the interactive-queries inputs and shuffles the order of
the operations in every workload.  Sizes in interactive-queries run over
fixed grids, so the seed changes the contents of the inputs, not how much
work they are.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable

import gates
from superpatterns import classes, layered, perms, search, universal

LAYERED_NS = (4, 5, 6, 7, 8)
# At least the a-priori estimate for layered n = 8 (~2.7e8 nodes); the
# default budget of 5e7 refuses n = 8.
LAYERED_BUDGET = 600_000_000
CLASS_BUDGET = 50_000_000
INFEASIBLE_BUDGET = 100_000
MAX_LENGTH_QUERY = 100_000
# Rounds of fresh interactive inputs per pass: 1884 operations, so that the
# tail is the p99 with 18 operations beyond it.
INTERACTIVE_ROUNDS = 3


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], int]
    may_refuse: bool = False


@dataclasses.dataclass
class Workload:
    ops: list[Op]
    budgets: dict[str, int]


def _layered_ops() -> list[Op]:
    return [
        Op(f"layered-n{n}",
           lambda n=n: search.minimal_superpattern(
               n, "layered", "layered", budget=LAYERED_BUDGET, jobs=1),
           lambda r, n=n: gates.layered_report(r, n))
        for n in LAYERED_NS
    ]


def _class_ops() -> list[Op]:
    ops = [
        Op("claims231", lambda: search.check_claims_231(budget=CLASS_BUDGET),
           gates.claims_231),
    ]
    for n in (3, 4):
        ops.append(Op(f"conjecture321-n{n}",
                      lambda n=n: search.check_conjecture_321(n, budget=CLASS_BUDGET),
                      lambda r, n=n: gates.conjecture_321(r, n)))
    for tag, n in gates.AV_MINIMA:
        ops.append(Op(f"{tag}-n{n}",
                      lambda tag=tag, n=n: search.minimal_superpattern(
                          n, tag, tag, budget=CLASS_BUDGET),
                      lambda r, tag=tag, n=n: gates.av_report(r, n, tag)))
    ops.append(Op("infeasible-all-layered-n3",
                  lambda: search.minimal_superpattern(
                      3, "all", "layered", budget=INFEASIBLE_BUDGET),
                  gates.infeasible, may_refuse=True))
    return ops


def _random_perm(rng: random.Random, m: int) -> perms.Permutation:
    return perms.Permutation(tuple(rng.sample(range(1, m + 1), m)))


def _random_sizes(rng: random.Random, total: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, total), rng.randint(0, total - 1)))
    bounds = [0, *cuts, total]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _interactive_ops(rng: random.Random) -> list[Op]:
    ops = []
    for i in range(240):
        pattern = _random_perm(rng, 4 + i % 4)
        host = _random_perm(rng, 20 + (i * 7) % 41)
        ops.append(Op("contains", lambda p=pattern, h=host: perms.contains(p, h),
                      lambda r, p=pattern, h=host: gates.contains(r, p, h)))
    for m in list(range(50, 301, 10)) * 2:
        perm = _random_perm(rng, m)
        ops.append(Op("layerize", lambda p=perm: universal.layerize(p),
                      lambda r, p=perm: gates.layerize(r, p)))
    # Four of each size per round, so that the tail (p99, the 19th slowest of
    # the 1884 operations in a pass) falls among the twelve n = 13 calls,
    # whose cost is the same for every seed, and not among the random
    # containment queries, whose slowest cases vary from seed to seed.
    for n in list(range(8, 15)) * 4:
        def build_and_verify(n=n):
            perm = universal.build_universal(n)
            return perm, universal.verify_universal(perm, n, "layered")
        ops.append(Op("verify-layered", build_and_verify,
                      lambda r, n=n: gates.built_universal(r, n)))
    av231 = gates.reference_patterns("av231", 5)
    for witness in (search.MIN_5UNIVERSAL_AV231_LEN11,
                    search.AVOIDING_5UNIVERSAL_AV231_LEN12) * 2:
        ops.append(Op("verify-av231",
                      lambda w=witness: universal.verify_universal(w, 5, "av231"),
                      lambda r: gates.verified(r, True, av231)))
    for tag in ("av321", "all"):
        for n in (4, 5, 6):
            refs = gates.reference_patterns(tag, n)
            for _ in range(4):
                cand = _random_perm(rng, 12)
                ops.append(Op("verify-random",
                              lambda c=cand, t=tag, n=n: universal.verify_universal(c, n, t),
                              lambda r, refs=refs: gates.verified(r, None, refs)))
    for i in range(120):
        sizes = _random_sizes(rng, 10 + i % 60)
        perm = layered.realize(layered.LayerProfile(sizes))
        ops.append(Op("layer-profile", lambda p=perm: layered.layer_profile(p),
                      lambda r, s=sizes: gates.profile(r, s)))
    for i in range(160):
        n = rng.randint(0, MAX_LENGTH_QUERY)
        if i % 2:
            ops.append(Op("length-closed",
                          lambda n=n: universal.superpattern_length_closed(n),
                          lambda r, n=n: gates.length(r, n, universal.superpattern_length)))
        else:
            ops.append(Op("length-recurrence",
                          lambda n=n: universal.superpattern_length(n),
                          lambda r, n=n: gates.length(
                              r, n, universal.superpattern_length_closed)))
    return ops


def _fill_caches(name: str) -> None:
    """The per-process caches a library user pays for once: the length
    table and the 231-avoider spans."""
    if name == "interactive-queries":
        universal.superpattern_length(MAX_LENGTH_QUERY)
    elif name == "class-checks":
        classes._av231_span(11)  # check_claims_231 enumerates av231 at length 11
    else:
        universal.superpattern_length(max(LAYERED_NS))


WORKLOADS = ("layered-proof", "class-checks", "interactive-queries")


def prepare(name: str, seed: int) -> Workload:
    """Generate the workload's inputs from the seed and fill the caches."""
    rng = random.Random(seed)
    if name == "layered-proof":
        ops, budgets = _layered_ops(), {"layered": LAYERED_BUDGET}
    elif name == "class-checks":
        ops = _class_ops()
        budgets = {"checks_and_av_minima": CLASS_BUDGET, "infeasible": INFEASIBLE_BUDGET}
    elif name == "interactive-queries":
        ops = [op for _ in range(INTERACTIVE_ROUNDS) for op in _interactive_ops(rng)]
        budgets = {}
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    _fill_caches(name)
    return Workload(ops, budgets)
