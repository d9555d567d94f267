"""Exhaustive search for minimal universal permutations.

Candidates are scanned length by length, each length exhausted in
lexicographic order, so a returned minimum comes with complete nonexistence
counts for every shorter length.  Layered candidates are searched by
composition prefix (kernels.scan_layered): a prefix that some pattern can
no longer fit into is pruned, and so, in the pure kernel, is one whose set
of unmatched pattern suffixes already failed with as many positions left.
A prefix stands for an exact, contiguous block of ranks, so the counts are
those of visiting every candidate.

One node budget gates every run: a per-run ledger charges each length its
candidates times patterns, a priori, before the length is scanned, and
exceeding it raises instead of truncating, because the nonexistence half
of the result is only meaningful when enumeration is complete.  Every scan
goes through _scan_length: those of a search, each length the 231 claims
exhaust, and both phases of the 321 conjecture check, which share one
ledger.

Every class here is closed under containment, so a length-n pattern outside
the candidate class lies in no candidate of any length: such a query gets an
InfeasibleReport with the lex-first such pattern as its certificate, before
the budget is charged or a worker starts.

Patterns are checked in a fixed order that fails fast (longest decreasing
pattern first: a universal candidate must devote an entire decreasing run
of length n to it, which most candidates and prefixes lack).  The order
never changes results, only speed.

Parallel runs partition each length into contiguous rank ranges and reduce
to the smallest witness rank, so serial and parallel reports are identical.
One worker pool serves all the lengths of a search.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor

from . import kernels
from .classes import ClassTag, class_count, class_tuples, coerce_tag, in_class
from .errors import BudgetExceededError, InternalDefectError
from .layered import enumerate_layered, realize_values
from .perms import Permutation
from .universal import _max_decreasing_positions, _to_json, verify_universal

DEFAULT_BUDGET = 50_000_000
_SERIAL_CUTOFF = 2048  # below this many candidates a parallel split is noise

MIN_5UNIVERSAL_AV231_LEN11 = Permutation((1, 5, 11, 9, 3, 2, 8, 4, 7, 6, 10))
AVOIDING_5UNIVERSAL_AV231_LEN12 = Permutation((1, 11, 3, 2, 10, 7, 5, 4, 6, 9, 8, 12))


class _Budget:
    """The node budget of one run, charged length by length (None means
    DEFAULT_BUDGET)."""

    def __init__(self, limit: int | None) -> None:
        self.limit = DEFAULT_BUDGET if limit is None else limit
        self.used = 0

    def charge(
        self, ctag: ClassTag, m: int, nodes: int, exhausted: list[tuple[int, int]]
    ) -> None:
        """Charge scanning length m of the class, or raise with the lengths
        that this scan's search has exhausted."""
        if self.used + nodes > self.limit:
            done = ", ".join(str(k) for k, _ in exhausted) or "none"
            raise BudgetExceededError(
                f"scanning {ctag.value} length {m} needs ~{self.used + nodes} nodes, "
                f"over the budget of {self.limit}; lengths exhausted: {done}",
                lengths_exhausted=exhausted,
                estimated=self.used + nodes,
                budget=self.limit,
            )
        self.used += nodes


def _check_jobs(jobs: int) -> None:
    """Reject a worker count outside 1..the CPUs this process may run on,
    before any pool starts."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ValueError(
            f"jobs must be between 1 and {cpus} (the CPUs available), got {jobs}"
        )


def _ordered_pattern_tuples(tag: ClassTag, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        sorted(
            class_tuples(tag, n),
            key=lambda t: (-len(_max_decreasing_positions(t)), t),
        )
    )


def _ordered_pattern_profiles(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        sorted(
            (p.sizes for p in enumerate_layered(n)),
            key=lambda s: (-max(s, default=0), s),
        )
    )


def _scan_range(
    ctag: ClassTag,
    m: int,
    patterns: tuple[tuple[int, ...], ...],
    lo: int,
    hi: int,
) -> int:
    """First rank in [lo, hi) whose candidate contains every pattern, or -1.

    Layered candidates take layer profiles as patterns, the others tuples."""
    if ctag is ClassTag.LAYERED:
        rank, _ = kernels.scan_layered(m, patterns, lo, hi)
    elif ctag is ClassTag.ALL:
        rank, _ = kernels.scan_all_perms(m, patterns, lo, hi)
    else:
        candidates = list(class_tuples(ctag, m))
        rank, _ = kernels.scan_perm_list(candidates, patterns, lo, hi)
    return rank


def _scan_length(
    ledger: _Budget,
    ctag: ClassTag,
    m: int,
    patterns: tuple[tuple[int, ...], ...],
    exhausted: list[tuple[int, int]],
    jobs: int = 1,
    pool: ProcessPoolExecutor | None = None,
) -> tuple[int, int]:
    """(witness rank, candidates scanned) within length m, the rank -1 when
    the length is exhausted; it is then appended to exhausted as (m, count).

    The length is charged to the ledger first.  It is split into jobs rank
    ranges on the pool when there is one and the length is big enough to be
    worth it."""
    total = class_count(ctag, m)
    ledger.charge(ctag, m, total * max(len(patterns), 1), exhausted)
    if pool is None or total < _SERIAL_CUTOFF:
        rank = _scan_range(ctag, m, patterns, 0, total)
    else:
        bounds = [total * i // jobs for i in range(jobs + 1)]
        scan = functools.partial(_scan_range, ctag, m, patterns)
        found = [r for r in pool.map(scan, bounds[:-1], bounds[1:]) if r >= 0]
        rank = min(found, default=-1)
    if rank >= 0:
        return rank, rank + 1
    exhausted.append((m, total))
    return rank, total


def _candidate_at(ctag: ClassTag, m: int, rank: int) -> Permutation:
    if ctag is ClassTag.LAYERED:
        return Permutation(realize_values(kernels.composition_at_rank(m, rank)))
    if ctag is ClassTag.ALL:
        return Permutation(kernels.permutation_at_rank(m, rank))
    candidates = list(class_tuples(ctag, m))
    return Permutation(candidates[rank])


@dataclasses.dataclass(frozen=True)
class SearchReport:
    n: int
    pattern_class: ClassTag
    candidate_class: ClassTag
    min_length: int
    witness: Permutation
    candidates_examined: int
    lengths_exhausted: tuple[tuple[int, int], ...]
    elapsed_ms: int

    infeasible = False
    to_json_dict = _to_json


@dataclasses.dataclass(frozen=True)
class InfeasibleReport:
    """No candidate of any length can contain every pattern: the certificate
    is a length-n member of the pattern class outside the candidate class,
    and the candidate class is closed under containment."""

    n: int
    pattern_class: ClassTag
    candidate_class: ClassTag
    infeasible: bool = dataclasses.field(default=True, init=False)
    certificate: Permutation
    elapsed_ms: int

    to_json_dict = _to_json


def _outside_candidates(ptag: ClassTag, ctag: ClassTag, n: int) -> Permutation | None:
    """The lex-first length-n member of the pattern class outside the
    candidate class, or None when the one class contains the other at n."""
    if ptag is ctag or ctag is ClassTag.ALL:
        return None
    members = (Permutation(values) for values in class_tuples(ptag, n))
    return next((perm for perm in members if not in_class(perm, ctag)), None)


def minimal_superpattern(
    n: int,
    pattern_class: ClassTag | str,
    candidate_class: ClassTag | str,
    *,
    budget: int | None = None,
    jobs: int = 1,
) -> SearchReport | InfeasibleReport:
    """Smallest length at which some candidate-class member contains every
    length-n member of the pattern class, with the lexicographically first
    witness at that length and full enumeration counts below it; or an
    InfeasibleReport when some length-n pattern is outside the candidate
    class."""
    return _minimal_superpattern(n, pattern_class, candidate_class, _Budget(budget), jobs)


def _minimal_superpattern(
    n: int,
    pattern_class: ClassTag | str,
    candidate_class: ClassTag | str,
    ledger: _Budget,
    jobs: int,
) -> SearchReport | InfeasibleReport:
    t0 = time.perf_counter()
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    _check_jobs(jobs)
    ptag = coerce_tag(pattern_class)
    ctag = coerce_tag(candidate_class)
    certificate = _outside_candidates(ptag, ctag, n)
    if certificate is not None:
        infeasible = InfeasibleReport(
            n=n,
            pattern_class=ptag,
            candidate_class=ctag,
            certificate=certificate,
            elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
        )
        _check_report(infeasible)
        return infeasible
    if ctag is ClassTag.LAYERED:
        # feasible, so every pattern is layered: all of them iff as many
        # (for a non-layered pattern class, only at n <= 2)
        patterns: tuple[tuple[int, ...], ...] = _ordered_pattern_profiles(n)
        if ptag is not ctag and len(patterns) != class_count(ptag, n):
            raise InternalDefectError("layered candidates would miss a pattern")
    else:
        patterns = _ordered_pattern_tuples(ptag, n)
    exhausted: list[tuple[int, int]] = []
    m = n
    # One worker pool serves every length of the search; its workers start
    # at the first length big enough to split.
    with ProcessPoolExecutor(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        while True:
            rank, _ = _scan_length(ledger, ctag, m, patterns, exhausted, jobs, pool)
            if rank >= 0:
                break
            m += 1
    witness = _candidate_at(ctag, m, rank)
    report = SearchReport(
        n=n,
        pattern_class=ptag,
        candidate_class=ctag,
        min_length=m,
        witness=witness,
        candidates_examined=sum(c for _, c in exhausted) + rank + 1,
        lengths_exhausted=tuple(exhausted),
        elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
    )
    _check_report(report)
    return report


def _check_report(report: SearchReport | InfeasibleReport) -> None:
    if isinstance(report, InfeasibleReport):
        cert = report.certificate
        if len(cert) != report.n or not in_class(cert, report.pattern_class):
            raise InternalDefectError("infeasibility certificate is no length-n pattern")
        if in_class(cert, report.candidate_class):
            raise InternalDefectError("infeasibility certificate is a candidate")
        return
    if not in_class(report.witness, report.candidate_class):
        raise InternalDefectError("search witness is outside its candidate class")
    if not verify_universal(report.witness, report.n, report.pattern_class).ok:
        raise InternalDefectError("search witness failed re-verification")
    for m, count in report.lengths_exhausted:
        if m >= report.min_length or count != class_count(report.candidate_class, m):
            raise InternalDefectError("incomplete nonexistence enumeration")


@dataclasses.dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    details: dict

    to_json_dict = _to_json


@dataclasses.dataclass(frozen=True)
class Claims231Report:
    claims: tuple[ClaimResult, ...]
    all_passed: bool
    elapsed_ms: int

    to_json_dict = _to_json


def check_claims_231(
    *, verify_minimality: bool = False, budget: int | None = None
) -> Claims231Report:
    """Verify the recorded facts about 5-universal permutations for the
    231-avoiding class.

    In order: the known length-11 witness is 5-universal; that witness
    itself contains 231; no 231-avoiding permutation of length 11 is
    5-universal (exhaustive over all 58786 of them); and the known
    231-avoiding length-12 witness is 5-universal.  With verify_minimality,
    additionally exhaust all permutations of lengths 5..10 to confirm that
    11 is minimal over unrestricted candidates (expensive; needs an
    enlarged budget).
    """
    t0 = time.perf_counter()
    ledger = _Budget(budget)
    patterns = _ordered_pattern_tuples(ClassTag.AV231, 5)
    claims = []

    report1 = verify_universal(MIN_5UNIVERSAL_AV231_LEN11, 5, ClassTag.AV231)
    claims.append(
        ClaimResult(
            name="length-11 witness is 5-universal for av231",
            passed=report1.ok,
            details={"patterns_checked": report1.patterns_checked},
        )
    )

    embedding = kernels.lex_min_embedding((2, 3, 1), MIN_5UNIVERSAL_AV231_LEN11.values)
    claims.append(
        ClaimResult(
            name="length-11 witness itself contains 231",
            passed=embedding is not None,
            details={
                "positions": None
                if embedding is None
                else [p + 1 for p in embedding]
            },
        )
    )

    rank, scanned = _scan_length(ledger, ClassTag.AV231, 11, patterns, [])
    claims.append(
        ClaimResult(
            name="no 231-avoiding length-11 permutation is 5-universal for av231",
            passed=rank == -1,
            details={
                "candidates_checked": scanned,
                "counterexample": None
                if rank == -1
                else str(_candidate_at(ClassTag.AV231, 11, rank)),
            },
        )
    )

    avoiding = in_class(AVOIDING_5UNIVERSAL_AV231_LEN12, ClassTag.AV231)
    report4 = verify_universal(AVOIDING_5UNIVERSAL_AV231_LEN12, 5, ClassTag.AV231)
    claims.append(
        ClaimResult(
            name="length-12 witness avoids 231 and is 5-universal for av231",
            passed=avoiding and report4.ok,
            details={
                "avoids_231": avoiding,
                "patterns_checked": report4.patterns_checked,
            },
        )
    )

    if verify_minimality:
        for m in range(5, 11):
            rank, scanned = _scan_length(ledger, ClassTag.ALL, m, patterns, [])
            claims.append(
                ClaimResult(
                    name=f"no permutation of length {m} is 5-universal for av231",
                    passed=rank == -1,
                    details={"candidates_checked": scanned},
                )
            )

    return Claims231Report(
        claims=tuple(claims),
        all_passed=all(c.passed for c in claims),
        elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
    )


@dataclasses.dataclass(frozen=True)
class Conjecture321Report:
    n: int
    min_length: int
    all_search: SearchReport
    holds: bool
    avoiding_witness: Permutation | None
    avoiding_candidates_examined: int
    avoiding_total: int
    elapsed_ms: int

    to_json_dict = _to_json


def check_conjecture_321(
    n: int, *, budget: int | None = None, jobs: int = 1
) -> Conjecture321Report:
    """Decide whether some shortest n-universal permutation for the
    321-avoiding class itself avoids 321.

    First finds the minimum length L over unrestricted candidates, then
    scans the 321-avoiders of length exactly L for a universal one.  The
    verdict is whatever the exhaustive runs say.
    """
    t0 = time.perf_counter()
    ledger = _Budget(budget)
    all_search = _minimal_superpattern(n, ClassTag.AV321, ClassTag.ALL, ledger, jobs)
    length = all_search.min_length
    patterns = _ordered_pattern_tuples(ClassTag.AV321, n)
    rank, scanned = _scan_length(ledger, ClassTag.AV321, length, patterns, [])
    witness = None if rank == -1 else _candidate_at(ClassTag.AV321, length, rank)
    if witness is not None:
        if not verify_universal(witness, n, ClassTag.AV321).ok:
            raise InternalDefectError("avoiding witness failed re-verification")
    return Conjecture321Report(
        n=n,
        min_length=length,
        all_search=all_search,
        holds=witness is not None,
        avoiding_witness=witness,
        avoiding_candidates_examined=scanned,
        avoiding_total=class_count(ClassTag.AV321, length),
        elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
    )
