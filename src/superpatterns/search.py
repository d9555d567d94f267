"""Exhaustive search for minimal universal permutations.

Candidates are scanned length by length, each length exhausted in
lexicographic order, so a returned minimum comes with complete nonexistence
counts for every shorter length.  Layered candidates are searched by
composition prefix, one kernels.scan_layered call (the chain engine's, on
either backend) per whole length, with one LayeredTable for every length of
a search, built from n alone.  The first length's call proves the family
bounds L(k) - 1 for k = 2..n, the root's (k = n) last, each by one failing
scan; every later length below L(n) is read off the root's dead entry
without entering a node, and L(n) is scanned for its witness.  The pruning
rules, and why each pruned prefix is counted exactly, are given in full in
chains.LayeredTable and chains.scan_layered.

One node budget gates every run, and exceeding it raises instead of
truncating, because the nonexistence half of the result is only meaningful
when enumeration is complete.  A per-run ledger charges a layered length
the nodes its scan visited, at least 1, when the scan returns, and any
other length its candidates times patterns before it is scanned.  A
layered scan runs under a node limit of what the ledger has left, so a
refused one stops at the node past the budget, and names the family bound
it was proving, the root's included, if it stopped in one.  Every
scan goes through _scan_length: those of a search, each length the 231
claims exhaust, and both phases of the 321 conjecture check, which share
one ledger.

Every class here is closed under containment, so a length-n pattern outside
the candidate class lies in no candidate of any length: such a query gets an
InfeasibleReport with the lex-first such pattern as its certificate, before
the budget is charged.

The patterns of the non-layered classes are checked in a fixed order that
fails fast (longest decreasing pattern first: a universal candidate must
devote an entire decreasing run of length n to it, which most candidates
and prefixes lack).  The order never changes results, only speed.

Every search runs in this process and scans each length whole, in one
kernel call.
"""

from __future__ import annotations

import dataclasses
import time
from typing import NoReturn

from . import kernels, layered
from .chains import LayeredTable, composition_at_rank, composition_count
from .classes import ClassTag, class_count, class_counter, class_tuples, coerce_tag, in_class
from .errors import BudgetExceededError, InternalDefectError, NodeLimitError
from .layered import realize_values
# unused here, but bound for tracers that wrap search.enumerate_layered
from .layered import enumerate_layered  # noqa: F401
from .perms import Permutation, permutation_at_rank
from .universal import _decreasing_chains, _to_json, _verify, verify_universal

DEFAULT_BUDGET = 50_000_000

MIN_5UNIVERSAL_AV231_LEN11 = Permutation((1, 5, 11, 9, 3, 2, 8, 4, 7, 6, 10))
AVOIDING_5UNIVERSAL_AV231_LEN12 = Permutation((1, 11, 3, 2, 10, 7, 5, 4, 6, 9, 8, 12))


class _Budget:
    """The node budget of one run, charged length by length (None means
    DEFAULT_BUDGET); a negative budget raises ValueError."""

    def __init__(self, limit: int | None) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"budget must be non-negative, got {limit}")
        self.limit = DEFAULT_BUDGET if limit is None else limit
        self.used = 0

    def check(
        self, ctag: ClassTag, m: int, nodes: int, exhausted: list[tuple[int, int]]
    ) -> None:
        """Raise (refuse) unless scanning length m of the class for nodes
        more fits."""
        if self.used + nodes > self.limit:
            self.refuse(ctag, m, nodes, exhausted)

    def refuse(
        self,
        ctag: ClassTag,
        m: int,
        nodes: int,
        exhausted: list[tuple[int, int]],
        family: int = 0,
    ) -> NoReturn:
        """Raise, with the lengths that this scan's search has exhausted and,
        when the scan stopped in the proof of a layered family bound, that
        family's k."""
        done = ", ".join(str(k) for k, _ in exhausted) or "none"
        where = f" (proving the family bound of k = {family})" if family else ""
        raise BudgetExceededError(
            f"scanning {ctag.value} length {m}{where} needs ~{self.used + nodes} nodes, "
            f"over the budget of {self.limit}; lengths exhausted: {done}",
            lengths_exhausted=exhausted,
            estimated=self.used + nodes,
            budget=self.limit,
        ) from None

    def charge(
        self, ctag: ClassTag, m: int, nodes: int, exhausted: list[tuple[int, int]]
    ) -> None:
        """Charge scanning length m of the class, or raise (check)."""
        self.check(ctag, m, nodes, exhausted)
        self.used += nodes


def _ordered_pattern_tuples(tag: ClassTag, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        sorted(
            class_tuples(tag, n),
            key=lambda t: (-_decreasing_chains(t)[1], t),
        )
    )


def _scan_length(
    ledger: _Budget,
    ctag: ClassTag,
    m: int,
    patterns: LayeredTable | tuple[tuple[int, ...], ...],
    exhausted: list[tuple[int, int]],
) -> tuple[Permutation | None, int]:
    """(first witness, candidates scanned) within length m, the witness None
    when the length is exhausted; it is then appended to exhausted as
    (m, count).

    A layered length is one scan of the search's LayeredTable (patterns),
    limited to the nodes the ledger has left and charged when it returns;
    a scan stopped at that limit is refused, with the family it was proving
    (k = n for the root) if it stopped in a proof.  Any other is charged its
    candidates times patterns first, then scanned whole by one kernel call:
    every permutation of length m by rank, or an avoider class enumerated
    once, in order."""
    if ctag is ClassTag.LAYERED:
        nodes = patterns.nodes
        patterns.limit = nodes + ledger.limit - ledger.used
        try:
            rank, total = kernels.scan_layered(m, patterns)
        except NodeLimitError:
            # the family proofs come first, the root's last, and a stop in
            # one leaves the families below it proved
            family = patterns.proved + 1
            ledger.refuse(ctag, m, patterns.nodes - nodes, exhausted,
                          family if family <= patterns.n else 0)
        ledger.charge(ctag, m, max(patterns.nodes - nodes, 1), exhausted)
        if rank >= 0:
            return Permutation(realize_values(composition_at_rank(m, rank))), rank + 1
    else:
        total = class_count(ctag, m)
        ledger.charge(ctag, m, total * max(len(patterns), 1), exhausted)
        if ctag is ClassTag.ALL:
            rank, _ = kernels.scan_all_perms(m, patterns)
            values = permutation_at_rank(m, rank) if rank >= 0 else None
        else:
            members = list(class_tuples(ctag, m))
            rank, _ = kernels.scan_perm_list(members, patterns)
            values = members[rank] if rank >= 0 else None
        if values is not None:
            return Permutation(values), rank + 1
    exhausted.append((m, total))
    return None, total


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
    class.  Every search runs in this process, so jobs must be 1."""
    if jobs != 1:
        raise ValueError(f"searches run in one process, so jobs must be 1, got {jobs}")
    return _minimal_superpattern(n, pattern_class, candidate_class, _Budget(budget))


def _minimal_superpattern(
    n: int,
    pattern_class: ClassTag | str,
    candidate_class: ClassTag | str,
    ledger: _Budget,
) -> SearchReport | InfeasibleReport:
    t0 = time.perf_counter()
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
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
    patterns: LayeredTable | tuple[tuple[int, ...], ...]
    if ctag is ClassTag.LAYERED:
        # feasible, so every pattern is layered: all of them iff as many
        # (for a non-layered pattern class, only at n <= 2); the table of
        # the whole family is built from n, with no profile enumerated
        patterns = LayeredTable(n)
        if ptag is not ctag and composition_count(n) != class_count(ptag, n):
            raise InternalDefectError("layered candidates would miss a pattern")
    else:
        # the first length's charge, from the counts: a budget that refuses
        # it does so before any pattern is enumerated
        ledger.check(ctag, n, class_count(ctag, n) * class_count(ptag, n), [])
        patterns = _ordered_pattern_tuples(ptag, n)
    exhausted: list[tuple[int, int]] = []
    m = n
    while True:
        witness, scanned = _scan_length(ledger, ctag, m, patterns, exhausted)
        if witness is not None:
            break
        m += 1
    report = SearchReport(
        n=n,
        pattern_class=ptag,
        candidate_class=ctag,
        min_length=m,
        witness=witness,
        candidates_examined=sum(c for _, c in exhausted) + scanned,
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
    witness = report.witness
    ctag = coerce_tag(report.candidate_class)
    # one layer profile serves the class check and the re-verification
    profile = layered.layer_profile(witness)
    if not (profile is not None if ctag is ClassTag.LAYERED else in_class(witness, ctag)):
        raise InternalDefectError("search witness is outside its candidate class")
    if not _verify(witness, report.n, coerce_tag(report.pattern_class), profile).ok:
        raise InternalDefectError("search witness failed re-verification")
    # every length from n up to the witness's, each with its whole class
    count = class_counter(ctag)
    expected = tuple((m, count(m)) for m in range(report.n, report.min_length))
    if report.lengths_exhausted != expected:
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

    found, scanned = _scan_length(ledger, ClassTag.AV231, 11, patterns, [])
    claims.append(
        ClaimResult(
            name="no 231-avoiding length-11 permutation is 5-universal for av231",
            passed=found is None,
            details={
                "candidates_checked": scanned,
                "counterexample": None if found is None else str(found),
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
        exhausted: list[tuple[int, int]] = []
        for m in range(5, 11):
            witness, scanned = _scan_length(ledger, ClassTag.ALL, m, patterns, exhausted)
            claims.append(
                ClaimResult(
                    name=f"no permutation of length {m} is 5-universal for av231",
                    passed=witness is None,
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


def check_conjecture_321(n: int, *, budget: int | None = None) -> Conjecture321Report:
    """Decide whether some shortest n-universal permutation for the
    321-avoiding class itself avoids 321.

    First finds the minimum length L over unrestricted candidates, then
    scans the 321-avoiders of length exactly L for a universal one.  The
    verdict is whatever the exhaustive runs say.
    """
    t0 = time.perf_counter()
    ledger = _Budget(budget)
    all_search = _minimal_superpattern(n, ClassTag.AV321, ClassTag.ALL, ledger)
    length = all_search.min_length
    patterns = _ordered_pattern_tuples(ClassTag.AV321, n)
    witness, scanned = _scan_length(ledger, ClassTag.AV321, length, patterns, [])
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
