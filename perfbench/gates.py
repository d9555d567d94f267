"""Correctness gates: every operation's output is checked before it counts.

A gate raises WrongAnswer on any output that is not the right one, and the
runner turns that into a non-zero exit.  On success it returns the number of
candidates the operation certified, which feeds candidates_per_s.

Expected values that no closed form gives (the av-class minima and the
321-conjecture verdicts) are the ones the library produced when this
benchmark was defined; the witnesses are re-verified rather than pinned.
References for containment come from the pure-Python kernel, which the
compiled one must match.
"""

from __future__ import annotations

import bisect
import itertools

from superpatterns import _kernels_py, classes, layered, universal

AV_MINIMA = {("av231", 3): 5, ("av231", 4): 8,
             ("av321", 3): 5, ("av321", 4): 7, ("av321", 5): 10}
CONJECTURE_321 = {3: (True, 5), 4: (True, 7)}
CLAIMS_231_COUNT = 4
_BASIS = {"av231": (2, 3, 1), "av321": (3, 2, 1)}


class WrongAnswer(Exception):
    """An operation returned an output that is not the correct one."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def _exhausted(report, tag: str) -> None:
    lengths = [m for m, _ in report.lengths_exhausted]
    require(lengths == list(range(report.n, report.min_length)),
            f"lengths exhausted {lengths} do not cover {report.n}..{report.min_length - 1}")
    for m, count in report.lengths_exhausted:
        require(count == classes.class_count(tag, m),
                f"length {m} exhausted {count} candidates, not all of them")


def _witness(report, n: int, tag: str) -> None:
    witness = report.witness
    require(len(witness) == report.min_length, "witness length is not the minimum")
    require(classes.in_class(witness, report.candidate_class),
            f"witness {witness} is outside its candidate class")
    require(universal.verify_universal(witness, n, tag).ok,
            f"witness {witness} is not {n}-universal for {tag}")


def layered_report(report, n: int) -> int:
    expected = universal.superpattern_length(n)
    require(report.min_length == expected == universal.superpattern_length_closed(n),
            f"layered n={n}: min length {report.min_length}, expected {expected}")
    _witness(report, n, "layered")
    _exhausted(report, "layered")
    return report.candidates_examined


def av_report(report, n: int, tag: str) -> int:
    expected = AV_MINIMA[(tag, n)]
    require(report.min_length == expected,
            f"{tag} n={n}: min length {report.min_length}, expected {expected}")
    _witness(report, n, tag)
    _exhausted(report, tag)
    return report.candidates_examined


def claims_231(report) -> int:
    require(len(report.claims) == CLAIMS_231_COUNT and report.all_passed,
            "check_claims_231 did not pass all its claims")
    return report.claims[2].details["candidates_checked"]


def conjecture_321(report, n: int) -> int:
    holds, length = CONJECTURE_321[n]
    require((report.holds, report.min_length) == (holds, length),
            f"conjecture 321 n={n}: got {(report.holds, report.min_length)}, "
            f"expected {(holds, length)}")
    require(report.all_search.min_length == length, "all-class search disagrees")
    _exhausted(report.all_search, "all")
    if report.avoiding_witness is not None:
        require(classes.in_class(report.avoiding_witness, "av321"),
                "avoiding witness contains 321")
        require(universal.verify_universal(report.avoiding_witness, n, "av321").ok,
                "avoiding witness is not universal")
    return report.all_search.candidates_examined + report.avoiding_candidates_examined


def infeasible(report) -> int:
    """A provably infeasible query may only come back as certified infeasible;
    the budget refusal is handled by the runner."""
    require(bool(getattr(report, "infeasible", False)),
            "a provably infeasible query returned a witness")
    return 0


def contains(result, pattern, host) -> int:
    ref = _kernels_py.lex_min_embedding(pattern.values, host.values)
    got = None if result is None else tuple(p - 1 for p in result.positions)
    require(got == ref, f"contains({pattern}, {host}) gave {got}, reference {ref}")
    return 0


def longest_decreasing(values) -> int:
    """Length of the longest decreasing subsequence (patience sorting)."""
    tops: list[int] = []
    for v in values:
        i = bisect.bisect_left(tops, -v)
        tops[i:i + 1] = [-v]
    return len(tops)


def layerize(result, perm) -> int:
    """The output is layered and as long as the input.  Its largest layer is
    as long as the input's longest decreasing subsequence, which layerize
    splits off first.  Layered permutations are fixed points, so the output
    must be one."""
    require(len(result) == len(perm), "layerize changed the length")
    profile = layered.layer_profile(result)
    require(profile is not None, "layerize output is not layered")
    require(max(profile.sizes, default=0) == longest_decreasing(perm.values),
            f"layerize({perm}) has largest layer {max(profile.sizes, default=0)}, "
            f"not the longest decreasing subsequence")
    require(universal.layerize(result) == result, "layerize moved a layered permutation")
    return 0


def built_universal(pair, n: int) -> int:
    perm, report = pair
    expected = universal.superpattern_length_closed(n)
    require(len(perm) == expected == universal.superpattern_length(n),
            f"build_universal({n}) has length {len(perm)}, expected {expected}")
    require(report.ok and report.missing is None, f"build_universal({n}) is not universal")
    return 1


def reference_patterns(tag: str, n: int) -> list[tuple[int, ...]]:
    perms = itertools.permutations(range(1, n + 1))
    if tag == "all":
        return list(perms)
    return [p for p in perms if not _kernels_py.contains(_BASIS[tag], p)]


def verified(report, expected_ok: bool | None, references) -> int:
    """expected_ok pins the verdict where it is known; otherwise it is
    recomputed from the reference pattern set."""
    host = report.candidate.values
    if report.ok:
        require(all(_kernels_py.contains(p, host) for p in references),
                f"{report.candidate} reported universal but misses a pattern")
    else:
        missing = report.missing.values
        require(missing in references and not _kernels_py.contains(missing, host),
                f"{report.candidate} reported missing {report.missing} wrongly")
    require(expected_ok is None or report.ok == expected_ok,
            f"{report.candidate} universality verdict changed")
    return 1


def profile(result, sizes) -> int:
    require(result is not None and result.sizes == sizes,
            f"layer_profile gave {result}, expected {list(sizes)}")
    return 0


def length(result, n: int, other) -> int:
    require(result == other(n), f"the two length formulas disagree at n={n}")
    return 0
