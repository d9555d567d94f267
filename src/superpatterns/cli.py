"""Command-line front end.

Exit codes: 0 for true/success, 1 for a false/negative result (pattern not
contained, candidate not universal, claim failed, search infeasible), 2 for
usage, parse, cap, or budget errors.  ``--json`` switches any subcommand to
its documented JSON schema.  Permutations are quoted one-line notation;
``layers:[3,1,2,1]`` is accepted wherever a permutation is expected.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classes import ClassTag
from .errors import BudgetExceededError, CapExceededError
from .layered import layer_profile, parse_profile, realize
from .perms import Permutation, contains, direct_sum, parse
from .search import check_claims_231, check_conjecture_321, minimal_superpattern
from .universal import (
    TABLE_CAP,
    build_universal,
    layerize,
    superpattern_length,
    superpattern_length_closed,
    superpattern_split,
    verify_universal,
)

_CLASS_CHOICES = [tag.value for tag in ClassTag]


def _perm_arg(text: str) -> Permutation:
    if text.startswith("layers:"):
        profile = parse_profile(text[len("layers:"):])
        # a short argument can ask for a huge permutation: refuse it unbuilt
        if profile.total > TABLE_CAP:
            raise CapExceededError(
                f"layers: asks for {profile.total} entries, above the cap of {TABLE_CAP}"
            )
        return realize(profile)
    return parse(text)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _cmd_perm_contains(args) -> int:
    pattern = _perm_arg(args.pattern)
    host = _perm_arg(args.host)
    embedding = contains(pattern, host)
    present = embedding is not None
    _emit(
        args,
        {
            "contains": present,
            "positions": None if embedding is None else list(embedding),
        },
        str(embedding) if present else "absent",
    )
    return 0 if present else 1


def _cmd_perm_sum(args) -> int:
    total = direct_sum(_perm_arg(p) for p in args.perms)
    _emit(args, {"sum": str(total)}, str(total))
    return 0


def _cmd_layerize(args) -> int:
    result = layerize(_perm_arg(args.perm))
    _emit(args, {"layerized": str(result)}, str(result))
    return 0


def _cmd_layers(args) -> int:
    profile = layer_profile(_perm_arg(args.perm))
    layered = profile is not None
    _emit(
        args,
        {"layered": layered, "profile": None if profile is None else str(profile)},
        str(profile) if layered else "not layered",
    )
    return 0 if layered else 1


def _cmd_sequence(args) -> int:
    n = args.n
    if args.closed:
        # the closed form has no split, so its JSON has no argmin_k
        value = superpattern_length_closed(n)
        _emit(args, {"n": n, "a": value}, str(value))
        return 0
    payload = {"n": n, "a": superpattern_length(n), "argmin_k": superpattern_split(n)}
    _emit(args, payload, str(payload["a"]))
    return 0


def _cmd_universal_build(args) -> int:
    perm = build_universal(args.n, args.split)
    _emit(args, {"n": args.n, "permutation": str(perm), "length": len(perm)}, str(perm))
    return 0


def _cmd_universal_verify(args) -> int:
    report = verify_universal(_perm_arg(args.perm), args.n, args.class_tag)
    human = (
        f"ok ({report.patterns_checked} patterns)"
        if report.ok
        else f"missing: {report.missing}"
    )
    _emit(args, report.to_json_dict(), human)
    return 0 if report.ok else 1


def _cmd_search_minimal(args) -> int:
    report = minimal_superpattern(args.n, args.patterns, args.candidates, budget=args.budget)
    if report.infeasible:
        human = f"infeasible: {report.certificate} is outside {report.candidate_class}"
    else:
        exhausted = " ".join(f"{m}:{c}" for m, c in report.lengths_exhausted)
        human = (
            f"min_length: {report.min_length}\n"
            f"witness: {report.witness}\n"
            f"candidates_examined: {report.candidates_examined}\n"
            f"lengths_exhausted: {exhausted}\n"
            f"elapsed_ms: {report.elapsed_ms}"
        )
    _emit(args, report.to_json_dict(), human)
    return 1 if report.infeasible else 0


def _cmd_check_claims231(args) -> int:
    report = check_claims_231(
        verify_minimality=args.verify_minimality, budget=args.budget
    )
    human = "\n".join(
        f"{'PASS' if claim.passed else 'FAIL'}  {claim.name}" for claim in report.claims
    )
    _emit(args, report.to_json_dict(), human)
    return 0 if report.all_passed else 1


def _cmd_check_conjecture321(args) -> int:
    report = check_conjecture_321(args.n, budget=args.budget)
    if report.holds:
        verdict = f"holds: 321-avoiding witness {report.avoiding_witness}"
    else:
        verdict = (
            f"fails: none of the {report.avoiding_total} 321-avoiders of "
            f"length {report.min_length} is {report.n}-universal"
        )
    human = (
        f"min_length: {report.min_length}\n"
        f"unrestricted witness: {report.all_search.witness}\n" + verdict
    )
    _emit(args, report.to_json_dict(), human)
    return 0 if report.holds else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")

    parser = argparse.ArgumentParser(
        prog="superpatterns",
        description="Minimal universal permutations for layered permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    perm = sub.add_parser("perm", help="containment and sums")
    perm_sub = perm.add_subparsers(dest="perm_command", required=True)
    p = perm_sub.add_parser("contains", parents=[common])
    p.add_argument("pattern")
    p.add_argument("host")
    p.set_defaults(func=_cmd_perm_contains)
    p = perm_sub.add_parser("sum", parents=[common])
    p.add_argument("perms", nargs="+")
    p.set_defaults(func=_cmd_perm_sum)

    p = sub.add_parser("layerize", parents=[common])
    p.add_argument("perm")
    p.set_defaults(func=_cmd_layerize)

    p = sub.add_parser("layers", parents=[common])
    p.add_argument("perm")
    p.set_defaults(func=_cmd_layers)

    p = sub.add_parser("sequence", parents=[common])
    p.add_argument("name", choices=["a"], help="sequence name")
    p.add_argument("n", type=int)
    p.add_argument("--closed", action="store_true", help="use the closed form")
    p.set_defaults(func=_cmd_sequence)

    universal = sub.add_parser("universal", help="build and verify")
    universal_sub = universal.add_subparsers(dest="universal_command", required=True)
    p = universal_sub.add_parser("build", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("--split", type=int, default=None)
    p.set_defaults(func=_cmd_universal_build)
    p = universal_sub.add_parser("verify", parents=[common])
    p.add_argument("perm")
    p.add_argument("n", type=int)
    p.add_argument("--class", dest="class_tag", choices=_CLASS_CHOICES, required=True)
    p.set_defaults(func=_cmd_universal_verify)

    search = sub.add_parser("search", help="minimal superpattern search")
    search_sub = search.add_subparsers(dest="search_command", required=True)
    p = search_sub.add_parser("minimal", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("--patterns", choices=_CLASS_CHOICES, required=True)
    p.add_argument("--candidates", choices=_CLASS_CHOICES, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_search_minimal)

    check = sub.add_parser("check", help="recorded computations")
    check_sub = check.add_subparsers(dest="check_command", required=True)
    p = check_sub.add_parser("claims231", parents=[common])
    p.add_argument("--verify-minimality", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_check_claims231)
    p = check_sub.add_parser("conjecture321", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_check_conjecture321)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


run = main


def script_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    script_entry()
