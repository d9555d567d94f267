import json

from superpatterns import cli, parse, superpattern_length, universal
from superpatterns.cli import run
from superpatterns.universal import LengthTable


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, out


class TestBasics:
    def test_universal_build(self, capsys):
        code, out = _capture(capsys, ["universal", "build", "3"])
        assert (code, out) == (0, "1 4 3 2 5")

    def test_sequence_a0(self, capsys):
        code, out = _capture(capsys, ["sequence", "a", "0"])
        assert (code, out) == (0, "0")

    def test_contains_absent(self, capsys):
        code, out = _capture(capsys, ["perm", "contains", "2 1", "1 2"])
        assert (code, out) == (1, "absent")

    def test_contains_present(self, capsys):
        code, out = _capture(capsys, ["perm", "contains", "2 1", "1 3 2"])
        assert code == 0
        assert out == "2 3"

    def test_perm_sum(self, capsys):
        code, out = _capture(capsys, ["perm", "sum", "1", "2 1", "1"])
        assert (code, out) == (0, "1 3 2 4")

    def test_layers(self, capsys):
        code, out = _capture(capsys, ["layers", "3 2 1 4 6 5 7"])
        assert (code, out) == (0, "[3,1,2,1]")
        code, out = _capture(capsys, ["layers", "2 4 1 3"])
        assert (code, out) == (1, "not layered")

    def test_layerize(self, capsys):
        code, out = _capture(capsys, ["layerize", "3 5 4 10 1 9 6 8 7 11 2"])
        assert (code, out) == (0, "1 4 3 2 5 10 9 8 7 6 11")

    def test_search_infeasible(self, capsys):
        argv = ["search", "minimal", "3", "--patterns", "all", "--candidates", "layered"]
        code, out = _capture(capsys, argv)
        assert (code, out) == (1, "infeasible: 2 3 1 is outside layered")

    def test_layers_prefix_accepted_anywhere(self, capsys):
        code, out = _capture(capsys, ["layerize", "layers:[3,1,2,1]"])
        assert (code, out) == (0, "3 2 1 4 6 5 7")
        code, _ = _capture(capsys, ["perm", "contains", "layers:[2]", "layers:[3,1]"])
        assert code == 0


class TestErrors:
    def test_malformed_permutation(self, capsys):
        assert run(["layers", "1 1"]) == 2
        assert run(["perm", "contains", "x", "1 2"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_cap_exceeded(self, capsys):
        assert run(["universal", "verify", "1", "9", "--class", "av231"]) == 2

    def test_layered_search_beyond_the_cap(self, capsys):
        # the enumeration's cap of 20 does not bind the search, and the
        # default budget covers n = 21
        argv = ["search", "minimal", "21", "--patterns", "layered", "--candidates", "layered"]
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith("min_length: 79\n")

    def test_huge_permutations_are_refused_unbuilt(self, capsys, monkeypatch):
        # both arguments are short, and the permutations they ask for are
        # over the length table's cap of 10^7 entries
        def refuse(*args):
            raise AssertionError("a permutation was built")

        monkeypatch.setattr(universal, "_universal_sizes", refuse)
        monkeypatch.setattr(cli, "realize", refuse)
        for argv, message in (
            (["universal", "build", "10000000"],
             "U(10000000) would have 223222809 entries, above the cap of 10000000"),
            (["layers", "layers:[100000000]"],
             "layers: asks for 100000000 entries, above the cap of 10000000"),
            (["universal", "verify", "layers:[5000000,5000001]", "2", "--class", "layered"],
             "layers: asks for 10000001 entries, above the cap of 10000000"),
        ):
            assert run(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        monkeypatch.undo()
        # the cap is inclusive
        monkeypatch.setattr(cli, "TABLE_CAP", 4)
        assert _capture(capsys, ["layers", "layers:[3,1]"]) == (0, "[3,1]")
        assert run(["layers", "layers:[3,2]"]) == 2

    def test_layered_verification_is_not_capped(self, capsys):
        # a layered candidate for the layered class enumerates no pattern,
        # so the enumeration's cap of 16 does not bind it
        _, witness = _capture(capsys, ["universal", "build", "17"])
        code, out = _capture(capsys, ["universal", "verify", witness, "17", "--class", "layered"])
        assert (code, out) == (0, "ok (65536 patterns)")

    def test_layered_verification_above_the_table_cap(self, capsys, monkeypatch):
        # the reach table is capped at 10^7, inclusive
        assert run(["universal", "verify", "1", "10000001", "--class", "layered"]) == 2
        message = "layered verification is capped at n=10000000, got 10000001"
        assert capsys.readouterr().err == f"error: {message}\n"
        monkeypatch.setattr(universal, "TABLE_CAP", 4)
        assert run(["universal", "verify", "1 3 2", "4", "--class", "layered"]) == 1
        assert run(["universal", "verify", "1 3 2", "5", "--class", "layered"]) == 2

    def test_budget_exceeded(self, capsys):
        code = run(
            [
                "search",
                "minimal",
                "4",
                "--patterns",
                "layered",
                "--candidates",
                "layered",
                "--budget",
                "9",
            ]
        )
        assert code == 2

    def test_negative_budget(self, capsys):
        layered = ["--patterns", "layered", "--candidates", "layered"]
        for argv in (
            ["search", "minimal", "3", *layered, "--budget", "-5"],
            ["check", "claims231", "--budget", "-5"],
            ["check", "conjecture321", "2", "--budget", "-5"],
        ):
            assert run(argv) == 2, argv
            assert capsys.readouterr().err == "error: budget must be non-negative, got -5\n"

    def test_malformed_layer_profiles(self, capsys):
        for body in ("[1,,2]", "[1,2,]", "[1 2]", "[,]", "[,1]"):
            assert run(["layers", f"layers:{body}"]) == 2, body
            assert capsys.readouterr().err == f"error: not a layer profile: {body!r}\n"

    def test_negative_verify_length(self, capsys):
        assert run(["universal", "verify", "1 2", "-1", "--class", "layered"]) == 2
        assert capsys.readouterr().err == "error: n must be non-negative, got -1\n"

    def test_negative_lengths_get_one_message(self, capsys):
        for argv in (
            ["sequence", "a", "-1"],
            ["sequence", "a", "-1", "--closed"],
            ["universal", "build", "-1"],
        ):
            assert run(argv) == 2, argv
            assert capsys.readouterr().err == "error: n must be non-negative, got -1\n", argv

    def test_containment_cap(self, capsys):
        # a pattern above the cap is refused before its window table is
        # built, one longer than its host is absent at once
        assert run(["perm", "contains", "layers:[20000]", "layers:[30000]"]) == 2
        assert "containment cap" in capsys.readouterr().err
        assert run(["perm", "contains", "layers:[30000]", "layers:[20000]"]) == 1
        assert capsys.readouterr().out.strip() == "absent"

    def test_bad_split(self, capsys):
        assert run(["universal", "build", "3", "--split", "5"]) == 2

    def test_bad_search_inputs(self, capsys):
        layered = ["--patterns", "layered", "--candidates", "layered"]
        assert run(["search", "minimal", "-1", *layered]) == 2
        assert run(["check", "conjecture321", "-1"]) == 2
        # every search runs in this process: there is no --jobs
        for jobs in ("1", "2"):
            assert run(["search", "minimal", "3", *layered, "--jobs", jobs]) == 2
            assert run(["check", "conjecture321", "2", "--jobs", jobs]) == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


class TestJson:
    def test_sequence_json(self, capsys):
        code, out = _capture(capsys, ["sequence", "a", "5", "--json"])
        assert code == 0
        assert json.loads(out) == {"n": 5, "a": 11, "argmin_k": 1}

    def test_sequence_json_n0(self, capsys):
        _, out = _capture(capsys, ["sequence", "a", "0", "--json"])
        assert json.loads(out) == {"n": 0, "a": 0, "argmin_k": None}

    def test_verify_json(self, capsys):
        code, out = _capture(
            capsys, ["universal", "verify", "1 3 2", "2", "--class", "layered", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "candidate": "1 3 2",
            "n": 2,
            "class_name": "layered",
            "ok": True,
            "missing": None,
            "patterns_checked": 2,
        }

    def test_search_json(self, capsys):
        code, out = _capture(
            capsys,
            [
                "search",
                "minimal",
                "3",
                "--patterns",
                "layered",
                "--candidates",
                "layered",
                "--json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["min_length"] == 5
        assert payload["lengths_exhausted"] == [[3, 4], [4, 8]]
        assert parse(payload["witness"])  # parses back

    def test_search_infeasible_json(self, capsys):
        argv = ["search", "minimal", "3", "--patterns", "all", "--candidates", "layered"]
        code, out = _capture(capsys, [*argv, "--json"])
        assert code == 1
        payload = json.loads(out)
        assert payload.pop("elapsed_ms") >= 0
        assert payload == {
            "n": 3,
            "pattern_class": "all",
            "candidate_class": "layered",
            "infeasible": True,
            "certificate": "2 3 1",
        }

    def test_claims_json(self, capsys):
        code, out = _capture(capsys, ["check", "claims231", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert len(payload["claims"]) == 4

    def test_conjecture_json(self, capsys):
        code, out = _capture(capsys, ["check", "conjecture321", "2", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["min_length"] == 3

    def test_remaining_subcommand_schemas(self, capsys):
        _, out = _capture(capsys, ["perm", "contains", "2 1", "1 3 2", "--json"])
        assert json.loads(out) == {"contains": True, "positions": [2, 3]}
        _, out = _capture(capsys, ["perm", "contains", "2 1", "1 2", "--json"])
        assert json.loads(out) == {"contains": False, "positions": None}
        _, out = _capture(capsys, ["perm", "sum", "1", "1", "--json"])
        assert json.loads(out) == {"sum": "1 2"}
        _, out = _capture(capsys, ["layers", "3 2 1", "--json"])
        assert json.loads(out) == {"layered": True, "profile": "[3]"}
        _, out = _capture(capsys, ["layerize", "2 4 1 3", "--json"])
        assert json.loads(out) == {"layerized": "2 1 4 3"}
        _, out = _capture(capsys, ["universal", "build", "2", "--json"])
        assert json.loads(out) == {"n": 2, "permutation": "1 3 2", "length": 3}


class TestSequenceOptions:
    def test_closed_matches_recurrence(self, capsys):
        for n in [0, 1, 7, 63, 64, 1000]:
            _, via_recurrence = _capture(capsys, ["sequence", "a", str(n)])
            _, via_closed = _capture(capsys, ["sequence", "a", str(n), "--closed"])
            assert via_recurrence == via_closed

    def test_closed_json_builds_no_table(self, capsys, monkeypatch):
        expected = [superpattern_length(n) for n in (0, 1, 7, 64, 1000)]

        def refuse(self, n):
            raise AssertionError(f"table extended to {n}")

        monkeypatch.setattr(LengthTable, "extend_to", refuse)
        for n, a in zip((0, 1, 7, 64, 1000), expected):
            code, out = _capture(capsys, ["sequence", "a", str(n), "--closed", "--json"])
            assert code == 0
            assert json.loads(out) == {"n": n, "a": a}

    def test_table_cap_exits_2_and_names_closed(self, capsys):
        for argv in (["sequence", "a", "10000000000000"],
                     ["sequence", "a", "10000001", "--json"]):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "capped at n=10000000" in captured.err
            assert "--closed" in captured.err
        code, out = _capture(capsys, ["sequence", "a", "10000000000000", "--closed"])
        assert (code, out) == (0, "422407813955629")


class TestRoundTrip:
    def test_printed_permutations_parse_back(self, capsys):
        for argv in [
            ["universal", "build", "6"],
            ["layerize", "2 4 1 3"],
            ["perm", "sum", "2 1", "1 2"],
        ]:
            code, out = _capture(capsys, argv)
            assert code == 0
            assert str(parse(out)) == out
