import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from lowprev.cli import main, report_rational
from lowprev.jsonio import parse_natgamble
from lowprev.shift import lnex_res
from lowprev.examples import names as example_names


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def dice_model(tmp_path):
    items = []
    for i in range(6):
        values = ["1" if j == i else "0" for j in range(6)]
        items.append({"gamble": {"values": values}, "lower": "1/6"})
    return write(
        tmp_path,
        "dice.json",
        {"space": ["1", "2", "3", "4", "5", "6"], "items": items},
    )


@pytest.fixture
def vacuous3(tmp_path):
    return write(tmp_path, "vac3.json", {"space": ["1", "2", "3"], "items": []})


class TestBasicCommands:
    def test_asl_and_coherence(self, dice_model):
        code, out = run_cli(["asl", dice_model])
        assert code == 0
        assert json.loads(out)["result"] == {"kind": "bool", "value": True}
        code, out = run_cli(["coherence", dice_model])
        assert code == 0 and json.loads(out)["result"]["value"] is True

    def test_natex_vacuous_is_infimum(self, tmp_path, vacuous3):
        g = write(tmp_path, "g.json", {"values": ["3", "1", "2"]})
        code, out = run_cli(["natex", vacuous3, "--gamble", g])
        assert code == 0
        assert json.loads(out)["result"]["value"] == "1/1"

    def test_decimal_rendering_is_additional(self, tmp_path, dice_model):
        g = write(tmp_path, "g.json", {"values": ["1", "0", "0", "0", "0", "0"]})
        code, out = run_cli(["--decimal", "4", "natex", dice_model, "--gamble", g])
        result = json.loads(out)["result"]
        assert code == 0
        assert result["value"] == "1/6"
        assert result["decimal"] == "0.1667"

    def test_vertices_sorted_table(self, tmp_path):
        model = write(tmp_path, "m.json", {"space": ["1", "2"], "items": []})
        code, out = run_cli(["vertices", model])
        assert code == 0
        assert json.loads(out)["result"]["rows"] == [["0/1", "1/1"], ["1/1", "0/1"]]

    def test_determinism(self, dice_model):
        code1, out1 = run_cli(["vertices", dice_model])
        code2, out2 = run_cli(["vertices", dice_model])
        assert (code1, out1) == (code2, out2)

    def test_vertices_past_the_cap_is_one_json_line(self, tmp_path, capsys):
        item = {"gamble": {"values": ["1"] + ["0"] * 8}, "lower": "1/20"}
        model = write(tmp_path, "m9.json", {"space": [str(i) for i in range(9)], "items": [item]})
        code, out = run_cli(["vertices", model])
        assert code == 2
        assert out.endswith("\n") and len(out.splitlines()) == 1
        payload = json.loads(out)
        assert "result" not in payload
        assert payload["diagnostics"] == [
            "precondition violated: credal vertex enumeration capped at 8 outcomes"
        ]
        assert capsys.readouterr().err == ""


class TestInvarianceCommands:
    def test_invariance_report(self, tmp_path, vacuous3):
        mono = write(tmp_path, "mono.json", {"generators": [{"map": [0, 1, 1]}]})
        code, out = run_cli(["invariance", vacuous3, "--monoid", mono])
        result = json.loads(out)["result"]
        assert code == 0 and result["kind"] == "witness"
        assert result["weak_credal_level"] is True and result["strong"] is False
        assert result["witnesses"]["strong"]["map"] == [0, 1, 1]

    def test_weak_and_strong_flags(self, tmp_path, vacuous3):
        mono = write(tmp_path, "mono.json", {"generators": [{"map": [0, 1, 1]}]})
        code, out = run_cli(["invariance", vacuous3, "--monoid", mono, "--weak"])
        assert code == 0 and json.loads(out)["result"]["value"] is True
        code, out = run_cli(["invariance", vacuous3, "--monoid", mono, "--strong"])
        assert code == 0 and json.loads(out)["result"]["value"] is False

    def test_flags_on_sure_loss_exit_2(self, tmp_path):
        model = write(
            tmp_path,
            "loss.json",
            {
                "space": ["1", "2"],
                "items": [
                    {"gamble": {"values": ["1", "0"]}, "lower": "2/3"},
                    {"gamble": {"values": ["0", "1"]}, "lower": "2/3"},
                ],
            },
        )
        mono = write(tmp_path, "mono2.json", {"generators": [{"map": [1, 0]}]})
        code, out = run_cli(["invariance", model, "--monoid", mono, "--weak"])
        assert code == 2 and "result" not in json.loads(out)

    @pytest.fixture
    def sure_loss_argv(self, tmp_path):
        doc = {"space": ["1", "2"], "items": [{"gamble": {"values": ["1", "1"]}, "lower": "2"}]}
        mono = write(tmp_path, "mono.json", {"generators": [{"map": [1, 0]}]})
        return ["invariance", write(tmp_path, "loss.json", doc), "--monoid", mono]

    def test_report_under_sure_loss(self, sure_loss_argv):
        code, out = run_cli(sure_loss_argv)
        payload = json.loads(out)
        assert code == 0
        assert payload["diagnostics"] == ["sure loss: credal-level checks not applicable"]
        assert payload["result"] == {
            "kind": "witness",
            "weak_assessment_level": True,
            "weak_credal_level": None,
            "strong": None,
            "witnesses": {},
        }

    @pytest.mark.parametrize("flag", ["--weak", "--strong"])
    def test_flag_refusal_text_under_sure_loss(self, sure_loss_argv, flag):
        code, out = run_cli(sure_loss_argv + [flag])
        assert code == 2
        assert json.loads(out)["diagnostics"] == [
            "precondition violated: credal-level invariance undefined under sure loss"
        ]

    def test_flags_answer_past_eight_outcomes(self, tmp_path):
        space = [str(i) for i in range(9)]
        pins = [
            {"gamble": {"values": ["1" if j == i else "0" for j in range(9)]}, "lower": "1/9"}
            for i in range(9)
        ]
        uniform = write(tmp_path, "uniform9.json", {"space": space, "items": pins})
        vacuous = write(tmp_path, "vacuous9.json", {"space": space, "items": []})
        mono = write(tmp_path, "cycle9.json", {"generators": [{"map": list(range(1, 9)) + [0]}]})
        for model, strong in ((uniform, True), (vacuous, False)):
            code, out = run_cli(["invariance", model, "--monoid", mono, "--strong"])
            assert code == 0 and json.loads(out)["result"]["value"] is strong
            code, out = run_cli(["invariance", model, "--monoid", mono, "--weak"])
            assert code == 0 and json.loads(out)["result"]["value"] is True

    def test_invnatex_formula(self, tmp_path, vacuous3):
        # single 3-cycle: the only invariant prevision is uniform
        mono = write(tmp_path, "mono.json", {"generators": [{"map": [1, 2, 0]}]})
        g = write(tmp_path, "g.json", {"values": ["3", "1", "2"]})
        code, out = run_cli(["invnatex", vacuous3, "--monoid", mono, "--gamble", g])
        assert code == 0
        assert json.loads(out)["result"]["value"] == "2/1"

    def test_invnatex_no_dominator_exit_2(self, tmp_path, vacuous3):
        mono = write(
            tmp_path,
            "mono.json",
            {"generators": [{"map": [0, 0, 0]}, {"map": [1, 1, 1]}]},
        )
        g = write(tmp_path, "g.json", {"values": ["1", "0", "0"]})
        code, out = run_cli(["invnatex", vacuous3, "--monoid", mono, "--gamble", g])
        payload = json.loads(out)
        assert code == 2
        assert "result" not in payload
        assert any("invariant" in d for d in payload["diagnostics"])

    def test_mixture_formula(self, tmp_path, vacuous3):
        mono = write(
            tmp_path,
            "mono.json",
            {"generators": [{"map": [0, 1, 1]}, {"map": [0, 2, 2]}]},
        )
        g = write(tmp_path, "g.json", {"values": ["2", "7", "-3"]})
        code, out = run_cli(
            ["mixture", vacuous3, "--monoid", mono, "--gamble", g, "--depth", "2"]
        )
        assert code == 0
        assert json.loads(out)["result"]["value"] == "2/1"


class TestShiftAndChoquet:
    def test_shift_periodic_exact(self, tmp_path):
        doc = write(
            tmp_path,
            "seq.json",
            {"kind": "eventually_periodic", "prefix": ["0"], "cycle": ["1", "0"]},
        )
        code, out = run_cli(["shift", doc, "--op", "lnex"])
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["value"] == "1/2" and payload["exact"] is True

    def test_shift_retruncation_and_nmax(self, tmp_path):
        doc = write(
            tmp_path,
            "seq.json",
            {"kind": "truncated", "window": ["1", "0", "1", "1", "0", "1"], "lo": "0", "hi": "1"},
        )
        code, out = run_cli(["shift", doc, "--op", "lnex", "--nmax", "2", "--trunc", "4"])
        payload = json.loads(out)
        assert code == 0 and payload["exact"] is False
        # window (1,0,1,1): worst singleton 0, worst pair mean 1/2
        assert payload["result"]["value"] == "1/2"
        code, out = run_cli(["shift", doc, "--op", "lres", "--nmax", "3"])
        assert code == 0

    def test_shift_truncated_flags(self, tmp_path):
        doc = write(
            tmp_path,
            "seq.json",
            {"kind": "truncated", "window": ["1", "0", "1", "1"], "lo": "0", "hi": "1"},
        )
        code, out = run_cli(["shift", doc, "--op", "lsamp"])
        payload = json.loads(out)
        assert code == 0 and payload["exact"] is False
        assert payload["diagnostics"]

    def test_choquet_vacuous(self, tmp_path):
        sf = write(
            tmp_path,
            "sf.json",
            {"events": [[], ["1", "2", "3"]], "values": ["0", "1"]},
        )
        g = write(tmp_path, "g.json", {"values": ["4", "-2", "1"]})
        code, out = run_cli(["choquet", sf, "--gamble", g])
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["value"] == "-2/1"

    def test_exchange_update_scenario(self, tmp_path):
        prior_items = [
            {"gamble": {"values": v}, "lower": b}
            for v, b in (
                (["1", "0", "0", "0"], "1/4"),
                (["-1", "0", "0", "0"], "-1/4"),
                (["0", "1", "0", "0"], "1/4"),
                (["0", "-1", "0", "0"], "-1/4"),
                (["0", "0", "1", "0"], "1/4"),
                (["0", "0", "-1", "0"], "-1/4"),
            )
        ]
        scenario = write(
            tmp_path,
            "scenario.json",
            {
                "kappa": 2,
                "n_star": 3,
                "observed": [1],
                "count_prior": {"items": prior_items},
                "query_gamble": {"values": ["1", "1", "0", "0"]},
            },
        )
        code, out = run_cli(["exchange", "update", scenario])
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["value"] == "2/3"

    def test_positivity_violation_exit_2(self, tmp_path):
        items = [
            {"gamble": {"values": ["0", "0", "0", "1"]}, "lower": "1"},
        ]
        scenario = write(
            tmp_path,
            "scenario.json",
            {
                "kappa": 2,
                "n_star": 3,
                "observed": [1],
                "count_prior": {"items": items},
                "query_gamble": {"values": ["1", "1", "0", "0"]},
            },
        )
        code, out = run_cli(["exchange", "update", scenario])
        assert code == 2
        assert "result" not in json.loads(out)


class TestValidateAndErrors:
    def test_zero_denominator_rejected(self, tmp_path):
        bad = write(tmp_path, "bad.json", {"values": ["1/0"]})
        code, out = run_cli(["validate", bad])
        assert code == 1
        assert "denominator" in json.loads(out)["diagnostics"][0]

    def test_length_mismatch_rejected_with_index(self, tmp_path):
        doc = write(
            tmp_path,
            "bad.json",
            {
                "space": ["1", "2"],
                "items": [{"gamble": {"values": ["1"]}, "lower": "0"}],
            },
        )
        code, out = run_cli(["validate", doc])
        assert code == 1
        assert "items[0].gamble" in json.loads(out)["diagnostics"][0]

    def test_valid_model_accepted(self, dice_model):
        code, out = run_cli(["validate", dice_model])
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["rows"]["schema"] == "assessment"

    def test_malformed_json_exit_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"space": [')
        code, out = run_cli(["asl", str(path)])
        assert code == 1

    def test_sure_loss_exit_2(self, tmp_path):
        model = write(
            tmp_path,
            "loss.json",
            {
                "space": ["1", "2"],
                "items": [
                    {"gamble": {"values": ["1", "0"]}, "lower": "2/3"},
                    {"gamble": {"values": ["0", "1"]}, "lower": "2/3"},
                ],
            },
        )
        g = write(tmp_path, "g.json", {"values": ["1", "0"]})
        code, out = run_cli(["natex", model, "--gamble", g])
        assert code == 2


class TestBoundaryFlags:
    """Out-of-range flags are refused with exit 1 and one JSON line."""

    def assert_refused(self, argv):
        code, out = run_cli(argv)
        assert code == 1
        assert out.endswith("\n") and len(out.splitlines()) == 1
        assert "result" not in json.loads(out)

    @pytest.mark.parametrize("op", ["lnex", "unex", "lsamp", "lres"])
    @pytest.mark.parametrize("nmax", ["0", "-3"])
    def test_shift_nmax_below_one(self, tmp_path, op, nmax):
        doc = write(
            tmp_path,
            "seq.json",
            {"kind": "truncated", "window": ["1", "0", "1", "1"], "lo": "0", "hi": "1"},
        )
        self.assert_refused(["shift", doc, "--op", op, "--nmax", nmax])

    def test_mixture_negative_depth(self, tmp_path, vacuous3):
        mono = write(tmp_path, "mono.json", {"generators": [{"map": [1, 2, 0]}]})
        g = write(tmp_path, "g.json", {"values": ["2", "7", "-3"]})
        self.assert_refused(
            ["mixture", vacuous3, "--monoid", mono, "--gamble", g, "--depth", "-1"]
        )


class TestMalformedInputs:
    """Malformed documents and flags exit 1 with one JSON line naming a path."""

    def assert_refused_at(self, argv, path):
        code, out = run_cli(argv)
        assert code == 1
        assert out.endswith("\n") and len(out.splitlines()) == 1
        payload = json.loads(out)
        assert "result" not in payload
        assert len(payload["diagnostics"]) == 1 and path in payload["diagnostics"][0]

    @pytest.mark.parametrize("command", ["choquet", "validate"])
    def test_setfunction_domain_not_a_lattice(self, tmp_path, command):
        doc = {
            "space": ["1", "2", "3"],
            "events": [[], ["1"], ["2"], ["1", "2", "3"]],
            "values": ["0", "1/3", "1/3", "1"],
        }
        sf = write(tmp_path, "sf.json", doc)
        g = write(tmp_path, "g.json", {"values": ["1", "0", "0"]})
        argv = ["choquet", sf, "--gamble", g] if command == "choquet" else ["validate", sf]
        self.assert_refused_at(argv, "setfunction.events")

    def test_setfunction_event_not_a_list(self, tmp_path):
        sf = write(tmp_path, "sf.json", {"events": [5], "values": ["0"]})
        self.assert_refused_at(["validate", sf], "setfunction.events[0]")

    def test_setfunction_without_events(self, tmp_path):
        sf = write(tmp_path, "sf.json", {"events": [], "values": []})
        self.assert_refused_at(["validate", sf], "setfunction.events")

    def test_setfunction_event_listed_twice(self, tmp_path):
        doc = {"events": [[], ["1", "2"], ["2", "1"]], "values": ["0", "1/2", "1"]}
        sf = write(tmp_path, "sf.json", doc)
        g = write(tmp_path, "g.json", {"values": ["1", "0"]})
        self.assert_refused_at(["validate", sf], "setfunction.events[2]")
        self.assert_refused_at(["choquet", sf, "--gamble", g], "setfunction.events[2]")

    @pytest.mark.parametrize("command", ["shift", "validate"])
    def test_truncated_window_value_above_hi(self, tmp_path, command):
        doc = {"kind": "truncated", "window": ["1", "3/2", "0"], "lo": "0", "hi": "1"}
        self.assert_refused_at([command, write(tmp_path, "seq.json", doc)], "natgamble.window")

    def test_boolean_map_index(self, tmp_path, vacuous3):
        mono = write(tmp_path, "mono.json", {"generators": [{"map": [True, 0, 2]}]})
        self.assert_refused_at(["invariance", vacuous3, "--monoid", mono], "monoid.generators[0].map[0]")
        self.assert_refused_at(["validate", mono], "generators[0].map[0]")

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("kappa", True, "scenario.kappa"),
            ("n_star", True, "scenario.n_star"),
            ("observed", [True], "scenario.observed[0]"),
        ],
    )
    def test_boolean_scenario_integers(self, tmp_path, field, value, path):
        doc = {
            "kappa": 2,
            "n_star": 3,
            "observed": [1],
            "count_prior": {"items": []},
            "query_gamble": {"values": ["1", "1", "0", "0"]},
        }
        doc[field] = value
        scenario = write(tmp_path, "scenario.json", doc)
        self.assert_refused_at(["exchange", "update", scenario], path)
        self.assert_refused_at(["validate", scenario], path)

    def test_negative_decimal_digits(self, tmp_path, vacuous3):
        g = write(tmp_path, "g.json", {"values": ["3", "1", "2"]})
        self.assert_refused_at(["--decimal", "-1", "natex", vacuous3, "--gamble", g], "--decimal")

    def test_model_path_is_a_directory(self, tmp_path):
        g = write(tmp_path, "g.json", {"values": ["3", "1", "2"]})
        self.assert_refused_at(["natex", str(tmp_path), "--gamble", g], str(tmp_path))

    def test_model_file_is_not_utf8(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_bytes(b"\xff\xfe{}")
        self.assert_refused_at(["validate", str(model)], str(model))


class TestBoundedRequests:
    """Requests the window or the report size cannot serve exit 1, naming the flag."""

    def assert_refused_at(self, argv, path):
        code, out = run_cli(argv)
        assert code == 1
        assert out.endswith("\n") and len(out.splitlines()) == 1
        payload = json.loads(out)
        assert "result" not in payload
        assert len(payload["diagnostics"]) == 1 and path in payload["diagnostics"][0]

    def test_residue_modulus_beyond_the_window(self, tmp_path):
        doc = write(
            tmp_path,
            "seq.json",
            {"kind": "truncated", "window": ["1", "0", "1", "1"], "lo": "0", "hi": "1"},
        )
        self.assert_refused_at(["shift", doc, "--op", "lres"], "--nmax")
        code, out = run_cli(["shift", doc, "--op", "lres", "--nmax", "4"])
        assert code == 0 and json.loads(out)["result"]["value"] == "3/4"

    def test_residue_modulus_defaults_to_the_library_default(self, tmp_path):
        doc = {"kind": "truncated", "window": ["0"] + ["1"] * 119, "lo": "0", "hi": "1"}
        code, out = run_cli(["shift", write(tmp_path, "seq.json", doc), "--op", "lres"])
        expected = lnex_res(parse_natgamble(doc)).value
        assert expected == Fraction(99, 100)
        assert code == 0 and json.loads(out)["result"]["value"] == report_rational(expected)

    def test_decimal_digits_are_capped(self, tmp_path, vacuous3):
        g = write(tmp_path, "g.json", {"values": ["3", "1", "2"]})
        self.assert_refused_at(["--decimal", "101", "natex", vacuous3, "--gamble", g], "--decimal")
        code, out = run_cli(["--decimal", "100", "natex", vacuous3, "--gamble", g])
        assert code == 0 and json.loads(out)["result"]["decimal"] == "1." + "0" * 100

    def test_decimal_of_a_value_beyond_float_range(self, tmp_path, vacuous3):
        big = 10**400
        g = write(tmp_path, "g.json", {"values": [str(big), str(big + 1), f"{-3 * big - 1}/3"]})
        code, out = run_cli(["--decimal", "3", "natex", vacuous3, "--gamble", g])
        result = json.loads(out)["result"]
        assert code == 0
        assert result["value"] == f"{-3 * big - 1}/3"
        assert result["decimal"] == "-" + "1" + "0" * 400 + ".333"


class TestInternalErrors:
    def test_internal_error_is_one_json_line(self, tmp_path, vacuous3, monkeypatch):
        def broken(model, g):
            raise AssertionError("bounded LP reported unbounded")

        monkeypatch.setattr("lowprev.cli.natural_extension", broken)
        g = write(tmp_path, "g.json", {"values": ["3", "1", "2"]})
        code, out = run_cli(["natex", vacuous3, "--gamble", g])
        assert code == 2
        assert out.endswith("\n") and len(out.splitlines()) == 1
        payload = json.loads(out)
        assert "result" not in payload
        assert payload["diagnostics"] == [
            "internal error: AssertionError: bounded LP reported unbounded"
        ]


class TestWorkedExamples:
    @pytest.mark.parametrize("name", example_names())
    def test_every_named_example_replays(self, name):
        code, out = run_cli(["examples", name])
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["rows"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus"], ["natex", "m.json"], ["--decimal", "two", "asl", "m.json"]],
        ids=["no-subcommand", "unknown-subcommand", "missing-gamble", "non-integer-decimal"],
    )
    def test_usage_error_is_one_json_line(self, argv, capsys):
        code, out = run_cli(argv)
        assert code == 1
        assert out.endswith("\n") and len(out.splitlines()) == 1
        payload = json.loads(out)
        assert "result" not in payload
        assert len(payload["diagnostics"]) == 1
        assert payload["diagnostics"][0].startswith("parse error: ")
        assert capsys.readouterr().err == ""

    def test_help_keeps_its_usage_text(self, capsys):
        code, out = run_cli(["--help"])
        assert code == 0
        assert out.startswith("usage: lowprev")
