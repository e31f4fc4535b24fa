"""Command-line interface: dispatch, structured output, exit codes."""

import json
import pathlib
import random
import subprocess
import sys
import time

import pytest

from charp import depth as depth_mod
from charp import verify
from charp.budget import InternalInvariantError
from charp.cli import COMMANDS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_fedder_not_f_pure(self, capsys):
        code, out, _ = run(capsys, "fedder", "--ring", "F_2[x,y,z]/(x^2 + y*z^2)")
        assert code == 0
        assert "not F-pure" in out

    def test_fedder_f_pure_with_witness(self, capsys):
        code, out, _ = run(capsys, "fedder", "--ring", "F_2[x,y]/(x*y)")
        assert code == 0
        assert out.startswith("F-pure")
        assert "witness: x*y" in out

    def test_closure_contains_witness(self, capsys):
        code, out, _ = run(capsys, "closure", "--ring",
                           "F_3[x,y,z]/(x^3 - y*z^3)", "--ideal", "(z)",
                           "--emax", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert "x" in data["result"]["closure"]
        assert data["result"]["stabilized_at"] == 1

    def test_sdepth_per_level(self, capsys):
        code, out, _ = run(capsys, "sdepth", "--ring", "F_2[x,y,z]",
                           "--ideal", "(x*y, x*z)", "--emax", "3")
        assert code == 0
        assert "[1, 1, 1, 1]" in out
        assert "sdepth: 1" in out

    def test_gb_with_order(self, capsys):
        code, out, _ = run(capsys, "gb", "--ring", "F_2[x,y]",
                           "--ideal", "(x^2+y, x*y+1)", "--order", "lex")
        assert code == 0
        assert "y^3 + 1" in out

    def test_ass_records(self, capsys):
        code, out, _ = run(capsys, "ass", "--ring", "F_2[x,y,z]",
                           "--ideal", "(x*y, x*z)", "--json")
        data = json.loads(out)
        assert [r["prime"] for r in data["result"]["primes"]] == \
            [["x"], ["y", "z"]]

    def test_ass_union_sides(self, capsys):
        code, out, _ = run(capsys, "ass-union", "--ring", "F_2[x,y]",
                           "--family", "bracket", "--ideal", "(x,y)",
                           "--levels", "3", "--json")
        data = json.loads(out)
        sides = {r["side"] for r in data["result"]["records"]}
        assert sides == {"R", "R-infinity-via-phi"}

    def test_ass_union_deep_bracket_levels(self, capsys):
        # level 6 brackets by 64: the exponent box below the lcm has over
        # three million points, the irreducible decomposition four components
        code, out, _ = run(capsys, "ass-union", "--ring", "F_2[x,y,z]",
                           "--ideal", "(x^2*y, y^3*z, x*z^2)", "--levels", "6",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert [r["prime"] for r in data["result"]["records"]
                if r["kind"] == "Ass"] == [["x", "y"], ["x", "z"], ["y", "z"],
                                           ["x", "y", "z"]]

    def test_gamma_tower(self, capsys):
        code, out, _ = run(capsys, "gamma", "--ring", "F_2[x,y]",
                           "--roots", "(root(4,x), y)", "--levels", "2")
        assert code == 0
        assert "J_1 = (x, y^2)" in out
        assert "verified: True" in out

    def test_member_inf(self, capsys):
        code, out, _ = run(capsys, "member-inf", "--ring",
                           "F_3[x,y,z]/(x^3 - y*z^3)", "--poly", "x",
                           "--ideal", "(z)", "--emax", "3")
        assert code == 0 and "True" in out

    def test_prime_check(self, capsys):
        code, out, _ = run(capsys, "prime-check", "--ring", "F_2[x,y]",
                           "--ideal", "(x)", "--levels", "3")
        assert code == 0
        assert "overall: pass" in out

    def test_matrix_module_input(self, capsys):
        code, out, _ = run(capsys, "depth", "--ring", "F_2[x,y]",
                           "--matrix", "[x, 0; 0, x^2]")
        assert code == 0 and "depth at origin: 1" in out

    def test_fseq_list_family(self, capsys):
        code, out, _ = run(capsys, "fseq-verify", "--ring", "F_2[x,y]",
                           "--family", "list", "--terms",
                           "(x, y);(x, y^2);(x, y^4)")
        assert code == 0 and "verified" in out

    def test_fseq_radical(self, capsys):
        code, out, _ = run(capsys, "fseq-radical", "--ring", "F_2[x,y]",
                           "--family", "bracket", "--ideal", "(x,y)",
                           "--levels", "3", "--json")
        data = json.loads(out)
        assert sorted(data["result"]["radical"]) == ["x", "y"]


# Handlers no other test runs to exit 0.  `budget_used` is part of the
# byte-identical --json contract, so a change that moves it shows here.
PINNED = [
    (("colon", "--ring", "F_2[x,y,z]", "--ideal", "(x*y, x*z)", "--by", "(x)"),
     {"basis": ["z", "y"]}, 4),
    (("frobpre", "--ring", "F_2[x,y,z]", "--ideal",
      "(x^2 + y^2*z, y*z^2 + x^3)", "--e", "1"),
     {"basis": ["y^2*z + x^2", "x^2*y + x*z", "x^3 + y*z^2"]}, 42),
    (("reg-check", "--ring", "F_2[x,y,z]", "--ideal", "(x*y, x*z)",
      "--elements", "(y+z)"),
     {"per_e_regular": [False] * 5}, 66),
    (("kdepth-profile", "--ring", "F_2[x,y,z]", "--ideal", "(x*y, x*z)",
      "--emax", "2"),
     {"stable": True, "stable_kgrade": 1, "stabilization": "theorem",
      "profiles": [{"e": e, "kgrade": 1, "nonzero_homology": [0, 1, 2]}
                   for e in range(3)]}, 65),
    (("cdepth-lb", "--ring", "F_2[x,y,z,w]", "--ideal", "(x*y, z*w)",
      "--emax", "2"),
     {"bound": 2, "exhaustive": True, "seed": 0, "witness": ["z + w", "x + y"]},
     196),
    (("ass", "--ring", "F_2[x,y]", "--ideal", "(x*y, x^2)", "--point", "0,0"),
     {"maximal_associated": True}, 10),
    (("fseq-verify", "--ring", "F_2[x,y]", "--family", "constant", "--ideal",
      "(x*y + y^2)", "--levels", "2"),
     {"first_failing_index": None, "ok": True}, 18),
]


@pytest.mark.parametrize("argv, result, budget", PINNED,
                         ids=[case[0][0] for case in PINNED])
def test_pinned_json(capsys, argv, result, budget):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == result
    assert data["budget_used"] == budget
    assert data["unresolved_reasons"] == []


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "gb", "--ring", "F_4[x]", "--ideal", "(x)")
        assert code == 2
        assert "not prime" in err

    def test_budget_exceeded_is_three(self, capsys):
        code, _, err = run(capsys, "gb", "--ring", "F_2[x,y,z]",
                           "--ideal", "(x^2*y + z, y^2*z + x, x*z^2 + y)",
                           "--budget", "3")
        assert code == 3
        assert "budget" in err

    def test_success_is_zero(self, capsys):
        code, _, _ = run(capsys, "gb", "--ring", "F_2[x]", "--ideal", "(x)")
        assert code == 0

    def test_exponent_overflow_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "frobpow", "--ring", "F_2[x,y]",
                             "--ideal", "(x*y)", "--e", "70")
        assert code == 5
        assert out == "" and err.startswith("input error:")
        assert "Traceback" not in err

    def test_huge_frobenius_level_is_an_input_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "frobpow", "--ring", "F_2[x,y]",
                             "--ideal", "(x)", "--e", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 5 and out == ""
        assert "input error: exponent 1*2^1000000000 exceeds guard" in err

    def test_prime_check_over_a_quotient_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "prime-check", "--ring", "F_2[x,y]/(1)",
                             "--ideal", "(x)")
        assert code == 5 and out == ""
        assert "input error: prime_extension_check runs over the free ring" \
            in err

    def test_vanishing_module_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "depth", "--ring", "F_2[x,y]",
                           "--ideal", "(1)")
        assert code == 5
        assert "input error: module vanishes at the origin" in err

    def test_fedder_off_the_variety_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "fedder", "--ring", "F_2[x,y]/(x-1)")
        assert code == 5
        assert out == "" and err.startswith("input error:")
        assert "not on V(I)" in err

    def test_fedder_max_ideal_must_be_a_point(self, capsys):
        for m in ("(x*y)", "(1)"):
            code, out, err = run(capsys, "fedder", "--ring", "F_2[x,y]/(x*y)",
                                 "--max-ideal", m)
            assert code == 5, m
            assert out == "" and "rational point" in err, m
        code, out, _ = run(capsys, "fedder", "--ring", "F_2[x,y]/(x*y)",
                           "--max-ideal", "(x, y)")
        assert code == 0 and out.startswith("F-pure")

    def test_negative_emax_is_a_parse_error(self, capsys):
        for command in ("closure", "closed", "fseq-radical", "sdepth",
                        "reg-check", "cdepth-lb", "kdepth-profile",
                        "member-inf"):
            code, _, err = run(capsys, command, "--emax", "-1")
            assert code == 2, command
            assert "--emax: must be >= 0" in err, command

    def test_negative_levels_is_a_parse_error(self, capsys):
        for command in ("fseq-verify", "fseq-radical", "ass-union"):
            code, out, err = run(capsys, command, "--ring", "F_2[x,y]",
                                 "--ideal", "(x)", "--levels", "-1")
            assert code == 2 and out == "", command
            assert "--levels: must be >= 0" in err, command
        code, _, err = run(capsys, "gamma", "--ring", "F_2[x,y]",
                           "--roots", "(x)", "--levels", "-1")
        assert code == 2 and "--levels: must be >= 0" in err

    def test_negative_lift_cap_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, "gamma", "--ring", "F_2[x,y]",
                           "--roots", "(x)", "--lift-cap", "-1")
        assert code == 2 and "--lift-cap: must be >= 0" in err

    def test_negative_block_size_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "gb", "--ring", "F_2[x,y]", "--ideal",
                             "(x, y)", "--order", "block:-1")
        assert code == 2 and out == ""
        assert "block size must be >= 0" in err

    def test_prime_check_needs_a_level(self, capsys):
        for levels in ("0", "-1"):
            code, out, err = run(capsys, "prime-check", "--ring", "F_2[x,y]",
                                 "--ideal", "(x)", "--levels", levels)
            assert code == 2 and out == "", levels
            assert "--levels: must be >= 1" in err, levels

    def test_window_below_one_is_a_parse_error(self, capsys):
        for window in ("0", "-3"):
            code, _, err = run(capsys, "sdepth", "--ring", "F_2[x,y]",
                               "--ideal", "(x)", "--window", window)
            assert code == 2, window
            assert "--window: must be >= 1" in err, window

    def test_negative_e_is_a_parse_error(self, capsys):
        for command in ("frobpow", "frobpre"):
            code, out, err = run(capsys, command, "--ring", "F_2[x,y]",
                                 "--ideal", "(x)", "--e", "-1")
            assert code == 2 and out == "", command
            assert "--e: must be >= 0" in err, command

    def test_budget_below_one_is_a_parse_error(self, capsys):
        for budget in ("0", "-1"):
            code, out, err = run(capsys, "gb", "--ring", "F_2[x,y]",
                                 "--ideal", "(x)", "--budget", budget)
            assert code == 2 and out == "", budget
            assert "--budget: must be >= 1" in err, budget

    def test_negative_count_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "verify", "oracles", "--count", "-1")
        assert code == 2 and out == ""
        assert "--count: must be >= 0" in err

    def test_non_integer_option_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, "sdepth", "--ring", "F_2[x,y]",
                           "--ideal", "(x)", "--window", "two")
        assert code == 2 and "invalid int value: 'two'" in err

    def test_zero_module_search_is_an_input_error(self, capsys):
        for ring in ("F_2[x,y]", "F_2[x,y]/(x + 1)"):
            code, out, err = run(capsys, "cdepth-lb", "--ring", ring,
                                 "--ideal", "(1)")
            assert code == 5 and out == "", ring
            assert "input error: module vanishes at the origin" in err, ring

    def test_local_vanishing_is_an_input_error(self, capsys):
        # (x + 1) is a unit at the origin, so M_m = 0 though M != 0
        for command, ideal in (("kdepth-profile", "(x + 1)"),
                               ("kdepth-profile", "(1)"),
                               ("cdepth-lb", "(x + 1)")):
            code, out, err = run(capsys, command, "--ring", "F_2[x,y]",
                                 "--ideal", ideal)
            assert code == 5 and out == "", (command, ideal)
            assert "input error: module vanishes at the origin" in err, \
                (command, ideal)

    @pytest.mark.parametrize("budget", ["5", "20"])
    def test_local_vanishing_is_rejected_before_any_budget_step(
            self, capsys, budget):
        for command, ring in (("depth", "F_2[x,y]"),
                              ("kdepth-profile", "F_2[x,y]"),
                              ("sdepth", "F_2[x,y]/(x*y)"),
                              ("cdepth-lb", "F_2[x,y]")):
            code, out, err = run(capsys, command, "--ring", ring, "--ideal",
                                 "(x + 1)", "--budget", budget)
            assert code == 5 and out == "", command
            assert "input error: module vanishes at the origin" in err, \
                command

    @pytest.mark.parametrize("family", ["bracket", "constant"])
    @pytest.mark.parametrize("command", ["fseq-verify", "fseq-radical",
                                         "ass-union"])
    def test_chain_without_ideal_is_a_parse_error(self, capsys, command,
                                                   family):
        code, out, err = run(capsys, command, "--ring", "F_2[x,y]",
                             "--family", family)
        assert code == 2 and out == ""
        assert f"parse error: --family {family} needs --ideal" in err

    def test_unknown_suite_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "verify", "bogus")
        assert code == 2 and out == ""
        assert err.startswith("parse error: unknown suite 'bogus'")

    def test_unknown_order_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, "gb", "--ring", "F_2[x]", "--ideal", "(x)",
                           "--order", "revlex")
        assert code == 2
        assert "unknown monomial order" in err


# Inputs that used to be split by hand: empty items were dropped and bare
# lists accepted.  Each is now a parse error at its place in the whole text.
MALFORMED = [
    ("depth", "--matrix", "[x;]", 3),
    ("depth", "--matrix", "[x,]", 3),
    ("depth", "--matrix", "[x;;y]", 3),
    ("depth", "--matrix", "[x, y; x]", 8),
    ("depth", "--matrix", "x, y; y, x", 0),
    ("gamma", "--roots", "root(1,x),,y", 0),
    ("gamma", "--roots", "(root(1,x),,y)", 11),
    ("gamma", "--roots", "(root(1,x),", 11),
    ("gamma", "--roots", "root(1,x), y", 0),
    ("fseq-verify", "--terms", "(x);;(x)", 4),
    ("fseq-verify", "--terms", "(x);", 4),
    ("ass", "--point", "0,0,", 4),
    ("ass", "--point", "0,,1", 2),
    ("ass", "--point", "0,x", 2),
    ("ass", "--point", "1-", 1),
]


@pytest.mark.parametrize("command, flag, text, pos", MALFORMED,
                         ids=[case[2] for case in MALFORMED])
def test_malformed_lists_are_parse_errors(capsys, command, flag, text, pos):
    required = {"--terms": ("--family", "list"),
                "--point": ("--ideal", "(x)")}.get(flag, ())
    code, out, err = run(capsys, command, "--ring", "F_2[x,y]", *required,
                         flag, text)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ")
    assert err.endswith(f" at position {pos}: {text!r}\n")


def test_ungraded_regularity_is_tested_at_the_origin(capsys, depth_repro):
    base = ("--ring", "F_2[x,y,z]", "--ideal", depth_repro, "--json")
    code, out, _ = run(capsys, "cdepth-lb", *base, "--emax", "0")
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["bound"], result["exhaustive"], result["witness"]) \
        == (1, True, ["z"])
    code, out, _ = run(capsys, "reg-check", *base, "--elements", "(z)",
                       "--emax", "1")
    assert json.loads(out)["result"] == {"per_e_regular": [True, True]}


def test_depth_zero_stop_skips_the_quadratic_pool(capsys, monkeypatch):
    # depth 0 at the origin in dimension 1, so the dim stop cannot fire; one
    # top Koszul group ends the search after the 7 linear forms, not 70
    tested = []
    original = depth_mod.is_regular_element
    monkeypatch.setattr(depth_mod, "is_regular_element",
                        lambda f, *a, **k: tested.append(f) or original(f, *a, **k))
    code, out, _ = run(capsys, "cdepth-lb", "--ring", "F_2[x,y,z]/(x*y, y*z)",
                       "--ideal", "(x, y)", "--matrix", "[x, y; y, x]",
                       "--emax", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == {"bound": 0, "exhaustive": True, "seed": 0,
                              "witness": []}
    assert len(tested) <= 7 and all(f.degree() == 1 for f in tested)
    assert data["budget_used"] == 360


def test_depth_zero_stop_makes_a_sampled_pool_bound_sharp(capsys):
    # 5^6 quadratic forms exceed the exhaustive cap: the pool is sampled,
    # but (0 :_M m) != 0 shows that no form at all is regular
    code, out, _ = run(capsys, "cdepth-lb", "--ring", "F_5[x,y,z]", "--ideal",
                       "(x^2, x*y, x*z)", "--emax", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == {"bound": 0, "exhaustive": True, "seed": 0,
                              "witness": []}
    assert data["budget_used"] == 583


def test_pools_that_run_out_give_a_bound_that_is_not_sharp(capsys):
    # every linear and quadratic form over F_2 shares a factor with the
    # generator, so no stop fires; depth is 1 (x^3 + x^2*y + y^3 is regular)
    base = ("cdepth-lb", "--ring", "F_2[x,y]", "--ideal",
            "(x*y*(x+y)*(x^2+x*y+y^2))", "--emax", "0")
    code, out, _ = run(capsys, *base, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == {"bound": 0, "exhaustive": False, "seed": 0,
                              "witness": []}
    assert data["budget_used"] == 35
    code, out, _ = run(capsys, *base)
    assert code == 0 and "lower bound: 0 (not sharp)" in out


def test_unclosed_cross_check_resolution_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(depth_mod, "free_resolution",
                        lambda M, cap, budget: (None, None))
    code, _, err = run(capsys, "depth", "--ring", "F_2[x,y,z]", "--ideal",
                       "(x*y, x*z)")
    assert code == 4 and "internal invariant violation" in err


def test_point_takes_signed_integers(capsys):
    code, out, _ = run(capsys, "ass", "--ring", "F_3[x,y]", "--ideal",
                       "(x*y, x^2)", "--point=-3, 0", "--json")
    assert code == 0
    assert json.loads(out)["result"] == {"maximal_associated": True}


@pytest.mark.parametrize("argv, result", [
    (("ass", "--ring", "F_3[x,y]", "--ideal", "(x*y + y, x^2 + 2*x + 1)",
      "--point", "-1,0"), {"maximal_associated": True}),
    (("member-inf", "--ring", "F_2[x,y]", "--ideal", "(x)", "--poly", "-x"),
     {"member": True}),
], ids=["point", "poly"])
def test_option_values_may_start_with_a_dash(capsys, argv, result):
    # the value as its own argument, not only as --flag=value
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["result"] == result


def test_cli_import_leaves_verify_unloaded(subprocess_env):
    probe = "import sys, charp.cli; assert 'charp.verify' not in sys.modules"
    done = subprocess.run([sys.executable, "-c", probe], env=subprocess_env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# The exit code and --json `result` of a fixed list of calls: the README
# commands, each subcommand over a free and a quotient ring, module inputs
# by --matrix, each order, and exit-2, 3 and 5 cases.  `budget_used` is not
# kept here (test_pinned_json pins it); an entry changes only with a fix.
ANSWERS = pathlib.Path(__file__).parent / "data" / "cli_answers.json"


def test_answer_battery_replays(capsys):
    moved = []
    for case in json.loads(ANSWERS.read_text()):
        code, out, _ = run(capsys, *case["argv"], "--json")
        result = json.loads(out)["result"] if code == 0 else None
        if (code, result) != (case["exit"], case["result"]):
            moved.append((case["argv"], code, result))
    assert moved == []


class TestStructuredOutput:
    def test_stable_fields(self, capsys):
        _, out, _ = run(capsys, "closed", "--ring", "F_2[x,y]",
                        "--ideal", "(x^2)", "--json")
        data = json.loads(out)
        assert set(data) == {"command", "inputs", "result", "budget_used",
                             "unresolved_reasons"}

    def test_byte_identical_repeats(self, capsys):
        args = ("sdepth", "--ring", "F_2[x,y]", "--ideal", "(x*y)",
                "--emax", "2", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_unresolved_is_displayed(self, capsys):
        # a tower needing truncations past the cap reports unresolved
        code, out, _ = run(capsys, "gamma", "--ring", "F_2[x]",
                           "--roots", "(root(6,x))", "--levels", "2",
                           "--lift-cap", "3")
        assert code == 0
        assert "unresolved" in out


class TestVerifySuites:
    def test_examples_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "examples", "--count", "5")
        assert code == 0
        assert "fail=0" in out

    def test_alias_matches_canonical(self, capsys):
        code, out, _ = run(capsys, "verify", "paper-examples", "--count", "5",
                           "--json")
        assert code == 0
        assert json.loads(out)["suite"] == "examples"

    @pytest.mark.parametrize("argv", [
        ("oracles", "--seed", "7", "--count", "20"),
        ("invariants-random", "--count", "50"),
    ], ids=["oracles", "invariants-random"])
    def test_suite_passes_and_writes_its_json(self, capsys, tmp_path, argv):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", *argv, "--json", "--out",
                           str(path))
        assert code == 0
        assert json.loads(out)["summary"]["fail"] == 0
        assert path.read_text() == out

    @pytest.mark.parametrize("check_id", ["oracle/depth-triangle",
                                          "modgb/depth-plus-pd"])
    def test_unclosed_resolution_is_a_fail(self, monkeypatch, check_id):
        # graded free-ring resolutions close within n steps (Hilbert)
        monkeypatch.setattr(verify, "free_resolution",
                            lambda M, cap, budget: (None, None))
        (chk,) = [c for c in verify.CHECKS if c.check_id == check_id]
        status, detail = chk.fn(verify.Context(seed=7, count=5))
        assert status == verify.FAIL and "no resolution" in detail

    def test_invariant_violation_is_a_fail_line(self, capsys, monkeypatch):
        def broken(ctx):
            raise InternalInvariantError("engines disagree")

        checks = [verify.Check("broken", "raises", ("examples",), broken)]
        checks += verify.CHECKS
        monkeypatch.setattr(verify, "CHECKS", checks)
        total = sum(1 for c in checks if "examples" in c.suites)
        code, out, _ = run(capsys, "verify", "examples", "--count", "5")
        assert code == 1
        assert "[FAIL] broken: raises (engines disagree)" in out
        assert f"total={total} pass={total - 1} fail=1" in out


def test_readme_lists_every_command():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    assert sorted(block.split()) == sorted([*COMMANDS, "verify"])


# One pool of values per flag, valid and invalid alike; None is a bare flag.
FUZZ_POOLS = {
    "--ring": ["F_2[x,y]", "F_3[x,y,z]", "F_2[x,y,z]/(x*y)",
               "F_3[x,y]/(x^2 - y^3)", "F_2[x,y]/(x + 1)", "F_2[x,y]/(1)",
               "F_4[x,y]", "F_2[x,x]", "F_5[x,y]", "F_2[x,y,z]/(x*y, y*z)"],
    "--ideal": ["(x)", "(x*y, x^2)", "(x, y)", "(x^2 + y^2, x*y)", "(1)",
                "(0)", "(x + 1)", "(x*z, y)", "(x*y",
                "(x^3*y + y^2 + x, x*y^3 + x^2 + y)"],
    "--matrix": ["[x, 0; 0, x^2]", "[x, y; y, x]", "[x*y]", "[1, 0]",
                 "[x, y; x]"],
    "--by": ["(x)", "(y, x + y)", "(x*y, z)", "(1)", "(0)"],
    "--order": ["lex", "grevlex", "block:1", "revlex"],
    "--e": ["0", "1", "2", "70", "-1", "1000000000"],
    "--emax": ["0", "1", "2", "-1"],
    "--max-ideal": ["(x, y)", "(x - 1, y)", "(x*y)", "(1)"],
    "--family": ["bracket", "constant", "list"],
    "--levels": ["0", "1", "2", "-1"],
    "--terms": ["(x, y);(x, y^2)", "(x);(x^2);(x^4)", "(y);(x)", ""],
    "--point": ["0,0", "1,0", "0", "a,b", "-1,0"],
    "--no-cross-check": [None],
    "--window": ["1", "2", "0"],
    "--elements": ["(x)", "(x + y)", "(y, x)", "(1)", "(x^)"],
    "--seed": ["0", "3", "-2"],
    "--roots": ["(root(1,x), y)", "(root(2, x + y))", "(x)", "(root(1,x)",
                "(root(1000000000000, 1), y)"],
    "--lift-cap": ["0", "3", "-1"],
    "--poly": ["x", "x + y", "1", "x^", "-x"],
}


def _fuzz_argv(rng, name):
    """argv for one call of `name`: each flag, --ring included, is drawn
    with probability 0.9 from its pool, so required flags go missing too."""
    argv = [name]
    options = [("--ring", None)] + list(COMMANDS[name][2])
    for flag, _ in options:
        if rng.random() < 0.9:
            value = rng.choice(FUZZ_POOLS[flag])
            argv += [flag] if value is None else [flag, value]
    return argv + ["--budget", "3000"] + (["--json"] if rng.random() < 0.5
                                          else [])


def _json_result(capsys, *argv, budget="3000"):
    code, out, _ = run(capsys, *argv, "--budget", budget, "--json")
    return json.loads(out)["result"] if code == 0 else None


def test_fuzzed_calls_end_in_a_documented_exit_code(capsys, depth_repro):
    flags = {flag for _, _, options in COMMANDS.values()
             for flag, _ in options}
    assert flags | {"--ring"} <= set(FUZZ_POOLS), "a flag has no fuzz pool"
    rng = random.Random("cli-fuzz")
    names = sorted(COMMANDS)
    seen, codes = set(), set()
    for _ in range(400):
        argv = _fuzz_argv(rng, rng.choice(names))
        try:
            code = main(argv)
        except Exception as exc:  # report the input, not just the traceback
            pytest.fail(f"{argv} raised {exc!r}")
        capsys.readouterr()
        assert code in (0, 2, 3, 5), argv
        seen.add(argv[0])
        codes.add(code)
    assert seen == set(names) and {0, 2, 5} <= codes
    # closed agrees with closure, frobpre undoes frobpow up to containment,
    # and depth agrees with sdepth's level 0, cdepth-lb --emax 0 and gb;
    # the ungraded depth repro closes the seeded draws with a larger budget
    cases = [(rng.choice(FUZZ_POOLS["--ring"]),
              rng.choice(FUZZ_POOLS["--ideal"]), "3000") for _ in range(30)]
    agreed = closures = preimages = bounds = 0
    for ring, ideal, budget in cases + [("F_2[x,y,z]", depth_repro, "20000")]:
        base = ("--ring", ring, "--ideal", ideal)
        closed = _json_result(capsys, "closed", *base, budget=budget)
        closure = _json_result(capsys, "closure", *base, budget=budget)
        gb = _json_result(capsys, "gb", *base, budget=budget)
        if closed is not None and closure is not None and gb is not None:
            # an unresolved answer still means no growth up to e_max
            assert ((closure["closure"] == gb["basis"])
                    == (closed["closed"] is not False)), base
            closures += 1
        power = _json_result(capsys, "frobpow", *base, budget=budget)
        pre = None if power is None else _json_result(
            capsys, "frobpre", "--ring", ring,
            "--ideal", "(" + ", ".join(power["basis"]) + ")", budget=budget)
        if pre is not None:
            both = _json_result(capsys, "gb", "--ring", ring, "--ideal",
                                "(" + ", ".join(pre["basis"]) + ", "
                                + ideal[1:-1] + ")", budget=budget)
            assert both == {"basis": pre["basis"]}, base
            preimages += 1
        depth = _json_result(capsys, "depth", *base, budget=budget)
        if depth is None:
            continue
        depth = depth["depth"]
        sdepth = _json_result(capsys, "sdepth", *base, "--emax", "0",
                              budget=budget)
        if sdepth is not None:
            assert sdepth["per_e_depth"][0] == [0, depth], base
        bound = _json_result(capsys, "cdepth-lb", *base, "--emax", "0",
                             budget=budget)
        if bound is not None:
            # an exhaustive bound is sharp
            assert bound["bound"] <= depth, base
            assert bound["bound"] == depth or not bound["exhaustive"], base
            bounds += bound["exhaustive"]
        assert gb is not None, base
        again = _json_result(capsys, "gb", "--ring", ring, "--ideal",
                             "(" + ", ".join(gb["basis"]) + ")", budget=budget)
        assert again == gb, base
        agreed += 1
    assert agreed >= 5 and closures >= 5 and preimages >= 5 and bounds >= 5
