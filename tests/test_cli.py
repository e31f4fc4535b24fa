"""Command-line interface: dispatch, structured output, exit codes."""

import json

import pytest

from charp import verify
from charp.budget import InternalInvariantError
from charp.cli import main


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
     {"basis": ["z", "y"]}, 3),
    (("frobpre", "--ring", "F_2[x,y,z]", "--ideal",
      "(x^2 + y^2*z, y*z^2 + x^3)", "--e", "1"),
     {"basis": ["y^2*z + x^2", "x^2*y + x*z", "x^3 + y*z^2"]}, 81),
    (("reg-check", "--ring", "F_2[x,y,z]", "--ideal", "(x*y, x*z)",
      "--elements", "(y+z)"),
     {"per_e_regular": [False] * 5}, 56),
    (("kdepth-profile", "--ring", "F_2[x,y,z]", "--ideal", "(x*y, x*z)",
      "--emax", "2"),
     {"matches_sdepth": True, "sdepth": 1, "stable": True, "stable_kgrade": 1,
      "profiles": [{"e": e, "kgrade": 1, "nonzero_homology": [0, 1, 2]}
                   for e in range(3)]}, 234),
    (("cdepth-lb", "--ring", "F_2[x,y,z,w]", "--ideal", "(x*y, z*w)",
      "--emax", "2"),
     {"bound": 2, "exhaustive": True, "seed": 0, "witness": ["z + w", "x + y"]},
     332),
    (("ass", "--ring", "F_2[x,y]", "--ideal", "(x*y, x^2)", "--point", "0,0"),
     {"maximal_associated": True}, 7),
    (("fseq-verify", "--ring", "F_2[x,y]", "--family", "constant", "--ideal",
      "(x*y + y^2)", "--levels", "2"),
     {"first_failing_index": None, "ok": True}, 44),
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

    def test_unknown_order_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, "gb", "--ring", "F_2[x]", "--ideal", "(x)",
                           "--order", "revlex")
        assert code == 2
        assert "unknown monomial order" in err


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
