"""Command-line front end.

Each subcommand declares its options once, beside its handler, through the
`@command` decorator that fills `COMMANDS`; every one also takes --ring,
which `main` parses once.  `verify` keeps its own parser and takes no ring.

Every subcommand prints a human-readable report, or with --json a single
structured object {command, inputs, result, budget_used, unresolved_reasons}
with stable field names and sorted keys, so identical requests produce
byte-identical output.

Exit codes: 0 success (unresolved states are reported, never hidden),
2 parse error (bad syntax, unknown flags or option values such as a
negative --emax, --levels, --lift-cap or --count, a --window or
prime-check --levels below 1, or an unknown verify suite), 3 budget
exceeded (partial report), 4 internal invariant violation, 5 input error
(the input parses but lies outside the command's domain, e.g. a module
that vanishes at the origin or a Frobenius power whose exponents pass the
overflow guard).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .assoc import ass_monomial, maximal_in_ass, union_ass_fseq
from .budget import Budget, BudgetExceeded, InternalInvariantError, Unresolved
from .depth import (WINDOW, cdepth_lower_bound, depth_at_origin,
                    kdepth_truncation_profile, regular_sequence_check,
                    sdepth)
from .frobenius import (FSequence, fedder_f_pure, frobenius_closure,
                        frobenius_power, frobenius_preimage,
                        fseq_radical_stabilize, fseq_verify,
                        is_frobenius_closed)
from .groebner import Ideal, colon_ideal, groebner_basis
from .modules import ModulePresentation
from .parse import (ParseError, parse_matrix, parse_point, parse_poly,
                    parse_poly_list, parse_ring, parse_roots, parse_terms)
from .perfclosure import (PerfectClosureIdeal, extended_ideal_membership,
                          gamma_fseq, prime_extension_check)
from .ring import ExponentOverflow, order_from_name

DEFAULTS = {"e_max": 4, "window": WINDOW, "lift_cap": 6,
            "budget": 10 ** 6, "seed": 0}


def _int_at_least(low):
    """An argparse type: an integer >= low, else a parse error."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names the type when int() fails
    return parse


_nonnegative_int = _int_at_least(0)
_positive_int = _int_at_least(1)


def _basis_list(basis):
    return [str(g) for g in basis] or ["0"]


def _ideal_arg(ns, ring):
    return Ideal.parse(ring, ns.ideal)


def _module_arg(ns, ring):
    if ns.matrix:
        rows = parse_matrix(ns.matrix, ring.free())
        return ModulePresentation(ring, len(rows), list(zip(*rows)))
    if ns.ideal:
        return ModulePresentation.cyclic(ring, _ideal_arg(ns, ring).gens)
    raise ParseError("need --ideal or --matrix", "", 0)


def _fseq_arg(ns, ring):
    if ns.family == "list":
        if not ns.terms:
            raise ParseError("--family list needs --terms", "", 0)
        return FSequence.explicit(ring, [
            Ideal(ring, gens) for gens in parse_terms(ns.terms, ring.free())])
    if ns.ideal is None:
        raise ParseError(f"--family {ns.family} needs --ideal", "", 0)
    chain = (FSequence.bracket_chain if ns.family == "bracket"
             else FSequence.constant_chain)
    return chain(_ideal_arg(ns, ring), ns.levels)


# ---------------------------------------------------------------------------
# the command table; each handler returns (result, human lines, unresolved)

COMMANDS = {}


def command(name, help, *options):
    """Register handler(ns, ring, budget) under `name`, with its options."""
    def wrap(fn):
        COMMANDS[name] = (fn, help, options)
        return fn
    return wrap


def _opt(flag, **kwargs):
    return flag, kwargs


IDEAL = _opt("--ideal", required=True, help="ideal text, e.g. (x, y^2)")
E = _opt("--e", type=_nonnegative_int, default=1)
EMAX = _opt("--emax", type=_nonnegative_int, default=DEFAULTS["e_max"])
MODULE = (_opt("--ideal", help="cyclic module R/I"),
          _opt("--matrix", help="presentation matrix '[a, b; c, d]'"))
FSEQ = (_opt("--family", choices=("bracket", "constant", "list"),
             default="bracket"),
        _opt("--ideal", help="base ideal for bracket/constant families"),
        _opt("--levels", type=_nonnegative_int, default=DEFAULTS["e_max"]),
        _opt("--terms",
             help="explicit terms '(..);(..);..' for --family list"))


@command("gb", "reduced Groebner basis",
         IDEAL, _opt("--order", help="lex | grevlex | block:k"))
def _cmd_gb(ns, ring, budget):
    I = _ideal_arg(ns, ring)
    order = None
    if ns.order:
        try:
            order = order_from_name(ns.order)
        except ValueError as exc:
            raise ParseError(str(exc), ns.order, 0) from None
    out = _basis_list(groebner_basis(I, order, budget))
    return {"basis": out}, ["basis: (" + ", ".join(out) + ")"], []


@command("colon", "ideal quotient (I : J)",
         IDEAL, _opt("--by", required=True, help="the divisor ideal J"))
def _cmd_colon(ns, ring, budget):
    C = colon_ideal(_ideal_arg(ns, ring), Ideal.parse(ring, ns.by), budget)
    out = _basis_list(C.groebner_basis(budget))
    return {"basis": out}, ["colon: (" + ", ".join(out) + ")"], []


@command("frobpow", "bracket power J^[p^e]", IDEAL, E)
def _cmd_frobpow(ns, ring, budget):
    P = frobenius_power(_ideal_arg(ns, ring), ns.e)
    gens = [str(g) for g in P.gens] or ["0"]
    out = _basis_list(P.groebner_basis(budget))
    return ({"generators": gens, "basis": out},
            ["bracket power: (" + ", ".join(gens) + ")"], [])


@command("frobpre", "preimage under the e-th Frobenius", IDEAL, E)
def _cmd_frobpre(ns, ring, budget):
    P = frobenius_preimage(_ideal_arg(ns, ring), ns.e, budget)
    out = _basis_list(P.groebner_basis(budget))
    return {"basis": out}, ["preimage: (" + ", ".join(out) + ")"], []


@command("closure", "Frobenius closure", IDEAL, EMAX)
def _cmd_closure(ns, ring, budget):
    res = frobenius_closure(_ideal_arg(ns, ring), ns.emax, budget)
    out = _basis_list(res.closure.groebner_basis(budget))
    stab = res.stabilized_at if res.stabilized_at is not None else "unresolved"
    lines = [f"closure: (" + ", ".join(out) + ")",
             f"stabilized_at: {stab} (heuristic: {res.heuristic})"]
    unresolved = ([f"closure chain still ascending at e_max={ns.emax}"]
                  if res.unresolved else [])
    return ({"closure": out, "stabilized_at": stab,
             "chain": [_basis_list(c.groebner_basis(budget))
                       for c in res.chain]},
            lines, unresolved)


@command("closed", "is the ideal Frobenius closed?", IDEAL, EMAX)
def _cmd_closed(ns, ring, budget):
    ans = is_frobenius_closed(_ideal_arg(ns, ring), ns.emax, budget)
    val = "unresolved" if ans is None else ans
    unresolved = ["closedness undecided within e_max"] if ans is None else []
    return {"closed": val}, [f"frobenius closed: {val}"], unresolved


@command("fedder", "F-purity of a quotient ring",
         _opt("--max-ideal",
              help="maximal ideal generators (default: variables)"))
def _cmd_fedder(ns, ring, budget):
    m = Ideal.parse(ring.free(), ns.max_ideal) if ns.max_ideal else None
    rep = fedder_f_pure(ring, m, budget)
    colon = _basis_list(rep.colon.groebner_basis(budget))
    lines = [("F-pure" if rep.is_f_pure else "not F-pure") + f" (tested at q = {rep.q})"]
    if rep.witness is not None:
        lines.append(f"witness: {rep.witness}")
    return ({"f_pure": rep.is_f_pure,
             "witness": str(rep.witness) if rep.witness is not None else None,
             "q": rep.q, "colon": colon}, lines, [])


@command("fseq-verify", "check the defining property", *FSEQ)
def _cmd_fseq_verify(ns, ring, budget):
    ok, idx = fseq_verify(_fseq_arg(ns, ring), budget)
    lines = ["f-sequence: verified" if ok else f"f-sequence: FAILS at index {idx}"]
    return {"ok": ok, "first_failing_index": idx}, lines, []


@command("fseq-radical", "stable radical of the chain",
         *FSEQ, _opt("--emax", type=_nonnegative_int, default=8))
def _cmd_fseq_radical(ns, ring, budget):
    seq = _fseq_arg(ns, ring)
    try:
        rad = fseq_radical_stabilize(seq, ns.emax, budget)
    except Unresolved as exc:
        partial = (_basis_list(exc.partial.groebner_basis(budget))
                   if exc.partial is not None else None)
        return ({"radical": "unresolved", "partial": partial},
                ["radical: unresolved"], [str(exc)])
    out = _basis_list(rad.groebner_basis(budget))
    return {"radical": out}, ["radical: (" + ", ".join(out) + ")"], []


@command("ass-union", "union of Ass along the chain", *FSEQ)
def _cmd_ass_union(ns, ring, budget):
    recs = union_ass_fseq(_fseq_arg(ns, ring), budget)
    out = [{"prime": list(r.variables), "kind": r.kind, "side": r.side,
            "first_seen": r.first_seen} for r in recs]
    lines = [f"{str(r)} first_seen={r.first_seen}" for r in recs]
    return {"records": out}, lines, []


@command("ass", "associated primes (monomial) or depth-zero point test",
         IDEAL, _opt("--point",
                     help="comma-separated coordinates of a rational point"))
def _cmd_ass(ns, ring, budget):
    I = _ideal_arg(ns, ring)
    if ns.point:
        point = parse_point(ns.point)
        ans = maximal_in_ass(I, point, budget)
        return ({"maximal_associated": ans},
                [f"maximal ideal at {point} associated: {ans}"], [])
    recs = ass_monomial(I, budget)
    out = [{"prime": list(r.variables), "witness": str(r.witness)}
           for r in recs]
    lines = ["Ass: " + ", ".join(
        "(" + (", ".join(r.variables) or "0") + ")" for r in recs)]
    return {"primes": out}, lines, []


@command("depth", "depth at the origin",
         *MODULE, _opt("--no-cross-check", action="store_true"))
def _cmd_depth(ns, ring, budget):
    M = _module_arg(ns, ring)
    d = depth_at_origin(M, cross_check=not ns.no_cross_check, budget=budget)
    return {"depth": d}, [f"depth at origin: {d}"], []


@command("sdepth", "stabilizing depth", *MODULE, EMAX,
         _opt("--window", type=_positive_int, default=DEFAULTS["window"]))
def _cmd_sdepth(ns, ring, budget):
    M = _module_arg(ns, ring)
    rep = sdepth(M, ns.emax, ns.window, budget=budget)
    val = rep.stabilized_value if rep.stabilized_value is not None else "unresolved"
    lines = [f"per-e depth: {[d for _, d in rep.per_e_depth]}",
             f"sdepth: {val} ({rep.stabilization}, window={rep.window})"]
    unresolved = ["sdepth window not reached"] if rep.unresolved else []
    return ({"per_e_depth": [[e, d] for e, d in rep.per_e_depth],
             "sdepth": val, "window": rep.window, "f_pure": rep.f_pure,
             "stabilization": rep.stabilization}, lines, unresolved)


@command("reg-check", "per-level regular-sequence check", *MODULE, EMAX,
         _opt("--elements", required=True,
              help="sequence to test, e.g. (x+y+z)"))
def _cmd_reg_check(ns, ring, budget):
    M = _module_arg(ns, ring)
    xs = parse_poly_list(ns.elements, ring.free())
    flags = regular_sequence_check(xs, M, range(ns.emax + 1), budget)
    return ({"per_e_regular": flags},
            [f"regular at e=0..{ns.emax}: {flags}"], [])


@command("cdepth-lb", "all-level regular-sequence bound", *MODULE, EMAX,
         _opt("--seed", type=int, default=DEFAULTS["seed"]))
def _cmd_cdepth_lb(ns, ring, budget):
    M = _module_arg(ns, ring)
    rep = cdepth_lower_bound(M, ns.emax, seed=ns.seed, budget=budget)
    lines = [f"lower bound: {rep.bound} "
             f"({'exhaustive' if rep.exhaustive else 'not sharp'})",
             "witness: (" + ", ".join(str(w) for w in rep.witness) + ")"]
    return ({"bound": rep.bound, "witness": [str(w) for w in rep.witness],
             "exhaustive": rep.exhaustive, "seed": rep.seed}, lines, [])


@command("kdepth-profile", "Koszul profiles per level", *MODULE, EMAX)
def _cmd_kdepth_profile(ns, ring, budget):
    M = _module_arg(ns, ring)
    rep = kdepth_truncation_profile(M, ns.emax, budget=budget)
    profs = [{"e": e, "nonzero_homology": sorted(p.nonzero_homology),
              "kgrade": p.kgrade} for e, p in enumerate(rep.profiles)]
    lines = [f"e={pr['e']}: H nonzero at {pr['nonzero_homology']} "
             f"(kgrade {pr['kgrade']})" for pr in profs]
    stable = rep.stable_kgrade if rep.stable_kgrade is not None else "unresolved"
    lines.append(f"stable kgrade: {stable} ({rep.stabilization})")
    unresolved = ["profile pattern not stable"] if not rep.stable else []
    return ({"profiles": profs, "stable": rep.stable, "stable_kgrade": stable,
             "stabilization": rep.stabilization}, lines, unresolved)


@command("gamma", "contraction chain of a root-generated ideal",
         _opt("--roots", required=True,
              help="root generators '(root(1,x), y)'"),
         _opt("--levels", type=_nonnegative_int, default=3),
         _opt("--lift-cap", type=_nonnegative_int,
              default=DEFAULTS["lift_cap"]))
def _cmd_gamma(ns, ring, budget):
    J = PerfectClosureIdeal(ring, parse_roots(ns.roots, ring))
    try:
        rep = gamma_fseq(J, ns.levels, ns.lift_cap, budget)
    except Unresolved as exc:
        return ({"terms": "unresolved"}, ["gamma: unresolved"], [str(exc)])
    terms = [_basis_list(t.groebner_basis(budget)) for t in rep.sequence.terms]
    lines = [f"J_{e} = (" + ", ".join(t) + ")" for e, t in enumerate(terms)]
    lines.append(f"f-sequence verified: {rep.verified}")
    return ({"terms": terms, "verified": rep.verified,
             "levels_used": list(rep.levels_used)}, lines, [])


@command("member-inf", "membership in the extension-contraction of an ideal",
         _opt("--poly", required=True), IDEAL, EMAX)
def _cmd_member_inf(ns, ring, budget):
    f = parse_poly(ns.poly, ring.free())
    ans = extended_ideal_membership(f, _ideal_arg(ns, ring), ns.emax, budget)
    val = "unresolved" if ans is None else ans
    unresolved = ["membership undecided within e_max"] if ans is None else []
    return {"member": val}, [f"member of the extension-contraction: {val}"], unresolved


@command("prime-check", "spectrum homeomorphism evidence for a prime",
         IDEAL, _opt("--levels", type=_positive_int, default=3))
def _cmd_prime_check(ns, ring, budget):
    P = _ideal_arg(ns, ring)
    rep = prime_extension_check(P, ns.levels, budget)
    levels = [{"level": rec.level, "radical_ok": rec.radical_ok,
               "contraction_ok": rec.contraction_ok, "order_ok": rec.order_ok,
               "passed": rec.passed} for rec in rep.levels]
    lines = [f"level {rec['level']}: "
             f"{'pass' if rec['passed'] else 'FAIL'}" for rec in levels]
    lines.append(f"overall: {'pass' if rep.passed else 'FAIL'}")
    return {"levels": levels, "passed": rep.passed}, lines, []


@cache
def _build_parser():
    """The argparse tree of every command, built once per process: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="charp",
        description="exact characteristic-p commutative algebra")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="structured output with stable field names")
    common.add_argument("--budget", type=_positive_int,
                        default=DEFAULTS["budget"],
                        help="reduction-step budget")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, options) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("--ring", required=True,
                       help="ring text, e.g. F_2[x,y]/(x*y)")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    p = sub.add_parser("verify", parents=[common],
                       help="run a named verification suite")
    p.add_argument("suite", help="examples | oracles | invariants-random")
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("--count", type=_nonnegative_int, default=20)
    p.add_argument("--out", help="write the JSON report to this path")
    return parser


def _inputs_dict(ns):
    skip = {"command", "json", "budget", "func"}
    return {k: v for k, v in sorted(vars(ns).items())
            if k not in skip and v is not None}


def _attach_dash_values(argv):
    """Write `--flag -x` as `--flag=-x`.  argparse reads an argument that
    starts with '-' and is no negative number as an option, but every
    charp option except -h starts with '--', so such an argument after an
    option is that option's value (`ass --point -1,0`, `--poly -x`)."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and arg.startswith("-") and not arg.startswith("--")
                and arg != "-h"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        ns = parser.parse_args(_attach_dash_values(argv))
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the parse-error contract
        return int(exc.code or 0)

    if ns.command == "verify":
        from .verify import run_suite, suite_name   # only verify needs it
        try:
            suite = suite_name(ns.suite)
        except ValueError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        report = run_suite(suite, seed=ns.seed, count=ns.count,
                           budget_limit=ns.budget)
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if ns.out:
            with open(ns.out, "w") as fh:
                fh.write(payload + "\n")
        print(payload if ns.json else report.render_text())
        return report.exit_code

    budget = Budget(ns.budget)
    handler = COMMANDS[ns.command][0]
    try:
        result, lines, unresolved = handler(ns, parse_ring(ns.ring), budget)
    except (ParseError, KeyError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        partial = {"command": ns.command, "inputs": _inputs_dict(ns),
                   "result": None, "budget_used": exc.used,
                   "unresolved_reasons": ["budget exceeded"]}
        print(json.dumps(partial, indent=2, sort_keys=True) if ns.json
              else f"budget exceeded after {exc.used} reduction steps",
              file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ExponentOverflow) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 5

    if ns.json:
        out = {"command": ns.command, "inputs": _inputs_dict(ns),
               "result": result, "budget_used": budget.used,
               "unresolved_reasons": unresolved}
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
        for reason in unresolved:
            print(f"unresolved: {reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
