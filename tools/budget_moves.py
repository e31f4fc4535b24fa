"""Print the CLI answers and budgets that moved against a git revision.

    python tools/budget_moves.py [REVISION]      (default: HEAD)

Replays every call of tests/data/cli_answers.json and every `charp`
command of the README with `--json`, in this process through
`charp.cli.main`: once on the source of the working tree and once on
REVISION, checked out with `git worktree add --detach` into a temporary
directory that is removed afterwards.  Prints one line for each call whose
exit code, result or `budget_used` differs, then a count.  Exits 0 whatever
moved; the battery test in tests/test_cli.py is the gate for answers.
"""

import contextlib
import io
import json
import pathlib
import shlex
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def calls():
    """The argv of every battery call and README command, with --json."""
    battery = json.loads((ROOT / "tests/data/cli_answers.json").read_text())
    out = [case["argv"] for case in battery]
    in_sh = False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("charp "):
            out.append(shlex.split(line, comments=True)[1:])
    return [argv if "--json" in argv else argv + ["--json"] for argv in out]


def replay(src, argvs):
    """(exit code, result, budget_used) per call, charp imported from src.
    A payload without a `result` field (the verify suites) counts whole as
    the result."""
    sys.path.insert(0, str(src))
    try:
        from charp.cli import main
        answers = []
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
            try:
                payload = json.loads(out.getvalue())
            except ValueError:
                payload = {}
            answers.append((code, payload.get("result", payload),
                            payload.get("budget_used")))
        return answers
    finally:
        sys.path.remove(str(src))
        for name in [n for n in sys.modules
                     if n == "charp" or n.startswith("charp.")]:
            del sys.modules[name]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    revision = argv[0] if argv else "HEAD"
    argvs = calls()
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                        "--quiet", str(tree), revision], check=True)
        try:
            before = replay(tree / "src", argvs)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(tree)], check=True)
    after = replay(ROOT / "src", argvs)
    moves = 0
    for call, old, new in zip(argvs, before, after):
        for name, a, b in zip(("exit", "result", "budget_used"), old, new):
            if a != b:
                moves += 1
                if name == "result":
                    a, b = json.dumps(a, sort_keys=True), json.dumps(
                        b, sort_keys=True)
                print(f"{shlex.join(['charp'] + call)}: {name} {a} -> {b}")
    print(f"{moves} moves in {len(argvs)} calls against {revision}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
