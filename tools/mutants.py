"""Run the mutant catalogue: each entry against the tests that it names.

    python tools/mutants.py

Each entry of tests/data/mutants.json gives a file under src/, an `old`
text that occurs exactly once in it, the `new` text that replaces it, the
tests that should kill the mutant, and why.  For each entry the script
copies src/ into a temporary directory, applies the replacement there and
runs pytest on the named tests with that copy first on the path; the
working tree is not touched.  It prints one line per entry:

    killed             some named test failed
    killed (timeout)   the named tests did not finish in TIMEOUT seconds
    survived           every named test passed
    error (exit N)     pytest could not run the tests (a missing test id,
                       a collection error)

then a count, and exits 1 if any entry survived or errored.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "data" / "mutants.json"
TIMEOUT = 600


def run(entry):
    """The outcome of one catalogue entry, as printed."""
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = pathlib.Path(tmp) / entry["file"]
        text = target.read_text()
        if text.count(entry["old"]) != 1:
            return "error (old text does not occur exactly once)"
        target.write_text(text.replace(entry["old"], entry["new"]))
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x",
                "-p", "no:cacheprovider", "-o", f"pythonpath={src}",
                *entry["tests"]]
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env,
                                  capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
    return {0: "survived", 1: "killed"}.get(done.returncode,
                                           f"error (exit {done.returncode})")


def main():
    outcomes = []
    for entry in json.loads(CATALOGUE.read_text()):
        outcome = run(entry)
        outcomes.append(outcome)
        print(f"{entry['id']} ({entry['file']}): {outcome}", flush=True)
    killed = sum(o.startswith("killed") for o in outcomes)
    print(f"{killed} of {len(outcomes)} mutants killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
