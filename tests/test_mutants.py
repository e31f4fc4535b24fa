"""The mutant catalogue stays applicable.  Running the mutants is
`python tools/mutants.py`, which stays out of this suite; here each
entry's old text must occur exactly once in its file."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
CATALOGUE = json.loads((ROOT / "tests/data/mutants.json").read_text())


@pytest.mark.parametrize("entry", CATALOGUE, ids=lambda entry: entry["id"])
def test_old_text_occurs_exactly_once(entry):
    assert entry["old"] != entry["new"]
    assert (ROOT / entry["file"]).read_text().count(entry["old"]) == 1
