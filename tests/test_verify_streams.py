"""The randomized verify checks draw the same instances.

For every check of the `oracles` and `invariants-random` suites at two
(seed, count) settings, tests/data/verify_streams.json records its status
and the SHA-1 of `repr(rng.getstate())` of each random stream it opened,
read after the check ran.  A passing check reports no detail, so without
this record a changed draw would not show in any report.  An entry changes
only with a change to the draws that CHANGES.md names.

    PYTHONPATH=src python tests/test_verify_streams.py   rewrites the record
"""

import hashlib
import json
import pathlib

import pytest

from charp import verify

DATA = pathlib.Path(__file__).resolve().parent / "data" / "verify_streams.json"
SETTINGS = ((0, 5), (7, 20))
SUITES = ("oracles", "invariants-random")


def record(monkeypatch):
    """{"seed/count": {check id: {"status", "streams"}}} for SETTINGS."""
    opened = []
    real = verify.Context.rng

    def rng(ctx, salt=""):
        opened.append(real(ctx, salt))
        return opened[-1]

    monkeypatch.setattr(verify.Context, "rng", rng)
    out = {}
    for seed, count in SETTINGS:
        ctx = verify.Context(seed=seed, count=count)
        checks = out[f"{seed}/{count}"] = {}
        for chk in verify.CHECKS:
            if not set(SUITES) & set(chk.suites):
                continue
            opened.clear()
            status = verify.run_check(chk, ctx).status
            checks[chk.check_id] = {
                "status": status,
                "streams": [hashlib.sha1(repr(s.getstate()).encode()).hexdigest()
                            for s in opened]}
    return out


def test_verify_draws_match_the_record(monkeypatch):
    assert record(monkeypatch) == json.loads(DATA.read_text())


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        DATA.write_text(json.dumps(record(mp), indent=1) + "\n")
