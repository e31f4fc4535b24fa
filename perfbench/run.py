"""Run one workload of the charp benchmark and print its metrics.

    python3 perfbench/run.py --workload ideal-gb --seed 1 --seconds 20
    python3 perfbench/run.py --workload all

Run from the root of a source checkout: charp is imported from `src/`, and
the run fails at once (exit 2) when that tree is missing.  One process, one
thread, closed loop: each instance is one call into charp's public API and
starts when the previous one returns.  The corpus repeats in whole passes
until `--seconds` have gone by and at least 100 instances ran, so the 90th
percentile has ten instances beyond it.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the corpus
untraced for half the time, then with the layer wrappers installed for the
other half, prints the per-layer metrics (per pass of the corpus) and writes
the spans to `.perfbench_out/`.

Every answer is checked after the timed region; later passes must repeat
the first pass exactly.  The last line of output is one JSON object; the
exit code is 1 when any answer failed, else 0.
"""

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
TAIL_PERCENTILE = 90
MIN_INSTANCES = 100

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "latency_p50_s": "s",
    "latency_tail_s": "s", "peak_rss_mib": "MiB",
    "pass_ratio": "1", "resolved_ratio": "1",
}


def load_sources():
    if not (SRC / "charp" / "__init__.py").is_file():
        print(f"perfbench: no charp sources at {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup(workload, seed):
    """Import charp afresh, parse the rings and build the seeded corpus."""
    from perfbench.corpus import WORKLOADS
    for name in [n for n in sys.modules
                 if n == "charp" or n.startswith("charp.")]:
        del sys.modules[name]
    t0 = perf_counter()
    api = importlib.import_module("charp")
    instances = WORKLOADS[workload](api, seed)
    return perf_counter() - t0, api, instances


class Tally:
    """Times, outcomes and first-pass answers of one run."""

    def __init__(self, instances):
        self.instances = instances
        self.times = {inst.id: [] for inst in instances}
        self.answers = {}        # id -> first-pass answer
        self.digests = {}        # id -> digest of the first-pass answer
        # (id, "ok" | "unresolved" | "error" | "drift") per execution
        self.outcomes = []
        self.errors = {}         # id -> first error or drift message

    def record(self, inst, seconds, outcome, answer):
        self.times[inst.id].append(seconds)
        if outcome == "ok":
            digest = inst.digest(answer)
            if inst.id not in self.digests:
                self.answers[inst.id] = answer
                self.digests[inst.id] = digest
            elif digest != self.digests[inst.id]:
                outcome = "drift"
                self.errors.setdefault(inst.id,
                                       "answer differs between passes")
        elif outcome == "error":
            self.errors.setdefault(inst.id, f"raised {answer!r}")
        self.outcomes.append((inst.id, outcome))

    def merge(self, other):
        """Fold in the outcomes of another phase over the same corpus; its
        answers must match this tally's first pass."""
        for inst_id, digest in other.digests.items():
            if digest != self.digests.get(inst_id, digest):
                other.errors.setdefault(inst_id,
                                        "answer differs under tracing")
                other.outcomes = [(i, "drift" if i == inst_id and o == "ok"
                                   else o) for i, o in other.outcomes]
        self.outcomes += other.outcomes
        for inst_id, message in other.errors.items():
            self.errors.setdefault(inst_id, message)

    def check(self):
        """Run every check on the first-pass answers; returns the ids whose
        answer is wrong."""
        wrong = set()
        for inst in self.instances:
            if inst.id not in self.answers:
                continue
            try:
                message = inst.check(self.answers[inst.id], self.answers)
            except KeyError as exc:
                if exc.args[0] in self.times:
                    continue  # a route it compares against did not answer
                message = f"check raised {exc!r}"
            except Exception as exc:  # a crashing check is a failed check
                message = f"check raised {exc!r}"
            if message:
                wrong.add(inst.id)
                self.errors.setdefault(inst.id, message)
        return wrong

    def counts(self, wrong):
        attempted = len(self.outcomes)
        failed = sum(1 for i, o in self.outcomes
                     if o in ("error", "drift") or (o == "ok" and i in wrong))
        unresolved = sum(1 for _, o in self.outcomes if o == "unresolved")
        return attempted, failed, unresolved

    def wall(self):
        """Time to solve the corpus once: the sum of per-instance medians."""
        return sum(statistics.median(t) for t in self.times.values() if t)


def closed_loop(api, instances, tally, seconds, min_instances=0,
                tracer=None):
    """Run instances back to back, cycling through the corpus, and stop at
    the first end of a pass once `seconds` have gone by and at least
    `min_instances` ran.  Whole passes keep the mix of instances fixed.
    Returns the number of passes."""
    n = len(instances)
    done = 0
    start = perf_counter()
    while True:
        inst = instances[done % n]
        budget = api.Budget()
        call = (lambda inst=inst, budget=budget: inst.call(api, budget))
        t0 = perf_counter()
        try:
            if tracer is None:
                answer = call()
            else:
                answer = tracer.run(inst.id, call, budget)
            outcome = "ok"
        except (api.BudgetExceeded, api.Unresolved) as exc:
            outcome, answer = "unresolved", exc
        except Exception as exc:  # InternalInvariantError included
            outcome, answer = "error", exc
        elapsed = perf_counter() - t0
        tally.record(inst, elapsed, outcome, answer)
        done += 1
        if (done % n == 0 and done >= min_instances
                and perf_counter() - start >= seconds):
            return done // n


def run_workload(workload, seed, seconds, trace):
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, api, instances = setup(workload, seed)
        setups.append(dt)
    tally = Tally(instances)
    if not trace:
        closed_loop(api, instances, tally, seconds, MIN_INSTANCES)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = [t for ts in tally.times.values() for t in ts]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": tally.wall(),
            "latency_p50_s": statistics.median(times),
            "latency_tail_s": statistics.quantiles(
                times, n=100)[TAIL_PERCENTILE - 1],
            "peak_rss_mib": rss,
        }
        units = END_TO_END
    else:
        from perfbench.trace import (PER_LAYER, Tracer, installed_wrappers,
                                     layer_metrics)
        closed_loop(api, instances, tally, seconds / 2)
        untraced = tally.wall()
        tracer = Tracer()
        traced = Tally(instances)
        with tracer:
            passes = closed_loop(api, instances, traced, seconds / 2,
                                 tracer=tracer)
        tally.merge(traced)
        leftover = installed_wrappers()
        if leftover:
            raise RuntimeError(f"tracer wrappers left installed: {leftover}")
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")
        metrics = layer_metrics(tracer.spans, passes, untraced)
        units = PER_LAYER
    wrong = tally.check()
    attempted, failed, unresolved = tally.counts(wrong)
    if not trace:
        metrics["pass_ratio"] = 1 - failed / attempted
        metrics["resolved_ratio"] = 1 - unresolved / attempted
    for inst_id, message in sorted(tally.errors.items()):
        print(f"FAIL {workload} {inst_id}: {message}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }


def main(argv=None):
    load_sources()
    from perfbench.corpus import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    results = {}
    for name in names:
        res = run_workload(name, ns.seed, ns.seconds, bool(ns.trace))
        results[name] = res
        print(f"{name} seed={ns.seed}: {res['attempted']} instances, "
              f"{res['failed']} failed")
        for metric, v in res["metrics"].items():
            print(f"  {metric:28s} {v['value']:.6g} {v['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
