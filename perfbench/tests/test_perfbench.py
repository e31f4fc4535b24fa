"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import importlib

import pytest

import charp
from perfbench import corpus, run
from perfbench.trace import (INSTANCE, PER_LAYER, Tracer,
                             installed_wrappers, layer_metrics, self_costs)


def span(sid, parent, name, t0, t1, s0=0, s1=0, note=None):
    return (sid, parent, "inst", name, t0, t1, s0, s1, note)


# ---------------------------------------------------------------------------
# self-time arithmetic

NESTED = [
    span(0, None, INSTANCE, 0.0, 10.0, 0, 100),
    span(1, 0, "groebner.intersect", 1.0, 6.0, 10, 60),
    span(2, 1, "groebner.buchberger", 2.0, 4.0, 20, 40, (True, 3)),
    span(3, 0, "modules.module_groebner", 7.0, 9.0, 70, 90, 2),
]


def test_self_costs_subtract_children():
    own = self_costs(NESTED)
    assert own[0] == [3.0, 30]
    assert own[1] == [3.0, 30]
    assert own[2] == [2.0, 20]
    assert own[3] == [2.0, 20]


def test_layer_metrics_on_nested_spans():
    m = layer_metrics(NESTED, passes=2, untraced_wall=4.0)
    assert m["groebner.calls"] == 1          # two spans over two passes
    assert m["groebner.self_s"] == 2.5       # (3 + 2) / 2
    assert m["groebner.steps"] == 25         # (30 + 20) / 2
    assert m["groebner.elim_self_s"] == 2.5  # intersect and Block buchberger
    assert m["groebner.plain_self_s"] == 0
    assert m["groebner.basis_out"] == 1.5
    assert m["modules.gb_calls"] == 0.5
    assert m["modules.gb_max_rank"] == 2
    assert m["groebner.share"] == 0.5        # 5 of 10 traced seconds
    assert m["modules.share"] == 0.2
    assert m["trace.overhead_ratio"] == pytest.approx(10 / 2 / 4.0 - 1)


def test_nested_calls_of_one_layer_are_not_double_counted():
    spans = [
        span(0, None, INSTANCE, 0.0, 4.0),
        span(1, 0, "depth.classical_depth_search", 0.0, 4.0),
        span(2, 1, "depth.is_regular_element", 1.0, 2.0, note=True),
        span(3, 1, "depth.is_regular_element", 2.0, 3.0, note=False),
    ]
    m = layer_metrics(spans, passes=1, untraced_wall=4.0)
    assert m["depth.self_s"] == 4.0
    assert m["depth.greedy_s"] == 4.0
    assert m["depth.regular_s"] == 2.0
    assert m["depth.regular_hit_ratio"] == 0.5


# ---------------------------------------------------------------------------
# the tracer

def test_tracer_wraps_every_namespace_and_removes_all_wrappers():
    api = importlib.import_module("charp")  # a traced run re-imports charp
    original = api.groebner.intersect
    assert api.modules.intersect is original
    tracer = Tracer()
    with tracer:
        assert api.intersect is not original
        assert api.modules.intersect is api.groebner.intersect
        assert installed_wrappers()
        R = api.parse_ring("F_2[x,y]")
        budget = api.Budget()
        tracer.run("probe", lambda: api.intersect(
            api.Ideal(R, ["x"]), api.Ideal(R, ["y"]), budget), budget)
    assert installed_wrappers() == []
    assert api.groebner.intersect is original
    assert api.modules.intersect is original
    names = {s[3]: s for s in tracer.spans}
    assert names["groebner.buchberger"][1] == names["groebner.intersect"][0]
    assert names["groebner.intersect"][1] == names[INSTANCE][0]


def _tiny(api, seed):
    return [i for i in corpus.ideal_gb(api, seed)
            if i.id.startswith("eliminate/")][:4]


def test_traced_run_leaves_no_wrapper(monkeypatch, tmp_path):
    monkeypatch.setitem(corpus.WORKLOADS, "tiny", _tiny)
    monkeypatch.setattr(run, "OUT", tmp_path)
    res = run.run_workload("tiny", 1, 0, trace=True)
    assert installed_wrappers() == []
    assert res["correct"]
    assert set(res["metrics"]) == set(PER_LAYER)
    assert res["metrics"]["groebner.calls"]["value"] > 0
    assert res["metrics"]["assoc.calls"]["value"] == 0
    assert list(tmp_path.glob("spans-tiny-seed1.jsonl.gz"))


# ---------------------------------------------------------------------------
# the generator

@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    build = corpus.WORKLOADS[workload]
    first = [(i.id, i.inputs) for i in build(charp, 1)]
    again = [(i.id, i.inputs) for i in build(charp, 1)]
    other = [(i.id, i.inputs) for i in build(charp, 2)]
    assert first == again
    assert first != other
    assert len({i for i, _ in first}) == len(first)


# ---------------------------------------------------------------------------
# checks count wrong answers

def _corrupt(instances, prefix, wrong_answer):
    out = []
    for inst in instances:
        if inst.id.startswith(prefix):
            inst = corpus.Instance(inst.id, inst.inputs,
                                   lambda api, b: wrong_answer(api),
                                   inst.check, inst.digest)
        out.append(inst)
    return out


def test_wrong_answer_raises_fail_ratio(monkeypatch):
    def wrong(api):  # an eliminant that still uses the eliminated variable
        R = api.parse_ring("F_2[x,y,z,w]")
        return api.Ideal(R, ["x"])

    def workload(api, seed):
        return _corrupt(_tiny(api, seed), "eliminate/0", wrong)

    monkeypatch.setitem(corpus.WORKLOADS, "tiny", workload)
    res = run.run_workload("tiny", 1, 0, trace=False)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] // 4
    assert res["metrics"]["pass_ratio"]["value"] == pytest.approx(0.75)


def test_depth_triangle_rejects_a_greedy_overshoot():
    ring = charp.parse_ring("F_2[x,y]")
    check = corpus.checks.depth_triangle(2, "k", "p", "g")
    M = charp.ModulePresentation.cyclic(ring, [ring.poly("x*y")])
    answers = {"k": charp.depth_at_origin(M),
               "p": charp.free_resolution(M, cap=2),
               "g": charp.classical_depth_search(M)}
    assert check(None, answers) is None
    answers["g"] = charp.DepthSearchReport(2, (), True)
    assert "exceeds" in check(None, answers)
