"""Outside-in tracing of charp's layers from the benchmark's own files.

`Tracer.install()` replaces each public function of each layer module by a
wrapper, in every `charp.*` namespace that binds the same function object
(`intersect`, say, is bound in both `groebner` and `modules`), so nested
calls across layers are seen.  `uninstall()` puts the originals back.

A span is (id, parent, instance, name, t0, t1, steps0, steps1, note).  Steps
are read from the Budget the benchmark passed into the current instance.
A span's self time and self steps exclude those of its child spans.  Spans
stay in memory and are written out once, by `write()`.

`ring` is called millions of times per run and gets no span: its cost shows
as the self time of its callers.  `parse` runs only in set-up.
"""

import gzip
import json
import sys
from time import perf_counter


def _block_and_size(args, kwargs, result):
    ring = args[1] if len(args) > 1 else kwargs["ring"]
    return type(ring.order).__name__ == "Block", len(result)


def _rank(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["rank"]


def _found(args, kwargs, result):
    return bool(result)


def _pool_size(args, kwargs, result):
    return len(result[0])


def _count(args, kwargs, result):
    return len(result)


# layer -> {function name: note}.  A note, when given, is computed from the
# call's arguments and result and stored on the span.
LAYERS = {
    "groebner": {
        "buchberger": _block_and_size,
        "normal_form_poly": None, "normal_form": None, "groebner_basis": None,
        "ideal_equal": None, "intersect": None, "colon_ideal": None,
        "eliminate": None, "radical_membership": None,
    },
    "modules": {
        "module_groebner": _rank,
        "module_normal_form": None, "in_module": None, "syzygy_module": None,
        "free_resolution": None, "projective_dimension": None,
        "annihilator": None, "module_colon_by_element": None,
    },
    "frobenius": {
        "frobenius_power": None, "frobenius_preimage": None,
        "frobenius_closure": None, "is_frobenius_closed": None,
        "fedder_f_pure": None, "fseq_verify": None,
        "fseq_radical_stabilize": None,
    },
    "depth": {
        "frobenius_functor": None, "koszul_homology_nonzero": None,
        "kgrade": None, "depth_at_origin": None,
        "is_regular_element": _found,
        "regular_sequence_check": None,
        "linear_candidates": _pool_size,
        "quadratic_candidates": _pool_size,
        "classical_depth_search": None, "sdepth": None,
        "cdepth_lower_bound": None, "kdepth_truncation_profile": None,
    },
    "assoc": {
        "ass_monomial": _count,
        "minimal_primes_monomial": None, "maximal_in_ass": None,
        "union_ass_fseq": None,
    },
    "perfclosure": {
        "root_equal": None, "extended_ideal_membership": None,
        "gamma_fseq": None, "fseq_to_perfect_ideal": None,
        "prime_extension_check": None, "zero_closure_cyclic": None,
    },
}

# groebner spans that always run under a Block (elimination) order
_ELIMINATING = {"intersect", "eliminate"}

INSTANCE = "instance"


class Tracer:
    """Records nested spans for every wrapped call made inside an instance."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self.budget = None
        self._patched = []   # (module, attribute, original)

    # -- installation ----------------------------------------------------

    def install(self):
        charp_modules = [m for name, m in sorted(sys.modules.items())
                         if name == "charp" or name.startswith("charp.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"charp.{layer}"]
            for fname, note in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, note)
                for module in charp_modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn, note):
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            budget = self.budget
            s0 = budget.used if budget is not None else 0
            value = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    value = note(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                s1 = budget.used if budget is not None else 0
                spans[sid] = (sid, parent, self.instance, name, t0, t1,
                              s0, s1, value)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.perfbench_span = name
        return wrapper

    # -- instances -------------------------------------------------------

    def run(self, instance_id, call, budget):
        """Call `call()` inside a root span for one benchmark instance."""
        self.instance = instance_id
        self.budget = budget
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        s0 = budget.used
        t0 = perf_counter()
        try:
            return call()
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, None, instance_id, INSTANCE, t0, t1,
                               s0, budget.used, None)
            self.instance = None
            self.budget = None

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "instance", "name", "start", "end",
                  "steps_start", "steps_end", "note")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def installed_wrappers():
    """(module, attribute) pairs in charp namespaces still bound to a
    tracer wrapper; empty after every traced run."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name != "charp" and not name.startswith("charp."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "perfbench_span"):
                out.append((name, attr))
    return out


# ---------------------------------------------------------------------------
# aggregation

def self_costs(spans):
    """Per span: (self seconds, self steps), children subtracted."""
    own = {s[0]: [s[5] - s[4], s[7] - s[6]] for s in spans}
    for s in spans:
        parent = s[1]
        if parent is not None:
            own[parent][0] -= s[5] - s[4]
            own[parent][1] -= s[7] - s[6]
    return own


def layer_metrics(spans, passes, untraced_wall):
    """The per-layer metrics of one traced phase, per pass of the corpus.

    `untraced_wall` is the same corpus's time per pass with no wrappers
    installed, the base of `trace.overhead_ratio`."""
    own = self_costs(spans)
    names = {s[0]: s[3] for s in spans}
    m = dict.fromkeys(PER_LAYER, 0.0)
    wall = 0.0
    regular_hits = primes_found = 0
    for sid, parent, _, name, t0, t1, _, _, note in spans:
        # a call that raised has no note; count it as a note of zero
        if note is None:
            note = (False, 0) if name == "groebner.buchberger" else 0
        dur = t1 - t0
        self_s, self_steps = own[sid]
        if name == INSTANCE:
            wall += dur
            continue
        layer, fname = name.split(".", 1)
        m[f"{layer}.self_s"] += self_s
        if f"{layer}.calls" in m:
            m[f"{layer}.calls"] += 1
        if f"{layer}.steps" in m:
            m[f"{layer}.steps"] += self_steps
        parent_name = names.get(parent)
        if layer == "groebner":
            elim = note[0] if fname == "buchberger" else fname in _ELIMINATING
            m["groebner.elim_self_s" if elim
              else "groebner.plain_self_s"] += self_s
        if fname == "buchberger":
            m["groebner.basis_out"] += note[1]
        elif fname == "module_groebner":
            m["modules.gb_calls"] += 1
            m["modules.gb_self_s"] += self_s
            m["modules.gb_max_rank"] = max(m["modules.gb_max_rank"], note)
        elif fname == "syzygy_module":
            m["modules.syzygy_calls"] += 1
        elif fname == "in_module":
            m["modules.member_calls"] += 1
            m["modules.member_s"] += dur
        elif fname == "free_resolution":
            m["modules.resolution_s"] += dur
        elif fname == "is_regular_element":
            m["depth.regular_tests"] += 1
            m["depth.regular_s"] += dur
            regular_hits += note
        elif fname in ("linear_candidates", "quadratic_candidates"):
            m["depth.candidates"] += note
        elif fname in ("classical_depth_search", "cdepth_lower_bound"):
            m["depth.greedy_s"] += dur
        elif fname == "koszul_homology_nonzero":
            m["depth.koszul_tests"] += 1
            m["depth.koszul_s"] += dur
        elif fname == "frobenius_preimage":
            m["frobenius.preimage_calls"] += 1
            m["frobenius.preimage_s"] += dur
            if parent_name == "frobenius.frobenius_closure":
                m["frobenius.closure_levels"] += 1
            elif parent_name == "perfclosure.gamma_fseq":
                m["perfclosure.lift_levels"] += 1
        elif fname == "ass_monomial":
            m["assoc.box_points"] += self_steps
            primes_found += note
    for layer in LAYERS:
        m[f"{layer}.share"] = m[f"{layer}.self_s"] / wall if wall else 0.0
    out = {k: (v if k.endswith(RATIO_SUFFIXES) else v / passes)
           for k, v in m.items()}
    out["modules.gb_max_rank"] = m["modules.gb_max_rank"]
    tests = m["depth.regular_tests"]
    out["depth.regular_hit_ratio"] = regular_hits / tests if tests else 0.0
    points = m["assoc.box_points"]
    out["assoc.prime_hit_ratio"] = primes_found / points if points else 0.0
    traced = wall / passes
    out["trace.overhead_ratio"] = traced / untraced_wall - 1
    return out


RATIO_SUFFIXES = (".share", "_ratio")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "groebner.calls": "count", "groebner.self_s": "s",
    "groebner.steps": "count", "groebner.elim_self_s": "s",
    "groebner.plain_self_s": "s", "groebner.basis_out": "count",
    "modules.self_s": "s",
    "modules.gb_calls": "count", "modules.gb_self_s": "s",
    "modules.gb_max_rank": "count", "modules.steps": "count",
    "modules.syzygy_calls": "count", "modules.member_calls": "count",
    "modules.member_s": "s", "modules.resolution_s": "s",
    "depth.regular_tests": "count", "depth.regular_s": "s",
    "depth.regular_hit_ratio": "1", "depth.candidates": "count",
    "depth.greedy_s": "s", "depth.koszul_tests": "count",
    "depth.koszul_s": "s", "depth.self_s": "s",
    "frobenius.preimage_calls": "count", "frobenius.preimage_s": "s",
    "frobenius.closure_levels": "count", "frobenius.self_s": "s",
    "assoc.calls": "count", "assoc.self_s": "s", "assoc.box_points": "count",
    "assoc.prime_hit_ratio": "1",
    "perfclosure.calls": "count", "perfclosure.self_s": "s",
    "perfclosure.lift_levels": "count",
    "groebner.share": "1", "modules.share": "1", "frobenius.share": "1",
    "depth.share": "1", "assoc.share": "1", "perfclosure.share": "1",
    "trace.overhead_ratio": "1",
}
