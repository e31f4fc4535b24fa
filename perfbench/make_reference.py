"""Write the reference reduced Groebner bases of the classical systems.

    python3 perfbench/make_reference.py

The bases are computed by sympy (grevlex, modulus 32003) on the unscaled
systems and stored as monic term lists.  The benchmark scales every variable
by a seeded unit, which maps a reduced basis to the reduced basis of the
scaled system term by term, so one stored answer checks every seed.  Takes
about a minute and a half; the benchmark itself never calls this.
"""

import json
import sys
import time
from pathlib import Path

import sympy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.systems import CLASSICAL, GB_PRIME  # noqa: E402

OUT = Path(__file__).resolve().parent / "reference" / "classical.json"


def reduced_basis(nvars, polys):
    syms = sympy.symbols(f"v0:{nvars}")
    exprs = [sympy.Poly.from_dict(p, *syms, modulus=GB_PRIME) for p in polys]
    gb = sympy.groebner(exprs, *syms, modulus=GB_PRIME, order="grevlex")
    out = []
    for g in gb.polys:
        terms = {m: int(c) % GB_PRIME for m, c in g.as_dict().items()}
        lead = g.LM(order="grevlex").exponents
        inv = pow(terms[lead], -1, GB_PRIME)
        out.append(sorted([list(m), (c * inv) % GB_PRIME]
                          for m, c in terms.items()))
    return sorted(out)


def main():
    ref = {"sympy": sympy.__version__, "prime": GB_PRIME, "bases": {}}
    for name, build in CLASSICAL.items():
        t0 = time.perf_counter()
        ref["bases"][name] = reduced_basis(*build())
        print(f"{name}: {len(ref['bases'][name])} elements, "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    OUT.write_text(json.dumps(ref, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
