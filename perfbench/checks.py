"""Answer checks, run after the timed region.

Each factory returns `check(answer, answers) -> None | str`: None when the
answer holds, else a one-line reason.  Ideal containments are decided by
sympy's own Groebner engine, not charp's; the depth and Frobenius checks
compare independent routes or use theorems that hold for every input:

* reduced bases equal sympy's stored bases, moved to the seed's scaling;
* I cap J lies in I and J and contains I*J; (I : J)*J lies in I and I in
  (I : J); an eliminant lies in I and avoids the eliminated variables;
* Koszul depth = n - pd; greedy <= Koszul, with equality when the pools were
  exhausted; the cdepth bound stays below the depth of every level;
* Ass(S/I^[q]) = Ass(S/I), since Frobenius is flat on a regular ring;
* f^-e(J)^[q] lies in J and J lies in f^-e(J);
* x joins the closure of (z) on x^p = c*y*z^p, which is not F-pure;
* Gamma chains verify; sdepth is monotone and equals the stable kdepth.
"""

import functools


@functools.lru_cache(maxsize=None)
def _symbols(nvars):
    import sympy
    return sympy.symbols(f"v0:{nvars}")


def _terms(poly):
    """A charp polynomial or a plain dict, as {exponent tuple: int}."""
    return poly if isinstance(poly, dict) else dict(poly.terms)


def _sympy_ideal(polys, nvars, p):
    """sympy's reduced basis of the ideal spanned by `polys`."""
    import sympy
    syms = _symbols(nvars)
    exprs = [sympy.Poly.from_dict(_terms(f), *syms, modulus=p)
             for f in polys if _terms(f)]
    if not exprs:
        exprs = [sympy.Poly(0, *syms, modulus=p)]
    return sympy.groebner(exprs, *syms, modulus=p, order="grevlex")


def _member(gb, poly, nvars, p):
    import sympy
    terms = _terms(poly)
    if not terms:
        return True
    return gb.contains(sympy.Poly.from_dict(terms, *_symbols(nvars),
                                            modulus=p))


def _outside(gb, polys, nvars, p):
    """The first of `polys` not in the ideal `gb`, or None."""
    for f in polys:
        if not _member(gb, f, nvars, p):
            return f
    return None


def _mul(f, g, p):
    out = {}
    for m, a in _terms(f).items():
        for n, b in _terms(g).items():
            k = tuple(x + y for x, y in zip(m, n))
            out[k] = (out.get(k, 0) + a * b) % p
    return {k: c for k, c in out.items() if c}


def _bracket(f, q):
    """f^q = f(x^q) in characteristic p, for q a power of p."""
    return {tuple(q * e for e in m): c for m, c in _terms(f).items()}


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


# ---------------------------------------------------------------------------
# ideal-gb

def _canonical_basis(polys):
    return tuple(sorted(tuple(sorted(_terms(g).items())) for g in polys))


def digest_polys(basis):
    return repr(_canonical_basis(basis))


def digest_ideal(ideal):
    return repr(ideal)


def scaled_reference(basis, scale, p):
    """The reduced basis of the system with x_i -> c_i x_i, from the stored
    basis of the unscaled system: same supports, rescaled and made monic."""
    out = []
    for g in basis:
        terms = {}
        for exps, c in g:
            for e, s in zip(exps, scale):
                c = c * pow(s, e, p)
            terms[tuple(exps)] = c % p
        inv = pow(terms[max(terms, key=_grevlex_key)], -1, p)
        out.append({m: (c * inv) % p for m, c in terms.items()})
    return _canonical_basis(out)


def basis_equals(expected):
    def check(answer, answers):
        if _canonical_basis(answer) != expected:
            return "reduced basis differs from the sympy reference"
        return None
    return check


def intersection_sound(ring, I, J):
    n, p = ring.nvars, ring.p

    def check(answer, answers):
        gens = answer.gens
        for name, side in (("I", I), ("J", J)):
            if _outside(_sympy_ideal(side, n, p), gens, n, p) is not None:
                return f"I cap J is not inside {name}"
        products = [_mul(f, g, p) for f in I for g in J]
        if _outside(_sympy_ideal(gens, n, p), products, n, p) is not None:
            return "I*J is not inside I cap J"
        return None
    return check


def colon_sound(ring, I, J):
    n, p = ring.nvars, ring.p

    def check(answer, answers):
        gens = answer.gens
        products = [_mul(c, g, p) for c in gens for g in J]
        if _outside(_sympy_ideal(I, n, p), products, n, p) is not None:
            return "(I : J)*J is not inside I"
        if _outside(_sympy_ideal(gens, n, p), I, n, p) is not None:
            return "I is not inside (I : J)"
        return None
    return check


def elimination_sound(ring, I, k):
    n, p = ring.nvars, ring.p

    def check(answer, answers):
        gens = answer.gens
        if any(any(m[:k]) for g in gens for m in _terms(g)):
            return "eliminant uses an eliminated variable"
        if _outside(_sympy_ideal(I, n, p), gens, n, p) is not None:
            return "eliminant is not inside I"
        return None
    return check


# ---------------------------------------------------------------------------
# depth-search

def digest_resolution(answer):
    cx, pd = answer
    return f"pd={pd} ranks={[cx.rank(i) for i in range(cx.length + 1)]}"


def depth_triangle(n, koszul_id, pd_id, greedy_id):
    def check(answer, answers):
        koszul = answers[koszul_id]
        pd = answers[pd_id][1]
        greedy = answers[greedy_id]
        if pd is None:
            pd = n  # Hilbert's syzygy theorem bounds pd by n
        if koszul != n - pd:
            return f"Koszul depth {koszul} != n - pd = {n - pd}"
        if greedy.bound > koszul:
            return f"greedy bound {greedy.bound} exceeds depth {koszul}"
        if greedy.exhaustive and greedy.bound != koszul:
            return f"exhaustive greedy bound {greedy.bound} != depth {koszul}"
        return None
    return check


def cdepth_below_sdepth(ring, gens, e_max):
    def check(answer, answers):
        import charp
        rep = charp.sdepth(charp.ModulePresentation.cyclic(ring, gens),
                           e_max=e_max)
        low = min(d for _, d in rep.per_e_depth)
        if answer.bound > low:
            return f"cdepth bound {answer.bound} exceeds level depth {low}"
        return None
    return check


# ---------------------------------------------------------------------------
# frobenius-levels

def preimage_sound(ring, gens, e):
    n, p = ring.nvars, ring.p
    q = p ** e

    def check(answer, answers):
        brackets = [_bracket(g, q) for g in answer.gens]
        if _outside(_sympy_ideal(gens, n, p), brackets, n, p) is not None:
            return "f^-e(J)^[q] is not inside J"
        if _outside(_sympy_ideal(answer.gens, n, p), gens, n, p) is not None:
            return "J is not inside f^-e(J)"
        return None
    return check


def digest_closure(res):
    return f"{res.stabilized_at}:{res.closure!r}"


def closure_gains(ring, x):
    free = ring.free()
    n, p = ring.nvars, ring.p
    target = free.var(x)

    def check(answer, answers):
        gb = _sympy_ideal(answer.closure.lifted_gens(), n, p)
        if not _member(gb, target, n, p):
            return f"{x} is missing from the closure of (z)"
        return None
    return check


def not_f_pure(answer, answers):
    return "reported F-pure" if answer.is_f_pure else None


def digest_gamma(rep):
    return (f"{rep.verified}:{rep.levels_used}:"
            f"{[repr(t) for t in rep.sequence.terms]}")


def gamma_verified(answer, answers):
    return None if answer.verified else "contraction chain does not verify"


def digest_primes(records):
    return repr([r.variables for r in records])


def ass_constant(ids):
    def check(answer, answers):
        base = {r.variables for r in answers[ids[0]]}
        for i in ids[1:]:
            if {r.variables for r in answers[i]} != base:
                return f"Ass changed along the bracket chain at {i}"
        return None
    return check


def sdepth_matches_kdepth(sdepth_id, kdepth_id):
    def check(answer, answers):
        sd = answers[sdepth_id]
        kd = answers[kdepth_id]
        if not sd.monotone:
            return "per-level depth is not monotone"
        if kd.stable_kgrade != sd.stabilized_value:
            return (f"stable kdepth {kd.stable_kgrade} != "
                    f"sdepth {sd.stabilized_value}")
        return None
    return check


def depth_equals_n_minus_pd(ring, gens):
    def check(answer, answers):
        import charp
        n = ring.nvars
        M = charp.ModulePresentation.cyclic(ring, gens)
        _, pd = charp.free_resolution(M, cap=n)
        pd = n if pd is None else pd
        if answer != n - pd:
            return f"Koszul depth {answer} != n - pd = {n - pd}"
        return None
    return check
