"""The classical Groebner benchmark systems as plain term dicts.

Each polynomial is a dict {exponent tuple: integer coefficient}, so the same
input feeds charp (through `Ring.from_dict`) and sympy (through
`Poly.from_dict`) without either library building it for the other.
"""

GB_PRIME = 32003


def cyclic(n):
    """The cyclic-n system in n variables."""
    def mono(indices):
        exps = [0] * n
        for i in indices:
            exps[i] += 1
        return tuple(exps)

    polys = []
    for k in range(1, n):
        polys.append({mono([(i + j) % n for j in range(k)]): 1
                      for i in range(n)})
    polys.append({mono(range(n)): 1, (0,) * n: -1})
    return n, polys


def katsura(n):
    """The katsura-n system in the n + 1 variables u_0, ..., u_n."""
    nvars = n + 1

    def var(i):
        exps = [0] * nvars
        exps[abs(i)] += 1
        return tuple(exps)

    def add(poly, mono, c):
        poly[mono] = poly.get(mono, 0) + c

    polys = []
    first = {(0,) * nvars: -1}
    for i in range(-n, n + 1):
        add(first, var(i), 1)
    polys.append(first)
    for m in range(n):
        poly = {}
        for i in range(-n, n + 1):
            j = m - i
            if abs(j) > n:
                continue
            a, b = var(i), var(j)
            add(poly, tuple(x + y for x, y in zip(a, b)), 1)
        add(poly, var(m), -1)
        polys.append({k: c for k, c in poly.items() if c})
    return nvars, polys


CLASSICAL = {
    "cyclic-5": lambda: cyclic(5),
    "katsura-5": lambda: katsura(5),
    "katsura-6": lambda: katsura(6),
    "cyclic-6": lambda: cyclic(6),
}
