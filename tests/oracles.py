"""Independent brute-force oracles the tests freeze expected values from.

Kept deliberately naive: field tables filled entry by entry, polynomial
factor search by exhaustive products, orbits by conjugating with every group element or by closure under
transvections, class products by double enumeration or by labelling every
product with a fixed second factor.  None of them share logic with the code
paths they check, with one exception: ``_class_members`` builds, member by
member, the cuts whose rows the library's scan walks, and takes the
non-split torus members from the library.  Those cuts are checked against
whole orbits (test_class_cuts_meet_every_centralizer_orbit).
``field_for`` is the library's own field lookup, re-exported so every test
reaches a field by q the same way; test_field.py checks it against literal
values.
"""

from __future__ import annotations

import itertools

from sl2q.classes import ClassLabel
from sl2q.field import Field, field_for, find_modulus  # noqa: F401  (field_for re-exported)
from sl2q.matrices import Mat2, enumerate_sl2
from sl2q.products import _torus_members, _torus_rows, label_trace


_KIND_ORDER = {"Z": 0, "D": 1, "U": 2, "W": 3}


def label_sort_key(label: ClassLabel) -> tuple[int, int, int]:
    """The reference class order: kind Z, D, U, W, then the label's code,
    U(s,+) before U(s,-).  Reports and the class table must list classes in
    this order."""
    return (_KIND_ORDER[label.kind], label.x, 0 if label.square else 1)


def _mul4(mul, add, x, y):
    # 2x2 product on bare (a, b, c, d) tuples
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (
        add[mul[xa][ya]][mul[xb][yc]],
        add[mul[xa][yb]][mul[xb][yd]],
        add[mul[xc][ya]][mul[xd][yc]],
        add[mul[xc][yb]][mul[xd][yd]],
    )


def _conj4(mul, add, neg, c4, a4):
    # C**-1 * A * C for det(C) == 1, on bare tuples, as two _mul4 products
    ca, cb, cc, cd = c4
    t = _mul4(mul, add, (cd, neg[cb], neg[cc], ca), a4)
    return _mul4(mul, add, t, c4)


def poly_product(p: int, f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if not fi:
            continue
        for j, gj in enumerate(g):
            out[i + j] = (out[i + j] + fi * gj) % p
    return out


def naive_field_tables(p: int, m: int) -> dict:
    """Every table of GF(p**m), keyed by its ``Field`` attribute name, filled
    one entry at a time: sums and differences digit by digit, products by
    ``poly_product`` reduced by the modulus, inverses, squares and the
    primitive element read off the product table.

    The modulus is the library's ``find_modulus``, which
    test_modulus_matches_independent_scan checks against
    ``least_monic_irreducible``.
    """
    q = p**m
    mod = find_modulus(p, m)
    elems = list(range(q))  # shared int objects keep the tables lean
    digits = [[x // p**k % p for k in range(m)] for x in elems]
    code_of = {tuple(ds): x for x, ds in zip(elems, digits)}

    def reduce(poly: list[int]) -> int:
        for k in range(len(poly) - 1, m - 1, -1):
            c = poly[k]
            if c:
                for i in range(m + 1):
                    poly[k - m + i] = (poly[k - m + i] - c * mod[i]) % p
        return code_of[tuple(poly[:m])]

    add = [[code_of[tuple([(a + b) % p for a, b in zip(dx, dy)])] for dy in digits]
           for dx in digits]
    sub = [[code_of[tuple([(a - b) % p for a, b in zip(dx, dy)])] for dy in digits]
           for dx in digits]
    neg = [code_of[tuple([-a % p for a in dx])] for dx in digits]
    mul = [[reduce(poly_product(p, dx, dy)) for dy in digits] for dx in digits]

    def order(g: int) -> int:
        x, n = g, 1
        while x != 1:
            x, n = mul[x][g], n + 1
        return n

    squares = {mul[x][x] for x in elems}
    return {
        "_add": add, "_sub": sub, "_neg": neg, "_mul": mul,
        "_inv": [0] + [mul[x].index(1) for x in elems[1:]],
        "_sq": [x in squares for x in elems],
        "primitive_elem": next(g for g in elems[1:] if order(g) == q - 1),
        "least_nonsquare": next((x for x in elems if x not in squares), None),
    }


def least_monic_irreducible(p: int, m: int) -> tuple[int, ...]:
    """First monic degree-m polynomial (coefficient tuples ordered from the
    constant term) that is not a product of two smaller monic ones."""
    monic = {
        d: [list(c) + [1] for c in itertools.product(range(p), repeat=d)]
        for d in range(1, m)
    }
    for coeffs in itertools.product(range(p), repeat=m):
        cand = list(coeffs) + [1]
        reducible = any(
            poly_product(p, f, g) == cand
            for d in range(1, m // 2 + 1)
            for f in monic[d]
            for g in monic[m - d]
        )
        if not reducible:
            return tuple(cand)
    raise AssertionError


def sl2_by_filter(F: Field) -> list[tuple]:
    """All determinant-one tuples by filtering the full q**4 cube."""
    q = F.q
    mul, sub = F._mul, F._sub
    return [
        (a, b, c, d)
        for a in range(q) for b in range(q) for c in range(q) for d in range(q)
        if sub[mul[a][d]][mul[b][c]] == 1
    ]


def full_orbit(F: Field, M: Mat2) -> frozenset[tuple]:
    """Conjugation orbit by conjugating with every group element."""
    mul, add, neg = F._mul, F._add, F._neg
    a4 = (M.a, M.b, M.c, M.d)
    return frozenset(
        _conj4(mul, add, neg, (C.a, C.b, C.c, C.d), a4) for C in enumerate_sl2(F)
    )


def orbit_partition(F: Field) -> list[frozenset[tuple]]:
    """Partition of the whole group into conjugation orbits."""
    mul, add, neg = F._mul, F._add, F._neg
    elems = [(M.a, M.b, M.c, M.d) for M in enumerate_sl2(F)]
    seen: set[tuple] = set()
    parts = []
    for x in elems:
        if x in seen:
            continue
        orb = frozenset(_conj4(mul, add, neg, c4, x) for c4 in elems)
        seen |= orb
        parts.append(orb)
    return parts


def bfs_orbit(F: Field, M: Mat2) -> set[tuple]:
    """Conjugation orbit by closing {M} under conjugation with the
    transvections [[1,x],[0,1]] and [[1,0],[x,1]], x running over a
    GF(p)-basis; these generate the group."""
    mul, add, neg = F._mul, F._add, F._neg
    gens = []
    for k in range(F.m):
        x = F.p**k
        gens.append(((1, x, 0, 1), (1, neg[x], 0, 1)))
        gens.append(((1, 0, x, 1), (1, 0, neg[x], 1)))
    start = (M.a, M.b, M.c, M.d)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for g, gi in gens:
            y = _mul4(mul, add, _mul4(mul, add, gi, cur), g)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def fixed_factor_product(F: Field, orbit, B: Mat2) -> tuple[set[ClassLabel], set[int]]:
    """Class labels and traces of every product X*B, X over ``orbit``.

    Conjugating both factors only conjugates the product, so with ``orbit``
    the whole class of A this is the product of A's and B's classes.  Each
    product is labelled from the roots of its characteristic polynomial,
    found by trying every field element.
    """
    q = F.q
    mul, add, sub = F._mul, F._add, F._sub
    roots = {
        t: [x for x in range(q) if add[sub[mul[x][x]][mul[t][x]]][1] == 0]
        for t in range(q)
    }
    b4 = (B.a, B.b, B.c, B.d)
    labels, traces = set(), set()
    for x4 in orbit:
        a, b, c, d = _mul4(mul, add, x4, b4)
        t = add[a][d]
        traces.add(t)
        rs = roots[t]
        if b == 0 and c == 0 and a == d:
            labels.add(ClassLabel("Z", a))
        elif len(rs) == 2:
            labels.add(ClassLabel("D", min(rs)))
        elif rs:
            labels.add(ClassLabel("U", rs[0], F._sq[F._neg[c] if c else b]))
        else:
            labels.add(ClassLabel("W", t))
    return labels, traces


def double_product_tuples(F: Field, A: Mat2, B: Mat2) -> set[tuple]:
    """The full product set {X*Y : X in A's orbit, Y in B's orbit}."""
    mul, add = F._mul, F._add
    orb_a = full_orbit(F, A)
    orb_b = full_orbit(F, B)
    return {_mul4(mul, add, x, y) for x in orb_a for y in orb_b}


def square_mix_exceptions(F: Field) -> list[tuple[int, int, list[int]]]:
    """Pairs of nonzero (a, b), in increasing code order, for which
    {a*x^2 + b*y^2 : x, y != 0} does not hold both a square and a
    non-square, each with that value set sorted.  0 counts as a square, as
    in ``Field._sq``.

    For odd q and c != 0, with chi the quadratic character, the number of
    (x, y) with x, y != 0 and a*x^2 + b*y^2 = c is
    q - 2 - chi(-ab) - chi(ac) - chi(bc) >= q - 5 (Lidl-Niederreiter,
    Finite Fields, Thm 6.26, less the solutions with x = 0 or y = 0).  So
    for odd q >= 7 every nonzero c is hit and the list is empty; at q = 5
    it is exactly the pairs with a and b both non-squares.
    """
    q = F.q
    add, mul = F._add, F._mul
    out = []
    for a in range(1, q):
        for b in range(1, q):
            vals = sorted({
                add[mul[a][mul[x][x]]][mul[b][mul[y][y]]]
                for x in range(1, q) for y in range(1, q)
            })
            if {F._sq[v] for v in vals} != {True, False}:
                out.append((a, b, vals))
    return out


def _class_members(F: Field, label: ClassLabel, against: ClassLabel) -> list[tuple]:
    """Members (a, b, c, d) of the noncentral labelled class, read off its
    label, that meet every orbit of the centralizer of the noncentral
    second factor ``against`` at its canonical representative: the cuts
    whose rows the library's scan walks, built member by member.

    They solve a + d = t and ad - bc = 1 for the class trace t; a U class
    keeps those whose square class of -c (of b when c = 0) matches its own.
    The cut depends on the second factor:

    * D (diag(r, 1/r)): b in {0, 1, nu}, or {0, 1} for even q, since
      conjugating by diag(x, 1/x) scales b by a square;
    * U ([[s,u],[0,s]]): c = 0, or a = 0 with c != 0, since conjugating
      by [[1,x],[0,1]] fixes c and shifts a by x*c;
    * W ([[0,1],[-1,w]]): every row of the library's non-split torus cut.
    """
    t = label_trace(F, label)
    if against.kind == "W":
        out = _torus_members(F, against.x, _torus_rows(F, t, against.x))
    else:
        out = _trace_members(F, t, against.kind)
    if label.kind == "U":
        sq, neg, want = F._sq, F._neg, label.square
        out = [x for x in out if (x[1] or x[2]) and sq[neg[x[2]] if x[2] else x[1]] == want]
    return out


def _trace_members(F: Field, t: int, cut: str) -> list[tuple]:
    # determinant-one matrices of trace t, cut against a D or U factor as
    # described in _class_members
    q = F.q
    mul, sub, inv = F._mul, F._sub, F._inv
    nu = F.least_nonsquare
    out: list[tuple] = []
    for a in range(q):
        d = sub[t][a]
        k = sub[mul[a][d]][1]  # = bc
        mk = mul[k]
        if cut == "D":
            if not k:
                out += [(a, 0, c, d) for c in range(q)]
            out.append((a, 1, k, d))
            if nu is not None:
                out.append((a, nu, mk[inv[nu]], d))
        elif not k:
            out += [(a, b, 0, d) for b in range(q)]
        elif a == 0:
            out += [(0, mk[inv[c]], c, d) for c in range(1, q)]
    return out
