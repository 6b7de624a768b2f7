"""Products of conjugacy classes.

The product of two conjugacy classes is closed under conjugation, hence a
union of whole classes.  These helpers compute which classes appear, how
many, and the group-wide minimum of that count over noncentral pairs.

Fixing the second factor is enough: conjugating both factors only
conjugates the product, so the class set of {X*B : X in A's class} equals
that of the full double product (the tests verify this against double
enumeration for small q).  Every product is computed from the class labels
with both factors at their canonical representatives, as it is
class-invariant.

A product is a frozenset of class keys.  A trace other than +-2 fixes its
class, so it keys every D and W class; a Z or U class is keyed by its label
tuple, equal to its ClassLabel.  A set's length is its class count, and
:func:`_entries` is the one place a product's labels are made.

The product of two classes commutes, since X*Y = Y*(Y**-1*X*Y), so a
scan orders each pair once: a U factor goes second unless both are U, and
of a D and a W factor the D one goes second.  The first factor's class is
then scanned from its label, row by row.  Its members solve a + d = t and
ad - bc = 1 (for a U class, in one square class); conjugating by the
centralizer of B fixes B, so a cut that meets every orbit of that
centralizer suffices, and each cut falls into rows that share their trace
against B:

* B = diag(r, 1/r), for D x D and W x D: one row per a, of trace
  a*r + d/r, with 1 to 3 members (about q when bc = 0);
* B = [[s,u],[0,s]], for D x U, W x U and U x U: tr(X*B) = s*t + u*c
  depends on c alone, one row per c; only here is the first factor a U
  class, whose members the cut keeps by square class;
* B = [[0,1],[-1,w]], for W x W: one row per M of trace t in the field
  {xI + yB}, of trace w*m0 + (w*w - 2)*m1, with at most two members;
* a central factor: one row, its representative.

A row of trace other than +-2 gives its class's key, that trace, and only
the members of rows of trace +-2 are built and keyed one by one
(:func:`_scan_keys`).  A scan costs O(q) table lookups per pair.  Per field
only the class table and a table of square roots are cached.

A pair with a D or W factor and no central one needs no enumeration: its
product is read off the traces and labels, as a set in O(q) and as a count
in O(1) (:func:`_semisimple_keys` for two D or W classes,
:func:`_unipotent_keys` for a U class against one, each with its proof,
and :func:`_closed_form_count`).  Only the pairs with a central factor (one
member each) and the U x U pairs, at most 10 per field, are scanned.  So
the minimum over all pairs costs O(q^2) constant-time counts: 0.001 s at
q = 64, 0.02 s at q = 256, 0.24 s at q = 1019 and 0.18 s at q = 1024 (one
core, Python 3.11).  The checks in checks.py and the tests scan every pair
on purpose, so that they recompute the closed forms rather than trust them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .classes import ClassEntry, ClassLabel, _class_keys, _roots_of_one, class_table, classify
from .field import Field
from .matrices import Mat2, _same_field, det

CSV_HEADER = "q,p,m,a,b,eta,n_traces,elapsed_ms"


def csv_line(*fields) -> str:
    # one CSV row, quoting a field that holds a comma (a U label) as csv.QUOTE_MINIMAL does
    return ",".join(f'"{s}"' if "," in (s := str(x)) else s for x in fields)


@dataclass(frozen=True)
class ProductReport:
    """One class-product computation: operands, class count, classes seen,
    traces seen, and wall time."""

    q: int
    p: int
    m: int
    modulus: tuple[int, ...]
    label_a: ClassLabel
    label_b: ClassLabel
    num_classes: int
    labels: tuple[ClassLabel, ...]
    traces: tuple[int, ...]
    elapsed_ms: float

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "m": self.m,
            "modulus": list(self.modulus),
            "a": str(self.label_a),
            "b": str(self.label_b),
            "eta": self.num_classes,
            "labels": [str(l) for l in self.labels],
            "traces": list(self.traces),
            "elapsed_ms": self.elapsed_ms,
        }

    def csv_row(self) -> str:
        return csv_line(self.q, self.p, self.m, self.label_a, self.label_b,
                        self.num_classes, len(self.traces), f"{self.elapsed_ms:.3f}")


def _edge_traces(F: Field) -> list[int]:
    """The traces 2s, s*s == 1: the only traces that hold more than one
    class (Z(s) and the U(s, +-)), so the only rows a scan labels member by
    member."""
    return [F._add[s][s] for s in _roots_of_one(F)]


def _positions(xs: list, x) -> list[int]:
    # every index of x in xs, found by list.index at C speed
    out, i = [], -1
    try:
        while True:
            i = xs.index(x, i + 1)
            out.append(i)
    except ValueError:
        return out


def _diagonal_rows(F: Field, t: int, r: int, edges) -> tuple[list, list]:
    """Rows of the D or W class of trace t against B = diag(r, 1/r).

    Conjugating by diag(x, 1/x) fixes B and scales b by x*x, so the members
    with b in {0, 1, nu} ({0, 1} for even q) meet every orbit of its
    centralizer.  They fall into rows a = 0 .. q-1: d = t - a, and
    bc = ad - 1 =: k gives (a, 1, k, d), (a, nu, k/nu, d) and, when k = 0,
    every (a, 0, c, d).  tr(X*B) = a*r + d/r is the same along a row.

    Returns the trace of each row and the members of the rows whose trace
    is in ``edges``.
    """
    q = F.q
    mul, add, sub, inv = F._mul, F._add, F._sub, F._inv
    mr, mri, st = mul[r], mul[inv[r]], sub[t]
    taus = [add[mr[a]][mri[st[a]]] for a in range(q)]
    nu = F.least_nonsquare
    members: list[tuple] = []
    for e in edges:
        for a in _positions(taus, e):
            d = st[a]
            k = sub[mul[a][d]][1]
            if not k:
                members += [(a, 0, c, d) for c in range(q)]
            members.append((a, 1, k, d))
            if nu is not None:
                members.append((a, nu, mul[k][inv[nu]], d))
    return taus, members


def _upper_rows(F: Field, t: int, s: int, u: int, want: bool | None, edges) -> tuple[list, list]:
    """Rows of the class of trace t against B = [[s,u],[0,s]].

    Conjugating by [[1,x],[0,1]] fixes B and c, and shifts a by x*c, so the
    members with c = 0 (a an eigenvalue of the class, every b) or with
    a = 0 and c != 0 (b = -1/c) meet every orbit of its centralizer.
    tr(X*B) = s*t + u*c depends on c alone: each c != 0 is a row of one
    member, and c = 0 is one row of trace s*t, in which b runs over every
    element.

    Returns the row traces and the members of a U class ``want`` (all
    members when None) in the rows whose trace is in ``edges``: the square
    class of -c, or of b when c = 0, is ``want``.
    """
    q = F.q
    mul, add, sub, neg, inv, sq = F._mul, F._add, F._sub, F._neg, F._inv, F._sq
    cs = [c for c in range(1, q) if want is None or sq[neg[c]] == want]
    st, mu = mul[s][t], mul[u]
    ast = add[st]
    taus = [ast[mu[c]] for c in cs]
    members = [(0, neg[inv[cs[i]]], cs[i], t) for e in edges for i in _positions(taus, e)]
    entry = class_table(F).by_trace[t]
    if entry.label.kind != "W":
        taus.append(st)
        if st in edges:
            r = entry.rep.a  # an eigenvalue: a D or Z representative is diagonal
            members += [(a, b, 0, sub[t][a]) for a in sorted({r, inv[r]})
                        for b in range(q) if want is None or (b and sq[b] == want)]
    return taus, members


def _torus_rows(F: Field, t: int, w: int) -> list[tuple]:
    """The M = m0*I + m1*B of trace t in K = {xI + yB}, B = [[0,1],[-1,w]]
    (x**2 - w*x + 1 irreducible): the rows of the non-split torus cut, see
    :func:`_torus_members`."""
    q = F.q
    mul, sub, inv = F._mul, F._sub, F._inv
    mw = mul[w]
    if q % 2:
        half = inv[F._add[1][1]]
        return [(mul[sub[t][mw[m1]]][half], m1) for m1 in range(q)]
    m1 = mul[t][inv[w]]
    return [(m0, m1) for m0 in range(q)]


def _square_roots(F: Field) -> list[int]:
    # root[x*x] = x for the largest such code x; 0 at the non-squares
    got = F._cache.get("square_roots")
    if got is None:
        got = F._cache["square_roots"] = [0] * F.q
        for x in range(F.q):
            got[F._mul[x][x]] = x
    return got


def _torus_members(F: Field, w: int, rows: list[tuple]) -> list[tuple]:
    """Determinant-one matrices of the given rows of :func:`_torus_rows`:
    at least one in every orbit of the centralizer of B = [[0,1],[-1,w]]
    (x**2 - w*x + 1 irreducible) on the class of trace t, when the rows are
    all of those of trace t.

    K = {xI + yB} is a field of order q**2 whose norm is the determinant,
    N(x + yB) = x**2 + w*x*y + y**2, and s = [[1,0],[w,-1]] inverts B by
    conjugation.  Every matrix is X = M + V*s with M, V in K uniquely, and
    tr X = tr M, det X = N(M) - N(V).  The centralizer of B is the norm-one
    group of K; conjugating by h in it fixes M and maps V to h**2 * V.  So
    for each M of trace t one V per coset of the squared norm-one group on
    the circle of norm N(M) - 1 suffices: V = 0 when N(M) = 1, else one V
    for even q (every element of the odd-order norm-one group is a square)
    and two for odd q, the second being the first times g / conj(g) =
    g**2 / N(g) for some g of non-square norm.  That is at most 2q members
    for odd q and q for even q, against a class of order q**2.

    V*s*B = V*[[0,1],[1,0]] has trace 0 for every V in K, so
    tr(X*B) = tr(M*B) = w*m0 + (w*w - 2)*m1: all members of a row share
    their trace against B.
    """
    q = F.q
    mul, add, sub, neg, inv, sq = F._mul, F._add, F._sub, F._neg, F._inv, F._sq
    mw = mul[w]
    w2m1 = sub[mw[w]][1]

    def norm(x: int, y: int) -> int:
        return add[add[mul[x][x]][mw[mul[x][y]]]][mul[y][y]]

    def kmul(x: tuple, y: tuple) -> tuple:
        return (sub[mul[x[0]][y[0]]][mul[x[1]][y[1]]],
                add[add[mul[x[0]][y[1]]][mul[x[1]][y[0]]]][mw[mul[x[1]][y[1]]]])

    def coeffs(e: tuple) -> tuple:
        # V = x*e adds x*(e0 + w*e1) to a, -x*e1 to b, x*(w*e0 + (w^2-1)*e1) to c
        return add[e[0]][mw[e[1]]], e[1], add[mw[e[0]]][mul[w2m1][e[1]]]

    root = _square_roots(F)
    if q % 2:
        # N(x + B) takes (q + 1)/2 distinct nonzero values, more than there
        # are nonzero squares, so the search always stops
        g = next((x, 1) for x in range(q) if not sq[norm(x, 1)])
        ign = inv[norm(*g)]
        gg = kmul(g, g)
        omega = (mul[gg[0]][ign], mul[gg[1]][ign])
        # norm n = x^2 is met by x and x*omega, n = x^2 * N(g) by x*g and x*g*omega
        on_squares = [coeffs((1, 0)), coeffs(omega)]
        off_squares = [coeffs(g), coeffs(kmul(g, omega))]
    else:
        on_squares, ign, off_squares = [coeffs((1, 0))], 0, []
    out: list[tuple] = []
    for m0, m1 in rows:
        d0 = add[m0][mw[m1]]
        n = sub[add[add[mul[m0][m0]][mw[mul[m0][m1]]]][mul[m1][m1]]][1]  # N(M) - 1
        if not n:
            out.append((m0, m1, neg[m1], d0))
            continue
        if sq[n]:
            x, es = root[n], on_squares
        else:
            x, es = root[mul[n][ign]], off_squares
        for ea, eb, ec in es:
            xa = mul[ea][x]
            out.append((add[m0][xa], sub[m1][mul[eb][x]], sub[mul[ec][x]][m1], sub[d0][xa]))
    return out


def _companion_rows(F: Field, t: int, w: int, edges) -> tuple[list, list]:
    """Rows of the W class of trace t against B = [[0,1],[-1,w]]: the rows M
    of :func:`_torus_rows`, one trace w*m0 + (w*w - 2)*m1 each.

    Returns the row traces and the members of the rows whose trace is in
    ``edges``.
    """
    mul, add, sub = F._mul, F._add, F._sub
    mw = mul[w]
    rows = _torus_rows(F, t, w)
    mk = mul[sub[mw[w]][add[1][1]]]
    taus = [add[mw[m0]][mk[m1]] for m0, m1 in rows]
    return taus, _torus_members(F, w, [rows[i] for e in edges for i in _positions(taus, e)])


def _scan_keys(F: Field, la: ClassLabel, lb: ClassLabel) -> frozenset:
    """Class keys of the product of la's and lb's classes, with the
    operands ordered and the first one's class scanned by rows against the
    canonical representative B of the second, as the module docstring sets
    out; the checks and the tests recompute the closed forms with it.  Only
    the members of rows of trace +-2 are keyed one by one, by
    :func:`_class_keys`; a central factor gives one member, the
    representative of the first factor's class.
    """
    if (la.kind == "U" and lb.kind != "U") or (la.kind, lb.kind) == ("D", "W"):
        la, lb = lb, la
    table = class_table(F)
    rb = table.rep(lb)
    b4 = (rb.a, rb.b, rb.c, rb.d)
    edges = _edge_traces(F)
    t = label_trace(F, la)
    if la.kind == "Z" or lb.kind == "Z":
        ra = table.rep(la)
        taus, members = [], [(ra.a, ra.b, ra.c, ra.d)]
    elif lb.kind == "D":
        taus, members = _diagonal_rows(F, t, rb.a, edges)
    elif lb.kind == "U":
        want = la.square if la.kind == "U" else None
        taus, members = _upper_rows(F, t, rb.a, rb.b, want, edges)
    else:
        taus, members = _companion_rows(F, t, lb.x, edges)
    return frozenset(set(taus).difference(edges)).union(_class_keys(F, members, b4))


def _semisimple_keys(F: Field, la: ClassLabel, lb: ClassLabel) -> frozenset:
    """Class keys of the product of two noncentral D or W classes, read
    off their traces in O(q): every trace other than +-2 (every D and W
    class), Z(r) exactly when t_b = r*t_a, and every U(r, +-) unless
    t_b = r*t_a and both are of kind W (r*r == 1).

    Neither trace is 2r, and a trace other than 2r fixes its class, so
    r*C_a is the class of trace r*t_a and C_b is self-inverse
    (tr Y**-1 = tr Y).

    * D and W: by Macbeath's trace-triple theorem (A. M. Macbeath,
      "Generators of the linear fractional groups", 1969) every (t_a, t_b,
      g) is (tr A, tr B, tr AB) for some A, B of determinant one.  Their
      traces put A in C_a and B in C_b, and for g other than 2r AB lies in
      the class of trace g.
    * Z(r): AB = r*I with A in C_a, B in C_b iff B = r*A**-1, so Z(r)
      appears iff C_b = r*C_a**-1 = r*C_a, that is iff t_b = r*t_a.
    * U(r, +-): r*u (u unipotent, u != I) is A*B iff r*u*Y lies in C_a
      for some Y = B**-1 in C_b, that is iff tr(u*Y) = r*t_a.  Conjugating
      u and Y together, take u = [[1,x],[0,1]], x != 0; for
      Y = [[a,b],[c,d]], tr(u*Y) = t_b + x*c.  Every c != 0 occurs in C_b
      (any a, d = t_b - a, b = (a*d - 1)/c), so for t_b != r*t_a,
      c = (r*t_a - t_b)/x puts every r*u in the product.  For t_b = r*t_a
      it needs c = 0.  A D class has such members (diag(s, 1/s)), so every
      r*u appears.  A W matrix has c != 0, since with c = 0 it would be
      triangular with eigenvalues in GF(q); so tr(u*Y) != t_b and no r*u
      appears.
    """
    ta, tb = label_trace(F, la), label_trace(F, lb)
    out = set(range(F.q)).difference(_edge_traces(F))
    squares = (True,) if F.q % 2 == 0 else (True, False)
    for r in _roots_of_one(F):
        inverse = tb == F._mul[r][ta]  # C_b = r*C_a**-1
        if inverse:
            out.add(ClassLabel("Z", r))
        if not (inverse and la.kind == "W"):
            out.update(ClassLabel("U", r, s) for s in squares)
    return frozenset(out)


def _unipotent_keys(F: Field, la: ClassLabel, lb: ClassLabel) -> frozenset:
    """Class keys of the product of a U class U(r, sigma) and a noncentral
    D or W class of trace t_b, in either operand order, read off the labels
    in O(q): every trace other than +-2, all but r*t_b when the other class
    is of kind W; no Z class; and for each s with s*s == 1 the one class
    U(s, sigma) if t_b - 2*r*s is a square, else U(s, -sigma) (always
    U(1, +) for even q, where every element is a square).  With k roots of
    one (1 for even q, 2 for odd) there are q - k D and W classes, so the
    product has q classes against a D class and q - 1 against a W class.

    The order does not matter: X*Y = Y*(Y**-1*X*Y), so each of C_a*C_b and
    C_b*C_a lies in the other.  Every nonzero nilpotent matrix is
    N = e*[[-a*c, a*a], [-c*c, a*c]] for some e != 0 and v = (a, c) != 0,
    and scaling v by x scales N by x*x.  So U(r, sigma) is the set of
    X = r*(I + N) with e in one square class: v = (1, 0) gives
    [[r, r*e], [0, r]], so sigma is the square class of r*e.  Fix Y in C_b
    and take X over C_a, which gives every class of the product.

    * D and W: tr(X*Y) = r*(t_b + e*Q(a, c)) with
      Q(a, c) = tr(N*Y)/e = det[v | Y*v] = y21*a*a + (y22 - y11)*a*c - y12*c*c,
      a binary quadratic form of discriminant t_b**2 - 4.  It vanishes at
      v exactly when v is an eigenvector of Y.  A D matrix has one over
      GF(q), so Q is isotropic and, being nondegenerate, takes every
      value: tr(X*Y) takes every value.  A W matrix has none, so Q is
      anisotropic, a multiple of the norm form of GF(q**2), and takes
      every value but 0: tr(X*Y) takes every value but r*t_b, an
      irreducible trace since r*C_b is a W class.  A trace other than +-2
      fixes its class, so these are the D and W classes listed.
    * Z(s): s*I = X*Y needs Y = s*X**-1 in a U class, and C_b is not one.
    * U(s, .): s*u' with u' = [[1, f], [0, 1]], f != 0, lies in C_a*C_b iff
      C_b meets C_a**-1 * s*u', that is (t_b is not +-2, so it fixes C_b)
      iff tr(X**-1 * s*u') = t_b for some X in C_a.  With X**-1 =
      r*(I - N) and N' = u' - I, tr((I - N)(I + N')) = 2 - tr(N*N') =
      2 + e*f*c*c, so those traces are r*s*(2 + z) with z = 0 or z in
      e*f times the nonzero squares.  As t_b != 2*r*s, t_b = r*s*(2 + z)
      needs z = r*s*t_b - 2 = r*s*(t_b - 2*r*s) != 0, so s*u' appears iff
      f lies in the square class of e*r*s*(t_b - 2*r*s).  The label of
      s*u' = [[s, s*f], [0, s]] is the square class of s*f, which is then
      that of r*e*(t_b - 2*r*s): sigma when t_b - 2*r*s is a square, and
      -sigma otherwise.
    """
    if la.kind != "U":
        la, lb = lb, la
    r, tb = la.x, label_trace(F, lb)
    mul, sub, sq, two = F._mul, F._sub, F._sq, F._add[1][1]
    out = set(range(F.q)).difference(_edge_traces(F))
    if lb.kind == "W":
        out.discard(mul[r][tb])
    out.update(ClassLabel("U", s, la.square == sq[sub[tb][mul[two][mul[r][s]]]])
               for s in _roots_of_one(F))
    return frozenset(out)


def _closed_form_count(F: Field, la: ClassLabel, lb: ClassLabel, ta: int, tb: int) -> int:
    """len(_product_keys(F, la, lb)) for noncentral classes of traces ta
    and tb, not both of kind U, in O(1).

    With k roots of one (1 for even q, 2 for odd), a U class gives q
    classes against a D class and q - 1 against a W class
    (:func:`_unipotent_keys`).  Two D or W classes give their q - k
    classes, k*k U classes, and for each r with t_b = r*t_a a Z(r), less
    the k U(r, .) when they are of kind W (:func:`_semisimple_keys`).
    """
    q = F.q
    if la.kind == "U" or lb.kind == "U":
        return q - (la.kind == "W" or lb.kind == "W")
    k = 2 if q % 2 else 1
    inverse = (tb == ta) + (k == 2 and tb == F._neg[ta])
    return q - k + k * k + inverse * (1 if la.kind == "D" else 1 - k)


def _product_keys(F: Field, la: ClassLabel, lb: ClassLabel) -> frozenset:
    kinds = {la.kind, lb.kind}
    if "Z" in kinds or kinds == {"U"}:
        return _scan_keys(F, la, lb)
    if "U" in kinds:
        return _unipotent_keys(F, la, lb)
    return _semisimple_keys(F, la, lb)


def class_product_labels(F: Field, A: Mat2, B: Mat2) -> frozenset[ClassLabel]:
    """Labels of every conjugacy class appearing in the product of A's and
    B's classes."""
    _same_field(F, A, B)
    if det(F, A) != 1 or det(F, B) != 1:
        raise ValueError("class products are defined for determinant-one matrices")
    return frozenset(e.label for e in _entries(F, _product_keys(F, classify(F, A), classify(F, B))))


def label_trace(F: Field, label: ClassLabel) -> int:
    """The trace shared by every matrix in the labelled class."""
    return class_table(F).entry(label).trace


def _entries(F: Field, keys) -> list[ClassEntry]:
    # the classes of a set of keys in table order; no Z or U class has a
    # trace key (+-2), and no D or W class a label key
    return [e for e in class_table(F).entries if e.trace in keys or e.label in keys]


def product_report(F: Field, label_a: ClassLabel, label_b: ClassLabel) -> ProductReport:
    """Compute the class decomposition of the product of two labelled
    classes, using the canonical representatives (the result is
    class-invariant).  The labels come in class table order, with the
    table's traces."""
    table = class_table(F)
    for label in (label_a, label_b):
        table.entry(label)  # raises for a label with no class over GF(q)
    t0 = time.perf_counter()
    keys = _product_keys(F, label_a, label_b)
    elapsed = (time.perf_counter() - t0) * 1000.0
    hits = _entries(F, keys)
    traces = tuple(sorted({e.trace for e in hits}))
    return ProductReport(
        F.q, F.p, F.m, F.modulus, label_a, label_b,
        len(hits), tuple(e.label for e in hits), traces, elapsed,
    )


def min_product_classes(F: Field) -> tuple[int, tuple[ClassLabel, ClassLabel]]:
    """Minimum number of classes in a product over unordered noncentral
    pairs, with the first witness pair in table order.

    Products are symmetric in their operands, so unordered pairs suffice.
    Pairs with a D or W factor are counted by the closed forms
    (:func:`_closed_form_count`), from traces computed once; only the U x U
    pairs, at most 10, are scanned.
    """
    noncentral = [(e.label, e.trace) for e in class_table(F).entries if e.label.kind != "Z"]
    best_n: int | None = None
    best_pair: tuple[ClassLabel, ClassLabel] | None = None
    for i, (la, ta) in enumerate(noncentral):
        for lb, tb in noncentral[i:]:
            if la.kind == "U" and lb.kind == "U":
                n = len(_scan_keys(F, la, lb))
            else:
                n = _closed_form_count(F, la, lb, ta, tb)
            if best_n is None or n < best_n:
                best_n, best_pair = n, (la, lb)
    assert best_n is not None and best_pair is not None
    return best_n, best_pair
