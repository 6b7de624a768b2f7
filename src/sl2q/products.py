"""Products of conjugacy classes, each read off a closed form.

The product of two conjugacy classes is closed under conjugation, hence a
union of whole classes.  These helpers compute which classes appear, how
many, and the group-wide minimum of that count over noncentral pairs.

Fixing the second factor is enough: conjugating both factors only
conjugates the product, so the class set of {X*B : X in A's class} equals
that of the full double product (the tests verify this against double
enumeration for small q).  Every product is computed from the class labels
with both factors at their canonical representatives, as it is
class-invariant.

A product is an int, a mask with one bit per class: bit i is set when
the class at position i of the class table is in the product, so the
class count is ``bit_count()`` and two products compare in O(1) words.
The kernels look every bit up in the table: a D or W class by its trace
(``ClassTable.trace_bits``), a Z or U class by its label
(``ClassTable.label_bits``), and every trace but +-2 is one mask per
table (``ClassTable.semisimple_mask``), which the D, W and U closed forms
extend or cut.  A mask is read back in one place, :func:`_selectors`: its
binary text, one byte per table position, selects through
``itertools.compress`` the labels and traces of the classes hit
(``ClassTable.entry_labels``, ``entry_traces``).  A bit at or past the
table's length names no class and raises ``ValueError``, so a report's
count and its labels always agree.  Each label's text (``ClassLabel``) is
made on its first str().

No class is enumerated: each pair kind has one closed form, read off the
labels and traces with its proof in its docstring, and
:func:`_product_keys` picks it.

* a central factor, Z(r) x C: the one class r*C, in O(1)
  (:func:`_central_keys`);
* two D or W classes: :func:`_semisimple_keys`, in O(q);
* a U class against a D or W class: :func:`_unipotent_keys`, in O(q);
* two U classes: :func:`_upper_upper_keys`, in O(q).

The docstrings of :func:`_semisimple_keys` and :func:`_unipotent_keys`
also count the classes of every noncentral pair with a D or W factor.
Those counts show that only a pair with a U factor can attain the
minimum over noncentral pairs (:func:`min_product_classes` proves it),
so the minimum builds at most 10 U x U masks of O(q), counted by their
bits, and takes each U x W count, q - 1, from the proof, in O(q) per
field.  Per field only the class table is cached, with its lookups and
columns.  The checks in checks.py read every closed form through
:func:`_product_keys`, as the library serves it, and recompute it with a
row scan of one factor's class, on purpose, so that they check the closed
forms rather than trust them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress

from .classes import ClassEntry, ClassLabel, ClassTable, _roots_of_one, class_table, classify
from .field import Field
from .matrices import Mat2, _same_field, det

CSV_HEADER = "q,p,m,a,b,eta,n_traces,elapsed_ms"

# the rank of a kind as the first operand of a closed form: Z, then U, then D or W
_FIRST = {"Z": 0, "U": 1}
# a mask's binary digits as the bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


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


def _semisimple_keys(F: Field, la: ClassLabel, lb: ClassLabel) -> int:
    """Class mask of the product of two noncentral D or W classes, read
    off their traces in O(q): every trace other than +-2 (every D and W
    class), Z(r) exactly when t_b = r*t_a, and every U(r, +-) unless
    t_b = r*t_a and both are of kind W (r*r == 1).

    With k roots of one (1 for even q, 2 for odd) there are q - k D and W
    classes and k*k U classes, so the product has
    q - k + k*k + inverse*delta classes, with inverse <= k the number of r
    with t_b = r*t_a, and delta = 1 for a D first factor (Z(r) gained) and
    1 - k for a W one (Z(r) gained, the k U(r, .) lost); r*C_a has the kind
    of C_a, so the first factor's kind is the pair's.

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
    table = class_table(F)
    ta, tb = table.entry(la).trace, table.entry(lb).trace
    bits, out = table.label_bits, table.semisimple_mask
    for r in _roots_of_one(F):
        inverse = tb == F._mul[r][ta]  # C_b = r*C_a**-1
        if inverse:
            out |= bits["Z", r, True]
        if not (inverse and la.kind == "W"):  # U(r, -) exists for odd q only
            out |= bits["U", r, True] | bits.get(("U", r, False), 0)
    return out


def _unipotent_keys(F: Field, la: ClassLabel, lb: ClassLabel) -> int:
    """Class mask of the product of a U class U(r, sigma), taken first, and
    a noncentral D or W class of trace t_b, read off the labels in O(q):
    every trace other than +-2, all but r*t_b when the other class is of
    kind W; no Z class; and for each s with s*s == 1 the one class
    U(s, sigma) if t_b - 2*r*s is a square, else U(s, -sigma) (always
    U(1, +) for even q, where every element is a square).  With k roots of
    one (1 for even q, 2 for odd) there are q - k D and W classes, so the
    product has q classes against a D class and q - 1 against a W class.

    The order does not matter, so :func:`_product_keys` puts the U class
    first: X*Y = Y*(Y**-1*X*Y), so each of C_a*C_b and C_b*C_a lies in
    the other.  Every nonzero nilpotent matrix is
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
    table = class_table(F)
    r, tb = la.x, table.entry(lb).trace
    mul, sub, sq, two = F._mul, F._sub, F._sq, F._add[1][1]
    bits, out = table.label_bits, table.semisimple_mask
    if lb.kind == "W":
        out &= ~table.trace_bits[mul[r][tb]]
    for s in _roots_of_one(F):
        out |= bits["U", s, la.square == sq[sub[tb][mul[two][mul[r][s]]]]]
    return out


def _central_keys(F: Field, la: ClassLabel, lb: ClassLabel) -> int:
    """Class mask of the product of a central class Z(r), taken first, and a
    class C, read off the labels in O(1): the one class r*C (and C*Z(r) is
    the same class, as :func:`_product_keys` relies on).

    Z(r)*C = {r*X : X in C} is a class, as r*I commutes with every
    conjugator.  r*X has trace r*t, which keys the D or W class of a D or
    W class C; r*Z(s) is Z(rs); and r*[[s,u],[0,s]] = [[rs,ru],[0,rs]], so
    U(s, sigma) goes to U(rs, sigma) when r is a square and to
    U(rs, -sigma) otherwise.
    """
    table, r, mul = class_table(F), la.x, F._mul
    if lb.kind in ("D", "W"):
        return table.trace_bits[mul[r][table.entry(lb).trace]]
    # a Z label's flag is always +
    return table.label_bits[lb.kind, mul[r][lb.x], lb.kind == "Z" or lb.square == F._sq[r]]


def _upper_upper_keys(F: Field, la: ClassLabel, lb: ClassLabel) -> int:
    """Class mask of the product of two U classes, read off their labels in
    O(q).  With representatives [[r,u],[0,r]] of la = U(r, sigma) and
    Y = [[s,w],[0,s]] of lb, the product holds:

    * every trace 2rs - u*w*x over the nonzero squares x, but -2rs;
    * U(-rs, sigma if s is a square, else -sigma), when -2rs is one of
      those traces;
    * for each nonzero square x, with v = r*w + s*u*x, Z(rs) if v = 0, else
      U(rs, square class of v).

    Fix Y and take X = [[r,u],[0,r]] conjugated by every C = [[a,b],[c,d]]
    of determinant one, which gives every class of the product.  That
    conjugate is [[r + u*c*d, u*d*d], [-u*c*c, r - u*c*d]], so P = X**C * Y
    has lower-left entry -s*u*c*c and trace 2rs - u*w*c*c
    (``trace_form_upper_upper`` in checks.py).

    * c != 0: every c != 0 occurs (a = 0, b = -1/c), so P's traces are
      2rs - u*w*x over the nonzero squares x = c*c, never 2rs.  As rs*rs
      is 1, the traces +-2rs are the only ones of the Z and U classes, so
      a trace other than -2rs keys its D or W class.  P is not scalar, as
      its lower-left entry is nonzero; at the trace -2rs (odd q only, since
      -2rs = 2rs for even q) it lies in U(-rs, .) with the square class of
      minus that entry, s*u*c*c, which is that of s*u.
    * c = 0: then a*d = 1, and P = [[rs, v], [0, rs]] with
      v = r*w + s*u*d*d over the nonzero squares d*d: the scalar Z(rs) when
      v = 0, else U(rs, square class of v).

    No case split on q is needed: at q = 5, U(1,+) * U(1,+) has v in
    {1 + 1, 1 + 4} = {2, 0}, so Z(1) and U(1,-) but no U(1,+).
    """
    table = class_table(F)
    r, u, s, w = la.x, table.rep(la).b, lb.x, table.rep(lb).b
    mul, add, sub, neg, sq = F._mul, F._add, F._sub, F._neg, F._sq
    rs = mul[r][s]
    two_rs, uw, rw, su = add[rs][rs], mul[u][w], mul[r][w], mul[s][u]
    bits = table.label_bits
    squares = [x for x in range(1, F.q) if sq[x]]
    traces = {sub[two_rs][mul[uw][x]] for x in squares}
    # distinct traces have distinct bits, and the trace -2rs has none
    out = sum(map(table.trace_bits.__getitem__, traces))
    if neg[two_rs] in traces:  # so it is the class U(-rs, .)
        out |= bits["U", neg[rs], sq[s] == sq[u]]
    for v in {add[rw][mul[su][x]] for x in squares}:
        out |= bits["U", rs, sq[v]] if v else bits["Z", rs, True]
    return out


def _product_keys(F: Field, la: ClassLabel, lb: ClassLabel) -> int:
    # the one closed form for the pair's kinds, with the operands ordered
    # once: a Z factor first, else a U factor, as each kernel takes them
    if _FIRST.get(lb.kind, 2) < _FIRST.get(la.kind, 2):
        la, lb = lb, la
    if la.kind == "Z":
        return _central_keys(F, la, lb)
    if la.kind == "U":
        return (_upper_upper_keys if lb.kind == "U" else _unipotent_keys)(F, la, lb)
    return _semisimple_keys(F, la, lb)


def class_product_labels(F: Field, A: Mat2, B: Mat2) -> frozenset[ClassLabel]:
    """Labels of every conjugacy class appearing in the product of A's and
    B's classes."""
    _same_field(F, A, B)
    if det(F, A) != 1 or det(F, B) != 1:
        raise ValueError("class products are defined for determinant-one matrices")
    table = class_table(F)
    mask = _product_keys(F, classify(F, A), classify(F, B))
    return frozenset(compress(table.entry_labels, _selectors(table, mask)))


def label_trace(F: Field, label: ClassLabel) -> int:
    """The trace shared by every matrix in the labelled class."""
    return class_table(F).entry(label).trace


def _selectors(table: ClassTable, mask: int) -> bytes:
    # one byte per table position, 1 where `mask` has its bit, else 0; a
    # bit at or past the table's length names no class, so it raises
    n = len(table)
    if mask >> n:
        raise ValueError(f"a class mask over GF({table.q}) has a bit at or past "
                         f"position {n}, its number of classes")
    return format(mask, f"0{n}b").encode().translate(_DIGIT_BYTES)[::-1]


def _entries(F: Field, mask: int) -> list[ClassEntry]:
    # the classes of a mask in table order
    table = class_table(F)
    return list(compress(table.entries, _selectors(table, mask)))


def product_report(F: Field, label_a: ClassLabel, label_b: ClassLabel) -> ProductReport:
    """Compute the class decomposition of the product of two labelled
    classes, using the canonical representatives (the result is
    class-invariant).  The labels come in class table order, with the
    table's traces."""
    table = class_table(F)
    for label in (label_a, label_b):
        table.entry(label)  # raises for a label with no class over GF(q)
    t0 = time.perf_counter()
    mask = _product_keys(F, label_a, label_b)
    elapsed = (time.perf_counter() - t0) * 1000.0
    selectors = _selectors(table, mask)
    labels = tuple(compress(table.entry_labels, selectors))
    traces = tuple(sorted(set(compress(table.entry_traces, selectors))))
    return ProductReport(F.q, F.p, F.m, F.modulus, label_a, label_b,
                         mask.bit_count(), labels, traces, elapsed)


def min_product_classes(F: Field) -> tuple[int, tuple[ClassLabel, ClassLabel]]:
    """Minimum number of classes in a product over unordered noncentral
    pairs, with the first witness pair in table order.

    Products are symmetric in their operands, so unordered pairs suffice,
    each with its first factor not after its second in table order (Z, D,
    U, W).  Only pairs with a U factor can attain the minimum.  With k
    roots of one (1 for even q, 2 for odd), the kernels' docstrings count:

    * two D or W classes (:func:`_semisimple_keys`):
      q - k + k*k + inverse*delta, with inverse <= k and delta = 1 or
      1 - k.  For k = 1 that is at least q; for k = 2 it is
      q + 2 +- inverse with inverse <= 2, at least q too;
    * a U class against a D class: q; against a W class: q - 1
      (:func:`_unipotent_keys`).

    Every q >= 2 has a U(1, +) class and at least one W class, so the
    minimum is at most q - 1, and no pair without a U factor, nor a U x D
    pair, reaches it.  So for each U class U_i in table order the loop
    counts U_i against every U_j, j >= i, by the bits of its mask, and then
    against the first W class, as q - 1: the surviving pairs in the table
    order of the all-pairs loop.  Every later U_i x W pair counts the same
    q - 1, so none can be a first witness under the strict ``<``.  That is
    at most 10 U x U masks of O(q) (1 for even q), and no D or W closed
    form is built.
    """
    entries = class_table(F).entries
    unipotent = [e.label for e in entries if e.label.kind == "U"]
    first_w = next(e.label for e in entries if e.label.kind == "W")
    best = None
    for i, la in enumerate(unipotent):
        for lb in (*unipotent[i:], first_w):
            n = F.q - 1 if lb.kind == "W" else _product_keys(F, la, lb).bit_count()
            if best is None or n < best[0]:
                best = n, (la, lb)
    return best
