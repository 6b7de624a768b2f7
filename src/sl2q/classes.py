"""Conjugacy classes of the determinant-one group over GF(q).

Every class gets a compact canonical label:

* ``Z(r)``          scalar r*I with r*r == 1 (the center);
* ``D(r)``          diagonalizable over GF(q) with eigenvalue pair
                    {r, 1/r}, r not +-1, keyed by the smaller code;
* ``U(s,+)/U(s,-)`` non-scalar with repeated eigenvalue s (s*s == 1),
                    split by the square class of the off-diagonal
                    parameter (the ``-`` variant exists only for odd q);
* ``W(w)``          characteristic polynomial x**2 - w*x + 1 irreducible
                    over GF(q), keyed by the trace w.

Labels biject with conjugacy classes, so label equality is the similarity
test.  The eigenvalue analysis is done by a linear scan over GF(q) rather
than discriminant formulas: it is uniform across characteristics (the
char-2 discriminant degenerates) and O(q) is negligible here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .field import Field
from .matrices import Mat2, det, mat, sl2_order

_LABEL_RE = re.compile(r"^([ZDUW])\((\d+)(?:,([+-]))?\)$")


class ClassLabel(NamedTuple):
    kind: str
    x: int
    square: bool = True

    def __str__(self) -> str:
        if self.kind == "U":
            return f"U({self.x},{'+' if self.square else '-'})"
        return f"{self.kind}({self.x})"

    @staticmethod
    def parse(text: str) -> "ClassLabel":
        m = _LABEL_RE.match(text.strip())
        if not m:
            raise ValueError(f"bad class label {text!r}")
        kind, x, sign = m.group(1), int(m.group(2)), m.group(3)
        if (kind == "U") != (sign is not None):
            raise ValueError(f"bad class label {text!r}: the +/- marker belongs to U labels only")
        return ClassLabel(kind, x, sign != "-")


@dataclass(frozen=True)
class ClassEntry:
    label: ClassLabel
    rep: Mat2
    size: int
    trace: int  # shared by every member of the class


@dataclass(frozen=True)
class ClassTable:
    """All conjugacy classes over GF(q) in deterministic order: central,
    then D, U, W families, each by ascending code, U(s,+) before U(s,-).
    This is the one class order; reports list their labels in it."""

    q: int
    entries: tuple[ClassEntry, ...]

    def __post_init__(self):
        total = sum(e.size for e in self.entries)
        if total != sl2_order(self.q):
            raise ValueError(f"class sizes sum to {total}, not the group order "
                             f"{sl2_order(self.q)} of SL(2, {self.q})")

    @cached_property
    def _by_label(self) -> dict[ClassLabel, ClassEntry]:
        return {e.label: e for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, label: ClassLabel) -> ClassEntry:
        try:
            return self._by_label[label]
        except KeyError:
            raise ValueError(f"no conjugacy class {label} over GF({self.q})") from None

    def rep(self, label: ClassLabel) -> Mat2:
        return self.entry(label).rep

    def size(self, label: ClassLabel) -> int:
        return self.entry(label).size

    def labels(self) -> list[ClassLabel]:
        return [e.label for e in self.entries]

    def noncentral_labels(self) -> list[ClassLabel]:
        return [e.label for e in self.entries if e.label.kind != "Z"]

    def to_json(self, F: Field) -> dict:
        return {
            "q": self.q,
            "p": F.p,
            "m": F.m,
            "modulus": list(F.modulus),
            "order": sl2_order(self.q),
            "classes": [
                {"label": str(e.label), "rep": e.rep.rows(), "size": e.size}
                for e in self.entries
            ],
        }


def _trace_kinds(F: Field) -> list[tuple]:
    """Per-trace eigenvalue analysis: index t holds the label of the one
    class of trace t, ClassLabel('D', min_eigenvalue) or ClassLabel('W', t),
    or ('U', s) at the trace 2s (s*s == 1) that Z(s) and the U(s, +-) share.

    Built by running r over the nonzero codes: x**2 - t*x + 1 has root pair
    {r, 1/r} exactly when t = r + 1/r, a repeated root forces r*r == 1, and
    traces hit by no pair are the irreducible ones.
    """
    got = F._cache.get("trace_kinds")
    if got is not None:
        return got
    add, inv = F._add, F._inv
    kinds: list[tuple] = [ClassLabel("W", t) for t in range(F.q)]
    for r in range(1, F.q):
        ri = inv[r]
        t = add[r][ri]
        if r == ri:
            kinds[t] = ("U", r)
        elif r < ri:
            kinds[t] = ClassLabel("D", r)
    F._cache["trace_kinds"] = kinds
    return kinds


def _label_tuples(F: Field, members: list[tuple], b4: tuple) -> set[tuple]:
    """Label tuples (kind, x, square) of every X*B, X over ``members``,
    without building Mat2 objects; the one home of the labelling branch.

    A repeated-root trace splits on the off-diagonal entries: scalars are
    the center, and otherwise the square class is read from -m21, or from
    m12 when m21 == 0.  Every conjugate of [[s,u],[0,s]] has m12 = u*d*d
    and m21 = -u*c*c, so both entries carry u's square class.
    """
    mul, add, neg, sq = F._mul, F._add, F._neg, F._sq
    kinds = _trace_kinds(F)
    ba, bb, bc, bd = b4
    out: set[tuple] = set()
    for xa, xb, xc, xd in members:
        pa = add[mul[xa][ba]][mul[xb][bc]]
        pb = add[mul[xa][bb]][mul[xb][bd]]
        pc = add[mul[xc][ba]][mul[xd][bc]]
        pd = add[mul[xc][bb]][mul[xd][bd]]
        info = kinds[add[pa][pd]]
        k = info[0]
        if k == "U":
            if pc:
                out.add(("U", info[1], sq[neg[pc]]))
            elif pb:
                out.add(("U", info[1], sq[pb]))
            else:
                out.add(("Z", pa, True))
        else:
            out.add(info)
    return out


def _roots_of_one(F: Field) -> list[int]:
    """Ascending r with r*r == 1: just 1 for even q, else 1 and -1."""
    return [1] if F.q % 2 == 0 else sorted({1, F._neg[1]})


def irreducible_traces(F: Field) -> list[int]:
    """Ascending w with x**2 - w*x + 1 irreducible over GF(q).

    There are (q-1)/2 of them for odd q and q/2 for even q.
    """
    kinds = _trace_kinds(F)
    return [t for t in range(F.q) if kinds[t][0] == "W"]


def class_table(F: Field) -> ClassTable:
    """Canonical representatives, class sizes and traces, cached per field.

    Sizes are the closed counts (central 1, D: q(q+1), U: (q*q-1)/2 for odd
    q and q*q-1 for even q, W: q(q-1)); the test suite validates them
    against brute-force orbits for small q.
    """
    got = F._cache.get("class_table")
    if got is not None:
        return got
    q = F.q
    entries = []

    def put(label: ClassLabel, a: int, b: int, c: int, d: int, size: int) -> None:
        entries.append(ClassEntry(label, mat(F, a, b, c, d), size, F._add[a][d]))

    for r in _roots_of_one(F):
        put(ClassLabel("Z", r), r, 0, 0, r, 1)
    for r in range(2, q):
        ri = F._inv[r]
        if r < ri:
            put(ClassLabel("D", r), r, 0, 0, ri, q * (q + 1))
    u_size = q * q - 1 if q % 2 == 0 else (q * q - 1) // 2
    u_params = (1,) if q % 2 == 0 else (1, F.least_nonsquare)
    for s in _roots_of_one(F):
        for u in u_params:
            put(ClassLabel("U", s, u == 1), s, u, 0, s, u_size)
    for w in irreducible_traces(F):
        put(ClassLabel("W", w), 0, 1, F._neg[1], w, q * (q - 1))
    table = ClassTable(q, tuple(entries))
    F._cache["class_table"] = table
    return table


def classify(F: Field, M: Mat2) -> ClassLabel:
    """Canonical label of M's conjugacy class; requires det(M) == 1.

    The branch on trace kind is :func:`_label_tuples`, applied to M times
    the identity.
    """
    if det(F, M) != 1:
        raise ValueError("classify requires determinant 1")
    (label,) = _label_tuples(F, [(M.a, M.b, M.c, M.d)], (1, 0, 0, 1))
    return ClassLabel(*label)
