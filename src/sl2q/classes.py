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
test.  The eigenvalue analysis is one linear scan over GF(q) in
:func:`class_table` rather than discriminant formulas: it is uniform across
characteristics (the char-2 discriminant degenerates) and O(q) is
negligible here.  The table's per-trace index (``ClassTable.by_trace``)
then serves every lookup of a class by its trace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .field import MAX_FIELD_SIZE, Field
from .matrices import Mat2, det, sl2_order

_LABEL_RE = re.compile(r"^([ZDUW])\((\d+)(?:,([+-]))?\)$")
_KINDS = ("Z", "D", "U", "W")
# a mask's binary digits as the bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")

# str() of each label made so far of one of the four kinds, an int code below
# MAX_FIELD_SIZE and a bool flag, keyed by the label: so never more than
# 8 * MAX_FIELD_SIZE texts
_LABEL_TEXT: dict = {}


class ClassLabel(NamedTuple):
    """A class label.  Its text is formatted on its first str() and then,
    for a label of a field, read from the cache ``_LABEL_TEXT``."""

    kind: str
    x: int
    square: bool = True

    def __str__(self) -> str:
        # a code equal to an int but of another type (5.0, True) prints
        # otherwise, so only an int code reads the cache; an equal flag has
        # the same truth value, so it prints the same sign
        exact = type(self.x) is int
        if exact and (text := _LABEL_TEXT.get(self)) is not None:
            return text
        if self.kind == "U":
            text = f"U({self.x},{'+' if self.square else '-'})"
        else:
            text = f"{self.kind}({self.x})"
        if (exact and type(self.square) is bool and self.kind in _KINDS
                and 0 <= self.x < MAX_FIELD_SIZE):
            _LABEL_TEXT[self] = text
        return text

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
    This is the one class order; reports list their labels in it.

    A set of classes is an int, its class mask: bit i is the class at
    position i (see products.py).  ``label_bits``, ``trace_bits`` and
    ``semisimple_mask`` write masks; ``select``, ``entry`` and
    :func:`classify` read them, and a stray bit, one at or past the
    table's length, raises ``ValueError`` in ``select``.  The bit lookups
    are built on first use, and so is each read-back column,
    ``entry_labels``, ``entry_traces`` and ``entry_texts`` (each label's
    str()): building the table and counting products
    (``min_product_classes``) reads nothing back, and a report reads its
    traces and texts only when asked."""

    q: int
    entries: tuple[ClassEntry, ...]

    def __post_init__(self):
        total = sum(e.size for e in self.entries)
        if total != sl2_order(self.q):
            raise ValueError(f"class sizes sum to {total}, not the group order "
                             f"{sl2_order(self.q)} of SL(2, {self.q})")

    @cached_property
    def by_trace(self) -> list[ClassEntry]:
        """Index t holds the one D or W entry of trace t, or Z(s)'s entry at
        the trace 2s (s*s == 1) that Z(s) shares with the U(s, +-)."""
        out = [None] * self.q
        for e in self.entries:
            if e.label.kind != "U":
                out[e.trace] = e
        return out

    @cached_property
    def label_bits(self) -> dict[ClassLabel, int]:
        # each label's bit; a (kind, code, flag) tuple equals its label
        return {e.label: 1 << i for i, e in enumerate(self.entries)}

    @cached_property
    def trace_bits(self) -> list[int]:
        """Index t holds the bit of the D or W class of trace t, and 0 at the
        traces 2s (s*s == 1), which no one class owns."""
        return [0 if e.label.kind == "Z" else self.label_bits[e.label] for e in self.by_trace]

    @cached_property
    def semisimple_mask(self) -> int:
        # the D and W classes, those of every trace but the 2s, s*s == 1
        return sum(self.trace_bits)

    @cached_property
    def entry_labels(self) -> tuple[ClassLabel, ...]:
        return tuple(e.label for e in self.entries)

    @cached_property
    def entry_traces(self) -> tuple[int, ...]:
        return tuple(e.trace for e in self.entries)

    @cached_property
    def entry_texts(self) -> tuple[str, ...]:
        return tuple(map(str, self.entry_labels))

    def __len__(self) -> int:
        return len(self.entries)

    def select(self, mask: int) -> bytes:
        """One byte per table position, 1 where ``mask`` has its bit, else
        0: the selectors that ``itertools.compress`` takes over a column.
        A bit at or past the table's length names no class, so it raises
        (a negative mask has infinitely many)."""
        n = len(self)
        if mask >> n:
            raise ValueError(f"a class mask over GF({self.q}) has a bit at or past "
                             f"position {n}, its number of classes")
        return format(mask, f"0{n}b").encode().translate(_DIGIT_BYTES)[::-1]

    def entry(self, label: ClassLabel) -> ClassEntry:
        try:  # the one set bit of the class is its position, as in classify
            return self.entries[self.label_bits[label].bit_length() - 1]
        except KeyError:
            raise ValueError(f"no conjugacy class {label} over GF({self.q})") from None

    def rep(self, label: ClassLabel) -> Mat2:
        return self.entry(label).rep

    def size(self, label: ClassLabel) -> int:
        return self.entry(label).size

    def labels(self) -> list[ClassLabel]:
        return list(self.entry_labels)

    def noncentral_labels(self) -> list[ClassLabel]:
        return [l for l in self.entry_labels if l.kind != "Z"]

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


def _class_keys(F: Field, members: list[tuple], b4: tuple) -> int:
    """Class mask of every X*B, X over ``members``, without building Mat2
    objects; the one home of the labelling branch.

    A trace other than +-2 fixes its class (D or W), whose bit the table
    looks up by that trace; a Z or U class's bit is looked up by its label.
    A repeated-root trace splits on the off-diagonal entries: scalars are
    the center, and otherwise the square class is read from -m21, or from
    m12 when m21 == 0.  Every conjugate of [[s,u],[0,s]] has m12 = u*d*d
    and m21 = -u*c*c, so both entries carry u's square class.
    """
    mul, add, neg, sq = F._mul, F._add, F._neg, F._sq
    table = class_table(F)
    by_trace, trace_bits, bits = table.by_trace, table.trace_bits, table.label_bits
    ba, bb, bc, bd = b4
    out = 0
    for xa, xb, xc, xd in members:
        pa = add[mul[xa][ba]][mul[xb][bc]]
        pb = add[mul[xa][bb]][mul[xb][bd]]
        pc = add[mul[xc][ba]][mul[xd][bc]]
        pd = add[mul[xc][bb]][mul[xd][bd]]
        t = add[pa][pd]
        label = by_trace[t].label
        if label.kind != "Z":
            out |= trace_bits[t]
        elif pc:
            out |= bits["U", label.x, sq[neg[pc]]]
        elif pb:
            out |= bits["U", label.x, sq[pb]]
        else:
            out |= bits["Z", pa, True]
    return out


def _roots_of_one(F: Field) -> tuple[int, ...]:
    """Ascending r with r*r == 1: just 1 for even q, else 1 and -1, whose
    code p - 1 exceeds 1 for odd p."""
    return (1,) if F.q % 2 == 0 else (1, F._neg[1])


def class_table(F: Field) -> ClassTable:
    """Canonical representatives, class sizes and traces, cached per field.

    The one eigenvalue pass: x**2 - t*x + 1 has root pair {r, 1/r} exactly
    when t = r + 1/r, and a repeated root forces r*r == 1.  So r over the
    codes gives the central classes and one D class per pair r < 1/r, and
    the traces that no class hits are the irreducible ones (W).

    Sizes are the closed counts (central 1, D: q(q+1), U: (q*q-1)/2 for odd
    q and q*q-1 for even q, W: q(q-1)); the test suite validates them
    against brute-force orbits for small q.  The representatives' entries
    are codes the field itself produced (its ranges and table entries), so
    they are built as Mat2 unchecked, not through matrices.mat.
    """
    got = F._cache.get("class_table")
    if got is not None:
        return got
    q = F.q
    entries = []

    def put(label: ClassLabel, a: int, b: int, c: int, d: int, size: int) -> None:
        entries.append(ClassEntry(label, Mat2(a, b, c, d, q), size, F._add[a][d]))

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
    hit = {e.trace for e in entries}
    for w in range(q):
        if w not in hit:
            put(ClassLabel("W", w), 0, 1, F._neg[1], w, q * (q - 1))
    table = ClassTable(q, tuple(entries))
    F._cache["class_table"] = table
    return table


def classify(F: Field, M: Mat2) -> ClassLabel:
    """Canonical label of M's conjugacy class; requires det(M) == 1.

    The branch on trace kind is :func:`_class_keys`, applied to M times
    the identity: its one bit is the table position of M's class.
    """
    if det(F, M) != 1:
        raise ValueError("classify requires determinant 1")
    mask = _class_keys(F, [(M.a, M.b, M.c, M.d)], (1, 0, 0, 1))
    return class_table(F).entries[mask.bit_length() - 1].label
