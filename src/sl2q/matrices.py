"""2x2 matrices over GF(q) and enumeration of the determinant-one group."""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple

from .field import Field


class Mat2(NamedTuple):
    """Row-major [[a,b],[c,d]] with entries as field codes, tagged with q."""

    a: int
    b: int
    c: int
    d: int
    q: int

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


def _same_field(F: Field, *ms: Mat2) -> None:
    for M in ms:
        if M.q != F.q:
            raise ValueError(f"field mismatch: matrix over GF({M.q}) used with GF({F.q})")


def mat(F: Field, a: int, b: int, c: int, d: int) -> Mat2:
    """Build a matrix over F, validating the entry codes."""
    return Mat2(F.check(a), F.check(b), F.check(c), F.check(d), F.q)


def det(F: Field, M: Mat2) -> int:
    _same_field(F, M)
    return F._sub[F._mul[M.a][M.d]][F._mul[M.b][M.c]]


def sl2_order(q: int) -> int:
    return q * (q * q - 1)


def enumerate_sl2(F: Field) -> Iterator[Mat2]:
    """Yield every determinant-one matrix exactly once, ordered
    lexicographically by (a, b, c, d) codes.

    a == 0 forces b*c == -1; otherwise d = (1 + b*c) / a.  That keeps the
    generator at O(q**3) work instead of filtering q**4 tuples.
    """
    q = F.q
    mul, add, neg, inv = F._mul, F._add, F._neg, F._inv
    for b in range(1, q):
        c = neg[inv[b]]
        for d in range(q):
            yield Mat2(0, b, c, d, q)
    for a in range(1, q):
        ia = inv[a]
        for b in range(q):
            mb = mul[b]
            for c in range(q):
                yield Mat2(a, b, c, mul[ia][add[1][mb[c]]], q)


def from_literal(F: Field, text: str) -> Mat2:
    """Parse the "[[a,b],[c,d]]" literal form.

    Entries are canonical codes.  Negative values are reduced mod p for
    prime fields only; extension fields must use codes, since e.g. -1 has
    no unambiguous digit meaning there.
    """
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"bad matrix literal {text!r}: {e}") from None
    ok = (
        isinstance(rows, list) and len(rows) == 2
        and all(isinstance(r, list) and len(r) == 2 for r in rows)
        and all(isinstance(v, int) and not isinstance(v, bool) for r in rows for v in r)
    )
    if not ok:
        raise ValueError(f"bad matrix literal {text!r}: expected [[a,b],[c,d]] with integer entries")
    vals = [v for r in rows for v in r]
    if any(v < 0 for v in vals):
        if F.m != 1:
            raise ValueError(
                f"negative entries are only accepted for prime fields; GF({F.q}) needs codes in [0, {F.q})"
            )
        vals = [v % F.p for v in vals]
    return mat(F, *vals)
