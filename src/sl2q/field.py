"""Exact arithmetic in the Galois field GF(p**m).

Elements are integer codes in [0, q): the base-p digits of a code are the
coefficients of the residue polynomial, digit k holding the coefficient of
x**k.  Code 0 is the additive identity, code 1 the multiplicative identity,
and the encoding is bijective, so codes double as compact hash keys.

All arithmetic is table-driven.  The multiplication table is filled from
discrete-log (exp/log) tables over a generator of the multiplicative group,
the usual speed trick once q reaches 64 or so; construction stays O(q**2)
integer work even for extension fields.
"""

from __future__ import annotations

import functools
import itertools

# Table-driven design bound: add/sub/mul tables hold q*q entries each.
MAX_FIELD_SIZE = 1024


def is_prime(n: int) -> bool:
    """Trial-division primality test; ample for the supported field sizes."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def _digits_of(code: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        code, r = divmod(code, p)
        out.append(r)
    return out


def _code_of(digits: list[int], p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _poly_eval(p: int, poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


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


def _is_irreducible(p: int, poly: list[int]) -> bool:
    deg = len(poly) - 1
    if deg == 1:
        return True
    if any(_poly_eval(p, poly, x) == 0 for x in range(p)):
        return False
    if deg <= 3:
        return True
    # no root rules out linear factors; any remaining factorization has a
    # monic factor of degree <= deg // 2
    for d in range(2, deg // 2 + 1):
        for k in range(p**d):
            if _poly_divides(p, _digits_of(k, p, d) + [1], poly):
                return False
    return True


def find_modulus(p: int, m: int) -> tuple[int, ...]:
    """Canonical degree-m modulus over GF(p).

    The monic irreducible whose coefficient tuple is lexicographically
    smallest, comparing from the constant term upward.  Deterministic, so
    encodings are reproducible across runs and machines.
    """
    for coeffs in itertools.product(range(p), repeat=m):
        poly = list(coeffs) + [1]
        if _is_irreducible(p, poly):
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
    threads or processes; every operation is a pure table lookup.  Build
    them through :func:`make_field`.
    """

    __slots__ = (
        "p", "m", "q", "modulus", "primitive_elem", "least_nonsquare",
        "_add", "_sub", "_mul", "_neg", "_inv", "_sq", "_cache",
    )

    def __init__(self, p: int, m: int):
        q = p**m
        self.p, self.m, self.q = p, m, q
        self.modulus = find_modulus(p, m)
        mod = list(self.modulus)

        def mul_fn(x: int, y: int) -> int:
            prod = [0] * (2 * m - 1) if m > 1 else [0]
            xd = _digits_of(x, p, m)
            yd = _digits_of(y, p, m)
            for i, xi in enumerate(xd):
                if xi:
                    for j, yj in enumerate(yd):
                        prod[i + j] = (prod[i + j] + xi * yj) % p
            for k in range(len(prod) - 1, m - 1, -1):
                c = prod[k]
                if c:
                    prod[k] = 0
                    for i in range(m):
                        prod[k - m + i] = (prod[k - m + i] - c * mod[i]) % p
            return _code_of(prod[:m], p)

        def pow_fn(x: int, n: int) -> int:
            r = 1
            while n:
                if n & 1:
                    r = mul_fn(r, x)
                x = mul_fn(x, x)
                n >>= 1
            return r

        factors = prime_factors(q - 1)
        self.primitive_elem = next(
            g for g in range(1, q)
            if all(pow_fn(g, (q - 1) // f) != 1 for f in factors)
        )

        exp = [1]
        for _ in range(q - 2):
            exp.append(mul_fn(exp[-1], self.primitive_elem))
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i

        elems = list(range(q))  # shared int objects keep the tables lean
        if p == 2:
            self._neg = elems
            self._add = [[elems[x ^ y] for y in elems] for x in elems]
        else:
            digs = [_digits_of(x, p, m) for x in elems]
            self._neg = [_code_of([(p - d) % p for d in dx], p) for dx in digs]
            add = []
            for dx in digs:
                row = [0] * q
                for y, dy in enumerate(digs):
                    row[y] = elems[_code_of([(a + b) % p for a, b in zip(dx, dy)], p)]
                add.append(row)
            self._add = add
        self._sub = [[self._add[x][self._neg[y]] for y in elems] for x in elems]

        n1 = q - 1
        mul_table: list[list[int]] = [[0] * q]
        for x in range(1, q):
            lx = log[x]
            row = [0] * q
            for y in range(1, q):
                row[y] = exp[(lx + log[y]) % n1]
            mul_table.append(row)
        self._mul = mul_table

        inv = [0] * q
        for x in range(1, q):
            inv[x] = exp[(n1 - log[x]) % n1]
        self._inv = inv

        if p == 2:
            self._sq = [True] * q
            self.least_nonsquare = None
        else:
            sq = [x == 0 or log[x] % 2 == 0 for x in range(q)]
            self._sq = sq
            self.least_nonsquare = next(x for x in range(q) if not sq[x])

        self._cache: dict = {}

    # -- element operations ------------------------------------------------

    def check(self, x: int) -> int:
        """Validate an element code, returning it unchanged."""
        if not isinstance(x, int) or not 0 <= x < self.q:
            raise ValueError(f"invalid element code {x!r} for GF({self.q})")
        return x

    def add(self, x: int, y: int) -> int:
        return self._add[self.check(x)][self.check(y)]

    def sub(self, x: int, y: int) -> int:
        return self._sub[self.check(x)][self.check(y)]

    def neg(self, x: int) -> int:
        return self._neg[self.check(x)]

    def mul(self, x: int, y: int) -> int:
        return self._mul[self.check(x)][self.check(y)]

    def inv(self, x: int) -> int:
        self.check(x)
        if x == 0:
            raise ZeroDivisionError(f"0 is not invertible in GF({self.q})")
        return self._inv[x]

    def pow(self, x: int, n: int) -> int:
        self.check(x)
        if n < 0:
            x, n = self.inv(x), -n
        mul = self._mul
        r = 1
        while n:
            if n & 1:
                r = mul[r][x]
            x = mul[x][x]
            n >>= 1
        return r

    def is_square(self, x: int) -> bool:
        """True iff x == y*y for some y; 0 counts (0 == 0*0), and for even q
        every element qualifies."""
        return self._sq[self.check(x)]

    def elements(self) -> range:
        """All q element codes in increasing order."""
        return range(self.q)

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


@functools.lru_cache(maxsize=None)
def make_field(p: int, m: int) -> Field:
    """Build (and cache) GF(p**m) with the canonical modulus.

    Rejects non-prime p, non-positive m, and sizes past the table-driven
    design bound.  Fields are immutable, so the cache hands the same object
    to every caller.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"extension degree must be a positive integer, got {m!r}")
    if p**m > MAX_FIELD_SIZE:
        raise ValueError(
            f"GF({p}^{m}) has {p**m} elements, past the supported bound {MAX_FIELD_SIZE}"
        )
    return Field(p, m)


def prime_powers_up_to(n: int) -> list[int]:
    """Ascending prime powers q with 2 <= q <= n."""
    return [q for q in range(2, n + 1) if len(prime_factors(q)) == 1]


def field_for(q: int) -> Field:
    """GF(q) for a prime power q, through :func:`make_field`."""
    ps = prime_factors(q)
    if len(ps) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = ps[0]
    m = 0
    while q > 1:
        q //= p
        m += 1
    return make_field(p, m)
