"""Validators for the closed-form conjugation/trace identities and for the
product class-count bounds.

Each check recomputes a claim from first principles: exhaustive loops over
small fields and seeded random sampling above them, so results are
deterministic given (p, m, seed).  The formula checks run over every
conjugator for q <= ``FORMULA_EXHAUSTIVE_LIMIT`` (9); the value sets are
exhaustive for even q <= 16 and odd q <= ``ODD_VALUE_SET_EXHAUSTIVE_LIMIT``
(13).  A failing check always carries a counterexample payload.

The formula checks sample their parameters with ``_take``: a partial
Fisher-Yates shuffle fed by ``getrandbits`` with rejection of draws that
are too large, ``TAKE`` (10) values per family and conjugator.  For pools
of at most 85 values it makes the draws CPython 3.11's ``Random.sample``
makes, so the sampled (conjugator, parameters) tuples of every q <= 83 are
those of that sampler.  Above that the draws stay uniform, and at every
size they depend on ``getrandbits`` alone, not on how a Python version
implements ``sample()``.

Each ``trace_form_*`` takes its innermost parameter as a list (for
``trace_form_diag_diag``, the (u, v) pairs) and returns the list of
traces, with the terms in C and the outer parameters computed once per
call; ``trace_formulas`` computes the direct traces over the same list
from the rows of the conjugated matrix.  A batch that agrees costs one list
comparison; only one that does not is searched for its first differing
index and turned into a counterexample.  So a q = 25 run makes its 445,500
comparisons in about 44,500 batches.  The ``conj_form_*`` stay scalar:
their parameters are drawn once per family, not once per conjugator.

The direct side conjugates in one pass per family: ``_conjugates`` maps
the whole conjugator list to C**-1 * A * C with the sixteen products
written out.  trace_formulas conjugates each A by every C before its C
loop, which draws nothing, so the parameters are drawn in the same order.
The witness families of split_trace_coverage and even_char_bounds are
conjugated once per first factor and traced against each second factor
(``_family_traces``).  The pair scans are the row scans of products.py;
split_trace_coverage reads only traces, so it takes the trace-only one.

Two closed forms each have a competing sign variant; the checks settle
them against direct computation and record the outcome instead of silently
picking one:

* the diagonal-by-upper trace form is t*(r+s) - a*c*(r-s)*u; the variant
  with t*(r-s) matches only in characteristic 2, where + and - coincide
  (details key ``diag_upper_difference_form_holds``);
* of the two off-diagonal value-set variants, {a*a + c*c - a*c*w} equals
  the nonzero elements for every w with w*w - 4 a non-square, while
  {a*a - c*c + a*c*w} can hit zero (details keys ``norm_form_*_holds``).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable

from .classes import ClassLabel, _roots_of_one, class_table, classify, irreducible_traces
from .field import Field
from .matrices import enumerate_sl2, mat
from .products import (
    _closed_form_count,
    _label_traces,
    _scan_labels,
    _scan_traces,
    _semisimple_labels,
    _unipotent_labels,
    label_trace,
    min_product_classes,
    product_report,
)

FORMULA_EXHAUSTIVE_LIMIT = 9
ODD_VALUE_SET_EXHAUSTIVE_LIMIT = 13
TAKE = 10  # values per family and conjugator in the sampled regime


@dataclass
class CheckResult:
    check: str
    q: int
    passed: bool
    counterexample: dict | None
    details: dict = dc_field(default_factory=dict)
    elapsed_ms: float = 0.0

    def to_json(self) -> dict:
        out = {"check": self.check, "q": self.q, "passed": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        out["details"] = self.details
        out["elapsed_ms"] = self.elapsed_ms
        return out

    @staticmethod
    def from_json(d: dict) -> "CheckResult":
        return CheckResult(
            d["check"], d["q"], d["passed"], d.get("counterexample"),
            d.get("details", {}), d.get("elapsed_ms", 0.0),
        )


# ---------------------------------------------------------------------------
# closed forms (module-level so the fault-injection tests can patch them);
# each trace form maps a list of its last parameter to the list of traces
# ---------------------------------------------------------------------------

def conj_form_general(F: Field, C: tuple, A: tuple) -> tuple:
    """Entries of C**-1 * A * C written out for det(C) == 1."""
    mul, add, sub = F._mul, F._add, F._sub
    a, b, c, d = C
    e, f, g, h = A
    de_bg = sub[mul[d][e]][mul[b][g]]
    df_bh = sub[mul[d][f]][mul[b][h]]
    ag_ce = sub[mul[a][g]][mul[c][e]]
    ah_cf = sub[mul[a][h]][mul[c][f]]
    return (
        add[mul[a][de_bg]][mul[c][df_bh]],
        add[mul[b][de_bg]][mul[d][df_bh]],
        add[mul[a][ag_ce]][mul[c][ah_cf]],
        add[mul[b][ag_ce]][mul[d][ah_cf]],
    )


def conj_form_diagonal(F: Field, C: tuple, r: int, s: int) -> tuple:
    """diag(r, s) conjugated: [[adr - bcs, bd(r-s)], [-ac(r-s), ads - bcr]]."""
    mul, sub = F._mul, F._sub
    neg = F._neg
    a, b, c, d = C
    ad, bc = mul[a][d], mul[b][c]
    r_s = sub[r][s]
    return (
        sub[mul[ad][r]][mul[bc][s]],
        mul[mul[b][d]][r_s],
        neg[mul[mul[a][c]][r_s]],
        sub[mul[ad][s]][mul[bc][r]],
    )


def conj_form_upper(F: Field, C: tuple, s: int, u: int) -> tuple:
    """[[s,u],[0,s]] conjugated: [[s + ucd, ud^2], [-uc^2, s - ucd]]."""
    mul, add, sub, neg = F._mul, F._add, F._sub, F._neg
    a, b, c, d = C
    ucd = mul[u][mul[c][d]]
    return (add[s][ucd], mul[u][mul[d][d]], neg[mul[u][mul[c][c]]], sub[s][ucd])


def conj_form_companion(F: Field, C: tuple, w: int) -> tuple:
    """[[0,1],[-1,w]] conjugated:
    [[ab + c(d - bw), b^2 + d^2 - bdw], [-a^2 - c^2 + acw, -ab + d(aw - c)]]."""
    mul, add, sub, neg = F._mul, F._add, F._sub, F._neg
    a, b, c, d = C
    return (
        add[mul[a][b]][mul[c][sub[d][mul[b][w]]]],
        sub[add[mul[b][b]][mul[d][d]]][mul[mul[b][d]][w]],
        add[neg[add[mul[a][a]][mul[c][c]]]][mul[mul[a][c]][w]],
        add[neg[mul[a][b]]][mul[d][sub[mul[a][w]][c]]],
    )


def trace_form_diag_diag(F: Field, C: tuple, r: int, s: int, uvs: list) -> list:
    """trace(diag(r,s)^C * diag(u,v)) = ad(r-s)(u-v) + (us + vr)."""
    mul, add, sub = F._mul, F._add, F._sub
    a, b, c, d = C
    k = mul[mul[mul[a][d]][sub[r][s]]]
    ms, mr = mul[s], mul[r]
    return [add[k[sub[u][v]]][add[ms[u]][mr[v]]] for u, v in uvs]


def trace_form_diag_upper(F: Field, C: tuple, r: int, s: int, t: int, us: list) -> list:
    """trace(diag(r,s)^C * [[t,u],[0,t]]) = t(r+s) - ac(r-s)u."""
    mul, add, sub = F._mul, F._add, F._sub
    a, b, c, d = C
    base, k = sub[mul[t][add[r][s]]], mul[mul[mul[a][c]][sub[r][s]]]
    return [base[k[u]] for u in us]


def trace_form_diag_upper_difference_variant(F: Field, C: tuple, r: int, s: int, t: int, us: list) -> list:
    """Same with t(r-s): recorded for the record, correct only in char 2."""
    mul, sub = F._mul, F._sub
    a, b, c, d = C
    base, k = sub[mul[t][sub[r][s]]], mul[mul[mul[a][c]][sub[r][s]]]
    return [base[k[u]] for u in us]


def trace_form_diag_companion(F: Field, C: tuple, r: int, s: int, ws: list) -> list:
    """trace(diag(r,s)^C * [[0,1],[-1,w]]) = (ac + bd)(s-r) + w(ads - bcr)."""
    mul, add, sub = F._mul, F._add, F._sub
    a, b, c, d = C
    part = add[mul[add[mul[a][c]][mul[b][d]]][sub[s][r]]]
    k = mul[sub[mul[mul[a][d]][s]][mul[mul[b][c]][r]]]
    return [part[k[w]] for w in ws]


def trace_form_upper_upper(F: Field, C: tuple, r: int, u: int, t: int, ws: list) -> list:
    """trace([[r,u],[0,r]]^C * [[t,w],[0,t]]) = 2rt - uwc^2."""
    mul, add, sub = F._mul, F._add, F._sub
    c = C[2]
    rt = mul[r][t]
    base, k = sub[add[rt][rt]], mul[mul[u][mul[c][c]]]
    return [base[k[w]] for w in ws]


def trace_form_upper_companion(F: Field, C: tuple, r: int, u: int, ss: list) -> list:
    """trace([[r,u],[0,r]]^C * [[0,1],[-1,s]]) = -ud^2 - uc^2 + s(r - ucd)."""
    mul, add, sub, neg = F._mul, F._add, F._sub, F._neg
    a, b, c, d = C
    t1 = add[mul[u][mul[d][d]]][mul[u][mul[c][c]]]
    base, k = add[neg[t1]], mul[sub[r][mul[u][mul[c][d]]]]
    return [base[k[s]] for s in ss]


def trace_form_companion_companion(F: Field, C: tuple, w: int, vs: list) -> list:
    """trace([[0,1],[-1,w]]^C * [[0,1],[-1,v]])
    = -(a^2+b^2+c^2+d^2) + bdw + acw + v(-ab + d(aw - c))."""
    mul, add, sub, neg = F._mul, F._add, F._sub, F._neg
    a, b, c, d = C
    sq_sum = add[add[mul[a][a]][mul[b][b]]][add[mul[c][c]][mul[d][d]]]
    t = add[neg[sq_sum]][add[mul[mul[b][d]][w]][mul[mul[a][c]][w]]]
    base, k = add[t], mul[add[neg[mul[a][b]]][mul[d][sub[mul[a][w]][c]]]]
    return [base[k[v]] for v in vs]


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def _rng(F: Field, tag: str, seed: int) -> random.Random:
    return random.Random(f"{tag}:{F.p}:{F.m}:{seed}")


def _random_sl2(F: Field, rng: random.Random) -> tuple:
    q = F.q
    mul, add, neg, inv = F._mul, F._add, F._neg, F._inv
    a = rng.randrange(q)
    if a == 0:
        b = rng.randrange(1, q)
        return (0, b, neg[inv[b]], rng.randrange(q))
    b, c = rng.randrange(q), rng.randrange(q)
    return (a, b, c, mul[inv[a]][add[1][mul[b][c]]])


def _generators(F: Field) -> list[tuple]:
    """[[1,x],[0,1]] and [[1,0],[x,1]] for the basis codes x = p**k, k < m."""
    gens = []
    for k in range(F.m):
        x = F.p**k
        gens += [(1, x, 0, 1), (1, 0, x, 1)]
    return gens


def _formula_samples(F: Field, tag: str, seed: int) -> tuple[list[tuple], random.Random | None]:
    """The conjugators of a formula check and the generator that samples its
    family parameters: every element of SL(2, q) and no generator (every
    parameter) for q <= FORMULA_EXHAUSTIVE_LIMIT, else the identity, the
    generators and 400 seeded random elements."""
    if F.q <= FORMULA_EXHAUSTIVE_LIMIT:
        return [(C.a, C.b, C.c, C.d) for C in enumerate_sl2(F)], None
    rng = _rng(F, tag, seed)
    Cs = [(1, 0, 0, 1)] + _generators(F) + [_random_sl2(F, rng) for _ in range(400)]
    return Cs, _rng(F, tag + ":params", seed)


def _take(rng: random.Random | None, values) -> list:
    """``TAKE`` distinct members of `values`, or all of them in order when
    there are at most ``TAKE`` or `rng` is None (the exhaustive regime).

    A partial Fisher-Yates shuffle: each index is drawn below the n values
    still in the pool from rng.getrandbits(n.bit_length()), rejecting draws
    of n or more, and the last pool member fills the drawn slot.  For pools
    of at most 85 values these are the draws CPython 3.11's
    ``Random.sample(values, 10)`` makes; unlike sample(), the draws depend
    on no interpreter version's choice of algorithm.
    """
    vals = list(values)
    n = len(vals)
    if rng is None or n <= TAKE:
        return vals
    getrandbits = rng.getrandbits
    out = []
    for n in range(n, n - TAKE, -1):
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        out.append(vals[j])
        vals[j] = vals[n - 1]
    return out


def _agreeing(got: list, want: list) -> int:
    """Length of the longest prefix on which `got` and `want` agree."""
    if got == want:
        return len(want)
    return next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                min(len(got), len(want)))


def _grid(rng: random.Random, exhaustive: bool, n: int, *pools) -> list[tuple]:
    """Every tuple of ``itertools.product(*pools)`` in the exhaustive
    regime, else `n` tuples drawn with one ``rng.choice`` per pool."""
    if exhaustive:
        return list(itertools.product(*pools))
    return [tuple(rng.choice(pool) for pool in pools) for _ in range(n)]


def _conjugates(F: Field, Cs: list, A: tuple) -> list[tuple]:
    """C**-1 * A * C for each C in Cs, det(C) == 1 so C**-1 = [[d,-b],[-c,a]]:
    the sixteen products of the two 2x2 products written out, with A's
    multiplication rows looked up once."""
    mul, add, sub = F._mul, F._add, F._sub
    me, mf, mg, mh = (mul[x] for x in A)
    out = []
    for a, b, c, d in Cs:
        # C**-1 * A = [[x0, x1], [x2, x3]], then times C
        x0, x1 = sub[me[d]][mg[b]], sub[mf[d]][mh[b]]
        x2, x3 = sub[mg[a]][me[c]], sub[mh[a]][mf[c]]
        ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
        out.append((add[ma[x0]][mc[x1]], add[mb[x0]][md[x1]],
                    add[ma[x2]][mc[x3]], add[mb[x2]][md[x3]]))
    return out


def _family_traces(F: Field, Ts: list, B: tuple) -> list:
    """trace(T * B) for each T in Ts, the conjugates of a witness family."""
    mul, add = F._mul, F._add
    b00, b01, b10, b11 = (mul[x] for x in B)
    return [add[add[b00[t00]][b10[t01]]][add[b01[t10]][b11[t11]]] for t00, t01, t10, t11 in Ts]


def _fail(name: str, q: int, details: dict, **payload) -> CheckResult:
    return CheckResult(name, q, False, payload, details)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_conjugation_formulas(F: Field, *, seed: int = 0) -> CheckResult:
    """Closed-form conjugates against direct matrix computation.

    Exhaustive over conjugators up to FORMULA_EXHAUSTIVE_LIMIT (and over
    conjugated matrices too when q <= 4); seeded samples above.
    """
    name = "conjugation_formulas"
    q = F.q
    neg, inv = F._neg, F._inv
    Cs, prng = _formula_samples(F, name, seed)
    details = {"conjugators": len(Cs), "exhaustive": prng is None, "comparisons": 0}

    if q <= 4:
        As = [(M.a, M.b, M.c, M.d) for M in enumerate_sl2(F)]
    else:
        rng = _rng(F, name + ":A", seed)
        As = [_random_sl2(F, rng) for _ in range(60)]
    # (form, conjugated matrix, payload, closed form, its arguments after C)
    cases = [("general", A, {"A": list(A)}, conj_form_general, (A,)) for A in As]
    cases += [("diagonal", (r, 0, 0, inv[r]), {"params": {"r": r, "s": inv[r]}},
               conj_form_diagonal, (r, inv[r])) for r in _take(prng, range(1, q))]
    cases += [("upper", (s, u, 0, s), {"params": {"s": s, "u": u}}, conj_form_upper, (s, u))
              for s in _roots_of_one(F) for u in _take(prng, range(1, q))]
    cases += [("companion", (0, 1, neg[1], w), {"params": {"w": w}}, conj_form_companion, (w,))
              for w in _take(prng, range(q))]

    for form, a4, payload, closed_form, args in cases:
        # map hands each call its arguments without building a tuple per C
        got = list(map(closed_form, itertools.repeat(F), Cs, *map(itertools.repeat, args)))
        want = _conjugates(F, Cs, a4)
        n = _agreeing(got, want)
        if n < len(Cs):
            details["comparisons"] += n + 1
            return _fail(name, q, details, form=form, C=list(Cs[n]), **payload,
                         closed_form=list(got[n]), direct=list(want[n]))
        details["comparisons"] += n

    return CheckResult(name, q, True, None, details)


def check_trace_formulas(F: Field, *, seed: int = 0) -> CheckResult:
    """The six product-trace closed forms against direct computation, over
    every conjugator (up to FORMULA_EXHAUSTIVE_LIMIT) and all family parameters.

    Also settles the diagonal-by-upper sign question: the t*(r+s) form is
    compared as the claim, the t*(r-s) variant is merely recorded (it can
    only match in characteristic 2).
    """
    name = "trace_formulas"
    q = F.q
    mul, add, neg, inv = F._mul, F._add, F._neg, F._inv
    Cs, prng = _formula_samples(F, name, seed)
    details = {"conjugators": len(Cs), "exhaustive": prng is None, "comparisons": 0}
    roots1 = _roots_of_one(F)
    neg1 = neg[1]
    units, elems = list(range(1, q)), list(range(q))
    unit_pairs = [(u, inv[u]) for u in units]
    difference_variant_ok = True
    comparisons = 0  # of the batches that agreed

    def failure(form, C, params, keys, vals, got, want) -> CheckResult:
        # a batch that disagrees: its comparisons up to the first mismatch
        n = _agreeing(got, want)
        details["comparisons"] = comparisons + n + 1
        v = vals[n]
        params.update(zip(keys, v if isinstance(v, tuple) else (v,)))
        details["diag_upper_difference_form_holds"] = difference_variant_ok
        return _fail(name, q, details, form=form, C=list(C), params=params,
                     closed_form=got[n], direct=want[n])

    # the direct side: trace(T * B) for T = A^C, over one family of B
    def upper_traces(T, t, xs):  # B = [[t,x],[0,t]]
        at, mtc, tdt = add[mul[T[0]][t]], mul[T[2]], mul[T[3]][t]
        return [at[add[mtc[x]][tdt]] for x in xs]

    def companion_traces(T, xs):  # B = [[0,1],[-1,x]]
        anb, atc, mtd = add[neg[T[1]]], add[T[2]], mul[T[3]]
        return [anb[atc[mtd[x]]] for x in xs]

    # each loop conjugates A by every C first, which draws nothing, so the
    # parameters are drawn in the same order as C by C
    for r in _take(prng, units):
        s = inv[r]
        for C, T in zip(Cs, _conjugates(F, Cs, (r, 0, 0, s))):
            uvs = _take(prng, unit_pairs)
            mta, mtd = mul[T[0]], mul[T[3]]
            want = [add[mta[u]][mtd[v]] for u, v in uvs]
            got = trace_form_diag_diag(F, C, r, s, uvs)
            if got != want:
                return failure("diag_diag", C, {"r": r, "s": s}, "uv", uvs, got, want)
            comparisons += len(uvs)
            for t in roots1:
                us = _take(prng, units)
                want = upper_traces(T, t, us)
                got = trace_form_diag_upper(F, C, r, s, t, us)
                if difference_variant_ok:
                    n = _agreeing(got, want)
                    variant = trace_form_diag_upper_difference_variant(F, C, r, s, t, us)
                    difference_variant_ok = variant[:n] == want[:n]
                if got != want:
                    return failure("diag_upper", C, {"r": r, "s": s, "t": t}, "u", us, got, want)
                comparisons += len(us)
            ws = _take(prng, elems)
            got, want = trace_form_diag_companion(F, C, r, s, ws), companion_traces(T, ws)
            if got != want:
                return failure("diag_companion", C, {"r": r, "s": s}, "w", ws, got, want)
            comparisons += len(ws)

    for r in roots1:
        for u in _take(prng, units):
            for C, T in zip(Cs, _conjugates(F, Cs, (r, u, 0, r))):
                for t in roots1:
                    ws = _take(prng, units)
                    got, want = trace_form_upper_upper(F, C, r, u, t, ws), upper_traces(T, t, ws)
                    if got != want:
                        return failure("upper_upper", C, {"r": r, "u": u, "t": t}, "w", ws,
                                       got, want)
                    comparisons += len(ws)
                ss = _take(prng, elems)
                got, want = trace_form_upper_companion(F, C, r, u, ss), companion_traces(T, ss)
                if got != want:
                    return failure("upper_companion", C, {"r": r, "u": u}, "s", ss, got, want)
                comparisons += len(ss)

    for w in _take(prng, elems):
        for C, T in zip(Cs, _conjugates(F, Cs, (0, 1, neg1, w))):
            vs = _take(prng, elems)
            got, want = trace_form_companion_companion(F, C, w, vs), companion_traces(T, vs)
            if got != want:
                return failure("companion_companion", C, {"w": w}, "v", vs, got, want)
            comparisons += len(vs)

    details["comparisons"] = comparisons
    details["diag_upper_sum_form_holds"] = True
    details["diag_upper_difference_form_holds"] = difference_variant_ok
    return CheckResult(name, q, True, None, details)


def check_value_set_counts(F: Field, *, seed: int = 0) -> CheckResult:
    """Cardinalities of the quadratic value sets that drive the trace
    coverage arguments.

    Even q: {a*i*i + c} has q elements for a != 0 (squaring is a bijection).
    Odd q: {a*i*i + b*i + c} has exactly (q+1)/2 elements for a != 0;
    {a*x*x + b*y*y : x,y != 0} holds a square and a non-square (q > 3);
    {-u*x*x - u*y*y + s*(r - u*x*y) : (x,y) != 0} has at least q-1 elements
    whenever s*s != 4 and u != 0; and the off-diagonal value-set variants
    are compared against the nonzero elements for every w with w*w - 4 a
    non-square, recording which sign variant holds.

    Every part runs to completion and gets a ``part_status`` entry; the
    returned counterexample is the first failure.

    The square-and-non-square claim is tested as stated, but it is true
    only for odd q >= 7.  At q = 5 it fails exactly when a and b are both
    non-squares ({2x^2 + 2y^2 : x,y != 0} = {0,1,4} is all squares), so
    this check reports a failure for GF(5).  The source does not settle
    whether 0 counts as a square; the code counts it as one, as the
    field's square table ``_sq`` does.  If only nonzero values are classified,
    q = 5 has 8 exceptional pairs instead of 4, and q >= 7 still has none.
    """
    name = "value_set_counts"
    q = F.q
    mul, add, sub, neg, sq = F._mul, F._add, F._sub, F._neg, F._sq
    exhaustive = q <= (16 if q % 2 == 0 else ODD_VALUE_SET_EXHAUSTIVE_LIMIT)
    rng = _rng(F, name, seed)
    units, elems = range(1, q), range(q)
    details: dict = {"exhaustive": exhaustive}
    status: dict = {}
    details["part_status"] = status
    counterexample: dict | None = None
    squares = [mul[i][i] for i in range(q)]

    def flag(part: str, ok: bool, payload: dict) -> None:
        nonlocal counterexample
        status[part] = status.get(part, True) and ok
        if not ok and counterexample is None:
            counterexample = {"part": part, **payload}

    if q % 2 == 0:
        pairs = _grid(rng, exhaustive, 300, units, elems)
        for a, c in pairs:
            img = {add[mul[a][si]][c] for si in squares}
            flag("affine_square_image", len(img) == q,
                 {"params": {"a": a, "c": c}, "size": len(img), "expected": q})
        details["affine_square_images"] = len(pairs)
        return CheckResult(name, q, counterexample is None, counterexample, details)

    half = (q + 1) // 2
    triples = _grid(rng, exhaustive, 300, units, elems, elems)
    for a, b, c in triples:
        img = {add[add[mul[a][squares[i]]][mul[b][i]]][c] for i in range(q)}
        flag("quadratic_image", len(img) == half,
             {"params": {"a": a, "b": b, "c": c}, "size": len(img), "expected": half})
    details["quadratic_images"] = len(triples)

    if q > 3:
        mix_pairs = _grid(rng, exhaustive, 200, units, units)
        for a, b in mix_pairs:
            vals = {add[mul[a][squares[x]]][mul[b][squares[y]]]
                    for x in range(1, q) for y in range(1, q)}
            ok = any(sq[v] for v in vals) and any(not sq[v] for v in vals)
            flag("square_nonsquare_mix", ok, {"params": {"a": a, "b": b}, "values": sorted(vals)})
        details["square_mix_pairs"] = len(mix_pairs)
    else:
        details["square_mix_pairs"] = 0

    four = add[add[1][1]][add[1][1]]
    good_s = [s for s in range(q) if sub[mul[s][s]][four] != 0]
    two_var = _grid(rng, exhaustive, 200, units, good_s, elems)
    for u, s, r in two_var:
        vals = set()
        for x in range(q):
            for y in range(q):
                if x or y:
                    vals.add(add[neg[mul[u][add[squares[x]][squares[y]]]]]
                                [mul[s][sub[r][mul[u][mul[x][y]]]]])
        flag("two_variable_image", len(vals) >= q - 1,
             {"params": {"u": u, "s": s, "r": r}, "size": len(vals), "expected_at_least": q - 1})
    details["two_variable_images"] = len(two_var)

    nonzero = set(range(1, q))
    ws = [w for w in range(q) if not sq[sub[mul[w][w]][four]]]
    plus_ok, minus_ok = True, True
    plus_bad = minus_bad = None
    # a variant's value set is built only while the variant holds
    for w in ws:
        mw = mul[w]
        if plus_ok and {sub[add[squares[a]][squares[c]]][mw[mul[a][c]]]
                        for a in range(1, q) for c in range(q)} != nonzero:
            plus_ok, plus_bad = False, w
        if minus_ok and {add[sub[squares[a]][squares[c]]][mw[mul[a][c]]]
                         for a in range(1, q) for c in range(q)} != nonzero:
            minus_ok, minus_bad = False, w
        if not (plus_ok or minus_ok):
            break
    details["norm_form_w_values"] = len(ws)
    details["norm_form_plus_holds"] = plus_ok      # a*a + c*c - a*c*w
    details["norm_form_minus_holds"] = minus_ok    # a*a - c*c + a*c*w
    if minus_bad is not None:
        details["norm_form_minus_failing_w"] = minus_bad
    # one variant covering all qualifying w is what the downstream argument
    # needs; which one it is stays recorded above
    flag("norm_form", plus_ok or minus_ok,
         {"failing_w": {"plus": plus_bad, "minus": minus_bad}})

    return CheckResult(name, q, counterexample is None, counterexample, details)


def check_split_trace_coverage(F: Field, *, seed: int = 0) -> CheckResult:
    """Products of a diagonalizable (split) class with any noncentral class
    cover every trace, so such a product meets at least q classes.

    Also verifies that the explicit conjugator families [[i,i-1],[1,1]] and
    [[1,i],[0,1]] achieve all q traces on their own, and that the linear
    trace expressions they produce match direct computation.
    """
    name = "split_trace_coverage"
    q = F.q
    mul, add, sub, neg, inv = F._mul, F._add, F._sub, F._neg, F._inv
    table = class_table(F)
    splits = [e for e in table.entries if e.label.kind == "D"]
    noncentral = [e for e in table.entries if e.label.kind != "Z"]
    details = {"split_classes": len(splits), "pairs": 0, "witness_families": 0}
    if not splits:
        return CheckResult(name, q, True, None, details)  # vacuous: q < 4
    full = frozenset(range(q))

    for ea in splits:
        for eb in noncentral:
            ts = _scan_traces(F, ea.label, eb.label)
            if ts != full:
                return _fail(name, q, details, pair=[str(ea.label), str(eb.label)],
                             missing=sorted(full - ts))
            details["pairs"] += 1

    upper_family = [(1, i, 0, 1) for i in range(q)]
    other_family = [(i, sub[i][1], 1, 1) for i in range(q)]
    for ea in splits:
        r = ea.label.x
        s = inv[r]
        a4 = (r, 0, 0, s)
        upper, other = _conjugates(F, upper_family, a4), _conjugates(F, other_family, a4)
        for eb in noncentral:
            lb = eb.label
            b4 = (eb.rep.a, eb.rep.b, eb.rep.c, eb.rep.d)
            # each family's trace is linear in i: slope * i + base
            if lb.kind == "W":
                Ts, slope, base = upper, sub[s][r], mul[lb.x][s]
            elif lb.kind == "D":
                u, v = lb.x, inv[lb.x]
                Ts, slope, base = other, mul[sub[r][s]][sub[u][v]], add[mul[u][s]][mul[v][r]]
            else:
                u = 1 if lb.square else F.least_nonsquare
                Ts, slope, base = other, neg[mul[sub[r][s]][u]], mul[lb.x][add[r][s]]
            expect = [add[mul[slope][i]][base] for i in range(q)]
            got = _family_traces(F, Ts, b4)
            if (i := _agreeing(got, expect)) < q:
                return _fail(name, q, details, pair=[str(ea.label), str(lb)],
                             family_index=i, expected=expect[i], direct=got[i])
            if set(got) != full:
                return _fail(name, q, details, pair=[str(ea.label), str(lb)],
                             family_traces=sorted(set(got)))
            details["witness_families"] += 1

    return CheckResult(name, q, True, None, details)


def check_even_char_bounds(F: Field, *, seed: int = 0) -> CheckResult:
    """Even q: trace coverage of the repeated-eigenvalue and irreducible
    families, and the class-count bound of at least q-1 for every pair of
    them.

    The witness conjugator families are [[1,0],[i,1]] (traces i*i, all of
    GF(q)), diag(1/i, i) (traces i*i + w, everything except w), and
    [[i+1,i],[i,i+1]] (traces v*w*(i*i + 1), all of GF(q)).
    """
    name = "even_char_bounds"
    q = F.q
    if q % 2:
        raise ValueError("even-characteristic check requires even q")
    mul, add, inv = F._mul, F._add, F._inv
    labels = class_table(F).labels()
    u_label = next(l for l in labels if l.kind == "U")
    w_labels = [l for l in labels if l.kind == "W"]
    details = {"irreducible_classes": len(w_labels), "pairs": 0}
    full = frozenset(range(q))
    u4 = (1, 1, 0, 1)
    products = {(l1, l2): _scan_labels(F, l1, l2)
                for l1, l2 in itertools.combinations_with_replacement([u_label] + w_labels, 2)}

    def traces(l1, l2):
        return _label_traces(F, products[(l1, l2)])

    squares = [mul[i][i] for i in range(q)]
    got = _family_traces(F, _conjugates(F, [(1, 0, i, 1) for i in range(q)], u4), u4)
    if (i := _agreeing(got, squares)) < q:
        return _fail(name, q, details, part="upper_upper_family", i=i,
                     expected=squares[i], direct=got[i])
    if set(got) != full or traces(u_label, u_label) != full:
        return _fail(name, q, details, part="upper_upper_traces", traces=sorted(set(got)))

    # the family runs over i = 1 .. q-1, so list index n is i = n + 1
    diagonal_conjugates = _conjugates(F, [(inv[i], 0, 0, i) for i in range(1, q)], u4)
    for lw in w_labels:
        w = lw.x
        b4 = (0, 1, 1, w)  # -1 == 1 here
        want = [add[x][w] for x in squares[1:]]
        got = _family_traces(F, diagonal_conjugates, b4)
        if (n := _agreeing(got, want)) < q - 1:
            return _fail(name, q, details, part="upper_companion_family",
                         w=w, i=n + 1, expected=want[n], direct=got[n])
        if len(set(got)) != q - 1:
            return _fail(name, q, details, part="upper_companion_family_size",
                         w=w, size=len(set(got)))
        ts = traces(u_label, lw)
        if ts != full - {w}:
            return _fail(name, q, details, part="upper_companion_trace_exclusion",
                         w=w, traces=sorted(ts))

    companion_family = [(add[i][1], i, i, add[i][1]) for i in range(q)]
    for j, l1 in enumerate(w_labels):
        w = l1.x
        conjugates = _conjugates(F, companion_family, (0, 1, 1, w))
        for l2 in w_labels[j:]:
            v = l2.x
            vw = mul[v][w]
            want = [mul[vw][add[x][1]] for x in squares]
            got = _family_traces(F, conjugates, (0, 1, 1, v))
            if (i := _agreeing(got, want)) < q:
                return _fail(name, q, details, part="companion_companion_family",
                             w=w, v=v, i=i, direct=got[i])
            if set(got) != full or traces(l1, l2) != full:
                return _fail(name, q, details, part="companion_companion_traces",
                             w=w, v=v, traces=sorted(set(got)))

    for (l1, l2), labels in products.items():
        if len(labels) < q - 1:
            return _fail(name, q, details, pair=[str(l1), str(l2)],
                         classes=len(labels), expected_at_least=q - 1)
        details["pairs"] += 1

    return CheckResult(name, q, True, None, details)


def check_odd_char_bounds(F: Field, *, seed: int = 0) -> CheckResult:
    """Odd q > 3: the product bounds for pairs drawn from the
    repeated-eigenvalue (U) and irreducible (W) families.

    U x U: the traces 2rt - u*w*i*i give at least (q+1)/2 values, and
    mapping the upper-triangular witnesses [[rt, rw*y*y + tu*x*x],[0, rt]]
    to their classes yields two distinct same-trace classes inside the
    product, so at least (q+3)/2 classes.  The witness value set usually
    holds a square and a non-square; at q = 5 with both off-diagonal
    parameters non-square it is all squares ({0,1,4}), and the two classes
    are then the central one plus the square variant -- the count of such
    pairs is recorded in ``witness_sets_without_nonsquare``.

    U x W: at least q-1 classes.

    W x W: the quadratic trace family is covered, the bound (q+3)/2 holds,
    and both square classes of the repeated-eigenvalue witnesses appear
    (eigenvalue -1, or +1 when the two traces cancel).  The closed-form
    witness construction needs a nonzero trace somewhere: for the self-pair
    of the trace-0 class (possible when q = 3 mod 4) the product provably
    contains no repeated-eigenvalue class at all, so that single pair is
    exempted from the witness clause and counted in
    ``zero_trace_self_pairs_exempt``.
    """
    name = "odd_char_bounds"
    q = F.q
    if q % 2 == 0 or q <= 3:
        raise ValueError("odd-characteristic check requires odd q > 3")
    mul, add, sub, neg, sq = F._mul, F._add, F._sub, F._neg, F._sq
    table = class_table(F)
    u_labels = [l for l in table.labels() if l.kind == "U"]
    w_labels = [l for l in table.labels() if l.kind == "W"]
    details = {"uu_pairs": 0, "uw_pairs": 0, "ww_pairs": 0,
               "witness_sets_without_nonsquare": 0, "zero_trace_self_pairs_exempt": 0}
    nu = F.least_nonsquare
    half_plus = (q + 3) // 2

    for l1, l2 in itertools.combinations_with_replacement(u_labels, 2):
        pair = [str(l1), str(l2)]
        r, u = l1.x, 1 if l1.square else nu
        t, w = l2.x, 1 if l2.square else nu
        rw, tu = mul[r][w], mul[t][u]
        wit = {add[mul[rw][mul[y][y]]][mul[tu][mul[x][x]]]
               for x in range(1, q) for y in range(1, q)}
        if not any(not sq[v] for v in wit):
            details["witness_sets_without_nonsquare"] += 1
        rt = mul[r][t]
        wit_labels = {classify(F, mat(F, rt, e, 0, rt)) for e in wit}
        labels = _scan_labels(F, l1, l2)
        if len(wit_labels) < 2 or not wit_labels <= labels:
            return _fail(name, q, details, part="upper_upper_witnesses", pair=pair,
                         witnesses=sorted(str(l) for l in wit_labels),
                         found=sorted(str(l) for l in labels))
        ts = _label_traces(F, labels)
        fam = {sub[add[rt][rt]][mul[mul[u][w]][mul[i][i]]] for i in range(q)}
        if len(ts) < (q + 1) // 2 or not fam <= ts:
            return _fail(name, q, details, part="upper_upper_traces", pair=pair,
                         traces=sorted(ts))
        if len(labels) < half_plus:
            return _fail(name, q, details, part="upper_upper_bound", pair=pair,
                         classes=len(labels))
        details["uu_pairs"] += 1

    for l1, l2 in itertools.product(u_labels, w_labels):
        n = len(_scan_labels(F, l1, l2))
        if n < q - 1:
            return _fail(name, q, details, part="upper_companion_bound",
                         pair=[str(l1), str(l2)], classes=n)
        details["uw_pairs"] += 1

    two = add[1][1]
    neg1 = neg[1]
    for l1, l2 in itertools.combinations_with_replacement(w_labels, 2):
        pair = [str(l1), str(l2)]
        w, v = l1.x, l2.x
        labels = _scan_labels(F, l1, l2)
        ts = _label_traces(F, labels)
        fam = {add[sub[mul[i][sub[v][w]]][mul[i][i]]][sub[w][two]] for i in range(q)}
        if not fam <= ts:
            return _fail(name, q, details, part="companion_companion_traces", pair=pair,
                         missing=sorted(fam - ts))
        if w == 0 and v == 0:
            details["zero_trace_self_pairs_exempt"] += 1
        else:
            s0 = neg1 if add[v][w] != 0 else 1
            want = [ClassLabel("U", s0, True), ClassLabel("U", s0, False)]
            if not all(l in labels for l in want):
                return _fail(name, q, details, part="companion_companion_witnesses", pair=pair,
                             witnesses=[str(l) for l in want],
                             found=sorted(str(l) for l in labels))
        if len(labels) < half_plus:
            return _fail(name, q, details, part="companion_companion_bound", pair=pair,
                         classes=len(labels))
        details["ww_pairs"] += 1

    return CheckResult(name, q, True, None, details)


def check_min_class_bounds(F: Field, *, seed: int = 0) -> CheckResult:
    """The group-wide minimum product class count and its optimality
    witness.

    Central times anything collapses to a single class.  Over noncentral
    pairs the minimum is exactly q-1 for even q, attained by the
    repeated-eigenvalue class against an irreducible class; exactly
    (q+3)/2 for odd q > 3, attained by the two square classes of
    eigenvalue-1 upper triangulars when q = 1 mod 4 and by the square one
    against itself otherwise; and exactly 2 for q = 3.

    The minimum counts every pair with a D or W factor by closed forms
    (products._semisimple_labels for two D or W classes,
    products._unipotent_labels for a U class against one, and the counts
    products._closed_form_count takes from them).  Every such pair is also
    scanned, the U ones in both operand orders, and a difference in the
    labels or the count fails the part ``semisimple_formula`` or
    ``unipotent_formula``.
    """
    name = "min_class_bounds"
    q = F.q
    table = class_table(F)
    details: dict = {}

    for ze in table.entries:
        if ze.label.kind != "Z":
            continue
        for e in table.entries:
            labels = _scan_labels(F, ze.label, e.label)
            if len(labels) != 1:
                return _fail(name, q, details, part="central_pair",
                             pair=[str(ze.label), str(e.label)], classes=len(labels))

    # min_product_classes counts every pair with a D or W factor by the
    # closed forms; the scan recomputes each such pair
    semisimple = [l for l in table.noncentral_labels() if l.kind in ("D", "W")]
    unipotent = [l for l in table.noncentral_labels() if l.kind == "U"]
    formula_pairs = itertools.chain(
        (("semisimple_formula", _semisimple_labels, la, lb)
         for la, lb in itertools.combinations_with_replacement(semisimple, 2)),
        (("unipotent_formula", _unipotent_labels, la, lb)
         for u in unipotent for s in semisimple for la, lb in ((u, s), (s, u))))
    for part, kernel, la, lb in formula_pairs:
        formula, scan = kernel(F, la, lb), _scan_labels(F, la, lb)
        count = _closed_form_count(F, la, lb, label_trace(F, la), label_trace(F, lb))
        if formula != scan or count != len(scan):
            return _fail(name, q, details, part=part, pair=[str(la), str(lb)],
                         formula_only=sorted(str(l) for l in formula - scan),
                         scan_only=sorted(str(l) for l in scan - formula),
                         count=count, classes=len(scan))

    min_val, witness = min_product_classes(F)
    details["min_classes"] = min_val
    details["witness"] = [str(witness[0]), str(witness[1])]

    if q % 2 == 0:
        expected = q - 1
        pair = (ClassLabel("U", 1), ClassLabel("W", irreducible_traces(F)[0]))
    elif q == 3:
        expected = 2
        pair = None
    else:
        expected = (q + 3) // 2
        if q % 4 == 1:
            pair = (ClassLabel("U", 1, True), ClassLabel("U", 1, False))
        else:
            pair = (ClassLabel("U", 1, True), ClassLabel("U", 1, True))
    details["expected"] = expected

    if min_val != expected:
        return _fail(name, q, details, part="minimum",
                     minimum=min_val, expected=expected, witness=details["witness"])
    if pair is not None:
        details["equality_pair"] = [str(pair[0]), str(pair[1])]
        n = product_report(F, pair[0], pair[1]).num_classes
        if n != expected:
            return _fail(name, q, details, part="equality_witness",
                         pair=details["equality_pair"], classes=n, expected=expected)
    return CheckResult(name, q, True, None, details)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ALL_CHECKS: dict[str, Callable[..., CheckResult]] = {
    "conjugation_formulas": check_conjugation_formulas,
    "trace_formulas": check_trace_formulas,
    "value_set_counts": check_value_set_counts,
    "split_trace_coverage": check_split_trace_coverage,
    "even_char_bounds": check_even_char_bounds,
    "odd_char_bounds": check_odd_char_bounds,
    "min_class_bounds": check_min_class_bounds,
}


def applicable_checks(q: int) -> list[str]:
    """Check names that apply to GF(q), in canonical run order."""
    names = ["conjugation_formulas", "trace_formulas", "value_set_counts",
             "split_trace_coverage"]
    if q % 2 == 0:
        names.append("even_char_bounds")
    elif q > 3:
        names.append("odd_char_bounds")
    names.append("min_class_bounds")
    return names


def run_checks(F: Field, names: list[str] | None = None, *, seed: int = 0) -> list[CheckResult]:
    """Run the named checks (default: all applicable) with wall timing."""
    if names is None:
        names = applicable_checks(F.q)
    out = []
    for n in names:
        fn = ALL_CHECKS[n]
        t0 = time.perf_counter()
        res = fn(F, seed=seed)
        res.elapsed_ms = round((time.perf_counter() - t0) * 1000.0, 3)
        out.append(res)
    return out
