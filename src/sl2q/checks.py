"""Validators for the closed-form conjugation/trace identities and for the
product class-count bounds.

Each check recomputes a claim from first principles: exhaustive loops over
small fields and seeded random sampling above them, so results are
deterministic given (p, m, seed).  The formula checks run over every
conjugator for q <= ``FORMULA_EXHAUSTIVE_LIMIT`` (9); the value sets are
exhaustive for even q <= 16 and odd q <= ``ODD_VALUE_SET_EXHAUSTIVE_LIMIT``
(13).  A failing check always carries a counterexample payload.

The formula checks draw ``TAKE`` (10) values per family and conjugator
with ``_take_rounds``, a partial Fisher-Yates shuffle on ``getrandbits``
that makes ``Random.sample``'s draws for pools of at most 85 values (so for
every q <= 83); one call draws every batch of a conjugator loop, in the
order of one ``_take`` per batch.  Nothing else reads the parameter
generator (a lint test holds the checks to that), so the draws are those
of a loop drawing C by C.  Each ``trace_form_*`` maps a list of its
innermost parameter to the list of traces, which ``trace_formulas``
compares with the direct traces of the conjugates (``_conjugates``, one
pass per family) in one list comparison per batch: a q = 25 run makes its
445,500 comparisons in about 44,500 batches.  The ``conj_form_*`` stay
scalar, with their parameters drawn once per family.

The witness families of the coverage and char_bounds checks are
conjugated once per first factor and read one way, by ``_family_fit``:
every conjugate must equal the polynomial of degree <= d in the family
index through the members 0 .. d (d = 1 for split_trace_coverage, 2 for
the W x W family of both char_bounds checks).  The trace is linear in the
entries, so each pair traces only the members 0 .. d against its second
factor (``_family_traces``), in O(q*q) per q rather than O(q**3), and
distinct traces, being distinct classes, bound its class count.
min_class_bounds scans every unordered pair of classes once, in table
order; besides it only the U x W pairs of both char_bounds checks and
odd_char_bounds' U x U pairs are scanned.  odd_char_bounds' W x W pairs
get their two repeated-eigenvalue witnesses from two direct products each.

This module owns the row scan (``_scan_keys``), the independent oracle of
every closed form in products.py, which itself enumerates nothing.  The
checks read each closed form through ``products._product_keys``, the one
dispatcher that ``product_report`` (and so ``eta`` and ``sweep``) serves,
so a fault in what the library prints is a fault the checks see.  The
product of two classes commutes, since X*Y = Y*(Y**-1*X*Y), so a scan
orders each pair once: a U factor goes second unless both are U, and of a
D and a W factor the D one goes second.  The first factor's class is cut
to members that meet every orbit of the centralizer of the second's
representative B, and the cut falls into rows that share their trace
against B.  That trace is affine in the row index, with a slope that each
row kernel's docstring proves nonzero and min_class_bounds checks once per
field (part ``row_slopes``): r - 1/r against diag(r, 1/r), for D x D and
W x D, rows a; u against [[s,u],[0,s]], for D x U and W x U, rows c;
(w*w - 4)/2, or w for even q, against [[0,1],[-1,w]], for W x W, rows
M = m0*I + m1*B in the field {xI + yB}.  So the rows take every trace
once, and ``_line_rows`` reads each line off its rows 0 and 1 and solves
for the rows of trace +-2 alone.  A central factor gives one member, its
representative.  A U x U pair reads no rows: its first factor's cut
against [[s,u],[0,s]] (c = 0, or a = 0) keeps one square class, and every
member of it is labelled.

A scan is a class mask, as a product is, built by its own route: the
other rows give every trace but +-2 (``ClassTable.semisimple_mask``, less
the trace that a W class misses against U), where the closed forms reach
that mask by Macbeath's theorem and quadratic forms instead; and at the
traces +-2, where the kinds differ, the members of those rows are built
and labelled by ``_class_keys``, while no closed form reads a member.
A scan costs O(1) lookups and a few members per D or W pair, and q - 1
members (2(q - 1) for even q) per U x U pair, of which a field has at
most 10.  Per field it caches only a table of square roots, besides the
class table.

Every value set of a binary quadratic form (the square/non-square mix, the
two-variable trace image and the norm forms) is read off one point per
line by ``_form_values``: f(x*v) = x*x*f(v), so the form's values at the
q + 1 points (1, y) and (0, 1) fix the set, in O(q) rather than over all
O(q*q) points.

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

from .classes import ClassLabel, _class_keys, _roots_of_one, class_table, irreducible_traces
from .field import Field
from .matrices import enumerate_sl2
from .products import _entries, _product_keys, min_product_classes, product_report

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
    """C**-1 * (A * C) for det(C) == 1, C**-1 = [[d,-b],[-c,a]]: the
    association that _conjugates does not use."""
    mul, add, sub = F._mul, F._add, F._sub
    a, b, c, d = C
    e, f, g, h = A
    ea_fc = add[mul[e][a]][mul[f][c]]
    eb_fd = add[mul[e][b]][mul[f][d]]
    ga_hc = add[mul[g][a]][mul[h][c]]
    gb_hd = add[mul[g][b]][mul[h][d]]
    return (
        sub[mul[d][ea_fc]][mul[b][ga_hc]],
        sub[mul[d][eb_fd]][mul[b][gb_hd]],
        sub[mul[a][ga_hc]][mul[c][ea_fc]],
        sub[mul[a][gb_hd]][mul[c][eb_fd]],
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


def _take_rounds(rng: random.Random | None, pools: list[list], rounds: int) -> list[list[list]]:
    """`rounds` rounds of one batch per pool: ``TAKE`` distinct members of
    each pool, or the pool itself (so no reader may mutate a batch) when it
    has at most ``TAKE`` members or `rng` is None.

    Each batch is a partial Fisher-Yates shuffle: each index is drawn below
    the n values still in the pool from rng.getrandbits(n.bit_length()),
    rejecting draws of n or more, and the last pool member fills the drawn
    slot.  The steps are made once per pool size.
    """
    if rng is None:
        return [pools] * rounds
    steps = {n: [(k, k.bit_length(), k - 1) for k in range(n, n - TAKE, -1)]
             for n in map(len, pools) if n > TAKE}
    plans = [(pool, steps.get(len(pool))) for pool in pools]
    getrandbits = rng.getrandbits
    out = []
    for _ in range(rounds):
        batches = []
        for pool, plan in plans:
            if plan is None:
                batches.append(pool)
                continue
            vals, got = pool[:], []
            for n, k, last in plan:
                j = getrandbits(k)
                while j >= n:
                    j = getrandbits(k)
                got.append(vals[j])
                vals[j] = vals[last]
            batches.append(got)
        out.append(batches)
    return out


def _take(rng: random.Random | None, values) -> list:
    """One batch of :func:`_take_rounds` from the pool `values`."""
    [[batch]] = _take_rounds(rng, [list(values)], 1)
    return batch


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


def _family_fit(F: Field, Ts: list, degree: int) -> dict | None:
    """None if every member Ts[i] of a conjugate family equals, entry by
    entry, the polynomial of degree <= `degree` in the code i through the
    members at the codes 0 .. degree (all of them, when there are fewer);
    else the first failing ``i``, the polynomial's matrix there
    (``expected``) and the member (``direct``).  The polynomial is read in
    Newton form, from the divided differences of each entry at those codes,
    and evaluated by Horner's rule."""
    mul, add, sub, inv = F._mul, F._add, F._sub, F._inv
    n, cols = min(degree + 1, len(Ts)), []
    for c in map(list, zip(*Ts[:n])):
        for k in range(1, n):
            for j in range(n - 1, k - 1, -1):
                c[j] = mul[sub[c[j]][c[j - 1]]][inv[sub[j][j - k]]]
        col = [c[-1]] * len(Ts)
        for k in range(n - 2, -1, -1):  # Horner: c[k] + (i - k)*col
            at = add[c[k]]
            col = [at[mul[sub[i][k]][x]] for i, x in enumerate(col)]
        cols.append(col)
    i = _agreeing(Ts, fit := list(zip(*cols)))
    return {"i": i, "expected": list(fit[i]), "direct": list(Ts[i])} if i < len(Ts) else None


def _form_values(F: Field, gs) -> set:
    """{g*x*x : x != 0, g in gs}, with g = 0 giving {0}, built in O(q).

    The value set of a binary quadratic form f over a domain of nonzero
    points closed under nonzero scaling, with `gs` the values of f at the
    points of the domain among the q + 1 points (1, y) and (0, 1).  Since
    f(x*v) = x*x*f(v), and every nonzero point is a nonzero multiple of
    exactly one of those points, f takes on the domain exactly the union of
    the cosets g*(nonzero squares) over g in `gs`.  That coset is {0} for
    g = 0, else the nonzero squares or the non-squares by the square class
    of g.
    """
    sq = F._sq
    kinds = {sq[g] if g else None for g in gs}
    return {v for v in range(F.q) if (sq[v] if v else None) in kinds}


def _fail(name: str, q: int, details: dict, **payload) -> CheckResult:
    return CheckResult(name, q, False, payload, details)


def _label_texts(F: Field, mask: int) -> list[str]:
    # the labels of a class mask as sorted text, for a failure payload
    return sorted(str(e.label) for e in _entries(F, mask))


# ---------------------------------------------------------------------------
# the row scan: each product recomputed from one factor's class members, the
# independent oracle of the closed forms in products.py
# ---------------------------------------------------------------------------

def _line_rows(F: Field, tau0: int, tau1: int, edges) -> list[int]:
    """The row i of each trace e in ``edges`` on the row line through the
    traces tau0 and tau1 of the rows 0 and 1: i = (e - tau0)/(tau1 - tau0),
    the one such row when the slope is nonzero (part ``row_slopes``)."""
    mul, sub = F._mul, F._sub
    k = mul[F._inv[sub[tau1][tau0]]]
    return [k[sub[e][tau0]] for e in edges]


def _diagonal_rows(F: Field, t: int, r: int, edges) -> tuple[int, list]:
    """Rows of the D or W class of trace t against B = diag(r, 1/r).

    Conjugating by diag(x, 1/x) fixes B and scales b by x*x and c by
    1/(x*x), so the members with b in {1, nu}, or b = 0 and c in {0, 1, nu}
    ({0, 1} for even q), meet every orbit of its centralizer.  They fall
    into rows a = 0 .. q-1: d = t - a, and bc = ad - 1 =: k gives
    (a, 1, k, d), (a, nu, k/nu, d) and, when k = 0, (a, 0, c, d).  The row
    trace tr(X*B) = a*r + (t - a)/r = a*(r - 1/r) + t/r is a line in a of
    slope r - 1/r != 0, as r*r != 1: the rows take every trace once.

    Returns the classes of every row trace but +-2, every D and W class,
    and the members of the rows whose trace is in ``edges``.
    """
    mul, add, sub, inv = F._mul, F._add, F._sub, F._inv
    ri = mul[inv[r]]
    nu = F.least_nonsquare
    cs = (0, 1) if nu is None else (0, 1, nu)
    members: list[tuple] = []
    for a in _line_rows(F, ri[t], add[r][ri[sub[t][1]]], edges):
        d = sub[t][a]
        k = sub[mul[a][d]][1]
        if not k:
            members += [(a, 0, c, d) for c in cs]
        members.append((a, 1, k, d))
        if nu is not None:
            members.append((a, nu, mul[k][inv[nu]], d))
    return class_table(F).semisimple_mask, members


def _upper_rows(F: Field, t: int, s: int, u: int, edges) -> tuple[int, list]:
    """Rows of the D or W class of trace t against B = [[s,u],[0,s]].

    Conjugating by [[1,x],[0,1]] fixes B and c, and shifts a by x*c, so the
    members with c = 0 (a an eigenvalue of the class, every b) or with
    a = 0 and c != 0 (b = -1/c) meet every orbit of its centralizer.
    tr(X*B) = s*t + u*c is a line in c of slope u != 0: each c != 0 is a
    row of one member, and these take every trace but s*t once; c = 0 is
    one row of trace s*t, in which b runs over every element, unless the
    class is W and has no member with c = 0.  As t is not +-2 and s*s == 1,
    s*t is not +-2 either, so every row of trace +-2 has c != 0.

    Returns the classes of the row traces other than +-2 and the members
    in the rows whose trace is in ``edges``.
    """
    mul, add, neg, inv = F._mul, F._add, F._neg, F._inv
    table = class_table(F)
    st = mul[s][t]
    members = [(0, neg[inv[c]], c, t) for c in _line_rows(F, st, add[st][u], edges)]
    # every trace, but s*t for a W class
    w_miss = table.trace_bits[st] if table.by_trace[t].label.kind == "W" else 0
    return table.semisimple_mask & ~w_miss, members


def _square_roots(F: Field) -> list[int]:
    # root[x*x] = x for the largest such code x; 0 at the non-squares
    got = F._cache.get("square_roots")
    if got is None:
        got = F._cache["square_roots"] = [0] * F.q
        for x in range(F.q):
            got[F._mul[x][x]] = x
    return got


def _torus_members(F: Field, w: int, rows: list[tuple]) -> list[tuple]:
    """Determinant-one matrices of the given rows M = m0*I + m1*B of the
    non-split torus cut: at least one in every orbit of the centralizer of
    B = [[0,1],[-1,w]] (x**2 - w*x + 1 irreducible) on the class of trace
    t, when the rows are all the M = (m0, m1) of trace t.

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


def _companion_rows(F: Field, t: int, w: int, edges) -> tuple[int, list]:
    """Rows of the W class of trace t against B = [[0,1],[-1,w]]: the M =
    m0*I + m1*B of trace 2*m0 + w*m1 = t, of row trace w*m0 + (w*w - 2)*m1
    (:func:`_torus_members`).  For odd q, row m1 has m0 = (t - w*m1)/2 and
    the trace w*t/2 + m1*(w*w - 4)/2; for even q, m1 = t/w (w != 0, as
    x*x + 1 is reducible) and row m0 has the trace w*m0 + w*t.  Either is a
    line of nonzero slope, as w*w - 4 is the discriminant of the
    irreducible x**2 - w*x + 1: the rows take every trace once.

    Returns the classes of every row trace but +-2, every D and W class,
    and the members of the rows whose trace is in ``edges``.
    """
    mul, add, sub, inv = F._mul, F._add, F._sub, F._inv
    mw, mk, half, odd = mul[w], mul[sub[mul[w][w]][add[1][1]]], inv[add[1][1]], F.q % 2

    def row(i: int) -> tuple:
        return (mul[sub[t][mw[i]]][half], i) if odd else (i, mul[t][inv[w]])

    tau0, tau1 = (add[mw[m0]][mk[m1]] for m0, m1 in map(row, (0, 1)))
    rows = [row(i) for i in _line_rows(F, tau0, tau1, edges)]
    return class_table(F).semisimple_mask, _torus_members(F, w, rows)


def _scan_keys(F: Field, la: ClassLabel, lb: ClassLabel) -> int:
    """Class mask of the product of la's and lb's classes, with the
    operands ordered and the first one's class scanned by rows against the
    canonical representative B of the second, as the module docstring sets
    out; the checks and the tests recompute every closed form with it.  Only
    the members of rows of trace +-2 are keyed one by one, by
    :func:`_class_keys`, but a U x U pair keys its first factor's whole
    cut against [[s,u],[0,s]]: the members (0, -1/c, c, t) and (r, b, 0, r)
    whose -c, or b, is in the class's square class.  A central factor gives
    one member, the representative of the first factor's class.
    """
    if (la.kind == "U" and lb.kind != "U") or (la.kind, lb.kind) == ("D", "W"):
        la, lb = lb, la
    table = class_table(F)
    b4 = table.rep(lb)[:4]  # the entries a, b, c, d
    # the traces 2s, s*s == 1: the only ones of more than one class, Z(s)
    # and the U(s, +-), so the only ones that give no class by themselves
    edges = [F._add[s][s] for s in _roots_of_one(F)]
    t = table.entry(la).trace
    if la.kind == "Z" or lb.kind == "Z":
        rows, members = 0, [table.rep(la)[:4]]
    elif la.kind == "U":  # so lb is U too
        r, sq, neg, inv, want = la.x, F._sq, F._neg, F._inv, la.square
        rows, members = 0, [(r, b, 0, r) for b in range(1, F.q) if sq[b] == want]
        members += [(0, neg[inv[c]], c, t) for c in range(1, F.q) if sq[neg[c]] == want]
    elif lb.kind == "D":
        rows, members = _diagonal_rows(F, t, b4[0], edges)
    elif lb.kind == "U":
        rows, members = _upper_rows(F, t, b4[0], b4[1], edges)
    else:
        rows, members = _companion_rows(F, t, lb.x, edges)
    return rows | _class_keys(F, members, b4)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_conjugation_formulas(F: Field, *, seed: int = 0) -> CheckResult:
    """Closed-form conjugates against direct matrix computation.

    Exhaustive over conjugators up to FORMULA_EXHAUSTIVE_LIMIT (and over
    conjugated matrices too when q <= 4); seeded samples above.

    The ``general`` case, 24,300 of the 40,500 comparisons at q = 25,
    checks the expansion C**-1 * (A * C) against _conjugates'
    (C**-1 * A) * C, which share no intermediate product; the diagonal,
    upper and companion forms are the paper's closed forms.
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

    # the draw order is the module docstring's; the direct side is
    # trace(T * B), T = A^C: T0*t + T2*x + T3*t for B = [[t,x],[0,t]] and
    # -T1 + T2 + T3*x for B = [[0,1],[-1,x]]
    upper_pools = [units] * len(roots1)
    for r in _take(prng, units):
        s = inv[r]
        rounds = _take_rounds(prng, [unit_pairs, *upper_pools, elems], len(Cs))
        for C, T, (uvs, *uss, ws) in zip(Cs, _conjugates(F, Cs, (r, 0, 0, s)), rounds):
            mta, mtc, mtd = mul[T[0]], mul[T[2]], mul[T[3]]
            want = [add[mta[u]][mtd[v]] for u, v in uvs]
            got = trace_form_diag_diag(F, C, r, s, uvs)
            if got != want:
                return failure("diag_diag", C, {"r": r, "s": s}, "uv", uvs, got, want)
            comparisons += len(uvs)
            for t, us in zip(roots1, uss):
                at, atd = add[mta[t]], add[mtd[t]]
                want = [at[atd[mtc[x]]] for x in us]
                got = trace_form_diag_upper(F, C, r, s, t, us)
                if difference_variant_ok:
                    n = _agreeing(got, want)
                    variant = trace_form_diag_upper_difference_variant(F, C, r, s, t, us)
                    difference_variant_ok = variant[:n] == want[:n]
                if got != want:
                    return failure("diag_upper", C, {"r": r, "s": s, "t": t}, "u", us, got, want)
                comparisons += len(us)
            ac = add[add[neg[T[1]]][T[2]]]
            got, want = trace_form_diag_companion(F, C, r, s, ws), [ac[mtd[x]] for x in ws]
            if got != want:
                return failure("diag_companion", C, {"r": r, "s": s}, "w", ws, got, want)
            comparisons += len(ws)

    for r in roots1:
        for u in _take(prng, units):
            rounds = _take_rounds(prng, [*upper_pools, elems], len(Cs))
            for C, T, (*wss, ss) in zip(Cs, _conjugates(F, Cs, (r, u, 0, r)), rounds):
                mta, mtc, mtd = mul[T[0]], mul[T[2]], mul[T[3]]
                for t, ws in zip(roots1, wss):
                    at, atd = add[mta[t]], add[mtd[t]]
                    got = trace_form_upper_upper(F, C, r, u, t, ws)
                    want = [at[atd[mtc[x]]] for x in ws]
                    if got != want:
                        return failure("upper_upper", C, {"r": r, "u": u, "t": t}, "w", ws,
                                       got, want)
                    comparisons += len(ws)
                ac = add[add[neg[T[1]]][T[2]]]
                got, want = trace_form_upper_companion(F, C, r, u, ss), [ac[mtd[x]] for x in ss]
                if got != want:
                    return failure("upper_companion", C, {"r": r, "u": u}, "s", ss, got, want)
                comparisons += len(ss)

    for w in _take(prng, elems):
        rounds = _take_rounds(prng, [elems], len(Cs))
        for C, T, (vs,) in zip(Cs, _conjugates(F, Cs, (0, 1, neg1, w)), rounds):
            ac, mtd = add[add[neg[T[1]]][T[2]]], mul[T[3]]
            got, want = trace_form_companion_companion(F, C, w, vs), [ac[mtd[x]] for x in vs]
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
    returned counterexample is the first failure.  The two-variable sets
    come from ``_form_values``, from the form's values on one point per
    line: the mix form on (1, y) with y != 0, the two-variable form on
    every (1, y) and on (0, 1), and the norm forms on every (1, c).

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
    mul, add, sub, sq = F._mul, F._add, F._sub, F._sq
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

    mix_pairs = _grid(rng, exhaustive, 200, units, units) if q > 3 else []
    for a, b in mix_pairs:  # a + b*y*y on the points (1, y), y != 0
        vals = _form_values(F, [add[a][mul[b][y2]] for y2 in squares[1:]])
        ok = any(sq[v] for v in vals) and any(not sq[v] for v in vals)
        flag("square_nonsquare_mix", ok, {"params": {"a": a, "b": b}, "values": sorted(vals)})
    details["square_mix_pairs"] = len(mix_pairs)

    four = add[add[1][1]][add[1][1]]
    good_s = [s for s in range(q) if sub[mul[s][s]][four] != 0]
    two_var = _grid(rng, exhaustive, 200, units, good_s, elems)
    for u, s, r in two_var:
        # the set is s*r - u*Q(x, y), one-to-one in Q as u != 0, with
        # Q = x*x + s*x*y + y*y taking 1 + s*y + y*y at (1, y) and 1 at (0, 1)
        qvals = _form_values(F, [1] + [add[add[1][mul[s][y]]][squares[y]] for y in elems])
        vals = {sub[mul[s][r]][mul[u][v]] for v in qvals}
        flag("two_variable_image", len(vals) >= q - 1,
             {"params": {"u": u, "s": s, "r": r}, "size": len(vals), "expected_at_least": q - 1})
    details["two_variable_images"] = len(two_var)

    nonzero = set(units)
    ws = [w for w in elems if not sq[sub[mul[w][w]][four]]]
    # each variant's first failing w; on the point (1, c) the plus form
    # a*a + c*c - a*c*w is 1 + c*c - c*w and the minus one 1 - c*c + c*w
    plus_bad = next((w for w in ws if _form_values(
        F, [sub[add[1][squares[c]]][mul[w][c]] for c in elems]) != nonzero), None)
    minus_bad = next((w for w in ws if _form_values(
        F, [add[sub[1][squares[c]]][mul[w][c]] for c in elems]) != nonzero), None)
    details["norm_form_w_values"] = len(ws)
    details["norm_form_plus_holds"] = plus_bad is None
    details["norm_form_minus_holds"] = minus_bad is None
    if minus_bad is not None:
        details["norm_form_minus_failing_w"] = minus_bad
    # one variant covering all qualifying w is what the downstream argument
    # needs; which one it is stays recorded above
    flag("norm_form", plus_bad is None or minus_bad is None,
         {"failing_w": {"plus": plus_bad, "minus": minus_bad}})

    return CheckResult(name, q, counterexample is None, counterexample, details)


def check_split_trace_coverage(F: Field, *, seed: int = 0) -> CheckResult:
    """Products of a diagonalizable (split) class with any noncentral class
    cover every trace, so such a product meets at least q classes.

    For A = diag(r, s), s = 1/r, the conjugator families [[i,i-1],[1,1]]
    and [[1,i],[0,1]] give the conjugates

        A**C = [[s + i*(r-s), (i-1)*(r-s)], [i*(s-r), r + i*(s-r)]],
        A**C = [[r, i*(r-s)], [0, s]],

    each entry affine in i.  So every member is T(i) = T(0) + i*(T(1) -
    T(0)), which is checked over all q members of both families once per D
    class (part ``family_affine``).  The trace is linear, so for every
    second factor B the q direct products A**C * B have the traces
    t0 + i*(t1 - t0), fixed by the members 0 and 1.  Per (D, noncentral)
    pair, (t0, t1 - t0) must equal the base and the nonzero slope the
    family produces (part ``pair_line``): a D(u) or U(x) representative
    against the first family, B = [[0,1],[-1,w]] of W(w) against the
    second (traces s*w + i*(s-r)).  A nonzero slope makes the q traces all
    of GF(q).
    """
    name = "split_trace_coverage"
    q = F.q
    mul, add, sub, neg, inv = F._mul, F._add, F._sub, F._neg, F._inv
    table = class_table(F)
    splits = [e for e in table.entries if e.label.kind == "D"]
    noncentral = [e for e in table.entries if e.label.kind != "Z"]
    details = {"split_classes": len(splits), "pairs": 0}
    if not splits:
        return CheckResult(name, q, True, None, details)  # vacuous: q < 4

    upper_family = [(1, i, 0, 1) for i in range(q)]
    other_family = [(i, sub[i][1], 1, 1) for i in range(q)]
    for ea in splits:
        r = ea.label.x
        s = inv[r]
        a4 = (r, 0, 0, s)
        upper, other = _conjugates(F, upper_family, a4), _conjugates(F, other_family, a4)
        for family, Ts in (("[[i,i-1],[1,1]]", other), ("[[1,i],[0,1]]", upper)):
            if bad := _family_fit(F, Ts, 1):
                return _fail(name, q, details, part="family_affine", split=str(ea.label),
                             family=family, **bad)
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
                Ts, slope, base = other, neg[mul[sub[r][s]][eb.rep.b]], mul[lb.x][add[r][s]]
            t0, t1 = _family_traces(F, Ts[:2], b4)
            if (got := [t0, sub[t1][t0]]) != [base, slope] or not slope:
                return _fail(name, q, details, part="pair_line", pair=[str(ea.label), str(lb)],
                             expected=[base, slope], direct=got)
            details["pairs"] += 1

    return CheckResult(name, q, True, None, details)


def check_even_char_bounds(F: Field, *, seed: int = 0) -> CheckResult:
    """Even q: trace coverage of the repeated-eigenvalue and irreducible
    families, and the class-count bound of at least q-1 for every pair of
    them.

    The witness conjugator families are [[1,0],[i,1]] (traces i*i),
    diag(1/i, i) (traces i*i + w, i != 0) and [[i+1,i],[i,i+1]] (traces
    v*w*(i*i + 1)).  Each direct product A**C * B lies in the product of the
    classes, and distinct traces are distinct classes, so the family traces
    bound the class count.  The U x U family is traced member by member,
    and its q traces i*i must be all of GF(q) (part ``upper_upper_traces``):
    so squaring is a bijection of this field, and the q - 1 traces i*i + w,
    i != 0, of each U x W pair are distinct.  Only the U x W pairs are
    scanned, to show that the trace w is missing, which no family can.

    W x W: the conjugates of A = [[0,1],[-1,w]] by [[i+1,i],[i,i+1]] have
    entries of degree <= 2 in i, each a sum of products of an entry of
    C**-1 and one of C; the whole family is checked against the quadratic
    through its members 0, 1 and 2 once per W(w) (part
    ``family_quadratic``).  The trace against B = [[0,1],[-1,v]] is linear
    in the entries, so the pair's q traces are a polynomial of degree <= 2
    in i, as is v*w*(i*i + 1), and two such polynomials that agree at the
    three codes 0, 1 and 2 are equal: each pair traces only those members
    (part ``companion_companion_family``).  A W(w) has w != 0, since
    x*x + 1 = (x + 1)**2 is reducible here, so v*w != 0; with squaring a
    bijection, i*i + 1 and so v*w*(i*i + 1) run over all of GF(q), q
    classes.
    """
    name = "even_char_bounds"
    q = F.q
    if q % 2:
        raise ValueError("even-characteristic check requires even q")
    mul, add, inv = F._mul, F._add, F._inv
    w_labels = [l for l in class_table(F).labels() if l.kind == "W"]
    details = {"irreducible_classes": len(w_labels), "pairs": 0}
    full = frozenset(range(q))
    u4 = (1, 1, 0, 1)

    squares = [mul[i][i] for i in range(q)]
    got = _family_traces(F, _conjugates(F, [(1, 0, i, 1) for i in range(q)], u4), u4)
    if (i := _agreeing(got, squares)) < q:
        return _fail(name, q, details, part="upper_upper_family", i=i,
                     expected=squares[i], direct=got[i])
    if set(got) != full:
        return _fail(name, q, details, part="upper_upper_traces", traces=sorted(set(got)))
    details["pairs"] += 1

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
        ts = {e.trace for e in _entries(F, _scan_keys(F, ClassLabel("U", 1), lw))}
        if ts != full - {w}:
            return _fail(name, q, details, part="upper_companion_trace_exclusion",
                         w=w, traces=sorted(ts))
        details["pairs"] += 1

    companion_family = [(add[i][1], i, i, add[i][1]) for i in range(q)]
    for j, l1 in enumerate(w_labels):
        w = l1.x
        conjugates = _conjugates(F, companion_family, (0, 1, 1, w))
        if bad := _family_fit(F, conjugates, 2):
            return _fail(name, q, details, part="family_quadratic", w=w, **bad)
        for l2 in w_labels[j:]:
            v = l2.x
            want = [mul[mul[v][w]][add[x][1]] for x in squares[:3]]
            got = _family_traces(F, conjugates[:3], (0, 1, 1, v))
            if (i := _agreeing(got, want)) < len(want):
                return _fail(name, q, details, part="companion_companion_family",
                             w=w, v=v, i=i, direct=got[i])
            details["pairs"] += 1

    return CheckResult(name, q, True, None, details)


def check_odd_char_bounds(F: Field, *, seed: int = 0) -> CheckResult:
    """Odd q > 3: the product bounds for pairs drawn from the
    repeated-eigenvalue (U) and irreducible (W) families.

    U x U: the product of U(r, .) and U(t, .), with off-diagonal
    parameters u and w, is read through products._product_keys (the
    products._upper_upper_keys closed form), which must equal the scan.
    Its classes at the trace 2rt, those of the upper-triangular products
    [[rt, r*w + t*u*x], [0, rt]] over the nonzero squares x, must be at
    least two (part ``upper_upper_witnesses``), and
    its traces, 2rt and 2rt - u*w*x over the same x, at least (q+1)/2 (part
    ``upper_upper_traces``): so at least (q+3)/2 classes, two at the trace
    2rt and one at each of the (q-1)/2 or more other traces.  The values
    r*w + t*u*x usually hold a square and a non-square; at q = 5 with both
    off-diagonal parameters non-square they are a square and 0, and the
    two classes are then the central one plus the square variant -- the
    count of pairs whose product lacks U(rt, -) is recorded in
    ``witness_sets_without_nonsquare``.

    U x W: at least q-1 classes.

    W x W: A = [[0,1],[-1,w]] conjugated by [[1,i],[0,1]] has entries of
    degree <= 2 in i, and the whole family is checked against the quadratic
    through its members 0, 1 and 2 once per W(w) (part
    ``family_quadratic``).  Its trace against B = [[0,1],[-1,v]] is linear
    in the entries, so a polynomial of degree <= 2 in i, and it must equal
    f(i) = -i*i + i*(w - v) + w*v - 2 at the codes 0, 1 and 2 (part
    ``companion_companion_family``), hence at every i.  Completing the
    square, f(i) = vertex - (i - (w - v)/2)**2 with vertex = w*v - 2 +
    (w - v)**2/4, so f takes the values vertex - x for x among the squares
    and 0: (q+1)/2 values, the number of squares and 0, which is counted
    once per field (part ``companion_companion_traces``).  Two direct
    products add the repeated-eigenvalue classes.  Let
    s0 = -1, or 1 when v + w = 0, so e = s0*w - v is nonzero except for
    the self-pair of the trace-0 class (possible when q = 3 mod 4).  With
    N = [[-y,1],[-y*y,y]] (trace 0, N*N = 0) and Q(y) = 1 - v*y + y*y,
    the matrix X = s0*(I + e/Q(y)*N) has determinant 1, and X*B**-1
    (B**-1 = [[v,-1],[1,0]], trace(N*B**-1) = Q(y)) has trace
    s0*(v + e) = w, so it lies in W(w) and X in W(w)*W(v).  X is in
    U(s0, square class of s0*e/Q(y)).  Q has no root, as x*x - v*x + 1
    is irreducible; so x*x - v*x*y + y*y is anisotropic, takes every
    nonzero value, and takes a non-square at some (1, y), while Q(0) = 1:
    the products at y = 0 and at that y give U(s0,+) and U(s0,-).
    For the exempt self-pair e = 0 and X = I, the class Z(1) at trace 2;
    that pair is counted in ``zero_trace_self_pairs_exempt``.  Each product
    is checked directly (its determinant, the class of X*B**-1 and its own
    class), and then the bound of (q+3)/2 classes needs no count of its
    own: the (q+1)/2 family traces less at most the witnesses' trace 2*s0,
    plus the two witness classes at it.  The exempt pair (w = v = 0,
    s0 = 1) has the one witness class Z(1), but its traces f(i) =
    -2 - i*i never equal 2, as -4 is a non-square where W(0) exists
    (x*x + 1 irreducible makes -1 one): (q+1)/2 + 1 classes.  That fact is
    checked with the count of squares, once per field.
    """
    name = "odd_char_bounds"
    q = F.q
    if q % 2 == 0 or q <= 3:
        raise ValueError("odd-characteristic check requires odd q > 3")
    mul, add, sub, neg, inv, sq = F._mul, F._add, F._sub, F._neg, F._inv, F._sq
    table = class_table(F)
    bits = table.label_bits
    u_labels = [l for l in table.labels() if l.kind == "U"]
    w_labels = [l for l in table.labels() if l.kind == "W"]
    details = {"uu_pairs": 0, "uw_pairs": 0, "ww_pairs": 0,
               "witness_sets_without_nonsquare": 0, "zero_trace_self_pairs_exempt": 0}

    for l1, l2 in itertools.combinations_with_replacement(u_labels, 2):
        pair = [str(l1), str(l2)]
        keys, scan = _product_keys(F, l1, l2), _scan_keys(F, l1, l2)
        rt = mul[l1.x][l2.x]
        u_minus = bits["U", rt, False]
        details["witness_sets_without_nonsquare"] += not keys & u_minus
        wit = keys & (bits["Z", rt, True] | bits["U", rt, True] | u_minus)
        if keys != scan or wit.bit_count() < 2:
            return _fail(name, q, details, part="upper_upper_witnesses", pair=pair,
                         witnesses=_label_texts(F, wit), found=_label_texts(F, scan))
        if len(ts := {e.trace for e in _entries(F, keys)}) < (q + 1) // 2:
            return _fail(name, q, details, part="upper_upper_traces", pair=pair,
                         traces=sorted(ts))
        details["uu_pairs"] += 1

    for l1, l2 in itertools.product(u_labels, w_labels):
        n = _scan_keys(F, l1, l2).bit_count()
        if n < q - 1:
            return _fail(name, q, details, part="upper_companion_bound",
                         pair=[str(l1), str(l2)], classes=n)
        details["uw_pairs"] += 1

    two, neg1 = add[1][1], neg[1]
    # (q + 1)/2 squares, 0 among them; and -4 a non-square where W(0) is,
    # so that its self-pair's traces -2 - i*i miss the witness trace 2
    squares = {mul[i][i] for i in range(q)}
    if (len(squares) != (q + 1) // 2
            or (ClassLabel("W", 0) in w_labels and neg[add[two][two]] in squares)):
        return _fail(name, q, details, part="companion_companion_traces", squares=sorted(squares))
    upper_family = [(1, i, 0, 1) for i in range(q)]
    # per W(v), the least y with Q(y) = 1 - v*y + y*y a non-square
    ys = {l.x: next(y for y in range(q) if not sq[add[sub[1][mul[l.x][y]]][mul[y][y]]])
          for l in w_labels}
    for j, l1 in enumerate(w_labels):
        w = l1.x
        conjugates = _conjugates(F, upper_family, (0, 1, neg1, w))
        if bad := _family_fit(F, conjugates, 2):
            return _fail(name, q, details, part="family_quadratic", w=w, **bad)
        for l2 in w_labels[j:]:
            pair = [str(l1), str(l2)]
            v = l2.x
            base, mk = add[sub[mul[w][v]][two]], mul[sub[w][v]]
            want = [base[sub[mk[i]][mul[i][i]]] for i in range(3)]
            got = _family_traces(F, conjugates[:3], (0, 1, neg1, v))
            if (i := _agreeing(got, want)) < len(want):
                return _fail(name, q, details, part="companion_companion_family", pair=pair,
                             i=i, expected=want[i], direct=got[i])
            s0 = neg1 if add[v][w] != 0 else 1
            e = sub[mul[s0][w]][v]
            xs = []
            for y in (0, ys[v]):  # X = s0*I + k*N with k = s0*e/Q(y)
                k = mul[mul[s0][e]][inv[add[sub[1][mul[v][y]]][mul[y][y]]]]
                ky = mul[k][y]
                xs.append((sub[s0][ky], k, neg[mul[ky][y]], add[s0][ky]))
            wit = [ClassLabel("U", s0, True), ClassLabel("U", s0, False)] if e else [ClassLabel("Z", 1)]
            details["zero_trace_self_pairs_exempt"] += not e
            keys = _class_keys(F, xs, (1, 0, 0, 1))
            if (any(sub[mul[a][d]][mul[b][c]] != 1 for a, b, c, d in xs)
                    or _class_keys(F, xs, (v, neg1, 1, 0)) != table.trace_bits[w]
                    or keys != sum(map(bits.__getitem__, wit))):
                return _fail(name, q, details, part="companion_companion_witnesses", pair=pair,
                             witnesses=[str(l) for l in wit], products=[list(x) for x in xs],
                             found=_label_texts(F, keys))
            details["ww_pairs"] += 1

    return CheckResult(name, q, True, None, details)


def check_min_class_bounds(F: Field, *, seed: int = 0) -> CheckResult:
    """The group-wide minimum product class count and its optimality
    witness.

    Central times anything collapses to a single class: Z(r) x C is r*C
    (products._central_keys).  Over noncentral pairs the minimum is exactly
    q-1 for even q, attained by the repeated-eigenvalue class against an
    irreducible class; exactly (q+3)/2 for odd q > 3, attained by the two
    square classes of eigenvalue-1 upper triangulars when q = 1 mod 4 and
    by the square one against itself otherwise; and exactly 2 for q = 3.

    One walk visits every unordered pair of classes in table order, as
    ``sweep`` visits the noncentral ones, and scans each once.  The pair's
    closed form is read through products._product_keys, the dispatcher
    that product_report serves, in both operand orders, and compared with
    that scan (the product is symmetric); equal masks have equal counts.  A difference
    fails the part named for the kernel that serves the pair's kinds:
    ``central_pair`` (products._central_keys, a central factor),
    ``semisimple_formula`` (products._semisimple_keys, two D or W classes),
    ``unipotent_formula`` (products._unipotent_keys, a U class against one)
    or ``upper_upper_formula`` (products._upper_upper_keys, two U classes).
    First the slope of every row line of the scan, which solves each line
    for its rows of trace +-2 alone, is checked nonzero (part ``row_slopes``).
    The minimum counts only the pairs with a U factor that can attain it
    (its docstring proves which); the least scanned count over the
    noncentral pairs of the walk, with the first pair that has it, must
    equal its value and witness, or the part ``minimum_census`` fails.
    """
    name = "min_class_bounds"
    q = F.q
    mul, sub, inv = F._mul, F._sub, F._inv
    table = class_table(F)
    details: dict = {}

    # the slope of the scan's row lines against each second factor (none for Z)
    two = F._add[1][1]
    for e in table.entries:
        x = e.label.x
        slope = {"Z": 1, "D": sub[x][inv[x]], "U": e.rep.b,
                 "W": mul[sub[mul[x][x]][mul[two][two]]][inv[two]] if q % 2 else x}[e.label.kind]
        if not slope:
            return _fail(name, q, details, part="row_slopes", factor=str(e.label))

    # every unordered pair in table order, scanned once: the served closed
    # form in both orders against that scan, and the census, the least
    # verified count of a noncentral pair with its first pair
    census = (float("inf"), None)
    for la, lb in itertools.combinations_with_replacement(table.labels(), 2):
        scan = _scan_keys(F, la, lb)
        kinds = {la.kind, lb.kind}
        for pair in ((la, lb), (lb, la)):
            formula = _product_keys(F, *pair)
            if formula != scan:
                # named by the kernel that _product_keys picks for the kinds
                part = ("central_pair" if "Z" in kinds else "upper_upper_formula"
                        if kinds == {"U"} else "unipotent_formula" if "U" in kinds
                        else "semisimple_formula")
                return _fail(name, q, details, part=part, pair=[str(l) for l in pair],
                             formula_only=_label_texts(F, formula & ~scan),
                             scan_only=_label_texts(F, scan & ~formula),
                             classes=scan.bit_count())
        if "Z" not in kinds and (n := scan.bit_count()) < census[0]:
            census = n, (la, lb)

    min_val, witness = min_product_classes(F)
    details["min_classes"] = min_val
    details["witness"] = [str(witness[0]), str(witness[1])]

    if q % 2 == 0:
        expected, pair = q - 1, (ClassLabel("U", 1), ClassLabel("W", irreducible_traces(F)[0]))
    elif q == 3:
        expected, pair = 2, None
    else:
        expected, pair = (q + 3) // 2, (ClassLabel("U", 1, True), ClassLabel("U", 1, q % 4 != 1))
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
    if (min_val, witness) != census:
        return _fail(name, q, details, part="minimum_census", minimum=min_val,
                     witness=details["witness"], census=census[0],
                     census_witness=[str(l) for l in census[1]])
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
