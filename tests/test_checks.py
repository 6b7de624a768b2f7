"""The validators: expected outcomes per field, recorded discrepancy
resolutions, determinism, and fault injection (a perturbed closed form must
flip the corresponding check with a counterexample)."""

import dataclasses
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

import oracles
from sl2q import checks, products
from sl2q.classes import ClassLabel
from sl2q.field import prime_powers_up_to
from sl2q.matrices import enumerate_sl2
from sl2q.checks import (
    ALL_CHECKS,
    CheckResult,
    applicable_checks,
    check_even_char_bounds,
    check_min_class_bounds,
    check_odd_char_bounds,
    check_split_trace_coverage,
    check_trace_formulas,
    check_value_set_counts,
    run_checks,
)

CLEAN_QS = [2, 3, 4, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", CLEAN_QS)
def test_all_checks_pass(q):
    for r in run_checks(oracles.field_for(q)):
        assert r.passed, f"{r.check} failed at q={q}: {r.counterexample}"
        assert r.counterexample is None
        assert r.elapsed_ms >= 0


def test_q5_value_set_anomaly():
    # {2x^2 + 2y^2 : x,y != 0} = {0,1,4} is all squares over GF(5): the
    # square-and-non-square claim is genuinely false there, and the check
    # says so; everything else about GF(5) passes
    results = {r.check: r for r in run_checks(oracles.field_for(5))}
    bad = results.pop("value_set_counts")
    assert not bad.passed
    assert bad.counterexample["part"] == "square_nonsquare_mix"
    assert bad.counterexample["params"] == {"a": 2, "b": 2}
    assert bad.counterexample["values"] == [0, 1, 4]
    status = bad.details["part_status"]
    assert status["square_nonsquare_mix"] is False
    for part in ("quadratic_image", "two_variable_image", "norm_form"):
        assert status[part] is True
    for r in results.values():
        assert r.passed, f"{r.check}: {r.counterexample}"


@pytest.mark.parametrize("q,diff_holds", [(4, True), (5, False), (7, False), (8, True)])
def test_diag_upper_sign_resolution(q, diff_holds):
    # the sum form t(r+s) is the correct one; the difference variant only
    # coincides with it in characteristic 2
    r = check_trace_formulas(oracles.field_for(q))
    assert r.passed
    assert r.details["diag_upper_sum_form_holds"] is True
    assert r.details["diag_upper_difference_form_holds"] is diff_holds


@pytest.mark.parametrize("q,minus_holds", [(3, False), (5, False), (7, False), (9, True), (13, False)])
def test_norm_form_variant_recorded(q, minus_holds):
    r = check_value_set_counts(oracles.field_for(q))
    assert r.details["norm_form_plus_holds"] is True
    assert r.details["norm_form_minus_holds"] is minus_holds


# Tier-1 runs odd q <= 49, `-m slow` the odd q up to 127
@pytest.mark.parametrize("q", [q if q <= 49 else pytest.param(q, marks=pytest.mark.slow)
                               for q in prime_powers_up_to(127) if q % 2])
def test_form_values_match_brute_force(q, monkeypatch):
    # every value set that value_set_counts reads off one point per line, in
    # call order, against the set enumerated over all its points; the
    # samples are redrawn with the checks' own _rng and _grid
    F = oracles.field_for(q)
    mul, add, sub, sq = F._mul, F._add, F._sub, F._sq
    got, real = [], checks._form_values

    def recording(F, gs):
        got.append(real(F, gs))
        return got[-1]

    monkeypatch.setattr(checks, "_form_values", recording)
    check_value_set_counts(F)
    calls = iter(got)

    units, elems = range(1, q), range(q)
    exhaustive = q <= checks.ODD_VALUE_SET_EXHAUSTIVE_LIMIT
    rng = checks._rng(F, "value_set_counts", 0)
    checks._grid(rng, exhaustive, 300, units, elems, elems)  # the quadratic_image triples
    if q > 3:
        for a, b in checks._grid(rng, exhaustive, 200, units, units):
            assert next(calls) == oracles.mix_values(F, a, b), ("mix", a, b)
    four = add[add[1][1]][add[1][1]]
    good_s = [s for s in elems if sub[mul[s][s]][four]]
    for u, s, r in checks._grid(rng, exhaustive, 200, units, good_s, elems):
        # the kernel gives Q's values, and the check maps them by s*r - u*Q
        assert ({sub[mul[s][r]][mul[u][v]] for v in next(calls)}
                == oracles.two_variable_values(F, u, s, r)), ("two_variable", u, s, r)
    for plus in (True, False):
        for w in (w for w in elems if not sq[sub[mul[w][w]][four]]):
            want = oracles.norm_values(F, w, plus)
            assert next(calls) == want, ("norm_form", plus, w)
            if want != set(units):
                break  # the variant's first failing w ends its search
    assert next(calls, None) is None


EVEN_VALUE_SET_PARTS = ["affine_square_image"]
ODD_VALUE_SET_PARTS = ["quadratic_image", "square_nonsquare_mix", "two_variable_image", "norm_form"]


@pytest.mark.parametrize("q,payload", [
    pytest.param(4, {"part": "affine_square_image", "params": {"a": 0, "c": 3}, "size": 1,
                     "expected": 4}, id="4"),
    pytest.param(32, {"part": "affine_square_image", "params": {"a": 0, "c": 14}, "size": 1,
                      "expected": 32}, id="32"),
    pytest.param(7, {"part": "quadratic_image", "params": {"a": 0, "b": 6, "c": 6}, "size": 7,
                     "expected": 4}, id="7"),
    pytest.param(17, {"part": "quadratic_image", "params": {"a": 0, "b": 9, "c": 3}, "size": 17,
                      "expected": 9}, id="17"),
])
def test_zero_leading_coefficient_fault_injection(q, payload, monkeypatch):
    # the last tuple of the check's first grid, the affine (even q) or the
    # quadratic (odd q) one, drawn with a = 0, against both claims' a != 0:
    # its image is one value or, with b != 0, all q; exhaustive at q = 4
    # and 7, sampled at 17 and 32
    real, drawn = checks._grid, []

    def evil(rng, exhaustive, n, *pools):
        grid = real(rng, exhaustive, n, *pools)
        if not drawn:
            grid[-1] = (0, *grid[-1][1:])
        drawn.append(grid)
        return grid

    monkeypatch.setattr(checks, "_grid", evil)
    r = check_value_set_counts(oracles.field_for(q))
    assert not r.passed
    assert r.counterexample == payload
    parts = EVEN_VALUE_SET_PARTS if q % 2 == 0 else ODD_VALUE_SET_PARTS
    assert r.details["part_status"] == {p: p != payload["part"] for p in parts}


@pytest.mark.parametrize("q,points,payload", [
    pytest.param(7, 8, {"part": "two_variable_image", "params": {"u": 1, "s": 0, "r": 0},
                        "size": 5, "expected_at_least": 6}, id="7-two_variable"),
    pytest.param(17, 18, {"part": "two_variable_image", "params": {"u": 9, "s": 10, "r": 12},
                          "size": 15, "expected_at_least": 16}, id="17-two_variable"),
    pytest.param(7, 7, {"part": "norm_form", "failing_w": {"plus": 0, "minus": 0}},
                 id="7-norm_form"),
    pytest.param(9, 9, {"part": "norm_form", "failing_w": {"plus": 4, "minus": 4}},
                 id="9-norm_form"),
    pytest.param(17, 17, {"part": "norm_form", "failing_w": {"plus": 1, "minus": 1}},
                 id="17-norm_form"),
])
def test_short_form_value_set_fault_injection(q, points, payload, monkeypatch):
    # the value sets read off `points` points (q + 1 for the two-variable
    # form, q for the norm forms; the mix form has q - 1) cut to their
    # q - 2 least values: the two-variable image then falls one short of
    # its bound of q - 1, and no norm form takes all q - 1 nonzero values
    real = checks._form_values

    def evil(F, gs):
        vals = real(F, gs)
        return set(sorted(vals)[:F.q - 2]) if len(gs) == points else vals

    monkeypatch.setattr(checks, "_form_values", evil)
    r = check_value_set_counts(oracles.field_for(q))
    assert not r.passed
    assert r.counterexample == payload
    assert r.details["part_status"] == {p: p != payload["part"] for p in ODD_VALUE_SET_PARTS}


def test_odd_bounds_anomaly_counters():
    # q=5: three U-pair witness sets contain no non-square (both parameters
    # non-square); q=7 and q=11 have the exempt trace-0 self-pair
    assert check_odd_char_bounds(oracles.field_for(5)).details["witness_sets_without_nonsquare"] == 3
    assert check_odd_char_bounds(oracles.field_for(7)).details["zero_trace_self_pairs_exempt"] == 1
    r9 = check_odd_char_bounds(oracles.field_for(9)).details
    assert r9["witness_sets_without_nonsquare"] == 0
    assert r9["zero_trace_self_pairs_exempt"] == 0


def test_parity_preconditions():
    with pytest.raises(ValueError):
        check_even_char_bounds(oracles.field_for(5))
    with pytest.raises(ValueError):
        check_odd_char_bounds(oracles.field_for(4))
    with pytest.raises(ValueError):
        check_odd_char_bounds(oracles.field_for(3))


def test_applicable_checks():
    assert "even_char_bounds" in applicable_checks(4)
    assert "odd_char_bounds" not in applicable_checks(4)
    assert "odd_char_bounds" not in applicable_checks(3)
    assert "odd_char_bounds" in applicable_checks(5)
    for q in (3, 4, 5):
        assert applicable_checks(q)[-1] == "min_class_bounds"
        assert set(applicable_checks(q)) <= set(ALL_CHECKS)


def test_min_bounds_details():
    r = check_min_class_bounds(oracles.field_for(9))
    assert r.details["min_classes"] == 6
    assert r.details["expected"] == 6
    assert r.details["equality_pair"] == ["U(1,+)", "U(1,-)"]
    r3 = check_min_class_bounds(oracles.field_for(3))
    assert r3.details["min_classes"] == 2 and "equality_pair" not in r3.details
    r8 = check_min_class_bounds(oracles.field_for(8))
    assert r8.details["equality_pair"] == ["U(1,+)", "W(1)"]


@pytest.mark.parametrize("q", [2, 3, 7, 8, 9])
def test_min_bounds_scan_each_pair_once(q, monkeypatch):
    # one walk over the unordered pairs of classes: each scanned once, and
    # its served closed form read in both operand orders
    scan, keys = checks._scan_keys, checks._product_keys
    scanned, read = [], []

    def recording_scan(F, la, lb):
        scanned.append((la, lb))
        return scan(F, la, lb)

    def recording_keys(F, la, lb):
        read.append((la, lb))
        return keys(F, la, lb)

    monkeypatch.setattr(checks, "_scan_keys", recording_scan)
    monkeypatch.setattr(checks, "_product_keys", recording_keys)
    F = oracles.field_for(q)
    assert check_min_class_bounds(F).passed
    labels = checks.class_table(F).labels()
    pairs = list(itertools.combinations_with_replacement(labels, 2))
    assert len(scanned) == len(pairs) == len(labels) * (len(labels) + 1) // 2
    assert {frozenset(p) for p in scanned} == {frozenset(p) for p in pairs}
    assert sorted(read) == sorted(pairs + [(lb, la) for la, lb in pairs])


def test_checks_deterministic():
    def snapshot(q):
        out = []
        for r in run_checks(oracles.field_for(q), seed=1):
            d = r.to_json()
            d.pop("elapsed_ms")
            out.append(d)
        return out

    for q in (5, 8):
        assert snapshot(q) == snapshot(q)


def test_sampled_regime_runs():
    # above the exhaustive threshold the formula checks fall back to seeded
    # sampling and stay deterministic
    F = oracles.field_for(16)
    r1 = check_trace_formulas(F).to_json()
    r2 = check_trace_formulas(F).to_json()
    assert r1["passed"] and not r1["details"]["exhaustive"]
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert r1 == r2


# comparison counts in the sampled regime: a batch that drops or repeats a
# comparison changes them
@pytest.mark.parametrize("q,trace_comparisons,conj_comparisons",
                         [(11, 443300, 40300), (16, 245400, 36810), (25, 445500, 40500)])
def test_sampled_comparison_counts(q, trace_comparisons, conj_comparisons):
    F = oracles.field_for(q)
    assert check_trace_formulas(F).details["comparisons"] == trace_comparisons
    assert checks.check_conjugation_formulas(F).details["comparisons"] == conj_comparisons


def test_take_same_draws_for_same_seed():
    draws = [checks._take(random.Random(7), range(40)) for _ in range(2)]
    assert draws[0] == draws[1]
    assert draws[0] != checks._take(random.Random(8), range(40))


@pytest.mark.parametrize("n", [checks.TAKE + 1, checks.TAKE + 2, 24, 85, 86, 300])
def test_take_distinct_members_when_more_than_cap(n):
    values = [3 * v + 1 for v in range(n)]
    got = checks._take(random.Random(n), values)
    assert len(got) == len(set(got)) == checks.TAKE
    assert set(got) <= set(values)
    assert values == [3 * v + 1 for v in range(n)]  # the population is left alone


def test_take_everything_in_order_at_cap_or_without_rng():
    for n in (0, 1, checks.TAKE - 1, checks.TAKE):
        assert checks._take(random.Random(1), range(n)) == list(range(n)), n
    # without an rng (the exhaustive regime) every value comes back, past TAKE too
    for n in (checks.TAKE, checks.TAKE + 1, 5 * checks.TAKE):
        assert checks._take(None, range(n)) == list(range(n)), n


def test_take_matches_sample_on_small_pools():
    # for cap 10 and pools of at most 85 values, CPython 3.11's
    # Random.sample runs the same partial Fisher-Yates shuffle
    for n in range(11, 86):
        assert checks._take(random.Random(n), range(n)) == random.Random(n).sample(range(n), 10), n


def _fisher_yates(rng, values):
    # the partial shuffle written out once, as the module docstring states it
    vals, out = list(values), []
    for n in range(len(vals), len(vals) - checks.TAKE, -1):
        j = rng.getrandbits(n.bit_length())
        while j >= n:
            j = rng.getrandbits(n.bit_length())
        out.append(vals[j])
        vals[j] = vals[n - 1]
    return out


SAMPLER_POOL_SIZES = [3, checks.TAKE, checks.TAKE + 1, 24, 85, 86, 300, 1023]


def test_take_rounds_match_repeated_take():
    pools = [[7 * v + 2 for v in range(n)] for n in SAMPLER_POOL_SIZES]
    copies = [pool[:] for pool in pools]
    got = checks._take_rounds(random.Random(5), pools, 6)
    rng = random.Random(5)
    assert got == [[checks._take(rng, pool) for pool in pools] for _ in range(6)]
    ref = random.Random(5)
    assert got == [[_fisher_yates(ref, pool) if len(pool) > checks.TAKE else pool
                    for pool in pools] for _ in range(6)]
    assert rng.getstate() == ref.getstate()  # not one draw more
    assert pools == copies  # the pools are left alone


def test_take_rounds_hand_out_the_pools_without_rng():
    pools = [list(range(n)) for n in SAMPLER_POOL_SIZES]
    got = checks._take_rounds(None, pools, 4)
    assert len(got) == 4
    assert all(batch is pool for batches in got for batch, pool in zip(batches, pools))
    assert checks._take_rounds(random.Random(1), pools, 0) == []


def test_trace_formulas_need_no_random_sample(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("random.Random.sample called")

    monkeypatch.setattr(random.Random, "sample", refuse)
    r = check_trace_formulas(oracles.field_for(11))
    assert r.passed and not r.details["exhaustive"]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_conjugates_match_two_products(q):
    # every conjugator of SL(2, q) against every A in it and the 0/1
    # matrices, which need not be invertible
    F = oracles.field_for(q)
    mul, add, neg = F._mul, F._add, F._neg
    group = [(M.a, M.b, M.c, M.d) for M in enumerate_sl2(F)]
    for A in group + list(itertools.product((0, 1), repeat=4)):
        assert checks._conjugates(F, group, A) == [oracles._conj4(mul, add, neg, C, A)
                                                   for C in group], A


def test_check_result_json_round_trip():
    r = check_min_class_bounds(oracles.field_for(5))
    r.elapsed_ms = 1.25
    back = CheckResult.from_json(r.to_json())
    assert back == r
    assert "counterexample" not in r.to_json()


TRACE_FORMS = [
    "trace_form_diag_diag",
    "trace_form_diag_upper",
    "trace_form_diag_companion",
    "trace_form_upper_upper",
    "trace_form_upper_companion",
    "trace_form_companion_companion",
]
CONJ_FORMS = [
    "conj_form_general",
    "conj_form_diagonal",
    "conj_form_upper",
    "conj_form_companion",
]


# SHA-256 of the repr of every (form, C, params) tuple handed to the six
# trace forms and the four conjugation forms, in call order, with each
# list-valued parameter as a tuple; recorded when every batch was drawn by its
# own _take call, so the bulk sampler must make the same draws in the same order
DRAW_LOG_DIGESTS = {
    11: "53a66ee5ca37469e596123e44bc4add58db23aa77898cb7691691f725a6bef9e",
    16: "5aa7a7ac179187d06d951e076bdc04f7d6624da14f5c65089814249d627b99a4",
}


@pytest.mark.parametrize("q", sorted(DRAW_LOG_DIGESTS))
def test_formula_draw_log_pinned(q, monkeypatch):
    log = hashlib.sha256()

    def recording(name, orig):
        def form(F, C, *args):
            params = tuple(tuple(x) if isinstance(x, list) else x for x in args)
            log.update(repr((name, tuple(C), params)).encode())
            return orig(F, C, *args)
        return form

    for name in TRACE_FORMS + CONJ_FORMS:
        monkeypatch.setattr(checks, name, recording(name, getattr(checks, name)))
    F = oracles.field_for(q)
    assert check_trace_formulas(F).passed and checks.check_conjugation_formulas(F).passed
    assert log.hexdigest() == DRAW_LOG_DIGESTS[q]


def _shift_scalar(orig):
    def evil(F, C, *args):
        return [F._add[t][1] for t in orig(F, C, *args)]
    return evil


def _shift_matrix(orig):
    def evil(F, C, *args):
        got = orig(F, C, *args)
        return (F._add[got[0]][1],) + tuple(got[1:])
    return evil


# q = 4, 5 are exhaustive; 11 and 16 (odd and even) sample conjugators and parameters
@pytest.mark.parametrize("name", TRACE_FORMS)
@pytest.mark.parametrize("q", [4, 5, 11, 16])
def test_trace_formula_fault_injection(name, q, monkeypatch):
    monkeypatch.setattr(checks, name, _shift_scalar(getattr(checks, name)))
    r = checks.check_trace_formulas(oracles.field_for(q))
    assert not r.passed
    assert r.counterexample is not None
    assert r.counterexample["form"] in name


def _shift_mid_batch(orig):
    # moves the traces whose sampled parameter (u of a (u, v) pair) is
    # 2 mod 3, so a batch usually fails after some comparisons agreed
    def evil(F, C, *args):
        return [F._add[t][1] if (x[0] if isinstance(x, tuple) else x) % 3 == 2 else t
                for t, x in zip(orig(F, C, *args), args[-1])]
    return evil


CONJUGATORS = {5: 120, 11: 403, 16: 409, 25: 405}


# form, q, then the counterexample's C, params, closed_form and direct, the
# comparisons made and the difference-variant verdict so far.  Here and in the
# fault tables below, the rows whose values pytest cannot render carry the ids
# it first gave them by position, pinned, so a row added or removed renames
# no other test; new rows are named for what they spoil
@pytest.mark.parametrize("form,q,C,params,closed_form,direct,comparisons,difference_holds", [
    pytest.param("diag_diag", 5, [0, 1, 4, 0], {"r": 1, "s": 1, "u": 2, "v": 3}, 1, 0, 2, True,
                 id="diag_diag-5-C0-params0-1-0-2-True"),
    pytest.param("diag_diag", 11, [1, 0, 0, 1], {"r": 1, "s": 1, "u": 2, "v": 6}, 9, 8, 2, True,
                 id="diag_diag-11-C1-params1-9-8-2-True"),
    pytest.param("diag_diag", 16, [1, 0, 0, 1], {"r": 1, "s": 1, "u": 14, "v": 7}, 8, 9, 1, True,
                 id="diag_diag-16-C2-params2-8-9-1-True"),
    pytest.param("diag_diag", 25, [1, 0, 0, 1], {"r": 19, "s": 22, "u": 17, "v": 7}, 0, 4, 2, True,
                 id="diag_diag-25-C3-params3-0-4-2-True"),
    pytest.param("diag_upper", 5, [0, 1, 4, 0], {"r": 1, "s": 1, "t": 1, "u": 2}, 3, 2, 6, False,
                 id="diag_upper-5-C4-params4-3-2-6-False"),
    pytest.param("diag_upper", 11, [1, 0, 0, 1], {"r": 1, "s": 1, "t": 1, "u": 2}, 3, 2, 12, False,
                 id="diag_upper-11-C5-params5-3-2-12-False"),
    pytest.param("diag_upper", 16, [1, 0, 0, 1], {"r": 1, "s": 1, "t": 1, "u": 11}, 1, 0, 12, True,
                 id="diag_upper-16-C6-params6-1-0-12-True"),
    pytest.param("diag_upper", 25, [1, 0, 0, 1], {"r": 19, "s": 22, "t": 1, "u": 11}, 12, 11, 11, True,
                 id="diag_upper-25-C7-params7-12-11-11-True"),
    pytest.param("diag_companion", 5, [0, 1, 4, 0], {"r": 1, "s": 1, "w": 2}, 3, 2, 15, False,
                 id="diag_companion-5-C8-params8-3-2-15-False"),
    pytest.param("diag_companion", 11, [1, 0, 0, 1], {"r": 1, "s": 1, "w": 5}, 6, 5, 34, False,
                 id="diag_companion-11-C9-params9-6-5-34-False"),
    pytest.param("diag_companion", 16, [1, 0, 0, 1], {"r": 1, "s": 1, "w": 8}, 9, 8, 22, True,
                 id="diag_companion-16-C10-params10-9-8-22-True"),
    pytest.param("diag_companion", 25, [1, 0, 0, 1], {"r": 19, "s": 22, "w": 5}, 17, 16, 33, False,
                 id="diag_companion-25-C11-params11-17-16-33-False"),
    pytest.param("upper_upper", 5, [0, 1, 4, 0], {"r": 1, "t": 1, "u": 1, "w": 2}, 1, 0, 8162, False,
                 id="upper_upper-5-C12-params12-1-0-8162-False"),
    pytest.param("upper_upper", 11, [1, 0, 0, 1], {"r": 1, "t": 1, "u": 1, "w": 2}, 3, 2, 161202, False,
                 id="upper_upper-11-C13-params13-3-2-161202-False"),
    pytest.param("upper_upper", 16, [1, 0, 0, 1], {"r": 1, "t": 1, "u": 10, "w": 14}, 1, 0, 122702, True,
                 id="upper_upper-16-C14-params14-1-0-122702-True"),
    pytest.param("upper_upper", 25, [1, 0, 0, 1], {"r": 1, "t": 1, "u": 18, "w": 8}, 3, 2, 162005, False,
                 id="upper_upper-25-C15-params15-3-2-162005-False"),
    pytest.param("upper_companion", 5, [0, 1, 4, 0], {"r": 1, "s": 2, "u": 1}, 2, 1, 8171, False,
                 id="upper_companion-5-C16-params16-2-1-8171-False"),
    pytest.param("upper_companion", 11, [1, 0, 0, 1], {"r": 1, "s": 8, "u": 1}, 8, 7, 161221, False,
                 id="upper_companion-11-C17-params17-8-7-161221-False"),
    pytest.param("upper_companion", 16, [1, 0, 0, 1], {"r": 1, "s": 2, "u": 10}, 9, 8, 122715, True,
                 id="upper_companion-16-C18-params18-9-8-122715-True"),
    pytest.param("upper_companion", 25, [1, 1, 0, 1], {"r": 1, "s": 17, "u": 18}, 0, 4, 162051, False,
                 id="upper_companion-25-C19-params19-0-4-162051-False"),
    pytest.param("companion_companion", 5, [0, 1, 4, 0], {"v": 2, "w": 0}, 4, 3, 20643, False,
                 id="companion_companion-5-C20-params20-4-3-20643-False"),
    pytest.param("companion_companion", 11, [1, 0, 0, 1], {"v": 5, "w": 0}, 10, 9, 403006, False,
                 id="companion_companion-11-C21-params21-10-9-403006-False"),
    pytest.param("companion_companion", 16, [1, 0, 0, 1], {"v": 8, "w": 3}, 0, 1, 204502, True,
                 id="companion_companion-16-C22-params22-0-1-204502-True"),
    pytest.param("companion_companion", 25, [1, 0, 0, 1], {"v": 5, "w": 4}, 24, 23, 405004, False,
                 id="companion_companion-25-C23-params23-24-23-405004-False"),
])
def test_trace_formula_mid_batch_failure(form, q, C, params, closed_form, direct, comparisons,
                                         difference_holds, monkeypatch):
    name = "trace_form_" + form
    monkeypatch.setattr(checks, name, _shift_mid_batch(getattr(checks, name)))
    r = checks.check_trace_formulas(oracles.field_for(q)).to_json()
    r.pop("elapsed_ms")
    assert r == {
        "check": "trace_formulas", "q": q, "passed": False,
        "counterexample": {"form": form, "C": C, "params": params,
                           "closed_form": closed_form, "direct": direct},
        "details": {"conjugators": CONJUGATORS[q], "exhaustive": q <= 9,
                    "comparisons": comparisons,
                    "diag_upper_difference_form_holds": difference_holds},
    }


@pytest.mark.parametrize("name", CONJ_FORMS)
@pytest.mark.parametrize("q", [4, 5, 11, 16])
def test_conjugation_formula_fault_injection(name, q, monkeypatch):
    monkeypatch.setattr(checks, name, _shift_matrix(getattr(checks, name)))
    r = checks.check_conjugation_formulas(oracles.field_for(q))
    assert not r.passed
    assert r.counterexample is not None
    assert r.counterexample["form"] in name
    # every earlier case compared at each conjugator, then the failing one
    assert r.details["comparisons"] % r.details["conjugators"] == 1


def test_sign_flip_fault_injection(monkeypatch):
    # a genuine coefficient perturbation rather than a constant shift:
    # s*(r - ucd) -> s*(r + ucd)
    def flipped(F, C, r, u, ss):
        mul, add, neg = F._mul, F._add, F._neg
        a, b, c, d = C
        t1 = add[mul[u][mul[d][d]]][mul[u][mul[c][c]]]
        return [add[neg[t1]][mul[s][add[r][mul[u][mul[c][d]]]]] for s in ss]

    monkeypatch.setattr(checks, "trace_form_upper_companion", flipped)
    r = checks.check_trace_formulas(oracles.field_for(5))
    assert not r.passed and r.counterexample["form"] == "upper_companion"


@pytest.mark.parametrize("q,kinds,pair,expected,found", [
    pytest.param(7, "ZDUW", ["Z(6)", "Z(6)"], ["Z(1)"], ["Z(6)"],
                 id="7-ZDUW-pair0-expected0-found0"),
    pytest.param(9, "ZDUW", ["Z(2)", "Z(2)"], ["Z(1)"], ["Z(2)"],
                 id="9-ZDUW-pair1-expected1-found1"),
    pytest.param(7, "U", ["Z(6)", "U(1,+)"], ["U(6,-)"], ["U(1,+)"],
                 id="7-U-pair2-expected2-found2"),
    pytest.param(9, "U", ["Z(2)", "U(1,+)"], ["U(2,+)"], ["U(1,+)"],
                 id="9-U-pair3-expected3-found3"),
])
def test_central_pair_fault_injection(q, kinds, pair, expected, found, monkeypatch):
    # Z(-1) x C scanned as Z(1) x C for C of the given kinds: each central
    # product must be the class r*C of products._central_keys (expected),
    # first at Z(-1) x Z(-1) when Z is among the kinds; -1 is a non-square
    # at q = 7, which flips a U class's sign, and a square at 9
    real = checks._scan_keys

    def evil(F, la, lb):
        if la.kind == "Z" and la.x != 1 and lb.kind in kinds:
            la = ClassLabel("Z", 1)
        return real(F, la, lb)

    monkeypatch.setattr(checks, "_scan_keys", evil)
    r = check_min_class_bounds(oracles.field_for(q))
    assert not r.passed
    assert r.counterexample == {"part": "central_pair", "pair": pair,
                                "formula_only": expected, "scan_only": found, "classes": 1}


@pytest.mark.parametrize("q", [7, 8])
def test_semisimple_formula_fault_injection(q, monkeypatch):
    # U(1,+) put back into the product of a W class with itself: the scan
    # inside min_class_bounds must catch the closed form the library serves
    real = products._semisimple_keys

    def evil(F, la, lb):
        return real(F, la, lb) | oracles.mask_keys(F, {ClassLabel("U", 1, True)})

    monkeypatch.setattr(products, "_semisimple_keys", evil)
    F = oracles.field_for(q)
    w = str(next(l for l in checks.class_table(F).labels() if l.kind == "W"))
    r = check_min_class_bounds(F)
    assert not r.passed
    assert r.counterexample["part"] == "semisimple_formula"
    assert r.counterexample["pair"] == [w, w]
    assert r.counterexample["formula_only"] == ["U(1,+)"]
    assert r.counterexample["scan_only"] == []


@pytest.mark.parametrize("q", [7, 8])
def test_unipotent_formula_fault_injection(q, monkeypatch):
    # every W class put into U(r) x W: the scan inside min_class_bounds must
    # catch the closed form, here at U(1,+) against the first W class
    real = products._unipotent_keys

    def evil(F, la, lb):  # a W class's key is its trace
        ws = {e.trace for e in checks.class_table(F).entries if e.label.kind == "W"}
        return real(F, la, lb) | oracles.mask_keys(F, ws)

    monkeypatch.setattr(products, "_unipotent_keys", evil)
    F = oracles.field_for(q)
    w = str(next(l for l in checks.class_table(F).labels() if l.kind == "W"))
    r = check_min_class_bounds(F)
    assert not r.passed
    assert r.counterexample["part"] == "unipotent_formula"
    assert r.counterexample["pair"] == ["U(1,+)", w]
    assert r.counterexample["formula_only"] == [w]
    assert r.counterexample["scan_only"] == []


def test_served_unipotent_fault_fails_min_class_bounds(monkeypatch):
    # W(r*t_b), the one class the U(r) x W proof excludes, put back into
    # the kernel that product_report serves: eta then prints 7 classes for
    # U(1,+) x W(0) at q = 7, not 6.  The minimum and the equality witness
    # there are U x U pairs that the fault leaves alone, so only the scan
    # of the served closed form can catch it, at that pair
    real = products._unipotent_keys

    def evil(F, la, lb):  # the U class comes first
        mask = real(F, la, lb)
        return mask | oracles.mask_keys(F, {F._mul[la.x][lb.x]}) if lb.kind == "W" else mask

    monkeypatch.setattr(products, "_unipotent_keys", evil)
    F = oracles.field_for(7)
    assert products.product_report(F, ClassLabel("U", 1), ClassLabel("W", 0)).num_classes == 7
    r = check_min_class_bounds(F)
    assert not r.passed
    assert r.counterexample == {"part": "unipotent_formula", "pair": ["U(1,+)", "W(0)"],
                                "formula_only": ["W(0)"], "scan_only": [], "classes": 6}


@pytest.mark.parametrize("swapped,payload", [
    pytest.param(("WU",), {"part": "unipotent_formula", "pair": ["W(0)", "U(1,+)"],
                           "formula_only": ["U(1,+)", "W(0)"],
                           "scan_only": ["D(2)", "W(3)", "W(4)"], "classes": 6},
                 id="WU"),
    pytest.param(("DZ", "UZ", "WZ", "DU", "WU"), {"part": "central_pair", "pair": ["D(2)", "Z(1)"],
                                                  "formula_only": ["Z(1)"], "scan_only": ["D(2)"],
                                                  "classes": 1},
                 id="every-swap"),
])
def test_reversed_operand_order_fault_injection(swapped, payload, monkeypatch):
    # the dispatcher's operand swap spoiled to `la, lb = lb, lb` for the
    # given kinds of (la, lb): for W x U alone, eta then prints 5 classes
    # for W(0) x U(1,+) at q = 7 and the right 6 the other way round; with
    # every swap spoiled, the first central pair taken the other way round
    # fails.  Only the reversed operand order reaches the swap
    real = products._product_keys

    def evil(F, la, lb):
        if la.kind + lb.kind in swapped:
            la, lb = lb, lb
        return real(F, la, lb)

    monkeypatch.setattr(checks, "_product_keys", evil)
    r = check_min_class_bounds(oracles.field_for(7))
    assert not r.passed
    assert r.counterexample == payload


# the U x U kernel spoiled: the class U(-rs, .) at the trace -2rs lost (odd
# q), or the Z(rs) condition flipped, Z(rs) gained where r*w + s*u*x never
# vanishes and lost where it does
UPPER_UPPER_FAULTS = {
    "drop_minus_edge": lambda F, la, lb, keys: frozenset(
        k for k in keys if isinstance(k, int) or k[1] != F._neg[F._mul[la.x][lb.x]]),
    "flip_z": lambda F, la, lb, keys: keys ^ {ClassLabel("Z", F._mul[la.x][lb.x])},
}


@pytest.mark.parametrize("q,fault,formula_only,scan_only,classes", [
    pytest.param(5, "drop_minus_edge", [], ["U(4,+)"], 4, id="5-drop_minus_edge"),
    pytest.param(7, "drop_minus_edge", [], ["U(6,+)"], 5, id="7-drop_minus_edge"),
    pytest.param(9, "drop_minus_edge", [], ["U(2,+)"], 7, id="9-drop_minus_edge"),
    pytest.param(5, "flip_z", [], ["Z(1)"], 4, id="5-flip_z"),
    pytest.param(7, "flip_z", ["Z(1)"], [], 5, id="7-flip_z"),
    pytest.param(8, "flip_z", [], ["Z(1)"], 9, id="8-flip_z"),
    pytest.param(9, "flip_z", [], ["Z(1)"], 7, id="9-flip_z"),
])
def test_upper_upper_formula_fault_injection(q, fault, formula_only, scan_only, classes,
                                             monkeypatch):
    # the scan inside min_class_bounds must catch the spoiled kernel at the
    # first U x U pair, U(1,+) with itself, before the minimum, which reads
    # the same kernel, is compared
    real, spoil = products._upper_upper_keys, UPPER_UPPER_FAULTS[fault]
    monkeypatch.setattr(products, "_upper_upper_keys", lambda F, la, lb: oracles.mask_keys(
        F, spoil(F, la, lb, oracles.mask_keys(F, real(F, la, lb)))))
    r = check_min_class_bounds(oracles.field_for(q))
    assert not r.passed
    assert r.counterexample == {"part": "upper_upper_formula", "pair": ["U(1,+)", "U(1,+)"],
                                "formula_only": formula_only, "scan_only": scan_only,
                                "classes": classes}


# the row kernel that scans a failing pair, and the part it fails, by the
# kinds of that pair as min_class_bounds reports it
ROW_KERNELS = {
    ("D", "D"): ("_diagonal_rows", "semisimple_formula"),
    ("D", "U"): ("_upper_rows", "unipotent_formula"),
    ("W", "W"): ("_companion_rows", "semisimple_formula"),
}


@pytest.mark.parametrize("q,dropped,pair,missing,count", [
    pytest.param(8, 1, ["D(2)", "D(2)"], ["W(1)"], 9, id="8-1-pair0-missing0-9"),
    pytest.param(9, 0, ["D(3)", "D(3)"], ["D(3)"], 13, id="9-0-pair1-missing1-13"),
    pytest.param(16, 1, ["D(2)", "D(2)"], ["D(10)"], 17, id="16-1-pair2-missing2-17"),
    pytest.param(25, 0, ["D(2)", "D(2)"], ["D(2)"], 29, id="25-0-pair3-missing3-29"),
    pytest.param(8, 1, ["D(2)", "U(1,+)"], ["W(1)"], 8, id="8-1-pair4-missing4-8"),
    pytest.param(9, 0, ["D(3)", "U(1,+)"], ["D(3)"], 9, id="9-0-pair5-missing5-9"),
    pytest.param(16, 1, ["D(2)", "U(1,+)"], ["D(10)"], 16, id="16-1-pair6-missing6-16"),
    pytest.param(25, 0, ["D(2)", "U(1,+)"], ["D(2)"], 25, id="25-0-pair7-missing7-25"),
    pytest.param(8, 1, ["W(1)", "W(1)"], ["W(1)"], 8, id="8-1-pair8-missing8-8"),
    pytest.param(9, 0, ["W(4)", "W(4)"], ["D(3)"], 10, id="9-0-pair9-missing9-10"),
    pytest.param(16, 1, ["W(3)", "W(3)"], ["D(10)"], 16, id="16-1-pair10-missing10-16"),
    pytest.param(25, 0, ["W(7)", "W(7)"], ["D(2)"], 26, id="25-0-pair11-missing11-26"),
])
def test_dropped_scan_row_fault_injection(q, dropped, pair, missing, count, monkeypatch):
    # a row kernel loses the class of one row trace other than +-2 (0 is
    # the edge trace for even q, so those drop 1): min_class_bounds, which
    # compares every pair with a D or W factor with its closed form, must
    # fail at the first pair that kernel scans, with that trace's class as
    # formula_only; count is the closed form's class count, one more than
    # the spoiled scan's
    kernel, part = ROW_KERNELS[(pair[0][0], pair[1][0])]
    real = getattr(checks, kernel)

    def evil(F, t, *args):
        rows, members = real(F, t, *args)
        return rows & ~oracles.mask_keys(F, {dropped}), members

    monkeypatch.setattr(checks, kernel, evil)
    r = check_min_class_bounds(oracles.field_for(q))
    assert not r.passed
    assert r.counterexample == {"part": part, "pair": pair,
                                "formula_only": missing, "scan_only": [], "classes": count - 1}


@pytest.mark.parametrize("q,pair,formula_only,classes", [
    pytest.param(7, ["D(2)", "D(2)"], ["U(1,+)", "U(1,-)", "U(6,+)", "U(6,-)", "Z(1)"], 5, id="7"),
    pytest.param(8, ["D(2)", "D(2)"], ["U(1,+)", "Z(1)"], 7, id="8"),
    pytest.param(9, ["D(3)", "D(3)"], ["U(1,+)", "U(1,-)", "U(2,+)", "U(2,-)", "Z(1)", "Z(2)"], 7,
                 id="9"),
    pytest.param(25, ["D(2)", "D(2)"], ["U(1,+)", "U(1,-)", "U(4,+)", "U(4,-)", "Z(1)", "Z(4)"],
                 23, id="25"),
])
def test_spoiled_row_node_fault_injection(q, pair, formula_only, classes, monkeypatch):
    # every row line's node 1 (the row trace at index 1) moved by 1: the
    # rows solved for the traces +-2 are then other rows, so the first D x D
    # scan loses the Z and U classes that the closed form has
    real = checks._line_rows
    monkeypatch.setattr(checks, "_line_rows",
                        lambda F, tau0, tau1, edges: real(F, tau0, F._add[tau1][1], edges))
    r = check_min_class_bounds(oracles.field_for(q))
    assert not r.passed
    assert r.counterexample == {"part": "semisimple_formula", "pair": pair,
                                "formula_only": formula_only, "scan_only": [],
                                "classes": classes}


# the witness-family checks: a conjugate with one entry moved by 1 (entry k
# of C**-1 * A * C, for the conjugators C and factors A that `hit` picks)
# must fail at the first family member it spoils, with the exact payload;
# split_trace_coverage draws each family's line through its members 0 and
# 1, so a spoiled member 0 or 1 fails at member 2, and the char_bounds
# checks fit their W x W family's quadratic through its members 0, 1 and 2,
# so a spoiled member 2 fails at member 3
HITS = {
    "off_diagonal_2": lambda C, A: 2 in (C[1], C[2]),
    "upper_0": lambda C, A: C[2] == 0 and C[1] == 0,
    "upper_1": lambda C, A: C[2] == 0 and C[1] == 1,
    "upper_2": lambda C, A: C[2] == 0 and C[1] == 2,
    "other_0": lambda C, A: C[2] == 1 and C[0] == 0,
    "other_1": lambda C, A: C[2] == 1 and C[0] == 1,
    "diagonal_2": lambda C, A: C[1] == C[2] == 0 and C[0] == 2,
    "companion_factor": lambda C, A: A[0] == 0 and 2 in (C[1], C[2]),
    "companion_5": lambda C, A: A[0] == 0 and C[1] == 5,
}


@pytest.mark.parametrize("check,q,k,hit,payload", [
    pytest.param("split_trace_coverage", 8, 0, "off_diagonal_2",
                 {"part": "family_affine", "split": "D(2)", "family": "[[i,i-1],[1,1]]", "i": 3,
                  "expected": [7, 5, 1, 3], "direct": [6, 5, 1, 3]},
                 id="split_trace_coverage-8-0-off_diagonal_2-payload0"),
    pytest.param("split_trace_coverage", 9, 0, "off_diagonal_2",
                 {"part": "family_affine", "split": "D(3)", "family": "[[i,i-1],[1,1]]", "i": 2,
                  "expected": [2, 6, 6, 0], "direct": [0, 6, 6, 0]},
                 id="split_trace_coverage-9-0-off_diagonal_2-payload1"),
    pytest.param("split_trace_coverage", 8, 2, "off_diagonal_2",
                 {"part": "family_affine", "split": "D(2)", "family": "[[i,i-1],[1,1]]", "i": 3,
                  "expected": [7, 5, 1, 3], "direct": [7, 5, 0, 3]},
                 id="split_trace_coverage-8-2-off_diagonal_2-payload2"),
    pytest.param("split_trace_coverage", 9, 2, "off_diagonal_2",
                 {"part": "family_affine", "split": "D(3)", "family": "[[i,i-1],[1,1]]", "i": 2,
                  "expected": [0, 6, 8, 0], "direct": [0, 6, 6, 0]},
                 id="split_trace_coverage-9-2-off_diagonal_2-payload3"),
    pytest.param("split_trace_coverage", 8, 2, "upper_2",
                 {"part": "family_affine", "split": "D(2)", "family": "[[1,i],[0,1]]", "i": 2,
                  "expected": [2, 5, 0, 6], "direct": [2, 5, 1, 6]},
                 id="split_trace_coverage-8-2-upper_2-payload4"),
    pytest.param("split_trace_coverage", 9, 2, "upper_2",
                 {"part": "family_affine", "split": "D(3)", "family": "[[1,i],[0,1]]", "i": 2,
                  "expected": [3, 3, 0, 6], "direct": [3, 3, 1, 6]},
                 id="split_trace_coverage-9-2-upper_2-payload5"),
    pytest.param("even_char_bounds", 8, 2, "off_diagonal_2",
                 {"part": "upper_upper_family", "i": 2, "expected": 4, "direct": 5},
                 id="even_char_bounds-8-2-off_diagonal_2-payload6"),
    pytest.param("even_char_bounds", 16, 2, "off_diagonal_2",
                 {"part": "upper_upper_family", "i": 2, "expected": 4, "direct": 5},
                 id="even_char_bounds-16-2-off_diagonal_2-payload7"),
    pytest.param("even_char_bounds", 8, 2, "diagonal_2",
                 {"part": "upper_companion_family", "w": 1, "i": 6, "expected": 2, "direct": 3},
                 id="even_char_bounds-8-2-diagonal_2-payload8"),
    pytest.param("even_char_bounds", 16, 2, "diagonal_2",
                 {"part": "upper_companion_family", "w": 3, "i": 12, "expected": 5, "direct": 4},
                 id="even_char_bounds-16-2-diagonal_2-payload9"),
    pytest.param("even_char_bounds", 8, 2, "companion_factor",
                 {"part": "family_quadratic", "w": 1, "i": 3, "expected": [5, 7, 6, 4],
                  "direct": [5, 7, 7, 4]},
                 id="even_char_bounds-8-2-companion_factor-payload10"),
    pytest.param("even_char_bounds", 16, 2, "companion_factor",
                 {"part": "family_quadratic", "w": 3, "i": 3, "expected": [15, 11, 10, 12],
                  "direct": [15, 11, 11, 12]},
                 id="even_char_bounds-16-2-companion_factor-payload11"),
    pytest.param("odd_char_bounds", 9, 2, "companion_factor",
                 {"part": "family_quadratic", "w": 4, "i": 3, "expected": [3, 7, 3, 1],
                  "direct": [3, 7, 2, 1]},
                 id="odd_char_bounds-9-2-companion_factor-payload12"),
    pytest.param("odd_char_bounds", 25, 2, "companion_factor",
                 {"part": "family_quadratic", "w": 7, "i": 3, "expected": [3, 14, 2, 9],
                  "direct": [3, 14, 4, 9]},
                 id="odd_char_bounds-25-2-companion_factor-payload13"),
    pytest.param("even_char_bounds", 8, 1, "companion_5",
                 {"part": "family_quadratic", "w": 1, "i": 5, "expected": [6, 2, 2, 7],
                  "direct": [6, 3, 2, 7]},
                 id="even_char_bounds-8-1-companion_5"),
    pytest.param("odd_char_bounds", 9, 1, "companion_5",
                 {"part": "family_quadratic", "w": 4, "i": 5, "expected": [5, 3, 2, 2],
                  "direct": [5, 4, 2, 2]},
                 id="odd_char_bounds-9-1-companion_5"),
    pytest.param("even_char_bounds", 16, 3, "companion_5",
                 {"part": "family_quadratic", "w": 3, "i": 5, "expected": [1, 15, 15, 2],
                  "direct": [1, 15, 15, 3]},
                 id="even_char_bounds-16-3-companion_5"),
    pytest.param("odd_char_bounds", 25, 0, "companion_5",
                 {"part": "family_quadratic", "w": 7, "i": 5, "expected": [5, 16, 4, 2],
                  "direct": [6, 16, 4, 2]},
                 id="odd_char_bounds-25-0-companion_5"),
    pytest.param("split_trace_coverage", 9, 1, "upper_1",
                 {"part": "family_affine", "split": "D(3)", "family": "[[1,i],[0,1]]", "i": 2,
                  "expected": [3, 5, 0, 6], "direct": [3, 3, 0, 6]},
                 id="split_trace_coverage-9-1-upper_1-payload14"),
    pytest.param("split_trace_coverage", 127, 1, "upper_0",
                 {"part": "family_affine", "split": "D(2)", "family": "[[1,i],[0,1]]", "i": 2,
                  "expected": [2, 2, 0, 64], "direct": [2, 3, 0, 64]},
                 id="split_trace_coverage-127-1-upper_0-payload15"),
    pytest.param("split_trace_coverage", 25, 0, "other_0",
                 {"part": "family_affine", "split": "D(2)", "family": "[[i,i-1],[1,1]]", "i": 2,
                  "expected": [0, 4, 2, 4], "direct": [1, 4, 2, 4]},
                 id="split_trace_coverage-25-0-other_0-payload16"),
    pytest.param("split_trace_coverage", 127, 3, "other_1",
                 {"part": "family_affine", "split": "D(2)", "family": "[[i,i-1],[1,1]]", "i": 2,
                  "expected": [67, 65, 124, 1], "direct": [67, 65, 124, 126]},
                 id="split_trace_coverage-127-3-other_1-payload17"),
])
def test_witness_family_fault_injection(check, q, k, hit, payload, monkeypatch):
    real, spoils = checks._conjugates, HITS[hit]

    def evil(F, Cs, A):
        return [T[:k] + (F._add[T[k]][1],) + T[k + 1:] if spoils(C, A) else T
                for C, T in zip(Cs, real(F, Cs, A))]

    monkeypatch.setattr(checks, "_conjugates", evil)
    r = ALL_CHECKS[check](oracles.field_for(q))
    assert not r.passed
    assert r.counterexample == payload


@pytest.mark.parametrize("check,q,j,payload", [
    pytest.param("even_char_bounds", 8, 0,
                 {"w": 1, "v": 1, "i": 0, "direct": 0}, id="even_char_bounds-8-0"),
    pytest.param("even_char_bounds", 8, 1,
                 {"w": 1, "v": 1, "i": 1, "direct": 1}, id="even_char_bounds-8-1"),
    pytest.param("even_char_bounds", 16, 2,
                 {"w": 3, "v": 3, "i": 2, "direct": 9}, id="even_char_bounds-16-2"),
    pytest.param("odd_char_bounds", 9, 0,
                 {"pair": ["W(4)", "W(4)"], "i": 0, "expected": 7, "direct": 8},
                 id="odd_char_bounds-9-0"),
    pytest.param("odd_char_bounds", 9, 2,
                 {"pair": ["W(4)", "W(4)"], "i": 2, "expected": 6, "direct": 7},
                 id="odd_char_bounds-9-2"),
    pytest.param("odd_char_bounds", 25, 1,
                 {"pair": ["W(7)", "W(7)"], "i": 1, "expected": 15, "direct": 16},
                 id="odd_char_bounds-25-1"),
])
def test_companion_node_trace_fault_injection(check, q, j, payload, monkeypatch):
    # the trace of W x W family member j (a node: 0, 1 or 2; member 0 is A
    # itself) moved by 1 against every second factor: the first pair fails
    # at i = j, since the family's quadratic fit holds
    F = oracles.field_for(q)
    real = checks._family_traces

    def evil(F, Ts, B):
        out = real(F, Ts, B)
        if Ts[0][:3] == (0, 1, F._neg[1]):
            out[j] = F._add[out[j]][1]
        return out

    monkeypatch.setattr(checks, "_family_traces", evil)
    r = ALL_CHECKS[check](F)
    assert not r.passed
    assert r.counterexample == {"part": "companion_companion_family", **payload}


# second factors by kind, from their class table representatives
FACTORS = {
    "companion": lambda B: B[0] == 0,
    "diagonal": lambda B: B[1] == B[2] == 0,
    "upper": lambda B: B[2] == 0 and B[1] != 0,
}


@pytest.mark.parametrize("q,kind,j,payload", [
    pytest.param(8, "companion", 1,
                 {"pair": ["D(2)", "W(1)"], "expected": [6, 4], "direct": [6, 5]},
                 id="8-companion-1-payload0"),
    pytest.param(9, "diagonal", 0,
                 {"pair": ["D(3)", "D(3)"], "expected": [2, 2], "direct": [0, 1]},
                 id="9-diagonal-0-payload1"),
    pytest.param(25, "upper", 1,
                 {"pair": ["D(2)", "U(1,+)"], "expected": [0, 1], "direct": [0, 2]},
                 id="25-upper-1-payload2"),
    pytest.param(127, "companion", 0,
                 {"pair": ["D(2)", "W(0)"], "expected": [0, 62], "direct": [1, 61]},
                 id="127-companion-0-payload3"),
])
def test_split_pair_line_fault_injection(q, kind, j, payload, monkeypatch):
    # the trace of family member j (0 or 1) against every second factor of
    # one kind moved by 1: the pair's (t0, t1 - t0) leaves the family's
    # (base, slope) at the first such pair
    real, spoils = checks._family_traces, FACTORS[kind]

    def evil(F, Ts, B):
        out = real(F, Ts, B)
        if spoils(B):
            out[j] = F._add[out[j]][1]
        return out

    monkeypatch.setattr(checks, "_family_traces", evil)
    r = check_split_trace_coverage(oracles.field_for(q))
    assert not r.passed
    assert r.counterexample == {"part": "pair_line", **payload}


# Tier-1 runs q <= 49, `-m slow` the q up to 128
@pytest.mark.parametrize("q", [q if q <= 49 else pytest.param(q, marks=pytest.mark.slow)
                               for q in prime_powers_up_to(128) if q >= 4])
def test_split_lines_match_member_traces(q, monkeypatch):
    # split_trace_coverage traces the members 0 and 1 of a witness family
    # per (D, noncentral) pair; the line through them must be the pair's q
    # traces, computed member by member, and cover GF(q)
    F = oracles.field_for(q)
    add, sub, mul = F._add, F._sub, F._mul
    real, lines = checks._family_traces, []

    def recording(F, Ts, B):
        t0, t1 = out = real(F, Ts, B)
        lines.append([add[t0][mul[i][sub[t1][t0]]] for i in range(q)])
        return out

    monkeypatch.setattr(checks, "_family_traces", recording)
    r = check_split_trace_coverage(F)
    assert r.passed
    entries = checks.class_table(F).entries
    pairs = [(ea.label.x, eb) for ea in entries if ea.label.kind == "D"
             for eb in entries if eb.label.kind != "Z"]
    assert len(lines) == len(pairs) == r.details["pairs"]
    for line, (x, eb) in zip(lines, pairs):
        B = (eb.rep.a, eb.rep.b, eb.rep.c, eb.rep.d)
        assert line == oracles.split_family_traces(F, x, B, eb.label.kind == "W"), (x, eb.label)
        assert sorted(line) == list(range(q))


# Tier-1 runs q <= 49, `-m slow` the q up to 128
@pytest.mark.parametrize("q", [q if q <= 49 else pytest.param(q, marks=pytest.mark.slow)
                               for q in prime_powers_up_to(128) if q >= 4])
def test_companion_pairs_match_member_traces(q, monkeypatch):
    # both char_bounds checks trace the members 0, 1 and 2 of the W x W
    # family per pair (member 0 is A itself); the q traces, computed member
    # by member, must be the claimed quadratic, and their distinct count the
    # one each check's bound rests on: q for even q; (q + 1)/2 for odd q, of
    # which the witnesses' trace 2*s0 is one exactly when vertex - 2*s0 is
    # a square or 0, with vertex = w*v - 2 + (w - v)**2/4
    F = oracles.field_for(q)
    mul, add, sub, neg, inv, sq = F._mul, F._add, F._sub, F._neg, F._inv, F._sq
    real, traced = checks._family_traces, []

    def recording(F, Ts, B):
        if Ts[0][:3] == (0, 1, neg[1]):
            traced.append((Ts[0][3], B[3], len(Ts)))
        return real(F, Ts, B)

    monkeypatch.setattr(checks, "_family_traces", recording)
    check = check_even_char_bounds if q % 2 == 0 else check_odd_char_bounds
    assert check(F).passed
    ws = [l.x for l in checks.class_table(F).labels() if l.kind == "W"]
    pairs = list(itertools.combinations_with_replacement(ws, 2))
    assert traced == [(w, v, 3) for w, v in pairs]
    two = add[1][1]
    for w, v in pairs:
        traces = oracles.companion_family_traces(F, w, v)
        if q % 2 == 0:
            assert traces == [mul[mul[v][w]][add[mul[i][i]][1]] for i in range(q)], (w, v)
            assert len(set(traces)) == q
            continue
        base = sub[mul[w][v]][two]
        assert traces == [add[base][sub[mul[i][sub[w][v]]][mul[i][i]]] for i in range(q)], (w, v)
        s0 = neg[1] if add[v][w] else 1
        vertex = add[base][mul[mul[sub[w][v]][sub[w][v]]][inv[add[two][two]]]]
        assert len(set(traces)) == (q + 1) // 2
        assert len(set(traces) - {add[s0][s0]}) == (q + 1) // 2 - sq[sub[vertex][add[s0][s0]]]


@pytest.mark.parametrize("q", [8, 16, 7, 9])
def test_even_bounds_scan_only_upper_companion_pairs(q, monkeypatch):
    # the families' traces bound every pair's class count, so the only scans
    # left are the U x W ones that show the trace w missing (even q), one per
    # W class, and for odd q the U x U and U x W pairs: the W x W witnesses
    # are two direct products, not a scan
    scanned = []
    scan = checks._scan_keys

    def recording_scan(F, la, lb):
        scanned.append((la.kind, lb.kind))
        return scan(F, la, lb)

    monkeypatch.setattr(checks, "_scan_keys", recording_scan)
    if q % 2 == 0:
        r = check_even_char_bounds(oracles.field_for(q))
        assert r.passed
        assert scanned == [("U", "W")] * r.details["irreducible_classes"]
    else:
        r = check_odd_char_bounds(oracles.field_for(q))
        assert r.passed
        assert scanned == [("U", "U")] * r.details["uu_pairs"] + [("U", "W")] * r.details["uw_pairs"]


def _u_minus(key) -> bool:
    return isinstance(key, tuple) and key[0] == "U" and not key[2]


# scans that lose what a char-bounds part needs, for the pairs of the kinds
# given: U(s,-) (a U x U witness), every D or W class (the traces), all but
# q - 2 classes, or one class gained (the trace w that U x W must miss); the
# last field says whether products._upper_upper_keys loses the same classes,
# so that the U x U bounds, not the comparison with the scan, must fail
SCAN_FAULTS = {
    "drop_u_minus": ("UU", lambda F, lb, keys: frozenset(k for k in keys if not _u_minus(k)),
                     False),
    "drop_u_minus_both": ("UU", lambda F, lb, keys: frozenset(k for k in keys if not _u_minus(k)),
                          True),
    "drop_traces": ("UU", lambda F, lb, keys: frozenset(k for k in keys if not isinstance(k, int)),
                    True),
    "q_minus_2_classes": ("UW", lambda F, lb, keys: oracles.mask_keys(F, (1 << F.q - 2) - 1),
                          False),
    "add_w": ("UW", lambda F, lb, keys: keys | {lb.x}, False),
}


@pytest.mark.parametrize("check,q,fault,payload", [
    pytest.param("odd_char_bounds", 7, "drop_u_minus",
                 {"part": "upper_upper_witnesses", "pair": ["U(1,+)", "U(1,+)"],
                  "witnesses": ["U(1,+)", "U(1,-)"], "found": ["D(3)", "U(1,+)", "U(6,+)", "W(0)"]},
                 id="odd_char_bounds-7-drop_u_minus-payload0"),
    pytest.param("odd_char_bounds", 9, "drop_u_minus",
                 {"part": "upper_upper_witnesses", "pair": ["U(1,+)", "U(1,+)"],
                  "witnesses": ["U(1,+)", "U(1,-)", "Z(1)"],
                  "found": ["D(3)", "U(1,+)", "U(2,+)", "W(5)", "W(8)", "Z(1)"]},
                 id="odd_char_bounds-9-drop_u_minus-payload1"),
    pytest.param("odd_char_bounds", 7, "drop_traces",
                 {"part": "upper_upper_traces", "pair": ["U(1,+)", "U(1,+)"], "traces": [2, 5]},
                 id="odd_char_bounds-7-drop_traces-payload2"),
    pytest.param("odd_char_bounds", 9, "drop_traces",
                 {"part": "upper_upper_traces", "pair": ["U(1,+)", "U(1,+)"], "traces": [1, 2]},
                 id="odd_char_bounds-9-drop_traces-payload3"),
    pytest.param("odd_char_bounds", 7, "q_minus_2_classes",
                 {"part": "upper_companion_bound", "pair": ["U(1,+)", "W(0)"], "classes": 5},
                 id="odd_char_bounds-7-q_minus_2_classes-payload4"),
    pytest.param("odd_char_bounds", 9, "q_minus_2_classes",
                 {"part": "upper_companion_bound", "pair": ["U(1,+)", "W(4)"], "classes": 7},
                 id="odd_char_bounds-9-q_minus_2_classes-payload5"),
    pytest.param("even_char_bounds", 8, "add_w",
                 {"part": "upper_companion_trace_exclusion", "w": 1, "traces": list(range(8))},
                 id="even_char_bounds-8-add_w-payload6"),
    pytest.param("even_char_bounds", 16, "add_w",
                 {"part": "upper_companion_trace_exclusion", "w": 3, "traces": list(range(16))},
                 id="even_char_bounds-16-add_w-payload7"),
    # U(s,-) lost from the kernel as well as the scan: too few classes at 2rt
    pytest.param("odd_char_bounds", 7, "drop_u_minus_both",
                 {"part": "upper_upper_witnesses", "pair": ["U(1,+)", "U(1,+)"],
                  "witnesses": ["U(1,+)"], "found": ["D(3)", "U(1,+)", "U(6,+)", "W(0)"]},
                 id="odd_char_bounds-7-drop_u_minus_both"),
    pytest.param("odd_char_bounds", 9, "drop_u_minus_both",
                 {"part": "upper_upper_witnesses", "pair": ["U(1,+)", "U(1,-)"],
                  "witnesses": ["U(1,+)"], "found": ["D(4)", "D(7)", "U(1,+)", "W(4)", "W(7)"]},
                 id="odd_char_bounds-9-drop_u_minus_both"),
])
def test_char_bounds_scan_fault_injection(check, q, fault, payload, monkeypatch):
    kinds, spoil, kernel_too = SCAN_FAULTS[fault]
    real, real_kernel = checks._scan_keys, products._upper_upper_keys

    def spoiled(F, lb, mask):
        return oracles.mask_keys(F, spoil(F, lb, oracles.mask_keys(F, mask)))

    def evil(F, la, lb):
        mask = real(F, la, lb)
        return spoiled(F, lb, mask) if la.kind + lb.kind == kinds else mask

    monkeypatch.setattr(checks, "_scan_keys", evil)
    if kernel_too:
        monkeypatch.setattr(products, "_upper_upper_keys",
                            lambda F, la, lb: spoiled(F, lb, real_kernel(F, la, lb)))
    r = ALL_CHECKS[check](oracles.field_for(q))
    assert not r.passed
    assert r.counterexample == payload


# the W x W witness products X mislabelled: U(s,-) lost from X's own
# classes (b4 = I, members with a nonzero lower-left entry), or each trace
# of X * B**-1 moved by 1 (b4 = B**-1 = [[v,-1],[1,0]]), so A = X * B**-1
# leaves W(w); the scan's calls, against a representative, are left alone
WITNESS_FAULTS = {
    "drop_u_minus": lambda F, xs, b4, keys: (
        {k for k in keys if not _u_minus(k)}
        if b4 == (1, 0, 0, 1) and any(x[2] for x in xs) else keys),
    "move_factor_trace": lambda F, xs, b4, keys: (
        {F._add[k][1] for k in keys} if b4[2:] == (1, 0) else keys),
}


@pytest.mark.parametrize("q,fault,pair,witnesses,products_,found", [
    pytest.param(7, "drop_u_minus", ["W(0)", "W(3)"], ["U(6,+)", "U(6,-)"],
                 [[6, 3, 0, 6], [2, 4, 3, 3]], ["U(6,+)"],
                 id="7-drop_u_minus-pair0-witnesses0-products_0-found0"),
    pytest.param(9, "drop_u_minus", ["W(4)", "W(4)"], ["U(2,+)", "U(2,-)"],
                 [[2, 8, 0, 2], [5, 6, 3, 8]], ["U(2,+)"],
                 id="9-drop_u_minus-pair1-witnesses1-products_1-found1"),
    # the exempt self-pair of W(0): X = I, whose class Z(1) is kept
    pytest.param(7, "move_factor_trace", ["W(0)", "W(0)"], ["Z(1)"],
                 [[1, 0, 0, 1], [1, 0, 0, 1]], ["Z(1)"],
                 id="7-move_factor_trace-pair2-witnesses2-products_2-found2"),
    pytest.param(9, "move_factor_trace", ["W(4)", "W(4)"], ["U(2,+)", "U(2,-)"],
                 [[2, 8, 0, 2], [5, 6, 3, 8]], ["U(2,+)", "U(2,-)"],
                 id="9-move_factor_trace-pair3-witnesses3-products_3-found3"),
])
def test_companion_witness_fault_injection(q, fault, pair, witnesses, products_, found,
                                           monkeypatch):
    real, spoil = checks._class_keys, WITNESS_FAULTS[fault]
    monkeypatch.setattr(checks, "_class_keys", lambda F, xs, b4: oracles.mask_keys(
        F, spoil(F, xs, b4, oracles.mask_keys(F, real(F, xs, b4)))))
    r = check_odd_char_bounds(oracles.field_for(q))
    assert not r.passed
    assert r.counterexample == {"part": "companion_companion_witnesses", "pair": pair,
                                "witnesses": witnesses, "products": products_, "found": found}


@pytest.mark.parametrize("q,witness", [
    pytest.param(7, ["U(1,+)", "U(1,+)"], id="7-witness0"),
    pytest.param(8, ["U(1,+)", "W(1)"], id="8-witness1"),
    pytest.param(9, ["U(1,+)", "U(1,-)"], id="9-witness2"),
])
def test_min_bounds_fault_injection(q, witness, monkeypatch):
    # one class too many, from the minimum and then from the equality pair's
    # own report: each part must name the count, the bound and the pair
    F = oracles.field_for(q)
    expected = check_min_class_bounds(F).details["expected"]
    real_min, real_report = checks.min_product_classes, checks.product_report
    with monkeypatch.context() as m:
        m.setattr(checks, "min_product_classes",
                  lambda F: (real_min(F)[0] + 1, real_min(F)[1]))
        r = check_min_class_bounds(F)
    assert not r.passed
    assert r.counterexample == {"part": "minimum", "minimum": expected + 1,
                                "expected": expected, "witness": witness}

    def report(F, la, lb):
        rep = real_report(F, la, lb)
        return dataclasses.replace(rep, num_classes=rep.num_classes + 1)

    monkeypatch.setattr(checks, "product_report", report)
    r = check_min_class_bounds(F)
    assert not r.passed
    assert r.counterexample == {"part": "equality_witness", "pair": witness,
                                "classes": expected + 1, "expected": expected}


@pytest.mark.parametrize("q,minimum,witness", [
    pytest.param(3, 2, ["U(1,+)", "U(1,+)"], id="3-witness0"),
    pytest.param(4, 3, ["U(1,+)", "W(2)"], id="4-witness1"),
    pytest.param(7, 5, ["U(1,+)", "U(1,+)"], id="7-witness0"),
    pytest.param(8, 7, ["U(1,+)", "W(1)"], id="8-witness1"),
    pytest.param(9, 6, ["U(1,+)", "U(1,-)"], id="9-witness2"),
])
def test_min_census_fault_injection(q, minimum, witness, monkeypatch):
    # the right value with a later witness, U(1,+) against the last W class,
    # passes the bound and the equality pair but not the census of every
    # scanned pair
    F = oracles.field_for(q)
    last_w = checks.class_table(F).noncentral_labels()[-1]
    real_min = checks.min_product_classes
    monkeypatch.setattr(checks, "min_product_classes",
                        lambda F: (real_min(F)[0], (ClassLabel("U", 1), last_w)))
    r = check_min_class_bounds(F)
    assert not r.passed
    assert r.counterexample == {"part": "minimum_census", "minimum": minimum,
                                "witness": ["U(1,+)", str(last_w)], "census": minimum,
                                "census_witness": witness}


# SHA-256 of each check's to_json() without elapsed_ms, keyed "q:seed": every
# q <= 64 at seeds 0 and 1, and q = 127 and 128 at seed 0; Tier-1 runs the
# keys with q <= 16, `-m slow` the rest
CHECK_DIGESTS = json.loads((Path(__file__).parent / "check_digests.json").read_text())

# the same digests at seed 0 at large q, all under `-m slow`: the value-set
# checks' taken from the brute-force enumerations that checks._form_values
# replaced, odd_char_bounds' from its W x W scans and split_trace_coverage's
# from its q traces per pair, before the closed-form witnesses and the
# two-member lines; both char_bounds checks' at the largest fields, and
# split's there, from their q traces per W x W pair and their inline affine
# line, before the one family reader and the three-member quadratics;
# min_class_bounds' from its scans of all q row traces per pair, before the
# rows of trace +-2 were solved off two nodes and products became bitsets
LARGE_Q_DIGESTS = {
    (257, "value_set_counts"): "af44f252892654c757b5b0b7dbaa2743cf50f1bfc9e1f3c79c124ac39cbb89c2",
    (509, "value_set_counts"): "5a9b81732b6449ee1bc8bc58a1b1736e46d21b24b5f9131bed13f5f5c11b13a7",
    (729, "value_set_counts"): "3c9173463390d0fc5ea7f27a531beceba55924d9fe594534e67b1df572c40c21",
    (1019, "value_set_counts"): "e135775bb8e4a88fe4641767c6eaa1cd57730411d4bc585862595e71677afc3a",
    (257, "odd_char_bounds"): "2f6a1be280f20d81b8263d8d4eb09e93f0d3101f0be5df592718c5ded1e6efb1",
    (509, "odd_char_bounds"): "98d02a7f6d1a44c1e2eb2d4895b289bf6d460b196bbe0cb7cf56d8df3a2b7b33",
    (257, "split_trace_coverage"): "7629101f0ca2f9ae93a8004cb723a307ee57194074fd85934ac63c0c71f19cb5",
    (509, "split_trace_coverage"): "0e45f5b23b5d6d7bf261976ab06ebdf914caea97b780cdc078941e1c0d9ef149",
    (1019, "odd_char_bounds"): "60957aa02a5cd57e3ad7fe6e2d11db2def3ac49a546a2d3e1c423af288a8a86a",
    (1024, "even_char_bounds"): "5e50d23c41cd60ff9abb2ba5a29179040d1213fb94e890dd1710635dcc8c9975",
    (1019, "split_trace_coverage"): "414cce6bee951739918771d0f21eb5705dd89a791afbc9d01f7664f5ff5f7cdb",
    (257, "min_class_bounds"): "58d35a109d024e656bd7b49b27c638eeaad97616b22aff909bb2874072e5ca2d",
    (509, "min_class_bounds"): "9dcc89e8399f5c0ba8e3f7b3252c78f266d9c68532f3164d5b74d7452254380b",
    (512, "min_class_bounds"): "76524b1ce341fa01fd61b0612987b7d7d794bb96fe3ec6fcac16f4aad541f058",
}


def result_digest(r) -> str:
    # SHA-256 of the result's to_json() without elapsed_ms
    d = r.to_json()
    d.pop("elapsed_ms")
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("key", [
    key if int(key.split(":")[0]) <= 16 else pytest.param(key, marks=pytest.mark.slow)
    for key in CHECK_DIGESTS])
def test_check_results_unchanged(key):
    # samples, comparison counts, details and verdicts of every check, so a
    # faster kernel must reproduce every result to the byte
    q, seed = map(int, key.split(":"))
    got = {r.check: result_digest(r) for r in run_checks(oracles.field_for(q), seed=seed)}
    assert got == CHECK_DIGESTS[key]


@pytest.mark.slow
@pytest.mark.parametrize("q,check", LARGE_Q_DIGESTS)
def test_large_q_check_results_unchanged(q, check):
    [r] = run_checks(oracles.field_for(q), [check])
    assert result_digest(r) == LARGE_Q_DIGESTS[q, check]
