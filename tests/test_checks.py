"""The validators: expected outcomes per field, recorded discrepancy
resolutions, determinism, and fault injection (a perturbed closed form must
flip the corresponding check with a counterexample)."""

import itertools
import random

import pytest

import oracles
from sl2q import checks
from sl2q.classes import ClassLabel
from sl2q.matrices import enumerate_sl2
from sl2q.checks import (
    ALL_CHECKS,
    CheckResult,
    applicable_checks,
    check_even_char_bounds,
    check_min_class_bounds,
    check_odd_char_bounds,
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
# comparisons made and the difference-variant verdict so far
@pytest.mark.parametrize("form,q,C,params,closed_form,direct,comparisons,difference_holds", [
    ("diag_diag", 5, [0, 1, 4, 0], {"r": 1, "s": 1, "u": 2, "v": 3}, 1, 0, 2, True),
    ("diag_diag", 11, [1, 0, 0, 1], {"r": 1, "s": 1, "u": 2, "v": 6}, 9, 8, 2, True),
    ("diag_diag", 16, [1, 0, 0, 1], {"r": 1, "s": 1, "u": 14, "v": 7}, 8, 9, 1, True),
    ("diag_diag", 25, [1, 0, 0, 1], {"r": 19, "s": 22, "u": 17, "v": 7}, 0, 4, 2, True),
    ("diag_upper", 5, [0, 1, 4, 0], {"r": 1, "s": 1, "t": 1, "u": 2}, 3, 2, 6, False),
    ("diag_upper", 11, [1, 0, 0, 1], {"r": 1, "s": 1, "t": 1, "u": 2}, 3, 2, 12, False),
    ("diag_upper", 16, [1, 0, 0, 1], {"r": 1, "s": 1, "t": 1, "u": 11}, 1, 0, 12, True),
    ("diag_upper", 25, [1, 0, 0, 1], {"r": 19, "s": 22, "t": 1, "u": 11}, 12, 11, 11, True),
    ("diag_companion", 5, [0, 1, 4, 0], {"r": 1, "s": 1, "w": 2}, 3, 2, 15, False),
    ("diag_companion", 11, [1, 0, 0, 1], {"r": 1, "s": 1, "w": 5}, 6, 5, 34, False),
    ("diag_companion", 16, [1, 0, 0, 1], {"r": 1, "s": 1, "w": 8}, 9, 8, 22, True),
    ("diag_companion", 25, [1, 0, 0, 1], {"r": 19, "s": 22, "w": 5}, 17, 16, 33, False),
    ("upper_upper", 5, [0, 1, 4, 0], {"r": 1, "t": 1, "u": 1, "w": 2}, 1, 0, 8162, False),
    ("upper_upper", 11, [1, 0, 0, 1], {"r": 1, "t": 1, "u": 1, "w": 2}, 3, 2, 161202, False),
    ("upper_upper", 16, [1, 0, 0, 1], {"r": 1, "t": 1, "u": 10, "w": 14}, 1, 0, 122702, True),
    ("upper_upper", 25, [1, 0, 0, 1], {"r": 1, "t": 1, "u": 18, "w": 8}, 3, 2, 162005, False),
    ("upper_companion", 5, [0, 1, 4, 0], {"r": 1, "s": 2, "u": 1}, 2, 1, 8171, False),
    ("upper_companion", 11, [1, 0, 0, 1], {"r": 1, "s": 8, "u": 1}, 8, 7, 161221, False),
    ("upper_companion", 16, [1, 0, 0, 1], {"r": 1, "s": 2, "u": 10}, 9, 8, 122715, True),
    ("upper_companion", 25, [1, 1, 0, 1], {"r": 1, "s": 17, "u": 18}, 0, 4, 162051, False),
    ("companion_companion", 5, [0, 1, 4, 0], {"v": 2, "w": 0}, 4, 3, 20643, False),
    ("companion_companion", 11, [1, 0, 0, 1], {"v": 5, "w": 0}, 10, 9, 403006, False),
    ("companion_companion", 16, [1, 0, 0, 1], {"v": 8, "w": 3}, 0, 1, 204502, True),
    ("companion_companion", 25, [1, 0, 0, 1], {"v": 5, "w": 4}, 24, 23, 405004, False),
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


@pytest.mark.parametrize("q", [7, 8])
def test_semisimple_formula_fault_injection(q, monkeypatch):
    # U(1,+) put back into the product of a W class with itself: the scan
    # inside min_class_bounds must catch the closed form the minimum uses
    real = checks._semisimple_labels

    def evil(F, la, lb):
        return real(F, la, lb) | {ClassLabel("U", 1, True)}

    monkeypatch.setattr(checks, "_semisimple_labels", evil)
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
    # W(r*t_b) put back into U(r) x W: the scan inside min_class_bounds must
    # catch the closed form, here at U(1,+) against the first W class
    real = checks._unipotent_labels

    def evil(F, la, lb):
        return real(F, la, lb) | {l for l in checks.class_table(F).labels() if l.kind == "W"}

    monkeypatch.setattr(checks, "_unipotent_labels", evil)
    F = oracles.field_for(q)
    w = str(next(l for l in checks.class_table(F).labels() if l.kind == "W"))
    r = check_min_class_bounds(F)
    assert not r.passed
    assert r.counterexample["part"] == "unipotent_formula"
    assert r.counterexample["pair"] == ["U(1,+)", w]
    assert r.counterexample["formula_only"] == [w]
    assert r.counterexample["scan_only"] == []


# the witness-family checks: a conjugate with one entry moved by 1 (entry k
# of C**-1 * A * C, for the conjugators C and factors A that `hit` picks)
# must fail at the first family member it spoils, with the exact payload
HITS = {
    "off_diagonal_2": lambda C, A: 2 in (C[1], C[2]),
    "upper_2": lambda C, A: C[2] == 0 and C[1] == 2,
    "diagonal_2": lambda C, A: C[1] == C[2] == 0 and C[0] == 2,
    "companion_factor": lambda C, A: A[0] == 0 and 2 in (C[1], C[2]),
}


@pytest.mark.parametrize("check,q,k,hit,payload", [
    ("split_trace_coverage", 8, 0, "off_diagonal_2",
     {"pair": ["D(2)", "D(2)"], "family_index": 3, "expected": 4, "direct": 6}),
    ("split_trace_coverage", 9, 0, "off_diagonal_2",
     {"pair": ["D(3)", "D(3)"], "family_index": 0, "expected": 2, "direct": 5}),
    ("split_trace_coverage", 8, 2, "off_diagonal_2",
     {"pair": ["D(2)", "U(1,+)"], "family_index": 3, "expected": 5, "direct": 4}),
    ("split_trace_coverage", 9, 2, "off_diagonal_2",
     {"pair": ["D(3)", "U(1,+)"], "family_index": 0, "expected": 0, "direct": 1}),
    ("split_trace_coverage", 8, 2, "upper_2",
     {"pair": ["D(2)", "W(1)"], "family_index": 2, "expected": 3, "direct": 2}),
    ("split_trace_coverage", 9, 2, "upper_2",
     {"pair": ["D(3)", "W(4)"], "family_index": 2, "expected": 4, "direct": 5}),
    ("even_char_bounds", 8, 2, "off_diagonal_2",
     {"part": "upper_upper_family", "i": 2, "expected": 4, "direct": 5}),
    ("even_char_bounds", 16, 2, "off_diagonal_2",
     {"part": "upper_upper_family", "i": 2, "expected": 4, "direct": 5}),
    ("even_char_bounds", 8, 2, "diagonal_2",
     {"part": "upper_companion_family", "w": 1, "i": 6, "expected": 2, "direct": 3}),
    ("even_char_bounds", 16, 2, "diagonal_2",
     {"part": "upper_companion_family", "w": 3, "i": 12, "expected": 5, "direct": 4}),
    ("even_char_bounds", 8, 2, "companion_factor",
     {"part": "companion_companion_family", "w": 1, "v": 1, "i": 2, "direct": 4}),
    ("even_char_bounds", 16, 2, "companion_factor",
     {"part": "companion_companion_family", "w": 3, "v": 3, "i": 2, "direct": 9}),
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
