"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(visible with `pytest -s` or via the verbose test names).

Every expectation is exact; there are no tolerances anywhere.  Criterion 5
pins the one point where a stated claim is false: over GF(5) the set
{a*x^2 + b*y^2 : x,y != 0} holds no non-square when a and b are both
non-squares ({2x^2+2y^2} = {0,1,4}).  The check states the claim as given
and reports that failure; the criterion requires the check's verdict and
counterexample to match a brute-force oracle exactly, which is empty for
every other tested q.  The class-count bounds that build on the claim hold
regardless (criteria 2 and 3).
"""

import pytest

import oracles
from sl2q.checks import (
    check_conjugation_formulas,
    check_split_trace_coverage,
    check_trace_formulas,
    check_value_set_counts,
)
from sl2q.classes import ClassLabel, class_table, classify
from sl2q.matrices import enumerate_sl2, mat, sl2_order
from sl2q.products import class_product_labels, min_product_classes

ALL_TESTED_QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32]


def _report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL {failures}"
    print(f"ACCEPTANCE {num} {name}: {status}")
    assert not failures, f"criterion {num} ({name}): {failures}"


def test_criterion_1_even_minimum_is_q_minus_1():
    failures = []
    for q in (2, 4, 8, 16, 32):
        value, _ = min_product_classes(oracles.field_for(q))
        if value != q - 1:
            failures.append((q, value, q - 1))
    _report(1, "even-characteristic minimum equals q-1", failures)


def test_criterion_2_odd_minimum_is_half_q_plus_3():
    failures = []
    for q in (5, 7, 9, 11, 13, 25, 27):
        value, _ = min_product_classes(oracles.field_for(q))
        if value != (q + 3) // 2:
            failures.append((q, value, (q + 3) // 2))
    _report(2, "odd-characteristic minimum equals (q+3)/2", failures)


def test_criterion_3_q3_minimum_is_2():
    value, _ = min_product_classes(oracles.field_for(3))
    _report(3, "minimum over GF(3) equals 2", [] if value == 2 else [value])


def test_criterion_4_formula_suite_exhaustive():
    failures = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = oracles.field_for(q)
        for result in (check_conjugation_formulas(F), check_trace_formulas(F)):
            if not (result.passed and result.details["exhaustive"]):
                failures.append((q, result.check, result.counterexample))
        tf = check_trace_formulas(F).details
        # discrepancy resolution: the sum form is correct everywhere, the
        # difference variant coincides with it only in characteristic 2
        if tf["diag_upper_sum_form_holds"] is not True:
            failures.append((q, "sum form"))
        if tf["diag_upper_difference_form_holds"] is not (q % 2 == 0):
            failures.append((q, "difference variant resolution"))
    _report(4, "conjugation and trace formulas, exhaustive", failures)


def test_criterion_5_counting_suite():
    failures = []
    for q in (3, 5, 7, 9, 11, 13, 2, 4, 8, 16):
        F = oracles.field_for(q)
        result = check_value_set_counts(F)
        if q % 2 and result.details["norm_form_plus_holds"] is not True:
            failures.append((q, "sign variant unrecorded"))
        status = dict(result.details["part_status"])
        mix = status.pop("square_nonsquare_mix", None)
        exceptions = []
        if q % 2 and q > 3:
            # the square/non-square claim is stated for odd q > 3; it must
            # agree with the brute-force oracle, whose exceptions are the
            # pairs of non-squares at q = 5 and none from q = 7 on
            exceptions = oracles.square_mix_exceptions(F)
            closed_form = [] if q >= 7 else [
                (a, b) for a in range(1, q) for b in range(1, q)
                if not F._sq[a] and not F._sq[b]
            ]
            if [(a, b) for a, b, _ in exceptions] != closed_form:
                failures.append((q, "oracle vs closed form", exceptions))
            if mix is not (not exceptions):
                failures.append((q, "square_nonsquare_mix", mix, exceptions))
            elif exceptions:
                a, b, values = exceptions[0]
                expected = {"part": "square_nonsquare_mix",
                            "params": {"a": a, "b": b}, "values": values}
                if result.counterexample != expected:
                    failures.append((q, "counterexample", result.counterexample, expected))
        elif mix is not None:
            failures.append((q, "square_nonsquare_mix evaluated", mix))
        for part, ok in status.items():
            if not ok:
                failures.append((q, part, result.counterexample))
        if result.passed is not (not exceptions):
            failures.append((q, "passed", result.passed))
    _report(5, "value-set counting suite", failures)


def test_criterion_6_oracle_equivalence():
    failures = []
    for q in (2, 3, 4):
        F = oracles.field_for(q)
        table = class_table(F)
        for i, ea in enumerate(table.entries):
            for eb in table.entries[i:]:
                oracle = {
                    classify(F, mat(F, *t))
                    for t in oracles.double_product_tuples(F, ea.rep, eb.rep)
                }
                if class_product_labels(F, ea.rep, eb.rep) != oracle:
                    failures.append((q, str(ea.label), str(eb.label)))
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = oracles.field_for(q)
        parts = {frozenset(p) for p in oracles.orbit_partition(F)}
        by_label: dict[ClassLabel, set] = {}
        for M in enumerate_sl2(F):
            by_label.setdefault(classify(F, M), set()).add((M.a, M.b, M.c, M.d))
        if {frozenset(s) for s in by_label.values()} != parts:
            failures.append((q, "classifier vs orbit partition"))
    _report(6, "product and classifier oracles", failures)


def test_criterion_7_structural_invariants():
    failures = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        if sum(1 for _ in enumerate_sl2(oracles.field_for(q))) != sl2_order(q):
            failures.append((q, "group order"))
    for q in ALL_TESTED_QS:
        table = class_table(oracles.field_for(q))
        expected = q + 4 if q % 2 else q + 1
        if len(table) != expected:
            failures.append((q, "class count", len(table)))
        if sum(e.size for e in table.entries) != sl2_order(q):
            failures.append((q, "size sum"))
    _report(7, "structural invariants", failures)


def test_criterion_8_trace_coverage_and_exclusion():
    failures = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        result = check_split_trace_coverage(oracles.field_for(q))
        if not result.passed:
            failures.append((q, result.counterexample))
    for q in (2, 4, 8, 16):
        F = oracles.field_for(q)
        table = class_table(F)
        upper = table.rep(ClassLabel("U", 1))
        for w in (e.trace for e in table.entries if e.label.kind == "W"):
            labels = class_product_labels(F, upper, table.rep(ClassLabel("W", w)))
            traces = frozenset(table.entry(l).trace for l in labels)
            if w in traces or traces != frozenset(range(q)) - {w}:
                failures.append((q, w, sorted(traces)))
    _report(8, "trace coverage and trace exclusion", failures)
