"""Class labels, canonical representatives, and the classifier against the
brute-force orbit oracle."""

import random

import pytest

import oracles
from oracles import _conj4
from sl2q import classes
from sl2q.classes import (
    ClassEntry,
    ClassLabel,
    ClassTable,
    class_table,
    classify,
)
from sl2q.field import MAX_FIELD_SIZE, make_field, prime_powers_up_to
from sl2q.matrices import Mat2, enumerate_sl2, mat, sl2_order

ORACLE_QS = [2, 3, 4, 5, 7, 8, 9]


def reference_text(label: ClassLabel) -> str:
    # a label's text, formatted afresh
    if label.kind == "U":
        return f"U({label.x},{'+' if label.square else '-'})"
    return f"{label.kind}({label.x})"


@pytest.mark.parametrize("q", ORACLE_QS + [11, 13, 16, 25, 27, 32])
def test_class_count_and_size_sum(q):
    F = oracles.field_for(q)
    table = class_table(F)
    assert len(table) == (q + 4 if q % 2 else q + 1)
    assert sum(e.size for e in table.entries) == sl2_order(q)


def test_table_rejects_wrong_size_sum():
    F = make_field(3, 1)
    good = class_table(F).entries
    with pytest.raises(ValueError, match="class sizes sum to 23"):
        ClassTable(3, good[:-1] + (ClassEntry(good[-1].label, good[-1].rep, 5, good[-1].trace),))
    assert len(ClassTable(3, good)) == len(good)


@pytest.mark.parametrize("q", [q if q <= 64 else pytest.param(q, marks=pytest.mark.slow)
                               for q in prime_powers_up_to(1024)])
def test_table_order_and_traces(q):
    # the table's own order is the reference order reports are listed in,
    # and each entry's trace is its representative's; the per-trace index
    # holds each D or W entry at its trace and Z(s) at 2s, so the W traces
    # are the irreducible ones.  Its per-position columns are the entries'
    # labels and traces, each class's bit is 1 << its position, looked up
    # by label or, for a D or W class, by trace, and each label's text is
    # the one formatted afresh and parses back to the label
    F = oracles.field_for(q)
    table = class_table(F)
    assert table.labels() == sorted(table.labels(), key=oracles.label_sort_key)
    for e in table.entries:
        assert e.trace == F._add[e.rep.a][e.rep.d], e.label
        assert str(e.label) == reference_text(e.label), e.label
        assert ClassLabel.parse(str(e.label)) == e.label
    assert table.entry_labels == tuple(table.labels())
    assert table.entry_traces == tuple(e.trace for e in table.entries)
    assert table.label_bits == {e.label: 1 << i for i, e in enumerate(table.entries)}
    edges = {e.trace for e in table.entries if e.label.kind in "ZU"}
    assert table.trace_bits == [0 if t in edges else table.label_bits[table.by_trace[t].label]
                                for t in range(q)]
    assert oracles.mask_keys(F, table.semisimple_mask) == set(range(q)) - edges
    by_trace = table.by_trace
    assert len(by_trace) == q
    for e in table.entries:
        if e.label.kind == "Z":
            assert by_trace[F._add[e.label.x][e.label.x]] is e
        elif e.label.kind != "U":
            assert by_trace[e.trace] is e
    w_traces = [t for t, e in enumerate(by_trace) if e.label.kind == "W"]
    assert w_traces == [e.trace for e in table.entries if e.label.kind == "W"]
    # x**2 - t*x + 1 has a root r exactly when t = r + 1/r
    split = {F._add[r][F._inv[r]] for r in range(1, q)}
    assert w_traces == [t for t in range(q) if t not in split]


@pytest.mark.parametrize("q", ORACLE_QS)
def test_sizes_match_orbit_oracle(q):
    F = oracles.field_for(q)
    for e in class_table(F).entries:
        assert len(oracles.full_orbit(F, e.rep)) == e.size


@pytest.mark.parametrize("q", ORACLE_QS)
def test_classify_matches_orbit_partition(q):
    F = oracles.field_for(q)
    oracle_parts = {frozenset(part) for part in oracles.orbit_partition(F)}
    by_label: dict[ClassLabel, set] = {}
    for M in enumerate_sl2(F):
        by_label.setdefault(classify(F, M), set()).add((M.a, M.b, M.c, M.d))
    assert {frozenset(s) for s in by_label.values()} == oracle_parts
    assert set(by_label) == set(class_table(F).labels())


def test_classify_examples_gf5():
    F = make_field(5, 1)
    assert classify(F, mat(F, 1, 1, 0, 1)) == ClassLabel("U", 1, True)
    assert classify(F, mat(F, 1, 0, 3, 1)) == ClassLabel("U", 1, False)  # -3 = 2, non-square
    assert classify(F, mat(F, 0, 1, 4, 1)) == ClassLabel("W", 1)
    assert classify(F, mat(F, 4, 0, 0, 4)) == ClassLabel("Z", 4)
    assert classify(F, mat(F, 2, 0, 0, 3)) == ClassLabel("D", 2)


def test_are_conjugate_examples():
    # labels biject with classes, so equal labels mean conjugate matrices
    F5 = make_field(5, 1)
    assert classify(F5, mat(F5, 1, 1, 0, 1)) == classify(F5, mat(F5, 1, 4, 0, 1))  # 4 = 1*2^2
    assert classify(F5, mat(F5, 1, 1, 0, 1)) != classify(F5, mat(F5, 1, 2, 0, 1))
    F8 = make_field(2, 3)
    assert classify(F8, mat(F8, 1, 1, 0, 1)) == classify(F8, mat(F8, 0, 1, 1, 0))


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_offdiagonal_similarity_criterion(q):
    # [[1,u],[0,1]] ~ [[1,v],[0,1]] iff v/u is a nonzero square
    F = oracles.field_for(q)
    for u in range(1, q):
        for v in range(1, q):
            same = classify(F, mat(F, 1, u, 0, 1)) == classify(F, mat(F, 1, v, 0, 1))
            assert same == F._sq[F._mul[v][F._inv[u]]]


def test_unipotent_family_split():
    for q in (5, 7, 9):
        F = oracles.field_for(q)
        nu = F.least_nonsquare
        for s in (1, F._neg[1]):
            assert classify(F, mat(F, s, 1, 0, s)) != classify(F, mat(F, s, nu, 0, s))
    for q in (2, 4, 8):
        F = oracles.field_for(q)
        labels = [e.label for e in class_table(F).entries if e.label.kind == "U"]
        assert labels == [ClassLabel("U", 1, True)]


@pytest.mark.parametrize("q", ORACLE_QS + [11, 13, 16, 25, 27, 32])
def test_irreducible_trace_count(q):
    n = sum(e.label.kind == "W" for e in class_table(oracles.field_for(q)).entries)
    assert n == ((q - 1) // 2 if q % 2 else q // 2)


def test_representatives_classify_to_their_label():
    for q in ORACLE_QS:
        F = oracles.field_for(q)
        for e in class_table(F).entries:
            assert classify(F, e.rep) == e.label


def test_classify_requires_unit_determinant():
    F = make_field(5, 1)
    with pytest.raises(ValueError, match="determinant"):
        classify(F, mat(F, 2, 0, 0, 1))


def test_label_string_round_trip():
    for text in ("Z(1)", "D(2)", "U(1,+)", "U(4,-)", "W(0)", "W(13)", "D(5000)", "W(1024)"):
        assert str(ClassLabel.parse(text)) == text
        assert str(ClassLabel.parse(text)) == text  # again, once a text may be cached
    for bad in ("U(1)", "Z(1,+)", "X(2)", "D(-1)", "W"):
        with pytest.raises(ValueError):
            ClassLabel.parse(bad)


def test_label_text_never_crosses_types():
    # a label equal to a cached one but with another type of code or flag
    # gets its own text, before and after the int label is cached
    for _ in range(2):
        for label in (ClassLabel("D", 5.0), ClassLabel("Z", True), ClassLabel("U", 1, 1),
                      ClassLabel("U", 1, 0), ClassLabel("U", 1, 2), ClassLabel("W", 7, False),
                      ClassLabel("D", 5), ClassLabel("Z", 1), ClassLabel("U", 1, True),
                      ClassLabel("U", 1, False)):
            assert str(label) == reference_text(label), label
    assert str(ClassLabel("D", 5.0)) == "D(5.0)" and str(ClassLabel("Z", True)) == "Z(True)"


def test_label_text_cache_bounded():
    # the cache holds only labels of the four kinds with an int code below
    # MAX_FIELD_SIZE and a bool flag, each with its own text
    for q in prime_powers_up_to(64):
        for label in class_table(oracles.field_for(q)).labels():
            str(label)
    for label in (ClassLabel.parse("D(5000)"), ClassLabel("D", 5.0), ClassLabel("U", 1, 2),
                  ClassLabel("X", 3), ClassLabel("D", -1), ClassLabel("W", MAX_FIELD_SIZE)):
        str(label)
    cache = classes._LABEL_TEXT
    assert len(cache) <= 8 * MAX_FIELD_SIZE
    for label, text in cache.items():
        assert label.kind in ("Z", "D", "U", "W") and type(label.x) is int, label
        assert 0 <= label.x < MAX_FIELD_SIZE and type(label.square) is bool, label
        assert text == reference_text(label), label


def test_table_lookup_errors():
    F = make_field(5, 1)
    with pytest.raises(ValueError, match="no conjugacy class"):
        class_table(F).entry(ClassLabel("W", 0))  # x^2 + 1 factors mod 5


def test_classify_invariant_under_conjugation():
    F = make_field(7, 1)
    elems = list(enumerate_sl2(F))
    rng = random.Random(23)
    for _ in range(300):
        A, C = rng.choice(elems), rng.choice(elems)
        AC = Mat2(*_conj4(F._mul, F._add, F._neg, C[:4], A[:4]), F.q)
        assert classify(F, AC) == classify(F, A)
