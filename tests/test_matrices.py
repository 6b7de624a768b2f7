"""Matrix algebra and group enumeration."""

import random

import pytest

import oracles
from oracles import _conj4, _mul4
from sl2q.field import make_field
from sl2q.classes import classify
from sl2q.matrices import Mat2, det, enumerate_sl2, from_literal, mat, sl2_order

I4 = (1, 0, 0, 1)


def tuples(F):
    return [(M.a, M.b, M.c, M.d) for M in enumerate_sl2(F)]


def test_count_matches_filter_oracle():
    for q in (2, 3):
        F = oracles.field_for(q)
        listed = [(M.a, M.b, M.c, M.d) for M in enumerate_sl2(F)]
        assert sorted(listed) == sorted(oracles.sl2_by_filter(F))


@pytest.mark.parametrize("q,count", [(2, 6), (3, 24), (4, 60), (5, 120), (8, 504), (9, 720)])
def test_group_order(q, count):
    F = oracles.field_for(q)
    assert sl2_order(q) == count
    assert sum(1 for _ in enumerate_sl2(F)) == count


def test_enumeration_is_lexicographic_and_distinct():
    for q in (3, 4, 5):
        F = oracles.field_for(q)
        tuples = [(M.a, M.b, M.c, M.d) for M in enumerate_sl2(F)]
        assert tuples == sorted(tuples)
        assert len(set(tuples)) == len(tuples)
    assert next(iter(enumerate_sl2(make_field(2, 1)))) == Mat2(0, 1, 1, 0, 2)


def test_mat_mul_examples():
    F = make_field(5, 1)
    mul, add = F._mul, F._add
    X = (1, 1, 0, 1)
    assert _mul4(mul, add, X, I4) == X
    assert _mul4(mul, add, X, X) == (1, 2, 0, 1)


def test_det_multiplicative():
    F = make_field(3, 2)
    rng = random.Random(7)
    elems = list(enumerate_sl2(F))
    for _ in range(50):
        X, Y = rng.choice(elems), rng.choice(elems)
        XY = Mat2(*_mul4(F._mul, F._add, X[:4], Y[:4]), F.q)
        assert det(F, XY) == F._mul[det(F, X)][det(F, Y)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_inverse_formula_everywhere(q):
    # [[d,-b],[-c,a]] inverts every determinant-one matrix; checks._conjugates and
    # the _conj4 oracle rely on it
    F = oracles.field_for(q)
    mul, add, neg = F._mul, F._add, F._neg
    for a, b, c, d in tuples(F):
        inv = (d, neg[b], neg[c], a)
        assert _mul4(mul, add, (a, b, c, d), inv) == I4
        assert _mul4(mul, add, inv, (a, b, c, d)) == I4


def test_conjugate_by_identity():
    F = make_field(7, 1)
    A = (3, 1, 2, 4)
    assert _conj4(F._mul, F._add, F._neg, I4, A) == A


def test_conjugation_preserves_trace_exhaustive_q5():
    F = make_field(5, 1)
    mul, add, neg = F._mul, F._add, F._neg
    elems = tuples(F)
    for A in elems:
        tA = add[A[0]][A[3]]
        for C in elems:
            a, _, _, d = _conj4(mul, add, neg, C, A)
            assert add[a][d] == tA


def test_conjugate_diagonal_closed_form():
    F = make_field(5, 1)
    mul, sub, neg = F._mul, F._sub, F._neg
    a, b, c, d = 1, 2, 3, 2  # det = 2 - 6 = 1
    r, s = 2, 3
    got = _conj4(F._mul, F._add, neg, (a, b, c, d), (r, 0, 0, s))
    assert got == (
        sub[mul[mul[a][d]][r]][mul[mul[b][c]][s]],
        mul[mul[b][d]][sub[r][s]],
        neg[mul[mul[a][c]][sub[r][s]]],
        sub[mul[mul[a][d]][s]][mul[mul[b][c]][r]],
    )


def test_conjugation_right_action():
    F3 = make_field(3, 1)
    mul, add, neg = F3._mul, F3._add, F3._neg
    elems = tuples(F3)
    for A in elems:
        for C1 in elems:
            AC1 = _conj4(mul, add, neg, C1, A)
            for C2 in elems:
                C1C2 = _mul4(mul, add, C1, C2)
                assert _conj4(mul, add, neg, C1C2, A) == _conj4(mul, add, neg, C2, AC1)
    F9 = make_field(3, 2)
    mul, add, neg = F9._mul, F9._add, F9._neg
    rng = random.Random(11)
    elems9 = tuples(F9)
    for _ in range(200):
        A, C1, C2 = (rng.choice(elems9) for _ in range(3))
        assert (_conj4(mul, add, neg, _mul4(mul, add, C1, C2), A)
                == _conj4(mul, add, neg, C2, _conj4(mul, add, neg, C1, A)))


@pytest.mark.parametrize("q,centrals", [(2, 1), (3, 2), (4, 1), (5, 2), (8, 1), (9, 2)])
def test_center_size(q, centrals):
    F = oracles.field_for(q)
    assert sum(classify(F, M).kind == "Z" for M in enumerate_sl2(F)) == centrals


def test_is_central_examples():
    F = make_field(5, 1)
    assert classify(F, mat(F, 1, 0, 0, 1)).kind == "Z"
    assert classify(F, mat(F, 4, 0, 0, 4)).kind == "Z"
    assert classify(F, mat(F, 1, 1, 0, 1)).kind != "Z"
    assert classify(F, mat(F, 2, 0, 0, 3)).kind != "Z"


def test_closure():
    for q in (2, 3, 4):
        F = oracles.field_for(q)
        elems = tuples(F)
        group = set(elems)
        for X in elems:
            for Y in elems:
                assert _mul4(F._mul, F._add, X, Y) in group
    F9 = make_field(3, 2)
    elems9 = tuples(F9)
    group9 = set(elems9)
    rng = random.Random(3)
    for _ in range(300):
        assert _mul4(F9._mul, F9._add, rng.choice(elems9), rng.choice(elems9)) in group9


def test_field_mismatch_rejected():
    F5, F7 = make_field(5, 1), make_field(7, 1)
    X5 = mat(F5, 1, 1, 0, 1)
    with pytest.raises(ValueError, match="mismatch"):
        det(F7, X5)
    with pytest.raises(ValueError, match="mismatch"):
        classify(F7, X5)


def test_literal_round_trip():
    F = make_field(2, 2)
    M = mat(F, 2, 1, 3, 0)
    assert from_literal(F, str(M)) == M
    assert str(M) == "[[2,1],[3,0]]"


def test_literal_negative_entries():
    F5 = make_field(5, 1)
    assert from_literal(F5, "[[1,-1],[0,1]]") == mat(F5, 1, 4, 0, 1)
    F4 = make_field(2, 2)
    with pytest.raises(ValueError, match="prime fields"):
        from_literal(F4, "[[1,-1],[0,1]]")


def test_literal_rejects_garbage():
    F = make_field(5, 1)
    for text in ("[[1,2],[3]]", "[1,2,3,4]", "nonsense", "[[1,2],[3,4.5]]", "[[1,2],[3,9]]"):
        with pytest.raises(ValueError):
            from_literal(F, text)
