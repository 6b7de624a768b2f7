"""Field construction and arithmetic, exhaustive at small sizes."""

import functools
import gc
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sl2q import field
from sl2q.cli import main
from sl2q.field import (MAX_FIELD_SIZE, Field, field_for, make_field, prime_power,
                        prime_powers_up_to)
from sl2q.matrices import mat

PRIME_POWERS_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]

# the canonical modulus of every extension field q <= 1024, frozen from
# find_modulus; oracles.least_monic_irreducible re-derives those to q = 32
EXTENSION_MODULI = {
    4: (1, 1, 1), 8: (1, 0, 1, 1), 9: (1, 0, 1), 16: (1, 0, 0, 1, 1), 25: (1, 1, 1),
    27: (1, 0, 2, 1), 32: (1, 0, 0, 1, 0, 1), 49: (1, 0, 1), 64: (1, 0, 0, 0, 0, 1, 1),
    81: (1, 0, 1, 1, 1), 121: (1, 0, 1), 125: (1, 0, 1, 1), 128: (1, 0, 0, 0, 0, 0, 1, 1),
    169: (1, 3, 1), 243: (1, 0, 0, 0, 2, 1), 256: (1, 0, 0, 0, 1, 1, 0, 1, 1),
    289: (1, 1, 1), 343: (1, 0, 1, 1), 361: (1, 0, 1), 512: (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    529: (1, 0, 1), 625: (1, 0, 1, 1, 1), 729: (1, 0, 0, 0, 1, 1, 1), 841: (1, 1, 1),
    961: (1, 0, 1), 1024: (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
}
EXPECTED_MODULI = {q: f for q, f in EXTENSION_MODULI.items() if q <= 32}


def test_modulus_examples():
    assert make_field(2, 2).modulus == (1, 1, 1)
    F5 = make_field(5, 1)
    assert F5.q == 5 and F5.modulus == (0, 1)
    assert make_field(3, 2).modulus == EXPECTED_MODULI[9]


@pytest.mark.parametrize("q", sorted(EXPECTED_MODULI))
def test_modulus_matches_independent_scan(q):
    F = oracles.field_for(q)
    assert F.modulus == oracles.least_monic_irreducible(F.p, F.m) == EXPECTED_MODULI[q]


def test_extension_moduli_frozen():
    got = {}
    for q in prime_powers_up_to(MAX_FIELD_SIZE):
        p, m = prime_power(q)
        if m > 1:
            got[q] = field.find_modulus(p, m)
    assert got == EXTENSION_MODULI


def test_make_field_rejections():
    with pytest.raises(ValueError, match="not prime"):
        make_field(4, 1)
    with pytest.raises(ValueError, match="not prime"):
        make_field(6, 2)
    with pytest.raises(ValueError, match="not prime"):
        make_field(1, 1)
    with pytest.raises(ValueError, match="positive"):
        make_field(5, 0)
    with pytest.raises(ValueError, match="bound"):
        make_field(2, 11)
    assert 2**10 <= MAX_FIELD_SIZE  # q = 1024 itself is allowed


PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                   37, 41, 43, 47, 49, 53, 59, 61, 64]


def test_prime_powers_up_to():
    assert prime_powers_up_to(64) == PRIME_POWERS_64
    assert prime_powers_up_to(32) == PRIME_POWERS_32
    assert prime_powers_up_to(1) == []


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_field_for_prime_powers(q):
    F = field_for(q)
    assert F.p**F.m == F.q == q
    assert F is make_field(F.p, F.m)
    assert prime_power(q) == (F.p, F.m)


def test_field_for_rejections():
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
            field_for(q)
        with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
            prime_power(q)
    with pytest.raises(ValueError, match="bound"):
        field_for(2048)


class Unpowered(int):
    """An int that fails the test when raised to a power."""

    def __pow__(self, m):
        raise AssertionError(f"formed {int(self)}**{m}")


def test_size_bound_checked_before_factoring(monkeypatch):
    # an oversized q or p is refused without trial division, and a huge
    # extension degree without forming p**m
    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(field, "prime_factors", no_factoring)
    with pytest.raises(ValueError, match="bound"):
        field_for(10**18 + 3)
    with pytest.raises(ValueError, match="bound"):
        make_field(10**18 + 3, 1)
    with pytest.raises(ValueError, match="bound"):
        make_field(Unpowered(2), 10**8)
    # too many digits for str(): the refusal names the size by bit length
    with pytest.raises(ValueError, match="bound"):
        field_for(10**5000)
    with pytest.raises(ValueError, match="bound"):
        make_field(10**5000, 1)
    res = CliRunner().invoke(main, ["table", "--q", "1000000000000000003"])
    assert res.exit_code == 2
    assert "bound" in res.output


@pytest.mark.parametrize("q", prime_powers_up_to(256))
def test_tables_match_naive_oracle(q):
    # a fresh Field, so the test holds no table in make_field's cache
    p, m = prime_power(q)
    F = Field(p, m)
    for name, table in oracles.naive_field_tables(p, m).items():
        assert getattr(F, name) == table, (q, name)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_during_build_and_restored(enabled, monkeypatch):
    seen = []
    real = field._digit_add_table

    def spy(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(field, "_digit_add_table", spy)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        Field(7, 1)
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_restored_when_build_raises(enabled, monkeypatch):
    def broken(*args):
        raise RuntimeError("table build failed")

    monkeypatch.setattr(field, "_digit_add_table", broken)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="table build failed"):
            Field(7, 1)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _table_rows(F):
    return F._add + F._sub + F._mul


def _young_ids():
    return {id(o) for g in (0, 1) for o in gc.get_objects(generation=g)}


@pytest.mark.parametrize("p, m", [(7, 1), (2, 4), (3, 3)])
def test_tables_leave_young_generations(p, m):
    frozen = gc.get_freeze_count()
    F = Field(p, m)
    assert gc.get_freeze_count() == frozen
    young = _young_ids()
    assert not any(id(row) in young for row in _table_rows(F))


def test_caller_frozen_objects_stay_frozen():
    # with the collector off nothing moves the new rows but the promotion,
    # which is skipped while a caller holds objects frozen
    was = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        F = Field(7, 1)
        assert gc.get_freeze_count() == frozen
        young = _young_ids()
        assert all(id(row) in young for row in _table_rows(F))
    finally:
        gc.unfreeze()
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("m", [1, 10])
def test_characteristic_2_sub_is_add(m):
    F = Field(2, m)
    assert F._sub is F._add


@pytest.mark.parametrize("p, m", [(1019, 1), (31, 2), (2, 10), (3, 6), (5, 4), (7, 3)])
def test_table_rows_exact_size_and_shared_entries(p, m):
    F = Field(p, m)
    q = F.q
    exact = sys.getsizeof([0] * q)
    for name in ("_add", "_sub", "_mul"):
        table = getattr(F, name)
        assert len(table) == q
        assert all(sys.getsizeof(row) == exact for row in table), name
    # every entry of every table is one of q shared int objects
    rows = F._add + F._sub + F._mul + [F._neg, F._inv]
    assert len({id(v) for row in rows for v in row}) == q


def test_add_examples():
    assert make_field(5, 1)._add[2][4] == 1
    assert make_field(2, 2)._add[2][2] == 0
    F9 = make_field(3, 2)
    for x in range(9):
        assert F9._add[x][F9._neg[x]] == 0


def test_mul_examples():
    assert make_field(2, 2)._mul[2][2] == 3  # x*x = x+1 mod x^2+x+1
    assert make_field(5, 1)._mul[3][4] == 2
    for q in (4, 5, 9):
        F = oracles.field_for(q)
        for x in range(q):
            assert F._mul[x][1] == x


def test_inv_examples():
    assert make_field(5, 1)._inv[2] == 3
    assert make_field(2, 2)._inv[2] == 3
    for q in (2, 5, 8, 9):
        assert oracles.field_for(q)._inv[1] == 1


def test_is_square_examples():
    F5 = make_field(5, 1)
    assert F5._sq[4]
    assert not F5._sq[2]
    assert {x for x in range(5) if F5._sq[x]} == {0, 1, 4}
    F8 = make_field(2, 3)
    assert all(F8._sq)
    for q in (5, 9):
        assert oracles.field_for(q)._sq[0]


@pytest.mark.parametrize("q", PRIME_POWERS_32)
def test_field_axioms_exhaustive(q):
    F = oracles.field_for(q)
    add, mul, neg, inv = F._add, F._mul, F._neg, F._inv
    elems = range(q)
    for x in elems:
        assert add[x][0] == x and mul[x][1] == x
        assert add[x][neg[x]] == 0
        if x:
            assert mul[x][inv[x]] == 1
        for y in elems:
            assert add[x][y] == add[y][x]
            assert mul[x][y] == mul[y][x]
            for z in elems:
                assert add[add[x][y]][z] == add[x][add[y][z]]
                assert mul[mul[x][y]][z] == mul[x][mul[y][z]]
                assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]


@pytest.mark.parametrize("q", PRIME_POWERS_32)
def test_frobenius(q):
    F = oracles.field_for(q)
    add, mul = F._add, F._mul
    frob = [functools.reduce(lambda acc, _: mul[acc][x], range(F.p), 1) for x in range(q)]
    for x in range(q):
        for y in range(q):
            assert frob[add[x][y]] == add[frob[x]][frob[y]]


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_32 if q % 2])
def test_square_count_odd(q):
    F = oracles.field_for(q)
    assert sum(F._sq) == (q + 1) // 2


@pytest.mark.parametrize("q", PRIME_POWERS_32)
def test_primitive_element_order(q):
    F = oracles.field_for(q)
    x, order = F.primitive_elem, 1
    while x != 1:
        x = F._mul[x][F.primitive_elem]
        order += 1
    assert order == q - 1


def test_least_nonsquare():
    expected = {3: 2, 5: 2, 7: 3, 9: 4, 13: 2, 25: 7, 27: 2}
    for q, nu in expected.items():
        F = oracles.field_for(q)
        assert F.least_nonsquare == nu
        assert all(F._sq[:nu])
    for q in (2, 4, 8, 16, 32):
        assert oracles.field_for(q).least_nonsquare is None


def test_invalid_codes_rejected():
    F = make_field(5, 1)
    for bad in (-1, 5, 2.0, "3", None):
        with pytest.raises(ValueError):
            F.check(bad)
        with pytest.raises(ValueError):
            mat(F, 1, 0, bad, 1)


def test_make_field_is_cached():
    assert make_field(7, 1) is make_field(7, 1)


@given(x=st.integers(0, 26), y=st.integers(0, 26), z=st.integers(0, 26))
def test_random_identities_gf27(x, y, z):
    F = make_field(3, 3)
    add, sub, mul, inv = F._add, F._sub, F._mul, F._inv
    assert add[add[x][y]][z] == add[x][add[y][z]]
    assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
    assert sub[add[x][y]][y] == x
    if x:
        assert mul[inv[x]][mul[x][y]] == y


@settings(max_examples=60)
@given(x=st.integers(0, 31), y=st.integers(0, 31))
def test_random_identities_gf32(x, y):
    F = make_field(2, 5)
    assert F._add[x][x] == 0
    assert F._mul[x][y] == F._mul[y][x]
    assert F._sq[x]
