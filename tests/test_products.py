"""Class products: the directly enumerated class against the orbit oracles,
every pair against the fixed-factor oracle, the fixed-factor product
against double enumeration, every closed form against the row scan of
sl2q.checks, and the headline minimum values."""

import contextlib
import dataclasses
import io
import itertools
import json
import random
from pathlib import Path

import pytest

import oracles
import sl2q
from oracles import _class_members, _conj4
from sl2q import checks, products
from sl2q.checks import _scan_keys
from sl2q.classes import ClassLabel, class_table, classify
from sl2q.field import make_field, prime_factors, prime_powers_up_to
from sl2q.matrices import Mat2, det, enumerate_sl2, mat
from sl2q.products import (
    _product_keys,
    _semisimple_keys,
    _unipotent_keys,
    _upper_upper_keys,
    class_product_labels,
    min_product_classes,
    product_report,
)

ORACLE_QS = [2, 3, 4, 5, 7, 8, 9]
GATE_QS = [q for q in range(2, 26) if len(prime_factors(q)) == 1]


def filter_entries(table, keys):
    # the reference selection: every entry whose trace or label is a key,
    # in table order
    return [e for e in table.entries if e.trace in keys or e.label in keys]


def selected(table, mask):
    # the entries of a class mask, read through the table's mask reader
    return list(itertools.compress(table.entries, table.select(mask)))


@pytest.mark.parametrize("q", ORACLE_QS)
def test_generator_orbits_match_full_enumeration(q):
    # the transvection closure, which the fixed-factor gate takes as each
    # class, agrees with conjugation by every group element and with the
    # matrices that classify gives the class's label
    F = oracles.field_for(q)
    by_label: dict[ClassLabel, set] = {}
    for M in enumerate_sl2(F):
        by_label.setdefault(classify(F, M), set()).add((M.a, M.b, M.c, M.d))
    for e in class_table(F).entries:
        members = by_label[e.label]
        assert members == oracles.full_orbit(F, e.rep)
        assert members == oracles.bfs_orbit(F, e.rep)
        assert len(members) == e.size


@pytest.mark.parametrize("q", ORACLE_QS)
def test_class_cuts_meet_every_centralizer_orbit(q):
    # against each noncentral second factor B, the cut of every noncentral
    # class lies in that class and its conjugates under the centralizer of
    # B fill the class: the D, U and non-split torus cuts alike
    F = oracles.field_for(q)
    mul, add, neg = F._mul, F._add, F._neg
    table = class_table(F)
    group = [(C.a, C.b, C.c, C.d) for C in enumerate_sl2(F)]
    for lb in table.noncentral_labels():
        rb = table.rep(lb)
        b4 = (rb.a, rb.b, rb.c, rb.d)
        centralizer = [c4 for c4 in group if _conj4(mul, add, neg, c4, b4) == b4]
        for la in table.noncentral_labels():
            members = _class_members(F, la, lb)
            whole = oracles.full_orbit(F, table.rep(la))
            assert set(members) <= whole, (la, lb)
            moved = {_conj4(mul, add, neg, c4, x) for x in members for c4 in centralizer}
            assert moved == whole, (la, lb)
            assert len(members) <= 4 * q, (la, lb)


@pytest.mark.parametrize("q", GATE_QS)
def test_products_match_fixed_factor_oracle(q):
    # every ordered pair, central classes included: the centralizer cuts
    # must lose no class and no trace of the actual products, both through
    # the library (a closed form for every pair kind) and through the scan
    # that the checks use for every pair.  Both give class masks, whose
    # every bit names a class (mask_keys raises otherwise)
    F = oracles.field_for(q)
    table = class_table(F)
    for ea in table.entries:
        orbit = oracles.bfs_orbit(F, ea.rep)
        for eb in table.entries:
            labels, traces = oracles.fixed_factor_product(F, orbit, eb.rep)
            assert class_product_labels(F, ea.rep, eb.rep) == labels, (ea.label, eb.label)
            pair = (ea.label, eb.label)
            for mask in (_scan_keys(F, *pair), _product_keys(F, *pair)):
                entries = selected(table, mask)
                assert entries == filter_entries(table, oracles.mask_keys(F, mask)), pair
                assert len(entries) == mask.bit_count(), pair
                assert {e.label for e in entries} == labels, pair
            report = product_report(F, ea.label, eb.label)
            ordered = tuple(sorted(labels, key=oracles.label_sort_key))
            assert report.labels == ordered, (ea.label, eb.label)
            assert report.traces == tuple(sorted(traces)), (ea.label, eb.label)


# the largest q whose scans Tier-1 compares; it counts each U x U pair there
# by its orbit too
TIER1_SCAN_QMAX = 49


def assert_formula_matches_scan(F, kernel, pairs):
    # the class mask, and the count that the kernels' docstrings prove
    # (oracles.pair_count), on which min_product_classes' shortcut rests.
    # pair_count counts a U x U pair by its scan, so such a pair's count is
    # compared with the fixed-factor oracle over its orbit instead, up to
    # TIER1_SCAN_QMAX; above that, its mask alone
    table = class_table(F)
    for la, lb in pairs:
        scan = _scan_keys(F, la, lb)
        assert kernel(F, la, lb) == scan, (F.q, la, lb)
        if la.kind == lb.kind == "U":
            if F.q <= TIER1_SCAN_QMAX:
                orbit = oracles.bfs_orbit(F, table.rep(la))
                labels, _ = oracles.fixed_factor_product(F, orbit, table.rep(lb))
                assert len(labels) == scan.bit_count(), (F.q, la, lb)
        else:
            assert oracles.pair_count(F, la, lb) == scan.bit_count(), (F.q, la, lb)


def semisimple_pairs(F):
    labels = [l for l in class_table(F).noncentral_labels() if l.kind in "DW"]
    return [(la, lb) for i, la in enumerate(labels) for lb in labels[i:]]


def unipotent_pairs(F):
    # U class first: the scan and the closed form both order their operands
    # themselves, so the other order would repeat each computation
    labels = class_table(F).noncentral_labels()
    return [(u, l) for u in labels if u.kind == "U" for l in labels if l.kind in "DW"]


@pytest.mark.parametrize("q", prime_powers_up_to(49))
def test_semisimple_formula_matches_scan(q):
    F = oracles.field_for(q)
    assert_formula_matches_scan(F, _semisimple_keys, semisimple_pairs(F))


@pytest.mark.slow
@pytest.mark.parametrize("q", [q for q in prime_powers_up_to(128) if q > 49])
def test_semisimple_formula_matches_scan_to_128(q):
    F = oracles.field_for(q)
    assert_formula_matches_scan(F, _semisimple_keys, semisimple_pairs(F))


@pytest.mark.slow
@pytest.mark.parametrize("q", [509, 512, 1019, 1024])
def test_semisimple_formula_matches_scan_sampled(q):
    # 2,000 seeded pairs: three quarters drawn at random, a quarter with
    # t_b = r*t_a, where the Z(r) and U(r, +-) rules turn
    F = oracles.field_for(q)
    table = class_table(F)
    labels = [l for l in table.noncentral_labels() if l.kind in "DW"]
    by_trace = {table.entry(l).trace: l for l in labels}
    roots = [r for r in range(1, q) if F._mul[r][r] == 1]
    rng = random.Random(q)
    pairs = []
    for k in range(2000):
        la = rng.choice(labels)
        if k % 4:
            lb = rng.choice(labels)
        else:
            lb = by_trace[F._mul[rng.choice(roots)][table.entry(la).trace]]
        pairs.append((la, lb))
    assert_formula_matches_scan(F, _semisimple_keys, pairs)


@pytest.mark.parametrize("q", prime_powers_up_to(49))
def test_unipotent_formula_matches_scan(q):
    # every pair of a U class and a D or W class, U class first; the
    # fixed-factor oracle covers the other order for q <= 25
    F = oracles.field_for(q)
    assert_formula_matches_scan(F, _unipotent_keys, unipotent_pairs(F))


@pytest.mark.slow
@pytest.mark.parametrize("q", [q for q in prime_powers_up_to(128) if q > 49])
def test_unipotent_formula_matches_scan_to_128(q):
    F = oracles.field_for(q)
    assert_formula_matches_scan(F, _unipotent_keys, unipotent_pairs(F))


@pytest.mark.slow
@pytest.mark.parametrize("q", [509, 512, 1019, 1024])
def test_unipotent_formula_matches_scan_at_largest_fields(q):
    F = oracles.field_for(q)
    assert_formula_matches_scan(F, _unipotent_keys, unipotent_pairs(F))


# Tier-1 runs q <= 49, `-m slow` the q up to 128 and the four largest fields
SCAN_QS = ([q if q <= TIER1_SCAN_QMAX else pytest.param(q, marks=pytest.mark.slow)
            for q in prime_powers_up_to(128)]
           + [pytest.param(q, marks=pytest.mark.slow) for q in (509, 512, 1019, 1024)])


@pytest.mark.parametrize("q", SCAN_QS)
def test_upper_upper_formula_matches_scan(q):
    # every ordered pair of U classes: the kernel reads both operands off
    # their representatives, and the scan keeps their order
    F = oracles.field_for(q)
    us = [l for l in class_table(F).noncentral_labels() if l.kind == "U"]
    assert_formula_matches_scan(F, _upper_upper_keys, itertools.product(us, repeat=2))


@pytest.mark.parametrize("q", SCAN_QS)
def test_central_formula_matches_scan(q):
    # every ordered pair with a Z factor: one class, r*C.  _central_keys
    # takes the Z factor first, so the pairs go through the dispatcher,
    # which puts it there
    F = oracles.field_for(q)
    labels = class_table(F).labels()
    assert_formula_matches_scan(F, _product_keys, [
        (la, lb) for la, lb in itertools.product(labels, repeat=2) if "Z" in la.kind + lb.kind])


@pytest.mark.parametrize("q", [8, 9])
def test_scan_orders_each_pair_once(q, monkeypatch):
    # every ordered noncentral pair but U x U reaches one row kernel, with
    # its operands ordered at the top of the scan: the torus cut serves
    # W x W alone, and the D and U cuts never get a U first factor (trace
    # +-2); a U x U pair labels its whole cut and reaches no row kernel
    calls = []
    for name in ("_diagonal_rows", "_upper_rows", "_companion_rows"):
        def recording(F, t, *args, name=name, real=getattr(checks, name)):
            calls.append((name, t, args))
            return real(F, t, *args)

        monkeypatch.setattr(checks, name, recording)
    F = oracles.field_for(q)
    table = class_table(F)
    labels = table.noncentral_labels()
    edges = {table.entry(l).trace for l in labels if l.kind == "U"}
    seen = set()
    for la in labels:
        for lb in labels:
            calls.clear()
            _scan_keys(F, la, lb)
            kinds = {la.kind, lb.kind}
            if kinds == {"U"}:
                assert calls == [], (la, lb)
                continue
            [(name, t, _)] = calls
            assert t not in edges, (la, lb)
            if name == "_companion_rows":
                assert kinds == {"W"}, (la, lb)
            seen.add(name)
    assert seen == {"_diagonal_rows", "_upper_rows", "_companion_rows"}


@pytest.mark.parametrize("q", [5, 7, 8, 9, 25, 27])
def test_upper_upper_scan_labels_whole_cut(q, monkeypatch):
    # a U x U scan labels every member of its first factor's cut against
    # the second, q - 1 of them for odd q and 2(q - 1) for even q, not
    # only the rows of trace +-2
    labelled = []

    def spy(F, members, b4, real=checks._class_keys):
        labelled.extend(members)
        return real(F, members, b4)

    monkeypatch.setattr(checks, "_class_keys", spy)
    F = oracles.field_for(q)
    uppers = [l for l in class_table(F).labels() if l.kind == "U"]
    for la in uppers:
        for lb in uppers:
            labelled.clear()
            _scan_keys(F, la, lb)
            assert len(labelled) == (q - 1 if q % 2 else 2 * (q - 1)), (la, lb)
            assert set(labelled) == set(oracles._class_members(F, la, lb)), (la, lb)


@pytest.mark.parametrize("q", prime_powers_up_to(49))
def test_min_matches_scan_of_every_pair(q):
    # the minimum and its first witness in table order, against the scan
    # of every unordered noncentral pair
    F = oracles.field_for(q)
    labels = class_table(F).noncentral_labels()
    best = None
    for i, la in enumerate(labels):
        for lb in labels[i:]:
            n = _scan_keys(F, la, lb).bit_count()
            if best is None or n < best[0]:
                best = (n, (la, lb))
    assert min_product_classes(F) == best


# Tier-1 runs q <= 128, `-m slow` every prime power up to 1024 (about 17 s)
@pytest.mark.parametrize("q", [q if q <= 128 else pytest.param(q, marks=pytest.mark.slow)
                               for q in prime_powers_up_to(1024)])
def test_min_matches_all_pairs_oracle(q):
    # the pairs with a U factor that can attain the minimum give the value
    # and first witness of counting every unordered noncentral pair
    F = oracles.field_for(q)
    assert min_product_classes(F) == oracles.min_over_all_pairs(F)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 49, 64, 127, 128])
def test_min_counts_only_unipotent_pairs(q, monkeypatch):
    # 10 U x U sets built (1 for even q), and no D or W closed form
    F = oracles.field_for(q)
    built = []
    real = products._product_keys

    def spy(F, la, lb):
        built.append((la, lb))
        return real(F, la, lb)

    def forbidden(*args):
        raise AssertionError("the minimum built a D or W closed form")

    monkeypatch.setattr(products, "_product_keys", spy)
    monkeypatch.setattr(products, "_semisimple_keys", forbidden)
    monkeypatch.setattr(products, "_unipotent_keys", forbidden)
    min_product_classes(F)
    assert len(built) == (1 if q % 2 == 0 else 10)
    assert all(la.kind == lb.kind == "U" for la, lb in built)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_products_match_double_enumeration(q):
    F = oracles.field_for(q)
    table = class_table(F)
    for i, ea in enumerate(table.entries):
        for eb in table.entries[i:]:
            oracle = {
                classify(F, mat(F, *t))
                for t in oracles.double_product_tuples(F, ea.rep, eb.rep)
            }
            assert class_product_labels(F, ea.rep, eb.rep) == oracle
            assert {e.label for e in selected(table, _scan_keys(F, ea.label, eb.label))} == oracle


@pytest.mark.parametrize("p, entries, match, readers", [
    (7, (1, 1, 0, 1), "field mismatch", [det, classify]),
    (5, (1, 1, 1, 1), "determinant", [classify]),
])
def test_matrix_operands_checked(p, entries, match, readers):
    # a GF(7) matrix used with GF(5), and a GF(5) matrix of determinant 0:
    # class_product_labels takes its operand checks from classify, for
    # either operand
    F = make_field(5, 1)
    bad, good = mat(make_field(p, 1), *entries), mat(F, 1, 1, 0, 1)
    for read in readers:
        with pytest.raises(ValueError, match=match):
            read(F, bad)
    for A, B in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=match):
            class_product_labels(F, A, B)


def test_central_factor_collapses():
    for q in (5, 8):
        F = oracles.field_for(q)
        table = class_table(F)
        for ze in table.entries:
            if ze.label.kind != "Z":
                continue
            for e in table.entries:
                labels = class_product_labels(F, ze.rep, e.rep)
                assert len(labels) == 1


def test_identity_factor_gives_other_class():
    F = make_field(5, 1)
    B = mat(F, 0, 1, 4, 1)
    assert class_product_labels(F, mat(F, 1, 0, 0, 1), B) == {classify(F, B)}
    assert product_report(F, ClassLabel("Z", 1), classify(F, B)).traces == (F._add[B.a][B.d],)


def test_even_optimal_pair_gf4():
    F = make_field(2, 2)
    t = class_table(F)
    labels = class_product_labels(F, t.rep(ClassLabel("U", 1)), t.rep(ClassLabel("W", 2)))
    assert len(labels) == 3
    assert labels == {ClassLabel("D", 2), ClassLabel("U", 1, True), ClassLabel("W", 3)}


def test_gf3_pair_with_two_classes():
    F = make_field(3, 1)
    t = class_table(F)
    nc = t.noncentral_labels()
    assert any(
        len(class_product_labels(F, t.rep(a), t.rep(b))) == 2
        for i, a in enumerate(nc) for b in nc[i:]
    )


def test_report_examples():
    F5 = make_field(5, 1)
    r = product_report(F5, ClassLabel("U", 1, True), ClassLabel("U", 1, False))
    assert r.num_classes == 4
    assert set(r.labels) == {ClassLabel("D", 2), ClassLabel("U", 1, True),
                             ClassLabel("U", 1, False), ClassLabel("W", 4)}
    F7 = make_field(7, 1)
    e = ClassLabel("U", 1, True)
    assert product_report(F7, e, e).num_classes == 5
    # central times anything stays a single class
    for q in (5, 8):
        F = oracles.field_for(q)
        table = class_table(F)
        for lz in table.labels():
            if lz.kind != "Z":
                continue
            for lb in table.labels():
                assert product_report(F, lz, lb).num_classes == 1


def test_self_product_of_square_unipotent_gf5():
    # the square witness value is 0 here, so the product picks up the
    # central class rather than the square unipotent one
    F = make_field(5, 1)
    t = class_table(F)
    E = t.rep(ClassLabel("U", 1, True))
    assert class_product_labels(F, E, E) == {
        ClassLabel("Z", 1), ClassLabel("U", 1, False),
        ClassLabel("U", 4, True), ClassLabel("W", 1),
    }


@pytest.mark.parametrize("q", ORACLE_QS)
def test_product_symmetric_in_operands(q):
    F = oracles.field_for(q)
    table = class_table(F)
    labels = table.labels()
    for la in labels:
        for lb in labels:
            ra = product_report(F, la, lb)
            rb = product_report(F, lb, la)
            assert ra.num_classes == rb.num_classes
            assert ra.labels == rb.labels


@pytest.mark.parametrize("q,expected", [(2, 1), (3, 2), (4, 3), (5, 4), (7, 5),
                                        (8, 7), (9, 6), (11, 7), (13, 8)])
def test_min_product_classes(q, expected):
    F = oracles.field_for(q)
    value, (la, lb) = min_product_classes(F)
    assert value == expected
    assert la.kind != "Z" and lb.kind != "Z"
    assert product_report(F, la, lb).num_classes == value


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25])
def test_entries_exact_for_spoiled_keys(q, monkeypatch):
    # a product mask with bits in range added or cleared selects exactly
    # the classes of its bits, through ClassTable.select (the checks'
    # failure payloads) and through the product readers, whose count is then the
    # number of labels; a bit at or past the class count, or a negative
    # mask, raises in each of them
    F = oracles.field_for(q)
    table = class_table(F)
    n = len(table)
    rng = random.Random(q)
    labels = table.labels()
    for _ in range(12):
        la, lb = rng.choice(labels), rng.choice(labels)
        mask = _product_keys(F, la, lb)
        spoiled = [mask | 1 << rng.randrange(n), mask & rng.getrandbits(n),
                   rng.getrandbits(n), (1 << n) - 1, 0]
        for bad in spoiled:
            expected = filter_entries(table, oracles.mask_keys(F, bad))
            assert selected(table, bad) == expected, (la, lb, bad ^ mask)
            monkeypatch.setattr(products, "_product_keys", lambda *_: bad)
            assert class_product_labels(F, table.rep(la), table.rep(lb)) == {
                e.label for e in expected}
            report = product_report(F, la, lb)
            assert report.labels == tuple(e.label for e in expected)
            assert report.traces == tuple(sorted({e.trace for e in expected}))
            assert report.num_classes == len(expected)
            monkeypatch.undo()
        for stray in (mask | 1 << n, mask | 1 << n + rng.randrange(1, 64), -1, ~mask):
            with pytest.raises(ValueError, match="past position"):
                table.select(stray)
            monkeypatch.setattr(products, "_product_keys", lambda *_: stray)
            with pytest.raises(ValueError, match="past position"):
                class_product_labels(F, table.rep(la), table.rep(lb))
            with pytest.raises(ValueError, match="past position"):
                product_report(F, la, lb)
            monkeypatch.undo()


@pytest.mark.parametrize("q", [*prime_powers_up_to(16), 121, 125, 128, 169])
def test_report_matches_reference(q):
    # labels, traces and count against the reference filter over the
    # mask's keys: every ordered pair up to q = 16, 200 seeded pairs on the larger
    # fields
    F = oracles.field_for(q)
    table = class_table(F)
    labels = table.labels()
    if q <= 16:
        pairs = list(itertools.product(labels, repeat=2))
    else:
        rng = random.Random(q)
        pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(200)]
    for la, lb in pairs:
        hits = filter_entries(table, oracles.mask_keys(F, _product_keys(F, la, lb)))
        report = product_report(F, la, lb)
        assert report.labels == tuple(e.label for e in hits), (la, lb)
        assert report.traces == tuple(sorted({e.trace for e in hits})), (la, lb)
        assert report.num_classes == len(hits), (la, lb)


@pytest.mark.parametrize("p, m", [(2, 4), (5, 2)])
def test_class_table_alone_builds_no_report_columns(p, m):
    # building a table and counting products, all that field_tables and
    # min_sweep do, pay for none of the label, trace and text columns that
    # a report reads back; a report reads its labels at once, and its
    # traces and texts only when asked
    F = make_field.__wrapped__(p, m)  # a fresh field, not the cached one
    table = class_table(F)
    min_product_classes(F)
    report_data = {"entry_labels", "entry_traces", "entry_texts"}
    assert not report_data & vars(table).keys()
    w = table.entries[-1].label
    report = product_report(F, w, w)
    assert report_data & vars(table).keys() == {"entry_labels"}
    report.traces
    assert report_data & vars(table).keys() == {"entry_labels", "entry_traces"}
    report.to_json()
    assert report_data <= vars(table).keys()


@pytest.mark.parametrize("q", [4, 5, 8, 9, 16, 25])
def test_report_reads_traces_and_texts_off_its_mask(q):
    # every ordered noncentral pair: the traces and texts read from the
    # mask on demand are those of the labels read at once
    F = oracles.field_for(q)
    table = class_table(F)
    nc = table.noncentral_labels()
    for la, lb in itertools.product(nc, repeat=2):
        r = product_report(F, la, lb)
        assert r.traces == tuple(sorted({table.entry(l).trace for l in r.labels})), (la, lb)
        assert r.to_json()["labels"] == [str(l) for l in r.labels], (la, lb)
        assert r.mask.bit_count() == r.num_classes, (la, lb)


def test_report_with_stray_mask_bit_refuses_its_traces():
    F = make_field(5, 1)
    table = class_table(F)
    w = table.entries[-1].label
    r = product_report(F, w, w)
    stray = dataclasses.replace(r, mask=r.mask | 1 << len(table))
    with pytest.raises(ValueError, match="past position"):
        stray.traces


def test_products_cache_no_members():
    # classes are enumerated per call: the field keeps only its tables
    F = oracles.field_for(16)
    w = class_table(F).noncentral_labels()[-1]
    min_product_classes(F)
    product_report(F, w, w)
    assert set(F._cache) == {"class_table"}


def test_split_class_covers_all_traces():
    F = make_field(5, 1)
    A = mat(F, 2, 0, 0, 3)
    B = mat(F, 1, 1, 0, 1)
    assert product_report(F, classify(F, A), classify(F, B)).traces == tuple(range(5))


def test_even_trace_exclusion_gf4():
    F = make_field(2, 2)
    t = class_table(F)
    for w in (2, 3):
        ts = product_report(F, ClassLabel("U", 1), ClassLabel("W", w)).traces
        assert set(ts) == set(range(4)) - {w}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_trace_count_vs_class_count_bounds(q):
    # classes sharing a trace: only the repeated-eigenvalue traces can host
    # several (central + both square variants), giving slack at most 4 for
    # odd q (both such traces saturate, e.g. split self-products at q = 5)
    # and 1 for even q
    F = oracles.field_for(q)
    table = class_table(F)
    nc = table.noncentral_labels()
    slack_cap = 4 if q % 2 else 1
    for i, la in enumerate(nc):
        for lb in nc[i:]:
            r = product_report(F, la, lb)
            n_classes, n_traces = r.num_classes, len(r.traces)
            assert n_traces <= n_classes <= n_traces + slack_cap


def test_slack_four_is_attained_at_q5():
    F = make_field(5, 1)
    la = classify(F, mat(F, 2, 0, 0, 3))
    r = product_report(F, la, la)
    assert r.num_classes - len(r.traces) == 4


@pytest.mark.parametrize("q", [4, 8, 16])
def test_even_noncentral_products_never_single_class(q):
    F = oracles.field_for(q)
    table = class_table(F)
    nc = table.noncentral_labels()
    for i, la in enumerate(nc):
        for lb in nc[i:]:
            assert len(class_product_labels(F, table.rep(la), table.rep(lb))) > 1


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_product_is_class_invariant(q):
    F = oracles.field_for(q)
    table = class_table(F)
    elems = list(enumerate_sl2(F))
    mul, add, neg = F._mul, F._add, F._neg
    rng = random.Random(q)
    nc = table.noncentral_labels()
    for i, la in enumerate(nc):
        for lb in nc[i:]:
            expected = class_product_labels(F, table.rep(la), table.rep(lb))
            A, B = (Mat2(*_conj4(mul, add, neg, rng.choice(elems)[:4], table.rep(l)[:4]), q)
                    for l in (la, lb))
            assert class_product_labels(F, A, B) == expected


def test_report_traces_match_member_traces():
    for q in (5, 8):
        F = oracles.field_for(q)
        table = class_table(F)
        nc = table.noncentral_labels()
        for i, la in enumerate(nc):
            for lb in nc[i:]:
                r = product_report(F, la, lb)
                orbit = oracles.bfs_orbit(F, table.rep(la))
                assert set(r.traces) == oracles.fixed_factor_product(F, orbit, table.rep(lb))[1]
                assert set(r.traces) == {table.entry(l).trace for l in r.labels}


def test_report_json_round_trip():
    F = make_field(3, 2)
    table = class_table(F)
    nc = table.noncentral_labels()
    r = product_report(F, nc[0], nc[-1])
    d = json.loads(json.dumps(r.to_json()))
    assert (d["q"], d["p"], d["m"], tuple(d["modulus"])) == (r.q, r.p, r.m, r.modulus)
    assert (ClassLabel.parse(d["a"]), ClassLabel.parse(d["b"])) == (r.label_a, r.label_b)
    assert tuple(ClassLabel.parse(s) for s in d["labels"]) == r.labels
    assert (d["eta"], tuple(d["traces"])) == (r.num_classes, r.traces)
    assert d["elapsed_ms"] == r.elapsed_ms
    row = r.csv_row()
    assert row.startswith(f"9,3,2,{nc[0]},{nc[-1]},{r.num_classes},")


def test_unknown_label_rejected():
    F = make_field(5, 1)
    with pytest.raises(ValueError, match="no conjugacy class"):
        product_report(F, ClassLabel("W", 0), ClassLabel("U", 1, True))


def test_readme_library_example():
    # the Python block under README's "## Library" runs and prints what its
    # comments say, and every name it calls public is there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == ["6", "6 U(1,+) U(1,-)"]
    assert [name for name in sl2q.__all__ if not hasattr(sl2q, name)] == []
