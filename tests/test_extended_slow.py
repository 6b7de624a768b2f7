"""Extended sweeps past the default ranges (deselected by default; run with
`pytest -m slow`)."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import oracles
from sl2q.checks import check_min_class_bounds, run_checks
from sl2q.cli import main
from sl2q.field import Field, prime_power, prime_powers_up_to
from sl2q.products import min_product_classes

pytestmark = pytest.mark.slow


def expected_minimum(q: int) -> int:
    return q - 1 if q % 2 == 0 else (2 if q == 3 else (q + 3) // 2)


def test_full_suite_to_49():
    # the one expected failure is the q=5 square/non-square value-set claim
    failures = []
    for q in prime_powers_up_to(49):
        for r in run_checks(oracles.field_for(q)):
            if not r.passed:
                failures.append((q, r.check))
    assert failures == [(5, "value_set_counts")]


def test_verify_to_32_report_unchanged():
    # the checks' samples, comparisons and verdicts to q = 32 are pinned by
    # the checksums of the report (time-derived keys excluded) and the CSV
    runner = CliRunner()
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["verify", "--qmax", "32", "--no-cache", "--out", "v"])
        assert res.exit_code == 1, res.output
        report = json.loads(Path("v/report.json").read_text())
        assert [(r["q"], r["check"]) for r in report["results"] if not r["passed"]] == [
            (5, "value_set_counts")]
        assert json.loads(Path("v/manifest.json").read_text())["checksums"] == {
            "report.json": "0ae72a9001f522d22af2a005a18ea5eded6235913b2e8e325e41627c042bb0ab",
            "min_classes.csv": "9248f5a2674414ece07420a45c1ffbbeef53f76904e96fd1ee52979b34a7dda3",
        }


def test_minimum_bounds_to_64():
    for q in prime_powers_up_to(64):
        r = check_min_class_bounds(oracles.field_for(q))
        assert r.passed, (q, r.counterexample)
        assert r.details["min_classes"] == expected_minimum(q)


@pytest.mark.parametrize("q", [1019, 1024])
def test_minimum_at_largest_fields(q):
    # only pairs with a U factor can attain the minimum: at most 10 U x U
    # pairs, each by its O(q) kernel, and 4 U x W pairs in O(1), so even the
    # largest fields take a few milliseconds
    value, (la, lb) = min_product_classes(oracles.field_for(q))
    assert value == expected_minimum(q)
    assert "U" in (la.kind, lb.kind)


@pytest.mark.parametrize("q", [343, 512, 625, 729, 961, 1024, 521, 701, 853, 1019])
def test_tables_match_naive_oracle_large(q):
    p, m = prime_power(q)
    F = Field(p, m)
    for name, table in oracles.naive_field_tables(p, m).items():
        assert getattr(F, name) == table, (q, name)
