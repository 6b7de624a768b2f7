"""Extended sweeps past the default ranges (deselected by default; run with
`pytest -m slow`)."""

import hashlib
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

# SHA-256 of each check's to_json() without elapsed_ms, keyed "q:seed": every
# q <= 64 at seeds 0 and 1, and q = 127 and 128 at seed 0
CHECK_DIGESTS = json.loads((Path(__file__).parent / "check_digests.json").read_text())


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


# the same digests at seed 0 at large q: the value-set checks' taken from
# the brute-force enumerations that checks._form_values replaced,
# odd_char_bounds' from its W x W scans and split_trace_coverage's from its
# q traces per pair, before the closed-form witnesses and the two-member
# lines; both char_bounds checks' at the largest fields, and split's there,
# from their q traces per W x W pair and their inline affine line, before
# the one family reader and the three-member quadratics
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
}


def result_digest(r) -> str:
    # SHA-256 of the result's to_json() without elapsed_ms
    d = r.to_json()
    d.pop("elapsed_ms")
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("key", CHECK_DIGESTS)
def test_check_results_unchanged(key):
    # samples, comparison counts, details and verdicts of every check, so a
    # faster kernel must reproduce every result to the byte
    q, seed = map(int, key.split(":"))
    got = {r.check: result_digest(r) for r in run_checks(oracles.field_for(q), seed=seed)}
    assert got == CHECK_DIGESTS[key]


@pytest.mark.parametrize("q,check", LARGE_Q_DIGESTS)
def test_large_q_check_results_unchanged(q, check):
    [r] = run_checks(oracles.field_for(q), [check])
    assert result_digest(r) == LARGE_Q_DIGESTS[q, check]


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
