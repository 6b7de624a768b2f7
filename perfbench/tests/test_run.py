"""Tests of the benchmark itself, on its tiny smoke inputs.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_runs_every_workload_correctly(trace, kind):
    proc = _bench("--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["workloads"]) == set(workloads.WORKLOADS)
    declared = _declared(kind)
    for r in result["workloads"].values():
        assert r["attempted"] >= 1
        assert {k: v["unit"] for k, v in r["metrics"].items()} == declared


@pytest.mark.parametrize("workload, reference, wrong", [
    ("min_sweep", "expected_min", lambda q: q),
    ("field_tables", "class_count", lambda q: q),
    ("verify_suite", "KNOWN_RED", frozenset()),
])
def test_wrong_reference_raises_failed_frac(monkeypatch, workload, reference, wrong):
    monkeypatch.setattr(workloads, reference, wrong)
    result = run.run(workload, 0, 0.0, False, True)
    assert not result["correct"] and result["failed"] > 0
    record = json.loads((run.OUT / f"{workload}-seed0-trace0-smoke.json").read_text())
    assert record["failed_frac"] > 0


def test_eta_stream_counts_a_wrong_golden_label(monkeypatch):
    ops_seen = []
    real_check = run.check_ops

    def golden_from_first_run(workload, inputs, rec, golden, first_labels):
        if not ops_seen:
            ops_seen.extend(rec["ops"])
        fake = {"queries": [[op["q"], *op["result"]] for op in ops_seen]}
        fake["queries"][0][3] = fake["queries"][0][3][1:]  # drop one class
        return real_check(workload, inputs, rec, fake, first_labels)

    monkeypatch.setattr(run, "check_ops", golden_from_first_run)
    result = run.run("eta_stream", 0, 0.0, False, True)
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "min_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_same_inputs_and_comparable_loads():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 3) == workloads.make_inputs(w, 3)
    for s in (1, 2):
        qs = workloads.make_inputs("field_tables", s)["qs"]
        primes = sorted(set(qs) - set(workloads.FIELD_EXT_QS[False]))
        assert len(qs) == 10 and len(primes) == 4
        assert all(workloads.is_prime(p) and 500 <= p <= 1024 for p in primes)
        queries = workloads.make_inputs("eta_stream", s)["queries"]
        assert len(queries) >= 100
        uses = workloads.first_uses(queries)
        assert uses.count(False) / len(uses) == 1 - 1 / workloads.ETA_USES



def test_meter_scales_by_mean_speed_and_drops_handler_time():
    ref = speed.REF_KERNEL_S
    meter = speed.Meter()
    # one sample every 10 ms; the host runs at full speed, then at half
    meter.starts = [i * 0.01 for i in range(100)]
    meter.durations = [ref if i < 50 else 2 * ref for i in range(100)]
    meter._spent = list(itertools.accumulate(meter.durations, initial=0.0))
    assert meter.spent(0.0, 1.0) == pytest.approx(150 * ref)
    assert meter.factor(0.2, 0.3) == pytest.approx(1.0)
    assert meter.factor(0.7, 0.8) == pytest.approx(0.5)
    # across the change the speeds are averaged, not the kernel times
    assert meter.factor(0.0, 0.99) == pytest.approx(0.75)
    assert meter.scaled(0.0, 1.0) == pytest.approx((1.0 - 150 * ref) * 0.75)
