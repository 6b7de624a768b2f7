#!/usr/bin/env python3
"""Benchmark for sl2q: four workloads, answers checked, metrics by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

With --trace 0 the run repeats the workload, each repetition in a fresh
interpreter, while --seconds allows another, and reports the end-to-end
metrics as medians over repetitions.  With --trace 1 it makes one untimed
repetition and one traced replay, and reports the per-layer metrics and the
tracing overhead.  --smoke runs tiny inputs (all four workloads unless one
is named) in seconds.  See perfbench/README.md for the workloads and metrics.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A fuller record (inputs, every repetition, machine, spans) goes to
perfbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"
DEFAULT_SEED = 0
PROBES_PER_REP = 3
CHILD_TIMEOUT_S = 150
KINDS = ("DD", "DU", "DW", "UU", "UW", "WW")


class BenchError(Exception):
    """The run could not be measured; no result line is printed."""


# -- child processes ----------------------------------------------------------

def _spawn(argv: list[str], work: Path, tag: str) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS MB).

    os.wait4 gives this child's own rusage, so each repetition's peak RSS is
    its own.  Output goes to files, so a chatty child cannot block on a pipe.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(work / f"{tag}.stdout", "wb") as out, open(work / f"{tag}.stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _worker(workload: str, seed: int, mode: str, smoke: bool, work: Path, tag: str,
            symmetry: bool = False) -> dict:
    out = work / f"{tag}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--out", str(out)]
    if smoke:
        argv.append("--smoke")
    if symmetry:
        argv.append("--symmetry")
    report_dir = work / f"{tag}-report"
    if workload == "verify_suite" and mode == "run":
        argv += ["--report-dir", str(report_dir)]
    argv += ["--t0", repr(time.monotonic())]
    code, wall, rss = _spawn(argv, work, tag)
    if code != 0 or not out.exists():
        err = (work / f"{tag}.stderr").read_text(errors="replace")[-2000:]
        raise BenchError(f"worker {workload}/{mode} exited with {code}:\n{err}")
    rec = json.loads(out.read_text())
    rec["process_wall_s"] = wall
    rec["rss_mb"] = rss
    if "exit_code" in rec:
        _read_report(rec, report_dir)
    return rec


def _read_report(rec: dict, report_dir: Path) -> None:
    """verify_suite: attach the command's verdicts and minima to its ops."""
    try:
        report = json.loads((report_dir / "report.json").read_text())
        mins = {}
        for row in (report_dir / "min_classes.csv").read_text().splitlines()[1:]:
            q, value = row.split(",")
            mins[int(q)] = int(value)
        passed = {(r["q"], r["check"]): r["passed"] for r in report["results"]}
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"verify exited with {rec['exit_code']} and left no readable "
                         f"report: {e}") from None
    for op in rec["ops"]:
        key = (op["q"], op["check"])
        op["result"] = [passed[key], mins.get(op["q"])] if key in passed else None


# -- checking answers (outside every timed region) ----------------------------

def _load_golden(workload: str, seed: int, smoke: bool):
    path = GOLDEN / f"{workload}-seed{seed}.json"
    if smoke or not path.exists():
        return None
    return json.loads(path.read_text())


def check_ops(workload: str, inputs: dict, rec: dict, golden, first_labels) -> list[bool]:
    """One verdict per attempted operation of a repetition."""
    ops = rec["ops"]
    if workload == "min_sweep":
        return [op["result"] == wl.expected_min(op["q"]) for op in ops]
    if workload == "field_tables":
        return [op["result"] == [wl.class_count(op["q"]), wl.group_order(op["q"])] for op in ops]
    if workload == "verify_suite":
        expected = {(q, c) for q in inputs["qs"] for c in wl.expected_checks(q)}
        reds = {k for k in wl.KNOWN_RED if k in expected}
        exit_ok = rec.get("exit_code", 1 if reds else 0) == (1 if reds else 0)
        got = {}
        for op in ops:
            passed, min_value = op["result"] if isinstance(op["result"], list) else (None, None)
            key = (op["q"], op["check"])
            ok = exit_ok and key in expected and passed == (key not in reds)
            if op["check"] == "min_class_bounds":
                ok = ok and min_value == wl.expected_min(op["q"])
            got[key] = ok
        # a (q, check) the suite never reported counts as failed too
        return [got.get(k, False) for k in sorted(expected)]
    # eta_stream: golden labels for the default seed, b x a == a x b for any
    verdicts = []
    sym = rec.get("symmetry")
    for i, op in enumerate(ops):
        res = op["result"]
        ok = isinstance(res, list)
        if ok and golden is not None:
            ok = i < len(golden["queries"]) and golden["queries"][i] == [op["q"], *res]
        if ok and sym is not None:
            ok = sym[i] == res[2]
        if ok and first_labels is not None:
            ok = first_labels[i] == res[2]
        verdicts.append(ok)
    return verdicts


# -- metrics ------------------------------------------------------------------

def smoothed_rank(values: list[float], pct: float, half: float) -> float:
    """The nearest-rank percentile, smoothed as the mean of the operations
    ranked within ``half`` of the count on either side of it.

    Operation latencies come in clusters (cheap and costly checks, char-2
    and odd fields, cached and cold orbits).  A bare percentile that sits
    inside or between clusters jumps with small timing changes of single
    operations; the mean over its neighbours does not.  With 10 fields and
    half = 0.1 the p50 averages the 4th to 6th; with fewer than 1 / half
    operations it is the bare nearest rank.
    """
    s = sorted(values)
    k = max(0, math.ceil(pct * len(s)) - 1)
    h = math.floor(half * len(s))
    return statistics.fmean(s[max(0, k - h):k + h + 1])


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    """Medians over repetitions.  Every repetition runs the same operations
    in the same order, so each operation's latency is its median over the
    repetitions; on a shared host that resists slow spells far better than
    the median of whole repetitions, which are few and seconds long."""
    med = statistics.median
    op_ms = [med(o["ms"] for o in ops) for ops in zip(*(r["ops"] for r in reps))]
    # time outside the operations: imports and report I/O of the command line
    rest_s = med(r["wall_s"] - sum(o["ms"] for o in r["ops"]) / 1000.0 for r in reps)
    wall = sum(op_ms) / 1000.0 + rest_s
    return {
        "wall_s": (wall, "s"),
        "setup_s": (med(setups), "s"),
        "peak_rss_mb": (med(r["rss_mb"] for r in reps), "MB"),
        "query_p50_ms": (smoothed_rank(op_ms, 0.5, 0.1), "ms"),
        "query_p90_ms": (smoothed_rank(op_ms, 0.9, 0.02), "ms"),
        "queries_per_s": (len(op_ms) / wall, "1/s"),
    }


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(traced: dict, plain: dict) -> dict:
    """Per-layer metrics from the spans of a traced replay.  A layer the
    workload does not call from outside reads 0."""
    spans = traced.get("spans", [])
    dur = {}
    for s in spans:
        dur.setdefault(s["name"], []).append(s)

    def ms(s):
        return s["ms"]

    builds = dur.get("field.build", [])
    pairs = dur.get("products.pair", [])
    cold = [s for s in pairs if s["first"]]
    warm = [s for s in pairs if not s["first"]]
    checks = dur.get("checks.run", [])
    m = {
        "field.build_s": (sum(ms(s) for s in builds) / 1000.0, "s"),
        "field.build_ms.prime": (_mean([ms(s) for s in builds if s["m"] == 1]), "ms"),
        "field.build_ms.ext": (_mean([ms(s) for s in builds if s["m"] > 1]), "ms"),
        "classes.class_table_ms": (_mean([ms(s) for s in dur.get("classes.class_table", [])]), "ms"),
        "products.orbit_pair_ms": (_mean([ms(s) for s in cold]), "ms"),
    }
    for k in KINDS:
        m[f"products.scan_pair_ms.{k}"] = (_mean([ms(s) for s in warm if s["kinds"] == k]), "ms")
    warm_members = sum(s["members"] for s in warm)
    m["products.scan_ns_per_member"] = (
        sum(ms(s) for s in warm) * 1e6 / warm_members if warm_members else 0.0, "ns")
    # computed from class sizes: each pair scans the first operand's whole
    # class, and each distinct first operand keeps its orbit cached
    m["products.pairs"] = (len(pairs), "count")
    m["products.members_scanned"] = (sum(s["members"] for s in pairs), "count")
    m["products.orbit_cache_tuples"] = (sum(s["members"] for s in cold), "count")
    for name in wl.CHECKS:
        m[f"checks.{name}_s"] = (sum(ms(s) for s in checks if s["check"] == name) / 1000.0, "s")
    if "exit_code" in plain:  # verify_suite: the command line ran untraced
        plain_checks_s = sum(o["ms"] for o in plain["ops"]) / 1000.0
        m["cli.verify_overhead_s"] = (plain["wall_s"] - plain_checks_s, "s")
        # the replay has no argument parsing or report I/O, so it is set
        # against the command's check time alone
        m["trace.overhead_s"] = (traced["wall_s"] - plain_checks_s, "s")
    else:
        m["cli.verify_overhead_s"] = (0.0, "s")
        m["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return m


# -- one benchmark run ----------------------------------------------------------

def _machine(inputs_by_workload: dict, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "q_lists": {w: inp["qs"] for w, inp in inputs_by_workload.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    inputs = wl.make_inputs(workload, seed, smoke)
    golden = _load_golden(workload, seed, smoke)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        start = time.monotonic()
        setups: list[float] = []

        def rep(i: int, mode: str) -> dict:
            if mode == "run":
                # probes spread over the run see the same host load as the reps
                setups.extend(_worker(workload, seed, "setup", smoke, work, f"setup{i}.{k}")["setup_s"]
                              for k in range(PROBES_PER_REP))
            return _worker(workload, seed, mode, smoke, work, f"{mode}{i}",
                           symmetry=workload == "eta_stream" and i == 0)

        reps = [rep(0, "run")]
        if trace:
            traced = rep(1, "trace")
        else:
            while time.monotonic() - start + max(r["process_wall_s"] for r in reps) <= seconds:
                reps.append(rep(len(reps), "run"))
            traced = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups += [r["setup_s"] for r in reps if "setup_s" in r]
    first_labels = None
    if workload == "eta_stream":
        v0 = check_ops(workload, inputs, reps[0], golden, None)
        first_labels = [op["result"][2] if ok else None for op, ok in zip(reps[0]["ops"], v0)]
    verdicts = []
    for r in reps + ([traced] if traced else []):
        r["verdicts"] = check_ops(workload, inputs, r, golden, first_labels)
        verdicts += r["verdicts"]
    attempted, failed = len(verdicts), verdicts.count(False)

    e2e = end_to_end(reps, setups)
    layers = per_layer(traced, reps[0]) if traced else None
    chosen = layers if trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    record = {
        "workload": workload,
        "trace": int(trace),
        "smoke": smoke,
        "seconds": seconds,
        "machine": _machine({w: wl.make_inputs(w, seed, smoke) for w in wl.WORKLOADS}, seed),
        "inputs": inputs,
        "golden_checked": golden is not None,
        "failed_frac": failed / attempted,
        "query_samples": [len(r["ops"]) for r in reps],
        "repetitions": len(reps),
        "setup_samples_s": setups,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()} if layers else None,
        "spans": traced["spans"] if traced else None,
        "reps": [{k: r[k] for k in ("wall_s", "raw_wall_s", "speed_factor", "process_wall_s",
                                    "rss_mb", "setup_s", "raw_setup_s", "exit_code") if k in r}
                 | {"op_ms": [o["ms"] for o in r["ops"]], "raw_op_ms": [o["raw_ms"] for o in r["ops"]],
                    "failed": r["verdicts"].count(False)}
                 for r in reps],
        "result": result,
    }
    if workload == "eta_stream":
        uses = wl.first_uses(inputs["queries"])
        record["reuse_share"] = uses.count(False) / len(uses)
    name = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, seconds end to end")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sl2q" / "__init__.py").is_file():
        print(f"error: no sl2q sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        ap.error("--workload is required without --smoke")
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    try:
        seconds = 0.0 if args.smoke else args.seconds  # smoke: one repetition
        results = {w: run(w, args.seed, seconds, bool(args.trace), args.smoke) for w in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for w, r in results.items():
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
              file=sys.stderr)
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
