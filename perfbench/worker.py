"""One repetition of a benchmark workload, in a fresh interpreter.

Started by run.py, one process at a time.  A fresh interpreter means the
field cache and the per-field orbit cache start empty, as they do for every
command-line call, and the process's peak RSS belongs to this repetition.

Modes:
  setup  import sl2q and generate the inputs, then stop (a set-up probe);
  run    the workload with tracing off: per-operation latency only.  For
         verify_suite this is the ``sl2q verify`` command line itself, run
         in this interpreter as ``python -m sl2q`` would run it;
  trace  the workload replayed through the public calls with a span around
         each call into a layer (field, classes, products, checks).

Every time is measured with ``speed.Meter`` running and reported both raw
and scaled to the reference host speed (see speed.py).  The result is
written as JSON to --out.  ``setup_s`` runs from --t0, a CLOCK_MONOTONIC
reading the parent took just before starting this process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import runpy
import sys
import time
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Tracer:
    """Spans kept in memory: name, parent span id, start, end, attributes."""

    def __init__(self):
        self.spans: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        rec = {"id": len(self.spans), "name": name, "parent": parent, **attrs}
        self.spans.append(rec)
        rec["start"] = time.monotonic()
        try:
            yield rec["id"]
        finally:
            rec["end"] = time.monotonic()


def span(tracer: Tracer | None, name: str, parent: int | None = None, **attrs):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, parent, **attrs)


class Fields:
    """A field and its class table per q, built on first use."""

    def __init__(self, sl2q, tracer: Tracer | None):
        self.sl2q = sl2q
        self.tracer = tracer
        self.built: dict[int, tuple] = {}

    def get(self, q: int, parent: int | None = None) -> tuple:
        got = self.built.get(q)
        if got is None:
            p, m = workloads.prime_power(q)
            with span(self.tracer, "field.build", parent, q=q, m=m):
                F = self.sl2q.make_field(p, m)
            with span(self.tracer, "classes.class_table", parent, q=q):
                table = self.sl2q.class_table(F)
            by_kind: dict[str, list] = {}
            for label in table.noncentral_labels():
                by_kind.setdefault(label.kind, []).append(label)
            got = self.built[q] = (F, table, by_kind)
        return got


def _op(q, fn, **extra) -> dict:
    """Time one operation; an exception is recorded, not raised.  The
    interval is turned into milliseconds by ``_scale`` after the run."""
    start = time.monotonic()
    try:
        result = fn()
    except Exception as e:  # a failed operation is counted, not fatal
        result = {"error": repr(e)}
    return {"q": q, **extra, "start": start, "end": time.monotonic(), "result": result}


def _scale(meter: speed.Meter, rec: dict) -> None:
    """Add the raw and scaled milliseconds of the interval [start, end]."""
    rec["raw_ms"] = meter.busy(rec["start"], rec["end"]) * 1000.0
    rec["ms"] = meter.scaled(rec["start"], rec["end"]) * 1000.0


def min_sweep(sl2q, inputs: dict, tracer: Tracer | None) -> list[dict]:
    fields = Fields(sl2q, tracer)

    def untraced(q):
        F, _, _ = fields.get(q)
        return sl2q.min_product_classes(F)[0]

    def traced(q):
        # min_product_classes pair by pair, so each pair gets a span
        F, table, _ = fields.get(q)
        labels = table.noncentral_labels()
        best = None
        for i, la in enumerate(labels):
            ra = table.rep(la)
            for j, lb in enumerate(labels[i:]):
                with tracer.span("products.pair", q=q, kinds=la.kind + lb.kind,
                                 first=j == 0, members=table.size(la)):
                    n = len(sl2q.class_product_labels(F, ra, table.rep(lb)))
                best = n if best is None else min(best, n)
        return best

    fn = untraced if tracer is None else traced
    return [_op(q, lambda q=q: fn(q)) for q in inputs["qs"]]


_KIND_ORDER = "DUW"


def eta_stream(sl2q, inputs: dict, tracer: Tracer | None) -> list[dict]:
    fields = Fields(sl2q, tracer)
    ops = []
    firsts = workloads.first_uses(inputs["queries"])
    for i, ((q, (ka, ia), (kb, ib)), first) in enumerate(zip(inputs["queries"], firsts)):
        def query():
            with span(tracer, "query", None, index=i) as qid:
                F, table, by_kind = fields.get(q, qid)
                la, lb = by_kind[ka][ia], by_kind[kb][ib]
                kinds = "".join(sorted(ka + kb, key=_KIND_ORDER.index))
                with span(tracer, "products.pair", qid, q=q, kinds=kinds,
                          first=first, members=table.size(la)):
                    report = sl2q.product_report(F, la, lb)
            return [str(la), str(lb), [str(l) for l in report.labels]]

        ops.append(_op(q, query))
    return ops


def eta_symmetry(sl2q, inputs: dict) -> list:
    """Labels of b x a for each query a x b; runs after the timed region."""
    fields = Fields(sl2q, None)
    out = []
    for q, (ka, ia), (kb, ib) in inputs["queries"]:
        try:
            F, _, by_kind = fields.get(q)
            report = sl2q.product_report(F, by_kind[kb][ib], by_kind[ka][ia])
            out.append([str(l) for l in report.labels])
        except Exception as e:  # counted as a mismatch by the caller
            out.append({"error": repr(e)})
    return out


def verify_cli(inputs: dict, report_dir: Path) -> tuple[list[dict], int]:
    """``sl2q verify --qmax N --no-cache`` as ``python -m sl2q`` runs it.

    The command's own call to run_checks is wrapped to note when each
    (q, check) starts and ends, so each can be scaled by the host speed of
    its own stretch; the command is otherwise untouched.
    """
    import sl2q.cli as cli

    ops = []
    real = cli.run_checks

    def timed_run_checks(F, names=None, *, seed=0):
        start = time.monotonic()
        try:
            return real(F, names, seed=seed)
        finally:
            ops.append({"q": F.q, "check": names[0], "start": start, "end": time.monotonic()})

    argv = sys.argv
    sys.argv = ["sl2q", "verify", "--qmax", str(inputs["qmax"]), "--no-cache",
                "--seed", str(inputs["cli_seed"]), "--out", str(report_dir)]
    cli.run_checks = timed_run_checks
    try:
        runpy.run_module("sl2q", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        cli.run_checks = real
        sys.argv = argv
    return ops, code


def verify_suite(sl2q, inputs: dict, tracer: Tracer) -> list[dict]:
    # the untraced verify_suite is the command line itself: verify_cli
    from sl2q.checks import applicable_checks, run_checks

    fields = Fields(sl2q, tracer)
    ops = []
    for q in inputs["qs"]:
        for name in applicable_checks(q):
            def check(q=q, name=name):
                F, _, _ = fields.get(q)
                with tracer.span("checks.run", q=q, check=name):
                    res = run_checks(F, [name], seed=inputs["cli_seed"])[0]
                return [res.passed, res.details.get("min_classes")]
            ops.append(_op(q, check, check=name))
    return ops


def field_tables(sl2q, inputs: dict, tracer: Tracer | None) -> list[dict]:
    fields = Fields(sl2q, tracer)

    def build(q):
        _, table, _ = fields.get(q)
        return [len(table), sum(e.size for e in table.entries)]

    return [_op(q, lambda q=q: build(q)) for q in inputs["qs"]]


RUNNERS = {
    "min_sweep": min_sweep,
    "verify_suite": verify_suite,
    "eta_stream": eta_stream,
    "field_tables": field_tables,
}


def _run(meter: speed.Meter) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--symmetry", action="store_true",
                    help="eta_stream: also compute b x a for every query, untimed")
    ap.add_argument("--report-dir", type=Path, help="verify_suite run: the command's --out")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import sl2q
    if args.workload == "verify_suite":
        import sl2q.cli  # noqa: F401  (what the command line loads)
    if not Path(sl2q.__file__).resolve().is_relative_to(SRC):
        print(f"sl2q imported from {sl2q.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed, args.smoke)
    t_setup = time.monotonic()
    out: dict = {}

    if args.mode != "setup":
        tracer = Tracer() if args.mode == "trace" else None
        t_run = time.monotonic()
        if args.mode == "run" and args.workload == "verify_suite":
            ops, out["exit_code"] = verify_cli(inputs, args.report_dir)
        else:
            ops = RUNNERS[args.workload](sl2q, inputs, tracer)
        t_end = time.monotonic()
    meter.stop()

    # the interpreter started before the meter: its start-up is scaled by
    # the speed measured during the rest of the set-up
    busy = t_setup - args.t0 - meter.spent(args.t0, t_setup)
    out["raw_setup_s"] = busy
    out["setup_s"] = busy * meter.factor(args.t0, t_setup)
    if args.mode != "setup":
        for op in ops:
            _scale(meter, op)
        raw_ops = sum(op["raw_ms"] for op in ops) / 1000.0
        out["raw_wall_s"] = meter.busy(t_run, t_end)
        # time outside the operations, scaled by the whole run's speed
        out["wall_s"] = (sum(op["ms"] for op in ops) / 1000.0
                         + (out["raw_wall_s"] - raw_ops) * meter.factor(t_run, t_end))
        out["speed_factor"] = meter.factor(t_run, t_end)
        out["ops"] = ops
        if tracer is not None:
            for s in tracer.spans:
                _scale(meter, s)
            out["spans"] = tracer.spans
        if args.symmetry:
            out["symmetry"] = eta_symmetry(sl2q, inputs)

    args.out.write_text(json.dumps(out))
    return 0


def main() -> int:
    meter = speed.Meter().start()
    try:
        return _run(meter)
    finally:
        meter.stop()  # on every way out: a pending alarm would kill the process


if __name__ == "__main__":
    raise SystemExit(main())
