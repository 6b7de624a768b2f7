#!/usr/bin/env python3
"""Write the eta_stream golden labels for the default seed.

    python3 perfbench/make_golden.py

Run it only when the queries of eta_stream change on purpose; the file pins
the class sets the program gave when the benchmark was defined.
"""

import json
import sys

import run
import worker
import workloads

sys.path.insert(0, str(worker.SRC))
import sl2q  # noqa: E402

inputs = workloads.make_inputs("eta_stream", run.DEFAULT_SEED)
ops = worker.eta_stream(sl2q, inputs, None)
golden = {
    "workload": "eta_stream",
    "seed": run.DEFAULT_SEED,
    "queries": [[op["q"], *op["result"]] for op in ops],
}
run.GOLDEN.mkdir(exist_ok=True)
path = run.GOLDEN / f"eta_stream-seed{run.DEFAULT_SEED}.json"
path.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
print(f"wrote {len(ops)} queries to {path}")
