"""Seeded inputs and reference answers for the benchmark's workloads.

Standard library only: the benchmark's parent process (run.py) imports
this module without importing sl2q, so reference answers never come from
the code under test.  The same (workload, seed, smoke) always gives the same inputs.

Seeds draw comparable loads.  Field sets are fixed except for the primes of
``field_tables``, which are drawn from narrow runs of consecutive primes;
``eta_stream`` fixes how many operands of each class kind a field uses and
how often each is reused, and draws which classes and in what order.
"""

from __future__ import annotations

import random

WORKLOADS = ("min_sweep", "verify_suite", "eta_stream", "field_tables")

# min_sweep: both parities, a prime square and powers of 2
MIN_SWEEP_QS = {False: (32, 49, 64), True: (4, 5, 8, 9)}

# verify_suite: the command line's full suite, and its one deliberate red
VERIFY_QMAX = {False: 32, True: 7}
KNOWN_RED = frozenset({(5, "value_set_counts")})
CHECKS = ("conjugation_formulas", "trace_formulas", "value_set_counts", "split_trace_coverage",
          "even_char_bounds", "odd_char_bounds", "min_class_bounds")

# eta_stream: a prime square, a prime cube, a power of 2, an odd prime square
ETA_QS = {False: (121, 125, 128, 169), True: (9, 16, 25, 27)}
# operands per field by kind; every field has at least one U class
ETA_POOL = (("D", 3), ("U", 1), ("W", 4))
# each operand is the first operand of this many queries: the first of them
# builds its orbit, the rest reuse it, so the reuse share is 1 - 1/USES
ETA_USES = 4

# field_tables: fixed extension fields plus primes drawn from four narrow
# runs of consecutive primes, so every seed builds a comparable load
FIELD_EXT_QS = {False: (343, 512, 625, 729, 961, 1024), True: (8, 9, 25, 27)}
FIELD_PRIME_RANGE = {False: (500, 1024), True: (11, 199)}
FIELD_PRIME_RUNS = 32
FIELD_PRIME_DRAWN_RUNS = (4, 12, 20, 28)


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with p**m == q; raises ValueError for other integers."""
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    m, rest = 0, q
    while p is not None and rest % p == 0:
        rest //= p
        m += 1
    if p is None or rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def prime_powers_up_to(n: int) -> list[int]:
    out = []
    for q in range(2, n + 1):
        try:
            prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


def class_kind_counts(q: int) -> dict[str, int]:
    """Number of noncentral classes of each kind in SL(2, q)."""
    if q % 2 == 0:
        return {"D": (q - 2) // 2, "U": 1, "W": q // 2}
    return {"D": (q - 3) // 2, "U": 4, "W": (q - 1) // 2}


def class_count(q: int) -> int:
    """Number of conjugacy classes of SL(2, q): q + 1 for even q, q + 4 for odd q."""
    return q + 1 if q % 2 == 0 else q + 4


def group_order(q: int) -> int:
    return q * (q * q - 1)


def expected_min(q: int) -> int:
    """Closed-form minimum class count over noncentral class pairs."""
    if q % 2 == 0:
        return q - 1
    return 2 if q == 3 else (q + 3) // 2


def expected_checks(q: int) -> list[str]:
    """The checks the verification suite must report for GF(q)."""
    names = list(CHECKS[:4])
    if q % 2 == 0:
        names.append("even_char_bounds")
    elif q > 3:
        names.append("odd_char_bounds")
    return names + ["min_class_bounds"]


def _drawn_primes(rng: random.Random, smoke: bool) -> list[int]:
    lo, hi = FIELD_PRIME_RANGE[smoke]
    primes = [p for p in range(lo, hi + 1) if is_prime(p)]
    n = len(primes)
    runs = [primes[i * n // FIELD_PRIME_RUNS:(i + 1) * n // FIELD_PRIME_RUNS]
            for i in range(FIELD_PRIME_RUNS)]
    return [rng.choice(runs[i]) for i in FIELD_PRIME_DRAWN_RUNS]


def _eta_queries(rng: random.Random, smoke: bool) -> list[list]:
    """[q, [kind_a, i_a], [kind_b, i_b]] per query: operands are the i-th
    noncentral class of that kind in class-table order."""
    queries = []
    for q in ETA_QS[smoke]:
        counts = class_kind_counts(q)
        pool = [[kind, i] for kind, k in ETA_POOL for i in sorted(rng.sample(range(counts[kind]), k))]
        for a in pool:
            for _ in range(ETA_USES):
                queries.append([q, a, rng.choice(pool)])
    rng.shuffle(queries)
    return queries


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """The inputs of one workload for one seed, as plain JSON data."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "min_sweep":
        qs = list(MIN_SWEEP_QS[smoke])
        rng.shuffle(qs)
        return {"qs": qs}
    if workload == "verify_suite":
        qmax = VERIFY_QMAX[smoke]
        return {"qmax": qmax, "cli_seed": seed, "qs": prime_powers_up_to(qmax)}
    if workload == "eta_stream":
        return {"qs": list(ETA_QS[smoke]), "queries": _eta_queries(rng, smoke)}
    if workload == "field_tables":
        qs = list(FIELD_EXT_QS[smoke]) + _drawn_primes(rng, smoke)
        rng.shuffle(qs)
        return {"qs": qs}
    raise ValueError(f"unknown workload {workload!r}")


def first_uses(queries: list[list]) -> list[bool]:
    """True for each query whose first operand is new in its field."""
    seen = set()
    out = []
    for q, a, _ in queries:
        key = (q, tuple(a))
        out.append(key not in seen)
        seen.add(key)
    return out
