"""Command-line front end: class tables, product reports, minimum sweeps,
and the full verification suite with a per-(q, check) JSON result cache."""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import hashlib
import itertools
import json
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

import click

from . import __version__
from .checks import ALL_CHECKS, CheckResult, applicable_checks, run_checks
from .classes import ClassLabel, class_table, classify
from .field import (MAX_FIELD_SIZE, Field, field_for, find_modulus, make_field, prime_power,
                    prime_powers_up_to)
from .matrices import det, from_literal
from .products import CSV_HEADER, ProductReport, csv_line, min_product_classes, product_report

# time-derived values are excluded from report checksums so that cached and
# fresh runs compare byte-identical
VOLATILE_KEYS = {"timestamp", "elapsed_ms"}


def _field(q: int) -> Field:
    try:
        return field_for(q)
    except ValueError as e:
        raise click.UsageError(str(e)) from None


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def canonical_checksum(payload) -> str:
    blob = json.dumps(_strip_volatile(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _check_dir(path: Path) -> None:
    # checked before any work, so a bad path fails at once, not after the last
    # check; made only when written, so a stopped run leaves no empty directory
    p = next(p for p in [path, *path.parents] if p.exists())
    if not p.is_dir() or not os.access(p, os.W_OK | os.X_OK):
        raise click.UsageError(f"cannot write to directory {path}: {p} is not a writable directory")


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    # the chunks are written as they come, so a caller can make them one by one
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- result cache -----------------------------------------------------------

@functools.cache
def _source_hash() -> str:
    """SHA-256 over the package's ``*.py`` sources, sorted by name: a cached
    verdict is reused only by the code that produced it."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cache_key(p: int, m: int, check: str, seed: int) -> dict:
    return {"version": __version__, "source": _source_hash(), "p": p, "m": m,
            "check": check, "seed": seed}


def _cache_path(cache_dir: Path, q: int, check: str, seed: int) -> Path:
    return cache_dir / f"q{q:04d}_{check}_seed{seed}.json"


def _cache_load(path: Path, key: dict) -> CheckResult | None:
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, found {type(data).__name__}")
        if data.get("key") != key:
            return None
        return CheckResult.from_json(data["result"])
    except (ValueError, KeyError, TypeError) as e:  # ValueError covers bad JSON and bad UTF-8
        click.echo(f"warning: discarding corrupt cache entry {path}: {e}", err=True)
        return None


def _cache_store(path: Path, key: dict, result: CheckResult) -> None:
    _atomic_write(path, [json.dumps({"key": key, "result": result.to_json()}, indent=1, sort_keys=True)])


def _check_job(args: tuple) -> CheckResult:
    # one (q, check) item, in process or in a pool worker, and the only place
    # verify builds a field; run_checks is looked up here at call time, so a
    # wrapper set on this module sees every check
    p, m, name, seed = args
    F = make_field(p, m)
    return run_checks(F, [name], seed=seed)[0]


# -- commands ----------------------------------------------------------------

@click.group()
@click.version_option(__version__)
def main():
    """Exact conjugacy-class product computations over GF(q)."""


@main.command("table")
@click.option("--q", "q", type=int, required=True, help="Field size (prime power).")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def cmd_table(q: int, fmt: str):
    """List the conjugacy classes: label, representative, size."""
    F = _field(q)
    table = class_table(F)
    if fmt == "json":
        click.echo(json.dumps(table.to_json(F), indent=1, sort_keys=True))
        return
    if fmt == "csv":
        click.echo("label,rep,size")
        for e in table.entries:
            click.echo(csv_line(e.label, e.rep, e.size))
        return
    click.echo(f"q={q} p={F.p} m={F.m} modulus={list(F.modulus)}")
    click.echo(f"{'label':<10}{'representative':<20}size")
    total = 0
    for e in table.entries:
        click.echo(f"{str(e.label):<10}{str(e.rep):<20}{e.size}")
        total += e.size
    click.echo(f"{len(table)} classes, sizes sum to {total} = q(q^2-1)")


def _parse_operand(F: Field, text: str) -> ClassLabel:
    text = text.strip()
    try:
        if text.startswith("["):
            M = from_literal(F, text)
            if det(F, M) != 1:
                raise ValueError(f"operand {text} has determinant {det(F, M)}, not 1")
            return classify(F, M)
        label = ClassLabel.parse(text)
        class_table(F).entry(label)  # existence check
        return label
    except ValueError as e:
        raise click.UsageError(str(e)) from None


@main.command("eta")
@click.option("--q", "q", type=int, required=True)
@click.option("--a", "a_text", required=True, help="Class label or matrix literal [[a,b],[c,d]].")
@click.option("--b", "b_text", required=True, help="Class label or matrix literal.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def cmd_eta(q: int, a_text: str, b_text: str, fmt: str):
    """Class decomposition of the product of two conjugacy classes."""
    F = _field(q)
    la, lb = _parse_operand(F, a_text), _parse_operand(F, b_text)
    report = product_report(F, la, lb)
    if fmt == "json":
        click.echo(json.dumps(report.to_json(), indent=1, sort_keys=True))
    elif fmt == "csv":
        click.echo(CSV_HEADER)
        click.echo(report.csv_row())
    else:
        click.echo(f"q={q}  {la} x {lb}")
        click.echo(f"eta = {report.num_classes}")
        click.echo("classes: " + " ".join(str(l) for l in report.labels))
        click.echo("traces:  " + " ".join(str(t) for t in report.traces))


@main.command("min")
@click.option("--q", "q", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_min(q: int, fmt: str):
    """Minimum product class count over noncentral class pairs."""
    F = _field(q)
    value, (la, lb) = min_product_classes(F)
    if fmt == "json":
        click.echo(json.dumps({"q": q, "min": value, "witness": [str(la), str(lb)]}, sort_keys=True))
    else:
        click.echo(f"q={q}: minimum {value} classes, witness {la} x {lb}")


@main.command("sweep")
@click.option("--qmax", type=click.IntRange(min=2, max=MAX_FIELD_SIZE), required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write to a file instead of stdout.")
def cmd_sweep(qmax: int, fmt: str, out_path: str | None):
    """Product reports for every noncentral class pair, all q <= qmax."""
    if out_path:
        _check_dir(Path(out_path).parent)
    if fmt == "json":
        # the document's text around its reports, from json itself: each
        # report is one more level in, so two more spaces on each line
        head, tail = json.dumps({"version": __version__, "qmax": qmax, "reports": [None]},
                                indent=1, sort_keys=True).split("null")
        sep = ",\n  "

        def row(report: ProductReport) -> str:
            return json.dumps(report.to_json(), indent=1, sort_keys=True).replace("\n", "\n  ")
    else:
        head, tail, sep, row = CSV_HEADER + "\n", "", "\n", ProductReport.csv_row
    count = 0

    def chunks():
        # each report is written as it is made, so one is held at a time
        nonlocal count
        yield head
        for q in prime_powers_up_to(qmax):
            F = _field(q)
            labels = class_table(F).noncentral_labels()
            for la, lb in itertools.combinations_with_replacement(labels, 2):
                yield (sep if count else "") + row(product_report(F, la, lb))
                count += 1
        yield tail + "\n"

    if out_path:
        _atomic_write(Path(out_path), chunks())
        click.echo(f"wrote {count} reports to {out_path}")
    else:
        stdout = click.get_text_stream("stdout")
        stdout.writelines(chunks())
        stdout.flush()


@main.command("verify")
@click.option("--qmax", type=click.IntRange(min=2, max=MAX_FIELD_SIZE), required=True)
@click.option("--checks", "check_names", default=None,
              help="Comma-separated subset of checks (default: all applicable).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the sampled regimes of large-q checks.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="sl2q-verify",
              show_default=True, help="Directory for report.json, min_classes.csv, manifest.json.")
@click.option("--cache-dir", "cache_dir", type=click.Path(file_okay=False),
              envvar="SL2Q_CACHE_DIR", default=".sl2q-cache", show_default=True,
              show_envvar=True, help="Result cache directory.")
@click.option("--no-cache", is_flag=True, help="Recompute everything, ignore and skip the cache.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Parallel worker processes across (q, check) items.")
@click.pass_context
def cmd_verify(ctx, qmax: int, check_names: str | None, seed: int, out_dir: str,
               cache_dir: str, no_cache: bool, jobs: int):
    """Run the verification suite for every prime power q <= qmax.

    Exits nonzero if any executed check fails.
    """
    selected = None
    if check_names is not None:
        requested = [s.strip() for s in check_names.split(",") if s.strip()]
        unknown = [s for s in requested if s not in ALL_CHECKS]
        if unknown:
            raise click.UsageError(f"unknown checks: {', '.join(unknown)}; "
                                   f"known: {', '.join(ALL_CHECKS)}")
        # registry order, no repeats: one selection writes one command and checksum
        selected = [n for n in ALL_CHECKS if n in requested]
    cache = Path(cache_dir)

    work: list[tuple[int, int, int, str]] = []
    for q in prime_powers_up_to(qmax):
        names = applicable_checks(q)
        if selected is not None:
            names = [n for n in names if n in selected]
        work.extend((q, *prime_power(q), n) for n in names)
    if not work:
        raise click.UsageError(f"--checks {check_names!r} selects no check that applies to "
                               f"any q <= {qmax}")
    out = Path(out_dir)
    _check_dir(out)
    if not no_cache:
        _check_dir(cache)

    results: dict[tuple[int, str], CheckResult] = {}
    cached: set[tuple[int, str]] = set()
    todo: list[tuple[int, int, int, str]] = []
    for q, p, m, n in work:
        hit = None if no_cache else _cache_load(_cache_path(cache, q, n, seed), _cache_key(p, m, n, seed))
        if hit is not None:
            results[(q, n)] = hit
            cached.add((q, n))
        else:
            todo.append((q, p, m, n))

    # ProcessPoolExecutor forks all its workers up front, so never ask for
    # more than there are items or cores
    jobs = min(jobs, len(todo), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        if jobs > 1:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs)
            # a stopped run waits for the running items only
            stack.callback(pool.shutdown, cancel_futures=True)
            # largest q first, so the longest items do not end the run alone
            futures = {pool.submit(_check_job, (p, m, n, seed)): (q, p, m, n)
                       for q, p, m, n in sorted(todo, key=lambda item: -item[0])}
            arrivals = ((futures[f], f.result()) for f in concurrent.futures.as_completed(futures))
        else:
            arrivals = ((item, _check_job((*item[1:], seed))) for item in todo)
        # each result is stored as it arrives and printed in work order, so
        # a stopped run keeps what it finished and shows what it can
        for q, p, m, n in work:
            while (q, n) not in results:
                (dq, dp, dm, dn), result = next(arrivals)
                results[(dq, dn)] = result
                if not no_cache:
                    _cache_store(_cache_path(cache, dq, dn, seed), _cache_key(dp, dm, dn, seed), result)
            r = results[(q, n)]
            mark = "PASS" if r.passed else "FAIL"
            extra = "  (cached)" if (q, n) in cached else ""
            click.echo(f"q={q:<4}{n:<24}{mark}{r.elapsed_ms:10.1f} ms{extra}")

    ordered = [results[(q, n)] for q, *_, n in work]
    all_passed = all(r.passed for r in ordered)
    command = f"verify --qmax {qmax} --seed {seed}" + (
        f" --checks {','.join(selected)}" if selected else "")
    report = {
        "version": __version__,
        "command": command,
        "qmax": qmax,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "all_passed": all_passed,
        "results": [r.to_json() for r in ordered],
    }
    min_rows = ["q,min"]
    for r in ordered:
        if r.check == "min_class_bounds" and "min_classes" in r.details:
            min_rows.append(f"{r.q},{r.details['min_classes']}")
    csv_text = "\n".join(min_rows) + "\n"

    _atomic_write(out / "report.json", [json.dumps(report, indent=1, sort_keys=True) + "\n"])
    _atomic_write(out / "min_classes.csv", [csv_text])
    manifest = {
        "version": __version__,
        "command": command,
        "fields": [{"p": p, "m": m, "modulus": list(find_modulus(p, m)), "q": q}
                   for q in prime_powers_up_to(qmax) for p, m in [prime_power(q)]],
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "checksums": {
            "report.json": canonical_checksum(report),
            "min_classes.csv": hashlib.sha256(csv_text.encode()).hexdigest(),
        },
    }
    _atomic_write(out / "manifest.json", [json.dumps(manifest, indent=1, sort_keys=True) + "\n"])
    click.echo(f"report in {out}/  ({'all passed' if all_passed else 'FAILURES'})")
    if not all_passed:
        ctx.exit(1)


if __name__ == "__main__":
    main()
