"""CLI surface: commands, literals, formats, exit codes, and the verify
cache (reuse never changes reported numbers)."""

import concurrent.futures
import csv
import functools
import json
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

import sl2q.cli as cli
from sl2q.classes import ClassLabel
from sl2q.cli import main
from sl2q.field import Field, make_field, prime_power, prime_powers_up_to
from sl2q.products import product_report


@pytest.fixture
def runner():
    return CliRunner()


def record_field_builds(monkeypatch) -> list:
    """(p, m) of every Field constructed from now on; make_field's cache is
    emptied first, so a field built earlier counts again."""
    built = []
    init = Field.__init__

    def recording_init(self, p, m):
        built.append((p, m))
        init(self, p, m)

    make_field.cache_clear()
    monkeypatch.setattr(Field, "__init__", recording_init)
    return built


def test_table_text(runner):
    res = runner.invoke(main, ["table", "--q", "5"])
    assert res.exit_code == 0
    assert "9 classes, sizes sum to 120" in res.output
    assert "U(1,-)" in res.output and "W(4)" in res.output


def test_table_json(runner):
    res = runner.invoke(main, ["table", "--q", "4", "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["classes"]) == 5
    assert data["order"] == 60
    assert sum(c["size"] for c in data["classes"]) == 60


def test_table_rejects_non_prime_power(runner):
    res = runner.invoke(main, ["table", "--q", "6"])
    assert res.exit_code != 0
    assert "6 is not a prime power" in res.output


def test_eta_matrix_literals(runner):
    res = runner.invoke(main, ["eta", "--q", "5", "--a", "[[1,1],[0,1]]",
                               "--b", "[[1,2],[0,1]]"])
    assert res.exit_code == 0
    assert "eta = 4" in res.output


def test_eta_labels_json_round_trip(runner):
    res = runner.invoke(main, ["eta", "--q", "8", "--a", "U(1,+)", "--b", "W(1)",
                               "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["eta"] == 7
    assert data["q"] == 8 and 1 not in data["traces"]
    report = product_report(make_field(2, 3), ClassLabel("U", 1), ClassLabel("W", 1))
    assert tuple(ClassLabel.parse(s) for s in data["labels"]) == report.labels


def test_eta_central_is_single_class(runner):
    res = runner.invoke(main, ["eta", "--q", "5", "--a", "Z(1)", "--b", "U(1,+)"])
    assert res.exit_code == 0
    assert "eta = 1" in res.output


def test_eta_negative_literal_prime_field(runner):
    res = runner.invoke(main, ["eta", "--q", "5", "--a", "[[1,-1],[0,1]]", "--b", "U(1,+)"])
    assert res.exit_code == 0
    assert "U(1,+) x U(1,+)" in res.output  # -1 = 4 is a square


def test_eta_negative_literal_extension_field_rejected(runner):
    res = runner.invoke(main, ["eta", "--q", "4", "--a", "[[1,-1],[0,1]]", "--b", "U(1,+)"])
    assert res.exit_code != 0
    assert "prime fields" in res.output


def test_eta_rejects_non_unimodular(runner):
    res = runner.invoke(main, ["eta", "--q", "5", "--a", "[[2,0],[0,1]]", "--b", "U(1,+)"])
    assert res.exit_code != 0
    assert "determinant" in res.output


def test_eta_rejects_unknown_label(runner):
    res = runner.invoke(main, ["eta", "--q", "5", "--a", "W(0)", "--b", "U(1,+)"])
    assert res.exit_code != 0
    assert "no conjugacy class" in res.output


def test_min_command(runner):
    res = runner.invoke(main, ["min", "--q", "3"])
    assert res.exit_code == 0
    assert "minimum 2 classes" in res.output
    res = runner.invoke(main, ["min", "--q", "8", "--format", "json"])
    assert json.loads(res.output)["min"] == 7


@pytest.mark.parametrize("q,expected", [
    (1019, {"q": 1019, "min": 511, "witness": ["U(1,+)", "U(1,+)"]}),
    (1024, {"q": 1024, "min": 1023, "witness": ["U(1,+)", "W(3)"]}),
])
def test_min_command_at_largest_fields(runner, q, expected):
    # the values and first witnesses of a full scan of every pair
    res = runner.invoke(main, ["min", "--q", str(q), "--format", "json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == expected


def test_sweep_csv(runner):
    res = runner.invoke(main, ["sweep", "--qmax", "4"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "q,p,m,a,b,eta,n_traces,elapsed_ms"
    # unordered noncentral pairs: q=2 gives 3, q=3 gives 15, q=4 gives 10
    assert len(lines) == 1 + 3 + 15 + 10


@pytest.mark.parametrize("args,label_columns", [
    (["table", "--q", "9", "--format", "csv"], [0]),
    (["sweep", "--qmax", "9"], [3, 4]),
    (["eta", "--q", "9", "--a", "U(1,+)", "--b", "U(1,-)", "--format", "csv"], [3, 4]),
])
def test_csv_rows_parse(runner, args, label_columns):
    # a U label holds a comma, so it is quoted; every row then has the
    # header's columns and its labels read back
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    header, *rows = csv.reader(res.output.splitlines())
    assert rows
    for row in rows:
        assert len(row) == len(header), row
        for i in label_columns:
            assert str(ClassLabel.parse(row[i])) == row[i]


def test_json_outputs_end_with_newline(runner):
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["sweep", "--qmax", "3", "--format", "json"])
        assert res.exit_code == 0 and res.output.endswith("}\n")
        res = runner.invoke(main, ["sweep", "--qmax", "3", "--format", "json", "--out", "s.json"])
        assert res.exit_code == 0, res.output
        assert runner.invoke(main, ["verify", "--qmax", "3", "--no-cache", "--out", "v"]).exit_code == 0
        for path in ("s.json", "v/report.json", "v/manifest.json"):
            assert Path(path).read_text().endswith("}\n"), path


def test_sweep_out_creates_missing_directories(runner):
    # the CSV written under directories that do not exist yet is the one on
    # stdout, up to the elapsed_ms column
    def untimed(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    with runner.isolated_filesystem():
        res = runner.invoke(main, ["sweep", "--qmax", "4", "--out", "new/dir/x.csv"])
        assert res.exit_code == 0, res.output
        assert res.output == "wrote 28 reports to new/dir/x.csv\n"
        stdout = runner.invoke(main, ["sweep", "--qmax", "4"]).output
        assert untimed(Path("new/dir/x.csv").read_text()) == untimed(stdout)


def test_sweep_json_unchanged(runner):
    # every report's labels in class order and its traces, for every pair up
    # to q = 25; the timings are stripped as in the verify checksums
    res = runner.invoke(main, ["sweep", "--qmax", "25", "--format", "json"])
    assert res.exit_code == 0, res.output
    assert cli.canonical_checksum(json.loads(res.output)) == (
        "bc3c81ebc366a21e22812933ceeeb4f24d9840c30a26af40ff28aeba4cb0479c")


@pytest.mark.parametrize("qmax", [2, 9, 16])
def test_sweep_streams_the_one_shot_text(runner, qmax):
    # each report is written as it is made; the text is the one-shot dump
    # of the whole document (CSV: the header and rows joined), on stdout
    # and in the file
    def one_shot(text, fmt):
        if fmt == "json":
            return json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
        return "\n".join(text.splitlines()) + "\n"

    n = sum(k * (k + 1) // 2 for q in prime_powers_up_to(qmax)
            for k in [len(cli.class_table(make_field(*prime_power(q))).noncentral_labels())])
    with runner.isolated_filesystem():
        for fmt in ("json", "csv"):
            res = runner.invoke(main, ["sweep", "--qmax", str(qmax), "--format", fmt])
            assert res.exit_code == 0, res.output
            assert res.output == one_shot(res.output, fmt)
            res = runner.invoke(main, ["sweep", "--qmax", str(qmax), "--format", fmt,
                                       "--out", "s.out"])
            assert res.output == f"wrote {n} reports to s.out\n"
            text = Path("s.out").read_text()
            assert text == one_shot(text, fmt)
            if fmt == "json":
                assert len(json.loads(text)["reports"]) == n
            else:
                assert len(text.splitlines()) == 1 + n


def test_verify_cache_reuse_and_determinism(runner):
    with runner.isolated_filesystem():
        r1 = runner.invoke(main, ["verify", "--qmax", "4", "--out", "v1"])
        assert r1.exit_code == 0, r1.output
        assert "(cached)" not in r1.output
        r2 = runner.invoke(main, ["verify", "--qmax", "4", "--out", "v2"])
        assert r2.exit_code == 0
        assert "(cached)" in r2.output
        m1 = json.loads(Path("v1/manifest.json").read_text())
        m2 = json.loads(Path("v2/manifest.json").read_text())
        assert m1["checksums"] == m2["checksums"]
        report = json.loads(Path("v1/report.json").read_text())
        assert report["all_passed"] is True
        csv_text = Path("v1/min_classes.csv").read_text()
        assert "3,2" in csv_text.splitlines()
        # --no-cache recomputes but reports identical numbers
        r3 = runner.invoke(main, ["verify", "--qmax", "4", "--out", "v3", "--no-cache"])
        assert r3.exit_code == 0 and "(cached)" not in r3.output
        m3 = json.loads(Path("v3/manifest.json").read_text())
        assert m3["checksums"] == m1["checksums"]


def test_verify_recovers_from_corrupt_cache(runner):
    # unparsable JSON, valid JSON that is not an object, and bytes that are
    # not UTF-8
    with runner.isolated_filesystem():
        assert runner.invoke(main, ["verify", "--qmax", "3", "--out", "v1"]).exit_code == 0
        m1 = json.loads(Path("v1/manifest.json").read_text())
        victim = next(Path(".sl2q-cache").glob("q0003_*.json"))
        for garbage in (b"{not json", b"[]", b"\xff\xfe garbage"):
            victim.write_bytes(garbage)
            r = runner.invoke(main, ["verify", "--qmax", "3", "--out", "v2"])
            assert r.exit_code == 0, (garbage, r.output)
            assert "discarding corrupt cache entry" in r.output
            m2 = json.loads(Path("v2/manifest.json").read_text())
            assert m1["checksums"] == m2["checksums"]


def test_verify_cache_keyed_on_source(runner, monkeypatch):
    # an entry stored by different code is recomputed, not reused
    with runner.isolated_filesystem():
        real = cli._source_hash()
        monkeypatch.setattr(cli, "_source_hash", lambda: "0" * 64)
        assert runner.invoke(main, ["verify", "--qmax", "3", "--out", "v1"]).exit_code == 0
        monkeypatch.setattr(cli, "_source_hash", lambda: real)
        r2 = runner.invoke(main, ["verify", "--qmax", "3", "--out", "v2"])
        assert r2.exit_code == 0
        assert "(cached)" not in r2.output
        r3 = runner.invoke(main, ["verify", "--qmax", "3", "--out", "v3"])
        assert "(cached)" in r3.output


def test_verify_rejects_nonpositive_jobs(runner, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", no_pool)
    with runner.isolated_filesystem():
        for jobs in ("0", "-3"):
            res = runner.invoke(main, ["verify", "--qmax", "3", "--out", "v", "--jobs", jobs])
            assert res.exit_code == 2
            assert "Invalid value for '--jobs'" in res.output
            assert not Path("v").exists()


@pytest.fixture
def fake_pool(monkeypatch):
    """ProcessPoolExecutor and as_completed stand-ins that start no process.
    The returned log holds each worker count, submitted item and shutdown's
    cancel_futures; the fake as_completed finishes the items in the order
    ``log["order"]`` gives and stops the run before item ``log["stop"]``."""
    log = {"workers": [], "submitted": [], "shutdown": [], "order": list, "stop": None}

    class FakePool:
        def __init__(self, max_workers):
            log["workers"].append(max_workers)

        def submit(self, fn, args):
            future = concurrent.futures.Future()
            future.job = functools.partial(fn, args)
            log["submitted"].append(args)
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            log["shutdown"].append(cancel_futures)

    def as_completed(futures):
        for k, future in enumerate(log["order"](list(futures))):
            if k == log["stop"]:
                raise RuntimeError("stopped")
            future.set_result(future.job())
            yield future

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.concurrent.futures, "as_completed", as_completed)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    return log


def test_verify_jobs_capped_by_items_and_cores(runner, monkeypatch, fake_pool):
    started = fake_pool["workers"]
    with runner.isolated_filesystem():
        args = ["verify", "--qmax", "3", "--no-cache", "--jobs", "5000"]
        assert runner.invoke(main, args + ["--out", "v1"]).exit_code == 0
        res = runner.invoke(main, args + ["--out", "v2", "--checks", "min_class_bounds"])
        assert res.exit_code == 0
        assert started == [4, 2]  # 4 cores; 2 items (q = 2, 3)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert runner.invoke(main, args + ["--out", "v3"]).exit_code == 0
        assert started == [4, 2]  # one core: run in process
        m1 = json.loads(Path("v1/manifest.json").read_text())
        m3 = json.loads(Path("v3/manifest.json").read_text())
        assert m1["checksums"] == m3["checksums"]


@pytest.mark.parametrize("cmd", ["sweep", "verify"])
def test_qmax_below_two_rejected(runner, cmd):
    with runner.isolated_filesystem():
        res = runner.invoke(main, [cmd, "--qmax", "1", "--out", "out"])
        assert res.exit_code == 2
        assert "Invalid value for '--qmax'" in res.output
        assert list(Path().iterdir()) == []


@pytest.mark.parametrize("cmd", ["sweep", "verify"])
def test_qmax_past_field_bound_rejected_before_any_field(runner, monkeypatch, cmd):
    field_builds = record_field_builds(monkeypatch)
    with runner.isolated_filesystem():
        res = runner.invoke(main, [cmd, "--qmax", "1030", "--out", "out"])
        assert res.exit_code == 2
        assert "Invalid value for '--qmax'" in res.output and "1024" in res.output
        assert field_builds == []
        assert list(Path().iterdir()) == []


def test_cached_verify_builds_no_field(runner, monkeypatch):
    args = ["verify", "--qmax", "32", "--checks", "min_class_bounds,split_trace_coverage"]
    with runner.isolated_filesystem():
        assert runner.invoke(main, args + ["--out", "v1"]).exit_code == 0
        builds = record_field_builds(monkeypatch)
        r2 = runner.invoke(main, args + ["--out", "v2"])
        assert r2.exit_code == 0, r2.output
        assert r2.output.count("(cached)") == 2 * 18  # 18 prime powers q <= 32
        assert builds == []
        m1 = json.loads(Path("v1/manifest.json").read_text())
        m2 = json.loads(Path("v2/manifest.json").read_text())
        assert m1["checksums"] == m2["checksums"]
        assert m1["fields"] == m2["fields"]
        assert m2["fields"][2] == {"p": 2, "m": 2, "modulus": [1, 1, 1], "q": 4}


def test_serial_verify_holds_one_field_at_a_time(runner, monkeypatch):
    # make_field keeps only the last field: while each check of a serial
    # verify runs, exactly one Field is alive, and each field is built once
    builds = record_field_builds(monkeypatch)
    live = weakref.WeakSet()
    recording_init = Field.__init__

    def tracking_init(self, p, m):
        recording_init(self, p, m)
        live.add(self)

    alive = []
    run_checks = cli.run_checks

    def counting_run_checks(F, names=None, *, seed=0):
        alive.append(len(live))
        return run_checks(F, names, seed=seed)

    monkeypatch.setattr(Field, "__init__", tracking_init)
    monkeypatch.setattr(cli, "run_checks", counting_run_checks)
    checks = "even_char_bounds,odd_char_bounds,min_class_bounds"
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["verify", "--qmax", "64", "--no-cache", "--checks", checks,
                                   "--out", "v"])
    assert res.exit_code == 0, res.output
    qs = prime_powers_up_to(64)
    assert builds == [prime_power(q) for q in qs]
    assert alive == [1] * (2 * len(qs) - 1)  # q = 3 has no parity check


def test_interrupted_verify_keeps_finished_items(runner, monkeypatch):
    # each item is stored and printed as it finishes: a run that dies on
    # its third item has cached and shown the first two, and a rerun reads
    # exactly those from the cache
    run_checks = cli.run_checks
    calls = []

    def failing_run_checks(F, names=None, *, seed=0):
        calls.append((F.q, names[0]))
        if len(calls) == 3:
            raise RuntimeError("stopped")
        return run_checks(F, names, seed=seed)

    args = ["verify", "--qmax", "3", "--cache-dir", "cc", "--out", "v"]
    with runner.isolated_filesystem():
        monkeypatch.setattr(cli, "run_checks", failing_run_checks)
        res = runner.invoke(main, args)
        assert isinstance(res.exception, RuntimeError)
        assert len(res.output.splitlines()) == 2
        assert len(list(Path("cc").glob("*.json"))) == 2
        assert not Path("v").exists()
        monkeypatch.setattr(cli, "run_checks", run_checks)
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        marks = [line.endswith("(cached)") for line in res.output.splitlines()[:-1]]
        assert marks == [True, True] + [False] * (len(marks) - 2)


def test_verify_cache_dir_env(runner, monkeypatch):
    with runner.isolated_filesystem():
        monkeypatch.setenv("SL2Q_CACHE_DIR", "envcache")
        assert runner.invoke(main, ["verify", "--qmax", "2", "--out", "v"]).exit_code == 0
        assert list(Path("envcache").glob("*.json"))


def test_verify_cache_dir_env_validated_like_flag(runner, monkeypatch):
    # a file where the cache directory should be is refused before any work,
    # whether it is named by the flag or by the environment
    builds = record_field_builds(monkeypatch)
    with runner.isolated_filesystem():
        Path("afile").write_text("")
        res = runner.invoke(main, ["verify", "--qmax", "3", "--cache-dir", "afile", "--out", "v"])
        assert res.exit_code == 2 and "'--cache-dir'" in res.output
        monkeypatch.setenv("SL2Q_CACHE_DIR", "afile")
        res = runner.invoke(main, ["verify", "--qmax", "3", "--out", "v"])
        assert res.exit_code == 2, res.output
        assert "'--cache-dir'" in res.output and "afile" in res.output
        assert builds == []
        assert not Path("v").exists()


@pytest.mark.parametrize("args", [
    ["verify", "--qmax", "3", "--no-cache", "--out", "afile/sub"],
    ["verify", "--qmax", "3", "--cache-dir", "afile/c", "--out", "v"],
    ["sweep", "--qmax", "3", "--out", "afile/x.csv"],
])
def test_output_path_below_a_file_refused_before_any_work(runner, monkeypatch, args):
    # the output and cache directories are checked first: a path below a
    # regular file is a usage error before any field is built
    builds = record_field_builds(monkeypatch)
    with runner.isolated_filesystem():
        Path("afile").write_text("")
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "afile" in res.output
        assert "PASS" not in res.output and "FAIL" not in res.output
        assert builds == []


def test_verify_cache_keeps_each_seed(runner):
    # entries for different seeds live side by side: going back to a seed
    # reads every item from the cache
    with runner.isolated_filesystem():
        for seed in ("0", "1", "0"):
            res = runner.invoke(main, ["verify", "--qmax", "4", "--cache-dir", "cc",
                                       "--seed", seed, "--out", "v" + seed])
            assert res.exit_code == 0, res.output
        lines = res.output.splitlines()[:-1]
        assert len(lines) == 17
        assert all(line.endswith("(cached)") for line in lines), res.output


def test_verify_reports_known_q5_anomaly(runner):
    # the square/non-square counting claim is false at q=5, so a sweep
    # through q=5 exits nonzero with exactly that failure
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["verify", "--qmax", "5", "--out", "v"])
        assert res.exit_code == 1
        report = json.loads(Path("v/report.json").read_text())
        failed = [(r["q"], r["check"]) for r in report["results"] if not r["passed"]]
        assert failed == [(5, "value_set_counts")]
        assert "FAIL" in res.output


def test_verify_check_selection(runner):
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["verify", "--qmax", "5", "--out", "v",
                                   "--checks", "min_class_bounds,split_trace_coverage"])
        assert res.exit_code == 0, res.output
        report = json.loads(Path("v/report.json").read_text())
        assert {r["check"] for r in report["results"]} == {"min_class_bounds",
                                                           "split_trace_coverage"}
        rows = Path("v/min_classes.csv").read_text().strip().splitlines()
        assert rows == ["q,min", "2,1", "3,2", "4,3", "5,4"]
    res = runner.invoke(main, ["verify", "--qmax", "3", "--checks", "bogus"])
    assert res.exit_code != 0 and "unknown checks" in res.output


def test_verify_check_selection_normalised(runner):
    # repeats and order do not change the command or the report checksums
    def verify(checks, out):
        res = runner.invoke(main, ["verify", "--qmax", "3", "--no-cache", "--checks", checks,
                                   "--out", out])
        assert res.exit_code == 0, res.output
        return json.loads(Path(out, "manifest.json").read_text())

    with runner.isolated_filesystem():
        m1 = verify("min_class_bounds", "v1")
        assert verify("min_class_bounds,min_class_bounds", "v2")["checksums"] == m1["checksums"]
        m3 = verify("min_class_bounds,split_trace_coverage", "v3")
        assert m3["command"] == ("verify --qmax 3 --seed 0 "
                                 "--checks split_trace_coverage,min_class_bounds")
        for checks in ("split_trace_coverage,min_class_bounds",
                       " min_class_bounds , split_trace_coverage,min_class_bounds"):
            m = verify(checks, "v4")
            assert (m["command"], m["checksums"]) == (m3["command"], m3["checksums"])


def test_verify_refuses_empty_selection(runner):
    # no name at all (an empty value too), and a check that applies to no q <= qmax
    with runner.isolated_filesystem():
        for checks in ("", ",", "odd_char_bounds"):
            res = runner.invoke(main, ["verify", "--qmax", "3", "--checks", checks, "--out", "v"])
            assert res.exit_code == 2, (checks, res.output)
            assert "selects no check" in res.output and "q <= 3" in res.output
            assert not Path("v/report.json").exists()


def test_parallel_verify_stores_items_as_they_complete(runner, fake_pool):
    # the pool gets the largest q first and finishes the items in reverse,
    # so the first item in work order finishes last; a run stopped after
    # three items has cached those three but printed nothing, and a rerun
    # reads them from the cache and prints every item in work order
    fake_pool["order"] = lambda futures: futures[::-1]
    fake_pool["stop"] = 3
    args = ["verify", "--qmax", "4", "--cache-dir", "cc", "--jobs", "2"]
    with runner.isolated_filesystem():
        res = runner.invoke(main, args + ["--out", "v"])
        assert isinstance(res.exception, RuntimeError)
        assert res.output == ""
        assert not Path("v").exists()
        assert fake_pool["shutdown"] == [True]
        submitted = [p**m for p, m, _, _ in fake_pool["submitted"]]
        assert submitted == sorted(submitted, reverse=True) and submitted[-1] == 2
        done = fake_pool["submitted"][-3:]
        assert sorted(Path("cc").glob("*.json")) == sorted(
            Path("cc", f"q{p**m:04d}_{n}_seed0.json") for p, m, n, _ in done)

        fake_pool["stop"] = None
        res = runner.invoke(main, args + ["--out", "v"])
        assert res.exit_code == 0, res.output
        assert len(fake_pool["submitted"]) == 2 * len(submitted) - 3
        lines = res.output.splitlines()[:-1]
        work = [(int(line[2:6]), line[6:30].strip()) for line in lines]
        cached = [(p**m, n) for p, m, n, _ in done]
        assert [line.endswith("(cached)") for line in lines] == [w in cached for w in work]
        serial = runner.invoke(main, ["verify", "--qmax", "4", "--no-cache", "--out", "s"])
        assert work == [(int(line[2:6]), line[6:30].strip())
                        for line in serial.output.splitlines()[:-1]]
        m1 = json.loads(Path("v/manifest.json").read_text())
        m2 = json.loads(Path("s/manifest.json").read_text())
        assert m1["checksums"] == m2["checksums"]


def test_verify_parallel_jobs_match_serial(runner):
    with runner.isolated_filesystem():
        r1 = runner.invoke(main, ["verify", "--qmax", "3", "--out", "v1", "--no-cache"])
        r2 = runner.invoke(main, ["verify", "--qmax", "3", "--out", "v2", "--no-cache",
                                  "--jobs", "2"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        m1 = json.loads(Path("v1/manifest.json").read_text())
        m2 = json.loads(Path("v2/manifest.json").read_text())
        assert m1["checksums"] == m2["checksums"]
