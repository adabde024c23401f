"""CLI integration tests (in-process via ``repro.cli.main``)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[2] / "src"


def test_platforms_command(capsys):
    assert main(["platforms"]) == 0
    out = capsys.readouterr().out
    assert "skx-impi" in out and "fig1" in out


def test_schemes_command(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    assert "packing(v)" in out and "reference" in out


def test_sweep_command_quick(capsys):
    code = main(["sweep", "--platform", "ideal", "--min-bytes", "1000",
                 "--max-bytes", "100000", "--per-decade", "1",
                 "--iterations", "3", "--no-flush",
                 "--schemes", "reference", "copying"])
    out = capsys.readouterr().out
    assert code == 0
    assert "copying" in out and "x vs reference" in out


def test_sweep_saves_json(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    code = main(["sweep", "--platform", "ideal", "--min-bytes", "1000",
                 "--max-bytes", "10000", "--per-decade", "1",
                 "--iterations", "2", "--no-flush",
                 "--schemes", "reference", "--out", str(out_file)])
    assert code == 0
    assert out_file.exists()
    from repro.core.results import SweepResult

    loaded = SweepResult.load(out_file)
    assert loaded.platform == "ideal"
    assert loaded.measurements


def test_figure_command_quick(capsys):
    code = main(["figure", "fig1", "--quick", "--no-charts"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Stampede2-skx" in out
    assert "Slowdown vs reference" in out


def test_experiment_command(capsys):
    code = main(["experiment", "flush", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_claims_command(capsys):
    code = main(["claims", "--platform", "skx-impi", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert "claims passed" in out


def test_verbose_progress(capsys):
    main(["sweep", "--platform", "ideal", "--min-bytes", "1000",
          "--max-bytes", "1000", "--iterations", "2", "--no-flush",
          "--schemes", "reference", "--verbose"])
    out = capsys.readouterr().out
    assert "reference" in out


def test_validate_command(capsys):
    code = main(["validate", "--platform", "ideal", "--bytes", "8192"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "packing-vector" in out


def test_trace_command(capsys):
    code = main(["trace", "vector", "--bytes", "200000", "--platform", "skx-impi"])
    out = capsys.readouterr().out
    assert code == 0
    assert "RTS ->1" in out
    assert "staging" in out
    assert "rank 0" in out and "rank 1" in out


def test_report_command_with_stub(tmp_path, capsys, monkeypatch):
    """The report command end-to-end, with the expensive builder stubbed."""
    import repro.cli as cli_mod

    class FakeReport:
        all_passed = True

        def to_markdown(self):
            return "# EXPERIMENTS — stub\nline\n"

    monkeypatch.setattr(cli_mod, "build_report", lambda **kw: FakeReport())
    out = tmp_path / "EXP.md"
    assert main(["report", "--quick", "--out", str(out)]) == 0
    assert out.read_text().startswith("# EXPERIMENTS")
    assert "PASS" in capsys.readouterr().out


def test_sweep_with_jobs_matches_serial(tmp_path, capsys):
    """The default (a worker pool) and --jobs 2 print the same table and
    save the same artifact as --jobs 1."""
    base = ["sweep", "--platform", "ideal", "--min-bytes", "1000",
            "--max-bytes", "100000", "--per-decade", "1",
            "--iterations", "3", "--no-flush", "--no-cache",
            "--schemes", "reference", "copying"]
    assert main(base + ["--jobs", "1", "--out", str(tmp_path / "serial.json")]) == 0
    serial_out = capsys.readouterr().out
    assert main(base + ["--out", str(tmp_path / "default.json")]) == 0
    assert capsys.readouterr().out.replace("default.json", "serial.json") == serial_out
    assert main(base + ["--jobs", "2", "--out", str(tmp_path / "par.json")]) == 0
    parallel_out = capsys.readouterr().out
    assert parallel_out.replace("par.json", "serial.json") == serial_out
    from repro.core.results import SweepResult

    a = SweepResult.load(tmp_path / "serial.json")
    b = SweepResult.load(tmp_path / "par.json")
    assert a.to_dict() == b.to_dict()
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "serial.json").read_bytes()


def test_jobs_defaults_to_one_worker_per_cpu():
    import os

    cpus = len(os.sched_getaffinity(0))
    for argv in (["sweep"], ["report"], ["validate"], ["serve"]):
        assert build_parser().parse_args(argv).jobs == cpus


@pytest.mark.parametrize("argv", [
    ["sweep", "--jobs", "0"],
    ["sweep", "--jobs", "-2"],
    ["sweep", "--jobs", "two"],
    ["sweep", "--chunk-size", "0"],
    ["report", "--jobs", "0"],
    ["experiment", "halo", "--chunk-size", "-1"],
    ["validate", "--jobs", "0"],
    ["serve", "--jobs", "0"],
    ["serve", "--chunk-size", "0"],
    # A halo ring needs two ranks, and a node at least one.
    ["experiment", "halo", "--ranks", "0"],
    ["experiment", "halo", "--ranks", "-4"],
    ["experiment", "halo", "--ranks", "1"],
    ["experiment", "halo", "--ranks-per-node", "0"],
    # The fabric flags belong to halo alone.
    ["experiment", "eager", "--ranks", "4"],
    ["experiment", "fig1", "--topology", "torus2d"],
    # Sizes, counts and block lengths must be positive.
    ["trace", "vector", "--bytes", "-8"],
    ["trace", "vector", "--bytes", "0"],
    ["explain", "--bytes", "0"],
    ["advise", "--bytes", "0"],
    ["validate", "--bytes", "0"],
    ["advise", "--blocklen", "0"],
    ["sweep", "--min-bytes", "0"],
    ["sweep", "--per-decade", "0"],
    ["sweep", "--iterations", "0"],
    # Ranges must not be inverted.
    ["sweep", "--min-bytes", "5000", "--max-bytes", "1000"],
    ["advise", "--stride", "0"],
    ["advise", "--blocklen", "4", "--stride", "2"],
    # Output files need an existing directory, and must not be one.
    ["trace", "vector", "--json", "/nonexistent/dir/t.json"],
    ["sweep", "--out", "."],
    ["sweep", "--out", "/nonexistent/dir/s.json"],
    ["figure", "fig1", "--out", "/nonexistent/dir/s.json"],
    ["report", "--quick", "--out", "/nonexistent/dir/r.md"],
    ["sweep", "--host-trace", "/nonexistent/dir/h.json"],
    ["experiment", "halo", "--host-trace", "/nonexistent/dir/h.json"],
    ["perf", "gate", "--gate", "kernel-speedup",
     "--host-trace", "/nonexistent/dir/h.json"],
    # Jitter is a fraction in [0, 1); ports and byte bounds have ranges.
    ["advise", "--datatype", "indexed", "--jitter", "2"],
    ["advise", "--datatype", "indexed", "--jitter", "-1"],
    ["serve", "--port", "99999"],
    ["serve", "--port", "-1"],
    ["cache", "clear", "--evict-to", "-5"],
    # A datatype count may be zero but not negative; a node holds a rank.
    ["advise", "--count", "-2"],
    ["advise", "--count", "-1"],
    ["advise", "--ranks-per-node", "0"],
    ["advise", "--ranks-per-node", "-3"],
    # A slowdown table (a sweep's default, a figure's only) needs reference.
    ["sweep", "--platform", "ideal", "--min-bytes", "1000", "--max-bytes", "10000",
     "--per-decade", "1", "--iterations", "2", "--schemes", "vector"],
    ["sweep", "--quick", "--table", "slowdown", "--schemes", "vector"],
    ["figure", "fig3", "--quick", "--schemes", "vector", "copying"],
])
def test_non_positive_jobs_and_chunk_size_are_usage_errors(argv, capsys, monkeypatch):
    """Exit 2 with one argparse error line naming the flag, before
    anything runs -- not a traceback."""
    import repro.cli as cli_mod

    def forbidden(*args, **kwargs):
        pytest.fail("ran a command")

    for name in dir(cli_mod):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli_mod, name, forbidden)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1
    last = err.strip().splitlines()[-1]
    assert "error: argument" in last
    flag = next(arg for arg in reversed(argv) if arg.startswith("--"))
    assert flag in last


def test_sweep_time_table_needs_no_reference(capsys):
    assert main(["sweep", "--platform", "ideal", "--min-bytes", "1000",
                 "--max-bytes", "10000", "--per-decade", "1", "--iterations", "2",
                 "--no-cache", "--schemes", "vector", "--table", "time"]) == 0
    out = capsys.readouterr().out
    assert "vector type" in out and "(seconds;" in out


def test_quick_sweep_honours_schemes(capsys):
    assert main(["sweep", "--quick", "--platform", "ideal", "--no-cache",
                 "--schemes", "reference", "vector"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:-1]
    assert [row.split()[0] for row in rows] == ["reference", "vector"]


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_1_without_traceback(unbuffered):
    """Buffered stdout fails at main's flush, unbuffered at the first
    print; both end quietly."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run([sys.executable, "-m", "repro", "schemes"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_halo_with_jobs_matches_serial(capsys):
    """The halo experiment's fan-out over the default pool and over
    --jobs 2 prints exactly what --jobs 1 prints."""
    base = ["experiment", "halo", "--quick", "--no-cache"]
    assert main(base + ["--jobs", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert "PASS" in serial_out
    assert main(base) == 0
    assert capsys.readouterr().out == serial_out
    assert main(base + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial_out


def test_sweep_reruns_hit_the_cache(capsys):
    """The second identical invocation is served from the result store
    (the autouse fixture points it at a per-test temp dir)."""
    import repro.cli as cli_mod

    captured = []
    original = cli_mod._executor_from

    def spy(args):
        ex = original(args)
        captured.append(ex)
        return ex

    cli_mod._executor_from = spy
    try:
        cmd = ["sweep", "--platform", "ideal", "--min-bytes", "1000",
               "--max-bytes", "1000", "--iterations", "2", "--no-flush",
               "--schemes", "reference"]
        assert main(cmd) == 0 and main(cmd) == 0
    finally:
        cli_mod._executor_from = original
    first, second = captured
    assert first.cells_executed == 1 and first.cells_cached == 0
    assert second.cells_executed == 0 and second.cells_cached == 1


def test_cache_stats_and_clear(capsys):
    main(["sweep", "--platform", "ideal", "--min-bytes", "1000",
          "--max-bytes", "1000", "--iterations", "2", "--no-flush",
          "--schemes", "reference", "copying"])
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries:     2" in out
    assert main(["cache", "clear"]) == 0
    assert "cleared 2" in capsys.readouterr().out
    assert main(["cache", "stats"]) == 0
    assert "entries:     0" in capsys.readouterr().out


def test_no_cache_flag_skips_the_store(capsys):
    cmd = ["sweep", "--platform", "ideal", "--min-bytes", "1000",
           "--max-bytes", "1000", "--iterations", "2", "--no-flush",
           "--schemes", "reference", "--no-cache"]
    assert main(cmd) == 0
    assert main(["cache", "stats"]) == 0
    assert "entries:     0" in capsys.readouterr().out


def test_interrupt_persists_and_hints_resume(capsys, monkeypatch):
    """Ctrl-C mid-sweep: completed cells are durable, exit code is 130,
    and stderr tells the user to just re-run the command."""
    import repro.exec.executor as executor_mod
    from repro.exec import execute_spec as real_execute

    calls = {"n": 0}

    def flaky(spec):
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return real_execute(spec)

    monkeypatch.setattr(executor_mod, "execute_spec", flaky)
    cmd = ["sweep", "--platform", "ideal", "--min-bytes", "1000",
           "--max-bytes", "1000", "--iterations", "2", "--no-flush",
           "--schemes", "reference", "copying", "vector", "--jobs", "1"]
    assert main(cmd) == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert "1 newly executed cell(s) are cached" in err
    assert "re-run the same command" in err

    # The resumed run fast-forwards through the persisted cell.
    monkeypatch.setattr(executor_mod, "execute_spec", real_execute)
    assert main(cmd) == 0


def test_parallel_interrupt_persists_and_joins_workers(capsys, monkeypatch):
    """The same Ctrl-C under the worker pool: exit 130, the cells that
    completed are persisted, and no worker outlives the command."""
    import multiprocessing

    import repro.cli as cli_mod

    calls = {"n": 0}

    def progress(*args):
        calls["n"] += 1
        if calls["n"] == 2:  # Ctrl-C after the second completed cell
            raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "_progress", progress)
    before = set(multiprocessing.active_children())
    assert main(["sweep", "--platform", "ideal", "--min-bytes", "1000",
                 "--max-bytes", "1000", "--iterations", "2", "--no-flush",
                 "--schemes", "reference", "copying", "vector",
                 "--jobs", "2", "--verbose"]) == 130
    assert "2 newly executed cell(s) are cached" in capsys.readouterr().err
    assert set(multiprocessing.active_children()) <= before
    assert main(["cache", "stats"]) == 0
    assert "entries:     2" in capsys.readouterr().out


def test_interrupt_without_cache_warns(capsys, monkeypatch):
    import repro.exec.executor as executor_mod

    def boom(spec):
        raise KeyboardInterrupt

    monkeypatch.setattr(executor_mod, "execute_spec", boom)
    assert main(["sweep", "--platform", "ideal", "--min-bytes", "1000",
                 "--max-bytes", "1000", "--iterations", "2", "--no-flush",
                 "--schemes", "reference", "--no-cache"]) == 130
    assert "nothing persisted (--no-cache)" in capsys.readouterr().err


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig9"])


def test_parser_rejects_unknown_platform():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--platform", "nope"])


def test_cache_stats_reports_lifetime_counters(capsys):
    """Satellite: ``repro cache stats`` surfaces the persisted store
    counters (hits/misses/writes and IO volume)."""
    cmd = ["sweep", "--platform", "ideal", "--min-bytes", "1000",
           "--max-bytes", "1000", "--iterations", "2", "--no-flush",
           "--schemes", "reference"]
    assert main(cmd) == 0  # one miss + one write
    assert main(cmd) == 0  # one hit
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "lifetime:    1 hits, 1 misses, 1 writes" in out
    assert "io:" in out and "B written" in out


# ----------------------------------------------------------------------
# repro perf — quick settings: tiny kernel workload, thresholds loosened
# so only the bit-identity checks (which must hold at any size) gate.
# ----------------------------------------------------------------------
QUICK_KERNEL_GATE = [
    "--gate", "kernel-speedup",
    "--option", "kernels.inner_repeats=1",
    "--option", "kernels.n_runs=64",
    "--option", "kernels.min_gather_speedup=0.0001",
]


def test_perf_gate_runs_and_renders(capsys):
    assert main(["perf", "gate", *QUICK_KERNEL_GATE]) == 0
    out = capsys.readouterr().out
    assert "== gate kernel-speedup ==" in out
    assert "tier-identity: ok (tiers_identical = 1" in out
    assert "OK: 1 gate(s)" in out


def test_perf_gate_failure_exit_code(capsys):
    cmd = ["perf", "gate", *QUICK_KERNEL_GATE]
    cmd[cmd.index("kernels.min_gather_speedup=0.0001")] = (
        "kernels.min_gather_speedup=1e9"
    )
    assert main(cmd) == 1
    assert "FAIL: gather" in capsys.readouterr().out


def test_perf_record_diff_report_roundtrip(tmp_path, capsys):
    ledger_dir = str(tmp_path / "ledger")
    record = ["perf", "record", *QUICK_KERNEL_GATE, "--ledger-dir", ledger_dir]
    assert main(record) == 0
    assert main(record) == 0
    out = capsys.readouterr().out
    assert "recorded" in out

    assert main(["perf", "report", "--ledger-dir", ledger_dir]) == 0
    report = capsys.readouterr().out
    assert "2 recorded run(s)" in report
    assert "kernel-speedup" in report and "PASS" in report

    assert main(["perf", "diff", "@0", "latest",
                 "--ledger-dir", ledger_dir]) == 0
    diff = capsys.readouterr().out
    assert "perf diff:" in diff
    assert "noise band" in diff

    # Unknown refs are a clean error, not a traceback.
    assert main(["perf", "diff", "@0", "beef",
                 "--ledger-dir", ledger_dir]) == 1
    assert "no ledger entry" in capsys.readouterr().err


def test_perf_gate_writes_valid_host_trace(tmp_path, capsys):
    import json

    from repro.obs import validate_chrome_trace

    trace = tmp_path / "host.json"
    assert main(["perf", "gate", *QUICK_KERNEL_GATE,
                 "--host-trace", str(trace)]) == 0
    assert "wrote host Chrome trace" in capsys.readouterr().out
    doc = json.loads(trace.read_text())
    validate_chrome_trace(doc)
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert "kernel-speedup" in names


def test_perf_gate_unknown_gate_is_clean_error(capsys):
    assert main(["perf", "gate", "--gate", "nope"]) == 1
    assert "unknown gate" in capsys.readouterr().err


def test_perf_option_parsing_rejects_malformed(capsys):
    assert main(["perf", "gate", "--gate", "kernel-speedup",
                 "--option", "noequals"]) == 2
    assert "--option expects KEY=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--gate", "kernel-speedup", "--option", "kernels.min_gather_speedup=abc"],
    # Resolved for every gate before the first (contention-overhead) runs.
    ["--all", "--option", "kernels.min_gather_speedup=abc"],
    ["--gate", "exec-speedup", "--option", "exec.repeats=three"],
    ["--all", "--option", "=5"],
    # A key no selected gate reads would leave its default in force.
    ["--gate", "kernel-speedup", "--option", "kernels.min_gather_sped=5"],
])
def test_perf_gate_bad_option_is_a_usage_error(argv, monkeypatch, capsys):
    """One ``error:`` line and exit 2, before any workload starts."""
    ran = []
    monkeypatch.setattr("repro.perf.gates._run_workload",
                        lambda *args: ran.append(args))
    assert main(["perf", "gate", *argv]) == 2
    out, err = capsys.readouterr()
    assert ran == [] and out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_perf_gate_ci_options_are_declared_keys(monkeypatch, capsys):
    """CI's three floors pass the pre-run key check under ``--all``:
    every gate starts (the stubbed workloads then raise, so the gates
    fail with exit 1, not 2)."""
    from repro.perf import gate_names

    ran = []

    def stub(spec, *args):
        ran.append(spec.name)
        raise RuntimeError("stubbed out")

    monkeypatch.setattr("repro.perf.gates._run_workload", stub)
    assert main(["perf", "gate", "--all",
                 "--option", "exec.min_cache_speedup=5",
                 "--option", "plan.min_speedup=1.2",
                 "--option", "contention.max_overhead=1.5"]) == 1
    assert capsys.readouterr().err == ""
    assert ran == gate_names()


def test_sweep_host_trace_flag(tmp_path, capsys):
    """``repro sweep --host-trace`` captures the executor's wall-clock
    lanes alongside the normal sweep output."""
    import json

    from repro.obs import host as host_mod
    from repro.obs import validate_chrome_trace

    trace = tmp_path / "host.json"
    assert main(["sweep", "--platform", "ideal", "--min-bytes", "1000",
                 "--max-bytes", "1000", "--iterations", "2", "--no-flush",
                 "--schemes", "reference", "--host-trace", str(trace)]) == 0
    assert host_mod.active is None  # capture ended with the command
    doc = json.loads(trace.read_text())
    validate_chrome_trace(doc)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert any(e["name"] == "cell.execute" for e in spans)
