"""The repo benchmark: four end-to-end workloads of the unmodified CLI.

    python bench/run.py [--seed N] [--out FILE] [--trace]
        every workload, its rounds interleaved in a seeded order;
        --trace adds one traced round per workload
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        rounds of one workload for about S seconds; the last line of
        standard output is the result as one JSON object
    python bench/run.py compare A.json B.json
        judge results file B against A with each metric's bound
    python bench/run.py pin
        run each workload once and rewrite the output digests in pins.json

Each round runs in a fresh process with its own REPRO_CACHE_DIR under
bench/out/, so nothing outside the checkout is read or written.  See
README.md for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import http.client
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

import stats
from workloads import (
    PINS,
    WORKLOADS,
    Workload,
    cell_set_digest,
    load_pins,
    outcome,
    response_error,
    serve_requests,
    sha256_file,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Closed-loop clients of serve-mixed: the container's CPU count.
CLIENTS = 2


# ----------------------------------------------------------------------
# One process of one round.
# ----------------------------------------------------------------------
class Child:
    """``child.py`` running one ``repro`` command, killed with its whole
    process group if it outlives ``timeout_s``."""

    def __init__(self, argv: list[str], tmp: Path, trace: Path | None,
                 timeout_s: float, stdout: Any):
        self.report_file = tmp / "report.json"
        self.stderr = open(tmp / "stderr", "wb")
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp / "cache"))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.timed_out = False
        self._lock = threading.Lock()
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(self.report_file),
             str(trace or ""), *argv],
            cwd=tmp, env=env, stdout=stdout, stderr=self.stderr,
            start_new_session=True,
        )
        self._timer = threading.Timer(timeout_s, self._kill)
        self._timer.start()

    def _kill(self) -> None:
        with self._lock:
            if self.proc.returncode is None:
                self.timed_out = True
                self._killpg()

    def _killpg(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self) -> tuple[int, float, float]:
        """Reap the process: ``(exit code, exit instant, user+sys CPU s)``."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        exited = time.monotonic()
        with self._lock:
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._timer.cancel()
        self._killpg()  # anything the command left behind
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.stderr.close()
        return self.proc.returncode, exited, usage.ru_utime + usage.ru_stime

    def report(self) -> dict[str, float] | None:
        """What ``child.py`` wrote on its way out."""
        try:
            return json.loads(self.report_file.read_text())
        except (OSError, ValueError):
            return None

    def failure(self, code: int) -> str | None:
        if self.timed_out:
            return "timed out"
        if code != 0:
            lines = Path(self.stderr.name).read_text(errors="replace").splitlines()
            return f"exit {code}: {lines[-1] if lines else ''}"
        return None


def _round_record(w: Workload, traced: bool) -> dict[str, Any]:
    return {"workload": w.name, "traced": traced, "timeout_s": w.timeout_s,
            "attempted": 1, "failed": 0, "error": None}


def cli_round(w: Workload, tmp: Path, traced: bool, expected: str | None) -> dict[str, Any]:
    rec = _round_record(w, traced)
    trace_path = tmp / "trace.json" if traced else None
    argv = [a.replace("{tmp}", str(tmp)) for a in w.argv]
    with open(tmp / "stdout", "wb") as stdout:
        child = Child(argv, tmp, trace_path, w.timeout_s, stdout)
        code, exited, cpu = child.wait()
    error = child.failure(code)
    report = child.report()
    if error is None and report is None:
        error = "wrote no report"
    if error is None:
        digest = sha256_file(tmp / w.output)
        rec["digest"] = digest
        if expected is not None and digest != expected:
            error = f"output digest {digest[:12]} != pinned {expected[:12]}"
    rec["duration_s"] = exited - child.spawned
    if error is not None:
        rec.update(failed=1, error=error)
        return rec
    rec.update(setup_s=report["ready"] - child.spawned,
               wall_s=exited - report["ready"] - report["dump_s"],
               cpu_s=cpu, rss_mb=report["peak_rss_mb"])
    if traced:
        _add_trace(rec, trace_path, (report["ready"], report["done"]))
    return rec


def _add_trace(rec: dict[str, Any], path: Path, window: tuple[float, float],
               served: dict[str, int] | None = None) -> None:
    """Attach a traced round's spans and per-layer metrics."""
    trace = json.loads(path.read_text())
    rec.update(window=window, trace=trace, unmeasured=trace["unmeasured"],
               layers=stats.layer_metrics(trace, *window, served=served),
               suspended_calls=sum(trace["suspended"].values()))


# ----------------------------------------------------------------------
# serve-mixed.
# ----------------------------------------------------------------------
def _http(host: str, port: int, method: str, path: str, body: bytes | None = None,
          timeout: float = 60.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def drain(host: str, port: int, requests: list[dict]) -> list[tuple[float, float, int, bytes]]:
    """Closed loop: ``CLIENTS`` threads take the next request from the
    shared list as soon as their previous one is answered.  Returns
    ``(sent, answered, status, body)`` per request, in list order."""
    pending = iter(enumerate(requests))
    lock = threading.Lock()
    results: list[Any] = [None] * len(requests)

    def client() -> None:
        while True:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            i, body = item
            sent = time.monotonic()
            try:
                status, data = _http(host, port, "POST", "/sweep?wait=1",
                                     json.dumps(body).encode())
            except (OSError, http.client.HTTPException) as exc:
                status, data = 0, str(exc).encode()
            results[i] = (sent, time.monotonic(), status, data)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _ready_url(child: Child) -> tuple[str, int] | None:
    """Wait for ``serving on http://HOST:PORT`` and ``GET /healthz`` 200."""
    line = child.proc.stdout.readline().decode(errors="replace")
    if not line.startswith("serving on http://"):
        return None
    host, _, port = line.split("//", 1)[1].strip().rpartition(":")
    while not child.timed_out:
        try:
            if _http(host, int(port), "GET", "/healthz", timeout=5)[0] == 200:
                return host, int(port)
        except OSError:
            pass
        time.sleep(0.005)
    return None


def serve_round(w: Workload, tmp: Path, traced: bool, expected: str | None,
                requests: list[dict]) -> dict[str, Any]:
    rec = _round_record(w, traced)
    rec["attempted"] = len(requests)
    trace_path = tmp / "trace.json" if traced else None
    argv = [a.replace("{tmp}", str(tmp)) for a in w.argv]
    child = Child(argv, tmp, trace_path, w.timeout_s, subprocess.PIPE)
    # Round errors (a dead daemon, a wrong cell set) fail every request
    # of the round; a bad response fails only its own request.
    round_errors, answers, served = [], [], {}
    try:
        address = _ready_url(child)
        ready = time.monotonic()
        if address is None:
            round_errors.append("daemon never became ready")
        else:
            answers = drain(*address, requests)
            drained = time.monotonic()
            try:
                served = json.loads(_http(*address, "GET", "/stats")[1])["cells"]
            except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                round_errors.append(f"GET /stats: {exc!r}")
    finally:
        child.proc.send_signal(signal.SIGINT)
        code, exited, cpu = child.wait()
    rec["duration_s"] = exited - child.spawned
    report = child.report()
    if (error := child.failure(code)) is not None:
        round_errors.append(f"daemon {error}")
    elif report is None:
        round_errors.append("daemon wrote no report")

    request_errors = [e for _, _, status, data in answers
                      if (e := response_error(status, data)) is not None]
    if answers and not request_errors:
        cells: dict[str, tuple] = {}
        for *_, data in answers:
            for cell in json.loads(data)["cells"].values():
                if cells.setdefault(cell["digest"], outcome(cell)) != outcome(cell):
                    round_errors.append(f"cell {cell['digest'][:12]} differs across responses")
        rec["digest"] = cell_set_digest(cells)
        if expected is not None and rec["digest"] != expected:
            round_errors.append(f"cell set digest {rec['digest'][:12]} != pinned {expected[:12]}")
    if round_errors or request_errors:
        errors = round_errors + request_errors
        rec.update(failed=len(requests) if round_errors else len(request_errors),
                   error="; ".join(sorted(set(errors))[:3]))
        return rec
    rec.update(setup_s=ready - child.spawned, wall_s=drained - ready, cpu_s=cpu,
               rss_mb=report["peak_rss_mb"], latencies=[b - a for a, b, _, _ in answers],
               served={k: served.get(k, 0) for k in ("reused", "recomputed", "deduped")})
    if traced:
        _add_trace(rec, trace_path, (ready, drained), rec["served"])
    return rec


def run_round(w: Workload, traced: bool, seed: int, expected: str | None) -> dict[str, Any]:
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    try:
        if w.served:
            return serve_round(w, tmp, traced, expected, serve_requests(seed))
        return cli_round(w, tmp, traced, expected)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# Summaries.
# ----------------------------------------------------------------------
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def summarize(rounds: list[dict[str, Any]]) -> dict[str, Any]:
    """Metrics of one workload's rounds.  Failed rounds count toward
    ``fail_rate`` and are never timed."""
    timed = [r for r in rounds if r["failed"] == 0]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    out: dict[str, Any] = {"attempted": attempted, "failed": failed,
                           "fail_rate": failed / attempted if attempted else 0.0,
                           "samples": {m: [r[m] for r in plain] for m in E2E},
                           "metrics": {}, "layers": {}}
    for name, samples in out["samples"].items():
        if samples:
            q1, med, q3 = stats.quartiles(samples)
            out["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "n": len(samples),
                                    "unit": E2E[name]["unit"]}
    latencies = [x for r in plain for x in r.get("latencies", [])]
    if latencies:
        out["requests"] = {"n": len(latencies), "p50_s": statistics.median(latencies),
                           "tail": stats.tail(latencies),
                           "per_s": len(latencies) / sum(r["wall_s"] for r in plain)}
    if traced:
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        untraced_wall = out["metrics"].get("wall_s", {}).get("median")
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead"] = traced_wall / untraced_wall - 1 if untraced_wall else 0.0
        out["layers"] = layers
        out["unmeasured"] = traced[0]["unmeasured"]
        out["suspended_calls"] = traced[0]["suspended_calls"]
    return out


def _fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_summary(name: str, summary: dict[str, Any]) -> None:
    print(f"\n== {name}: {summary['attempted'] - summary['failed']}/{summary['attempted']} "
          f"operations ok, fail_rate {summary['fail_rate']:.3g}")
    print(f"  {'metric':10s} {'unit':5s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'n':>4s}")
    for metric, m in summary["metrics"].items():
        print(f"  {metric:10s} {m['unit']:5s} {m['median']:10.4f} {m['q1']:10.4f} "
              f"{m['q3']:10.4f} {m['n']:4d}")
    if req := summary.get("requests"):
        tail = (f", p{req['tail'][0]:g} {req['tail'][1]:.4f} s" if req["tail"]
                else ", too few for a tail percentile")
        print(f"  requests: n={req['n']}, p50 {req['p50_s']:.4f} s{tail}, "
              f"{req['per_s']:.2f} req/s")
    layers = summary["layers"]
    if not layers:
        return
    wall = layers["trace.wall_s"]
    print(f"  per-layer self time, median of the traced rounds (wall {wall:.4f} s, "
          f"tracing overhead {layers['trace.overhead']:+.1%}):")
    total = 0.0
    for layer in (*stats.LAYERS, "other"):
        share = layers["other_pct" if layer == "other" else f"{layer}.self_pct"]
        total += share
        print(f"    {layer:9s} {share * wall / 100:9.4f} s {share:6.1f} %")
    print(f"    {'total':9s} {total * wall / 100:9.4f} s {total:6.1f} %")
    for layer in stats.LAYERS + ("serve",):
        items = [f"{k.split('.', 1)[1]}={_fmt(v)}" for k, v in layers.items()
                 if k.startswith(layer + ".") and not k.endswith(".self_pct")]
        print(f"    {layer}: {', '.join(items)}")
    if summary.get("unmeasured"):
        print(f"    unmeasured hooks: {', '.join(summary['unmeasured'])}")
    if summary.get("suspended_calls"):
        print(f"    {summary['suspended_calls']} wrapped calls suspended and were not timed")


def chrome_trace(rounds: list[dict[str, Any]]) -> dict[str, Any]:
    """The first traced round's spans as Chrome trace_event JSON; every
    span carries the round's id."""
    r = next(r for r in rounds if "trace" in r)
    base = r["window"][0]
    hooks = r["trace"]["hooks"]
    events = [
        {"name": f"{hooks[i][0]}.{hooks[i][1]}", "cat": hooks[i][0], "ph": "X",
         "ts": (start - base) * 1e6, "dur": (end - start) * 1e6, "pid": 1, "tid": tid,
         "args": {"round": r["id"]}}
        for i, start, end, tid, _ in r["trace"]["spans"]
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def provenance(seed: int, order: list[str]) -> dict[str, Any]:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "seed": seed, "argv": sys.argv[1:], "round_order": order,
            "timeouts_s": {w.name: w.timeout_s for w in WORKLOADS.values()}}


def write_results(path: Path, seed: int, rounds: list[dict[str, Any]],
                  summaries: dict[str, Any]) -> None:
    raw = [{k: v for k, v in r.items() if k != "trace"} for r in rounds]
    data = {"provenance": provenance(seed, [r["id"] for r in rounds]),
            "rounds": raw, "workloads": summaries}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1))
    for name, summary in summaries.items():
        if summary["layers"]:
            mine = [r for r in rounds if r["workload"] == name]
            (OUT / f"trace-{name}.json").write_text(json.dumps(chrome_trace(mine)))
    print(f"\nwrote {path}")


# ----------------------------------------------------------------------
# Commands.
# ----------------------------------------------------------------------
def _play(entries: list[tuple[str, bool]], seed: int, pins: dict[str, str],
          rounds: list[dict[str, Any]]) -> None:
    for name, traced in entries:
        r = run_round(WORKLOADS[name], traced, seed, pins.get(name))
        r["id"] = f"{name}#{sum(x['workload'] == name for x in rounds)}{'T' if traced else ''}"
        if any(x["workload"] == name and "trace" in x for x in rounds):
            r.pop("trace", None)  # only the first traced round's spans are written out
        rounds.append(r)
        status = "ok" if r["failed"] == 0 else f"FAILED ({r['error']})"
        timing = (f"setup {r['setup_s']:.3f} s, wall {r['wall_s']:.3f} s, "
                  f"cpu {r['cpu_s']:.3f} s, rss {r['rss_mb']:.1f} MB, "
                  if r["failed"] == 0 else "")
        print(f"{r['id']:16s} {timing}{status}", flush=True)


def run_all(args: argparse.Namespace, pins: dict[str, str]) -> int:
    entries = [(w.name, False) for w in WORKLOADS.values() for _ in range(w.rounds)]
    if args.trace:
        entries += [(name, True) for name in WORKLOADS]
    random.Random(args.seed).shuffle(entries)
    rounds: list[dict[str, Any]] = []
    _play(entries, args.seed, pins, rounds)
    summaries = {name: summarize([r for r in rounds if r["workload"] == name])
                 for name in WORKLOADS}
    for name, summary in summaries.items():
        print_summary(name, summary)
    write_results(Path(args.out), args.seed, rounds, summaries)
    return 0 if all(s["failed"] == 0 for s in summaries.values()) else 1


def run_one(args: argparse.Namespace, pins: dict[str, str]) -> int:
    """Rounds of one workload until the next would end past ``--seconds``;
    with ``--trace 1`` untraced and traced rounds alternate."""
    name = args.workload
    rounds: list[dict[str, Any]] = []
    begin = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        _play([(name, traced)], args.seed, pins, rounds)
        if args.trace and len(rounds) < 2 and not rounds[0]["failed"]:
            continue  # the overhead needs an untraced and a traced round
        typical = statistics.median(r["duration_s"] for r in rounds)
        if time.monotonic() - begin + typical > args.seconds:
            break
    summary = summarize(rounds)
    print_summary(name, summary)
    write_results(Path(args.out), args.seed, rounds, {name: summary})
    if args.trace:
        values = summary["layers"]
        metrics = {k: {"value": values[k], "unit": m["unit"]}
                   for k, m in PER_LAYER.items() if k in values}
    else:
        metrics = {k: {"value": m["median"], "unit": m["unit"]}
                   for k, m in summary["metrics"].items()}
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def compare(a_path: str, b_path: str) -> int:
    """Per (workload, metric) verdicts of results file B against A."""
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (a_path, b_path))
    counts: dict[str, int] = {}
    print(f"{'workload':14s} {'metric':10s} {'A median':>10s} {'B median':>10s} "
          f"{'change':>8s}  verdict")
    for name in [n for n in a if n in b]:
        for metric, spec in E2E.items():
            sa, sb = a[name]["samples"].get(metric), b[name]["samples"].get(metric)
            if not sa or not sb:
                continue
            ma, mb = statistics.median(sa), statistics.median(sb)
            v = stats.verdict(sa, sb, spec["better"], spec["bound"])
            counts[v] = counts.get(v, 0) + 1
            print(f"{name:14s} {metric:10s} {ma:10.4f} {mb:10.4f} {mb / ma - 1:+8.1%}  {v}")
        fa, fb = a[name]["fail_rate"], b[name]["fail_rate"]
        v = stats.fail_verdict(fa, fb)
        counts[v] = counts.get(v, 0) + 1
        print(f"{name:14s} {'fail_rate':10s} {fa:10.4f} {fb:10.4f} {'':8s}  {v}")
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get(stats.WORSE) else 0


def pin() -> int:
    """Run each workload once and write its output digest to pins.json."""
    pins = {}
    rounds: list[dict[str, Any]] = []
    for name in WORKLOADS:
        _play([(name, False)], 0, {}, rounds)
        if rounds[-1]["failed"]:
            print(f"not pinned: {name} failed", file=sys.stderr)
            return 1
        pins[name] = rounds[-1]["digest"]
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {PINS}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=str(OUT / "results.json"))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("compare", help="judge results file B against A")
    p.add_argument("a")
    p.add_argument("b")
    sub.add_parser("pin", help="rewrite the pinned output digests")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return compare(args.a, args.b)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.command == "pin":
        return pin()
    pins = load_pins()
    return run_one(args, pins) if args.workload else run_all(args, pins)


if __name__ == "__main__":
    sys.exit(main())
