"""The built-in regression gates, one :class:`~.gates.GateSpec` each,
run by ``repro perf gate``.  Registered gates:

``tracing-overhead``
    Zero-cost-when-off contract of the flight recorder *and* host
    telemetry, asserted structurally in a fresh interpreter: an
    untraced run opens no span, records no wait-for edge and reads no
    host clock.
``plan-speedup``
    The shared TransferPlan cache must keep beating a plan compiled on
    every call, on a repeated pack/send workload in this process.
``exec-speedup``
    The exec layer's two wall-clock wins (``--jobs`` parallelism, warm
    result cache) plus byte-identity across all four run modes.  The
    parallel check is skipped (never faked) on a single-CPU host, and
    the parallel metrics are then marked informational.
``contention-overhead``
    The flat-topology bypass: 64 golden cells bit-identical through a
    cold and a warm store, and the bypass's wall-clock cost bounded.
``shm-overhead``
    The transport refactor's no-regression contract: the same 64
    golden cells bit-identical cold + warm, plus an all-on-node
    64-rank halo whose wall-clock with the shm transport stays within
    noise of the pre-refactor fabric path.
``kernel-speedup``
    A plan of thousands of runs must keep moving faster through its
    whole-plan table than through the per-run loop, byte-identically.
``serve-throughput``
    The sweep daemon under concurrent load: N clients submitting
    colliding grids must hit the in-flight dedup / result-store path
    (hit-rate floor), keep p99 request latency bounded, finish every
    request, and leave the daemon healthy.

Every gate measures this source tree alone; comparing revisions is
``bench/run.py``'s job.  Option keys are namespaced by gate
(``exec.min_cache_speedup``, ``plan.min_speedup``, ...): every gate
honours ``<ns>.repeats``, and only speed and latency floors take an
option.  Correctness checks (identity, goldens, store hits, server
health) have fixed thresholds, and workload sizes are module constants.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time

from .gates import GateCheck, GateContext, GateSpec, register

__all__ = ["STRUCTURAL_CHECK"]


# ======================================================================
# tracing-overhead
# ======================================================================
#: Structural check of every disabled hot path: an untraced run opens
#: no span on the shared null recorder, records no wait-for edge, and
#: leaves host telemetry off without one host-clock read —
#: `repro.obs.host._now` is the single funnel every host timestamp goes
#: through, so counting its invocations proves the telemetry-off path
#: never touches `perf_counter`.
STRUCTURAL_CHECK = """
from repro.core import TimingPolicy, run_pingpong, strided_for_bytes
from repro.obs import NULL_RECORDER, SpanRecorder
from repro.obs import host as host_mod
from repro.sim.trace import Tracer

assert host_mod.active is None, "host telemetry must default to off"
clock_calls = [0]
_real_now = host_mod._now
def _counting_now():
    clock_calls[0] += 1
    return _real_now()
host_mod._now = _counting_now

assert Tracer.wait_edges_enabled is False, "base Tracer must disable edge recording"
begin_calls = NULL_RECORDER.begin_calls
result = run_pingpong(
    "vector",
    strided_for_bytes(1_000_000),
    "skx-impi",
    policy=TimingPolicy(iterations=2, flush=True),
    materialize=False,
    trace=False,
)
tracer = result.tracer
assert not isinstance(tracer, SpanRecorder)
assert NULL_RECORDER.begin_calls == begin_calls, "untraced run opened spans"
assert tracer.wait_edges_enabled is False
assert tracer.wait_edges() == [], "untraced run recorded wait-for edges"

host_mod._now = _real_now
assert host_mod.active is None, "run flipped host telemetry on"
assert clock_calls[0] == 0, (
    f"telemetry-off run read the host clock {clock_calls[0]} times "
    "(the disabled path must never call perf_counter)"
)
print("structural OK")
"""


def _tracing_measure(ctx: GateContext) -> dict[str, float]:
    """Run :data:`STRUCTURAL_CHECK` in a fresh interpreter (in this
    process the engine's own host capture is the active one); a failed
    assertion fails the gate with its message."""
    proc = subprocess.run(
        [sys.executable, "-c", STRUCTURAL_CHECK],
        capture_output=True,
        text=True,
        cwd=ctx.repo,
        env={
            "PYTHONPATH": str(ctx.repo / "src"),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )
    if proc.returncode != 0:
        raise RuntimeError((proc.stderr.strip() or f"exit {proc.returncode}").splitlines()[-1])
    return {"structural_ok": 1.0 if proc.stdout.splitlines()[-1] == "structural OK" else 0.0}


register(
    GateSpec(
        name="tracing-overhead",
        title="flight recorder and host telemetry are zero-cost when off",
        ns="tracing",
        measure=_tracing_measure,
        checks=(
            GateCheck(
                name="structural",
                metric="structural_ok",
                op=">=",
                default_threshold=1.0,
            ),
        ),
    )
)


# ======================================================================
# plan-speedup
# ======================================================================
#: The hot loop the plan cache exists for: many calls over one
#: (datatype, count) pair.  Without the cache every call re-flattens
#: and re-summarizes the layout.
PLAN_NBLOCKS, PLAN_COUNT, PLAN_PACK_CALLS, PLAN_SENDS = 512, 4, 400, 200
#: Timed passes per half, after one warm-up pass; the best one counts.
PLAN_PASSES = 5


def _plan_best_seconds(vec, src, dst) -> float:
    """Best-of-:data:`PLAN_PASSES` wall seconds of one pass: the pack
    calls, then a two-rank job of derived-type sends."""
    import numpy as np

    from ..mpi import run_mpi
    from ..mpi.datatypes import pack_bytes

    def main(comm):
        if comm.rank == 0:
            for tag in range(PLAN_SENDS):
                comm.Send(src, dest=1, tag=tag, count=PLAN_COUNT, datatype=vec)
        else:
            buf = np.empty(PLAN_NBLOCKS * PLAN_COUNT, dtype=np.float64)
            for tag in range(PLAN_SENDS):
                comm.Recv(buf, source=0, tag=tag)

    def once() -> None:
        for _ in range(PLAN_PACK_CALLS):
            pack_bytes(src, vec, PLAN_COUNT, dst)
        run_mpi(main, 2, "skx-impi")

    once()  # warm-up (imports, platform registry, the cache)
    best = float("inf")
    for _ in range(PLAN_PASSES):
        t0 = time.perf_counter()
        once()
        best = min(best, time.perf_counter() - t0)
    return best


def _plan_measure(ctx: GateContext) -> dict[str, float]:
    """The workload with every lookup compiling its plan (a capacity-0
    cache stores nothing), then through the shared cache."""
    import numpy as np

    from ..mpi import DOUBLE, make_vector
    from ..mpi.datatypes import plan_cache_capacity

    vec = make_vector(PLAN_NBLOCKS, 1, 2, DOUBLE).commit()
    src = np.arange(2 * PLAN_NBLOCKS * PLAN_COUNT, dtype=np.float64)
    dst = np.zeros(PLAN_NBLOCKS * PLAN_COUNT, dtype=np.float64)
    with plan_cache_capacity(0):
        t_cold = _plan_best_seconds(vec, src, dst)
    t_cached = _plan_best_seconds(vec, src, dst)
    return {
        "cold_seconds": t_cold,
        "cached_seconds": t_cached,
        "speedup": t_cold / t_cached,
    }


register(
    GateSpec(
        name="plan-speedup",
        title="TransferPlan cache keeps paying for itself",
        ns="plan",
        measure=_plan_measure,
        default_repeats=5,
        checks=(
            GateCheck(
                name="plan-cache-speedup",
                metric="speedup",
                op=">=",
                threshold_option="plan.min_speedup",
                default_threshold=1.5,
            ),
        ),
    )
)


# ======================================================================
# exec-speedup
# ======================================================================
#: The exec gate times the default sweep of this platform four ways
#: (``repro sweep --platform skx-impi``: 13 sizes x 8 schemes), with
#: ``EXEC_JOBS`` workers in its parallel run.  Smaller batches barely
#: carry the pool's fork and join: on 2 vCPUs a 16-cell batch (0.5 and
#: 1 MB) ran its serial leg in ~0.2 s and read parallel speedups of
#: 1.13-1.43, against 1.34-1.66 for this one.
EXEC_PLATFORM = "skx-impi"
EXEC_JOBS = 2


def _exec_skip_parallel(ctx: GateContext) -> str | None:
    if ctx.cpus < 2:
        return f"single-CPU host ({ctx.cpus} usable CPU)"
    return None


def _exec_measure(ctx: GateContext) -> dict[str, float]:
    """One interleaved serial/parallel/cold-cache/warm-cache pass, plus
    the byte-identity contract across all four sweeps."""
    from ..core import SweepConfig, run_sweep
    from ..exec import Executor, ResultStore

    config = SweepConfig()

    def timed(executor: Executor):
        # Closing inside the timed region counts the parallel run's
        # worker fork and join, as a one-command run would.
        t0 = time.perf_counter()
        with executor:
            sweep = run_sweep(EXEC_PLATFORM, config, executor=executor)
        return time.perf_counter() - t0, sweep

    with tempfile.TemporaryDirectory(prefix="exec-bench-") as cache_root:
        store = ResultStore(cache_root)
        t_serial, s_serial = timed(Executor(jobs=1))
        t_parallel, s_parallel = timed(Executor(jobs=EXEC_JOBS))
        t_cold, s_cold = timed(Executor(jobs=1, cache=store))
        t_warm, s_warm = timed(Executor(jobs=1, cache=store))

    baseline = s_serial.to_dict()
    identical = all(
        sweep.to_dict() == baseline for sweep in (s_parallel, s_cold, s_warm)
    )
    return {
        "serial_seconds": t_serial,
        "parallel_seconds": t_parallel,
        "cold_cache_seconds": t_cold,
        "warm_cache_seconds": t_warm,
        "parallel_speedup": t_serial / t_parallel,
        "cache_speedup": t_serial / t_warm,
        "cache_overhead": t_cold / t_serial,
        "sweeps_identical": 1.0 if identical else 0.0,
    }


register(
    GateSpec(
        name="exec-speedup",
        title="exec layer: parallel and warm-cache wall-clock wins",
        ns="exec",
        measure=_exec_measure,
        default_repeats=3,
        checks=(
            GateCheck(
                name="identity",
                metric="sweeps_identical",
                op=">=",
                default_threshold=1.0,
            ),
            GateCheck(
                name="parallel",
                metric="parallel_speedup",
                op=">=",
                threshold_option="exec.min_parallel_speedup",
                default_threshold=1.1,
                skip=_exec_skip_parallel,
                informational=("parallel_seconds",),
            ),
            GateCheck(
                name="cache",
                metric="cache_speedup",
                op=">=",
                threshold_option="exec.min_cache_speedup",
                default_threshold=10.0,
            ),
        ),
    )
)


# ======================================================================
# contention-overhead
# ======================================================================
def _contention_layouts():
    from ..core import StridedLayout

    return {
        "small-2KB": StridedLayout(nblocks=256, blocklen=1, stride=2),
        "mid-1MB": StridedLayout(nblocks=125_000, blocklen=1, stride=2),
    }


def _golden_specs(with_topology: bool, *, small_only: bool = False):
    from ..core import PAPER_ORDER, TimingPolicy
    from ..exec import CellSpec
    from ..machine import get_platform
    from ..net import flat

    policy = TimingPolicy(iterations=3, flush=True)  # matches the capture run
    layouts = _contention_layouts()
    if small_only:
        layouts = {"small-2KB": layouts["small-2KB"]}
    specs = []
    for pname in ("skx-impi", "skx-mvapich2", "ls5-cray", "knl-impi"):
        platform = get_platform(pname)
        if with_topology:
            platform = platform.with_topology(flat())
        for lname, layout in layouts.items():
            for key in PAPER_ORDER:
                specs.append(
                    (
                        f"{pname}/{lname}/{key}",
                        CellSpec(
                            scheme=key,
                            layout=layout,
                            platform=platform,
                            policy=policy,
                            materialize=False,
                        ),
                    )
                )
    return specs


def _count_golden_mismatches(executor, golden) -> int:
    named = _golden_specs(with_topology=True)
    results = executor.run_batch([spec for _, spec in named])
    bad = 0
    for (name, _), cell in zip(named, results):
        got = {
            "time": cell.time.hex(),
            "virtual_time": cell.virtual_time.hex(),
            "events": cell.events,
        }
        if got != golden[name]:
            bad += 1
    return bad


def _golden_passes(ctx: GateContext) -> dict[str, float]:
    """Cold + warm passes of the 64 recorded golden cells through one
    result store: every scheme time and digest must stay bit-identical.
    Expensive, so run once per gate and cached in the scratch dict
    across the timing repeats."""
    cached = ctx.scratch.get("goldens")
    if cached is not None:
        return cached
    from ..exec import Executor, ResultStore

    golden = json.loads(
        (ctx.repo / "tests" / "core" / "golden_scheme_times.json").read_text()
    )
    with tempfile.TemporaryDirectory(prefix="golden-store-") as tmp:
        store = ResultStore(tmp)
        cold = Executor(cache=store)
        cold_bad = _count_golden_mismatches(cold, golden)
        warm = Executor(cache=store)
        warm_bad = _count_golden_mismatches(warm, golden)
        result = {
            "golden_mismatches": float(cold_bad + warm_bad),
            "unexpected_cold_hits": float(cold.cells_cached),
            "warm_reexecutions": float(warm.cells_executed),
            "golden_cells": float(len(golden)),
        }
    ctx.scratch["goldens"] = result
    return result


def _contention_time_sweep(with_topology: bool) -> float:
    from ..exec import Executor

    named = _golden_specs(with_topology, small_only=True)
    executor = Executor()  # no cache: every cell executes
    t0 = time.perf_counter()
    executor.run_batch([spec for _, spec in named])
    return time.perf_counter() - t0


def _contention_measure(ctx: GateContext) -> dict[str, float]:
    metrics = dict(_golden_passes(ctx))
    t_bare = _contention_time_sweep(with_topology=False)
    t_flat = _contention_time_sweep(with_topology=True)
    metrics.update(
        bare_seconds=t_bare, flat_seconds=t_flat, overhead=t_flat / t_bare
    )
    return metrics


register(
    GateSpec(
        name="contention-overhead",
        title="flat-topology bypass: bit-identical goldens, bounded cost",
        ns="contention",
        measure=_contention_measure,
        default_repeats=5,
        checks=(
            GateCheck(
                name="goldens",
                metric="golden_mismatches",
                op="<=",
                default_threshold=0.0,
                informational=("unexpected_cold_hits", "warm_reexecutions"),
            ),
            GateCheck(
                name="cold-store-misses",
                metric="unexpected_cold_hits",
                op="<=",
                default_threshold=0.0,
            ),
            GateCheck(
                name="warm-store-hits",
                metric="warm_reexecutions",
                op="<=",
                default_threshold=0.0,
            ),
            GateCheck(
                name="bypass-overhead",
                metric="overhead",
                op="<=",
                threshold_option="contention.max_overhead",
                default_threshold=1.2,
            ),
        ),
    )
)


# ======================================================================
# shm-overhead
# ======================================================================
#: Ranks of the all-on-node halo job.
SHM_RANKS = 64


def _shm_halo_setup():
    """The all-on-node halo: every rank of the job on one node, so all
    ring faces ride the shm transport when the model is attached and
    the (pre-refactor) fabric path when it is not."""
    from ..core.halo import HaloSpec
    from ..machine import get_platform
    from ..machine.network import default_shm_model
    from ..net import make_topology

    spec = HaloSpec(nx=64, ny=32, ghost=2, iterations=2)
    topo = make_topology(
        "fat-tree", SHM_RANKS, ranks_per_node=SHM_RANKS, placement="block"
    )
    plat_net = get_platform("skx-impi").with_topology(topo)
    return spec, plat_net, plat_net.with_shm(default_shm_model())


def _shm_time_halo(spec, nranks: int, platform) -> tuple[float, int]:
    """(wall seconds, shm sends) of one halo job on ``platform``."""
    from ..core.halo import halo_program
    from ..mpi.runtime import run_mpi

    program = halo_program(spec)
    t0 = time.perf_counter()
    job = run_mpi(program, nranks=nranks, platform=platform)
    elapsed = time.perf_counter() - t0
    return elapsed, int(job.metrics.counter("p2p.shm_sends").value)


def _shm_measure(ctx: GateContext) -> dict[str, float]:
    metrics = dict(_golden_passes(ctx))
    spec, plat_net, plat_shm = _shm_halo_setup()
    t_net, net_shm_sends = _shm_time_halo(spec, SHM_RANKS, plat_net)
    t_shm, shm_sends = _shm_time_halo(spec, SHM_RANKS, plat_shm)
    metrics.update(
        network_seconds=t_net,
        shm_seconds=t_shm,
        overhead=t_shm / t_net,
        shm_sends=float(shm_sends),
        network_shm_sends=float(net_shm_sends),
    )
    return metrics


register(
    GateSpec(
        name="shm-overhead",
        title="shm transport: bit-identical goldens, bounded halo cost",
        ns="shm",
        measure=_shm_measure,
        default_repeats=3,
        checks=(
            GateCheck(
                name="goldens",
                metric="golden_mismatches",
                op="<=",
                default_threshold=0.0,
                informational=("unexpected_cold_hits", "warm_reexecutions"),
            ),
            GateCheck(
                name="halo-overhead",
                metric="overhead",
                op="<=",
                threshold_option="shm.max_overhead",
                default_threshold=1.3,
            ),
            GateCheck(
                name="shm-exercised",
                metric="shm_sends",
                op=">=",
                default_threshold=1.0,
                informational=("network_shm_sends",),
            ),
        ),
    )
)


# ======================================================================
# kernel-speedup
# ======================================================================
#: Runs in the gate's plan, and timed calls per path (the best counts).
KERNEL_N_RUNS, KERNEL_INNER_REPEATS = 4096, 7


def _kernel_plan(n_runs: int):
    from ..mpi.datatypes.plan import TransferPlan
    from ..mpi.datatypes.runs import ContigRun, combine_patterns

    run_lengths, run_gap = (7, 13), 3
    runs = []
    offset = 0
    for i in range(n_runs):
        length = run_lengths[i % len(run_lengths)]
        runs.append(ContigRun(offset, length))
        offset += length + run_gap
    return TransferPlan(
        "bench-mixed-runs",
        1,
        sum(r.length for r in runs),
        runs,
        combine_patterns(runs),
    )


def _kernel_measure(ctx: GateContext) -> dict[str, float]:
    import numpy as np

    def best(fn) -> float:
        t_best = float("inf")
        for _ in range(KERNEL_INNER_REPEATS):
            t0 = time.perf_counter()
            fn()
            t_best = min(t_best, time.perf_counter() - t0)
        return t_best

    plan = _kernel_plan(KERNEL_N_RUNS)
    src = np.arange(plan.max_end, dtype=np.int64).view(np.uint8)[: plan.max_end].copy()
    packed_scalar = np.zeros(plan.nbytes, dtype=np.uint8)
    packed_batched = np.zeros(plan.nbytes, dtype=np.uint8)
    unpacked_scalar = np.zeros(plan.max_end, dtype=np.uint8)
    unpacked_batched = np.zeros(plan.max_end, dtype=np.uint8)

    # The reference: the per-run loop plans below BATCH_RUN_CUTOFF take.
    def gather_runs() -> None:
        written = 0
        for run in plan.runs:
            written += run.gather(src, packed_scalar, written)

    def scatter_runs() -> None:
        consumed = 0
        for run in plan.runs:
            consumed += run.scatter(packed_scalar, consumed, unpacked_scalar)

    # Warm both paths (the plan builds its table once) and check
    # byte-identity on the side.
    gather_runs()
    scatter_runs()
    plan.gather(src, packed_batched)
    plan.scatter(packed_batched, 0, unpacked_batched)
    bytes_identical = np.array_equal(packed_scalar, packed_batched) and np.array_equal(
        unpacked_scalar, unpacked_batched
    )

    t_gather_scalar = best(gather_runs)
    t_scatter_scalar = best(scatter_runs)
    t_gather_batched = best(lambda: plan.gather(src, packed_batched))
    t_scatter_batched = best(lambda: plan.scatter(packed_batched, 0, unpacked_batched))

    return {
        "gather_scalar_us": t_gather_scalar * 1e6,
        "gather_batched_us": t_gather_batched * 1e6,
        "scatter_scalar_us": t_scatter_scalar * 1e6,
        "scatter_batched_us": t_scatter_batched * 1e6,
        "gather_speedup": t_gather_scalar / t_gather_batched,
        "scatter_speedup": t_scatter_scalar / t_scatter_batched,
        "tiers_identical": 1.0 if bytes_identical else 0.0,
    }


register(
    GateSpec(
        name="kernel-speedup",
        title="whole-plan gather/scatter keeps beating the per-run loop, byte-identically",
        ns="kernels",
        measure=_kernel_measure,
        default_repeats=1,
        checks=(
            GateCheck(
                name="tier-identity",
                metric="tiers_identical",
                op=">=",
                default_threshold=1.0,
            ),
            GateCheck(
                name="gather",
                metric="gather_speedup",
                op=">=",
                threshold_option="kernels.min_gather_speedup",
                default_threshold=2.0,
            ),
            GateCheck(
                name="scatter",
                metric="scatter_speedup",
                op=">=",
                threshold_option="kernels.min_gather_speedup",
                default_threshold=2.0,
            ),
        ),
    )
)


# ======================================================================
# serve-throughput
# ======================================================================
#: Concurrent clients, and synchronized rounds each of them submits.
SERVE_CLIENTS, SERVE_ROUNDS = 4, 3


def _serve_requests(rounds: int) -> list:
    """The per-round request bodies: a shared hot grid in round 0, then
    a perturbed-eager-limit variant per later round — every round prices
    fresh digests while all clients inside a round collide on the same
    ones.  Round 1's limit flips only the 2048 B cells' eager choices
    against round 0's, and round 2's flips none, so the later rounds'
    cells are mostly ``equivalent``: shared from executed twins."""
    from ..serve import PlatformSpec, SweepRequest

    requests = []
    for index in range(rounds):
        eager = None if index == 0 else 7000 + index
        requests.append(
            SweepRequest(
                platforms=(PlatformSpec(name="ideal", eager_limit=eager),),
                sizes=(2048, 8192),
                schemes=("reference", "copying", "vector"),
                iterations=2,
                flush=False,
            )
        )
    return requests


def _serve_measure(ctx: GateContext) -> dict[str, float]:
    import threading

    from ..serve import ServeClient, ServerThread

    requests = _serve_requests(SERVE_ROUNDS)
    barrier = threading.Barrier(SERVE_CLIENTS)
    lock = threading.Lock()
    latencies: list[float] = []
    failures: list[str] = []

    tmp = tempfile.mkdtemp(prefix="repro-serve-gate-")
    try:
        with ServerThread(store_root=tmp) as server:

            def drive() -> None:
                client = ServeClient(server.url, timeout=120.0)
                for request in requests:
                    try:
                        # Synchronised release: all clients fire the
                        # round's request together, so the daemon sees
                        # genuinely concurrent identical submissions.
                        barrier.wait(timeout=60.0)
                        t0 = time.perf_counter()
                        client.request_json(
                            "POST", "/sweep?wait=1", request.to_json()
                        )
                        elapsed = time.perf_counter() - t0
                        with lock:
                            latencies.append(elapsed)
                    except Exception as exc:  # noqa: BLE001 - tallied below
                        barrier.abort()
                        with lock:
                            failures.append(f"{type(exc).__name__}: {exc}")
                        return

            threads = [threading.Thread(target=drive) for _ in range(SERVE_CLIENTS)]
            t_begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - t_begin
            healthy = ServeClient(server.url).healthy()
            stats = server.service.stats()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ordered = sorted(latencies)
    if ordered:
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        mean = sum(ordered) / len(ordered)
    else:  # every request failed: latency checks must fail loudly too
        p99 = mean = float("inf")
    return {
        "requests_total": float(len(latencies) + len(failures)),
        "requests_failed": float(len(failures)),
        "cells_served": float(stats["cells"]["served"]),
        "cells_recomputed": float(stats["cells"]["recomputed"]),
        "dedup_hit_rate": float(stats["dedup_hit_rate"] or 0.0),
        "p99_request_seconds": p99,
        "mean_request_seconds": mean,
        "requests_per_second": (len(latencies) / wall) if wall > 0 else 0.0,
        "server_ok": 1.0 if healthy else 0.0,
    }


register(
    GateSpec(
        name="serve-throughput",
        title="the sweep daemon dedups concurrent load and stays responsive",
        ns="serve",
        measure=_serve_measure,
        default_repeats=1,
        checks=(
            GateCheck(
                name="server-ok",
                metric="server_ok",
                op=">=",
                default_threshold=1.0,
            ),
            GateCheck(
                name="request-failures",
                metric="requests_failed",
                op="<=",
                default_threshold=0.0,
            ),
            GateCheck(
                name="dedup",
                metric="dedup_hit_rate",
                op=">=",
                threshold_option="serve.min_dedup_rate",
                default_threshold=0.5,
            ),
            GateCheck(
                name="p99-latency",
                metric="p99_request_seconds",
                op="<=",
                threshold_option="serve.max_p99_seconds",
                default_threshold=2.0,
            ),
        ),
    )
)
