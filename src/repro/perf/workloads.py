"""The built-in regression gates, one :class:`~.gates.GateSpec` each,
run by ``repro perf gate|record``.  Registered gates:

``tracing-overhead``
    Zero-cost-when-off contract of the flight recorder *and* host
    telemetry: a structural leg (no wait edges, no host events, zero
    host-clock reads while disabled) plus a timed comparison against a
    base revision in a git worktree.
``plan-speedup``
    The TransferPlan cache must keep beating the base revision on a
    repeated pack/send workload.
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

Option keys are namespaced by gate (``exec.min_cache_speedup``,
``tracing.threshold``, ...); every gate honours ``<ns>.repeats`` and
declares the workload keys it reads in ``GateSpec.options``.  Only
speed and latency floors take an option: correctness checks (identity,
goldens, store hits, server health) have fixed thresholds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from .gates import GateCheck, GateContext, GateSpec, register

__all__ = [
    "STRUCTURAL_CHECK",
    "TIMING_WORKLOAD_TRACING",
    "TIMING_WORKLOAD_PLAN",
]


# ======================================================================
# Shared subprocess / worktree helpers (the two base-revision gates).
# ======================================================================
def _run(cmd: list[str], **kwargs: Any) -> str:
    return subprocess.run(
        cmd, check=True, capture_output=True, text=True, **kwargs
    ).stdout.strip()


def _time_snippet(tree: Path, snippet: str) -> float:
    out = _run(
        [sys.executable, "-c", snippet],
        cwd=tree,
        env={"PYTHONPATH": str(tree / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    return float(out.splitlines()[-1])


def _default_base(repo: Path) -> str:
    """Merge-base with origin/main when it exists, else the parent."""
    for candidate in ("origin/main", "main"):
        try:
            base = _run(["git", "merge-base", "HEAD", candidate], cwd=repo)
        except (OSError, subprocess.CalledProcessError):
            continue
        head = _run(["git", "rev-parse", "HEAD"], cwd=repo)
        if base != head:
            return base
    return "HEAD~1"


def _setup_worktree(ctx: GateContext, ns: str) -> None:
    """Check the base revision out into a temp worktree (one-time)."""
    base = ctx.opt_str(f"{ns}.base", None) or _default_base(ctx.repo)
    worktree = Path(tempfile.mkdtemp(prefix=f"{ns}-base-"))
    _run(["git", "worktree", "add", "--detach", str(worktree), base], cwd=ctx.repo)
    ctx.scratch["worktree"] = worktree
    ctx.scratch["base_rev"] = _run(["git", "rev-parse", "HEAD"], cwd=worktree)


def _teardown_worktree(ctx: GateContext, ns: str) -> None:
    worktree = ctx.scratch.pop("worktree", None)
    if worktree is None:
        return
    subprocess.run(
        ["git", "worktree", "remove", "--force", str(worktree)],
        cwd=ctx.repo,
        capture_output=True,
    )
    shutil.rmtree(worktree, ignore_errors=True)


# ======================================================================
# tracing-overhead
# ======================================================================
#: Runs in both trees; prints one float (best-of-run wall seconds).
#: Keep this limited to APIs the base revision already has.
TIMING_WORKLOAD_TRACING = """
import time
from repro.core import TimingPolicy, run_pingpong, strided_for_bytes

def once():
    for key in ("reference", "vector", "packing-vector", "buffered", "onesided"):
        for nbytes in (4_096, 1_000_000):
            run_pingpong(
                key,
                strided_for_bytes(nbytes),
                "skx-impi",
                policy=TimingPolicy(iterations=25, flush=True),
                materialize=False,
                trace=False,
            )

once()  # warm-up (imports, platform registry)
times = []
for _ in range(3):
    t0 = time.perf_counter()
    once()
    times.append(time.perf_counter() - t0)
print(min(times))
"""


#: Head-tree-only structural check of every disabled hot path: no wait
#: edges from the flight recorder, AND no host-telemetry records or
#: host-clock reads — `repro.obs.host._now` is the single funnel every
#: host timestamp goes through, so counting its invocations proves the
#: telemetry-off path never touches `perf_counter`.
STRUCTURAL_CHECK = """
from repro.core import TimingPolicy, run_pingpong, strided_for_bytes
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
result = run_pingpong(
    "vector",
    strided_for_bytes(1_000_000),
    "skx-impi",
    policy=TimingPolicy(iterations=2, flush=True),
    materialize=False,
    trace=False,
)
tracer = result.tracer
assert not isinstance(tracer, __import__("repro.obs", fromlist=["SpanRecorder"]).SpanRecorder)
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


def _tracing_setup(ctx: GateContext) -> None:
    out = _run(
        [sys.executable, "-c", STRUCTURAL_CHECK],
        cwd=ctx.repo,
        env={
            "PYTHONPATH": str(ctx.repo / "src"),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )
    ctx.scratch["structural_ok"] = 1.0 if out.splitlines()[-1] == "structural OK" else 0.0
    _setup_worktree(ctx, "tracing")


def _tracing_measure(ctx: GateContext) -> dict[str, float]:
    """One interleaved base/head timing (base first, so drifting load
    biases neither side across repeats)."""
    worktree: Path = ctx.scratch["worktree"]
    t_base = _time_snippet(worktree, TIMING_WORKLOAD_TRACING)
    t_head = _time_snippet(ctx.repo, TIMING_WORKLOAD_TRACING)
    return {
        "base_seconds": t_base,
        "head_seconds": t_head,
        "overhead": (t_head - t_base) / t_base,
        "structural_ok": ctx.scratch["structural_ok"],
    }


register(
    GateSpec(
        name="tracing-overhead",
        title="flight recorder and host telemetry are zero-cost when off",
        ns="tracing",
        measure=_tracing_measure,
        setup=_tracing_setup,
        teardown=lambda ctx: _teardown_worktree(ctx, "tracing"),
        default_repeats=5,
        options=("tracing.base",),
        describe=lambda ctx: {
            "base_rev": ctx.scratch.get("base_rev", "unknown"),
            "workload": "10 untraced pingpong cells, 25 iterations, best of 3",
        },
        checks=(
            GateCheck(
                name="structural",
                metric="structural_ok",
                op=">=",
                default_threshold=1.0,
            ),
            GateCheck(
                name="untraced-overhead",
                metric="overhead",
                op="<=",
                threshold_option="tracing.threshold",
                default_threshold=0.05,
            ),
        ),
    )
)


# ======================================================================
# plan-speedup
# ======================================================================
#: The hot loop the plan cache exists for: many calls over one
#: (datatype, count) pair, where the pre-plan tree re-flattens and
#: re-summarizes the layout on every call.
TIMING_WORKLOAD_PLAN = """
import time
import numpy as np
from repro.mpi import DOUBLE, make_vector, run_mpi
from repro.mpi.datatypes import pack_bytes

NBLOCKS, COUNT, PACK_CALLS, SENDS = 512, 4, 400, 200
vec = make_vector(NBLOCKS, 1, 2, DOUBLE).commit()
src = np.arange(2 * NBLOCKS * COUNT, dtype=np.float64)
dst = np.zeros(NBLOCKS * COUNT, dtype=np.float64)


def once():
    for _ in range(PACK_CALLS):
        pack_bytes(src, vec, COUNT, dst)

    def main(comm):
        if comm.rank == 0:
            for tag in range(SENDS):
                comm.Send(src, dest=1, tag=tag, count=COUNT, datatype=vec)
        else:
            buf = np.empty(NBLOCKS * COUNT, dtype=np.float64)
            for tag in range(SENDS):
                comm.Recv(buf, source=0, tag=tag)

    run_mpi(main, 2, "skx-impi")


once()  # warm-up (imports, platform registry, caches)
times = []
for _ in range(5):
    t0 = time.perf_counter()
    once()
    times.append(time.perf_counter() - t0)
print(min(times))
"""


def _plan_measure(ctx: GateContext) -> dict[str, float]:
    worktree: Path = ctx.scratch["worktree"]
    t_base = _time_snippet(worktree, TIMING_WORKLOAD_PLAN)
    t_head = _time_snippet(ctx.repo, TIMING_WORKLOAD_PLAN)
    return {
        "base_seconds": t_base,
        "head_seconds": t_head,
        "speedup": t_base / t_head,
    }


register(
    GateSpec(
        name="plan-speedup",
        title="TransferPlan cache keeps paying for itself",
        ns="plan",
        measure=_plan_measure,
        setup=lambda ctx: _setup_worktree(ctx, "plan"),
        teardown=lambda ctx: _teardown_worktree(ctx, "plan"),
        default_repeats=5,
        options=("plan.base",),
        describe=lambda ctx: {
            "base_rev": ctx.scratch.get("base_rev", "unknown"),
            "workload": "repeated derived-type pack_bytes + Send over one "
            "(datatype, count) pair",
        },
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
def _exec_sizes(ctx: GateContext) -> tuple[int, ...]:
    raw = ctx.opt_str("exec.sizes", "500000,1000000") or ""
    return tuple(int(s) for s in raw.split(",") if s)


def _exec_config(ctx: GateContext):
    from ..core import SweepConfig, TimingPolicy

    return SweepConfig(
        sizes=_exec_sizes(ctx),
        policy=TimingPolicy(
            iterations=ctx.opt_int("exec.iterations", 20) or 20, flush=True
        ),
    )


def _exec_skip_parallel(ctx: GateContext) -> str | None:
    if ctx.cpus < 2:
        return f"single-CPU host ({ctx.cpus} usable CPU)"
    return None


def _exec_measure(ctx: GateContext) -> dict[str, float]:
    """One interleaved serial/parallel/cold-cache/warm-cache pass, plus
    the byte-identity contract across all four sweeps."""
    from ..core import run_sweep
    from ..exec import Executor, ResultStore

    config = _exec_config(ctx)
    platform = ctx.opt_str("exec.platform", "skx-impi") or "skx-impi"
    jobs = ctx.opt_int("exec.jobs", 2) or 2
    chunk_size = ctx.opt_int("exec.chunk_size", None)

    def timed(executor: Executor):
        # Closing inside the timed region counts the parallel run's
        # worker fork and join, as a one-command run would.
        t0 = time.perf_counter()
        with executor:
            sweep = run_sweep(platform, config, executor=executor)
        return time.perf_counter() - t0, sweep

    with tempfile.TemporaryDirectory(prefix="exec-bench-") as cache_root:
        store = ResultStore(cache_root)
        t_serial, s_serial = timed(Executor(jobs=1))
        t_parallel, s_parallel = timed(Executor(jobs=jobs, chunk_size=chunk_size))
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


def _exec_describe(ctx: GateContext) -> dict[str, Any]:
    config = _exec_config(ctx)
    return {
        "workload": f"{len(config.schemes)} schemes x {list(config.sizes)} B, "
        f"{config.policy.iterations} iterations, flushed, materialized",
        "platform": ctx.opt_str("exec.platform", "skx-impi"),
        "jobs": ctx.opt_int("exec.jobs", 2),
        "chunk_size": ctx.opt_int("exec.chunk_size", None),
        "cpus": ctx.cpus,
    }


register(
    GateSpec(
        name="exec-speedup",
        title="exec layer: parallel and warm-cache wall-clock wins",
        ns="exec",
        measure=_exec_measure,
        describe=_exec_describe,
        default_repeats=3,
        options=(
            "exec.sizes", "exec.iterations", "exec.platform", "exec.jobs", "exec.chunk_size"
        ),
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
        describe=lambda ctx: {
            "workload": "64 golden cells (cold + warm store) and the "
            "small-layout sweep with/without the flat topology"
        },
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
def _shm_halo_setup(ctx: GateContext):
    """The all-on-node halo: every rank of the job on one node, so all
    ring faces ride the shm transport when the model is attached and
    the (pre-refactor) fabric path when it is not."""
    from ..core.halo import HaloSpec
    from ..machine import get_platform
    from ..machine.network import default_shm_model
    from ..net import make_topology

    nranks = ctx.opt_int("shm.ranks", 64) or 64
    spec = HaloSpec(nx=64, ny=32, ghost=2, iterations=2)
    topo = make_topology(
        "fat-tree", nranks, ranks_per_node=nranks, placement="block"
    )
    plat_net = get_platform("skx-impi").with_topology(topo)
    return nranks, spec, plat_net, plat_net.with_shm(default_shm_model())


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
    nranks, spec, plat_net, plat_shm = _shm_halo_setup(ctx)
    t_net, net_shm_sends = _shm_time_halo(spec, nranks, plat_net)
    t_shm, shm_sends = _shm_time_halo(spec, nranks, plat_shm)
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
        options=("shm.ranks",),
        describe=lambda ctx: {
            "workload": "64 golden cells (cold + warm store) and an "
            "all-on-node 64-rank halo with/without the shm transport"
        },
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

    inner = ctx.opt_int("kernels.inner_repeats", 7) or 7
    n_runs = ctx.opt_int("kernels.n_runs", 4096) or 4096

    def best(fn) -> float:
        t_best = float("inf")
        for _ in range(inner):
            t0 = time.perf_counter()
            fn()
            t_best = min(t_best, time.perf_counter() - t0)
        return t_best

    plan = _kernel_plan(n_runs)
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
        options=("kernels.inner_repeats", "kernels.n_runs"),
        describe=lambda ctx: {
            "workload": f"{ctx.opt_int('kernels.n_runs', 4096)} contiguous runs "
            "(gather/scatter)"
        },
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
def _serve_requests(rounds: int) -> list:
    """The per-round request bodies: a shared hot grid in round 0, then
    a perturbed-eager-limit variant per later round — every round prices
    fresh digests while all clients inside a round collide on the same
    ones."""
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

    clients = ctx.opt_int("serve.clients", 4)
    rounds = ctx.opt_int("serve.rounds", 3)
    requests = _serve_requests(rounds)
    barrier = threading.Barrier(clients)
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

            threads = [threading.Thread(target=drive) for _ in range(clients)]
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
        options=("serve.clients", "serve.rounds"),
        describe=lambda ctx: {
            "workload": f"{ctx.opt_int('serve.clients', 4)} concurrent clients "
            f"x {ctx.opt_int('serve.rounds', 3)} synchronized rounds of a "
            "6-cell ideal-platform grid (hot round 0, perturbed eager "
            "limits after)"
        },
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
