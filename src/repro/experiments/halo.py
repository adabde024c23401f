"""Many-rank halo exchange on a topology-aware fabric.

The paper studies scheme choice on an isolated two-rank wire; this
experiment puts the same scheme families inside the production pattern
they exist for — a ghost-cell exchange at 8-256 ranks — and prices the
*shared* interconnect with the :mod:`repro.net` flow engine.  Each
scheme runs twice: on the selected topology (traced, so the critical
path can attribute ``contention`` and ``shm`` shares) and on the flat
fabric (the contention-free baseline the topology run is compared
against).

An oversubscribed configuration — several ranks per node placed
cyclically, so ring neighbors always sit on different nodes and every
face send crosses shared leaf/core links — shows a nonzero contention
share on the critical path; the flat baseline shows none, bit-equal to
the pre-fabric model.

With more than one rank per node the platform also gains the default
intra-node shm model, so co-located ring pairs (block placement, or
cyclic once ``nranks > nnodes``) leave the network entirely: their
face time shows up under the ``shm`` resource, and the per-regime
advice table prices every scheme twice — over the network transport
for off-node pairs and over the shm transport for on-node pairs —
so ``auto`` can resolve differently per regime.  Inside a run, ``auto``
prices the face once per world and regime, not once per rank.

Up to ten simulations run: five schemes, each on the topology and on
the flat fabric.  ``auto`` only prices on the host before its first
``Barrier`` and then runs its delegate's exchange, so when every rank
on both fabrics resolves to one delegate, the experiment asks
:func:`~repro.core.halo.auto_delegates` before submitting anything and
takes that delegate's two runs as the ``auto`` row: eight simulations.
The simulations are independent, so they fan out over the ambient
executor's worker pool (:meth:`~repro.exec.Executor.starmap`); a
serial executor (``--jobs 1``, or a library caller's default) runs
them in-process.  Either way the rows come out in ``HALO_SCHEMES``
order and bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.halo import (
    HALO_SCHEMES,
    HaloSpec,
    advise_face,
    auto_delegates,
    halo_program,
)
from ..exec import current_executor
from ..machine.network import default_shm_model
from ..machine.platform import Platform
from ..machine.registry import get_platform
from ..mpi.costs import CostModel
from ..mpi.runtime import run_mpi
from ..net import make_topology
from ..net.transport import NetworkTransport, ShmTransport
from ..obs import SpanOnlyRecorder
from ..obs.critical import extract_critical_path
from .base import ExperimentResult

__all__ = ["run_halo_experiment"]


@dataclass(frozen=True)
class _HaloRun:
    """What one simulation sends back to the experiment: plain data,
    never the job or its recorder."""

    virtual_time: float
    #: Critical-path ``contention`` and ``shm`` time (traced runs only).
    contention: float
    shm: float
    #: Ranks per delivering scheme, in rank order of first appearance.
    chosen: dict[str, int]


def _run_halo_job(
    spec: HaloSpec, nranks: int, platform: Platform, traced: bool
) -> _HaloRun:
    """Simulate one halo job (a worker entry point, hence module-level:
    the rank program is a closure and is built here, not shipped).
    A traced job records spans and the wait-for graph only: the
    critical path reads nothing else."""
    recorder = SpanOnlyRecorder() if traced else None
    job = run_mpi(halo_program(spec), nranks=nranks, platform=platform, tracer=recorder)
    contention = shm = 0.0
    if recorder is not None:
        by_resource = extract_critical_path(recorder, job.virtual_time).by_resource()
        contention, shm = by_resource["contention"], by_resource["shm"]
    chosen: dict[str, int] = {}
    for rank_result in job.results:
        chosen[rank_result.chosen] = chosen.get(rank_result.chosen, 0) + 1
    return _HaloRun(job.virtual_time, contention, shm, chosen)


def _ring_regimes(topo, nranks: int) -> tuple[int, int]:
    """(on-node, off-node) counts over the ring's directed face sends."""
    on = off = 0
    for rank in range(nranks):
        for nbr in ((rank - 1) % nranks, (rank + 1) % nranks):
            if topo.same_node(rank, nbr):
                on += 1
            else:
                off += 1
    return on, off


def run_halo_experiment(
    platform: str = "skx-impi",
    *,
    quick: bool = False,
    ranks: int | None = None,
    topology: str | None = None,
    ranks_per_node: int = 4,
    placement: str = "cyclic",
) -> ExperimentResult:
    """Halo-exchange scheme comparison under link contention.

    ``ranks``/``topology``/``ranks_per_node``/``placement`` come
    straight from the CLI; the defaults give a 16-rank (8 quick)
    exchange on an oversubscribed fat-tree with every face off-node.
    A ring needs ``ranks >= 2`` and nodes need ``ranks_per_node >= 1``;
    anything less raises :class:`ValueError` before any job runs.
    """
    nranks = ranks if ranks is not None else (8 if quick else 16)
    if nranks < 2:
        raise ValueError(f"halo exchange needs at least 2 ranks, got {nranks}")
    if ranks_per_node < 1:
        raise ValueError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
    kind = topology if topology is not None else "fat-tree"
    plat = get_platform(platform)
    spec = (
        HaloSpec(nx=64, ny=32, ghost=2, iterations=2)
        if quick
        else HaloSpec(nx=256, ny=64, ghost=4, iterations=3)
    )
    on_pairs = off_pairs = 0
    if kind == "flat":
        topo = None
        plat_topo = plat
    else:
        topo = make_topology(
            kind, nranks, ranks_per_node=ranks_per_node, placement=placement
        )
        plat_topo = plat.with_topology(topo)
        on_pairs, off_pairs = _ring_regimes(topo, nranks)
        # Attach the intra-node transport only when the exchange itself
        # has co-located faces; an all-off-node ring (the historical
        # default: cyclic placement dealing neighbors apart) keeps the
        # pre-transport fabric behaviour bit-for-bit.
        if on_pairs > 0:
            plat_topo = plat_topo.with_shm(default_shm_model())

    lines = [
        f"  {nranks} ranks, {spec.nx}x{spec.ny} doubles/rank, ghost {spec.ghost}, "
        f"{spec.iterations} round(s), faces of {spec.face_bytes:,} B",
        f"  topology: {topo.describe() if topo is not None else 'flat (no link sharing)'}",
    ]
    if topo is not None:
        lines.append(
            f"  face regimes: {on_pairs} on-node (shm), {off_pairs} off-node (network)"
        )
    lines += [
        "",
        f"  {'scheme':16s} {'flat':>12s} {'topology':>12s} {'ratio':>7s} "
        f"{'contention':>12s} {'share':>7s} {'shm':>7s}",
    ]
    data: dict[str, dict[str, float]] = {}
    contention_found = False
    shm_found = False
    auto_choices: dict[str, int] = {}
    # ``auto`` adds no virtual time to its delegate's exchange: when
    # every rank on both fabrics resolves to one delegate, that
    # delegate's runs are the auto runs, and auto is not simulated.
    delegates = {
        *auto_delegates(spec, plat_topo, nranks),
        *auto_delegates(spec, plat, nranks),
    }
    reused = delegates.pop() if len(delegates) == 1 else None
    simulated = [s for s in HALO_SCHEMES if s != "auto" or reused is None]
    # Each scheme's traced topology run is submitted before its flat
    # run: the topology runs cost several times more, so queuing them
    # first keeps the pool's last wave short.
    runs = current_executor().starmap(
        _run_halo_job,
        [
            (spec.with_scheme(scheme), nranks, job_plat, traced)
            for scheme in simulated
            for job_plat, traced in ((plat_topo, True), (plat, False))
        ],
    )
    by_scheme = dict(zip(simulated, zip(runs[0::2], runs[1::2])))
    if reused is not None:
        by_scheme["auto"] = by_scheme[reused]
    for scheme in HALO_SCHEMES:
        topo_run, flat_run = by_scheme[scheme]
        if scheme == "auto":
            auto_choices = topo_run.chosen
        contention = topo_run.contention
        shm_time = topo_run.shm
        total = topo_run.virtual_time
        share = contention / total if total else 0.0
        shm_share = shm_time / total if total else 0.0
        if contention > 0.0:
            contention_found = True
        if shm_time > 0.0:
            shm_found = True
        data[scheme] = {
            "flat": flat_run.virtual_time,
            "topology": topo_run.virtual_time,
            "contention": contention,
            "shm": shm_time,
        }
        lines.append(
            f"  {scheme:16s} {flat_run.virtual_time:>12.4g} {topo_run.virtual_time:>12.4g} "
            f"{topo_run.virtual_time / flat_run.virtual_time:>6.2f}x "
            f"{contention * 1e6:>10.2f}us {share:>6.1%} {shm_share:>6.1%}"
        )

    # Per-regime scheme pricing: the same face datatype advised over
    # each reachable transport, so the table shows *which* scheme wins
    # on-node vs off-node and what ``auto`` resolves to in each regime.
    regimes: dict[str, dict[str, object]] = {}
    if topo is not None and plat_topo.shm_reachable:
        transports = {
            "off-node": NetworkTransport(CostModel(plat_topo)),
            "on-node": ShmTransport(plat_topo.shm, plat_topo.memory),
        }
        lines += ["", f"  per-regime face advice ({spec.face_bytes:,} B faces):"]
        for regime, transport in transports.items():
            advice = advise_face(spec, plat_topo, transport)
            table = ", ".join(
                f"{p.key} {p.modeled_time * 1e6:.2f}us" for p in advice.prices
            )
            lines.append(f"    {regime:9s} auto({advice.chosen})  [{table}]")
            regimes[regime] = {
                "transport": advice.transport,
                "auto": advice.chosen,
                "prices": {p.key: p.modeled_time for p in advice.prices},
            }
        resolved = ", ".join(
            f"auto({key}) x{count}" for key, count in sorted(auto_choices.items())
        )
        lines.append(f"    in the run: {resolved}")

    if topo is None:
        passed = True
        verdict = "flat fabric: contention engine off, closed-form pricing only"
    elif on_pairs > 0:
        # Co-located faces: the interesting signal is the shm share
        # (link contention may legitimately vanish once most traffic
        # leaves the fabric).
        passed = shm_found
        verdict = (
            "critical path attributes an shm share to co-located faces"
            if shm_found
            else "no shm time observed despite co-located faces"
        )
        if contention_found:
            verdict += " plus link contention on the off-node remainder"
    else:
        passed = contention_found
        verdict = (
            "critical path attributes a nonzero contention share"
            if contention_found
            else "no contention observed (fabric not oversubscribed?)"
        )
    return ExperimentResult(
        exp_id="halo",
        title=(
            f"Halo exchange at {nranks} ranks on {platform} "
            f"({kind}, {ranks_per_node} rank(s)/node, {placement})"
        ),
        passed=passed,
        summary=f"{len(HALO_SCHEMES)} schemes compared against the flat baseline; {verdict}",
        details="\n".join(lines),
        data={
            "ranks": nranks,
            "topology": kind,
            "schemes": data,
            "regimes": regimes,
            "auto_choices": auto_choices,
            "on_node_faces": on_pairs,
            "off_node_faces": off_pairs,
        },
    )
