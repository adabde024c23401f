"""Command-line interface: ``python -m repro <command>``.

Commands
--------
platforms            list the calibrated platforms
schemes              list the eight send schemes
sweep                run a scheme x size sweep on one platform
figure               regenerate one paper figure (fig1..fig4)
experiment           run an in-text experiment or ablation by id
claims               run the claim checks against a fresh sweep
report               regenerate EXPERIMENTS.md (all figures + experiments)
trace                print the protocol timeline of one ping-pong
explain              critical-path verdicts: bounding resource + what-ifs
advise               price every send scheme for a layout, recommend one
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis.claims import check_platform_claims
from .analysis.figures import FIGURES, generate_figure
from .analysis.report import build_report
from .analysis.tables import render_table
from .core.schemes import ALL_SCHEME_KEYS, PAPER_ORDER, SCHEME_CLASSES
from .core.sweep import SweepConfig, default_message_sizes
from .core.timing import TimingPolicy
from .core.runner import run_sweep
from .exec import Executor, ResultStore, using_executor
from .experiments.registry import EXPERIMENTS, run_experiment
from .machine.registry import get_platform, list_platforms
from .net import TOPOLOGY_KINDS

__all__ = ["main", "build_parser"]


def _executor_from(args: argparse.Namespace) -> Executor | None:
    """Build the command's executor from ``--jobs``/``--no-cache``
    (``None`` for commands without execution options)."""
    if not hasattr(args, "jobs"):
        return None
    cache = None if args.no_cache else ResultStore()
    return Executor(jobs=args.jobs, cache=cache,
                    chunk_size=getattr(args, "chunk_size", None))


def _bounded_int(text: str, requirement: str, minimum: int,
                 maximum: int | None = None) -> int:
    """Parse an argparse int in ``[minimum, maximum]`` (no upper bound
    when ``maximum`` is None)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum or (maximum is not None and value > maximum):
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    return _bounded_int(text, "a positive integer", 1)


def _non_negative_int(text: str) -> int:
    """argparse type for byte bounds and counts that may be zero."""
    return _bounded_int(text, "non-negative", 0)


def _ring_ranks(text: str) -> int:
    """argparse type for halo rank counts: a ring needs two ranks."""
    return _bounded_int(text, "at least 2 (a halo ring needs two ranks)", 2)


def _port(text: str) -> int:
    """argparse type for a TCP port (0 picks a free one)."""
    return _bounded_int(text, "a port in [0, 65535]", 0, 65535)


def _unit_fraction(text: str) -> float:
    """argparse type for a fraction in [0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {value}")
    return value


def _input_path(text: str) -> str:
    """argparse type for a file the command reads: it must exist."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not path.exists():
        raise argparse.ArgumentTypeError(f"{text!r} does not exist")
    return text


def _output_path(text: str) -> str:
    """argparse type for a file the command writes: its directory must
    exist, so a bad path fails before the work instead of after it."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"directory {str(path.parent)!r} does not exist")
    return text


def _default_jobs() -> int:
    """One worker per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _progress(scheme: str, size: int, time: float) -> None:
    print(f"  {scheme:16s} {size:>12,} B  ->  {time:.4g} s", flush=True)


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    schemes = tuple(args.schemes) if args.schemes else PAPER_ORDER
    if args.quick:
        return SweepConfig.quick(schemes=schemes)
    sizes = default_message_sizes(args.min_bytes, args.max_bytes, args.per_decade)
    return SweepConfig(
        sizes=tuple(sizes),
        schemes=schemes,
        policy=TimingPolicy(iterations=args.iterations, flush=not args.no_flush),
    )


def cmd_platforms(args: argparse.Namespace) -> int:
    for name in list_platforms():
        print(get_platform(name).describe())
        print()
    return 0


def cmd_schemes(args: argparse.Namespace) -> int:
    for key in ALL_SCHEME_KEYS:
        cls = SCHEME_CLASSES[key]
        doc = (cls.__doc__ or "").strip().splitlines()[0] if cls.__doc__ else ""
        print(f"{key:18s} {cls.label:12s} {doc}")
    return 0


def _sweep_runner(args: argparse.Namespace):
    """``run_sweep``, or a daemon-bound client runner under
    ``--submit URL`` (served sweeps are bit-identical to local ones)."""
    if getattr(args, "submit", None):
        from .serve import remote_runner

        return remote_runner(args.submit)
    return run_sweep


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _sweep_config(args)
    result = _sweep_runner(args)(
        args.platform, config, progress=_progress if args.verbose else None
    )
    print(render_table(result, args.table))
    if not result.all_verified():
        print("WARNING: payload verification failed for some cells", file=sys.stderr)
        return 1
    if args.out:
        result.save(args.out)
        print(f"saved sweep to {args.out}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    config = _sweep_config(args)
    runner = _sweep_runner(args)
    bundle = generate_figure(
        args.figure,
        config,
        progress=_progress if args.verbose else None,
        runner=None if runner is run_sweep else runner,
    )
    print(bundle.render(charts=not args.no_charts))
    if args.out:
        bundle.sweep.save(args.out)
        print(f"saved sweep to {args.out}")
    return 0


#: ``repro experiment`` fabric flags as (flag, dest); only halo takes them.
_FABRIC_FLAGS = (
    ("--ranks", "ranks"),
    ("--topology", "topology"),
    ("--ranks-per-node", "ranks_per_node"),
    ("--placement", "placement"),
)


def cmd_experiment(args: argparse.Namespace) -> int:
    kwargs = {
        dest: getattr(args, dest)
        for _, dest in _FABRIC_FLAGS
        if getattr(args, dest) is not None
    }
    result = run_experiment(args.experiment, quick=args.quick, **kwargs)
    print(result.render())
    return 0 if result.passed is not False else 1


def cmd_claims(args: argparse.Namespace) -> int:
    config = _sweep_config(args)
    sweep = _sweep_runner(args)(
        args.platform, config, progress=_progress if args.verbose else None
    )
    checks = check_platform_claims(sweep)
    for check in checks:
        print(check)
    failed = [c for c in checks if not c.passed]
    print(f"\n{len(checks) - len(failed)}/{len(checks)} claims passed")
    return 1 if failed else 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .analysis.timeline import render_attribution, render_timeline
    from .core.layout import strided_for_bytes
    from .core.schemes import SchemeContext, make_scheme
    from .machine.registry import get_platform as _gp
    from .mpi.runtime import run_mpi as _rm
    from .obs import attribute_phases, chrome_trace, write_chrome_trace

    layout = strided_for_bytes(args.bytes)
    ctx = SchemeContext(layout=layout, materialize=False)
    sender = make_scheme(args.scheme)
    receiver = make_scheme(args.scheme)

    def main(comm):
        if comm.rank == 0:
            sender.setup_sender(comm, ctx)
            comm.Barrier()
            sender.iteration_sender(comm)
            comm.Barrier()
            sender.teardown_sender(comm, ctx)
        else:
            receiver.setup_receiver(comm, ctx)
            comm.Barrier()
            receiver.iteration_receiver(comm)
            comm.Barrier()
            receiver.teardown_receiver(comm, ctx)

    job = _rm(main, 2, _gp(args.platform), trace=True)
    critical = None
    if args.critical:
        from .obs import extract_critical_path

        critical = extract_critical_path(job.tracer, job.virtual_time)
    if args.chrome:
        # Raw Chrome trace JSON on stdout, for piping into a file or
        # straight into Perfetto.  --json still writes its file.
        print(json.dumps(chrome_trace(job.tracer, critical_path=critical),
                         indent=1, sort_keys=True))
        if args.json:
            write_chrome_trace(job.tracer, args.json, critical_path=critical)
        return 0
    print(f"one {args.scheme} ping-pong of {layout.message_bytes:,} B on {args.platform}:")
    print()
    print(render_timeline(job.tracer))
    print()
    print("cost attribution:")
    print()
    print(render_attribution(attribute_phases(job.tracer, job.virtual_time),
                             job.virtual_time))
    if critical is not None:
        from .analysis.timeline import render_critical_path

        print()
        print("critical path:")
        print()
        print(render_critical_path(critical))
    if args.json:
        write_chrome_trace(job.tracer, args.json, critical_path=critical)
        print(f"\nwrote Chrome trace to {args.json} (load in chrome://tracing or Perfetto)")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .analysis.explain import explain_scheme
    from .analysis.timeline import render_critical_path, render_explanation
    from .obs.critical import resource_legend

    schemes = tuple(args.schemes) if args.schemes else PAPER_ORDER
    print(
        f"critical-path explanation: {args.bytes:,} B ping-pong on {args.platform}"
        + (" (validating what-ifs against re-runs)" if args.validate else "")
    )
    # Derived from the blame tables, so a new resource (e.g. shm)
    # appears here without touching the CLI.
    print("resources:")
    for line in resource_legend():
        print(f"  {line}")
    print()
    worst_error = 0.0
    for key in schemes:
        explanation = explain_scheme(
            key, args.platform, args.bytes, validate=args.validate
        )
        print(render_explanation(explanation))
        if args.path:
            print()
            print(render_critical_path(explanation.path))
        print()
        for w in explanation.whatifs:
            if w.error is not None:
                worst_error = max(worst_error, w.error)
    if args.validate:
        print(f"worst what-if prediction error: {worst_error:.2%}")
        return 0 if worst_error <= 0.05 else 1
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from .core.layout import IrregularLayout, strided_for_bytes
    from .core.advise import advise_datatype

    base = strided_for_bytes(args.bytes, blocklen=args.blocklen, stride=args.stride)
    if args.datatype == "indexed":
        layout = IrregularLayout(nblocks=base.nblocks, blocklen=base.blocklen,
                                 stride=base.stride, jitter=args.jitter)
        dtype = layout.make_datatype()
    elif args.datatype == "subarray":
        dtype = base.make_subarray_datatype()
    else:
        dtype = base.make_datatype()
    transport, transport_note = _advise_transport(args)
    try:
        advice = advise_datatype(
            dtype, count=args.count, platform=args.platform, transport=transport
        )
    finally:
        dtype.free()
    print(advice.render())
    print(f"transport: {advice.transport}{transport_note}")
    return 0


def _advise_transport(args: argparse.Namespace):
    """Resolve ``--ranks-per-node/--placement`` into the transport the
    advise pricing should run on: the shm transport when the described
    placement co-locates the communicating pair (ranks 0 and 1), the
    network (``None`` — historical pricing) otherwise."""
    ranks_per_node = getattr(args, "ranks_per_node", None)
    if not ranks_per_node or ranks_per_node <= 1:
        return None, ""
    from .machine.network import default_shm_model
    from .machine.registry import get_platform
    from .net import make_topology
    from .net.transport import ShmTransport

    placement = getattr(args, "placement", None) or "block"
    # The advised ping-pong is a two-rank pair; two nodes' worth of
    # ranks is enough for the placement to decide their co-location
    # (block keeps 0 and 1 together, cyclic deals them apart).
    topo = make_topology(
        "fat-tree", 2 * ranks_per_node, ranks_per_node=ranks_per_node,
        placement=placement,
    )
    plat = get_platform(args.platform)
    if topo.same_node(0, 1):
        shm = plat.shm if plat.shm is not None else default_shm_model()
        return (
            ShmTransport(shm, plat.memory),
            f" (ranks 0-1 co-located: {placement}, {ranks_per_node} ranks/node)",
        )
    return None, f" (ranks 0-1 on different nodes: {placement} placement)"


def cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.compare import compare_sweeps
    from .core.results import SweepResult

    try:
        a = SweepResult.load(args.sweep_a)
        b = SweepResult.load(args.sweep_b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    comparison = compare_sweeps(a, b, label_a=args.sweep_a, label_b=args.sweep_b)
    print(comparison.render())
    worst = comparison.worst_regression()
    if worst:
        scheme, size, ratio = worst
        print(f"\nlargest ratio: {scheme} at {size:,} B -> {ratio:.2f}x")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .core.validate import validate_schemes

    result = validate_schemes(args.bytes, args.platform)
    print(result.render())
    return 0 if result.passed else 1


def cmd_cache(args: argparse.Namespace) -> int:
    store = ResultStore(args.dir) if args.dir else ResultStore()
    if args.action == "stats":
        print(store.stats().render())
        return 0
    if args.evict_to is not None:
        evicted, freed = store.evict_to(args.evict_to)
        store.flush_counters()
        print(
            f"evicted {evicted} least-recently-used cell(s) "
            f"({freed:,} B freed) from {store.root}; "
            f"store now holds {store.total_bytes():,} B"
        )
        return 0
    removed = store.clear()
    print(f"cleared {removed} cached cell(s) from {store.root}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import ReproServer

    async def run() -> None:
        server = ReproServer(
            host=args.host,
            port=args.port,
            store_root=args.dir,
            cache=not args.no_cache,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            max_store_bytes=args.max_store_bytes,
            max_concurrent_jobs=args.max_jobs,
        )
        await server.start()
        # The one line a wrapper script needs: the bound URL (port 0
        # picks a free port, so it must be announced).
        print(f"serving on {server.url}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.service.drain()
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nserve: shut down", file=sys.stderr)
    return 0


def _parse_options(pairs: list[str] | None) -> dict[str, str]:
    options: dict[str, str] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--option expects KEY=VALUE, got {pair!r}")
        options[key] = value
    return options


def cmd_perf(args: argparse.Namespace) -> int:
    import json

    from .perf import all_gates, get_gate, resolve_settings, run_gate

    if args.all or not args.gates:
        specs = all_gates()
    else:
        try:
            specs = [get_gate(name) for name in args.gates]
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # A malformed option, or a key no selected gate reads, is a usage
    # error, caught before any gate runs.
    try:
        options = _parse_options(args.option)
        for spec in specs:
            resolve_settings(spec, options)
        known = frozenset().union(*(spec.option_keys for spec in specs))
        unknown = sorted(set(options) - known)
        if unknown:
            raise ValueError(
                f"no selected gate reads option {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = []
    sections = []
    for spec in specs:
        print(f"== gate {spec.name} ==", flush=True)
        result, telemetry = run_gate(spec, options)
        print(result.render())
        print()
        results.append(result)
        if telemetry is not None:
            sections.append((spec.name, telemetry))

    if args.host_trace and sections:
        from .obs import host_chrome_trace

        trace_path = Path(args.host_trace)
        trace_path.write_text(json.dumps(host_chrome_trace(sections), indent=1))
        print(f"wrote host Chrome trace to {trace_path}")

    failures = [f for r in results for f in r.failures()]
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        skipped = sum(1 for r in results if r.skipped)
        note = f" ({skipped} gate(s) fully skipped)" if skipped else ""
        print(f"OK: {len(results)} gate(s){note}")
    return 1 if failures else 0


def cmd_report(args: argparse.Namespace) -> int:
    report = build_report(quick=args.quick, progress=_progress if args.verbose else None)
    text = report.to_markdown()
    out = Path(args.out)
    out.write_text(text)
    print(f"wrote {out} ({len(text.splitlines())} lines); "
          f"overall: {'PASS' if report.all_passed else 'FAIL'}")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mpi",
        description="Reproduction of 'Performance of MPI Sends of Non-Contiguous Data'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="list calibrated platforms").set_defaults(fn=cmd_platforms)
    sub.add_parser("schemes", help="list the eight send schemes").set_defaults(fn=cmd_schemes)

    jobs = _default_jobs()

    def add_exec_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", "-j", type=_positive_int, default=jobs, metavar="N",
                       help=f"run cells on N worker processes, one pool for the "
                            f"whole command (default {jobs}: one per CPU; 1 runs "
                            f"serially; results are bit-identical either way)")
        p.add_argument("--chunk-size", type=_positive_int, default=None, metavar="CELLS",
                       help="cells per worker task under --jobs (default: sized "
                            "automatically; chunking never changes results)")
        p.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk result store (see 'repro cache')")
        p.add_argument("--host-trace", metavar="PATH", type=_output_path, default=None,
                       help="record host-side telemetry (worker lanes, store "
                            "IO, gather/scatter paths) and write a Chrome "
                            "trace to PATH")

    def add_sweep_options(p: argparse.ArgumentParser, with_platform: bool = True) -> None:
        if with_platform:
            p.add_argument("--platform", default="skx-impi", choices=list_platforms())
        p.add_argument("--quick", action="store_true", help="small grid, few iterations")
        p.add_argument("--min-bytes", type=_positive_int, default=1_000)
        p.add_argument("--max-bytes", type=_positive_int, default=1_000_000_000)
        p.add_argument("--per-decade", type=_positive_int, default=2)
        p.add_argument("--iterations", type=_positive_int, default=20)
        p.add_argument("--no-flush", action="store_true", help="skip inter-ping-pong cache flush")
        p.add_argument("--schemes", nargs="*", choices=list(ALL_SCHEME_KEYS), default=None)
        p.add_argument("--verbose", "-v", action="store_true")
        p.add_argument("--submit", metavar="URL", default=None,
                       help="run the sweep on a 'repro serve' daemon instead "
                            "of locally (results are bit-identical)")
        add_exec_options(p)
        p.set_defaults(usage_error=p.error)

    p = sub.add_parser("sweep", help="run a scheme x size sweep")
    add_sweep_options(p)
    p.add_argument("--table", choices=("time", "bandwidth", "slowdown"), default="slowdown")
    p.add_argument("--out", type=_output_path, help="save the sweep as JSON")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("figure", choices=sorted(FIGURES))
    add_sweep_options(p, with_platform=False)
    p.add_argument("--no-charts", action="store_true")
    p.add_argument("--out", type=_output_path, help="save the sweep as JSON")
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("experiment", help="run an in-text experiment / ablation")
    p.add_argument("experiment", choices=list(EXPERIMENTS))
    p.add_argument("--quick", action="store_true")
    p.add_argument("--ranks", type=_ring_ranks, default=None, metavar="N",
                   help="simulated rank count, at least 2 (halo only)")
    p.add_argument("--topology", choices=list(TOPOLOGY_KINDS), default=None,
                   help="interconnect topology (halo only)")
    p.add_argument("--ranks-per-node", dest="ranks_per_node", type=_positive_int,
                   default=None, metavar="N",
                   help="ranks co-located per node (halo only; >1 enables the "
                        "intra-node shm transport for co-located pairs)")
    p.add_argument("--placement", choices=("block", "cyclic"), default=None,
                   help="rank-to-node placement (halo only)")
    add_exec_options(p)
    p.set_defaults(fn=cmd_experiment, usage_error=p.error)

    p = sub.add_parser("claims", help="check the paper's claims on one platform")
    add_sweep_options(p)
    p.set_defaults(fn=cmd_claims)

    p = sub.add_parser("trace", help="print the protocol timeline of one ping-pong")
    p.add_argument("scheme", choices=list(ALL_SCHEME_KEYS))
    p.add_argument("--platform", default="skx-impi", choices=list_platforms())
    p.add_argument("--bytes", type=_positive_int, default=1_000_000)
    p.add_argument("--json", metavar="PATH", type=_output_path, default=None,
                   help="also write the Chrome trace_event JSON to PATH")
    p.add_argument("--chrome", action="store_true",
                   help="print only the raw Chrome trace JSON (for piping)")
    p.add_argument("--critical", action="store_true",
                   help="extract the critical path (table + highlighted trace lane)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "explain",
        help="name the bounding resource on each scheme's critical path",
    )
    p.add_argument("--platform", default="skx-impi", choices=list_platforms())
    p.add_argument("--bytes", type=_positive_int, default=1_000_000)
    p.add_argument("--schemes", nargs="*", choices=list(ALL_SCHEME_KEYS), default=None)
    p.add_argument("--path", action="store_true",
                   help="also print the full critical-path segment table")
    p.add_argument("--validate", action="store_true",
                   help="re-run each what-if on the perturbed platform and report error")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser(
        "advise",
        help="price every send scheme for a layout and recommend the cheapest",
    )
    p.add_argument("--platform", default="skx-impi", choices=list_platforms())
    p.add_argument("--bytes", type=_positive_int, default=1_000_000)
    p.add_argument("--datatype", choices=("vector", "subarray", "indexed"),
                   default="vector",
                   help="derived-type family describing the layout")
    p.add_argument("--blocklen", type=_positive_int, default=1, metavar="DOUBLES")
    p.add_argument("--stride", type=int, default=None, metavar="DOUBLES",
                   help="block-to-block stride (default: 2 x blocklen)")
    p.add_argument("--jitter", type=_unit_fraction, default=0.5,
                   help="displacement jitter in [0, 1) for --datatype indexed")
    p.add_argument("--count", type=_non_negative_int, default=1,
                   help="datatype count, as in MPI_Send(..., count, type, ...)")
    p.add_argument("--ranks-per-node", dest="ranks_per_node", type=_positive_int,
                   default=None, metavar="N",
                   help="ranks co-located per node; with a placement that "
                        "co-locates the pair, the advice prices the intra-node "
                        "shm transport instead of the network")
    p.add_argument("--placement", choices=("block", "cyclic"), default=None,
                   help="rank-to-node placement deciding the pair's co-location "
                        "(default block)")
    p.set_defaults(fn=cmd_advise, usage_error=p.error)

    p = sub.add_parser("compare", help="compare two saved sweep JSON files")
    p.add_argument("sweep_a", type=_input_path)
    p.add_argument("sweep_b", type=_input_path)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("validate", help="cross-check payload delivery across all schemes")
    p.add_argument("--platform", default="skx-impi", choices=list_platforms())
    p.add_argument("--bytes", type=_positive_int, default=65_536)
    add_exec_options(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out", type=_output_path, default="EXPERIMENTS.md")
    p.add_argument("--verbose", "-v", action="store_true")
    add_exec_options(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("cache", help="inspect or clear the on-disk result store")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("--dir", default=None,
                   help="store root (default: $REPRO_CACHE_DIR or ~/.cache/repro-mpi)")
    p.add_argument("--evict-to", type=_non_negative_int, default=None, metavar="BYTES",
                   help="with 'clear': instead of removing everything, evict "
                        "least-recently-used cells until the store fits in "
                        "BYTES (the daemon's size-bound policy, run manually)")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the long-lived sweep daemon (HTTP/JSON API over the "
             "content-addressed executor)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8642,
                   help="listening port (0 picks a free one; the bound URL "
                        "is printed on startup)")
    p.add_argument("--jobs", "-j", type=_positive_int, default=jobs, metavar="N",
                   help=f"worker processes, one pool shared by every job "
                        f"(default {jobs}: one per CPU; 1 runs serially)")
    p.add_argument("--chunk-size", type=_positive_int, default=None, metavar="CELLS",
                   help="cells per worker task under --jobs")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without the on-disk result store (in-flight "
                        "dedup still collapses concurrent duplicates)")
    p.add_argument("--dir", default=None,
                   help="result-store root (default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro-mpi)")
    p.add_argument("--max-store-bytes", type=_non_negative_int, default=None,
                   metavar="BYTES",
                   help="bound the store size; least-recently-used cells are "
                        "evicted past it (in-flight digests are never evicted)")
    p.add_argument("--max-jobs", type=_positive_int, default=4, metavar="N",
                   help="sweep jobs allowed to execute concurrently (default 4)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "perf",
        help="run regression gates over this source tree",
    )
    perf_sub = p.add_subparsers(dest="perf_command", required=True)
    pp = perf_sub.add_parser("gate",
                             help="run gates and fail on any regression")
    pp.add_argument("--gate", dest="gates", action="append", metavar="NAME",
                    help="gate to run (repeatable; default: all)")
    pp.add_argument("--all", action="store_true",
                    help="run every registered gate")
    pp.add_argument("--option", action="append", metavar="KEY=VALUE",
                    help="override a gate option, e.g. "
                         "exec.min_cache_speedup=5 or kernels.repeats=3")
    pp.add_argument("--host-trace", metavar="PATH", type=_output_path, default=None,
                    help="write the per-gate host telemetry as one "
                         "Chrome trace to PATH")
    pp.set_defaults(fn=cmd_perf)

    return parser


def _write_host_trace(path: str) -> None:
    """Export the ambient host-telemetry capture as a Chrome trace."""
    import json

    from .obs import host as host_mod
    from .obs import host_chrome_trace

    captured = host_mod.disable()
    if captured is None:
        return
    Path(path).write_text(json.dumps(host_chrome_trace(captured), indent=1))
    print(f"wrote host Chrome trace to {path}", file=sys.stderr)


def _check_usage(args: argparse.Namespace) -> None:
    """Cross-flag rules no single argparse type can express, checked
    before the command starts any work; a violation exits 2."""
    if getattr(args, "max_bytes", None) is not None and args.max_bytes < args.min_bytes:
        args.usage_error(f"argument --max-bytes: must be at least --min-bytes "
                         f"({args.min_bytes}), got {args.max_bytes}")
    if args.command == "advise" and args.stride is not None and args.stride < args.blocklen:
        args.usage_error(f"argument --stride: must be at least --blocklen "
                         f"({args.blocklen}), got {args.stride}")
    # A figure is always a slowdown table; a sweep's is by default.
    if (args.command in ("sweep", "figure") and args.schemes
            and "reference" not in args.schemes
            and getattr(args, "table", "slowdown") == "slowdown"):
        args.usage_error("argument --schemes: the slowdown table is relative to "
                         "'reference', which must be one of the schemes")
    if args.command == "experiment" and args.experiment != "halo":
        for flag, dest in _FABRIC_FLAGS:
            if getattr(args, dest) is not None:
                args.usage_error(f"argument {flag}: only the halo experiment takes it")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _check_usage(args)
    executor = _executor_from(args)
    # --host-trace on execution commands captures the whole command;
    # 'repro perf' scopes captures per gate and ignores this path.
    host_trace = args.host_trace if (
        hasattr(args, "jobs") and getattr(args, "host_trace", None)
    ) else None
    if host_trace:
        from .obs import host as host_mod

        host_mod.enable()
    try:
        if executor is None:
            code = args.fn(args)
        else:
            with using_executor(executor):
                code = args.fn(args)
        # Flush here, so a reader that closed the pipe is caught below
        # rather than in the interpreter's exit flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``repro schemes | head -1``).  Point
        # stdout at devnull so the exit flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        # Completed cells are already durable in the result store; a
        # re-run of the same command fast-forwards through them.
        print("\ninterrupted", file=sys.stderr)
        if executor is not None and executor.cache is not None:
            print(
                f"  {executor.cells_executed} newly executed cell(s) are cached "
                f"under {executor.cache.root}\n"
                "  re-run the same command to resume from them",
                file=sys.stderr,
            )
        elif executor is not None:
            print("  nothing persisted (--no-cache); a re-run starts from scratch",
                  file=sys.stderr)
        return 130
    finally:
        if executor is not None:
            executor.close()
        if host_trace:
            _write_host_trace(host_trace)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
