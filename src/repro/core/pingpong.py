"""The two-rank ping-pong driver (paper section 3.2).

Owns everything the schemes don't: the measurement loop, per-iteration
timers, inter-iteration cache flushing, optional measurement noise, and
payload verification.  One call = one cell of a figure (one scheme at
one message size on one platform).

A materialized cell moves and verifies real bytes in its last timed
iteration; the other iterations only account costs, which are the same
either way.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from ..machine.platform import Platform
from ..machine.registry import get_platform
from ..mpi.comm import Comm
from ..mpi.runtime import run_mpi
from ..obs import MetricsRegistry
from ..sim.trace import Tracer
from .layout import Layout
from .schemes import SchemeContext, SendScheme, make_scheme
from .timing import TimingPolicy, TimingStats, summarize

__all__ = ["PingPongResult", "run_pingpong"]


@dataclass(frozen=True)
class PingPongResult:
    """One measured cell."""

    scheme: str
    label: str
    message_bytes: int
    stats: TimingStats
    verified: bool
    events: int
    #: The job's trace (a SpanRecorder when ``trace=True``).
    tracer: Tracer | None = field(default=None, compare=False, repr=False)
    #: The job's metrics registry.
    metrics: MetricsRegistry | None = field(default=None, compare=False, repr=False)
    #: Virtual time at which the whole job drained.
    virtual_time: float = 0.0
    #: Whether this cell was served from the on-disk result store
    #: (provenance only — cached and fresh cells are bit-identical).
    cached: bool = field(default=False, compare=False)

    @property
    def time(self) -> float:
        """The reported ping-pong time (mean after outlier dismissal)."""
        return self.stats.kept_mean

    @property
    def bandwidth(self) -> float:
        """Effective payload bandwidth, bytes/s."""
        return self.message_bytes / self.time if self.time > 0 else 0.0


def _noise_stream(scheme_key: str, message_bytes: int) -> int:
    """A stable per-cell noise stream id.

    Uses CRC32, not ``hash()``: Python string hashing is salted per
    process, which would make "reproducible" noise differ across runs.
    """
    import zlib

    return zlib.crc32(f"{scheme_key}:{message_bytes}".encode()) or 1


def run_pingpong(
    scheme: SendScheme | str,
    layout: Layout,
    platform: Platform | str = "skx-impi",
    *,
    policy: TimingPolicy | None = None,
    materialize: bool = True,
    concurrent_streams: int = 1,
    trace: bool = False,
    max_events: int | None = None,
) -> PingPongResult:
    """Measure one scheme at one message size.

    Rank 0 is the sender/timer, rank 1 the receiver, exactly as in the
    paper's harness; each of the ``policy.iterations`` ping-pongs is
    timed individually with the virtual ``MPI_Wtime``.
    """
    if isinstance(scheme, str):
        scheme = make_scheme(scheme)
    # Each rank gets its own scheme instance: rank programs run
    # concurrently and must not share mutable per-rank state.
    sender_scheme = scheme
    receiver_scheme = type(scheme)()
    if isinstance(platform, str):
        platform = get_platform(platform)
    policy = policy or TimingPolicy()
    ctx = SchemeContext(layout=layout, materialize=materialize)

    times: list[float] = []
    verified: dict[str, bool] = {}
    noise = platform.noise
    rng = noise.rng(_noise_stream(scheme.key, layout.message_bytes)) if noise else None

    def main(comm: Comm) -> None:
        world = comm.world
        # Scheme-level spans (traced runs only): the per-iteration
        # envelope every protocol/pack/copy span nests inside.  The
        # tracing flag is hoisted so the untraced hot loop carries no
        # context-manager machinery at all.
        tracing = world.obs.enabled

        def phase(name: str, **attrs):
            if tracing:
                # span_attrs is evaluated per span: the auto scheme
                # reports its resolved delegate once setup has chosen it.
                return world.span(name, rank=comm.rank, category="scheme",
                                  scheme=sender_scheme.key,
                                  **sender_scheme.span_attrs(), **attrs)
            return nullcontext()

        if comm.rank == 0:
            with phase("scheme.setup"):
                sender_scheme.setup_sender(comm, ctx)
            comm.Barrier()
            last = policy.iterations - 1
            for i in range(policy.iterations):
                # Real bytes move only in the last iteration, the one
                # verify_receiver reads: every iteration overwrites the
                # whole receive buffer, and virtual time never depends
                # on the bytes.  Costs are charged in every iteration,
                # and the last one leaves the switch on for teardown.
                world.move_bytes = i == last
                if policy.flush:
                    comm.flush_caches(policy.flush_bytes)
                t0 = comm.Wtime()
                if tracing:
                    with phase("scheme.iteration", iteration=i):
                        sender_scheme.iteration_sender(comm)
                else:
                    sender_scheme.iteration_sender(comm)
                elapsed = comm.Wtime() - t0
                if noise is not None and rng is not None:
                    elapsed = noise.perturb(elapsed, rng)
                times.append(elapsed)
            comm.Barrier()
            sender_scheme.teardown_sender(comm, ctx)
        else:
            with phase("scheme.setup"):
                receiver_scheme.setup_receiver(comm, ctx)
            comm.Barrier()
            for i in range(policy.iterations):
                if policy.flush:
                    comm.flush_caches(policy.flush_bytes)
                if tracing:
                    with phase("scheme.iteration", iteration=i):
                        receiver_scheme.iteration_receiver(comm)
                else:
                    receiver_scheme.iteration_receiver(comm)
            comm.Barrier()
            verified["ok"] = receiver_scheme.verify_receiver(ctx)
            receiver_scheme.teardown_receiver(comm, ctx)

    job = run_mpi(
        main,
        nranks=2,
        platform=platform,
        concurrent_streams=concurrent_streams,
        trace=trace,
        max_events=max_events,
    )
    return PingPongResult(
        scheme=scheme.key,
        label=scheme.label,
        message_bytes=layout.message_bytes,
        stats=summarize(times, policy.dismiss_sigma),
        verified=verified.get("ok", False),
        events=job.events,
        tracer=job.tracer,
        metrics=job.metrics,
        virtual_time=job.virtual_time,
    )
