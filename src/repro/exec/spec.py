"""Cell specifications: the *what* of one simulated measurement.

A :class:`CellSpec` is a frozen, content-addressed description of one
benchmark cell — one scheme at one layout on one platform under one
timing policy.  It is everything :func:`repro.core.pingpong.run_pingpong`
needs, and nothing else: executing the same spec always produces the
same :class:`CellOutcome` bit for bit (the simulator is deterministic,
and measurement noise is seeded per cell from the scheme key and
message size).  That purity is what makes cells safe to fan out over
worker processes and to cache on disk.

The digest folds in the platform *name* and full pricing
:meth:`~repro.machine.platform.Platform.fingerprint` (hardware models,
tuning knobs, noise model), so experiment-local platform variants —
``plat.with_tuning(...)``, ``plat.with_noise(...)`` — can never collide
with the registry platform they were derived from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..core.layout import Layout
from ..core.pingpong import PingPongResult, run_pingpong
from ..core.schemes import make_scheme
from ..core.timing import TimingPolicy, summarize
from ..machine.fingerprint import digest_of
from ..machine.platform import Platform

__all__ = ["CellSpec", "CellOutcome", "execute_spec"]


@dataclass(frozen=True)
class CellSpec:
    """One cell of a sweep or experiment, as pure data.

    Frozen and hashable: the hash is derived from :attr:`digest`, a
    stable content digest, so specs work as dict keys and set members
    across processes (unlike dataclass field hashing, which trips over
    the tuning-quirks dict and is salted per process for strings).
    """

    scheme: str
    layout: Layout
    platform: Platform
    policy: TimingPolicy = field(default_factory=TimingPolicy)
    materialize: bool = True
    concurrent_streams: int = 1

    def __post_init__(self) -> None:
        if not self.scheme:
            raise ValueError("spec needs a scheme key")
        if self.concurrent_streams < 1:
            raise ValueError("concurrent_streams must be >= 1")

    # ------------------------------------------------------------------
    @cached_property
    def digest(self) -> str:
        """Stable content digest identifying this cell's inputs.

        Everything that can change the outcome is folded in; nothing
        else is (a renamed platform with identical pricing still
        contributes its name — a deliberate conservative choice, since
        experiments name their variants by what they changed).  The
        layout and policy enter as their memoized canonical forms, so
        specs that share those instances canonicalize them once.
        """
        return self._keyed(self.platform.fingerprint())

    @cached_property
    def base_digest(self) -> str:
        """:attr:`digest` with the tuning's eager limit left out.

        Cells that differ only in eager limit share it.  Their runs can
        first diverge where a send asks the limit (``CostModel.
        uses_eager``), so a cell whose limit answers every choice an
        executed twin recorded (``CellOutcome.eager_choices``) has that
        twin's outcome, bit for bit.  Everything else, the platform name
        included, keys it as it keys :attr:`digest`.
        """
        return self._keyed(self.platform.base_fingerprint)

    def _keyed(self, platform_fingerprint: str) -> str:
        return digest_of(
            {
                "scheme": self.scheme,
                "layout": self.layout.canonical_form,
                "platform_name": self.platform.name,
                "platform": platform_fingerprint,
                "policy": self.policy.canonical_form,
                "materialize": self.materialize,
                "concurrent_streams": self.concurrent_streams,
            }
        )

    def __hash__(self) -> int:
        return hash(self.digest)

    @property
    def message_bytes(self) -> int:
        return self.layout.message_bytes

    def describe(self) -> str:
        """One-line human identity (used in cache files and logs)."""
        return (
            f"{self.scheme} x {self.message_bytes:,} B on {self.platform.name} "
            f"({self.policy.iterations} iters, "
            f"{'materialized' if self.materialize else 'virtual'})"
        )

    # ------------------------------------------------------------------
    def to_result(self, outcome: "CellOutcome", *, cached: bool = False) -> PingPongResult:
        """Reconstitute the public result object from an outcome.

        The stats are re-derived from the raw per-iteration times with
        the spec's own dismissal policy — ``summarize`` is a pure
        function, so a cached outcome yields the same stats bit for bit
        as the original run.
        """
        scheme_obj = make_scheme(self.scheme)
        if hasattr(scheme_obj, "resolve_label"):
            # The auto scheme's label depends on (layout, platform);
            # resolution is deterministic host-side arithmetic, so a
            # cached cell re-derives the same label as a fresh run.
            label = scheme_obj.resolve_label(self.layout, self.platform)
        else:
            label = scheme_obj.label
        return PingPongResult(
            scheme=self.scheme,
            label=label,
            message_bytes=self.layout.message_bytes,
            stats=summarize(list(outcome.times), self.policy.dismiss_sigma),
            verified=outcome.verified,
            events=outcome.events,
            virtual_time=outcome.virtual_time,
            cached=cached,
        )


@dataclass(frozen=True)
class CellOutcome:
    """The persistable product of executing one :class:`CellSpec`.

    Carries the raw per-iteration times (not derived stats — those are
    recomputed on load) plus the determinism fingerprint fields.
    ``eager_choices`` (see ``CostModel``) travels only from a fresh run
    to its caller: it is neither stored nor sent, and ``None`` for store
    hits and ``auto`` cells.
    """

    times: tuple[float, ...]
    verified: bool
    events: int
    virtual_time: float
    eager_choices: dict[tuple[int, bool, bool], bool] | None = field(
        default=None, compare=False, repr=False
    )


def execute_spec(spec: CellSpec) -> CellOutcome:
    """Run one cell for real.  This is the worker-process entry point:
    module-level (picklable) and dependent only on the spec."""
    cell = run_pingpong(
        spec.scheme,
        spec.layout,
        spec.platform,
        policy=spec.policy,
        materialize=spec.materialize,
        concurrent_streams=spec.concurrent_streams,
    )
    return CellOutcome(
        times=cell.stats.times,
        verified=cell.verified,
        events=cell.events,
        virtual_time=cell.virtual_time,
        eager_choices=cell.eager_choices,
    )
