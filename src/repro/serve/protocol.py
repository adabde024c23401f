"""The serve wire protocol: requests, validation, and cell encoding.

A :class:`SweepRequest` is the JSON body of ``POST /sweep`` — a
declarative description of a scheme x size grid over one or more
platforms, compiled server-side into the same
:class:`~repro.exec.CellSpec` batch a local
:func:`~repro.core.runner.run_sweep` would build (both go through
:func:`~repro.core.runner.sweep_specs`, so served and local grids agree
cell for cell, digest for digest).

Cells cross the wire as **raw hex-encoded floats**
(:func:`encode_cell` / :func:`decode_outcome`), never as derived stats:
the client reconstitutes results through
:meth:`~repro.exec.CellSpec.to_result` exactly as the local executor
does, which is what makes a served sweep bit-identical to a serial
local run.

Incremental re-pricing falls out of the addressing scheme: a request
may override a platform's eager limit (``platforms[].eager_limit``) or
carry a non-default model ``salt`` — either changes the affected cell
digests (the platform fingerprint folds tuning in; the salt selects the
store generation), so only the invalidated cells miss the store and
re-execute.  Untouched digests are served as ``reused``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from ..core.runner import sweep_specs
from ..core.schemes import ALL_SCHEME_KEYS
from ..core.sweep import SweepConfig
from ..core.timing import TimingPolicy
from ..exec import CellOutcome, CellSpec
from ..machine.fingerprint import MODEL_VERSION
from ..machine.platform import Platform
from ..machine.registry import get_platform, list_platforms

__all__ = [
    "ProtocolError",
    "PlatformSpec",
    "SweepRequest",
    "CompiledSweep",
    "check_salt",
    "encode_cell",
    "decode_outcome",
]

#: Grid-size ceiling per request: a misbehaving client must not be able
#: to queue an unbounded batch with one POST.
MAX_CELLS_PER_REQUEST = 4096


class ProtocolError(Exception):
    """A malformed or unsatisfiable request; carries the HTTP status
    the server should answer with."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def check_salt(salt: Any) -> str:
    """``salt`` if it can name a store generation directory: a non-empty
    string with no ``/`` or ``.``, so ``<root>/<salt>`` never leaves the
    store root.  The one rule for a ``POST /sweep`` body and a
    ``GET /cells`` query; raises :class:`ProtocolError` (400)."""
    _require(
        isinstance(salt, str) and bool(salt) and "/" not in salt and "." not in salt,
        "salt must be a non-empty path-safe string",
    )
    return salt


@dataclass(frozen=True)
class PlatformSpec:
    """One platform of a request: a registry name plus an optional
    eager-limit override (the protocol's fingerprint-perturbation
    hook — overriding tuning changes every affected cell digest)."""

    name: str
    eager_limit: int | None = None  #: ``None`` means "no override".

    def resolve(self) -> Platform:
        try:
            platform = get_platform(self.name)
        except KeyError:
            known = ", ".join(list_platforms())
            raise ProtocolError(
                f"unknown platform {self.name!r}; known platforms: {known}"
            ) from None
        if self.eager_limit is not None:
            platform = platform.with_tuning(
                platform.tuning.with_eager_limit(self.eager_limit)
            )
        return platform

    @classmethod
    def from_json(cls, data: Any) -> "PlatformSpec":
        if isinstance(data, str):
            data = {"name": data}
        _require(isinstance(data, dict), "each platform must be a name or object")
        name = data.get("name")
        _require(isinstance(name, str) and bool(name), "platform needs a name")
        eager = data.get("eager_limit")
        if eager is not None:
            _require(
                isinstance(eager, int) and not isinstance(eager, bool) and eager >= 0,
                "eager_limit must be a non-negative integer",
            )
        unknown = set(data) - {"name", "eager_limit"}
        _require(not unknown, f"unknown platform fields: {sorted(unknown)}")
        return cls(name=name, eager_limit=eager)

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name}
        if self.eager_limit is not None:
            out["eager_limit"] = self.eager_limit
        return out


@dataclass(frozen=True)
class CompiledSweep:
    """One platform's compiled slice of a request."""

    platform_spec: PlatformSpec
    platform: Platform
    config: SweepConfig
    specs: tuple[CellSpec, ...]


@dataclass(frozen=True)
class SweepRequest:
    """A validated ``POST /sweep`` body."""

    platforms: tuple[PlatformSpec, ...]
    sizes: tuple[int, ...]
    schemes: tuple[str, ...]
    iterations: int = 3
    flush: bool = True
    flush_bytes: int = 50_000_000
    dismiss_sigma: float | None = 1.0
    materialize_limit: int = 1 << 20
    concurrent_streams: int = 1
    salt: str = MODEL_VERSION
    tags: dict[str, Any] = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_json(cls, data: Any) -> "SweepRequest":
        """Validate a decoded JSON body.  Raises :class:`ProtocolError`
        (status 400) on anything malformed — the daemon never lets a
        bad request reach the executor."""
        _require(isinstance(data, dict), "request body must be a JSON object")
        allowed = {
            "platforms",
            "sizes",
            "schemes",
            "policy",
            "materialize_limit",
            "concurrent_streams",
            "salt",
            "tags",
        }
        unknown = set(data) - allowed
        _require(not unknown, f"unknown request fields: {sorted(unknown)}")

        raw_platforms = data.get("platforms")
        _require(
            isinstance(raw_platforms, list) and bool(raw_platforms),
            "request needs a non-empty platforms list",
        )
        platforms = tuple(PlatformSpec.from_json(p) for p in raw_platforms)

        raw_sizes = data.get("sizes")
        _require(
            isinstance(raw_sizes, list) and bool(raw_sizes),
            "request needs a non-empty sizes list",
        )
        for size in raw_sizes:
            _require(
                isinstance(size, int) and not isinstance(size, bool) and size > 0,
                "sizes must be positive integers",
            )
        sizes = tuple(raw_sizes)

        raw_schemes = data.get("schemes")
        _require(
            isinstance(raw_schemes, list) and bool(raw_schemes),
            "request needs a non-empty schemes list",
        )
        for scheme in raw_schemes:
            _require(isinstance(scheme, str), "schemes must be strings")
            _require(
                scheme in ALL_SCHEME_KEYS,
                f"unknown scheme {scheme!r}; known schemes: "
                f"{', '.join(ALL_SCHEME_KEYS)}",
            )
        schemes = tuple(raw_schemes)

        policy = data.get("policy", {})
        _require(isinstance(policy, dict), "policy must be an object")
        unknown = set(policy) - {"iterations", "flush", "flush_bytes", "dismiss_sigma"}
        _require(not unknown, f"unknown policy fields: {sorted(unknown)}")
        iterations = policy.get("iterations", 3)
        _require(
            isinstance(iterations, int)
            and not isinstance(iterations, bool)
            and iterations >= 1,
            "policy.iterations must be a positive integer",
        )
        flush = policy.get("flush", True)
        _require(isinstance(flush, bool), "policy.flush must be a boolean")
        flush_bytes = policy.get("flush_bytes", 50_000_000)
        _require(
            isinstance(flush_bytes, int)
            and not isinstance(flush_bytes, bool)
            and flush_bytes >= 0,
            "policy.flush_bytes must be a non-negative integer",
        )
        dismiss_sigma = policy.get("dismiss_sigma", 1.0)
        if dismiss_sigma is not None:
            _require(
                isinstance(dismiss_sigma, (int, float))
                and not isinstance(dismiss_sigma, bool)
                and dismiss_sigma > 0,
                "policy.dismiss_sigma must be positive or null",
            )
            dismiss_sigma = float(dismiss_sigma)

        materialize_limit = data.get("materialize_limit", 1 << 20)
        _require(
            isinstance(materialize_limit, int)
            and not isinstance(materialize_limit, bool)
            and materialize_limit >= 0,
            "materialize_limit must be a non-negative integer",
        )
        concurrent_streams = data.get("concurrent_streams", 1)
        _require(
            isinstance(concurrent_streams, int)
            and not isinstance(concurrent_streams, bool)
            and concurrent_streams >= 1,
            "concurrent_streams must be a positive integer",
        )
        salt = check_salt(data.get("salt", MODEL_VERSION))
        tags = data.get("tags", {})
        _require(isinstance(tags, dict), "tags must be an object")

        total = len(platforms) * len(sizes) * len(schemes)
        _require(
            total <= MAX_CELLS_PER_REQUEST,
            f"request grid has {total} cells; the limit is "
            f"{MAX_CELLS_PER_REQUEST}",
        )
        return cls(
            platforms=platforms,
            sizes=sizes,
            schemes=schemes,
            iterations=iterations,
            flush=flush,
            flush_bytes=flush_bytes,
            dismiss_sigma=dismiss_sigma,
            materialize_limit=materialize_limit,
            concurrent_streams=concurrent_streams,
            salt=salt,
            tags=dict(tags),
        )

    def to_json(self) -> dict[str, Any]:
        """The canonical wire form (what the CLI client POSTs)."""
        return {
            "platforms": [p.to_json() for p in self.platforms],
            "sizes": list(self.sizes),
            "schemes": list(self.schemes),
            "policy": {
                "iterations": self.iterations,
                "flush": self.flush,
                "flush_bytes": self.flush_bytes,
                "dismiss_sigma": self.dismiss_sigma,
            },
            "materialize_limit": self.materialize_limit,
            "concurrent_streams": self.concurrent_streams,
            "salt": self.salt,
            "tags": dict(self.tags),
        }

    # ------------------------------------------------------------------
    @property
    def policy(self) -> TimingPolicy:
        return TimingPolicy(
            iterations=self.iterations,
            flush=self.flush,
            flush_bytes=self.flush_bytes,
            dismiss_sigma=self.dismiss_sigma,
        )

    def config(self) -> SweepConfig:
        """The :class:`SweepConfig` every platform of this request runs
        under (the protocol pins the default layout factory — layouts
        are derived from sizes server-side, never shipped as code)."""
        return SweepConfig(
            sizes=self.sizes,
            schemes=self.schemes,
            policy=self.policy,
            materialize_limit=self.materialize_limit,
            concurrent_streams=self.concurrent_streams,
        )

    def compile(self) -> list[CompiledSweep]:
        """Resolve platforms and compile the grid, one
        :class:`CompiledSweep` per platform, in request order."""
        config = self.config()
        compiled = []
        for pspec in self.platforms:
            platform = pspec.resolve()
            compiled.append(
                CompiledSweep(
                    platform_spec=pspec,
                    platform=platform,
                    config=config,
                    specs=tuple(sweep_specs(platform, config)),
                )
            )
        return compiled

    def iter_specs(self) -> Iterator[CellSpec]:
        for compiled in self.compile():
            yield from compiled.specs


# ----------------------------------------------------------------------
# Cell wire encoding: raw hex floats, bit-exact both ways.
# ----------------------------------------------------------------------
def encode_cell(spec: CellSpec, outcome: CellOutcome, *, source: str) -> dict[str, Any]:
    """One finished cell as it crosses the wire.  ``source`` records how
    this job obtained it: ``"reused"`` (store hit), ``"recomputed"``
    (this job executed it), or ``"deduped"`` (joined another job's
    in-flight execution)."""
    return {
        "digest": spec.digest,
        "scheme": spec.scheme,
        "platform": spec.platform.name,
        "message_bytes": spec.message_bytes,
        "source": source,
        "times_hex": [t.hex() for t in outcome.times],
        "virtual_time_hex": outcome.virtual_time.hex(),
        "verified": outcome.verified,
        "events": outcome.events,
    }


def decode_outcome(cell: dict[str, Any]) -> CellOutcome:
    """Rebuild the exact :class:`CellOutcome` from a wire cell."""
    try:
        return CellOutcome(
            times=tuple(float.fromhex(t) for t in cell["times_hex"]),
            verified=bool(cell["verified"]),
            events=int(cell["events"]),
            virtual_time=float.fromhex(cell["virtual_time_hex"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed cell payload: {exc}", status=502) from None
