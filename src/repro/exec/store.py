"""Content-addressed on-disk result store.

One JSON file per executed cell, addressed by the cell's content
digest, under a *model-version* directory with a two-hex-char shard
fan-out::

    <root>/<MODEL_VERSION>/<digest[:2]>/<digest>.json

A store reads and writes only the running code's
:data:`repro.machine.fingerprint.MODEL_VERSION`; bumping it (whenever
pricing under ``repro.machine``/``repro.mpi`` changes) orphans every
previously cached cell without touching the files, so a stale
generation can still be inspected — ``repro cache stats`` reports it,
``repro cache clear`` reaps it.

The shard fan-out is what keeps directory operations flat at 10^5+
cells: no single directory ever holds more than ~1/256th of a
generation's entries.  Sizes come from a walk of those directories;
nothing on disk records them.

Floats are persisted as ``float.hex()`` strings: a cache hit
reconstitutes the *exact* per-iteration times, so cached and fresh
results are bit-identical (the golden tests pin this).

Writes are atomic (temp file + ``os.replace``) and per-cell, which is
what makes interrupted sweeps resumable: every cell completed before a
``KeyboardInterrupt`` is already durable, and re-running the same
command fast-forwards through them as hits.  A write that fails (an
unwritable root, a full disk) removes its temp file and raises
:class:`StoreError`; the cells already written stay readable.

When constructed with ``max_bytes``, the store is **size-bounded**:
after a put pushes the total over the bound, least-recently-used
entries (hits refresh an entry's mtime) are evicted until the store
fits again.  Digests named by the ``protect`` callable — the serve
daemon passes its in-flight set — are never evicted.  Evictions are
counted in the persisted sidecar, so ``repro cache stats`` reports
lifetime eviction pressure across processes.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator

from ..machine.fingerprint import MODEL_VERSION
from ..obs import host as _host
from .spec import CellOutcome, CellSpec

__all__ = ["ResultStore", "StoreError", "StoreStats", "default_cache_dir"]

#: Bump when the *file format* (not the pricing model) changes.
_FORMAT_VERSION = 1

#: Sidecar at the store root accumulating lifetime access counters
#: across processes (never a cached cell; excluded from entry scans).
_COUNTERS_FILE = "counters.json"

#: The lifetime counters persisted in the sidecar.
_COUNTER_KEYS = (
    "hits",
    "misses",
    "writes",
    "bytes_read",
    "bytes_written",
    "evictions",
)

#: Digest filenames are exactly 64 lowercase hex chars + ".json";
#: shard directories are the first two.
_DIGEST_HEX = set("0123456789abcdef")


class StoreError(OSError):
    """A cell could not be written to the result store (an unwritable
    root, a full disk); the message names the root and the cause."""


def _is_digest_name(stem: str) -> bool:
    return len(stem) == 64 and set(stem) <= _DIGEST_HEX


def _size_of(path: Path) -> int | None:
    """``path``'s size in bytes, or ``None`` when it is gone."""
    try:
        return path.stat().st_size
    except OSError:
        return None


def _scratch_path(path: Path) -> Path:
    """A write-then-rename scratch name unique per process *and*
    thread — concurrent writers of one target (the serve daemon, the
    threaded executor) must never share a temp file, or one writer's
    rename erases the other's pending bytes."""
    return path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a scratch file and a rename;
    on failure the scratch file is removed and the ``OSError``
    propagates."""
    tmp = _scratch_path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def default_cache_dir() -> Path:
    """Resolve the store root: ``$REPRO_CACHE_DIR``, else
    ``$XDG_CACHE_HOME/repro-mpi``, else ``~/.cache/repro-mpi``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-mpi"


@dataclass(frozen=True)
class StoreStats:
    """What ``repro cache stats`` reports."""

    root: str
    salt: str
    entries: int
    bytes: int
    stale_entries: int  #: Entries under other (orphaned) model versions.
    generations_orphaned: int = 0  #: Distinct older generations on disk.
    hits: int = 0  #: Lifetime cache hits (persisted counter).
    misses: int = 0  #: Lifetime cache misses.
    writes: int = 0  #: Lifetime cell writes.
    bytes_read: int = 0  #: Lifetime bytes served from cache files.
    bytes_written: int = 0  #: Lifetime bytes persisted.
    evictions: int = 0  #: Lifetime size-bound evictions.

    def render(self) -> str:
        lines = [
            f"result store: {self.root}",
            f"  model salt:  {self.salt}",
            f"  entries:     {self.entries} ({self.bytes:,} B)",
            f"  lifetime:    {self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes",
            f"  io:          {self.bytes_read:,} B read, "
            f"{self.bytes_written:,} B written",
        ]
        if self.evictions:
            lines.append(
                f"  evicted:     {self.evictions} entries (size-bound LRU)"
            )
        if self.stale_entries:
            lines.append(
                f"  stale:       {self.stale_entries} entries from older model "
                "generations (repro cache clear reaps them)"
            )
        if self.generations_orphaned:
            lines.append(
                f"  orphaned:    {self.generations_orphaned} older model "
                "generation(s) on disk"
            )
        return "\n".join(lines)


class ResultStore:
    """Content-addressed cell-outcome store on the local filesystem.

    It reads and writes the generation of the running code's
    ``MODEL_VERSION`` (:attr:`salt`, fixed at construction); the other
    generations under the root only count as stale and take part in
    eviction and :meth:`clear`.

    Parameters
    ----------
    root:
        Store directory (default: :func:`default_cache_dir`).
    max_bytes:
        Optional size bound.  When set, a put that pushes the store
        (all generations) past the bound triggers an LRU eviction pass
        back down to it.  ``None`` (default) never evicts.
    protect:
        Optional callable returning digests that must never be evicted
        (the serve daemon's in-flight set).  Consulted at eviction time,
        from whichever thread runs the eviction, so it must be
        thread-safe.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        max_bytes: int | None = None,
        protect: Callable[[], Collection[str]] | None = None,
    ):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = MODEL_VERSION
        self.max_bytes = max_bytes
        self.protect = protect
        # In-process access counters since construction (or the last
        # flush_counters()); the persisted lifetime totals live in the
        # counters.json sidecar.
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.evictions = 0
        # Bytes under the root as this process knows them: a scan seeds
        # it at first use, puts and evictions move it, and every
        # evict_to() scan resets it.  Other processes' writes show up at
        # the next scan.  The daemon's jobs put from several threads.
        self._total_bytes: int | None = None
        self._total_lock = threading.Lock()

    # ------------------------------------------------------------------
    def path_for(self, spec: CellSpec) -> Path:
        return self.path_for_digest(spec.digest)

    def path_for_digest(self, digest: str) -> Path:
        """The sharded on-disk location of one digest's entry."""
        return self.root / self.salt / digest[:2] / f"{digest}.json"

    def get(self, spec: CellSpec) -> CellOutcome | None:
        """The stored outcome for ``spec``, or ``None``.

        Unreadable or malformed entries (partial writes from a killed
        process, format drift) behave as misses — the cell simply
        re-executes and overwrites them.  A hit refreshes the entry's
        mtime, which is what the size-bound eviction pass orders by.
        """
        telemetry = _host.active
        begin = telemetry.now() if telemetry is not None else 0.0
        try:
            text = self._read_entry(spec.digest)
            if text is None:
                return self._miss(telemetry, begin)
            data = json.loads(text)
            if data.get("format") != _FORMAT_VERSION:
                return self._miss(telemetry, begin)
            outcome = CellOutcome(
                times=tuple(float.fromhex(t) for t in data["times_hex"]),
                verified=bool(data["verified"]),
                events=int(data["events"]),
                virtual_time=float.fromhex(data["virtual_time_hex"]),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return self._miss(telemetry, begin)
        self.hits += 1
        self.bytes_read += len(text)
        if telemetry is not None:
            telemetry.metrics.counter("store.hits").inc()
            telemetry.metrics.counter("store.bytes_read").inc(len(text))
            telemetry.metrics.histogram("store.read_seconds", "latency").observe(
                telemetry.now() - begin
            )
        return outcome

    def _read_entry(self, digest: str) -> str | None:
        """Raw text of one digest's entry; ``None`` when absent."""
        path = self.path_for_digest(digest)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        try:
            # LRU recency: a served entry is "used" now.  Best-effort —
            # a read-only store must still serve hits.
            os.utime(path)
        except OSError:
            pass
        return text

    def read_digest(self, digest: str) -> dict[str, Any] | None:
        """The raw persisted payload of one digest, or ``None`` — the
        serve daemon's ``GET /cells/<digest>``."""
        if not _is_digest_name(digest):
            return None
        try:
            text = self._read_entry(digest)
            if text is None:
                return None
            data = json.loads(text)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _miss(self, telemetry, begin: float) -> None:
        self.misses += 1
        if telemetry is not None:
            telemetry.metrics.counter("store.misses").inc()
            telemetry.metrics.histogram("store.read_seconds", "latency").observe(
                telemetry.now() - begin
            )
        return None

    def put(self, spec: CellSpec, outcome: CellOutcome) -> Path:
        """Persist ``outcome`` under ``spec``'s digest (atomic).

        Raises :class:`StoreError` when the entry cannot be written; no
        temp file is left behind."""
        path = self.path_for(spec)
        payload = {
            "format": _FORMAT_VERSION,
            # Human provenance — ignored on load, keyed by the filename.
            "cell": spec.describe(),
            "times_hex": [t.hex() for t in outcome.times],
            "verified": outcome.verified,
            "events": outcome.events,
            "virtual_time_hex": outcome.virtual_time.hex(),
        }
        telemetry = _host.active
        begin = telemetry.now() if telemetry is not None else 0.0
        text = json.dumps(payload, indent=1) + "\n"
        tracked = self._total_bytes is not None
        replaced = (_size_of(path) or 0) if tracked else 0
        try:
            _write_atomic(path, text)
        except OSError as exc:
            raise StoreError(
                f"cannot write to the result store at {self.root}: {exc}"
            ) from exc
        self.writes += 1
        self.bytes_written += len(text)
        if tracked:
            with self._total_lock:
                if self._total_bytes is not None:
                    self._total_bytes += len(text) - replaced
        if telemetry is not None:
            telemetry.metrics.counter("store.writes").inc()
            telemetry.metrics.counter("store.bytes_written").inc(len(text))
            telemetry.metrics.histogram("store.write_seconds", "latency").observe(
                telemetry.now() - begin
            )
        if self.max_bytes is not None:
            self._maybe_evict()
        return path

    # ------------------------------------------------------------------
    # Sidecar counters.
    # ------------------------------------------------------------------
    def flush_counters(self) -> dict[str, int]:
        """Merge this process's counter deltas into the on-disk sidecar
        and reset them; returns the merged lifetime totals.

        The merge is read-modify-write through an atomic replace, the
        same pattern as :meth:`put` — concurrent flushers can lose each
        other's increments in a race, which is acceptable for advisory
        lifetime counters (cells themselves are never at risk)."""
        deltas = {key: getattr(self, key) for key in _COUNTER_KEYS}
        totals = self.persisted_counters()
        for key in _COUNTER_KEYS:
            totals[key] += deltas[key]
        if any(deltas.values()):
            self._write_sidecar(dict(totals))
        for key in _COUNTER_KEYS:
            setattr(self, key, 0)
        return totals

    def persisted_counters(self) -> dict[str, int]:
        """The lifetime totals from the sidecar (zeros if absent or
        unreadable — counters are advisory, never load-bearing)."""
        data = self._read_sidecar()
        totals = dict.fromkeys(_COUNTER_KEYS, 0)
        for key in _COUNTER_KEYS:
            value = data.get(key, 0)
            if isinstance(value, int) and value >= 0:
                totals[key] = value
        return totals

    def _read_sidecar(self) -> dict[str, Any]:
        try:
            data = json.loads((self.root / _COUNTERS_FILE).read_text())
        except (OSError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    def _write_sidecar(self, payload: dict[str, Any]) -> None:
        # Advisory like the read: a store that cannot take the sidecar
        # (read-only, full) still serves its hits.
        text = json.dumps(payload, indent=1) + "\n"
        with contextlib.suppress(OSError):
            _write_atomic(self.root / _COUNTERS_FILE, text)

    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[tuple[str, Path]]:
        """Every cached entry as ``(model version, path)``, via an
        explicit two-level walk (generation dir -> shard dir -> entries)
        — no ``rglob``."""
        if not self.root.is_dir():
            return
        try:
            salt_dirs = sorted(p for p in self.root.iterdir() if p.is_dir())
        except OSError:
            return
        for salt_dir in salt_dirs:
            try:
                shards = sorted(p for p in salt_dir.iterdir() if p.is_dir())
            except OSError:
                continue
            for shard in shards:
                try:
                    children = sorted(shard.iterdir())
                except OSError:
                    continue
                for entry in children:
                    if entry.suffix == ".json" and _is_digest_name(entry.stem):
                        yield salt_dir.name, entry

    def _scan_index(self) -> dict[str, list[int]]:
        """``[entries, bytes]`` per model version, from a directory walk."""
        index: dict[str, list[int]] = {}
        for salt, path in self.iter_entries():
            size = _size_of(path)
            if size is None:
                continue
            pair = index.setdefault(salt, [0, 0])
            pair[0] += 1
            pair[1] += size
        return index

    def stats(self) -> StoreStats:
        index = self._scan_index()
        stale = [pair for salt, pair in index.items() if salt != self.salt]
        counters = self.persisted_counters()
        for key in _COUNTER_KEYS:
            counters[key] += getattr(self, key)
        return StoreStats(
            root=str(self.root),
            salt=self.salt,
            entries=index.get(self.salt, [0, 0])[0],
            bytes=sum(pair[1] for pair in index.values()),
            stale_entries=sum(pair[0] for pair in stale),
            generations_orphaned=len(stale),
            **counters,
        )

    # ------------------------------------------------------------------
    # Size-bounded LRU eviction.
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Store size across all generations: this process's running
        total, seeded by a scan at first use."""
        with self._total_lock:
            if self._total_bytes is None:
                self._total_bytes = sum(pair[1] for pair in self._scan_index().values())
            return self._total_bytes

    def _protected(self) -> frozenset[str]:
        if self.protect is None:
            return frozenset()
        try:
            return frozenset(self.protect())
        except Exception:  # noqa: BLE001 - protection must never break puts
            return frozenset()

    def _maybe_evict(self) -> None:
        if self.max_bytes is None or self.total_bytes() <= self.max_bytes:
            return
        self.evict_to(self.max_bytes, protected=self._protected())

    def evict_to(
        self,
        max_bytes: int,
        *,
        protected: Collection[str] | Iterable[str] = (),
    ) -> tuple[int, int]:
        """Evict least-recently-used entries until the store (all
        generations) fits in ``max_bytes``.  Returns ``(evicted,
        freed_bytes)``.

        Ordered by mtime ascending (hits refresh mtime, so this is LRU;
        stale-generation entries are naturally old and go first).
        Digests in ``protected`` — e.g. the serve daemon's in-flight
        set — are never removed, even if the bound cannot be met without
        them.  Vanished files (a concurrent evictor) are skipped, not
        errors.  The walk resets :meth:`total_bytes`.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        protected = frozenset(protected)
        candidates: list[tuple[float, str, int, Path]] = []
        total = 0
        for _, path in self.iter_entries():
            try:
                st = path.stat()
            except OSError:
                continue
            total += st.st_size
            candidates.append((st.st_mtime, path.stem, st.st_size, path))
        evicted = freed = 0
        if total > max_bytes:
            candidates.sort(key=lambda c: (c[0], c[1]))
            for _, digest, size, path in candidates:
                if total - freed <= max_bytes:
                    break
                if digest in protected:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                evicted += 1
                freed += size
                self.evictions += 1
                if _host.active is not None:
                    _host.active.metrics.counter("store.evictions").inc()
        with self._total_lock:
            self._total_bytes = total - freed
        return evicted, freed

    def clear(self) -> int:
        """Delete every cached entry (all generations).  Returns the
        count."""
        removed = sum(1 for _ in self.iter_entries())
        if self.root.is_dir():
            shutil.rmtree(self.root)
        self._total_bytes = None
        return removed
