"""Content-addressed on-disk result store.

One SQLite database per *model version*, one row per executed cell,
keyed by the cell's content digest: ``<root>/<MODEL_VERSION>/cells.sqlite``.
A store reads and writes only the running code's
:data:`repro.machine.fingerprint.MODEL_VERSION`; bumping it orphans
every cached cell in place, as a stale generation that ``repro cache
stats`` reports and ``repro cache clear`` and eviction reap.  Files of
the sharded JSON layout that preceded the database
(``<root>/<version>/<digest[:2]>/<digest>.json``) are stale too, never
served nor migrated.

A row's ``body`` is the cell's entry JSON with floats as ``float.hex()``
strings, so a hit reconstitutes the *exact* per-iteration times.  Each
put commits on its own (WAL journal, a busy timeout for writers in other
threads and processes), so every cell completed before a
``KeyboardInterrupt`` is durable; a put that fails (an unwritable root,
a full disk) raises :class:`StoreError`, and a read that cannot open or
parse is a miss.  The ``counters`` table takes the lifetime access
counters as atomic increments, and triggers keep the bodies' total size
there.  Counters and the recency of hits (each row's ``used`` time,
which eviction orders by) are written once per batch, best-effort.

Connections are opened lazily, one per thread and per process (a forked
worker never touches its parent's), and a database removed or replaced
under a live store (``repro cache clear`` from another process) is
reopened at the next access.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator

from ..machine.fingerprint import MODEL_VERSION
from ..obs import host as _host
from .spec import CellOutcome, CellSpec

__all__ = ["ResultStore", "StoreError", "StoreStats", "default_cache_dir"]

#: Bump when the *entry format* (not the pricing model) changes.
_FORMAT_VERSION = 1

#: The database of one generation, under ``<root>/<MODEL_VERSION>/``.
_DB_NAME = "cells.sqlite"

#: Seconds a connection waits for another writer before giving up.
_BUSY_TIMEOUT_S = 60.0

#: Created once per database; triggers keep ``stored_bytes`` = SUM(length(body)).
_SCHEMA = """
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS cells (
    digest TEXT PRIMARY KEY, body BLOB NOT NULL, used REAL NOT NULL);
CREATE INDEX IF NOT EXISTS cells_by_use ON cells (used, digest);
CREATE TABLE IF NOT EXISTS counters (name TEXT PRIMARY KEY, value INTEGER NOT NULL);
INSERT OR IGNORE INTO counters VALUES ('stored_bytes', 0);
CREATE TRIGGER IF NOT EXISTS cells_added AFTER INSERT ON cells BEGIN UPDATE counters
    SET value = value + length(new.body) WHERE name = 'stored_bytes'; END;
CREATE TRIGGER IF NOT EXISTS cells_rewritten AFTER UPDATE OF body ON cells BEGIN UPDATE
    counters SET value = value + length(new.body) - length(old.body)
    WHERE name = 'stored_bytes'; END;
CREATE TRIGGER IF NOT EXISTS cells_removed AFTER DELETE ON cells BEGIN UPDATE counters
    SET value = value - length(old.body) WHERE name = 'stored_bytes'; END;
PRAGMA user_version = 1;
COMMIT;
"""
_PUT = (
    "INSERT INTO cells (digest, body, used) VALUES (?, ?, ?) ON CONFLICT (digest) "
    "DO UPDATE SET body = excluded.body, used = excluded.used"
)
_INCREMENT = (
    "INSERT INTO counters (name, value) VALUES (?, ?) "
    "ON CONFLICT (name) DO UPDATE SET value = value + excluded.value"
)
_TOTALS = "SELECT COUNT(*), (SELECT value FROM counters WHERE name = 'stored_bytes') FROM cells"

#: The lifetime counters persisted in the ``counters`` table.
_COUNTER_KEYS = ("hits", "misses", "writes", "bytes_read", "bytes_written", "evictions")

#: Connections a forked child inherited, kept referenced so that the
#: child never closes (touches) its parent's database handles.
_INHERITED: list[dict] = []


class StoreError(OSError):
    """A cell could not be written to the result store (an unwritable
    root, a full disk); the message names the root and the cause."""


def _open(path: Path) -> sqlite3.Connection:
    """A connection to the database at ``path`` (created if absent),
    in WAL mode and with its schema."""
    conn = sqlite3.connect(
        path, timeout=_BUSY_TIMEOUT_S, isolation_level=None, check_same_thread=False
    )
    try:
        # On a brand-new file, another connection's first open can hold
        # the lock this switch needs, and SQLite then reports "database
        # is locked" at once instead of waiting out the busy timeout.
        deadline = time.monotonic() + _BUSY_TIMEOUT_S
        while True:
            try:
                conn.execute("PRAGMA journal_mode = WAL")
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
                time.sleep(0.001)
        # Commits survive a killed process; a power cut may lose the
        # last ones, which are then recomputed.
        conn.execute("PRAGMA synchronous = NORMAL")
        if conn.execute("PRAGMA user_version").fetchone()[0] == 0:
            conn.executescript(_SCHEMA)
    except BaseException:
        conn.close()
        raise
    return conn


def _db_totals(path: Path) -> tuple[int, int]:
    """``(entries, bytes)`` of another generation's database; zeros
    when it cannot be read."""
    uri = f"{path.absolute().as_uri()}?mode=rw"
    try:
        with contextlib.closing(sqlite3.connect(uri, uri=True)) as conn:
            entries, nbytes = conn.execute(_TOTALS).fetchone()
    except sqlite3.Error:
        return 0, 0
    return entries, nbytes or 0


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
    bytes_read: int = 0  #: Lifetime bytes served from stored entries.
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
            lines.append(f"  evicted:     {self.evictions} entries (size-bound LRU)")
        if self.stale_entries:
            lines.append(
                f"  stale:       {self.stale_entries} entries from older model "
                "generations (repro cache clear reaps them)"
            )
        if self.generations_orphaned:
            lines.append(
                f"  orphaned:    {self.generations_orphaned} older model generation(s) on disk"
            )
        return "\n".join(lines)


class ResultStore:
    """Content-addressed cell-outcome store on the local filesystem.

    It reads and writes the generation of the running code's
    ``MODEL_VERSION`` (:attr:`salt`, fixed at construction); everything
    else under the root is stale, reaped by eviction and :meth:`clear`.

    Parameters
    ----------
    root:
        Store directory (default: :func:`default_cache_dir`).
    max_bytes:
        Optional size bound.  When set, a put that pushes the store
        (all generations) past the bound triggers an eviction pass back
        down to it.  ``None`` (default) never evicts.
    protect:
        Optional callable returning digests that must never be evicted
        (the serve daemon's in-flight set).  Called from whichever thread
        runs the eviction, so it must be thread-safe.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        max_bytes: int | None = None,
        protect: Callable[[], Collection[str]] | None = None,
    ):
        # This process's connections by thread, with the file's (device, inode).
        self._pid = os.getpid()
        self._conns: dict[int, tuple[sqlite3.Connection, tuple[int, int]]] = {}
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = MODEL_VERSION
        self.max_bytes = max_bytes
        self.protect = protect
        self._db = self.root / self.salt / _DB_NAME
        # Counters and hits (digest -> time) since the last flush_counters().
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.evictions = 0
        self._used: dict[str, float] = {}
        self._lock = threading.Lock()
        # Nothing writes stale content any more: a bounded store sizes it
        # once, then only its evictions move it.
        self._stale_bytes: int | None = None
        # This process's writers queue here rather than in SQLite's busy
        # handler, which sleeps a millisecond or more per collision.
        self._writing = threading.Lock()

    def __del__(self) -> None:
        # Close this process's connections now, not at some later cycle
        # collection; a forked child keeps its parent's untouched.
        if self._pid != os.getpid():
            _INHERITED.append(self._conns)
            return
        for conn, _ in self._conns.values():
            with contextlib.suppress(sqlite3.Error):
                conn.close()

    # ------------------------------------------------------------------
    def _connection(self, *, create: bool) -> sqlite3.Connection | None:
        """This thread's connection to the generation's database, opened
        on first use and reopened when the file was removed or replaced;
        ``None`` when the file is absent and ``create`` is false."""
        try:
            st = os.stat(self._db)
            inode = (st.st_dev, st.st_ino)
        except OSError:
            if not create:
                return None
            inode = None
        if self._pid != os.getpid():
            _INHERITED.append(self._conns)
            self._pid, self._conns = os.getpid(), {}
        held = self._conns.pop(threading.get_ident(), None)
        if held is not None and held[1] == inode:
            conn = held[0]
        else:
            if held is not None:
                with contextlib.suppress(sqlite3.Error):
                    held[0].close()
            self._db.parent.mkdir(parents=True, exist_ok=True)
            conn = _open(self._db)
            st = os.stat(self._db)
            inode = (st.st_dev, st.st_ino)
        self._conns[threading.get_ident()] = (conn, inode)
        return conn

    @contextlib.contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """A write transaction that holds the write lock from its start."""
        with self._writing:
            conn = self._connection(create=True)
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
                conn.execute("COMMIT")
            except BaseException:
                with contextlib.suppress(sqlite3.Error):
                    conn.rollback()
                raise

    def _body(self, digest: str) -> bytes | None:
        """The stored entry JSON of one digest; ``None`` when absent."""
        conn = self._connection(create=False)
        query = "SELECT body FROM cells WHERE digest = ?"
        row = conn.execute(query, (digest,)).fetchone() if conn else None
        return row[0] if row else None

    def get(self, spec: CellSpec) -> CellOutcome | None:
        """The stored outcome for ``spec``, or ``None``.  Unreadable or
        malformed entries behave as misses (the cell re-executes and
        overwrites them).  A hit refreshes the entry's recency, written
        at the next :meth:`flush_counters`."""
        telemetry = _host.active
        begin = telemetry.now() if telemetry is not None else 0.0
        try:
            body = self._body(spec.digest)
            if body is None:
                return self._miss(telemetry, begin)
            data = json.loads(body)
            if data.get("format") != _FORMAT_VERSION:
                return self._miss(telemetry, begin)
            outcome = CellOutcome(
                times=tuple(float.fromhex(t) for t in data["times_hex"]),
                verified=bool(data["verified"]),
                events=int(data["events"]),
                virtual_time=float.fromhex(data["virtual_time_hex"]),
            )
        except (sqlite3.Error, OSError, ValueError, KeyError, TypeError, AttributeError):
            return self._miss(telemetry, begin)
        with self._lock:
            self.hits += 1
            self.bytes_read += len(body)
            self._used[spec.digest] = time.time()
        if telemetry is not None:
            telemetry.metrics.counter("store.hits").inc()
            telemetry.metrics.counter("store.bytes_read").inc(len(body))
            telemetry.metrics.histogram("store.read_seconds", "latency").observe(
                telemetry.now() - begin
            )
        return outcome

    def read_digest(self, digest: str) -> dict[str, Any] | None:
        """The raw persisted payload of one digest, or ``None`` — the
        serve daemon's ``GET /cells/<digest>``."""
        try:
            body = self._body(digest)
            data = json.loads(body) if body is not None else None
        except (sqlite3.Error, OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _miss(self, telemetry, begin: float) -> None:
        with self._lock:
            self.misses += 1
        if telemetry is not None:
            telemetry.metrics.counter("store.misses").inc()
            telemetry.metrics.histogram("store.read_seconds", "latency").observe(
                telemetry.now() - begin
            )

    def put(self, spec: CellSpec, outcome: CellOutcome) -> None:
        """Persist ``outcome`` under ``spec``'s digest, committed when this
        returns; raises :class:`StoreError` when it cannot be written."""
        payload = {
            "format": _FORMAT_VERSION,
            # Human provenance — ignored on load, keyed by the digest.
            "cell": spec.describe(),
            "times_hex": [t.hex() for t in outcome.times],
            "verified": outcome.verified,
            "events": outcome.events,
            "virtual_time_hex": outcome.virtual_time.hex(),
        }
        telemetry = _host.active
        begin = telemetry.now() if telemetry is not None else 0.0
        body = (json.dumps(payload, indent=1) + "\n").encode()
        try:
            with self._writing:
                self._connection(create=True).execute(_PUT, (spec.digest, body, time.time()))
        except (sqlite3.Error, OSError) as exc:
            raise StoreError(
                f"cannot write to the result store at {self.root}: {exc}"
            ) from exc
        with self._lock:
            self.writes += 1
            self.bytes_written += len(body)
        if telemetry is not None:
            telemetry.metrics.counter("store.writes").inc()
            telemetry.metrics.counter("store.bytes_written").inc(len(body))
            telemetry.metrics.histogram("store.write_seconds", "latency").observe(
                telemetry.now() - begin
            )
        if self.max_bytes is not None:
            self._maybe_evict()

    # ------------------------------------------------------------------
    def flush_counters(self) -> dict[str, int]:
        """Add this process's counter deltas to the persisted totals and
        write the recency of its hits, in one transaction of atomic
        increments; returns the lifetime totals.  Best-effort: when the
        database refuses the write, the deltas are dropped."""
        with self._lock:
            deltas = [(key, getattr(self, key)) for key in _COUNTER_KEYS if getattr(self, key)]
            for key in _COUNTER_KEYS:
                setattr(self, key, 0)
            used, self._used = self._used, {}
        if deltas or used:
            with contextlib.suppress(sqlite3.Error, OSError), self._transaction() as conn:
                conn.executemany(
                    "UPDATE cells SET used = ? WHERE digest = ?",
                    [(when, digest) for digest, when in used.items()],
                )
                conn.executemany(_INCREMENT, deltas)
        return self.persisted_counters()

    def persisted_counters(self) -> dict[str, int]:
        """The lifetime totals from the database (zeros if absent or
        unreadable — counters are advisory, never load-bearing)."""
        totals = dict.fromkeys(_COUNTER_KEYS, 0)
        try:
            conn = self._connection(create=False)
            rows = conn.execute("SELECT name, value FROM counters").fetchall() if conn else []
        except (sqlite3.Error, OSError):
            return totals
        for key, value in rows:
            if key in totals and isinstance(value, int) and value >= 0:
                totals[key] = value
        return totals

    # ------------------------------------------------------------------
    def _totals(self) -> tuple[int, int]:
        """``(entries, bytes)`` of this generation's database."""
        try:
            conn = self._connection(create=False)
            entries, nbytes = conn.execute(_TOTALS).fetchone() if conn else (0, 0)
        except (sqlite3.Error, OSError):
            return 0, 0
        return entries, nbytes or 0

    def _stale(self) -> list[tuple[Path, int, int]]:
        """Everything under the root this store does not serve, as
        reapable ``(path, entries, bytes)``: old-layout entry files, then
        each other generation's directory with its database."""
        stale = []
        for path in sorted(self.root.glob("*/*/*.json")):
            with contextlib.suppress(OSError):
                stale.append((path, 1, path.stat().st_size))
        for db in sorted(self.root.glob(f"*/{_DB_NAME}")):
            if db.parent.name != self.salt:
                stale.append((db.parent, *_db_totals(db)))
        return stale

    def stats(self) -> StoreStats:
        entries, nbytes = self._totals()
        stale = self._stale()
        counters = self.persisted_counters()
        for key in _COUNTER_KEYS:
            counters[key] += getattr(self, key)
        generations = {p.relative_to(self.root).parts[0] for p, count, _ in stale if count}
        return StoreStats(
            root=str(self.root),
            salt=self.salt,
            entries=entries,
            bytes=nbytes + sum(size for _, _, size in stale),
            stale_entries=sum(count for _, count, _ in stale),
            generations_orphaned=len(generations - {self.salt}),
            **counters,
        )

    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Store size across all generations: the database's running
        total plus the stale files'."""
        return self._totals()[1] + sum(size for _, _, size in self._stale())

    def _maybe_evict(self) -> None:
        if self._stale_bytes is None:
            self._stale_bytes = sum(size for _, _, size in self._stale())
        if self._totals()[1] + self._stale_bytes <= self.max_bytes:
            return
        try:
            protected = frozenset(self.protect() if self.protect else ())
        except Exception:  # noqa: BLE001 - protection must never break puts
            protected = frozenset()
        self.evict_to(self.max_bytes, protected=protected)

    def evict_to(self, max_bytes: int, *, protected: Iterable[str] = ()) -> tuple[int, int]:
        """Evict until the store (all generations) fits in
        ``max_bytes``; returns ``(evicted, freed_bytes)``.  Stale content
        goes first, then rows in order of ``used`` (set by puts and by
        hits, which are flushed first: LRU).  Digests in ``protected``
        are never removed, even if the bound cannot be met without them.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        protected = frozenset(protected)
        self.flush_counters()
        stale = self._stale()
        stale_bytes = sum(size for _, _, size in stale)
        excess = self._totals()[1] + stale_bytes - max_bytes
        evicted = freed = 0
        for path, count, size in stale:
            if excess <= 0:
                break
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)
                with contextlib.suppress(OSError):
                    path.parent.rmdir()  # the shard, once empty
            evicted, freed, excess = evicted + count, freed + size, excess - size
        self._stale_bytes = stale_bytes - freed
        victims: list[tuple[str]] = []
        if excess > 0 and self._db.exists():
            try:
                with self._transaction() as conn:
                    lru = "SELECT digest, length(body) FROM cells ORDER BY used, digest"
                    lru = conn.execute(lru)
                    for digest, size in lru:
                        if excess <= 0:
                            break
                        if digest not in protected:
                            victims.append((digest,))
                            freed, excess = freed + size, excess - size
                    lru.close()
                    conn.executemany("DELETE FROM cells WHERE digest = ?", victims)
            except (sqlite3.Error, OSError) as exc:
                raise StoreError(f"cannot evict from the store at {self.root}: {exc}") from exc
        evicted += len(victims)
        with self._lock:
            self.evictions += evicted
        if _host.active is not None and evicted:
            _host.active.metrics.counter("store.evictions").inc(evicted)
        return evicted, freed

    def clear(self) -> int:
        """Delete every cached entry (all generations); returns the count."""
        removed = self._totals()[0] + sum(count for _, count, _ in self._stale())
        if self.root.is_dir():
            shutil.rmtree(self.root)
        return removed
