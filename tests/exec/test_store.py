"""The content-addressed result store: roundtrips, model-version
invalidation, corruption tolerance, write failures, stats, and
clearing."""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing
from dataclasses import replace

import pytest

from repro.core import TimingPolicy, strided_for_bytes
from repro.exec import (
    CellSpec,
    Executor,
    ResultStore,
    StoreError,
    default_cache_dir,
    execute_spec,
)
from repro.exec import store as store_mod
from repro.machine.fingerprint import MODEL_VERSION


def sql(root, statement: str, *args):
    """Run one statement on the generation database under ``root`` (a
    connection of its own, as another process would) and return its
    rows."""
    with closing(sqlite3.connect(root / MODEL_VERSION / "cells.sqlite")) as conn:
        with conn:
            return conn.execute(statement, args).fetchall()


def small_spec(platform) -> CellSpec:
    return CellSpec(
        scheme="copying",
        layout=strided_for_bytes(2_048),
        platform=platform,
        policy=TimingPolicy(iterations=2, flush=False),
        materialize=False,
    )


def test_default_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "mine"))
    assert default_cache_dir() == tmp_path / "mine"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro-mpi"


def test_roundtrip_is_bit_exact(tmp_path, ideal):
    spec = small_spec(ideal)
    outcome = execute_spec(spec)
    store = ResultStore(tmp_path)
    store.put(spec, outcome)
    loaded = store.get(spec)
    assert loaded is not None
    assert [t.hex() for t in loaded.times] == [t.hex() for t in outcome.times]
    assert loaded.virtual_time.hex() == outcome.virtual_time.hex()
    assert loaded.events == outcome.events
    assert loaded.verified == outcome.verified
    # And the reconstituted public result matches the fresh one exactly.
    assert spec.to_result(loaded, cached=True).stats == spec.to_result(outcome).stats


def test_miss_returns_none(tmp_path, ideal):
    assert ResultStore(tmp_path).get(small_spec(ideal)) is None


def test_salt_bump_orphans_old_entries(tmp_path, ideal, monkeypatch):
    spec = small_spec(ideal)
    outcome = execute_spec(spec)
    monkeypatch.setattr("repro.exec.store.MODEL_VERSION", "v1")
    v1 = ResultStore(tmp_path)
    v1.put(spec, outcome)
    assert v1.get(spec) is not None
    # A pricing-model bump: same digest, new salt -> forced re-run.
    monkeypatch.setattr("repro.exec.store.MODEL_VERSION", "v2")
    v2 = ResultStore(tmp_path)
    assert v2.salt == "v2"
    assert v2.get(spec) is None
    stats = v2.stats()
    assert stats.entries == 0 and stats.stale_entries == 1
    assert "older model generations" in stats.render()


def test_corrupt_entry_behaves_as_miss(tmp_path, ideal):
    spec = small_spec(ideal)
    store = ResultStore(tmp_path)
    store.put(spec, execute_spec(spec))

    sql(tmp_path, "UPDATE cells SET body = substr(body, 1, 20) WHERE digest = ?", spec.digest)
    assert store.get(spec) is None

    # Valid JSON from a future format is a miss too, not a crash.
    future = json.dumps({"format": 999, "times_hex": []}).encode()
    sql(tmp_path, "UPDATE cells SET body = ? WHERE digest = ?", future, spec.digest)
    assert store.get(spec) is None

    # Overwriting repairs it.
    store.put(spec, execute_spec(spec))
    assert store.get(spec) is not None


def test_stats_and_clear(tmp_path, ideal, skx):
    store = ResultStore(tmp_path)
    for platform in (ideal, skx):
        spec = small_spec(platform)
        store.put(spec, execute_spec(spec))
    stats = store.stats()
    assert stats.entries == 2 and stats.stale_entries == 0
    assert stats.bytes > 0
    assert str(tmp_path) in stats.render()
    assert store.clear() == 2
    assert store.stats().entries == 0
    assert store.clear() == 0  # idempotent on an empty/absent root


def test_access_counters_track_hits_misses_writes(tmp_path, ideal):
    store = ResultStore(tmp_path)
    spec = small_spec(ideal)
    store.get(spec)  # miss
    store.put(spec, execute_spec(spec))  # write
    store.get(spec)  # hit
    assert (store.hits, store.misses, store.writes) == (1, 1, 1)
    assert store.bytes_written > 0
    [(stored,)] = sql(tmp_path, "SELECT length(body) FROM cells")
    assert store.bytes_read == stored
    stats = store.stats()
    assert stats.hits == 1 and stats.misses == 1 and stats.writes == 1
    assert "1 hits, 1 misses, 1 writes" in stats.render()
    assert "B read" in stats.render()


def test_corrupt_entry_counts_as_miss(tmp_path, ideal):
    store = ResultStore(tmp_path)
    spec = small_spec(ideal)
    store.put(spec, execute_spec(spec))
    sql(tmp_path, "UPDATE cells SET body = substr(body, 1, 11)")
    store.get(spec)
    assert store.misses == 1 and store.hits == 0


def test_flush_counters_persists_lifetime_totals(tmp_path, ideal):
    spec = small_spec(ideal)
    first = ResultStore(tmp_path)
    first.get(spec)
    first.put(spec, execute_spec(spec))
    totals = first.flush_counters()
    assert totals["misses"] == 1 and totals["writes"] == 1
    # Flushing resets the in-process deltas ...
    assert first.misses == 0 and first.writes == 0
    # ... and a fresh store (new process, same root) sees the history.
    second = ResultStore(tmp_path)
    assert second.persisted_counters()["writes"] == 1
    second.get(spec)
    second.flush_counters()
    merged = ResultStore(tmp_path).persisted_counters()
    assert merged["hits"] == 1 and merged["misses"] == 1 and merged["writes"] == 1
    # stats() folds persisted + in-process counters together.
    third = ResultStore(tmp_path)
    third.get(spec)
    assert third.stats().hits == 2


def test_counters_are_not_cache_entries(tmp_path, ideal):
    store = ResultStore(tmp_path)
    spec = small_spec(ideal)
    store.put(spec, execute_spec(spec))
    assert store.flush_counters()["writes"] == 1
    stats = store.stats()
    assert stats.entries == 1 and stats.stale_entries == 0
    # clear() removes everything, the counters too, idempotently.
    assert store.clear() == 1
    assert not tmp_path.exists()
    assert ResultStore(tmp_path).persisted_counters()["writes"] == 0


def test_corrupt_counters_read_as_zero(tmp_path, ideal):
    zeros = {
        "hits": 0,
        "misses": 0,
        "writes": 0,
        "bytes_read": 0,
        "bytes_written": 0,
        "evictions": 0,
    }
    spec = small_spec(ideal)
    ResultStore(tmp_path).put(spec, execute_spec(spec))  # never flushed
    store = ResultStore(tmp_path)
    store.get(spec)
    assert store.flush_counters()["hits"] == 1
    # Negative / non-int values are ignored, not trusted.
    sql(tmp_path, "UPDATE counters SET value = -3 WHERE name = 'bytes_read'")
    sql(tmp_path, "INSERT OR REPLACE INTO counters VALUES ('hits', 'many')")
    assert ResultStore(tmp_path).persisted_counters() == zeros
    # A database that is not one reads as no counters at all.
    garbage = tmp_path / "garbage"
    (garbage / MODEL_VERSION).mkdir(parents=True)
    (garbage / MODEL_VERSION / "cells.sqlite").write_bytes(b"not a database " * 300)
    assert ResultStore(garbage).persisted_counters() == zeros


def test_flush_without_activity_touches_nothing(tmp_path):
    store = ResultStore(tmp_path)
    totals = store.flush_counters()
    assert all(v == 0 for v in totals.values())
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_entry_files_carry_human_provenance(tmp_path, ideal):
    spec = small_spec(ideal)
    store = ResultStore(tmp_path)
    store.put(spec, execute_spec(spec))
    [(body,)] = sql(tmp_path, "SELECT body FROM cells WHERE digest = ?", spec.digest)
    data = json.loads(body)
    assert "copying" in data["cell"] and "ideal" in data["cell"]
    assert store.read_digest(spec.digest) == data


def old_layout_entry(tmp_path, spec, *, flat: bool = False):
    """``spec``'s entry as a file of the sharded JSON layout (or of the
    flat one before it), with the bytes a put stores in a row."""
    body = (json.dumps({"format": 1, "cell": spec.describe()}, indent=1) + "\n").encode()
    parent = tmp_path / MODEL_VERSION
    path = (parent if flat else parent / spec.digest[:2]) / f"{spec.digest}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(body)
    return path


def test_a_flat_entry_is_neither_served_nor_counted(tmp_path, ideal):
    """An entry directly under the generation directory
    (``<root>/<MODEL_VERSION>/<digest>.json``) is not a cell."""
    spec = small_spec(ideal)
    flat = old_layout_entry(tmp_path, spec, flat=True)
    fresh = ResultStore(tmp_path)
    assert fresh.get(spec) is None
    assert fresh.read_digest(spec.digest) is None
    stats = fresh.stats()
    assert (stats.entries, stats.bytes, stats.stale_entries) == (0, 0, 0)
    # cache clear still reaps it with the rest of the root.
    fresh.clear()
    assert not flat.exists()


def test_an_old_layout_entry_is_stale_and_reaped(tmp_path, ideal, skx):
    """A file of the sharded JSON layout is neither served nor migrated:
    it counts as stale (not as an orphaned generation) and eviction
    reaps it before any row."""
    old, kept = small_spec(ideal), small_spec(skx)
    path = old_layout_entry(tmp_path, old)
    store = ResultStore(tmp_path)
    store.put(kept, execute_spec(kept))
    assert store.get(old) is None and store.read_digest(old.digest) is None
    stats = store.stats()
    [(row_bytes,)] = sql(tmp_path, "SELECT length(body) FROM cells")
    assert (stats.entries, stats.stale_entries, stats.generations_orphaned) == (1, 1, 0)
    file_bytes = path.stat().st_size
    assert stats.bytes == store.total_bytes() == row_bytes + file_bytes
    assert store.evict_to(row_bytes) == (1, file_bytes)
    assert not path.parent.exists()
    assert store.get(kept) is not None
    assert store.stats().stale_entries == 0


def test_another_generation_is_reaped_whole_before_any_row(tmp_path, ideal, monkeypatch):
    spec = small_spec(ideal)
    monkeypatch.setattr("repro.exec.store.MODEL_VERSION", "v0")
    ResultStore(tmp_path).put(spec, execute_spec(spec))
    monkeypatch.undo()
    store = ResultStore(tmp_path)
    store.put(spec, execute_spec(spec))
    stats = store.stats()
    assert (stats.entries, stats.stale_entries, stats.generations_orphaned) == (1, 1, 1)
    evicted, freed = store.evict_to(stats.bytes // 2 + 1)
    assert evicted == 1 and freed == stats.bytes // 2
    assert not (tmp_path / "v0").exists()
    assert store.get(spec) is not None


def deny_writes(monkeypatch):
    """Every database the store opens from now on refuses changes, as a
    read-only file would (the tests may run as root, which ignores
    file modes)."""
    real_open = store_mod._open
    writes = {sqlite3.SQLITE_INSERT, sqlite3.SQLITE_UPDATE, sqlite3.SQLITE_DELETE}

    def read_only(path):
        conn = real_open(path)
        conn.set_authorizer(
            lambda action, *_: sqlite3.SQLITE_DENY if action in writes else sqlite3.SQLITE_OK
        )
        return conn

    monkeypatch.setattr(store_mod, "_open", read_only)


def test_an_all_hit_batch_survives_refused_counter_writes(tmp_path, ideal, skx, monkeypatch):
    """The lifetime counters and recency are advisory: when the database
    refuses them, a batch of hits still returns its results."""
    specs = [small_spec(ideal), small_spec(skx)]
    specs.append(replace(specs[0], scheme="reference"))
    writer = ResultStore(tmp_path)
    for spec in specs:
        writer.put(spec, execute_spec(spec))
    writer.flush_counters()

    deny_writes(monkeypatch)
    reader = ResultStore(tmp_path)
    executor = Executor(jobs=1, cache=reader)
    results = executor.execute_batch(specs)
    assert [cached for _, cached in results] == [True, True, True]
    assert executor.cells_cached == 3 and executor.cells_executed == 0
    assert reader.persisted_counters()["hits"] == 0  # the flush was refused
    with pytest.raises(StoreError, match="not authorized"):
        reader.put(specs[0], results[0][0])


class FullDisk:
    """A connection whose cell inserts fail as SQLite reports a full
    disk; everything else passes through."""

    def __init__(self, conn):
        self._conn = conn

    def execute(self, statement, *args):
        if statement.startswith("INSERT INTO cells"):
            raise sqlite3.OperationalError("database or disk is full")
        return self._conn.execute(statement, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_a_failed_put_raises_store_error_and_leaves_no_temp_file(tmp_path, ideal, skx, monkeypatch):
    """A disk that fills mid-write: the put raises a typed error naming
    the root and the cause, it leaves no partial row or stray file, and
    the cells written before it stay readable."""
    done, failing = small_spec(ideal), small_spec(skx)
    ResultStore(tmp_path).put(done, execute_spec(done))
    real_open = store_mod._open
    monkeypatch.setattr(store_mod, "_open", lambda path: FullDisk(real_open(path)))
    store = ResultStore(tmp_path)
    with pytest.raises(StoreError) as info:
        store.put(failing, execute_spec(failing))
    monkeypatch.undo()
    assert isinstance(info.value, OSError)
    assert str(tmp_path) in str(info.value)
    assert "database or disk is full" in str(info.value)
    files = {path.name for path in tmp_path.rglob("*") if path.is_file()}
    assert files <= {"cells.sqlite", "cells.sqlite-wal", "cells.sqlite-shm"}
    assert store.get(failing) is None
    assert store.get(done) is not None
    assert store.stats().entries == 1


class LockedOnce:
    """A connection whose first switch to WAL finds the database locked,
    as a concurrent first open of a fresh store can; everything else
    passes through."""

    def __init__(self, conn):
        self._conn = conn
        self._refused = False

    def execute(self, statement, *args):
        if statement == "PRAGMA journal_mode = WAL" and not self._refused:
            self._refused = True
            raise sqlite3.OperationalError("database is locked")
        return self._conn.execute(statement, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_a_locked_switch_to_wal_is_retried(tmp_path, ideal, monkeypatch):
    """SQLite reports a locked WAL switch at once, without waiting out
    the busy timeout; the open retries it, so the put lands."""
    spec = small_spec(ideal)
    real_connect = sqlite3.connect
    monkeypatch.setattr(
        sqlite3, "connect", lambda *args, **kwargs: LockedOnce(real_connect(*args, **kwargs))
    )
    store = ResultStore(tmp_path)
    store.put(spec, execute_spec(spec))
    monkeypatch.undo()
    assert store.get(spec) is not None
    assert store.stats().entries == 1


def test_a_garbage_database_misses_and_refuses_puts(tmp_path, ideal):
    """A ``cells.sqlite`` overwritten with garbage: every read is a miss
    and a put raises the one typed error."""
    spec = small_spec(ideal)
    (tmp_path / MODEL_VERSION).mkdir()
    (tmp_path / MODEL_VERSION / "cells.sqlite").write_bytes(b"garbage" * 1000)
    fresh = ResultStore(tmp_path)
    assert fresh.get(spec) is None and fresh.read_digest(spec.digest) is None
    assert (fresh.stats().entries, fresh.misses) == (0, 1)
    with pytest.raises(StoreError, match=str(tmp_path)):
        fresh.put(spec, execute_spec(spec))
