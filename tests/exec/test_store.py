"""The content-addressed result store: roundtrips, model-version
invalidation, corruption tolerance, write failures, stats, and
clearing."""

from __future__ import annotations

import errno
import json
import os
from dataclasses import replace
from pathlib import Path

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
from repro.machine.fingerprint import MODEL_VERSION


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
    path = store.path_for(spec)

    path.write_text("{ truncated by a kill -9")
    assert store.get(spec) is None

    # Valid JSON from a future format is a miss too, not a crash.
    path.write_text(json.dumps({"format": 999, "times_hex": []}))
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
    assert store.bytes_read == store.path_for(spec).stat().st_size
    stats = store.stats()
    assert stats.hits == 1 and stats.misses == 1 and stats.writes == 1
    assert "1 hits, 1 misses, 1 writes" in stats.render()
    assert "B read" in stats.render()


def test_corrupt_entry_counts_as_miss(tmp_path, ideal):
    store = ResultStore(tmp_path)
    spec = small_spec(ideal)
    store.put(spec, execute_spec(spec))
    store.path_for(spec).write_text("{ truncated")
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


def test_counters_sidecar_is_not_a_cache_entry(tmp_path, ideal):
    store = ResultStore(tmp_path)
    spec = small_spec(ideal)
    store.put(spec, execute_spec(spec))
    store.flush_counters()
    assert (tmp_path / "counters.json").exists()
    stats = store.stats()
    assert stats.entries == 1 and stats.stale_entries == 0
    # clear() removes everything, including the sidecar, idempotently.
    assert store.clear() == 1
    assert not (tmp_path / "counters.json").exists()
    assert ResultStore(tmp_path).persisted_counters()["writes"] == 0


def test_corrupt_sidecar_reads_as_zero(tmp_path):
    (tmp_path / "counters.json").write_text("not json at all")
    store = ResultStore(tmp_path)
    assert store.persisted_counters() == {
        "hits": 0,
        "misses": 0,
        "writes": 0,
        "bytes_read": 0,
        "bytes_written": 0,
        "evictions": 0,
    }
    # Negative / non-int values are ignored, not trusted.
    (tmp_path / "counters.json").write_text('{"hits": -3, "writes": "many"}')
    assert store.persisted_counters()["hits"] == 0
    assert store.persisted_counters()["writes"] == 0


def test_flush_without_activity_touches_nothing(tmp_path):
    store = ResultStore(tmp_path)
    totals = store.flush_counters()
    assert all(v == 0 for v in totals.values())
    assert not (tmp_path / "counters.json").exists()


def test_entry_files_carry_human_provenance(tmp_path, ideal):
    spec = small_spec(ideal)
    store = ResultStore(tmp_path)
    store.put(spec, execute_spec(spec))
    data = json.loads(store.path_for(spec).read_text())
    assert "copying" in data["cell"] and "ideal" in data["cell"]


def test_a_flat_entry_is_neither_served_nor_counted(tmp_path, ideal):
    """One layout: an entry directly under the generation directory
    (``<root>/<MODEL_VERSION>/<digest>.json``) is not a cell."""
    spec = small_spec(ideal)
    store = ResultStore(tmp_path)
    flat = tmp_path / MODEL_VERSION / f"{spec.digest}.json"
    os.replace(store.put(spec, execute_spec(spec)), flat)
    fresh = ResultStore(tmp_path)
    assert fresh.get(spec) is None
    assert fresh.read_digest(spec.digest) is None
    stats = fresh.stats()
    assert (stats.entries, stats.bytes, stats.stale_entries) == (0, 0, 0)
    assert flat.is_file() and not fresh.path_for(spec).exists()
    # cache clear still reaps it with the rest of the root.
    fresh.clear()
    assert not flat.exists()


def test_an_all_hit_batch_survives_an_unwritable_sidecar(tmp_path, ideal, skx, monkeypatch):
    """The lifetime counters are advisory: when ``counters.json`` cannot
    be written, a batch of hits still returns its results."""
    specs = [small_spec(ideal), small_spec(skx)]
    specs.append(replace(specs[0], scheme="reference"))
    writer = ResultStore(tmp_path)
    for spec in specs:
        writer.put(spec, execute_spec(spec))

    def read_only(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", str(dst))

    monkeypatch.setattr(os, "replace", read_only)
    executor = Executor(jobs=1, cache=ResultStore(tmp_path))
    results = executor.execute_batch(specs)
    assert [cached for _, cached in results] == [True, True, True]
    assert executor.cells_cached == 3 and executor.cells_executed == 0
    assert not list(tmp_path.glob("*.tmp.*"))


def test_a_failed_put_raises_store_error_and_leaves_no_temp_file(tmp_path, ideal, skx, monkeypatch):
    """A disk that fills mid-write: the put raises a typed error naming
    the root and the cause, its scratch file is gone, and the cells
    written before it stay readable."""
    store = ResultStore(tmp_path)
    done, failing = small_spec(ideal), small_spec(skx)
    store.put(done, execute_spec(done))
    write_text = Path.write_text

    def full_disk(self, text, *args, **kwargs):
        write_text(self, text[:10], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full_disk)
    with pytest.raises(StoreError) as info:
        store.put(failing, execute_spec(failing))
    monkeypatch.undo()
    assert isinstance(info.value, OSError)
    assert str(tmp_path) in str(info.value)
    assert "No space left on device" in str(info.value)
    assert not list(tmp_path.rglob("*.tmp.*"))
    assert store.get(failing) is None
    assert store.get(done) is not None
    assert store.stats().entries == 1
