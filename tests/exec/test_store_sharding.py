"""The result store's database: its layout, atomic puts under thread
and process contention, fork safety, LRU eviction (with in-flight
protection), and sizes that always agree with a fresh SQL sum."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import TimingPolicy, strided_for_bytes
from repro.exec import CellSpec, Executor, ResultStore, execute_spec
from repro.machine import get_platform
from repro.machine.fingerprint import MODEL_VERSION

from .test_store import sql

SRC = Path(__file__).resolve().parents[2] / "src"

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the CI image
    HAVE_HYPOTHESIS = False

#: Small distinct-digest specs, outcomes computed once per size.
SIZES = (1024, 2048, 3072, 4096, 6144, 8192)
_OUTCOMES: dict[int, object] = {}


def spec_of(size: int) -> CellSpec:
    return CellSpec(
        scheme="copying",
        layout=strided_for_bytes(size),
        platform=get_platform("ideal"),
        policy=TimingPolicy(iterations=2, flush=False),
        materialize=False,
    )


def outcome_of(size: int):
    if size not in _OUTCOMES:
        _OUTCOMES[size] = execute_spec(spec_of(size))
    return _OUTCOMES[size]


def sql_totals(root) -> tuple[int, int]:
    """``(entries, bytes)`` by a fresh count and sum over the rows."""
    [(entries, nbytes)] = sql(root, "SELECT COUNT(*), TOTAL(length(body)) FROM cells")
    return entries, int(nbytes)


def stored(root, spec: CellSpec) -> bool:
    return bool(sql(root, "SELECT 1 FROM cells WHERE digest = ?", spec.digest))


def size_of(root, spec: CellSpec) -> int:
    return sql(root, "SELECT length(body) FROM cells WHERE digest = ?", spec.digest)[0][0]


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
def test_put_lands_in_the_generation_database(tmp_path):
    store = ResultStore(tmp_path)
    spec = spec_of(2048)
    store.put(spec, outcome_of(2048))
    generation = tmp_path / MODEL_VERSION
    assert [p.name for p in tmp_path.iterdir()] == [MODEL_VERSION]
    # One file and its journal; no directory per cell or per shard.
    assert {p.name for p in generation.iterdir()} <= {
        "cells.sqlite", "cells.sqlite-wal", "cells.sqlite-shm",
    }
    [(body,)] = sql(tmp_path, "SELECT body FROM cells WHERE digest = ?", spec.digest)
    assert body.endswith(b"}\n")
    assert json.loads(body) == store.read_digest(spec.digest)


# ----------------------------------------------------------------------
# Atomicity under thread contention
# ----------------------------------------------------------------------
def run_threads(target, args) -> None:
    """Run ``target(arg)`` in one thread per ``arg``, and fail on the
    first exception any of them raised (a thread that dies of one
    would otherwise only print a warning)."""
    errors: list[Exception] = []

    def guarded(arg) -> None:
        try:
            target(arg)
        except Exception as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(arg,)) for arg in args]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]


def test_contended_puts_of_one_digest_stay_atomic(tmp_path):
    spec = spec_of(2048)
    outcome = outcome_of(2048)
    stores = [ResultStore(tmp_path) for _ in range(8)]
    barrier = threading.Barrier(len(stores))

    def hammer(store: ResultStore) -> None:
        barrier.wait(timeout=30)
        for _ in range(10):
            store.put(spec, outcome)
            assert store.get(spec) is not None

    run_threads(hammer, stores)
    # The entry is whole (never a torn mix of two writers) ...
    data = stores[0].read_digest(spec.digest)
    assert data["times_hex"] == [t.hex() for t in outcome.times]
    # ... and it is the only one.
    assert ResultStore(tmp_path).stats().entries == 1


def test_contended_puts_of_distinct_digests_all_land(tmp_path):
    barrier = threading.Barrier(len(SIZES))

    def put(size: int) -> None:
        store = ResultStore(tmp_path)
        barrier.wait(timeout=30)
        store.put(spec_of(size), outcome_of(size))
        store.flush_counters()

    run_threads(put, SIZES)
    merged = ResultStore(tmp_path)
    assert merged.stats().entries == len(SIZES)
    # Flushes are atomic increments: racing flushers lose nothing.
    assert merged.persisted_counters()["writes"] == len(SIZES)
    for size in SIZES:
        assert merged.get(spec_of(size)) is not None


def test_a_shared_store_keeps_its_byte_total_under_contended_puts(tmp_path):
    """The daemon's jobs put into one store from several threads; no put
    may lose its share of the running byte total."""
    sizes = [1024 * k for k in range(1, 13)]  # more threads than cores
    outcomes = {size: outcome_of(size) for size in sizes}
    store = ResultStore(tmp_path)
    assert store.total_bytes() == 0
    barrier = threading.Barrier(len(sizes))

    def put(size: int) -> None:
        barrier.wait(timeout=30)
        for _ in range(20):
            store.put(spec_of(size), outcomes[size])

    threads = [threading.Thread(target=put, args=(size,)) for size in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    entries, nbytes = sql_totals(tmp_path)
    assert entries == len(sizes)
    assert store.stats().bytes == store.total_bytes() == nbytes
    assert store.flush_counters()["writes"] == 20 * len(sizes)


# ----------------------------------------------------------------------
# LRU eviction
# ----------------------------------------------------------------------
def age(root, spec: CellSpec, used: float) -> None:
    sql(root, "UPDATE cells SET used = ? WHERE digest = ?", used, spec.digest)


def _aged_store(tmp_path) -> tuple[ResultStore, list[CellSpec]]:
    """A store whose entries were used at strictly increasing times,
    oldest first in the returned spec list."""
    store = ResultStore(tmp_path)
    specs = [spec_of(size) for size in SIZES]
    for when, (size, spec) in enumerate(zip(SIZES, specs)):
        store.put(spec, outcome_of(size))
        age(tmp_path, spec, 1_000_000_000 + when)
    return store, specs


def test_evict_to_removes_least_recently_used_first(tmp_path):
    store, specs = _aged_store(tmp_path)
    sizes = [size_of(tmp_path, s) for s in specs]
    keep_last_two = sizes[-1] + sizes[-2]
    evicted, freed = store.evict_to(keep_last_two)
    assert evicted == len(specs) - 2
    assert freed == sum(sizes[:-2])
    survivors = [s for s in specs if stored(tmp_path, s)]
    assert survivors == specs[-2:]
    assert store.stats().entries == 2
    assert store.evictions == evicted


def test_a_hit_refreshes_recency(tmp_path):
    store, specs = _aged_store(tmp_path)
    # Touch the oldest entry through the public read path ...
    assert store.get(specs[0]) is not None
    sizes = [size_of(tmp_path, s) for s in specs]
    evicted, _ = store.evict_to(sizes[0] + sizes[-1])
    # ... and it now outlives everything but the newest write.
    assert stored(tmp_path, specs[0])
    assert stored(tmp_path, specs[-1])
    assert evicted == len(specs) - 2


def test_protected_digests_survive_eviction(tmp_path):
    store, specs = _aged_store(tmp_path)
    protected = specs[0].digest  # oldest: first in eviction order
    evicted, _ = store.evict_to(0, protected=[protected])
    assert evicted == len(specs) - 1
    assert stored(tmp_path, specs[0])
    # The bound was unreachable without the protected entry; the store
    # holds exactly that entry now.
    assert store.stats().entries == 1


def test_max_bytes_bound_evicts_on_put_but_spares_the_protect_set(tmp_path):
    inflight = {spec_of(SIZES[0]).digest}
    store = ResultStore(tmp_path, max_bytes=1, protect=lambda: inflight)
    store.put(spec_of(SIZES[0]), outcome_of(SIZES[0]))
    age(tmp_path, spec_of(SIZES[0]), 1_000_000_000)  # oldest by far
    store.put(spec_of(SIZES[1]), outcome_of(SIZES[1]))
    # The newer, unprotected entry was sacrificed; the in-flight one
    # survived despite being least recently used.
    assert stored(tmp_path, spec_of(SIZES[0]))
    assert not stored(tmp_path, spec_of(SIZES[1]))
    assert store.evictions >= 1


def test_evict_to_rejects_negative_bound(tmp_path):
    with pytest.raises(ValueError):
        ResultStore(tmp_path).evict_to(-1)


def test_cache_clear_evict_to_cli(tmp_path, capsys, monkeypatch):
    store, specs = _aged_store(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    total = store.total_bytes()
    assert main(["cache", "clear", "--evict-to", str(total // 2)]) == 0
    out = capsys.readouterr().out
    assert "evicted" in out and "B freed" in out
    fresh = ResultStore(tmp_path)
    assert 0 < fresh.stats().entries < len(specs)
    assert fresh.stats().evictions > 0
    with pytest.raises(SystemExit) as exc:
        main(["cache", "clear", "--evict-to", "-5"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# Other processes
# ----------------------------------------------------------------------
def test_a_sweep_in_another_process_and_local_puts_share_one_store(tmp_path):
    """A ``repro sweep`` subprocess writes into the root while this
    process puts: every cell lands, no ``database is locked`` escapes,
    and the persisted counters sum both writers exactly."""
    out = tmp_path / "sweep.json"
    root = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(root))
    stderr = tmp_path / "stderr"
    with open(stderr, "w") as err:
        sweep = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--platform", "skx-impi",
             "--iterations", "2", "--no-flush", "--jobs", "1", "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
    store = ResultStore(root)
    outcomes = {size: outcome_of(size) for size in SIZES}
    puts = 0
    while sweep.poll() is None or puts < len(SIZES):
        size = SIZES[puts % len(SIZES)]
        store.put(spec_of(size), outcomes[size])
        puts += 1
    store.flush_counters()
    assert sweep.wait(timeout=120) == 0, stderr.read_text()
    assert "locked" not in stderr.read_text()
    swept = len(json.loads(out.read_text())["measurements"])
    fresh = ResultStore(root)
    assert fresh.stats().entries == sql_totals(root)[0] == swept + len(SIZES)
    counters = fresh.persisted_counters()
    assert counters["writes"] == swept + puts
    assert counters["misses"] == swept and counters["hits"] == 0


def _put_in_child(store: ResultStore, size: int, parents: int) -> None:
    store.put(spec_of(size), outcome_of(size))
    assert store.get(spec_of(size)) is not None
    # The child wrote through a connection of its own, not its copy of
    # the parent's (which stays alive, untouched, at the same address).
    assert id(store._connection(create=False)) != parents


def test_a_pool_forked_after_the_database_opened_leaves_it_usable(tmp_path):
    """The pool forks after the parent's store opened its database; the
    parent keeps reading and writing after the pool closes, and a child
    that uses the inherited store opens a connection of its own."""
    store = ResultStore(tmp_path)
    first = spec_of(SIZES[0])
    store.put(first, outcome_of(SIZES[0]))
    with Executor(jobs=2, cache=store) as executor:
        results = executor.execute_batch([spec_of(size) for size in SIZES[1:4]])
    assert executor.cells_executed == 3 and not any(cached for _, cached in results)
    assert store.get(first) is not None
    store.put(spec_of(SIZES[4]), outcome_of(SIZES[4]))
    parents = id(store._connection(create=False))
    child = multiprocessing.get_context("fork").Process(
        target=_put_in_child, args=(store, SIZES[5], parents)
    )
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert store.get(spec_of(SIZES[5])) is not None
    store.put(first, outcome_of(SIZES[0]))
    assert sql_totals(tmp_path)[0] == ResultStore(tmp_path).stats().entries == len(SIZES)
    assert sql(tmp_path, "PRAGMA integrity_check") == [("ok",)]


# ----------------------------------------------------------------------
# Sizes agree with a fresh sum
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("put"), st.sampled_from(SIZES)),
                st.tuples(st.just("get"), st.sampled_from(SIZES)),
                st.tuples(st.just("evict_to"), st.integers(0, 4 * 1024)),
            ),
            min_size=1,
            max_size=16,
        ),
    )
    def test_entry_count_matches_scan_after_any_sequence(tmp_path_factory, ops):
        tmp = tmp_path_factory.mktemp("prop-store")
        store = ResultStore(tmp)
        # Seed the running total first, so that every op below moves it.
        assert store.total_bytes() == 0
        for op, arg in ops:
            if op == "put":
                store.put(spec_of(arg), outcome_of(arg))
            elif op == "get":
                store.get(spec_of(arg))
            else:
                store.evict_to(arg)
        if not (tmp / MODEL_VERSION).exists():
            entries, nbytes = 0, 0
        else:
            entries, nbytes = sql_totals(tmp)
        stats = store.stats()
        assert (stats.entries, stats.bytes) == (entries, nbytes)
        assert store.total_bytes() == nbytes
