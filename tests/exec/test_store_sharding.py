"""The sharded result store: fan-out layout, atomic puts under thread
contention, LRU eviction (with in-flight protection), and sizes that
always agree with a directory scan."""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro.cli import main
from repro.core import TimingPolicy, strided_for_bytes
from repro.exec import CellSpec, ResultStore, execute_spec
from repro.machine import get_platform
from repro.machine.fingerprint import MODEL_VERSION

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


# ----------------------------------------------------------------------
# Shard layout
# ----------------------------------------------------------------------
def test_put_lands_in_the_two_hex_shard(tmp_path):
    store = ResultStore(tmp_path)
    spec = spec_of(2048)
    path = store.put(spec, outcome_of(2048))
    assert path == tmp_path / MODEL_VERSION / spec.digest[:2] / f"{spec.digest}.json"
    assert path.is_file()
    # No temp files survive the atomic rename.
    assert not list(path.parent.glob("*.tmp.*"))


# ----------------------------------------------------------------------
# Atomicity under thread contention
# ----------------------------------------------------------------------
def test_contended_puts_of_one_digest_stay_atomic(tmp_path):
    spec = spec_of(2048)
    outcome = outcome_of(2048)
    stores = [ResultStore(tmp_path) for _ in range(8)]
    barrier = threading.Barrier(len(stores))

    def hammer(store: ResultStore) -> None:
        barrier.wait()
        for _ in range(10):
            store.put(spec, outcome)
            assert store.get(spec) is not None

    threads = [threading.Thread(target=hammer, args=(s,)) for s in stores]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # The entry is whole (never a torn mix of two writers) ...
    data = json.loads(stores[0].path_for(spec).read_text())
    assert data["times_hex"] == [t.hex() for t in outcome.times]
    # ... and it is the only one.
    assert ResultStore(tmp_path).stats().entries == 1


def test_contended_puts_of_distinct_digests_all_land(tmp_path):
    barrier = threading.Barrier(len(SIZES))

    def put(size: int) -> None:
        store = ResultStore(tmp_path)
        barrier.wait()
        store.put(spec_of(size), outcome_of(size))
        store.flush_counters()

    threads = [threading.Thread(target=put, args=(size,)) for size in SIZES]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    merged = ResultStore(tmp_path)
    assert merged.stats().entries == len(SIZES)
    # The sidecar merge is documented advisory (racing flushers may
    # lose increments); the cells themselves must never be lost.
    assert 1 <= merged.persisted_counters()["writes"] <= len(SIZES)
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
    entries, nbytes = ResultStore(tmp_path)._scan_index()[store.salt]
    assert entries == len(sizes)
    assert store.total_bytes() == nbytes


# ----------------------------------------------------------------------
# LRU eviction
# ----------------------------------------------------------------------
def _aged_store(tmp_path) -> tuple[ResultStore, list[CellSpec]]:
    """A store whose entries have strictly increasing mtimes, oldest
    first in the returned spec list."""
    store = ResultStore(tmp_path)
    specs = [spec_of(size) for size in SIZES]
    base = 1_000_000_000
    for age, (size, spec) in enumerate(zip(SIZES, specs)):
        path = store.put(spec, outcome_of(size))
        os.utime(path, (base + age, base + age))
    return store, specs


def test_evict_to_removes_least_recently_used_first(tmp_path):
    store, specs = _aged_store(tmp_path)
    sizes = [store.path_for(s).stat().st_size for s in specs]
    keep_last_two = sizes[-1] + sizes[-2]
    evicted, freed = store.evict_to(keep_last_two)
    assert evicted == len(specs) - 2
    assert freed == sum(sizes[:-2])
    survivors = [s for s in specs if store.path_for(s).is_file()]
    assert survivors == specs[-2:]
    assert store.stats().entries == 2
    assert store.evictions == evicted


def test_a_hit_refreshes_recency(tmp_path):
    store, specs = _aged_store(tmp_path)
    # Touch the oldest entry through the public read path ...
    assert store.get(specs[0]) is not None
    sizes = [store.path_for(s).stat().st_size for s in specs]
    evicted, _ = store.evict_to(sizes[0] + sizes[-1])
    # ... and it now outlives everything but the newest write.
    assert store.path_for(specs[0]).is_file()
    assert store.path_for(specs[-1]).is_file()
    assert evicted == len(specs) - 2


def test_protected_digests_survive_eviction(tmp_path):
    store, specs = _aged_store(tmp_path)
    protected = specs[0].digest  # oldest: first in eviction order
    evicted, _ = store.evict_to(0, protected=[protected])
    assert evicted == len(specs) - 1
    assert store.path_for(specs[0]).is_file()
    # The bound was unreachable without the protected entry; the store
    # holds exactly that entry now.
    assert store.stats().entries == 1


def test_max_bytes_bound_evicts_on_put_but_spares_the_protect_set(tmp_path):
    inflight = {spec_of(SIZES[0]).digest}
    store = ResultStore(tmp_path, max_bytes=1, protect=lambda: inflight)
    first = store.put(spec_of(SIZES[0]), outcome_of(SIZES[0]))
    os.utime(first, (1_000_000_000, 1_000_000_000))  # oldest by far
    store.put(spec_of(SIZES[1]), outcome_of(SIZES[1]))
    # The newer, unprotected entry was sacrificed; the in-flight one
    # survived despite being least recently used.
    assert first.is_file()
    assert not store.path_for(spec_of(SIZES[1])).is_file()
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
# Sizes agree with a scan
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
        scan = ResultStore(tmp)._scan_index()
        entries, nbytes = scan.get(store.salt, [0, 0])
        stats = store.stats()
        assert (stats.entries, stats.bytes) == (entries, nbytes)
        assert store.total_bytes() == nbytes
        assert len(list(store.iter_entries())) == entries
