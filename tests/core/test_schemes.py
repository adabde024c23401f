"""Per-scheme behavioural tests: every scheme delivers the right bytes,
exercises the code path the paper attributes to it (asserted on the
protocol trace), and the registry is consistent."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    PAPER_ORDER,
    SCHEME_CLASSES,
    StridedLayout,
    TimingPolicy,
    make_scheme,
    run_pingpong,
    strided_for_bytes,
)


@pytest.fixture
def layout():
    return StridedLayout(nblocks=256, blocklen=1, stride=2)  # 2048 B payload


class TestRegistry:
    def test_paper_order_complete(self):
        from repro.core.schemes import ALL_SCHEME_KEYS

        assert set(ALL_SCHEME_KEYS) == set(SCHEME_CLASSES)
        assert len(PAPER_ORDER) == 8
        # auto rides along in the registry but never in the paper's figures.
        assert ALL_SCHEME_KEYS == PAPER_ORDER + ("auto",)

    def test_labels_match_paper_legend(self):
        labels = {SCHEME_CLASSES[k].label for k in PAPER_ORDER}
        assert labels == {
            "reference",
            "copying",
            "buffered",
            "vector type",
            "subarray",
            "onesided",
            "packing(e)",
            "packing(v)",
        }

    def test_make_scheme_unknown(self):
        with pytest.raises(KeyError, match="packing-vector"):
            make_scheme("bogus")

    def test_make_scheme_returns_fresh_instances(self):
        assert make_scheme("copying") is not make_scheme("copying")


@pytest.mark.parametrize("key", PAPER_ORDER)
class TestEverySchemeDelivers:
    def test_payload_verified(self, key, layout, ideal, fast_policy):
        cell = run_pingpong(key, layout, ideal, policy=fast_policy, materialize=True)
        assert cell.verified, f"{key} delivered wrong bytes"
        assert cell.stats.n == fast_policy.iterations
        assert cell.time > 0

    @pytest.mark.parametrize("stride", [None, 5])
    def test_odd_block_lengths_verify(self, key, stride, ideal, fast_policy):
        """Three-double blocks, at the default stride of six and at an
        odd one: the receiver still checks every double."""
        odd = strided_for_bytes(3_000, blocklen=3, stride=stride)
        cell = run_pingpong(key, odd, ideal, policy=fast_policy, materialize=True)
        assert cell.verified, f"{key} delivered wrong bytes"

    def test_virtual_run_times_match_materialized(self, key, layout, ideal, fast_policy):
        """Materialization is a functional choice only — virtual time
        must be identical."""
        real = run_pingpong(key, layout, ideal, policy=fast_policy, materialize=True)
        virt = run_pingpong(key, layout, ideal, policy=fast_policy, materialize=False)
        assert real.time == pytest.approx(virt.time, rel=1e-12)

    def test_deterministic(self, key, layout, ideal, fast_policy):
        a = run_pingpong(key, layout, ideal, policy=fast_policy)
        b = run_pingpong(key, layout, ideal, policy=fast_policy)
        assert a.stats.times == b.stats.times
        assert a.events == b.events


def run_traced_iteration(key, layout, platform="skx-impi"):
    """One manually-driven scheme iteration under tracing; the JobResult
    carries both the span recorder (``.tracer``) and ``.metrics``."""
    from repro.core.schemes import SchemeContext
    from repro.mpi.runtime import run_mpi

    ctx = SchemeContext(layout=layout, materialize=False)
    sender = make_scheme(key)
    receiver = make_scheme(key)

    def main(comm):
        if comm.rank == 0:
            sender.setup_sender(comm, ctx)
            comm.Barrier()
            sender.iteration_sender(comm)
            comm.Barrier()
        else:
            receiver.setup_receiver(comm, ctx)
            comm.Barrier()
            receiver.iteration_receiver(comm)
            comm.Barrier()

    return run_mpi(main, 2, platform, trace=True)


class TestCodePaths:
    """The span tree proves each scheme takes the code path the paper
    says (typed queries on ``repro.obs`` spans, not string matching)."""

    layout = StridedLayout(nblocks=256)  # 2048 B payload

    def test_reference_no_staging_no_pack(self):
        obs = run_traced_iteration("reference", self.layout).tracer
        assert obs.span_count("p2p.staging") == 0
        assert obs.span_count(category="pack") == 0

    def test_copying_user_gather_not_mpi(self):
        # copying: a user-space gather; no internal staging, no MPI pack
        job = run_traced_iteration("copying", self.layout)
        obs = job.tracer
        assert obs.span_count("copy.gather", rank=0) == 1
        assert obs.span_count("p2p.staging") == 0
        assert obs.span_count(category="pack") == 0
        assert job.metrics.counter_value("copy.user_gather_bytes") == 2048

    @pytest.mark.parametrize("key", ["vector", "subarray"])
    def test_derived_types_stage_internally(self, key):
        job = run_traced_iteration(key, self.layout)
        obs = job.tracer
        staging = obs.spans("p2p.staging", rank=0)
        assert len(staging) == 1
        assert staging[0]["nbytes"] == 2048
        assert staging[0]["chunks"] == 1  # small message: one internal buffer
        # The staging span nests inside its send-call envelope.
        envelope = obs.span_by_id(staging[0].parent_id)
        assert envelope.name == "p2p.send_call"
        assert envelope.contains(staging[0])
        assert obs.span_count(category="pack") == 0

    def test_buffered_copies_densely(self):
        job = run_traced_iteration("buffered", self.layout)
        obs = job.tracer
        assert obs.span_count("p2p.bsend_copy", rank=0) == 1
        assert obs.span_count("p2p.staging") == 0
        assert job.metrics.counter_value("p2p.bsend_bytes") == 2048

    def test_onesided_rma_path(self):
        job = run_traced_iteration("onesided", self.layout)
        obs = job.tracer
        assert job.metrics.counter_value("rma.ops") == 1
        assert obs.span_count("rma.drain") == 1
        # The payload moves through the window, not the two-sided path.
        assert obs.span_count("p2p.staging") == 0

    def test_packing_element_per_block_calls(self):
        obs = run_traced_iteration("packing-element", self.layout).tracer
        packs = obs.spans("pack.pack")
        assert len(packs) == 1 and packs[0]["ncalls"] == 256

    def test_packing_vector_single_call(self):
        obs = run_traced_iteration("packing-vector", self.layout).tracer
        packs = obs.spans("pack.pack")
        assert len(packs) == 1 and packs[0]["ncalls"] == 1
        assert obs.span_count("p2p.staging") == 0  # user-space buffer

    def test_large_message_staging_chunk_count(self):
        """Above the 32 MB threshold the internal staging pipeline runs
        in 8 MiB chunks: a 64 MB vector send stages in exactly
        ceil(64e6 / 8 MiB) = 8 of them."""
        big = StridedLayout(nblocks=8_000_000, blocklen=1, stride=2)  # 64 MB
        job = run_traced_iteration("vector", big)
        staging = job.tracer.spans("p2p.staging")
        assert len(staging) == 1
        assert staging[0]["nbytes"] == 64_000_000
        assert staging[0]["chunks"] == 8
        assert job.metrics.counter_value("p2p.staging_chunks") == 8


class TestSchemeOrdering:
    def test_reference_is_fastest(self, layout, skx, fast_policy):
        times = {
            key: run_pingpong(key, layout, skx, policy=fast_policy).time
            for key in PAPER_ORDER
        }
        assert min(times, key=times.get) == "reference"

    def test_packing_vector_matches_copying(self, skx, fast_policy):
        layout = StridedLayout(nblocks=125_000)  # 1 MB
        t_copy = run_pingpong("copying", layout, skx, policy=fast_policy,
                              materialize=False).time
        t_pv = run_pingpong("packing-vector", layout, skx, policy=fast_policy,
                            materialize=False).time
        assert t_pv == pytest.approx(t_copy, rel=0.1)
