"""Layout descriptor tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import layout as layout_module
from repro.core.layout import RAMP_CAP, IrregularLayout, StridedLayout, strided_for_bytes
from repro.mpi.datatypes import pack_bytes


class TestStridedLayout:
    def test_paper_default_geometry(self):
        layout = StridedLayout(nblocks=500, blocklen=1, stride=2)
        assert layout.nelements == 500
        assert layout.message_bytes == 4000
        assert layout.source_elements == 1000
        assert layout.source_bytes == 8000

    def test_payload_indices(self):
        layout = StridedLayout(nblocks=3, blocklen=2, stride=5)
        assert list(layout.payload_indices()) == [0, 1, 5, 6, 10, 11]

    def test_vector_and_subarray_types_agree(self):
        layout = StridedLayout(nblocks=10, blocklen=2, stride=4)
        vec = layout.make_datatype()
        sub = layout.make_subarray_datatype()
        assert vec.size == sub.size == layout.message_bytes
        assert vec.segments() == sub.segments()

    def test_source_and_expected_payload_consistent(self):
        layout = StridedLayout(nblocks=20, blocklen=1, stride=2)
        src = layout.make_source(materialize=True)
        vec = layout.make_datatype()
        out = np.zeros(layout.message_bytes, dtype=np.uint8)
        pack_bytes(src.bytes, vec, 1, out)
        assert np.array_equal(out.view(np.float64), layout.expected_payload())

    def test_virtual_source(self):
        layout = StridedLayout(nblocks=10)
        src = layout.make_source(materialize=False)
        assert not src.materialized
        assert src.nbytes == layout.source_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            StridedLayout(nblocks=0)
        with pytest.raises(ValueError):
            StridedLayout(nblocks=1, blocklen=0)
        with pytest.raises(ValueError):
            StridedLayout(nblocks=1, blocklen=4, stride=2)


class TestStridedForBytes:
    def test_exact_fit(self):
        layout = strided_for_bytes(4000)
        assert layout.message_bytes == 4000
        assert layout.stride == 2

    def test_rounds_down_to_blocks(self):
        layout = strided_for_bytes(4001)
        assert layout.message_bytes == 4000

    def test_blocklen_scaling(self):
        layout = strided_for_bytes(64000, blocklen=4)
        assert layout.blocklen == 4
        assert layout.stride == 8
        assert layout.message_bytes == 64000

    def test_tiny_request_gets_one_block(self):
        layout = strided_for_bytes(1)
        assert layout.nblocks == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            strided_for_bytes(0)

    @given(nbytes=st.integers(16, 10**7))
    @settings(max_examples=80, deadline=None)
    def test_property_never_exceeds_request(self, nbytes):
        layout = strided_for_bytes(nbytes)
        assert 0 < layout.message_bytes <= nbytes
        # within one block of the request
        assert nbytes - layout.message_bytes < 8 * layout.blocklen + 8


class TestIrregularLayout:
    def test_zero_jitter_matches_regular(self):
        reg = StridedLayout(nblocks=50, blocklen=1, stride=4)
        irr = IrregularLayout(nblocks=50, blocklen=1, stride=4, jitter=0.0)
        assert list(reg.payload_indices()) == list(irr.payload_indices())

    def test_jitter_keeps_blocks_ordered_and_disjoint(self):
        layout = IrregularLayout(nblocks=200, blocklen=2, stride=8, jitter=0.9)
        disps = layout._displacements()
        assert np.all(np.diff(disps) >= layout.blocklen)

    def test_jitter_reduces_regularity(self):
        reg = IrregularLayout(nblocks=500, blocklen=1, stride=4, jitter=0.0)
        irr = IrregularLayout(nblocks=500, blocklen=1, stride=4, jitter=0.9)
        r_reg = reg.make_datatype().access_pattern().regularity
        r_irr = irr.make_datatype().access_pattern().regularity
        assert r_reg == 1.0
        assert r_irr < 1.0

    def test_seeded_determinism(self):
        a = IrregularLayout(nblocks=100, stride=4, jitter=0.5, seed=7)
        b = IrregularLayout(nblocks=100, stride=4, jitter=0.5, seed=7)
        c = IrregularLayout(nblocks=100, stride=4, jitter=0.5, seed=8)
        assert np.array_equal(a._displacements(), b._displacements())
        assert not np.array_equal(a._displacements(), c._displacements())

    def test_roundtrip_data(self):
        layout = IrregularLayout(nblocks=30, blocklen=1, stride=4, jitter=0.8)
        src = layout.make_source(materialize=True)
        dtype = layout.make_datatype()
        out = np.zeros(layout.message_bytes, dtype=np.uint8)
        pack_bytes(src.bytes, dtype, 1, out)
        assert np.array_equal(out.view(np.float64), layout.expected_payload())

    def test_validation(self):
        with pytest.raises(ValueError):
            IrregularLayout(nblocks=10, jitter=1.0)


class TestSourcePattern:
    """Materialized sources are read-only prefixes of one per-process
    ramp (``ramp[i] == i``); expected payloads are read from it."""

    def test_materialized_source_is_read_only(self):
        src = strided_for_bytes(4096).make_source(materialize=True)
        with pytest.raises(ValueError):
            src.bytes[0] = 1
        with pytest.raises(ValueError):
            src.view(np.float64)[0] = 1.0

    @pytest.mark.parametrize(
        "layout",
        [
            StridedLayout(nblocks=40, blocklen=1, stride=2),
            StridedLayout(nblocks=40, blocklen=3, stride=5),
            StridedLayout(nblocks=40, blocklen=4, stride=4),
            IrregularLayout(nblocks=40, blocklen=2, stride=6, jitter=0.7),
            StridedLayout(nblocks=RAMP_CAP // 16, blocklen=1, stride=2),
            StridedLayout(nblocks=RAMP_CAP // 16 + 1, blocklen=1, stride=2),
            IrregularLayout(nblocks=RAMP_CAP // 32 + 1, blocklen=1, stride=4, jitter=0.5),
        ],
        ids=["paper", "odd", "dense", "irregular", "at-cap", "above-cap", "irregular-above-cap"],
    )
    def test_expected_payload_is_the_payload_indices(self, layout):
        expected = layout.expected_payload()
        assert np.array_equal(expected, layout.payload_indices().astype(np.float64))
        source = layout.make_source(materialize=True).view(np.float64)
        assert np.array_equal(source, np.arange(source.size, dtype=np.float64))

    def test_paper_payload_is_a_view_of_the_source_pattern(self):
        layout = strided_for_bytes(100_000)
        source = layout.make_source(materialize=True)
        assert np.shares_memory(layout.expected_payload(), source.bytes)

    def test_only_sources_up_to_the_cap_are_retained(self):
        at_cap = StridedLayout(nblocks=RAMP_CAP // 16, blocklen=1, stride=2)
        above = StridedLayout(nblocks=at_cap.nblocks + 1, blocklen=1, stride=2)
        assert at_cap.source_bytes == RAMP_CAP < above.source_bytes
        kept = at_cap.make_source(materialize=True)
        assert np.shares_memory(kept.bytes, layout_module._ramp)
        built = above.make_source(materialize=True)
        assert not np.shares_memory(built.bytes, layout_module._ramp)
        assert layout_module._ramp.nbytes == RAMP_CAP
