"""Shared hypothesis strategies over every derived-datatype constructor.

Every strategy yields an *uncommitted* derived datatype; tests commit
and free as needed.  The generated types are deliberately small:
hypothesis explores structure, not scale.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.mpi.datatypes import (
    DOUBLE,
    INT,
    Datatype,
    make_contiguous,
    make_hvector,
    make_indexed,
    make_indexed_block,
    make_resized,
    make_struct,
    make_subarray,
    make_vector,
)

BASE = st.sampled_from([DOUBLE, INT])


@st.composite
def contiguous_types(draw, element: st.SearchStrategy | None = None) -> Datatype:
    base = draw(element or BASE)
    return make_contiguous(draw(st.integers(1, 6)), base)


@st.composite
def vector_types(draw, element: st.SearchStrategy | None = None) -> Datatype:
    base = draw(element or BASE)
    blocklen = draw(st.integers(1, 4))
    stride = blocklen + draw(st.integers(0, 4))
    return make_vector(draw(st.integers(1, 6)), blocklen, stride, base)


@st.composite
def hvector_types(draw) -> Datatype:
    """Byte strides that need not be element-aligned multiples."""
    base = draw(BASE)
    blocklen = draw(st.integers(1, 3))
    # Non-overlapping: the byte stride covers the block plus a byte gap.
    stride = blocklen * base.extent + draw(st.integers(0, 9))
    return make_hvector(draw(st.integers(1, 5)), blocklen, stride, base)


@st.composite
def indexed_types(draw) -> Datatype:
    base = draw(BASE)
    nblocks = draw(st.integers(1, 5))
    lengths = [draw(st.integers(1, 4)) for _ in range(nblocks)]
    disps, pos = [], 0
    for length in lengths:
        pos += draw(st.integers(0, 3))
        disps.append(pos)
        pos += length
    return make_indexed(lengths, disps, base)


@st.composite
def indexed_block_types(draw) -> Datatype:
    base = draw(BASE)
    nblocks = draw(st.integers(1, 6))
    blocklen = draw(st.integers(1, 3))
    disps, pos = [], 0
    for _ in range(nblocks):
        disps.append(pos)
        pos += blocklen + draw(st.integers(0, 3))
    return make_indexed_block(blocklen, disps, base)


@st.composite
def struct_types(draw) -> Datatype:
    nfields = draw(st.integers(1, 4))
    lengths, types, disps, pos = [], [], [], 0
    for _ in range(nfields):
        base = draw(BASE)
        length = draw(st.integers(1, 3))
        pos += draw(st.integers(0, 2)) * 8  # aligned byte gaps
        lengths.append(length)
        types.append(base)
        disps.append(pos)
        pos += length * base.extent
    return make_struct(lengths, disps, types)


@st.composite
def subarray_types(draw) -> Datatype:
    base = draw(BASE)
    sizes = [draw(st.integers(2, 6)), draw(st.integers(2, 8))]
    subsizes = [draw(st.integers(1, sizes[0])), draw(st.integers(1, sizes[1]))]
    starts = [
        draw(st.integers(0, sizes[0] - subsizes[0])),
        draw(st.integers(0, sizes[1] - subsizes[1])),
    ]
    return make_subarray(sizes, subsizes, starts, base)


@st.composite
def resized_types(draw) -> Datatype:
    inner = draw(st.one_of(vector_types(), indexed_types()))
    pad = draw(st.integers(0, 3)) * 8
    return make_resized(inner, 0, inner.extent + pad)


@st.composite
def nested_types(draw) -> Datatype:
    """One level of nesting: a constructor over a non-named element."""
    inner = draw(st.one_of(contiguous_types(), vector_types()))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return make_contiguous(draw(st.integers(1, 3)), inner)
    if kind == 1:
        blocklen = draw(st.integers(1, 2))
        stride = blocklen + draw(st.integers(0, 2))
        return make_vector(draw(st.integers(1, 3)), blocklen, stride, inner)
    return make_resized(inner, 0, inner.extent + draw(st.integers(0, 2)) * 8)


DERIVED = st.one_of(
    contiguous_types(),
    vector_types(),
    hvector_types(),
    indexed_types(),
    indexed_block_types(),
    struct_types(),
    subarray_types(),
    resized_types(),
    nested_types(),
)

COUNTS = st.integers(0, 4)

