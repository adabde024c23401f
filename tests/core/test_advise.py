"""Advice prices what the simulator moves.

``advise_datatype`` prices ``Datatype.access_pattern(count)``, the
pattern a compiled :class:`~repro.mpi.datatypes.plan.TransferPlan`
carries and the simulator charges, so advice and simulation cannot
disagree about a layout's block structure.  One consequence is Träff
et al.'s guideline that a vector type must not lose to the equivalent
indexed type: both describe the same runs, so both price identically.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advise import advise_datatype
from repro.machine.registry import list_platforms
from repro.mpi.datatypes import (
    DOUBLE,
    INT,
    Datatype,
    compile_plan,
    make_indexed_block,
    make_vector,
)
from tests.mpi.strategies import COUNTS, DERIVED


@settings(max_examples=200, deadline=None)
@given(dtype=DERIVED, count=COUNTS)
def test_advice_prices_the_plan_pattern(dtype: Datatype, count: int):
    dtype.commit()
    try:
        advice = advise_datatype(dtype, count=count)
        plan = compile_plan(dtype, count)
        assert advice.pattern == plan.pattern
        assert advice.nbytes == plan.nbytes
    finally:
        dtype.free()


@settings(max_examples=60, deadline=None)
@given(
    nblocks=st.integers(1, 64),
    blocklen=st.integers(1, 4),
    gap=st.integers(0, 4),
    base=st.sampled_from([DOUBLE, INT]),
    count=st.integers(1, 3),
)
def test_vector_prices_like_its_indexed_twin(nblocks, blocklen, gap, base, count):
    stride = blocklen + gap
    vector = make_vector(nblocks, blocklen, stride, base)
    indexed = make_indexed_block(blocklen, [i * stride for i in range(nblocks)], base)
    try:
        for platform in list_platforms():
            as_vector = advise_datatype(vector, count=count, platform=platform)
            as_indexed = advise_datatype(indexed, count=count, platform=platform)
            assert as_vector.prices == as_indexed.prices, platform
    finally:
        vector.free()
        indexed.free()
