"""Datatype lifecycle semantics: commit, free, dup, decode."""

from __future__ import annotations

import pytest

from repro.mpi.datatypes import DOUBLE, INT, make_contiguous, make_struct, make_vector
from repro.mpi.errors import DatatypeError, FreedDatatypeError, UncommittedDatatypeError


def test_basic_types_born_committed():
    assert DOUBLE.committed
    DOUBLE.require_committed()  # no raise


def test_basic_types_cannot_be_freed():
    with pytest.raises(DatatypeError, match="cannot be freed"):
        INT.free()


def test_derived_needs_commit_for_communication():
    v = make_vector(4, 1, 2, DOUBLE)
    assert not v.committed
    with pytest.raises(UncommittedDatatypeError):
        v.require_committed()
    v.commit()
    v.require_committed()


def test_commit_idempotent():
    v = make_vector(4, 1, 2, DOUBLE)
    assert v.commit() is v
    assert v.commit() is v


def test_introspection_allowed_before_commit():
    v = make_vector(4, 1, 2, DOUBLE)
    assert v.size == 32
    assert v.extent == 56
    assert len(v.segments()) == 4


def test_freed_type_unusable():
    v = make_vector(4, 1, 2, DOUBLE).commit()
    v.free()
    assert v.freed
    for op in (lambda: v.size, lambda: v.flatten(), lambda: v.commit(), lambda: v.free()):
        with pytest.raises(FreedDatatypeError):
            op()


def test_freeing_component_does_not_affect_parent():
    """MPI semantics: types constructed from a freed type keep working."""
    v = make_vector(4, 1, 2, DOUBLE)
    c = make_contiguous(2, v)
    v.free()
    c.commit()
    assert c.size == 64
    assert len(c.segments()) == 8


def test_constructing_from_freed_type_rejected():
    v = make_vector(4, 1, 2, DOUBLE)
    v.free()
    with pytest.raises(FreedDatatypeError):
        make_contiguous(2, v)


def test_dup_independent_lifecycle():
    v = make_vector(4, 1, 2, DOUBLE).commit()
    d = v.dup()
    assert d.committed
    assert d.segments() == v.segments()
    v.free()
    assert d.size == 32  # dup survives
    d.free()


def test_dup_of_uncommitted_stays_uncommitted():
    v = make_vector(4, 1, 2, DOUBLE)
    d = v.dup()
    assert not d.committed


def test_envelope_and_contents():
    v = make_vector(4, 2, 3, DOUBLE)
    assert v.get_envelope() == "vector"

    s = make_struct([1], [0], [INT])
    assert s.get_envelope() == "struct"

    assert DOUBLE.get_envelope() == "named"


def test_repr_mentions_state():
    v = make_vector(2, 1, 2, DOUBLE)
    assert "uncommitted" in repr(v)
    v.commit()
    assert "committed" in repr(v)
    v.free()
    assert "freed" in repr(v)


def test_pack_size():
    v = make_vector(4, 1, 2, DOUBLE).commit()
    assert v.pack_size(1) == 32
    assert v.pack_size(3) == 96
    with pytest.raises(DatatypeError):
        v.pack_size(-1)


def test_pack_size_freed_guard():
    """Regression: pack_size on a freed handle must raise like every
    other operation (it used to silently use the stale size)."""
    v = make_vector(4, 1, 2, DOUBLE).commit()
    v.free()
    with pytest.raises(FreedDatatypeError):
        v.pack_size(1)


def test_negative_flatten_count_rejected():
    v = make_vector(4, 1, 2, DOUBLE).commit()
    with pytest.raises(DatatypeError):
        v.flatten(-1)
