"""The :class:`Datatype` base class.

A datatype is an immutable *description* of a memory layout: a payload
size, lower/upper bounds defining the extent, and — once flattened — a
run list (:mod:`.runs`) giving every byte it touches.  Constructors
(vector, indexed, struct, subarray, ...) subclass this and implement
:meth:`_build_runs` plus bound computation.

MPI semantics honoured here:

* ``Commit()`` is required before a derived type is used in
  communication (basic types are born committed).
* ``Free()`` invalidates the handle; any later use raises.  Types in
  flight keep working because flattening is snapshotted at commit.
* ``extent = ub - lb`` controls the placement of consecutive elements
  when ``count > 1``; ``true_lb``/``true_extent`` describe the bytes
  actually touched.
"""

from __future__ import annotations

from ...machine.access import AccessPattern, contiguous_pattern
from ..errors import DatatypeError, FreedDatatypeError, UncommittedDatatypeError
from .runs import Run, coalesce, combine_patterns, replicate, segments_of

__all__ = ["Datatype"]


class Datatype:
    """Immutable layout description; see module docstring.

    Subclasses must call ``super().__init__`` with the payload ``size``
    and the bounds, then implement :meth:`_build_runs` (byte runs of ONE
    element, offsets relative to the element origin).
    """

    combiner = "named"

    #: When True, :func:`repro.mpi.datatypes.plan.plan_for` serves the
    #: plan from the named-type memo instead of the shared cache.  Basic
    #: named types set this: they are module singletons, and keeping them
    #: out of the shared LRU keeps its counters about derived types.
    _plan_uncached = False

    def __init__(self, *, size: int, lb: int, ub: int, name: str):
        if size < 0:
            raise DatatypeError(f"{name}: negative size {size}")
        if ub < lb:
            raise DatatypeError(f"{name}: upper bound {ub} below lower bound {lb}")
        self._size = size
        self._lb = lb
        self._ub = ub
        self._name = name
        self._committed = False
        self._freed = False
        self._runs: list[Run] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def size(self) -> int:
        """Payload bytes of one element (``MPI_Type_size``)."""
        self._check_usable()
        return self._size

    @property
    def lb(self) -> int:
        self._check_usable()
        return self._lb

    @property
    def ub(self) -> int:
        self._check_usable()
        return self._ub

    @property
    def extent(self) -> int:
        """``ub - lb``: the stepping between consecutive elements."""
        self._check_usable()
        return self._ub - self._lb

    @property
    def true_lb(self) -> int:
        """Lowest byte offset actually touched."""
        runs = self._flatten()
        return min((r.min_offset for r in runs), default=0)

    @property
    def true_extent(self) -> int:
        """Span of bytes actually touched (``MPI_Type_get_true_extent``)."""
        runs = self._flatten()
        if not runs:
            return 0
        return max(r.max_end for r in runs) - min(r.min_offset for r in runs)

    @property
    def committed(self) -> bool:
        return self._committed and not self._freed

    @property
    def freed(self) -> bool:
        return self._freed

    @property
    def is_contiguous(self) -> bool:
        """Dense from its true lower bound, with no extent padding games
        relative to the payload."""
        runs = self._flatten()
        if not runs:
            return True
        if len(runs) != 1:
            return False
        run = runs[0]
        return run.total_bytes == self._size == run.max_end - run.min_offset

    def __repr__(self) -> str:
        state = "freed" if self._freed else ("committed" if self._committed else "uncommitted")
        return f"<Datatype {self._name} size={self._size} extent={self._ub - self._lb} {state}>"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def commit(self) -> "Datatype":
        """Finalize the type for use in communication (idempotent).

        Flattening is computed and canonicalized here, once.
        """
        self._check_not_freed()
        if not self._committed:
            self._runs = coalesce(self._build_runs())
            self._committed = True
            # Pre-compile the count=1 transfer plan so the first send
            # of a committed type hits the cache warm.
            if not self._plan_uncached:
                from .plan import plan_for

                plan_for(self, 1)
        return self

    # MPI-style alias
    Commit = commit

    def free(self) -> None:
        """Invalidate this handle (``MPI_Type_free``).

        Cached transfer plans of this type are evicted; transfers that
        already hold a plan snapshot complete normally.
        """
        self._check_not_freed()
        self._freed = True
        from .plan import invalidate_plans

        invalidate_plans(self)

    Free = free

    def dup(self) -> "Datatype":
        """An independent committed-state copy (``MPI_Type_dup``)."""
        self._check_usable()
        clone = _DupDatatype(self)
        if self._committed:
            clone.commit()
        return clone

    Dup = dup

    # ------------------------------------------------------------------
    # Flattening and pattern summaries
    # ------------------------------------------------------------------
    def _build_runs(self) -> list[Run]:
        raise NotImplementedError

    def _flatten(self) -> list[Run]:
        self._check_not_freed()
        if self._runs is not None:
            return self._runs
        # Uncommitted introspection (extent queries, nested construction)
        # is allowed; communication paths call require_committed first.
        return coalesce(self._build_runs())

    def flatten(self, count: int = 1) -> list[Run]:
        """Byte runs of ``count`` consecutive elements of this type."""
        if count < 0:
            raise DatatypeError(f"negative count {count}")
        if count == 0 or self._size == 0:
            return []
        return replicate(self._flatten(), count, self.extent)

    def segments(self, count: int = 1) -> list[tuple[int, int]]:
        """Materialized (offset, length) blocks — tests and debugging."""
        return segments_of(self.flatten(count))

    def access_pattern(self, count: int = 1) -> AccessPattern:
        """Cost-model summary of ``count`` elements of this layout.

        Computed over the *replicated* runs, so extent padding between
        consecutive elements registers as stride: ``count`` copies of a
        dense-but-padded element form a strided pattern, not a
        contiguous one.
        """
        if count == 0 or self._size == 0:
            return contiguous_pattern(0)
        if count == 1:
            return combine_patterns(self._flatten())
        return combine_patterns(self.flatten(count))

    def pack_size(self, count: int = 1) -> int:
        """Bytes needed to hold ``count`` packed elements
        (``MPI_Pack_size``, without implementation slack)."""
        self._check_not_freed()
        if count < 0:
            raise DatatypeError(f"negative count {count}")
        return self._size * count

    # ------------------------------------------------------------------
    # Decoding (MPI_Type_get_envelope)
    # ------------------------------------------------------------------
    def get_envelope(self) -> str:
        """The combiner that created this type."""
        self._check_not_freed()
        return self.combiner

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------
    def _check_not_freed(self) -> None:
        if self._freed:
            raise FreedDatatypeError(f"datatype {self._name!r} used after Free()")

    def _check_usable(self) -> None:
        self._check_not_freed()

    def require_committed(self) -> None:
        """Raise unless this type may be used in communication."""
        self._check_not_freed()
        if not self._committed:
            raise UncommittedDatatypeError(
                f"datatype {self._name!r} must be committed before use in communication"
            )


class _DupDatatype(Datatype):
    """Result of :meth:`Datatype.dup`: same layout, independent lifecycle."""

    combiner = "dup"

    def __init__(self, base: Datatype):
        super().__init__(size=base._size, lb=base._lb, ub=base._ub, name=f"dup({base.name})")
        self._base = base

    def _build_runs(self) -> list[Run]:
        return list(self._base._flatten())
