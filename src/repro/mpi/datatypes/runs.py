"""Flattened representations of datatype memory footprints.

A committed datatype flattens to a small list of *runs* — compact,
vectorizable descriptions of the contiguous byte blocks it touches:

* :class:`ContigRun` — one dense block, O(1) storage.
* :class:`StridedRuns` — ``count`` equal blocks at a regular stride,
  O(1) storage.  A ``Type_vector`` of 10^8 elements is one of these.
* :class:`IrregularRuns` — numpy arrays of offsets/lengths for
  genuinely irregular layouts (``Type_indexed`` and friends).

Runs do the actual byte movement (:meth:`gather` / :meth:`scatter`) via
vectorized numpy operations, and summarize themselves as
:class:`~repro.machine.access.AccessPattern` for the cost model.  All
offsets are bytes relative to the communication buffer's origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ...machine.access import AccessPattern

__all__ = [
    "Run",
    "ContigRun",
    "StridedRuns",
    "IrregularRuns",
    "coalesce",
    "expand_runs",
    "replicate",
    "runs_from_blocks",
    "combine_patterns",
    "total_bytes",
    "segments_of",
]

#: Above this many total blocks, :func:`replicate` switches from a
#: Python list of shifted runs to a single vectorized IrregularRuns.
_REPLICATE_FOLD_LIMIT = 4096


@dataclass(frozen=True)
class ContigRun:
    """One contiguous block of ``length`` bytes at ``offset``."""

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("ContigRun length must be positive")

    @property
    def total_bytes(self) -> int:
        return self.length

    @property
    def nblocks(self) -> int:
        return 1

    @property
    def min_offset(self) -> int:
        return self.offset

    @property
    def max_end(self) -> int:
        return self.offset + self.length

    def shifted(self, delta: int) -> "ContigRun":
        return ContigRun(self.offset + delta, self.length)

    def segments(self) -> Iterator[tuple[int, int]]:
        yield (self.offset, self.length)

    def gather(self, src: np.ndarray, dst: np.ndarray, dst_offset: int) -> int:
        dst[dst_offset : dst_offset + self.length] = src[self.offset : self.offset + self.length]
        return self.length

    def scatter(self, src: np.ndarray, src_offset: int, dst: np.ndarray) -> int:
        dst[self.offset : self.offset + self.length] = src[src_offset : src_offset + self.length]
        return self.length

    def access_pattern(self) -> AccessPattern:
        return AccessPattern(
            total_bytes=self.length,
            block_bytes=float(self.length),
            nblocks=1,
            span_bytes=self.length,
            regularity=1.0,
        )


@dataclass(frozen=True)
class StridedRuns:
    """``count`` blocks of ``blocklen`` bytes, ``stride`` bytes apart.

    ``stride`` may exceed, equal (degenerate contiguous — prefer
    :func:`coalesce`), or even be negative; blocks must not overlap.
    """

    offset: int
    count: int
    blocklen: int
    stride: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("StridedRuns count must be positive")
        if self.blocklen <= 0:
            raise ValueError("StridedRuns blocklen must be positive")
        if self.count > 1 and abs(self.stride) < self.blocklen:
            raise ValueError("stride smaller than block length: blocks overlap")

    @property
    def total_bytes(self) -> int:
        return self.count * self.blocklen

    @property
    def nblocks(self) -> int:
        return self.count

    @property
    def min_offset(self) -> int:
        if self.stride >= 0:
            return self.offset
        return self.offset + (self.count - 1) * self.stride

    @property
    def max_end(self) -> int:
        if self.stride >= 0:
            return self.offset + (self.count - 1) * self.stride + self.blocklen
        return self.offset + self.blocklen

    def shifted(self, delta: int) -> "StridedRuns":
        return StridedRuns(self.offset + delta, self.count, self.blocklen, self.stride)

    def segments(self) -> Iterator[tuple[int, int]]:
        for i in range(self.count):
            yield (self.offset + i * self.stride, self.blocklen)

    def _strided_view(self, buf: np.ndarray) -> np.ndarray:
        """A (count, blocklen) byte view of the blocks inside ``buf``."""
        start = self.min_offset
        end = self.max_end
        window = buf[start:end]
        first_block = self.offset - start
        return np.lib.stride_tricks.as_strided(
            window[first_block:],
            shape=(self.count, self.blocklen),
            strides=(self.stride, 1),
            writeable=buf.flags.writeable,
        )

    def gather(self, src: np.ndarray, dst: np.ndarray, dst_offset: int) -> int:
        n = self.total_bytes
        view = self._strided_view(src)
        # Assign into a (count, blocklen) view of the destination: one
        # copy.  ``view.reshape(-1)`` would first materialize the
        # non-contiguous blocks into a temporary.
        dst[dst_offset : dst_offset + n].reshape(self.count, self.blocklen)[...] = view
        return n

    def scatter(self, src: np.ndarray, src_offset: int, dst: np.ndarray) -> int:
        n = self.total_bytes
        view = self._strided_view(dst)
        view[...] = src[src_offset : src_offset + n].reshape(self.count, self.blocklen)
        return n

    def access_pattern(self) -> AccessPattern:
        return AccessPattern(
            total_bytes=self.total_bytes,
            block_bytes=float(self.blocklen),
            nblocks=self.count,
            span_bytes=self.max_end - self.min_offset,
            regularity=1.0,
        )


class IrregularRuns:
    """Arbitrary blocks given by numpy offset/length arrays.

    Blocks are kept in datatype order (that is the pack order); they
    must be non-overlapping but need not be sorted.
    """

    __slots__ = ("offsets", "lengths", "_total", "_dst", "_classes")

    def __init__(self, offsets: Sequence[int] | np.ndarray, lengths: Sequence[int] | np.ndarray):
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.shape != self.lengths.shape:
            raise ValueError("offsets and lengths must be equal-length 1-D arrays")
        if self.offsets.size == 0:
            raise ValueError("IrregularRuns must contain at least one block")
        if np.any(self.lengths <= 0):
            raise ValueError("all block lengths must be positive")
        self._total = int(self.lengths.sum())
        # Pack-buffer offset of each block: exclusive prefix sum, fixed
        # by the layout, so computed once here instead of per transfer.
        self._dst = np.concatenate(([0], np.cumsum(self.lengths[:-1])))
        self._classes: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IrregularRuns)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.lengths, other.lengths)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IrregularRuns(n={self.offsets.size}, bytes={self._total})"

    @property
    def total_bytes(self) -> int:
        return self._total

    @property
    def nblocks(self) -> int:
        return int(self.offsets.size)

    @property
    def min_offset(self) -> int:
        return int(self.offsets.min())

    @property
    def max_end(self) -> int:
        return int((self.offsets + self.lengths).max())

    def shifted(self, delta: int) -> "IrregularRuns":
        return IrregularRuns(self.offsets + delta, self.lengths)

    def segments(self) -> Iterator[tuple[int, int]]:
        for off, length in zip(self.offsets.tolist(), self.lengths.tolist()):
            yield (off, length)

    def _dst_offsets(self) -> np.ndarray:
        """Pack-buffer offsets of each block (exclusive prefix sum,
        precomputed at construction)."""
        return self._dst

    def _length_classes(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Blocks grouped by distinct length, computed once per run.

        Each entry is ``(span, src_offsets, dst_offsets)`` — the
        ``arange`` over the block length plus the per-class offset rows.
        Only the O(nblocks) index rows are cached; the broadcast
        (nblocks, length) matrices are still formed per transfer by the
        fancy-indexing expression, keeping memory at payload scale.
        """
        if self._classes is None:
            classes = []
            for length in np.unique(self.lengths):
                mask = self.lengths == length
                classes.append((
                    np.arange(length, dtype=np.int64),
                    self.offsets[mask],
                    self._dst[mask],
                ))
            self._classes = classes
        return self._classes

    def gather(self, src: np.ndarray, dst: np.ndarray, dst_offset: int) -> int:
        # Vectorize per distinct block length: one fancy-indexing gather
        # per length class instead of a Python loop per block.  Single
        # bytes take a 1-D index, skipping the (n, 1) broadcast.
        for span, offs, dsts in self._length_classes():
            if span.size == 1:
                dst[dsts + dst_offset] = src[offs]
            else:
                dst[(dsts + dst_offset)[:, None] + span] = src[offs[:, None] + span]
        return self._total

    def scatter(self, src: np.ndarray, src_offset: int, dst: np.ndarray) -> int:
        for span, offs, dsts in self._length_classes():
            if span.size == 1:
                dst[offs] = src[dsts + src_offset]
            else:
                dst[offs[:, None] + span] = src[(dsts + src_offset)[:, None] + span]
        return self._total

    def access_pattern(self) -> AccessPattern:
        return AccessPattern(
            total_bytes=self._total,
            block_bytes=float(self.lengths.mean()),
            nblocks=self.nblocks,
            span_bytes=self.max_end - self.min_offset,
            regularity=self._regularity(),
        )

    def _regularity(self) -> float:
        """Heuristic regularity: 1 for an even stride, falling towards 0
        as the gap pattern's coefficient of variation grows (prefetch
        streams lose lock — section 4.7 item 1 of the paper)."""
        if self.nblocks < 3:
            return 1.0
        starts = np.sort(self.offsets)
        gaps = np.diff(starts).astype(np.float64)
        mean = gaps.mean()
        if mean <= 0:
            return 1.0
        cv = float(gaps.std() / mean)
        return float(max(0.0, 1.0 - min(1.0, cv)))


Run = ContigRun | StridedRuns | IrregularRuns


# ----------------------------------------------------------------------
# Algebra on run lists
# ----------------------------------------------------------------------
def coalesce(runs: list[Run]) -> list[Run]:
    """Canonicalize a run list.

    Merges adjacent :class:`ContigRun` pairs, collapses degenerate
    strided runs (``stride == blocklen`` or ``count == 1``), and fuses
    consecutive equal-length contiguous runs at a uniform spacing into a
    single :class:`StridedRuns`.  The result touches the same bytes in
    the same order.
    """
    # Pass 1: degenerate strided runs become contiguous.
    flat: list[Run] = []
    for run in runs:
        if isinstance(run, StridedRuns):
            if run.count == 1:
                run = ContigRun(run.offset, run.blocklen)
            elif run.stride == run.blocklen:
                run = ContigRun(run.offset, run.count * run.blocklen)
        flat.append(run)
    # Pass 2: merge adjacent contiguous runs.
    merged: list[Run] = []
    for run in flat:
        prev = merged[-1] if merged else None
        if (
            isinstance(run, ContigRun)
            and isinstance(prev, ContigRun)
            and prev.offset + prev.length == run.offset
        ):
            merged[-1] = ContigRun(prev.offset, prev.length + run.length)
        else:
            merged.append(run)
    # Pass 3: fuse a homogeneous sequence of contiguous runs at uniform
    # spacing into one strided run.
    if len(merged) >= 2 and all(isinstance(r, ContigRun) for r in merged):
        contig: list[ContigRun] = merged  # type: ignore[assignment]
        length = contig[0].length
        if all(r.length == length for r in contig):
            gaps = {b.offset - a.offset for a, b in zip(contig, contig[1:])}
            if len(gaps) == 1:
                stride = gaps.pop()
                if abs(stride) >= length:
                    return [StridedRuns(contig[0].offset, len(contig), length, stride)]
    return merged


def expand_runs(runs: Sequence[Run]) -> tuple[np.ndarray, np.ndarray]:
    """Every block of a run list as (offsets, lengths) int64 arrays, in
    pack order.  ``IrregularRuns(*expand_runs(runs))`` moves the same
    bytes as the runs one at a time, in one pass per block length."""
    offsets_parts: list[np.ndarray] = []
    lengths_parts: list[np.ndarray] = []
    for run in runs:
        if isinstance(run, ContigRun):
            offsets_parts.append(np.asarray([run.offset], dtype=np.int64))
            lengths_parts.append(np.asarray([run.length], dtype=np.int64))
        elif isinstance(run, StridedRuns):
            offsets_parts.append(run.offset + run.stride * np.arange(run.count, dtype=np.int64))
            lengths_parts.append(np.full(run.count, run.blocklen, dtype=np.int64))
        else:
            offsets_parts.append(run.offsets)
            lengths_parts.append(run.lengths)
    if not offsets_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(offsets_parts), np.concatenate(lengths_parts)


def replicate(runs: list[Run], count: int, extent: int) -> list[Run]:
    """The run list of ``count`` consecutive datatype elements.

    Element ``i`` is the base list shifted by ``i * extent`` — the MPI
    rule for ``count > 1`` in sends and packs.  Small products stay as
    shifted copies; large products of uniform contiguous runs fold into
    one vectorized :class:`IrregularRuns`.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        return list(runs)
    if len(runs) == 1 and isinstance(runs[0], ContigRun):
        run = runs[0]
        if extent == run.length:
            return [ContigRun(run.offset, run.length * count)]
        return [StridedRuns(run.offset, count, run.length, extent)]
    if count * len(runs) <= _REPLICATE_FOLD_LIMIT:
        out: list[Run] = []
        for i in range(count):
            out.extend(run.shifted(i * extent) for run in runs)
        return coalesce(out)
    # Vectorized fold: expand every run to offset/length arrays once,
    # then tile across replicas.
    base_offsets, base_lengths = expand_runs(runs)
    shifts = extent * np.arange(count, dtype=np.int64)
    all_offsets = (shifts[:, None] + base_offsets[None, :]).reshape(-1)
    all_lengths = np.tile(base_lengths, count)
    return [IrregularRuns(all_offsets, all_lengths)]


def runs_from_blocks(offsets: np.ndarray, lengths: np.ndarray) -> list[Run]:
    """Canonical runs for ordered blocks given as offset/length arrays.

    Vectorized: merges blocks that are byte-adjacent *in order*, then
    picks the most compact representation — one :class:`ContigRun`, one
    :class:`StridedRuns` for uniform length/spacing, or an
    :class:`IrregularRuns` otherwise.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if offsets.size == 0:
        return []
    # Merge in-order adjacency: block i+1 starts where block i ends.
    starts = np.concatenate(([True], offsets[1:] != offsets[:-1] + lengths[:-1]))
    if not starts.all():
        group = np.cumsum(starts) - 1
        offsets = offsets[starts]
        lengths = np.bincount(group, weights=lengths.astype(np.float64)).astype(np.int64)
    if offsets.size == 1:
        return [ContigRun(int(offsets[0]), int(lengths[0]))]
    if np.all(lengths == lengths[0]):
        gaps = np.diff(offsets)
        if np.all(gaps == gaps[0]):
            stride = int(gaps[0])
            length = int(lengths[0])
            if abs(stride) >= length:
                return [StridedRuns(int(offsets[0]), int(offsets.size), length, stride)]
    return [IrregularRuns(offsets, lengths)]


def total_bytes(runs: list[Run]) -> int:
    """Payload bytes across a run list."""
    return sum(run.total_bytes for run in runs)


def segments_of(runs: list[Run]) -> list[tuple[int, int]]:
    """Every (offset, length) block, in pack order.  Testing/debug only:
    materializes the full block list."""
    out: list[tuple[int, int]] = []
    for run in runs:
        out.extend(run.segments())
    return out


def combine_patterns(runs: list[Run]) -> AccessPattern:
    """Summarize a run list as one :class:`AccessPattern`."""
    if not runs:
        return AccessPattern(0, 1.0, 0, 0, 1.0)
    patterns = [run.access_pattern() for run in runs]
    if len(patterns) == 1:
        return patterns[0]
    total = sum(p.total_bytes for p in patterns)
    nblocks = sum(p.nblocks for p in patterns)
    span = max(r.max_end for r in runs) - min(r.min_offset for r in runs)
    regularity = sum(p.regularity * p.total_bytes for p in patterns) / total if total else 1.0
    return AccessPattern(
        total_bytes=total,
        block_bytes=total / nblocks if nblocks else 1.0,
        nblocks=nblocks,
        span_bytes=max(span, total),
        regularity=regularity,
    )
