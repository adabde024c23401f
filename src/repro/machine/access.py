"""Access-pattern descriptors.

The datatype engine (``repro.mpi.datatypes``) summarizes any committed
datatype's memory footprint as an :class:`AccessPattern`; the memory
model prices gather/scatter loops from it without ever materializing
per-element offsets.  This is the contract between the MPI layer and the
machine layer.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AccessPattern", "contiguous_pattern", "stride2_pattern"]


@dataclass(frozen=True)
class AccessPattern:
    """Summary of a strided/irregular memory access pattern.

    Parameters
    ----------
    total_bytes:
        Useful payload bytes touched (the datatype *size* times count).
    block_bytes:
        Bytes per contiguous block (the innermost run length).  For an
        irregular type this is the *mean* block length.
    nblocks:
        Number of contiguous blocks.
    span_bytes:
        Extent of the touched region from first to last byte.  For a
        contiguous buffer this equals ``total_bytes``.
    regularity:
        In [0, 1]: 1.0 for a perfectly regular stride (hardware
        prefetchers lock on), lower for irregular displacements
        (section 4.7 item 1 of the paper).
    """

    total_bytes: int
    block_bytes: float
    nblocks: int
    span_bytes: int
    regularity: float = 1.0

    def __post_init__(self) -> None:
        if self.total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        if self.total_bytes > 0 and self.block_bytes <= 0:
            raise ValueError("block_bytes must be positive for a non-empty pattern")
        if self.nblocks < 0:
            raise ValueError("nblocks must be non-negative")
        if self.span_bytes < self.total_bytes:
            raise ValueError("span cannot be smaller than the payload")
        if not 0.0 <= self.regularity <= 1.0:
            raise ValueError("regularity must lie in [0, 1]")

    @property
    def is_contiguous(self) -> bool:
        """True when the pattern is one dense block."""
        return self.total_bytes == 0 or self.span_bytes == self.total_bytes

    @property
    def density(self) -> float:
        """Fraction of the spanned region that is useful payload."""
        if self.span_bytes == 0:
            return 1.0
        return self.total_bytes / self.span_bytes

    def scaled(self, count: int) -> "AccessPattern":
        """The pattern of ``count`` consecutive elements of this pattern."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count in (0, 1):
            return self if count == 1 else AccessPattern(0, 1.0, 0, 0, 1.0)
        return AccessPattern(
            total_bytes=self.total_bytes * count,
            block_bytes=self.block_bytes,
            nblocks=self.nblocks * count,
            span_bytes=self.span_bytes * count,
            regularity=self.regularity,
        )


def contiguous_pattern(nbytes: int) -> AccessPattern:
    """The access pattern of a dense ``nbytes`` buffer."""
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if nbytes == 0:
        return AccessPattern(0, 1.0, 0, 0, 1.0)
    return AccessPattern(
        total_bytes=nbytes,
        block_bytes=float(nbytes),
        nblocks=1,
        span_bytes=nbytes,
        regularity=1.0,
    )


def stride2_pattern(nbytes: int) -> AccessPattern:
    """The paper's layout: ``nbytes`` of payload as every other double."""
    if nbytes <= 0 or nbytes % 8:
        raise ValueError("nbytes must be a positive multiple of 8")
    return AccessPattern(
        total_bytes=nbytes,
        block_bytes=8.0,
        nblocks=nbytes // 8,
        span_bytes=2 * nbytes,
    )
