"""Machine models: hardware + MPI-installation performance profiles.

This package prices every primitive the simulated MPI library performs:
memory gathers/scatters (:class:`MemoryModel`), wire transfers
(:class:`NetworkModel`), CPU call overheads (:class:`CpuModel`), and the
MPI implementation's tuning profile (:class:`MpiTuning`).  A
:class:`Platform` bundles one of each; :func:`get_platform` serves the
paper's four calibrated platforms plus an ``ideal`` test platform.
"""

from .access import AccessPattern, contiguous_pattern, stride2_pattern
from .cache import CacheHierarchy, CacheLevel
from .cpu import CpuModel
from .fingerprint import MODEL_VERSION, canonical, digest_of
from .memory import CopyCost, MemoryModel
from .network import NetworkModel, ShmModel, default_shm_model
from .noise import NoiseModel
from .platform import Platform
from .pricing import PRICED_SCHEMES, SchemePricer
from .registry import (
    PAPER_PLATFORMS,
    build_custom_platform,
    get_platform,
    iter_platforms,
    list_platforms,
    register_platform,
)
from .tuning import MpiTuning

__all__ = [
    "AccessPattern",
    "contiguous_pattern",
    "stride2_pattern",
    "CacheHierarchy",
    "CacheLevel",
    "CpuModel",
    "CopyCost",
    "MODEL_VERSION",
    "canonical",
    "digest_of",
    "MemoryModel",
    "NetworkModel",
    "ShmModel",
    "default_shm_model",
    "NoiseModel",
    "Platform",
    "PRICED_SCHEMES",
    "SchemePricer",
    "MpiTuning",
    "PAPER_PLATFORMS",
    "build_custom_platform",
    "get_platform",
    "iter_platforms",
    "list_platforms",
    "register_platform",
]
