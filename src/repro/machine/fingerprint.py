"""Stable content fingerprints for pricing models.

The cell-execution cache (:mod:`repro.exec`) keys every simulated cell
by a content digest of its inputs.  Two requirements shape this module:

* **Exactness** — floats are encoded with ``float.hex()``, so a knob
  that moves by one ulp produces a different digest.  A cache hit is a
  promise of bit-identical results; fuzzy keys would break it.
* **Stability** — the encoding is canonical JSON (sorted keys, no
  whitespace), so the digest of the same object is identical across
  processes, Python versions, and machines (no reliance on the salted
  ``hash()``).

``MODEL_VERSION`` is the model-version salt: cached results are stored
under it, so bumping it orphans every previously cached cell.  **Bump it
whenever any priced behaviour changes** — anything under
:mod:`repro.machine` (memory/network/CPU models, tuning semantics) or
the :mod:`repro.mpi` protocol/cost layer that affects virtual time,
event counts, or payload verification.  Pure refactors, observability,
and analysis changes do not require a bump.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import cached_property
from typing import Any

__all__ = ["MODEL_VERSION", "CanonicalOnce", "canonical", "digest_of"]

#: The cache generation of the pricing model (see module docstring).
#: History: v1 — first content-addressed store (spec/execute split).
MODEL_VERSION = "v1"


def canonical(obj: Any) -> Any:
    """Recursively convert ``obj`` into a canonical JSON-serializable
    form.

    Dataclasses carry their qualified class name (two layouts with the
    same field values but different semantics must not collide); floats
    become hex strings; dicts are emitted with string keys (``json.dumps
    (sort_keys=True)`` finishes the canonicalization).  Unsupported
    types raise ``TypeError`` — silently ``repr()``-ing an unknown
    object could under-key the cache.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj.hex()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        out: dict[str, Any] = {"__type__": f"{cls.__module__}.{cls.__qualname__}"}
        for f in dataclasses.fields(obj):
            out[f.name] = canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    # numpy scalars slip into tuning dicts occasionally; unwrap exactly.
    item = getattr(obj, "item", None)
    if callable(item):
        return canonical(item())
    raise TypeError(
        f"cannot fingerprint {type(obj).__module__}.{type(obj).__qualname__}: "
        "only dataclasses, dicts, sequences, and scalars are supported"
    )


def digest_of(obj: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``obj``."""
    encoded = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


class CanonicalOnce:
    """Mixin for frozen dataclasses that many digests fold in:
    :attr:`canonical_form` is ``canonical(self)``, computed once per
    instance, as :meth:`~repro.machine.platform.Platform.fingerprint`
    is.  ``canonical`` is idempotent, so a digest over the form equals
    one over the instance."""

    @cached_property
    def canonical_form(self) -> Any:
        return canonical(self)
