"""The four workloads: what one round runs and how its output is checked.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``.  Output digests are pinned in ``pins.json``
(``python bench/run.py pin`` rewrites it).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
PINS = BENCH / "pins.json"


@dataclass(frozen=True)
class Workload:
    """One workload.  ``argv`` is the ``repro`` command line, with
    ``{tmp}`` standing for the round's private directory; ``output`` is
    the file in it whose SHA-256 is pinned (``stdout`` for standard
    output), or ``None`` for the served workload, which is checked
    request by request."""

    name: str
    argv: tuple[str, ...]
    output: str | None
    rounds: int  # rounds of a full run (``run.py`` without ``--workload``)
    timeout_s: float

    @property
    def served(self) -> bool:
        return self.output is None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sweep-cold",
                 ("sweep", "--platform", "skx-impi", "--out", "{tmp}/sweep.json"),
                 "sweep.json", rounds=10, timeout_s=60),
        Workload("halo-64",
                 ("experiment", "halo", "--ranks", "64", "--no-cache"),
                 "stdout", rounds=8, timeout_s=90),
        Workload("report-quick",
                 ("report", "--quick", "--out", "{tmp}/EXPERIMENTS.md"),
                 "EXPERIMENTS.md", rounds=10, timeout_s=60),
        Workload("serve-mixed",
                 ("serve", "--port", "0", "--dir", "{tmp}/store"),
                 None, rounds=6, timeout_s=120),
    )
}

# ----------------------------------------------------------------------
# serve-mixed: the request list.
# ----------------------------------------------------------------------
#: ``repro.core.schemes.PAPER_ORDER``, spelled out: the load generator
#: imports nothing from the program.
SCHEMES = ("reference", "copying", "buffered", "vector", "subarray",
           "onesided", "packing-element", "packing-vector")

#: Four size grids (1 kB to 1 MB) whose plain ``skx-impi`` half is
#: computed on first use and reused from the store after that.
HOT_GRIDS = (
    (1_008, 31_616, 1_000_000),
    (1_504, 47_104, 750_000),
    (2_000, 63_008, 500_000),
    (1_200, 40_000, 880_000),
)

#: One eager limit per request pair; pair k uses grid k % 4.  The cell
#: universe is fixed, so every seed serves the same 576 distinct cells
#: (pinned in ``pins.json``) and does the same work, in another order.
EAGER_LIMITS = tuple(2_048 + 3_072 * k for k in range(20))

CELLS_PER_REQUEST = 2 * len(SCHEMES) * 3


def serve_requests(seed: int) -> list[dict[str, Any]]:
    """40 ``POST /sweep`` bodies; ``seed`` shuffles the order of the 20
    request pairs.  Both requests of a pair are identical, so the
    perturbed half is recomputed by the first, and deduplicated or
    reused by the second depending on whether they overlap."""
    pairs = [(HOT_GRIDS[k % len(HOT_GRIDS)], eager) for k, eager in enumerate(EAGER_LIMITS)]
    random.Random(seed).shuffle(pairs)
    requests = []
    for grid, eager in pairs:
        body = {
            "platforms": ["skx-impi", {"name": "skx-impi", "eager_limit": eager}],
            "sizes": list(grid),
            "schemes": list(SCHEMES),
        }
        requests += [body, body]
    return requests


# ----------------------------------------------------------------------
# Checks.
# ----------------------------------------------------------------------
def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_pins() -> dict[str, str]:
    return json.loads(PINS.read_text())


def response_error(status: int, body: bytes) -> str | None:
    """Why one served response is wrong, or ``None``."""
    if status != 200:
        return f"HTTP {status}"
    try:
        job = json.loads(body)
    except ValueError:
        return "response is not JSON"
    cells = job.get("cells") or {}
    if job.get("status") != "done":
        return f"job {job.get('status')}: {job.get('error')}"
    if job.get("total") != CELLS_PER_REQUEST or len(cells) != CELLS_PER_REQUEST:
        return f"{len(cells)} of {CELLS_PER_REQUEST} cells"
    if not all(cell.get("verified") is True for cell in cells.values()):
        return "unverified payload"
    return None


def outcome(cell: dict[str, Any]) -> tuple:
    """A served cell without its ``source``: what must agree across
    responses and runs."""
    return (cell["digest"], cell["scheme"], cell["platform"], cell["message_bytes"],
            tuple(cell["times_hex"]), cell["virtual_time_hex"], cell["verified"],
            cell["events"])


def cell_set_digest(cells: dict[str, tuple]) -> str:
    """SHA-256 of the canonical set of distinct served cells."""
    canonical = json.dumps(sorted(cells.values()), separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
