"""Re-pricing by eager choices: the recorder, the base digest, the
choice index, and why sharing an outcome across eager limits is exact.

A run reads the tuning's eager limit only through
``CostModel.uses_eager``, which records every answer.  A cell that
differs from an executed one only in eager limit, and whose limit gives
each recorded answer again, must run to the same outcome bit for bit.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import PAPER_ORDER, TimingPolicy, strided_for_bytes
from repro.exec import CellOutcome, CellSpec, ResultStore, execute_spec
from repro.machine import get_platform, list_platforms
from repro.serve.service import ChoiceIndex

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def with_limit(platform, limit):
    return platform.with_tuning(platform.tuning.with_eager_limit(limit))


def cell(platform, *, scheme="copying", size=2048, limit=None, materialize=False):
    if limit is not None:
        platform = with_limit(platform, limit)
    return CellSpec(
        scheme=scheme,
        layout=strided_for_bytes(size),
        platform=platform,
        policy=TimingPolicy(iterations=2, flush=False),
        materialize=materialize,
    )


def facts(outcome: CellOutcome) -> tuple:
    """What a served cell carries: hex times, events, hex virtual time
    and ``verified``."""
    return (
        tuple(t.hex() for t in outcome.times),
        outcome.events,
        outcome.virtual_time.hex(),
        outcome.verified,
    )


# ----------------------------------------------------------------------
# Recording.
# ----------------------------------------------------------------------
def test_a_run_records_each_eager_choice_it_makes(ideal):
    """2048 B over ideal's 1000 B limit goes rendezvous; the barriers'
    empty messages go eager."""
    outcome = execute_spec(cell(ideal, scheme="reference"))
    assert outcome.eager_choices == {(0, False, False): True, (2048, False, False): False}


def test_choices_are_no_part_of_an_outcomes_identity(ideal):
    outcome = execute_spec(cell(ideal))
    assert outcome.eager_choices
    bare = CellOutcome(outcome.times, outcome.verified, outcome.events, outcome.virtual_time)
    assert bare == outcome and hash(bare) == hash(outcome)
    assert "eager_choices" not in repr(outcome)


def test_auto_cells_record_no_choices(ideal):
    """``auto``'s selector asks the eager limit outside the job while
    it prices every candidate, so its choices would not be all reads."""
    assert execute_spec(cell(ideal, scheme="auto")).eager_choices is None


def test_the_store_neither_writes_nor_returns_choices(tmp_path, ideal):
    store = ResultStore(tmp_path)
    spec = cell(ideal)
    store.put(spec, execute_spec(spec))
    assert b"eager" not in store._body(spec.digest)
    assert store.get(spec).eager_choices is None


# ----------------------------------------------------------------------
# The base digest.
# ----------------------------------------------------------------------
def test_the_base_digest_leaves_out_the_eager_limit_alone(skx):
    plain = cell(skx)
    for limit in (0, 4096, 100_000):
        twin = cell(skx, limit=limit)
        assert twin.digest != plain.digest
        assert twin.base_digest == plain.base_digest
    # Every other input still keys it, the platform name included.
    others = (
        cell(skx, scheme="vector"),
        cell(skx, size=4096),
        cell(skx, materialize=True),
        cell(skx.with_name("skx-renamed")),
        cell(skx.with_tuning(replace(skx.tuning, rendezvous_extra_hops=3))),
        cell(get_platform("ideal")),
    )
    assert len({plain.base_digest} | {spec.base_digest for spec in others}) == 7


def test_the_base_fingerprint_drops_only_the_eager_limit(skx):
    assert skx.base_fingerprint != skx.fingerprint()
    assert with_limit(skx, None).base_fingerprint == skx.base_fingerprint
    assert with_limit(skx, None).fingerprint() != skx.fingerprint()


# ----------------------------------------------------------------------
# Soundness.
# ----------------------------------------------------------------------
LIMITS = st.one_of(st.none(), st.integers(min_value=0, max_value=80_000))


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(list_platforms()),
    scheme=st.sampled_from(PAPER_ORDER),
    size=st.sampled_from((992, 2048, 8192, 12_288, 16_384, 20_480, 65_536, 72_000)),
    first=LIMITS,
    second=LIMITS,
    materialize=st.booleans(),
)
def test_a_limit_that_answers_every_choice_alike_reproduces_the_outcome(
    name, scheme, size, first, second, materialize
):
    """Over the registry (``ls5-cray``'s packed-limit factor and
    always-rendezvous derived sends included), the eight paper schemes
    and sizes on both sides of the limits: whenever the index shares
    the first run with the second limit, a fresh run under the second
    limit equals it."""
    platform = get_platform(name)
    a = cell(with_limit(platform, first), scheme=scheme, size=size, materialize=materialize)
    b = cell(with_limit(platform, second), scheme=scheme, size=size, materialize=materialize)
    ran = execute_spec(a)
    index = ChoiceIndex()
    index.add(a, ran)
    shared = index.lookup(b)
    event(f"shared: {shared is not None}")
    if shared is not None:
        assert shared is ran
        assert facts(execute_spec(b)) == facts(ran)


# ----------------------------------------------------------------------
# Reach: every reader of the eager limit, pinned.
# ----------------------------------------------------------------------
#: Every place ``src/repro`` names the eager limit, ``effective_eager_limit``
#: or a ``uses_eager``, as an attribute or a string, with why it cannot
#: read the limit during a cell behind the recorder's back.
READERS = {
    ("mpi/costs.py", "CostModel.uses_eager", "uses_eager"):
        "the recorder: the one call that asks MpiTuning during a job",
    ("machine/tuning.py", "MpiTuning.uses_eager", "effective_eager_limit"):
        "the predicate the recorder calls",
    ("machine/tuning.py", "MpiTuning.effective_eager_limit", "eager_limit"):
        "only MpiTuning.uses_eager calls it",
    ("machine/tuning.py", "MpiTuning.__post_init__", "eager_limit"):
        "validation at construction",
    ("mpi/protocol.py", "SendOperation.__init__", "uses_eager"):
        "asks the pair's transport: the network one is the recorder",
    ("net/transport.py", "NetworkTransport.uses_eager", "uses_eager"):
        "delegates to CostModel.uses_eager, the recorder",
    ("net/transport.py", "Transport.in_flight_time", "uses_eager"):
        "what-if and pricer arithmetic outside any job",
    ("net/transport.py", "ShmTransport.uses_eager", "uses_eager"):
        "the shm model's own limit, not the tuning's",
    ("net/transport.py", "ShmTransport.transfer_time", "uses_eager"):
        "the shm model's own limit, not the tuning's",
    ("machine/network.py", "ShmModel.uses_eager", "eager_limit"):
        "the shm model's own limit, not the tuning's",
    ("machine/network.py", "ShmModel.__post_init__", "eager_limit"):
        "validation of the shm model's own limit",
    ("machine/pricing.py", "SchemePricer.transport_time", "uses_eager"):
        "auto's selector, outside the job: auto cells record no choices",
    ("machine/platform.py", "Platform.describe", "eager_limit"):
        "the `platforms` listing",
    ("machine/platform.py", "Platform.base_fingerprint", "'eager_limit'"):
        "the key the base fingerprint leaves out",
    ("serve/service.py", "ChoiceIndex.lookup", "uses_eager"):
        "the daemon's check of recorded choices, outside any job",
    ("serve/protocol.py", "PlatformSpec.resolve", "eager_limit"):
        "applies a request's override before any cell runs",
    ("serve/protocol.py", "PlatformSpec.from_json", "'eager_limit'"):
        "request parsing",
    ("serve/protocol.py", "PlatformSpec.to_json", "eager_limit"):
        "request encoding",
    ("serve/protocol.py", "PlatformSpec.to_json", "'eager_limit'"):
        "request encoding",
    ("experiments/eager_limit.py", "run_eager_limit_experiment", "eager_limit"):
        "builds the experiment's variants before its cells run",
    ("analysis/claims.py", "_packed_quirk_window", "eager_limit"):
        "analysis of finished sweeps",
    ("analysis/claims.py", "check_platform_claims", "eager_limit"):
        "analysis of finished sweeps",
}

_NAMES = {"eager_limit", "effective_eager_limit", "uses_eager"}


def _readers() -> set[tuple[str, str, str]]:
    found = set()

    def walk(node: ast.AST, path: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, path, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr in _NAMES:
                found.add((path, ".".join(scope) or "<module>", child.attr))
            elif isinstance(child, ast.Constant) and child.value in _NAMES:
                found.add((path, ".".join(scope) or "<module>", repr(child.value)))
            walk(child, path, scope)

    for file in sorted(SRC.rglob("*.py")):
        walk(ast.parse(file.read_text()), file.relative_to(SRC).as_posix(), ())
    return found


def test_every_reader_of_the_eager_limit_is_pinned():
    """A new reader could ask the limit where the recorder does not
    see it, and the daemon would share outcomes it must not: decide
    which side of the recorder it sits on, then pin it here."""
    found = _readers()
    assert sorted(found - READERS.keys()) == [], "unpinned eager-limit readers"
    assert sorted(READERS.keys() - found) == [], "pinned readers that are gone"


# ----------------------------------------------------------------------
# The index.
# ----------------------------------------------------------------------
def test_the_index_shares_only_where_every_choice_agrees(ideal):
    index = ChoiceIndex()
    plain = cell(ideal, size=2048)  # rendezvous under 1000 B
    index.add(plain, execute_spec(plain))
    assert index.lookup(cell(ideal, size=2048, limit=2047)) is not None
    assert index.lookup(cell(ideal, size=2048, limit=2048)) is None
    assert index.lookup(cell(ideal, size=4096, limit=500)) is None  # other base


def test_the_index_keeps_one_outcome_per_choice_set_and_skips_auto(ideal):
    index = ChoiceIndex()
    plain = cell(ideal)
    twin = cell(ideal, limit=1500)
    index.add(plain, execute_spec(plain))
    index.add(twin, execute_spec(twin))  # the same choices: adds nothing
    assert len(index) == 1
    auto = cell(ideal, scheme="auto")
    index.add(auto, execute_spec(auto))
    assert len(index) == 1 and index.lookup(auto) is None


def test_the_index_cap_drops_the_oldest_first(ideal, monkeypatch):
    monkeypatch.setattr("repro.serve.service.CHOICE_INDEX_CAP", 2)
    index = ChoiceIndex()
    specs = [cell(ideal, size=size) for size in (2048, 4096, 8192)]
    for spec in specs:
        index.add(spec, execute_spec(spec))
    assert len(index) == 2
    assert index.lookup(specs[0]) is None
    assert all(index.lookup(spec) is not None for spec in specs[1:])
