"""The serve wire protocol: validation, compilation, cell encoding."""

from __future__ import annotations

import pytest

from repro.core import TimingPolicy, strided_for_bytes
from repro.core.runner import sweep_specs
from repro.exec import CellSpec, execute_spec
from repro.machine.fingerprint import MODEL_VERSION
from repro.serve import (
    PlatformSpec,
    ProtocolError,
    SweepRequest,
    decode_outcome,
    encode_cell,
)
from repro.serve.protocol import MAX_CELLS_PER_REQUEST


def small_request(**overrides) -> dict:
    body = {
        "platforms": ["ideal"],
        "sizes": [2048],
        "schemes": ["copying", "reference"],
        "policy": {"iterations": 2, "flush": False},
    }
    body.update(overrides)
    return body


# ----------------------------------------------------------------------
# PlatformSpec
# ----------------------------------------------------------------------
def test_platform_spec_accepts_bare_name_and_object():
    assert PlatformSpec.from_json("ideal") == PlatformSpec(name="ideal")
    spec = PlatformSpec.from_json({"name": "ideal", "eager_limit": 9000})
    assert spec.eager_limit == 9000
    assert spec.to_json() == {"name": "ideal", "eager_limit": 9000}


@pytest.mark.parametrize(
    "data",
    [
        42,
        {},
        {"name": ""},
        {"name": "ideal", "eager_limit": -1},
        {"name": "ideal", "eager_limit": True},
        {"name": "ideal", "eager_limit": "big"},
        {"name": "ideal", "bogus": 1},
    ],
)
def test_platform_spec_rejects_malformed(data):
    with pytest.raises(ProtocolError):
        PlatformSpec.from_json(data)


def test_platform_spec_resolve_unknown_is_protocol_error():
    with pytest.raises(ProtocolError, match="unknown platform"):
        PlatformSpec(name="cray-xk7").resolve()


def test_eager_limit_override_perturbs_the_fingerprint(ideal):
    perturbed = PlatformSpec(name="ideal", eager_limit=9000).resolve()
    assert perturbed.fingerprint() != ideal.fingerprint()
    # ... which is exactly what re-prices cells: digests diverge too.
    policy = TimingPolicy(iterations=2, flush=False)
    layout = strided_for_bytes(2048)
    plain = CellSpec(
        scheme="copying", layout=layout, platform=ideal, policy=policy,
        materialize=False,
    )
    priced = CellSpec(
        scheme="copying", layout=layout, platform=perturbed, policy=policy,
        materialize=False,
    )
    assert plain.digest != priced.digest


# ----------------------------------------------------------------------
# SweepRequest
# ----------------------------------------------------------------------
def test_request_roundtrips_through_json():
    request = SweepRequest.from_json(small_request(tags={"ci": True}))
    again = SweepRequest.from_json(request.to_json())
    assert again == request
    assert again.salt == MODEL_VERSION
    assert again.policy == TimingPolicy(iterations=2, flush=False)


def test_a_foreign_model_version_is_a_409():
    """The daemon prices one model: a request expecting another is a
    conflict, refused before anything compiles."""
    with pytest.raises(ProtocolError) as info:
        SweepRequest.from_json(small_request(salt="v2"))
    assert info.value.status == 409
    assert str(info.value) == (
        f"this daemon prices model {MODEL_VERSION}; the request expects 'v2'"
    )
    assert SweepRequest.from_json(small_request(salt=MODEL_VERSION)).salt == MODEL_VERSION


def test_request_defaults_match_local_sweeps():
    request = SweepRequest.from_json(
        {"platforms": ["ideal"], "sizes": [2048], "schemes": ["copying"]}
    )
    assert request.iterations == 3 and request.flush is True
    assert request.salt == MODEL_VERSION


@pytest.mark.parametrize(
    "body",
    [
        [],
        small_request(bogus=1),
        small_request(platforms=[]),
        small_request(sizes=[]),
        small_request(sizes=[0]),
        small_request(sizes=[True]),
        small_request(schemes=[]),
        small_request(schemes=["warp-drive"]),
        small_request(policy={"iterations": 0}),
        small_request(policy={"flush": "yes"}),
        small_request(policy={"dismiss_sigma": -1}),
        small_request(policy={"bogus": 1}),
        small_request(materialize_limit=-1),
        small_request(concurrent_streams=0),
        small_request(salt=""),
        small_request(salt="../escape"),
        small_request(salt="v1.1"),
        small_request(tags=[]),
    ],
)
def test_request_rejects_malformed(body):
    with pytest.raises(ProtocolError):
        SweepRequest.from_json(body)


def test_request_grid_ceiling():
    huge = small_request(
        sizes=list(range(1, MAX_CELLS_PER_REQUEST + 2)), schemes=["copying"]
    )
    with pytest.raises(ProtocolError, match="limit"):
        SweepRequest.from_json(huge)


def test_compile_matches_a_local_sweep(ideal):
    """The daemon compiles the same grid (same digests, same order) a
    local ``run_sweep`` would build from the equivalent config."""
    request = SweepRequest.from_json(small_request(sizes=[2048, 8192]))
    compiled = request.compile()
    assert len(compiled) == 1
    local = sweep_specs(ideal, request.config())
    assert [s.digest for s in compiled[0].specs] == [s.digest for s in local]


# ----------------------------------------------------------------------
# Cell encoding
# ----------------------------------------------------------------------
def test_a_48_cell_request_fingerprints_each_platform_once(monkeypatch):
    """Every cell digest folds in its platform's fingerprint; a platform
    instance canonicalizes its models once, not once per cell."""
    from repro.machine import fingerprint

    real = fingerprint.digest_of
    platforms = []

    def spy(obj):
        if isinstance(obj, dict) and "memory" in obj:
            platforms.append(obj)
        return real(obj)

    monkeypatch.setattr(fingerprint, "digest_of", spy)
    request = SweepRequest.from_json(
        {
            "platforms": ["skx-impi", {"name": "skx-impi", "eager_limit": 5_120}],
            "sizes": [1_008, 31_616, 1_000_000],
            "schemes": [
                "reference", "copying", "buffered", "vector", "subarray",
                "onesided", "packing-element", "packing-vector",
            ],
        }
    )
    compiled = request.compile()
    digests = {spec.digest for sweep in compiled for spec in sweep.specs}
    assert len(digests) == 48
    assert len(platforms) == len(compiled) == 2
    # The memo is the digest itself: recomputing it from scratch agrees.
    monkeypatch.undo()
    for sweep in compiled:
        assert sweep.platform.fingerprint() == sweep.platform.with_name("x").fingerprint()


def test_a_48_cell_request_canonicalizes_each_layout_and_its_policy_once(monkeypatch):
    """Every cell digest folds in its layout and policy; the request's
    specs share one layout per size and one policy, and each instance
    is canonicalized once, not once per cell."""
    from repro.core import Layout
    from repro.machine import fingerprint

    real = fingerprint.canonical
    seen = []

    def spy(obj):
        if isinstance(obj, (Layout, TimingPolicy)):
            seen.append(obj)
        return real(obj)

    monkeypatch.setattr(fingerprint, "canonical", spy)
    request = SweepRequest.from_json(
        {
            "platforms": ["skx-impi", {"name": "skx-impi", "eager_limit": 5_120}],
            "sizes": [1_008, 31_616, 1_000_000],
            "schemes": [
                "reference", "copying", "buffered", "vector", "subarray",
                "onesided", "packing-element", "packing-vector",
            ],
        }
    )
    specs = [spec for sweep in request.compile() for spec in sweep.specs]
    assert len({spec.digest for spec in specs}) == 48
    layouts = [obj for obj in seen if isinstance(obj, Layout)]
    assert sorted(layout.message_bytes for layout in layouts) == [1_008, 31_616, 1_000_000]
    assert [type(obj) for obj in seen if isinstance(obj, TimingPolicy)] == [TimingPolicy]
    # The memoized forms digest exactly as the instances themselves do.
    monkeypatch.undo()
    for spec in specs:
        assert spec.digest == fingerprint.digest_of(
            {
                "scheme": spec.scheme,
                "layout": spec.layout,
                "platform_name": spec.platform.name,
                "platform": spec.platform.fingerprint(),
                "policy": spec.policy,
                "materialize": spec.materialize,
                "concurrent_streams": spec.concurrent_streams,
            }
        )


def test_cell_wire_roundtrip_is_bit_exact(ideal):
    spec = CellSpec(
        scheme="copying",
        layout=strided_for_bytes(2048),
        platform=ideal,
        policy=TimingPolicy(iterations=2, flush=False),
        materialize=False,
    )
    outcome = execute_spec(spec)
    cell = encode_cell(spec, outcome, source="recomputed")
    assert cell["digest"] == spec.digest
    assert cell["source"] == "recomputed"
    decoded = decode_outcome(cell)
    assert decoded.times == outcome.times
    assert decoded.virtual_time == outcome.virtual_time
    assert decoded.events == outcome.events
    assert decoded.verified == outcome.verified
    # The derived public result is identical too.
    assert spec.to_result(decoded, cached=True).stats == spec.to_result(outcome).stats


@pytest.mark.parametrize(
    "cell",
    [
        {},
        {"times_hex": ["not hex"], "virtual_time_hex": "0x0p+0", "verified": True, "events": 1},
        {"times_hex": ["0x1p-3"], "virtual_time_hex": None, "verified": True, "events": 1},
        {"times_hex": ["0x1p-3"], "virtual_time_hex": "0x0p+0", "verified": True, "events": "many"},
    ],
)
def test_malformed_cell_payload_is_a_gateway_error(cell):
    with pytest.raises(ProtocolError) as info:
        decode_outcome(cell)
    assert info.value.status == 502
