"""Unit tests for the request-to-work layer (no live server needed)."""

from __future__ import annotations

import pytest

from repro.core.pipeline import sweep_grid
from repro.server.jobs import (
    MAX_POINTS_PER_REQUEST,
    PointSpec,
    RequestError,
    parse_sweep_request,
    parse_transpile_request,
    stats_delta,
)
from repro.transpiler.target import Target

pytestmark = pytest.mark.fast


def test_point_spec_defaults():
    spec = PointSpec.from_payload({"workload": "GHZ", "size": 6})
    assert spec.topology == "Corral1,1"
    assert spec.basis == "siswap"
    assert spec.scale == "small"
    assert spec.optimization_level == 1
    assert spec.layout is None and spec.routing is None
    assert spec.seed == 0


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("not a dict", "JSON object"),
        ({"size": 4}, "missing 'workload'"),
        ({"workload": "GHZ"}, "missing 'size'"),
        ({"workload": "Nope", "size": 4}, "unknown workload"),
        ({"workload": "GHZ", "size": 0}, "at least 1"),
        ({"workload": "GHZ", "size": True}, "must be an integer"),
        ({"workload": "GHZ", "size": 4, "level": 42}, "unknown optimization level"),
        ({"workload": "GHZ", "size": 4, "scale": "huge"}, "'scale' must be"),
        ({"workload": "GHZ", "size": 4, "layout": "nope"}, "unknown layout"),
        ({"workload": "GHZ", "size": 4, "routing": "nope"}, "unknown routing"),
        ({"workload": "GHZ", "size": 4, "mystery": 1}, "unknown point fields"),
    ],
)
def test_point_spec_rejects_bad_payloads(payload, fragment):
    with pytest.raises(RequestError) as excinfo:
        PointSpec.from_payload(payload)
    assert excinfo.value.status == 400
    assert fragment in str(excinfo.value)


def test_resolve_target_bad_topology_is_request_error():
    spec = PointSpec.from_payload(
        {"workload": "GHZ", "size": 4, "topology": "NotATopology"}
    )
    with pytest.raises(RequestError) as excinfo:
        spec.resolve_target()
    assert excinfo.value.status == 400


def test_parse_transpile_single_and_batch():
    single = parse_transpile_request({"workload": "GHZ", "size": 4})
    assert len(single) == 1
    batch = parse_transpile_request(
        {"points": [{"workload": "GHZ", "size": s} for s in (4, 5)]}
    )
    assert [spec.size for spec in batch] == [4, 5]


def test_parse_transpile_rejects_oversized_batch():
    points = [{"workload": "GHZ", "size": 4}] * (MAX_POINTS_PER_REQUEST + 1)
    with pytest.raises(RequestError):
        parse_transpile_request({"points": points})


def test_parse_sweep_grid_matches_canonical_order():
    request = parse_sweep_request(
        {
            "workloads": ["GHZ", "QuantumVolume"],
            "sizes": [4, 6],
            "targets": [{"topology": "Corral1,1", "basis": "siswap"}],
            "chunk_size": 3,
        }
    )
    grid = request.points
    assert request.chunk_size == 3
    assert request.run_id is None
    target = Target.from_names("Corral1,1", "siswap", scale="small")
    expected = sweep_grid(["GHZ", "QuantumVolume"], [4, 6], [target])
    assert [(workload, size) for workload, size, *_ in grid] == [
        (workload, size) for workload, size, _ in expected
    ]


def test_parse_sweep_empty_grid_raises():
    with pytest.raises(RequestError) as excinfo:
        parse_sweep_request(
            {
                "workloads": ["GHZ"],
                "sizes": [10_000],
                "targets": [{"topology": "Corral1,1"}],
            }
        )
    assert "empty" in str(excinfo.value)


def test_parse_sweep_rejects_bad_target_entry():
    with pytest.raises(RequestError):
        parse_sweep_request(
            {"workloads": ["GHZ"], "sizes": [4], "targets": [{"basis": "siswap"}]}
        )
    with pytest.raises(RequestError):
        parse_sweep_request(
            {
                "workloads": ["GHZ"],
                "sizes": [4],
                "targets": [{"topology": "Corral1,1", "oops": 1}],
            }
        )


def test_stats_delta_subtracts_counters_and_keeps_sizes():
    before = {
        "hits": 2, "misses": 5, "disk_hits": 1, "disk_misses": 4,
        "computed": 4, "currsize": 5, "maxsize": 100,
    }
    after = {
        "hits": 6, "misses": 7, "disk_hits": 1, "disk_misses": 6,
        "computed": 6, "currsize": 7, "maxsize": 100,
    }
    delta = stats_delta(before, after)
    assert delta == {
        "hits": 4, "misses": 2, "disk_hits": 0, "disk_misses": 2,
        "computed": 2, "currsize": 7, "maxsize": 100,
    }
    assert stats_delta(None, after) is None
