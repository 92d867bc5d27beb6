"""Unit tests for the request-to-work layer (no live server needed)."""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import sweep_grid
from repro.server.jobs import (
    MAX_POINTS_PER_REQUEST,
    PointSpec,
    RequestError,
    parse_sweep_request,
    parse_transpile_request,
    pop_deadline,
    stats_delta,
)
from repro.topology.registry import available_topologies
from repro.transpiler.registry import available_passes
from repro.transpiler.target import Target
from repro.workloads import available_workloads

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


# -- any request body: a parsed request or a 400 -------------------------------

#: Any JSON value, NaN and the infinities included (json parses them).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_DEADLINE = (
    st.floats(min_value=1e-3, max_value=1e6)
    | st.floats()
    | st.integers(min_value=-1, max_value=2**1100)
)
_WORKLOAD = st.sampled_from(available_workloads() + ["Nope"])
_SIZE = st.integers(min_value=-1, max_value=40)
_TOPOLOGY = st.sampled_from(available_topologies("small") + ["Nope"])
_BASIS = st.sampled_from(["siswap", "cx", "nope"])
_OPTIONS = {
    "scale": st.sampled_from(["small", "large", "huge"]),
    "level": st.integers(min_value=-1, max_value=4),
    "layout": st.sampled_from(available_passes("layout") + ["nope"]),
    "routing": st.sampled_from(available_passes("routing") + ["nope"]),
    "seed": st.integers(min_value=-1, max_value=2**70),
}
_POINT_FIELDS = {"topology": _TOPOLOGY, "basis": _BASIS, **_OPTIONS}
_POINT = st.fixed_dictionaries({"workload": _WORKLOAD, "size": _SIZE}, optional=_POINT_FIELDS)
_TRANSPILE_BODY = st.fixed_dictionaries(
    {"workload": _WORKLOAD, "size": _SIZE},
    optional={**_POINT_FIELDS, "deadline_s": _DEADLINE},
) | st.fixed_dictionaries(
    {"points": st.lists(_POINT, min_size=1, max_size=3)},
    optional={"deadline_s": _DEADLINE},
)
_SWEEP_BODY = st.fixed_dictionaries(
    {
        "workloads": st.lists(_WORKLOAD, min_size=1, max_size=3),
        "sizes": st.lists(_SIZE, min_size=1, max_size=3),
        "targets": st.lists(
            st.fixed_dictionaries({"topology": _TOPOLOGY}, optional={"basis": _BASIS}),
            min_size=1,
            max_size=2,
        ),
    },
    optional={
        "chunk_size": st.integers(min_value=-1, max_value=40),
        "deadline_s": _DEADLINE,
        **_OPTIONS,
    },
)
_FIELD_NAMES = sorted(
    {"workload", "size", "points", "workloads", "sizes", "targets", "chunk_size", "deadline_s"}
    | set(_POINT_FIELDS)
)


def _bodies(plausible):
    """``plausible`` bodies, the same with one field set to any JSON value, or any JSON."""
    junked = st.builds(
        lambda body, name, value: {**body, name: value},
        plausible,
        st.sampled_from(_FIELD_NAMES),
        _JSON,
    )
    return plausible | junked | _JSON


_GHZ_POINT = {"workload": "GHZ", "size": 4}
_GHZ_SWEEP = {"workloads": ["GHZ"], "sizes": [4], "targets": [{"topology": "Corral1,1"}]}


@given(
    case=st.tuples(st.just("transpile"), _bodies(_TRANSPILE_BODY))
    | st.tuples(st.just("sweep"), _bodies(_SWEEP_BODY))
)
@example(case=("transpile", {**_GHZ_POINT, "deadline_s": math.nan}))
@example(case=("transpile", {**_GHZ_POINT, "deadline_s": math.inf}))
@example(case=("sweep", {**_GHZ_SWEEP, "deadline_s": -math.inf}))
@example(case=("sweep", {**_GHZ_SWEEP, "deadline_s": math.nan}))
@example(case=("sweep", {**_GHZ_SWEEP, "deadline_s": 0}))
@settings(max_examples=300, deadline=None)
def test_a_request_body_parses_or_is_a_400(case):
    endpoint, body = case
    parse = parse_transpile_request if endpoint == "transpile" else parse_sweep_request
    payload = copy.deepcopy(body)
    try:
        deadline = pop_deadline(payload)
        parse(payload)
    except RequestError as error:
        assert error.status == 400
        return
    assert deadline is None or (math.isfinite(deadline) and deadline > 0)
