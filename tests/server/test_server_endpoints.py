"""Endpoint round-trips against a live server on an ephemeral port."""

from __future__ import annotations

import pytest

from repro.core.pipeline import run_point
from repro.server import ServeClient, ServeError, ServerBindError, ServerHandle
from repro.transpiler.target import Target

pytestmark = pytest.mark.fast


def test_health_shape(client):
    payload = client.health()
    assert payload["status"] == "ok"
    assert payload["uptime_seconds"] >= 0
    assert payload["queue_depth"] == 0
    assert payload["queue_capacity"] >= 1
    assert payload["parallel"] is False
    assert payload["auth"] is False


def test_transpile_single_matches_direct_run_point(client):
    response = client.transpile({"workload": "GHZ", "size": 6})
    assert response["count"] == 1
    target = Target.from_names(
        "Corral1,1", "siswap", scale="small", name="Corral1,1-siswap"
    )
    expected = run_point("GHZ", 6, target).as_dict()
    assert response["results"][0] == expected


def test_transpile_batch_preserves_request_order(client):
    points = [
        {"workload": "GHZ", "size": 8},
        {"workload": "GHZ", "size": 4},
        {"workload": "GHZ", "size": 6},
    ]
    response = client.transpile(points)
    assert response["count"] == 3
    assert [r["circuit_qubits"] for r in response["results"]] == [8, 4, 6]
    assert response["cache"]["computed"] == 3


def test_transpile_mixed_batch_matches_run_point_in_request_order(client):
    points = [
        {"workload": "QuantumVolume", "size": 6, "seed": 3, "level": 3},
        {"workload": "GHZ", "size": 5, "topology": "Hypercube", "basis": "cx", "level": 0},
        {"workload": "QFT", "size": 4, "seed": 7, "level": 2, "topology": "Square-Lattice"},
        {"workload": "QuantumVolume", "size": 6, "seed": 4},
    ]
    response = client.transpile(points)
    expected = []
    for point in points:
        topology = point.get("topology", "Corral1,1")
        basis = point.get("basis", "siswap")
        target = Target.from_names(topology, basis, scale="small", name=f"{topology}-{basis}")
        metrics = run_point(
            point["workload"],
            point["size"],
            target,
            seed=point.get("seed", 0),
            optimization_level=point.get("level", 1),
        )
        expected.append(metrics.as_dict())
    assert response["results"] == expected


def test_transpile_warm_repeat_hits_memory(client):
    point = {"workload": "GHZ", "size": 5}
    cold = client.transpile(point)
    assert cold["cache"]["computed"] == 1
    warm = client.transpile(point)
    assert warm["cache"]["computed"] == 0
    assert warm["cache"]["hits"] == 1
    assert warm["results"] == cold["results"]


def test_metrics_counters_accumulate(client):
    client.transpile({"workload": "GHZ", "size": 4})
    client.health()
    metrics = client.metrics()
    assert metrics["requests"]["/v1/transpile"] == 1
    assert metrics["requests"]["/v1/health"] >= 1
    assert metrics["responses"]["200"] >= 2
    assert metrics["jobs"] == {"completed": 1, "failed": 0, "expired": 0}
    assert metrics["points_completed"] == 1
    cache = metrics["cache"]
    assert cache["computed"] == cache["misses"] - cache["disk_hits"]
    assert metrics["cache_dir"] is not None


def test_unknown_path_is_404(client):
    with pytest.raises(ServeError) as excinfo:
        client.request("GET", "/v1/nope")
    assert excinfo.value.status == 404


def test_wrong_method_is_405(client):
    with pytest.raises(ServeError) as excinfo:
        client.request("POST", "/v1/health")
    assert excinfo.value.status == 405
    with pytest.raises(ServeError) as excinfo:
        client.request("GET", "/v1/transpile")
    assert excinfo.value.status == 405


@pytest.mark.parametrize(
    "payload",
    [
        {"workload": "NotAWorkload", "size": 4},
        {"workload": "GHZ"},
        {"workload": "GHZ", "size": 4, "level": 99},
        {"workload": "GHZ", "size": 4, "routing": "not-a-pass"},
        {"workload": "GHZ", "size": 4, "bogus": 1},
        {"workload": "GHZ", "size": 4, "topology": "NotATopology"},
        # Refused by the CLI too: a width the builder rejects, a width
        # wider than the device, a seed NumPy rejects.
        {"workload": "Adder", "size": 2},
        {"workload": "GHZ", "size": 50},
        {"workload": "GHZ", "size": 4, "seed": -1},
    ],
)
def test_invalid_point_is_400(client, payload):
    with pytest.raises(ServeError) as excinfo:
        client.transpile(payload)
    assert excinfo.value.status == 400
    assert "error" in excinfo.value.payload


def test_malformed_json_is_400(live_server):
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", live_server.port, timeout=10)
    connection.request(
        "POST",
        "/v1/transpile",
        body=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    assert response.status == 400
    response.close()


def test_client_wait_until_ready_times_out_on_dead_port():
    client = ServeClient(port=1, timeout=0.2)
    assert client.wait_until_ready(timeout=0.3, interval=0.05) is False


def test_handle_start_reraises_a_bind_failure_at_once():
    import socket
    import time

    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        handle = ServerHandle(port=holder.getsockname()[1], parallel=False, no_cache=True)
        began = time.monotonic()
        with pytest.raises(ServerBindError):
            handle.start(timeout=30)
    assert time.monotonic() - began < 5.0
