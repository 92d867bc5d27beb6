"""The ``serve-mixed`` workload: an open loop against a fresh ``repro serve``.

One run:

1. Set-up samples: fresh ``python -m repro serve --port 0 --workers 2``
   processes, each timed from spawn to its first ``/v1/health`` 200.
2. An untimed prefill: one server computes the plan's "disk" points into
   a new cache directory in a single batch request, then drains.
3. The timed phase: a fresh server on that cache directory receives
   single-point ``/v1/transpile`` requests at a fixed rate from at most
   two client threads (an open loop: each request is due at its scheduled
   time whatever happened before, and its latency counts from then).
4. The check: every response record must equal
   :func:`repro.core.pipeline.run_point` of the same spec, recomputed in a
   separate fresh process after the timed phase.

The seed fixes the request plan (see :func:`make_plan`): 70 % repeats of
an already-served point (memory hit), 20 % points the prefill persisted
but nobody requested yet (disk read) and 10 % new points (pool compute
plus a cache append).
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from harness import (
    PAPER_WORKLOADS,
    ROOT,
    SMALL_DESIGN_POINTS,
    BenchError,
    Context,
    Outcome,
    median,
    percentile,
    record_mismatches,
)

#: Offered load of the timed phase.
RATE_PER_S = 50.0

#: Client threads, hence the most requests in flight (the host's 2 CPUs).
CLIENTS = 2

#: Server pool size.
WORKERS = 2

#: Set-up-only server starts per run (the prefill and timed servers add two
#: more set-up samples).
SETUP_PROBES = 2

TARGETS = [(topology, basis) for _, topology, basis in SMALL_DESIGN_POINTS]
SIZES = [4, 6, 8]

#: Request kinds of every block of ten requests, shuffled per block.
BLOCK = ["hit"] * 7 + ["disk"] * 2 + ["new"]


def make_plan(seed: int, count: int) -> List[Tuple[str, Dict]]:
    """``count`` seeded (kind, spec) requests.

    Each block of ten requests holds 7 hits, 2 disk reads and 1 new point.
    Disk and new points each cycle through every (workload, design point,
    size) combination in a seeded order, and a hit repeats the served point
    with the fewest repeats so far, so every plan asks for the same mix of
    circuits; the seed changes the order, the circuit instances and the
    transpiler seeds.
    """
    rng = random.Random(f"serve-mixed:{seed}")
    combos = [(w, t, s) for w in PAPER_WORKLOADS for t in TARGETS for s in SIZES]
    kinds: List[str] = []
    while len(kinds) < count:
        kinds += rng.sample(BLOCK, len(BLOCK))
    kinds = kinds[:count]
    # Nothing can be repeated before something was served.
    first = next(i for i, kind in enumerate(kinds) if kind != "hit")
    kinds[0], kinds[first] = kinds[first], kinds[0]
    queues: Dict[str, List] = {"disk": [], "new": []}
    used = set()
    repeats: Dict[str, int] = {}
    served: Dict[str, Dict] = {}
    plan = []
    for kind in kinds:
        if kind == "hit":
            fewest = min(repeats.values())
            key = rng.choice([k for k, n in repeats.items() if n == fewest])
            repeats[key] += 1
            plan.append((kind, served[key]))
            continue
        if not queues[kind]:
            queues[kind] = rng.sample(combos, len(combos))
        workload, (topology, basis), size = queues[kind].pop()
        point_seed = rng.randrange(2**31)
        while (workload, topology, size, point_seed) in used:
            point_seed = rng.randrange(2**31)
        used.add((workload, topology, size, point_seed))
        spec = {
            "workload": workload,
            "size": size,
            "topology": topology,
            "basis": basis,
            "scale": "small",
            "level": 1,
            "seed": point_seed,
        }
        served[spec_key(spec)] = spec
        repeats[spec_key(spec)] = 0
        plan.append((kind, spec))
    return plan


def spec_key(spec: Dict) -> str:
    """Canonical text of a point spec (dictionary key of the reference)."""
    return json.dumps(spec, sort_keys=True)


def http(port: int, method: str, path: str, body=None, timeout: float = 60.0):
    """One ``Connection: close`` HTTP/1.1 exchange; returns (status, JSON)."""
    payload = b"" if body is None else json.dumps(body).encode()
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode() + payload
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.sendall(request)
        chunks = []
        while True:
            data = conn.recv(65536)
            if not data:
                break
            chunks.append(data)
    head, _, content = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(content)


class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    START_TIMEOUT_S = 60.0

    def __init__(self, ctx: Context, cache_dir: str):
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", str(WORKERS), "--cache-dir", cache_dir,
            ],
            cwd=ROOT, env=ctx.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.stderr: List[str] = []
        self._drain: Optional[threading.Thread] = None
        try:
            self.port = self._await_banner()
            self.setup_s = self._await_health()
        except BaseException:
            self.stop()
            raise

    def _await_banner(self) -> int:
        deadline = self.spawned + self.START_TIMEOUT_S
        fd = self.proc.stderr.fileno()
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.05)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            data = os.read(fd, 65536)
            if not data:
                break
            seen += data
            text = seen.decode(errors="replace")
            if "listening on http://" in text:
                self.stderr.append(text)
                self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
                self._drain.start()
                address = text.split("listening on http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        raise BenchError("repro serve did not start: " + seen.decode(errors="replace")[-2000:])

    def _drain_stderr(self) -> None:
        fd = self.proc.stderr.fileno()
        while True:
            data = os.read(fd, 65536)
            if not data:
                return
            self.stderr.append(data.decode(errors="replace"))

    def _await_health(self) -> float:
        deadline = self.spawned + self.START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, _ = http(self.port, "GET", "/v1/health", timeout=5.0)
            except OSError:
                status = None
            if status == 200:
                return time.monotonic() - self.spawned
            time.sleep(0.002)
        raise BenchError("repro serve never answered /v1/health")

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server process (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM not reported for the server process")

    def stop(self) -> None:
        """Drain via SIGTERM, then make sure the whole process group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stray pool workers, if any
        except ProcessLookupError:
            pass
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.proc.stderr.close()


def open_loop(port: int, plan: List[Tuple[str, Dict]], rate: float) -> Tuple[float, List[Dict]]:
    """Send ``plan`` at ``rate`` from :data:`CLIENTS` threads.

    Returns the schedule's start time and one row per request.
    """
    rows: List[Optional[Dict]] = [None] * len(plan)
    lock = threading.Lock()
    cursor = [0]
    start = time.monotonic() + 0.05

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(plan):
                return
            due = start + index / rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            try:
                status, body = http(port, "POST", "/v1/transpile", plan[index][1])
            except (OSError, ValueError) as error:
                status, body = None, {"error": repr(error)}
            done = time.monotonic()
            rows[index] = {
                "status": status,
                "body": body,
                "latency_s": done - due,
                "lag_s": sent - due,
                "done": done,
            }

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, rows


def check_responses(
    plan: List[Tuple[str, Dict]], rows: List[Dict], expected: Dict[str, Dict]
) -> List[Tuple[int, str]]:
    """``(request index, problem)`` for every response that is not a 200
    carrying exactly the reference record of its spec."""
    problems = []
    for index, ((kind, spec), row) in enumerate(zip(plan, rows)):
        if row["status"] != 200:
            problems.append((index, f"{kind}: status {row['status']}: {row['body']}"))
            continue
        results = row["body"].get("results") or [{}]
        mismatches = record_mismatches(expected[spec_key(spec)], results[0])
        if mismatches:
            problems.append((index, f"{kind}: " + "; ".join(mismatches[:3])))
    return problems


def _observed_kind(cache: Optional[Dict]) -> str:
    if not cache:
        return "unknown"
    if cache.get("computed"):
        return "compute"
    if cache.get("disk_hits"):
        return "disk"
    if cache.get("hits"):
        return "hit"
    return "unknown"


def run_serve(ctx: Context, seed: int) -> Outcome:
    outcome = Outcome()
    count = max(1, round(RATE_PER_S * ctx.seconds))
    plan = make_plan(seed, count)
    cache_dir = str(ctx.work / "serve-cache")

    # Import / resolve split of the set-up, from plain program processes.
    probe_targets = [
        {"label": f"{t}-{b}", "topology": t, "basis": b, "scale": "small"} for t, b in TARGETS
    ]
    imports, resolves = [], []
    for _ in range(SETUP_PROBES):
        output, _ = ctx.run_child({"mode": "probe", "targets": probe_targets})
        imports.append(output["import_s"])
        resolves.append(output["resolve_s"])

    setups = []
    for _ in range(SETUP_PROBES):
        server = Server(ctx, cache_dir)
        setups.append(server.setup_s)
        server.stop()

    prefill = [spec for kind, spec in plan if kind == "disk"]
    server = Server(ctx, cache_dir)
    try:
        setups.append(server.setup_s)
        if prefill:
            status, body = http(server.port, "POST", "/v1/transpile", {"points": prefill}, 150.0)
            if status != 200:
                raise BenchError(f"prefill answered {status}: {body}")
    finally:
        server.stop()

    server = Server(ctx, cache_dir)
    try:
        setups.append(server.setup_s)
        start, rows = open_loop(server.port, plan, RATE_PER_S)
        status, metrics = http(server.port, "GET", "/v1/metrics")
        if status != 200:
            raise BenchError(f"/v1/metrics answered {status}")
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    # -- checks: every record against an independent run_point ----------------
    distinct = {spec_key(spec): spec for _, spec in plan}
    reference, _ = ctx.run_child({"mode": "records", "specs": list(distinct.values())})
    expected = dict(zip(distinct, reference["records"]))
    outcome.attempted = len(plan)
    for index, message in check_responses(plan, rows, expected):
        outcome.failed_ops += 1
        outcome.failures.append(f"request {index}: {message}")

    # -- metrics -----------------------------------------------------------------
    ok = [row for row in rows if row["status"] == 200]
    latency_ms = [1e3 * row["latency_s"] for row in rows]
    elapsed = max(row["done"] for row in rows) - start
    records = [row["body"]["results"][0] for row in ok]
    outcome.end_to_end = {
        "setup_s": median(setups),
        "points_per_s": len(ok) / elapsed,
        "latency_p50_ms": percentile(latency_ms, 0.50),
        # The highest percentile with at least ten requests beyond it (from
        # 1000 requests on).
        "latency_tail_ms": percentile(latency_ms, 0.99),
        "total_swaps": sum(r.get("total_swaps", 0) for r in records),
        "total_2q": sum(r.get("total_2q", 0) for r in records),
        "critical_2q": sum(r.get("critical_2q", 0) for r in records),
        "peak_rss_mb": peak_rss,
    }

    job_ms: Dict[str, List[float]] = {"hit": [], "disk": [], "compute": [], "unknown": []}
    overhead_ms, cache_totals = [], {"hits": 0, "disk_hits": 0, "computed": 0}
    unplanned = 0
    for (kind, _), row in zip(plan, rows):
        if row["status"] != 200:
            continue
        body = row["body"]
        observed = _observed_kind(body.get("cache"))
        job_ms[observed].append(1e3 * body["elapsed_seconds"])
        overhead_ms.append(1e3 * (row["latency_s"] - body["elapsed_seconds"]))
        for key in cache_totals:
            cache_totals[key] += int((body.get("cache") or {}).get(key, 0))
        unplanned += observed != {"hit": "hit", "disk": "disk", "new": "compute"}[kind]
    faults = metrics.get("faults") or {}
    served = sum(cache_totals.values())
    layers = {
        "import.repro_s": median(imports),
        "topology.target_resolve_s": median(resolves),
        "server.overhead_ms.p50": percentile(overhead_ms, 0.50),
        "server.overhead_ms.p99": percentile(overhead_ms, 0.99),
        "runtime.cache.memory_hits": cache_totals["hits"],
        "runtime.cache.disk_hits": cache_totals["disk_hits"],
        "runtime.cache.computed": cache_totals["computed"],
        "runtime.cache.hit_ratio": (
            (cache_totals["hits"] + cache_totals["disk_hits"]) / served if served else 0.0
        ),
        "runtime.runner.retries": faults.get("retries", 0),
        "runtime.runner.pool_rebuilds": faults.get("pool_rebuilds", 0),
        "runtime.runner.timeouts": faults.get("timeouts", 0),
        "bench.generator_lag_p99_ms": percentile([1e3 * row["lag_s"] for row in rows], 0.99),
    }
    for kind in ("hit", "disk", "compute"):
        layers[f"server.job_ms.{kind}.p50"] = percentile(job_ms[kind], 0.50)
        layers[f"server.job_ms.{kind}.p99"] = percentile(job_ms[kind], 0.99)
    outcome.per_layer = layers
    outcome.notes.append(
        f"{len(plan)} requests at {RATE_PER_S:g}/s: "
        + ", ".join(f"{kind} {len(values)}" for kind, values in job_ms.items())
        + f"; {len(prefill)} prefilled, {unplanned} served as another kind than"
        f" planned, {len(setups)} set-up samples"
    )
    return outcome
