"""The served workloads: a ``repro serve`` process and one keep-alive client.

``serve-distinct`` sends only distinct queries, so neither the result
cache nor the micro-batcher ever helps; ``serve-hot`` loads 64 queries
into the cache before timing and then sends them Zipf-distributed, so
every timed request is a cache hit.
"""

from __future__ import annotations

import http.client
import itertools
import json
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

import measure
from corpus import EPSILON, make_corpus, make_routes
from layers import Op, layer_metrics, overhead
from spans import Span

SERVE_COUNT = 1200
HOT_QUERIES = 64
ZIPF_EXPONENT = 1.1
HOT_PICKS = 1 << 18
K = 10
RANGE_RADIUS_PER_POINT = 0.25
MIX = ("knn", "knn", "knn", "range", "knn", "knn", "knn", "subknn")
ROUTES = {"knn": "/knn", "range": "/range", "subknn": "/subknn"}
START_TIMEOUT_S = 120.0
HERE = Path(__file__).resolve().parent


@dataclass
class Request:
    kind: str
    query: np.ndarray
    body: bytes
    radius: float = 0.0


def _request(kind: str, points: np.ndarray) -> Request:
    payload: Dict[str, object] = {"query": points.tolist()}
    radius = 0.0
    if kind == "range":
        radius = float(round(RANGE_RADIUS_PER_POINT * len(points)))
        payload["radius"] = radius
    else:
        payload["k"] = K
    return Request(kind, points, json.dumps(payload).encode(), radius)


class Server:
    """One ``repro serve`` process over a saved corpus."""

    def __init__(self, run, corpus_path: Path, spans_path: Optional[Path]) -> None:
        self.log_path = run.work / f"server-{time.monotonic_ns()}.log"
        self.spans_path = spans_path
        command = [sys.executable, "-u", str(HERE / "server_main.py"), "--src", str(run.src)]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        command += [
            "--", "serve", str(corpus_path), "--epsilon", str(EPSILON),
            "--host", "127.0.0.1", "--port", "0",
        ]
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, cwd=run.root,
        )
        self.port = self._wait_for_port()
        self.toggles = 0

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("serving ") and " on http://" in line:
                    return int(line.rsplit(":", 1)[1].split()[0])
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server did not start: {self.log_path.read_text()[-2000:]}")

    @property
    def pid(self) -> int:
        return self.process.pid

    def toggle_tracing(self) -> None:
        self.toggles += 1
        ack = Path(str(self.spans_path) + ".ack")
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if ack.exists() and ack.read_text() == str(self.toggles):
                return
            time.sleep(0.002)
        raise RuntimeError("server did not acknowledge the tracing toggle")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()

    def spans(self) -> List[Span]:
        return [Span.from_dict(row) for row in json.loads(self.spans_path.read_text())]


class Client:
    """A keep-alive HTTP client; request ids ride in the query string."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.rid = 0

    def send(self, route: str, body: bytes) -> Tuple[int, bytes, float]:
        self.rid += 1
        start = time.perf_counter()
        self.connection.request(
            "POST", f"{route}?rid={self.rid}", body,
            {"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start

    def stats(self) -> dict:
        self.connection.request("GET", "/stats")
        response = self.connection.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


def _distinct_stream(routes) -> Iterator[Request]:
    queries = routes.queries()
    order = routes.balanced_order()
    for i in range(10**9):
        kind = MIX[i % len(MIX)]
        if kind == "subknn":
            yield _request(kind, routes.segment(order[(i // len(MIX)) % len(order)]).points)
        else:
            yield _request(kind, next(queries).points)


def _answers(kind: str, payload: dict) -> list:
    if kind == "subknn":
        return [(m["index"], m["start"], m["end"], m["distance"]) for m in payload["matches"]]
    key = "results" if kind == "range" else "neighbors"
    return [(n["index"], n["distance"]) for n in payload[key]]


def _direct_answers(corpus, samples: List[Request]) -> List[list]:
    """The same requests answered by direct library calls."""
    from repro import Trajectory, TrajectoryDatabase, knn_search, range_search, subknn_search
    from repro.service.pruning import build_pruners

    database = TrajectoryDatabase(corpus, EPSILON)
    pruners = build_pruners(database, "histogram,qgram")
    answers = []
    for request in samples:
        query = Trajectory(request.query)
        if request.kind == "knn":
            found, _ = knn_search(database, query, K, pruners)
            answers.append([(n.index, n.distance) for n in found])
        elif request.kind == "range":
            found, _ = range_search(database, query, request.radius, pruners)
            answers.append([(n.index, n.distance) for n in found])
        else:
            found, _ = subknn_search(database, query, K, pruners)
            answers.append([(m.index, m.start, m.end, m.distance) for m in found])
    return answers


def _without_meta(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "meta"}


def _check_direct(corpus, oracle) -> List[Tuple[str, int]]:
    """Served answers against direct library calls; one failure each."""
    direct = _direct_answers(corpus, [request for request, _ in oracle])
    return [
        (f"served {request.kind} answer differs from the library call", 1)
        for (request, payload), want in zip(oracle, direct)
        if _answers(request.kind, payload) != want
    ]


def _check_hot(records, payloads, hit_ratio, hot_set, first, corpus, rng):
    """Every timed answer must be a cache hit equal to the first answer."""
    failures = []
    if hit_ratio != 1.0:
        failures.append((f"cache hit ratio {hit_ratio} != 1.0", 0))
    by_body = {request.body: _without_meta(answer) for request, answer in zip(hot_set, first)}
    mismatched = sum(
        1 for row, payload in zip(records, payloads)
        if payload is not None and _without_meta(payload) != by_body[row[1].body]
    )
    if mismatched:
        failures.append((f"{mismatched} cached answers differ from the first answer", mismatched))
    sample = [int(i) for i in rng.choice(len(hot_set), 2, replace=False)]
    return failures + _check_direct(corpus, [(hot_set[i], first[i]) for i in sample])


def _check_distinct(records, payloads, hit_ratio, corpus, rng):
    """No answer may come from the cache or a coalesced batch, and one
    answer of each kind must equal the library's."""
    failures = []
    if hit_ratio != 0.0:
        failures.append((f"cache hit ratio {hit_ratio} != 0.0", 0))
    reused = sum(
        1 for payload in payloads
        if payload is not None and (payload["meta"]["cached"] or payload["meta"].get("coalesced"))
    )
    if reused:
        failures.append((f"{reused} answers were cached or coalesced", reused))
    oracle = []
    for kind in ROUTES:
        rows = [i for i, row in enumerate(records) if row[1].kind == kind and payloads[i]]
        if rows:
            pick = rows[int(rng.integers(len(rows)))]
            oracle.append((records[pick][1], payloads[pick]))
    return failures + _check_direct(corpus, oracle)


def _start(run, traced: bool):
    """One set-up: corpus generation, save, server start (warm + autotune)."""
    from repro.data.io import save_npz

    count = run.size(SERVE_COUNT)
    start = time.perf_counter()
    routes = make_routes(count, run.seed)
    corpus = make_corpus(routes, count)
    path = run.work / "corpus.npz"
    save_npz(path, corpus)
    server = Server(run, path, run.work / "spans.json" if traced else None)
    return time.perf_counter() - start, routes, corpus, server


def run_serve(run, hot: bool) -> dict:
    setups, setup_speed, run_speed = [], measure.HostSpeed(), measure.HostSpeed()
    for _ in range(measure.SETUP_REPEATS - 1):
        setup_speed.samples_of(measure.SETUP_SAMPLES)
        seconds, _, _, server = _start(run, traced=False)
        server.stop()
        setups.append(seconds)
    setup_speed.samples_of(measure.SETUP_SAMPLES)
    seconds, routes, corpus, server = _start(run, traced=run.trace)
    setups.append(seconds)
    client = None
    try:
        client = Client(server.port)
        if run.trace:
            server.toggle_tracing()  # off: the first half is untraced
        if hot:
            queries = routes.queries()
            hot_set = [_request("knn", next(queries).points) for _ in range(HOT_QUERIES)]
            first = []
            for request in hot_set:
                status, data, _ = client.send("/knn", request.body)
                if status != 200:
                    raise RuntimeError(f"cache fill failed with HTTP {status}: {data[:200]!r}")
                first.append(json.loads(data))
            ranks = np.arange(1, HOT_QUERIES + 1, dtype=np.float64) ** -ZIPF_EXPONENT
            picks = routes.rng.choice(HOT_QUERIES, size=HOT_PICKS, p=ranks / ranks.sum())
            stream = (hot_set[int(i)] for i in itertools.cycle(picks))
        else:
            stream = _distinct_stream(routes)
        stats0 = client.stats()
        cpu0 = measure.proc_cpu_seconds(server.pid)
        phases = []
        budget = run.seconds / 2.0 if run.trace else float(run.seconds)
        for phase in range(2 if run.trace else 1):
            if phase == 1:
                server.toggle_tracing()  # on
            records = []
            paused = 0.0
            began = time.perf_counter()
            deadline = began + budget
            for request in stream:
                status, data, elapsed = client.send(ROUTES[request.kind], request.body)
                records.append((client.rid, request, status, data, elapsed, time.perf_counter()))
                paused += run_speed.tick()  # between requests: the server is idle
                if time.perf_counter() >= deadline:
                    break
            phases.append((records, time.perf_counter() - began - paused))
        cpu_s = measure.proc_cpu_seconds(server.pid) - cpu0
        peak_rss = measure.proc_peak_rss_mb(server.pid)
        stats1 = client.stats()
        kernel_table = stats1["kernels"]["table"]
    finally:
        if client is not None:
            client.close()
        server.stop()

    records = [row for phase_records, _ in phases for row in phase_records]
    attempted = len(records)
    payloads = [json.loads(row[3]) if row[2] == 200 else None for row in records]
    hits = stats1["cache"]["hits"] - stats0["cache"]["hits"]
    misses = stats1["cache"]["misses"] - stats0["cache"]["misses"]
    hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    if hot:
        failures = _check_hot(records, payloads, hit_ratio, hot_set, first, corpus, routes.rng)
    else:
        failures = _check_distinct(records, payloads, hit_ratio, corpus, routes.rng)
    failed = sum(1 for row in records if row[2] != 200) + sum(count for _, count in failures)
    failures = [message for message, _ in failures]

    latencies = [row[4] for row in records if row[2] == 200]
    done = [row[5] for row in records if row[2] == 200]
    elapsed = sum(seconds for _, seconds in phases)
    result = {
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "provenance": {
            "corpus_size": len(corpus),
            "routes": len(routes.bases),
            "ops": attempted,
            "op_mix": {kind: sum(1 for row in records if row[1].kind == kind) for kind in ROUTES},
            "tail_percentile": measure.tail_label(len(latencies)),
            "setup_s_each": setups,
            "kernel_table": kernel_table,
            "cache_hit_ratio": hit_ratio,
            "hot_queries": HOT_QUERIES if hot else 0,
        },
    }
    if not run.trace:
        result["metrics"], result["provenance"]["raw"] = measure.end_to_end(
            latencies, done, elapsed, cpu_s, peak_rss, measure.median(setups), attempted,
            failed, run_speed, setup_speed,
        )
        return result
    untraced, traced = phases
    ops = [
        Op(rid, request.kind, seconds,
           stats={} if payload is None or payload["meta"].get("cached") else payload["stats"],
           answers=len(_answers(request.kind, payload)) if payload else 0, served=True)
        for (rid, request, status, _, seconds, _), payload
        in zip(traced[0], payloads[len(untraced[0]):])
    ]
    result["metrics"] = layer_metrics(
        server.spans(), ops,
        overhead_ratio=overhead([r[4] for r in untraced[0]], [r[4] for r in traced[0]]),
        cache_hit_ratio=hit_ratio,
    )
    return result
