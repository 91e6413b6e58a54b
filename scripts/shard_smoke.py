"""Shard smoke test: a 2-shard server must answer like a 1-shard one.

Starts the query service twice over the same synthetic database — once
unsharded, once with ``shards=2`` (the shared-memory intra-query
engine) — and asserts over real HTTP that every ``/knn``, ``/range``
and ``/subknn`` answer is byte-for-byte identical, and that the sharded
server's ``/stats`` reports the shard topology.  ``/subknn`` runs the
sharded best-window route in worker processes.  Exits non-zero on any divergence, so CI
and ``scripts/run_all.sh`` can gate on it.

    PYTHONPATH=src python scripts/shard_smoke.py
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from smoke_utils import preflight_or_exit

from repro import Trajectory, TrajectoryDatabase
from repro.service import (
    PortInUseError,
    ServerHandle,
    ServiceClient,
    ServiceConfig,
)


RADIUS = 12.0


def _database(count: int = 160, seed: int = 4) -> TrajectoryDatabase:
    rng = np.random.default_rng(seed)
    trajectories = [
        Trajectory(
            np.cumsum(rng.normal(size=(int(rng.integers(15, 50)), 2)), axis=0)
        )
        for _ in range(count)
    ]
    return TrajectoryDatabase(trajectories, epsilon=0.5)


def _serve_answers(database, shards: int, query_indices, k: int, port: int = 0):
    config = ServiceConfig(
        port=port, max_batch=1, cache_size=0, shards=shards
    )
    with ServerHandle.start(database, config) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            answers = {}
            for index in query_indices:
                query = database.trajectories[index]
                answers["/knn", index] = client.knn(query, k=k)["neighbors"]
                answers["/range", index] = client.range_query(
                    query, radius=RADIUS
                )["results"]
                answers["/subknn", index] = client.subknn(query, k=k)["matches"]
            stats = client.stats()
    return answers, stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="fixed service port (default 0: ephemeral, never conflicts)",
    )
    args = parser.parse_args()
    preflight_or_exit("127.0.0.1", args.port)
    database = _database()
    query_indices = (0, 33, 92, 141)
    try:
        unsharded, _ = _serve_answers(
            database, 1, query_indices, k=5, port=args.port
        )
        sharded, stats = _serve_answers(
            database, 2, query_indices, k=5, port=args.port
        )
    except PortInUseError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 2

    for (route, index), want in unsharded.items():
        if sharded[route, index] != want:
            print(
                f"FAIL: {route} diverged on query {index}: "
                f"{sharded[route, index]} != {want}"
            )
            return 1
    if not any(unsharded["/range", index] for index in query_indices):
        print(f"FAIL: /range radius {RADIUS} found no hits; the check is vacuous")
        return 1

    sharding = stats.get("sharding", {})
    if not sharding.get("enabled"):
        print(f"FAIL: sharded server /stats reports sharding {sharding}")
        return 1
    # /knn and /subknn run sharded; /range runs the serial engine.
    if sharding.get("shards") != 2 or sharding.get("queries") != 2 * len(
        query_indices
    ):
        print(f"FAIL: unexpected shard topology in /stats: {sharding}")
        return 1

    print(
        f"shard smoke ok: {len(query_indices)} queries x /knn, /range, "
        f"/subknn identical across 1 and 2 shards (start method "
        f"{sharding.get('start_method')!r}, per-shard stats for "
        f"{len(sharding.get('per_shard', []))} shard(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
