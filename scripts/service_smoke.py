"""End-to-end smoke test of the trajectory query service.

Starts an in-process server on a small synthetic database and exercises
the full request surface over real HTTP: ``/healthz``, ``/knn`` (with a
served-vs-direct exactness check), ``/range``, ``/distance``, ``/stats``,
and the 503 + ``Retry-After`` overload path.  Exits non-zero on any
divergence, so CI and ``scripts/run_all.sh`` can gate on it.

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import argparse
import sys
import threading

import numpy as np

from smoke_utils import preflight_or_exit

from repro import Trajectory, TrajectoryDatabase, knn_search, range_search
from repro.core.batch import warm_pruners
from repro.service import (
    PortInUseError,
    ServerHandle,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.pruning import build_pruners


def _database(count: int = 120, seed: int = 2) -> TrajectoryDatabase:
    rng = np.random.default_rng(seed)
    trajectories = [
        Trajectory(
            np.cumsum(rng.normal(size=(int(rng.integers(12, 40)), 2)), axis=0)
        )
        for _ in range(count)
    ]
    return TrajectoryDatabase(trajectories, epsilon=1.0)


def _payload(neighbors) -> list:
    return [
        {"index": int(n.index), "distance": float(n.distance)}
        for n in neighbors
    ]


def smoke_round_trip(database: TrajectoryDatabase, port: int = 0) -> None:
    pruners = build_pruners(database, "histogram,qgram")
    warm_pruners(pruners, database.trajectories[0])
    config = ServiceConfig(port=port, max_batch=4)
    with ServerHandle.start(database, config) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            health = client.healthz()
            assert health["status"] == "ok", health

            for index in (0, 17, 63):
                query = database.trajectories[index]
                served = client.knn(query, k=5)["neighbors"]
                expected, _ = knn_search(database, query, 5, pruners)
                assert served == _payload(expected), (
                    f"/knn diverged from knn_search on query {index}"
                )

            query = database.trajectories[9]
            served = client.range_query(query, 10.0)["results"]
            expected, _ = range_search(database, query, 10.0, pruners)
            assert served == _payload(expected), "/range diverged"

            distance = client.distance(3, 41)
            assert distance["function"] == "edr", distance
            assert distance["distance"] >= 0.0, distance

            stats = client.stats()
            assert stats["requests"]["/knn"] >= 3, stats["requests"]
            assert stats["search"]["queries"] >= 4, stats["search"]
            print(
                "round-trip ok: "
                f"{stats['requests']} requests, pruning power "
                f"{stats['search']['pruning_power']:.3f}"
            )


def smoke_overload(database: TrajectoryDatabase) -> None:
    config = ServiceConfig(
        port=0, queue_limit=1, max_batch=1, cache_size=0, retry_after_s=1.0
    )
    with ServerHandle.start(database, config) as handle:
        rejections: list = []
        successes: list = []

        def fire(index: int) -> None:
            try:
                with ServiceClient(handle.host, handle.port) as client:
                    client.knn(index, k=3)
                    successes.append(index)
            except ServiceError as error:
                rejections.append(error)

        threads = [
            threading.Thread(target=fire, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert successes, "no request survived the overload flood"
        assert rejections, "queue_limit=1 flood produced no 503"
        for error in rejections:
            assert error.status == 503, error
            assert error.retry_after is not None, "503 without Retry-After"
        print(
            f"overload ok: {len(successes)} admitted, "
            f"{len(rejections)} rejected with 503 + Retry-After"
        )


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
    try:
        smoke_round_trip(database, port=args.port)
        smoke_overload(database)
    except PortInUseError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 2
    print("service smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
