"""Seeded inputs for every workload: one route-clustered corpus family.

A corpus of ``count`` 2-D trajectories is ``count // MEMBERS`` routes,
each a random walk of 30-120 points reflected into a square whose area
grows with the route count (constant density), plus ``MEMBERS``
jittered copies of each route.  Reflection keeps the corpus bounding
box, and with it the size of the histogram grids, the same for every
seed.  Queries are fresh jittered
copies of a route (held out: never stored), or segments of one for
``/subknn``.

Route lengths are evenly spaced over 30-120 and shuffled by the seed,
and queries visit routes in a low-discrepancy order of length, so any
prefix of the query stream holds short, middle and long queries in
nearly fixed proportions.  Per-query cost grows with query length; this
keeps the per-run median steady across seeds without narrowing the
length range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro import Trajectory

EPSILON = 0.5
MEMBERS = 40
JITTER = 0.2
SPREAD = 2.5
MIN_LENGTH, MAX_LENGTH = 30, 120
SEGMENT = 24
MAP_SEED = 20050614


@dataclass
class Routes:
    """The route skeletons of one corpus, and the seeded query stream."""

    bases: List[np.ndarray]
    rng: np.random.Generator

    def member(self, route: int) -> Trajectory:
        base = self.bases[route]
        return Trajectory(base + self.rng.normal(scale=JITTER, size=base.shape))

    def balanced_order(self) -> List[int]:
        """Routes ordered so every prefix spans the length range evenly.

        The i-th entry has length rank ``floor(v_i * n)`` for the base-2
        van der Corput sequence ``v_i`` (first occurrence of each rank).
        """
        n = len(self.bases)
        by_length = sorted(range(n), key=lambda r: (len(self.bases[r]), r))
        ranks: List[int] = []
        seen = set()
        i = 0
        while len(ranks) < n:
            v, denominator, k = 0.0, 1.0, i
            while k:
                denominator *= 2.0
                v += (k & 1) / denominator
                k >>= 1
            rank = int(v * n)
            if rank not in seen:
                seen.add(rank)
                ranks.append(rank)
            i += 1
        return [by_length[rank] for rank in ranks]

    def queries(self) -> Iterator[Trajectory]:
        """Endless held-out queries, cycling the balanced route order."""
        order = self.balanced_order()
        while True:
            for route in order:
                yield self.member(route)

    def segment(self, route: int) -> Trajectory:
        """A held-out stretch of ``SEGMENT`` points along one route."""
        whole = self.member(route)
        start = int(self.rng.integers(0, len(whole) - SEGMENT + 1))
        return Trajectory(whole.points[start : start + SEGMENT])


def _reflect(points: np.ndarray, side: float) -> np.ndarray:
    """Fold a walk back into ``[0, side]`` on each axis, as a mirror would."""
    folded = np.mod(points, 2.0 * side)
    return np.where(folded > side, 2.0 * side - folded, folded)


def make_routes(count: int, seed: int) -> Routes:
    """The route map for a corpus of ``count``, and a ``seed`` stream.

    The map (route shapes and lengths) is fixed for each corpus size, as
    a city's road network is; ``seed`` draws everything that travels on
    it: members, arrival order, queries and request streams.
    """
    n_routes = max(1, count // MEMBERS)
    road = np.random.default_rng(MAP_SEED + n_routes)
    lengths = np.linspace(MIN_LENGTH, MAX_LENGTH, n_routes).round().astype(int)
    road.shuffle(lengths)
    side = SPREAD * np.sqrt(n_routes)
    bases = [
        _reflect(
            road.uniform(0.0, side, size=2)
            + np.cumsum(road.normal(size=(int(length), 2)), axis=0),
            side,
        )
        for length in lengths
    ]
    return Routes(bases, np.random.default_rng(seed))


def _sizes(routes: Routes, count: int) -> List[int]:
    n_routes = len(routes.bases)
    return [count // n_routes + (1 if r < count % n_routes else 0) for r in range(n_routes)]


def members(routes: Routes, count: int) -> Iterator[Trajectory]:
    """``count`` route members grouped by route, as a fleet uploads
    per-route batches (the store build consumes this stream)."""
    for route, size in enumerate(_sizes(routes, count)):
        for _ in range(size):
            yield routes.member(route)


def make_corpus(routes: Routes, count: int) -> List[Trajectory]:
    """``count`` route members in arrival order: rounds in which every
    route reports one member, in a fresh shuffled route order each round.
    """
    by_route = [
        [routes.member(route) for _ in range(size)]
        for route, size in enumerate(_sizes(routes, count))
    ]
    corpus = []
    for round_ in range(max(len(group) for group in by_route)):
        for route in routes.rng.permutation(len(by_route)):
            if round_ < len(by_route[route]):
                corpus.append(by_route[route][round_])
    return corpus
