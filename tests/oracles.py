"""Brute-force EDR oracles shared by every engine suite.

Each engine family (serial, sorted-scan, sharded, tiered, replicated
service, subtrajectory) is accepted on byte-equality against a naive
reference that shares **no code** with the engines: plain
:func:`repro.edr` per candidate, plain Python sorts for ranking.  The
per-suite inline scans that used to live in test_search.py,
test_sharding.py, test_tiered.py, and test_replicas.py are deduplicated
here so every suite states expectations in the same vocabulary.

The histogram matcher has its own reference:
:func:`dinic_max_cancellation` is a general Dinic max-flow over the HD
bipartite graph, against which the matcher's exact ``M`` is checked.

The pruned engines' *decisions* have one too: :func:`eager_knn` and
:func:`eager_range` are Figure 6 written out plainly.  Each visited
candidate asks every pruner's scalar ``lower_bound(i, threshold)`` in
chain order and credits the first that exceeds the threshold, so the
engines' bulk arrays, on-demand fills and skipped stages must reproduce
its answers, ``pruned_by`` and true-distance count exactly.

Canonical answer shapes
-----------------------
``answers``/``window_answers`` flatten engine results into comparable
tuples; ``payload_answers``/``payload_windows`` produce the JSON shapes
the HTTP service serves, so served bytes compare against the same
oracle.  Ordering contracts mirror the engines: k-NN ranks on
``(distance, index)``, range results arrive in index order, and each
trajectory's best window resolves ties on ``(distance, start, end)``.
"""

import math
from collections import deque
from itertools import product

from repro import Trajectory, edr
from repro.core.subtrajectory import (
    DEFAULT_WINDOW_ALPHA,
    resolve_window_range,
)

__all__ = [
    "answers",
    "payload_answers",
    "payload_windows",
    "window_answers",
    "brute_knn",
    "brute_range",
    "brute_subknn",
    "dinic_max_cancellation",
    "eager_knn",
    "eager_range",
]


# ----------------------------------------------------------------------
# Answer shapes
# ----------------------------------------------------------------------
def answers(neighbors):
    """Engine k-NN/range results as comparable ``(index, distance)`` tuples."""
    return [(n.index, n.distance) for n in neighbors]


def payload_answers(neighbors):
    """The JSON shape ``/knn`` and ``/range`` serve for ``neighbors``."""
    return [
        {"index": int(n.index), "distance": float(n.distance)}
        for n in neighbors
    ]


def window_answers(matches):
    """Subtrajectory results as ``(index, start, end, distance)`` tuples."""
    return [(m.index, m.start, m.end, m.distance) for m in matches]


def payload_windows(matches):
    """The JSON shape ``/subknn`` serves for ``matches``."""
    return [
        {
            "index": int(m.index),
            "start": int(m.start),
            "end": int(m.end),
            "distance": float(m.distance),
        }
        for m in matches
    ]


# ----------------------------------------------------------------------
# Brute-force references
# ----------------------------------------------------------------------
def brute_knn(database, query, k):
    """Naive k-NN: EDR against every trajectory, rank on (distance, index)."""
    ranked = sorted(
        (float(edr(query, candidate, database.epsilon)), index)
        for index, candidate in enumerate(database.trajectories)
    )
    return [(index, distance) for distance, index in ranked[:k]]


def brute_range(database, query, radius):
    """Naive range query: every trajectory within ``radius``, index order."""
    return [
        (index, distance)
        for index, candidate in enumerate(database.trajectories)
        for distance in (float(edr(query, candidate, database.epsilon)),)
        if distance <= radius
    ]


def _first_pruner(query_pruners, index, threshold):
    """The first pruner, in chain order, whose scalar bound exceeds
    ``threshold``, or None."""
    for query_pruner in query_pruners:
        if query_pruner.lower_bound(index, threshold) > threshold:
            return query_pruner
    return None


def _verify(database, query, index, query_pruners, bound):
    """Plain ``edr`` (abandoning past ``bound``), recorded when finite."""
    distance = float(
        edr(query, database.trajectories[index], database.epsilon, bound=bound)
    )
    if math.isfinite(distance):
        for query_pruner in query_pruners:
            query_pruner.record(index, distance)
    return distance


def eager_knn(database, query, k, pruners, early_abandon=False, sort=False):
    """Figure 6's k-NN loop with every pruner asked eagerly.

    Candidates are visited in database order or, with ``sort``, in
    ascending order of the first pruner's scalar quick bound, stopping at
    the first quick bound above the k-th distance and crediting every
    remaining candidate to that pruner (the sorted break of HSR).
    Returns ``(answers, pruned_by, true_distance_computations)``.
    """
    query_pruners = [pruner.for_query(query) for pruner in pruners]
    order = list(range(len(database)))
    if sort:
        quick = [query_pruners[0].quick_lower_bound(index) for index in order]
        order.sort(key=quick.__getitem__)
    ranked, pruned_by, computed = [], {}, 0
    for rank, index in enumerate(order):
        best = ranked[k - 1][0] if len(ranked) >= k else math.inf
        if best < math.inf:
            if sort and quick[index] > best:
                name = query_pruners[0].name
                pruned_by[name] = pruned_by.get(name, 0) + len(order) - rank
                break
            pruner = _first_pruner(query_pruners, index, best)
            if pruner is not None:
                pruned_by[pruner.name] = pruned_by.get(pruner.name, 0) + 1
                continue
        computed += 1
        bound = best if early_abandon and best < math.inf else None
        distance = _verify(database, query, index, query_pruners, bound)
        if math.isfinite(distance):
            ranked = sorted(ranked + [(distance, index)])[:k]
    return [(index, distance) for distance, index in ranked], pruned_by, computed


def eager_range(database, query, radius, pruners, early_abandon=False):
    """Figure 6's range loop with every pruner asked eagerly; returns
    ``(answers in index order, pruned_by, true_distance_computations)``."""
    query_pruners = [pruner.for_query(query) for pruner in pruners]
    found, pruned_by, computed = [], {}, 0
    for index in range(len(database)):
        pruner = _first_pruner(query_pruners, index, radius)
        if pruner is not None:
            pruned_by[pruner.name] = pruned_by.get(pruner.name, 0) + 1
            continue
        computed += 1
        bound = radius if early_abandon else None
        distance = _verify(database, query, index, query_pruners, bound)
        if distance <= radius:
            found.append((index, distance))
    return found, pruned_by, computed


def _brute_best_window(query, candidate, epsilon, lo, hi):
    """The minimum-EDR window of one candidate, ties on (distance, start, end).

    Mirrors the engine's banded enumeration contract: the global band
    ``[lo, hi]`` is clamped to the candidate length (a short trajectory
    contributes its single whole-trajectory window), and an empty
    candidate prices its one empty window at ``len(query)`` deletions.
    """
    points = candidate.points
    n = int(points.shape[0])
    if n == 0:
        return (float(len(query)), 0, 0)
    lo_e, hi_e = min(lo, n), min(hi, n)
    best = None
    for start in range(0, n - lo_e + 1):
        for end in range(start + lo_e, min(start + hi_e, n) + 1):
            distance = float(
                edr(query, Trajectory(points[start:end]), epsilon)
            )
            key = (distance, start, end)
            if best is None or key < best:
                best = key
    return best


def brute_subknn(
    database,
    query,
    k,
    alpha=DEFAULT_WINDOW_ALPHA,
    min_window=None,
    max_window=None,
):
    """Naive subtrajectory k-NN: full EDR per window, one best per trajectory.

    Returns ``(index, start, end, distance)`` tuples ranked on
    ``(distance, index)`` — the same canonical order
    :func:`repro.subknn_search` answers in.
    """
    lo, hi = resolve_window_range(len(query), alpha, min_window, max_window)
    ranked = []
    for index, candidate in enumerate(database.trajectories):
        distance, start, end = _brute_best_window(
            query, candidate, database.epsilon, lo, hi
        )
        ranked.append((distance, index, start, end))
    ranked.sort(key=lambda entry: entry[:2])
    return [
        (index, start, end, distance)
        for distance, index, start, end in ranked[:k]
    ]


def dinic_max_cancellation(first, second):
    """Maximum one-to-one pairing of two histograms' elements (HD's ``M``).

    A bipartite max-flow solved by Dinic's algorithm: source -> each bin
    of ``first`` (capacity = its count), each bin of ``second`` -> sink
    (capacity = its count), and an uncapped edge between every pair of
    bins in the same or adjacent grid cells (Definition 5).  Any
    dimension; histograms are ``{bin tuple: count}`` dicts.
    """
    if not first or not second:
        return 0
    source, sink = 0, 1
    left = {bin_index: slot + 2 for slot, bin_index in enumerate(first)}
    right = {
        bin_index: slot + 2 + len(left) for slot, bin_index in enumerate(second)
    }
    node_count = 2 + len(left) + len(right)
    graph = [[] for _ in range(node_count)]
    to = []
    cap = []

    def add_edge(u, v, capacity):
        graph[u].append(len(to))
        to.append(v)
        cap.append(capacity)
        graph[v].append(len(to))
        to.append(u)
        cap.append(0)

    infinite = sum(first.values()) + 1
    for bin_index, amount in first.items():
        add_edge(source, left[bin_index], amount)
    for bin_index, amount in second.items():
        add_edge(right[bin_index], sink, amount)
    for bin_index in first:
        for offset in product((-1, 0, 1), repeat=len(bin_index)):
            neighbor = tuple(b + o for b, o in zip(bin_index, offset))
            if neighbor in right:
                add_edge(left[bin_index], right[neighbor], infinite)

    flow = 0
    while True:
        level = [-1] * node_count
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for edge in graph[u]:
                if cap[edge] > 0 and level[to[edge]] < 0:
                    level[to[edge]] = level[u] + 1
                    queue.append(to[edge])
        if level[sink] < 0:
            return flow
        pointer = [0] * node_count

        def augment(u, pushed):
            if u == sink:
                return pushed
            while pointer[u] < len(graph[u]):
                edge = graph[u][pointer[u]]
                v = to[edge]
                if cap[edge] > 0 and level[v] == level[u] + 1:
                    found = augment(v, min(pushed, cap[edge]))
                    if found > 0:
                        cap[edge] -= found
                        cap[edge ^ 1] += found
                        return found
                pointer[u] += 1
            return 0

        while True:
            pushed = augment(source, infinite)
            if pushed == 0:
                break
            flow += pushed
