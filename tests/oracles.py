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
:func:`eager_subknn` does the same for the best-window search: the
frozen-round loop with the free-start filter, priced by
:func:`free_start_edr` (a plain min-over-start DP) and per-start prefix
rows, so the window counters are pinned as well as the decisions.

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
    FREE_START_STAGE,
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
    "eager_subknn",
    "free_start_edr",
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
    remaining candidate to that pruner (the sorted break of HSR).  An
    empty chain has no bound to sort by and walks in database order.
    Returns ``(answers, pruned_by, true_distance_computations)``.
    """
    query_pruners = [pruner.for_query(query) for pruner in pruners]
    order = list(range(len(database)))
    sort = sort and bool(query_pruners)  # no first pruner: index order
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


def _edr_last_row(query, points, epsilon, free_start):
    """The DP's last query row over candidate prefixes, in plain Python.

    Entry ``j`` is ``EDR(query, points[:j])``, or with ``free_start``
    (``D[j][0] = 0``: any candidate prefix is skipped for free)
    ``min over s <= j of EDR(query, points[s:j])``.
    """
    n = len(points)
    row = [0.0] * (n + 1) if free_start else [float(j) for j in range(n + 1)]
    for i, element in enumerate(query, start=1):
        current = [float(i)] + [0.0] * n
        for j in range(1, n + 1):
            matched = all(
                abs(float(a) - float(b)) <= epsilon
                for a, b in zip(element, points[j - 1])
            )
            current[j] = min(
                row[j - 1] + (0.0 if matched else 1.0),
                row[j] + 1.0,
                current[j - 1] + 1.0,
            )
        row = current
    return row


def free_start_edr(query, candidate, epsilon):
    """``min over every window w of candidate of EDR(query, w)``, the
    empty window (``len(query)``) included: the scalar reference of the
    bit-parallel kernel's free-start mode."""
    query_points = getattr(query, "points", query)
    points = getattr(candidate, "points", candidate)
    return min(_edr_last_row(query_points, points, epsilon, free_start=True))


def eager_subknn(
    database,
    query,
    k,
    pruners,
    alpha=DEFAULT_WINDOW_ALPHA,
    early_abandon=False,
    round_size=64,
    free_start=True,
):
    """The best-window search's frozen rounds, written out plainly.

    Candidates are visited in ascending order of the first pruner's
    scalar window bound, in rounds of ``round_size`` that freeze the
    k-th best window distance; within a round the sorted break and the
    other pruners' window bounds retire candidates, then (with
    ``free_start``) every candidate whose :func:`free_start_edr`
    exceeds the threshold.  At an infinite threshold the round first
    prices the candidates needed to fill the result, smallest free-start
    value first, and checks the rest against the threshold they set.
    Each start's row is abandoned when its prefix-row minimum exceeds
    the phase threshold (with ``early_abandon``).  ``free_start=False``
    is the loop without the filter stage.

    Returns ``(answers, pruned_by, true_distance_computations,
    (windows_evaluated, windows_pruned, windows_abandoned))`` with
    answers as ``(index, start, end, distance)`` tuples.
    """
    epsilon = database.epsilon
    m = len(query)
    lo, hi = resolve_window_range(m, alpha)
    total = len(database)
    query_pruners = [pruner.for_query(query) for pruner in pruners]
    window_bounds = [
        [query_pruner.window_lower_bound(index) for index in range(total)]
        for query_pruner in query_pruners
    ]
    order = list(range(total))
    if query_pruners:
        order.sort(key=window_bounds[0].__getitem__)
    points = [candidate.points for candidate in database.trajectories]
    lengths = [len(candidate_points) for candidate_points in points]
    windows = []
    for n in lengths:
        lo_e, hi_e = min(lo, n), min(hi, n)
        windows.append(
            1 if n == 0 else sum(
                min(hi_e, n - start) - lo_e + 1 for start in range(n - lo_e + 1)
            )
        )
    ranked, pruned_by, computed = [], {}, 0
    evaluated = pruned = abandoned = 0

    def kth():
        return ranked[k - 1][0] if len(ranked) >= k else math.inf

    def retire(name, index):
        nonlocal pruned
        pruned_by[name] = pruned_by.get(name, 0) + 1
        pruned += windows[index]

    def verify(index, bound):
        nonlocal computed, evaluated, abandoned
        computed += 1
        candidate_points = points[index]
        n = len(candidate_points)
        if n == 0:
            evaluated += 1
            offer((float(m), index, 0, 0))
            return
        lo_e, hi_e = min(lo, n), min(hi, n)
        best = None
        for start in range(n - lo_e + 1):
            span = min(hi_e, n - start)
            row = _edr_last_row(
                query.points, candidate_points[start : start + span], epsilon,
                free_start=False,
            )
            if bound is not None and min(row) > bound:
                abandoned += span - lo_e + 1
                continue
            evaluated += span - lo_e + 1
            for length in range(lo_e, span + 1):
                key = (row[length], start, start + length)
                if best is None or key < best:
                    best = key
        if best is not None:
            distance, start, end = best
            offer((distance, index, start, end))

    def offer(entry):
        nonlocal ranked
        ranked = sorted(ranked + [entry])[:k]

    position = 0
    while position < total:
        threshold = kth()
        chunk = []
        while position < total and len(chunk) < round_size:
            index = order[position]
            if threshold < math.inf and query_pruners:
                if window_bounds[0][index] > threshold:
                    for rest in order[position:]:
                        retire(query_pruners[0].name, rest)
                    position = total
                    break
                first = next(
                    (
                        query_pruner.name
                        for query_pruner, bounds in zip(
                            query_pruners[1:], window_bounds[1:]
                        )
                        if bounds[index] > threshold
                    ),
                    None,
                )
                if first is not None:
                    retire(first, index)
                    position += 1
                    continue
            chunk.append(index)
            position += 1
        if not free_start:
            for index in chunk:
                verify(index, threshold if early_abandon and threshold < math.inf else None)
            continue
        floors = {
            index: free_start_edr(query.points, points[index], epsilon)
            for index in chunk
        }
        queue = sorted(chunk, key=floors.__getitem__)  # stable: chunk order on ties
        if threshold == math.inf:
            head = k - len(ranked)
            for index in queue[:head]:
                verify(index, None)
            queue = queue[head:]
            threshold = kth()
        bound = threshold if early_abandon and threshold < math.inf else None
        for index in queue:
            if floors[index] > threshold:
                retire(FREE_START_STAGE, index)
            else:
                verify(index, bound)
    answers = [
        (index, start, end, distance) for distance, index, start, end in ranked
    ]
    return answers, pruned_by, computed, (evaluated, pruned, abandoned)


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
