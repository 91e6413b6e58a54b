"""Per-layer metrics of a traced run, computed from spans and counters.

Every workload reports every metric below; a layer the workload does
not exercise reads 0.  Timings are medians over operations (``*_ms``)
or totals over set-up (``*_s``); shares are summed layer time over
summed operation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from measure import median
from spans import Span, covered, self_times

PER_LAYER = [
    ("service.self_ms", "ms"),
    ("service.batch_wait_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("search.knn_ms", "ms"),
    ("search.range_ms", "ms"),
    ("search.subknn_ms", "ms"),
    ("search.self_ms", "ms"),
    ("search.refined_per_query", "count"),
    ("search.pruning_power", "ratio"),
    ("search.useful_ratio", "ratio"),
    ("histogram.bound_ms", "ms"),
    ("histogram.ns_per_candidate", "ns"),
    ("histogram.pruned_share", "ratio"),
    ("qgram.bound_ms", "ms"),
    ("qgram.ns_per_candidate", "ns"),
    ("qgram.pruned_share", "ratio"),
    ("kernels.refine_ms", "ms"),
    ("kernels.cells_per_s", "cells/s"),
    ("kernels.autotune_s", "s"),
    ("subtrajectory.window_dp_ms", "ms"),
    ("subtrajectory.windows_pruned_ratio", "ratio"),
    ("database.warm_s", "s"),
    ("ingest.wal_append_ms", "ms"),
    ("ingest.wal_bytes_per_op", "B"),
    ("ingest.view_ms", "ms"),
    ("ingest.pruner_build_ms", "ms"),
    ("storage.build_s", "s"),
    ("storage.pages_read_per_query", "count"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.bytes_touched_per_query", "B"),
    ("storage.blocks_opened_ratio", "ratio"),
    ("storage.fetch_ms", "ms"),
    ("storage.bytes_per_input_byte", "B/B"),
    ("share.service", "ratio"),
    ("share.search_self", "ratio"),
    ("share.kernels_refine", "ratio"),
    ("share.histogram_bound", "ratio"),
    ("share.qgram_bound", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

ENGINE_SPANS = {"search.knn": "knn", "search.range": "range", "search.subknn": "subknn"}


@dataclass
class Op:
    """One timed operation of a traced run, with the counters the
    program returned for it (``SearchStats`` fields)."""

    rid: int
    kind: str
    seconds: float
    stats: Dict[str, object] = field(default_factory=dict)
    answers: int = 0
    served: bool = False


def _union(spans: Sequence[Span]) -> float:
    if not spans:
        return 0.0
    lo = min(span.start for span in spans)
    hi = max(span.end for span in spans)
    return covered([(span.start, span.end) for span in spans], lo, hi)


def _family_share(stats: dict, family: str) -> int:
    return sum(
        int(count) for name, count in dict(stats.get("pruned_by", {})).items()
        if name.startswith(family)
    )


def layer_metrics(
    spans: Sequence[Span],
    ops: Sequence[Op],
    *,
    overhead_ratio: float,
    cache_hit_ratio: float = 0.0,
    wal_bytes_per_op: float = 0.0,
    bytes_per_input_byte: float = 0.0,
) -> Dict[str, dict]:
    own = self_times(spans)
    by_request: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.request is not None:
            by_request.setdefault(span.request, []).append(index)

    def named(rid: int, prefix: str) -> List[Span]:
        return [spans[i] for i in by_request.get(rid, ()) if spans[i].name.startswith(prefix)]

    def setup_total(name: str) -> float:
        return sum(s.duration for s in spans if s.request is None and s.name == name)

    values: Dict[str, float] = {}
    engine_ms: Dict[str, List[float]] = {kind: [] for kind in ENGINE_SPANS.values()}
    service_ms, wait_ms, self_ms = [], [], []
    per_op: Dict[str, List[float]] = {
        key: [] for key in (
            "histogram", "qgram", "kernels.refine", "subtrajectory.window_dp",
            "ingest.wal_append", "ingest.view", "ingest.pruner_build", "storage.fetch",
        )
    }
    totals = {key: 0.0 for key in ("op", "service", "self", "histogram", "qgram", "kernels.refine")}
    cells = refine_s = 0.0
    for op in ops:
        totals["op"] += op.seconds
        engine = [
            i for i in by_request.get(op.rid, ()) if spans[i].name in ENGINE_SPANS
        ]
        engine_s = sum(spans[i].duration for i in engine)
        search_self = sum(own[i] for i in engine)
        if engine:
            engine_ms[ENGINE_SPANS[spans[engine[0]].name]].append(engine_s * 1e3)
            self_ms.append(search_self * 1e3)
            totals["self"] += search_self
        if op.served:
            service_ms.append((op.seconds - engine_s) * 1e3)
            totals["service"] += op.seconds - engine_s
            submits = named(op.rid, "service.batch_submit")
            if submits and engine:
                wait_ms.append((spans[engine[0]].start - submits[0].start) * 1e3)
        for key in per_op:
            seconds = _union(named(op.rid, key))
            per_op[key].append(seconds * 1e3)
            if key in totals:
                totals[key] += seconds
        for span in named(op.rid, "kernels.refine"):
            cells += span.attrs.get("cells", 0.0)
            refine_s += span.duration

    for kind, samples in engine_ms.items():
        values[f"search.{kind}_ms"] = median(samples)
    values["service.self_ms"] = median(service_ms)
    values["service.batch_wait_ms"] = median(wait_ms)
    values["service.cache_hit_ratio"] = cache_hit_ratio
    values["search.self_ms"] = median(self_ms)

    searched = [op for op in ops if op.stats]
    size = sum(int(op.stats.get("database_size", 0)) for op in searched)
    refined = sum(int(op.stats.get("true_distance_computations", 0)) for op in searched)
    values["search.refined_per_query"] = refined / len(searched) if searched else 0.0
    values["search.pruning_power"] = (size - refined) / size if size else 0.0
    values["search.useful_ratio"] = (
        sum(op.answers for op in searched) / refined if refined else 0.0
    )
    for family in ("histogram", "qgram"):
        values[f"{family}.bound_ms"] = median(per_op[family])
        values[f"{family}.ns_per_candidate"] = totals[family] * 1e9 / size if size else 0.0
        values[f"{family}.pruned_share"] = (
            sum(_family_share(op.stats, family) for op in searched) / size if size else 0.0
        )
    values["kernels.refine_ms"] = median(per_op["kernels.refine"])
    values["kernels.cells_per_s"] = cells / refine_s if refine_s else 0.0
    values["kernels.autotune_s"] = setup_total("kernels.autotune")
    windowed = [op for op in searched if op.stats.get("windows_total")]
    values["subtrajectory.window_dp_ms"] = median(
        [ms for op, ms in zip(ops, per_op["subtrajectory.window_dp"]) if op.kind == "subknn"]
    )
    windows = sum(int(op.stats["windows_total"]) for op in windowed)
    values["subtrajectory.windows_pruned_ratio"] = (
        sum(int(op.stats["windows_pruned"]) for op in windowed) / windows if windows else 0.0
    )
    values["database.warm_s"] = setup_total("database.warm")
    values["ingest.wal_append_ms"] = median(per_op["ingest.wal_append"])
    values["ingest.wal_bytes_per_op"] = wal_bytes_per_op
    values["ingest.view_ms"] = median(per_op["ingest.view"])
    values["ingest.pruner_build_ms"] = median(per_op["ingest.pruner_build"])
    values["storage.build_s"] = setup_total("storage.build")
    hits = sum(int(op.stats.get("pool_hits", 0)) for op in searched)
    misses = sum(int(op.stats.get("pool_misses", 0)) for op in searched)
    count = len(searched) or 1
    values["storage.pages_read_per_query"] = (
        sum(int(op.stats.get("pages_read", 0)) for op in searched) / count
    )
    values["storage.pool_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    values["storage.bytes_touched_per_query"] = (
        sum(int(op.stats.get("bytes_touched", 0)) for op in searched) / count
    )
    blocks = sum(int(op.stats.get("blocks_total", 0)) for op in searched)
    values["storage.blocks_opened_ratio"] = (
        sum(int(op.stats.get("blocks_opened", 0)) for op in searched) / blocks if blocks else 0.0
    )
    values["storage.fetch_ms"] = median(per_op["storage.fetch"])
    values["storage.bytes_per_input_byte"] = bytes_per_input_byte
    op_total = totals["op"] or 1.0
    values["share.service"] = totals["service"] / op_total
    values["share.search_self"] = totals["self"] / op_total
    values["share.kernels_refine"] = totals["kernels.refine"] / op_total
    values["share.histogram_bound"] = totals["histogram"] / op_total
    values["share.qgram_bound"] = totals["qgram"] / op_total
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}


def stats_fields(stats) -> Dict[str, object]:
    """The counters of a ``SearchStats`` object as a plain dict."""
    keys = (
        "database_size", "true_distance_computations", "pruned_by",
        "windows_total", "windows_pruned", "pages_read", "pool_hits",
        "pool_misses", "bytes_touched", "blocks_total", "blocks_opened",
    )
    return {key: getattr(stats, key) for key in keys}


def overhead(untraced_s: Sequence[float], traced_s: Sequence[float]) -> float:
    base = median(untraced_s)
    return median(traced_s) / base if base else 0.0
