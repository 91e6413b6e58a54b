"""In-memory span recorder that wraps the program's entry points from outside.

A span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the enclosing span on the same thread, ``request`` the id of
the operation the benchmark was running when the span opened (one
closed-loop client, so at most one operation is in flight).  Spans stay
in memory until the run ends.

``install(recorder, ...)`` replaces public functions and methods of the
program with wrappers that record a span around each call and returns
an ``undo`` callable that puts the originals back.  Nothing inside the
program is edited.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[int] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request, "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "Span":
        return cls(**row)


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = Span(
            name, time.perf_counter(),
            parent=stack[-1] if stack else None, request=self.request,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        return span

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(
        self,
        function: Callable,
        name: str,
        note: Optional[Callable[[Span, tuple, dict, object], None]] = None,
    ) -> Callable:
        """``function`` with a span around every call (async-aware).

        ``note(span, args, kwargs, result)`` may attach counters to the
        span after the call returns.
        """
        recorder = self
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                index = recorder.begin(name)
                try:
                    return await function(*args, **kwargs)
                finally:
                    recorder.end(index)

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = recorder.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                span = recorder.end(index)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total, reach = 0.0, lo
    for a, b in clipped:
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


# ----------------------------------------------------------------------
# The program's entry points, by layer
# ----------------------------------------------------------------------
def _patch(patches: list, owner, attr: str, replacement) -> None:
    """Set ``owner.attr`` (a module or class attribute), remembering the original."""
    patches.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, replacement)


def _kernel_cells(span: Span, args: tuple, kwargs: dict, result) -> None:
    # run_kernel(kernel, query, candidates, epsilon, ...)
    query, candidates = args[1], args[2]
    span.attrs["cells"] = float(len(query) * sum(len(c) for c in candidates))


BOUND_METHODS = (
    "bulk_quick_lower_bounds", "bulk_lower_bounds", "bulk_window_lower_bounds",
)


def install(recorder: Recorder, *, service: bool = False) -> Callable[[], None]:
    """Wrap every layer entry point; returns ``undo``.

    Imports are local so importing this module needs no ``repro``.
    """
    import repro.core.kernels as kernels
    import repro.core.rangequery as rangequery
    import repro.core.search as search
    import repro.core.subtrajectory as subtrajectory
    import repro.storage.tiered as tiered
    from repro.core.database import TrajectoryDatabase
    from repro.ingest.wal import DeltaLog
    from repro.storage.tiered import PagedTrajectoryList, TieredDatabase

    patches: list = []

    def traced_for_query(family: str, original: Callable) -> Callable:
        def for_query(self, query):
            index = recorder.begin(f"{family}.bound")
            try:
                query_pruner = original(self, query)
            finally:
                recorder.end(index)
            for method in BOUND_METHODS:
                bound = getattr(query_pruner, method, None)
                if bound is not None:
                    setattr(query_pruner, method, recorder.wrap(bound, f"{family}.bound"))
            return query_pruner

        return functools.wraps(original)(for_query)

    for family, cls in (
        ("histogram", search.HistogramPruner),
        ("qgram", search.QgramMergeJoinPruner),
    ):
        _patch(patches, cls, "for_query", traced_for_query(family, vars(cls)["for_query"]))

    for module in (kernels, search, rangequery):
        _patch(patches, module, "run_kernel",
               recorder.wrap(kernels.run_kernel, "kernels.refine", _kernel_cells))
    _patch(patches, subtrajectory, "edr_windows_many",
           recorder.wrap(subtrajectory.edr_windows_many, "subtrajectory.window_dp"))
    _patch(patches, kernels, "autotune_kernels",
           recorder.wrap(kernels.autotune_kernels, "kernels.autotune"))
    _patch(patches, TrajectoryDatabase, "warm",
           recorder.wrap(TrajectoryDatabase.warm, "database.warm"))
    _patch(patches, DeltaLog, "append", recorder.wrap(DeltaLog.append, "ingest.wal_append"))
    _patch(patches, PagedTrajectoryList, "fetch_many",
           recorder.wrap(PagedTrajectoryList.fetch_many, "storage.fetch"))
    # The out-of-core sorted engine computes histogram bounds per skip
    # block and per opened block instead of through bulk_* methods.
    for helper in ("_summary_block_bounds", "_sliced_quick_bounds"):
        _patch(patches, tiered, helper, recorder.wrap(getattr(tiered, helper), "histogram.bound"))
    _patch(patches, TieredDatabase, "knn_sorted_search",
           recorder.wrap(TieredDatabase.knn_sorted_search, "search.knn"))
    _patch(patches, search, "knn_search", recorder.wrap(search.knn_search, "search.knn"))

    if service:
        import repro.service.handlers as handlers
        from repro.service.batcher import MicroBatcher

        original_handle = handlers.TrajectoryService.handle

        async def handle(self, method, path, body):
            _, _, query = path.partition("?")
            fields = dict(p.split("=", 1) for p in query.split("&") if "=" in p)
            recorder.request = int(fields["rid"]) if "rid" in fields else None
            return await original_handle(self, method, path, body)

        _patch(patches, handlers.TrajectoryService, "handle", functools.wraps(original_handle)(handle))
        _patch(patches, MicroBatcher, "submit",
               recorder.wrap(MicroBatcher.submit, "service.batch_submit"))

        def knn_batch(*args, **kwargs):
            name = "search.subknn" if kwargs.get("sub") else "search.knn"
            with recorder.span(name):
                return original_batch(*args, **kwargs)

        original_batch = handlers.knn_batch
        _patch(patches, handlers, "knn_batch", functools.wraps(original_batch)(knn_batch))
        _patch(patches, handlers, "range_search",
               recorder.wrap(handlers.range_search, "search.range"))

    def undo() -> None:
        while patches:
            owner, attr, original = patches.pop()
            setattr(owner, attr, original)

    return undo
