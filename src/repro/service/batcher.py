"""Dispatch-when-idle batching of concurrent k-NN requests.

The point of serving from one resident database is amortization; the
batcher adds the per-request half of it without ever holding a request
back.  Requests with the same search parameters (one *group* per
parameter signature, the ``key``) share batches:

* **Dispatch when idle** — a submission that arrives while no batch is
  outstanding is dispatched at once, as a batch of one, on the dispatch
  executor.  There is no timer: an idle server never waits.
* **Batch what queued while busy** — submissions that arrive while a
  batch computes queue per key.  When the outstanding work finishes they
  go out as one :func:`repro.knn_batch` call per key, in arrival order,
  so the vectorized bulk-bound and batched-EDR kernels run once per
  batch.  A key whose queue reaches ``max_batch`` distinct queries goes
  out at once.  A closed-loop client population therefore
  self-organizes into full batches exactly when the engine is the
  bottleneck, and into batches of one when it is not.
* **Single flight** — a request whose query digest matches one already
  queued *or already computing* attaches to that future and is answered
  by the same computation.  Under skewed (hot-query) traffic this is the
  dominant saving; the LRU cache catches repeats after an answer lands,
  the batcher catches them while it is still being computed.  Attached
  duplicates count as ``coalesced`` in the batch meta and in
  ``/stats`` ``batcher``.

``max_batch=1`` disables batching and coalescing: every request
dispatches alone the moment it arrives.  That configuration is the
baseline the ``bench-serve`` harness measures against.

The batcher is event-loop-confined: every method except the executor-run
batch body must be called from the loop thread.  Waiters are handed
``asyncio.shield``-ed futures, so a per-request timeout cancels only the
waiter, never the shared computation.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = ["MicroBatcher"]

BatchRunner = Callable[[List[object]], Sequence[object]]


class _Group:
    """The distinct queries of one key, queued or computing as a batch."""

    __slots__ = ("runner", "order", "futures", "submitted")

    def __init__(self, runner: BatchRunner) -> None:
        self.runner = runner
        self.order: List[Tuple[Hashable, object]] = []  # (digest, payload)
        self.futures: Dict[Hashable, asyncio.Future] = {}
        self.submitted = 0


class MicroBatcher:
    def __init__(
        self,
        *,
        max_batch: int,
        executor: Executor,
        on_batch: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.max_batch = max_batch
        self._executor = executor
        self._on_batch = on_batch
        self._queued: Dict[Hashable, _Group] = {}
        # Single-flight map: (key, digest) -> the computing batch.  Left
        # empty when max_batch is 1, which never coalesces.
        self._computing: Dict[Tuple[Hashable, Hashable], _Group] = {}
        self._outstanding: Dict[asyncio.Future, _Group] = {}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        key: Hashable,
        digest: Hashable,
        payload: object,
        runner: BatchRunner,
    ) -> Tuple[object, dict]:
        """Serve one request; resolves to ``(result, batch_meta)``.

        ``key`` groups requests that may legally share one batch (same
        k, pruners, engine...); ``digest`` identifies the query content
        within the group — equal digests coalesce onto one computation.
        ``runner`` receives the list of distinct payloads (in arrival
        order) on the dispatch executor and must return one result per
        payload; all submissions for a key must pass an equivalent
        runner.
        """
        group = self._computing.get((key, digest))
        if group is None:
            group = self._queued.get(key)
            if group is None:
                group = self._queued[key] = _Group(runner)
        group.submitted += 1
        future = group.futures.get(digest)
        if future is None:
            future = asyncio.get_running_loop().create_future()
            group.futures[digest] = future
            group.order.append((digest, payload))
            if not self._outstanding or len(group.order) >= self.max_batch:
                self._dispatch(key)
        return await asyncio.shield(future)

    # ------------------------------------------------------------------
    # Dispatch and delivery
    # ------------------------------------------------------------------
    def _dispatch(self, key: Hashable) -> None:
        group = self._queued.pop(key)
        if self.max_batch > 1:
            for digest in group.futures:
                self._computing[key, digest] = group
        payloads = [payload for _, payload in group.order]
        loop = asyncio.get_running_loop()
        work = loop.run_in_executor(self._executor, group.runner, payloads)
        self._outstanding[work] = group
        work.add_done_callback(partial(self._deliver, key))

    def _dispatch_queued(self) -> None:
        for key in list(self._queued):
            self._dispatch(key)

    def _deliver(self, key: Hashable, work: asyncio.Future) -> None:
        group = self._outstanding.pop(work)
        for digest in group.futures:
            self._computing.pop((key, digest), None)
        unique = len(group.order)
        meta = {
            "batch_size": unique,
            "submitted": group.submitted,
            "coalesced": group.submitted - unique,
        }
        if self._on_batch is not None:
            self._on_batch(group.submitted, unique)
        try:
            results = work.result()
            if len(results) != unique:
                raise RuntimeError(
                    f"batch runner returned {len(results)} results "
                    f"for {unique} queries"
                )
        except BaseException as error:  # delivered, not swallowed
            for future in group.futures.values():
                if not future.done():
                    future.set_exception(error)
        else:
            for (digest, _), result in zip(group.order, results):
                future = group.futures[digest]
                if not future.done():
                    future.set_result((result, meta))
        if not self._outstanding:
            self._dispatch_queued()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Distinct queries queued behind the outstanding batches."""
        return sum(len(group.order) for group in self._queued.values())

    @property
    def outstanding(self) -> int:
        """Dispatched batches still computing."""
        return len(self._outstanding)

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Dispatch queued work and wait for every batch to finish.

        Returns True when everything completed within ``timeout``.
        """
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        self._dispatch_queued()
        while self._outstanding:
            remaining = None if deadline is None else deadline - loop.time()
            if remaining is not None and remaining <= 0.0:
                return False
            await asyncio.wait(list(self._outstanding), timeout=remaining)
        return True
