"""Replicated serving tier: a router over N resident engine replicas.

One resident engine behind a single-worker executor is the throughput
ceiling of the PR-3 service.  This module puts an asyncio router in
front of a small fleet of **replica processes**, each a fully warmed
engine (the parent warms the database artifacts once; replicas fork and
inherit them copy-on-write) running a sequential RPC loop over a
``multiprocessing`` pipe.

Routing and the fleet-wide cache
--------------------------------
Requests are routed by **consistent hashing on the full request
signature** (query digest plus every answer-shaping parameter).  Each
replica keeps its own epoch-keyed LRU result cache, so hash affinity
makes the *union* of the per-replica caches behave as one fleet-wide
cache: a signature has exactly one home replica, no entry is duplicated
across the fleet (spillover aside), and aggregate capacity is
``replicas x cache_size``.  The router itself stores nothing — it keeps
only a single-flight map so concurrent duplicates of an in-flight
signature coalesce into one RPC fleet-wide.

Ring positions are keyed by replica *slot*, not process identity, so a
respawned or redeployed replica inherits its predecessor's partition of
the signature space and cache locality survives recovery.

Load and shedding
-----------------
Admission is per replica: each slot serves at most
``replica_queue_depth`` outstanding RPCs.  Above
``replica_spillover_depth`` the router abandons hash affinity and
spills to the least-loaded eligible replica; when every eligible
replica is saturated the request is shed with 503 + ``Retry-After``.

Rolling deploys and epoch fencing
---------------------------------
:meth:`ReplicaFleet.rolling_deploy` swaps replicas **one slot at a
time**: the replacement is spawned and warmed first, installed, and
only then is the old replica drained and retired — live capacity never
drops below N (briefly N+1).  Every response carries its replica's
``epoch``; clients echo the largest epoch they have seen as
``min_epoch`` and the router only routes them to replicas at least that
new, so one client never observes answers from mixed epochs even while
the fleet is half-swapped.  Replica caches die with their replicas, so
a deploy can never serve a stale pre-deploy answer.

Failure handling
----------------
The PR-5 fault harness extends across replicas: the router draws
directives from an attached :class:`~repro.core.faults.FaultPlan` at
the ``"replica:rpc"`` point (``shard`` addresses the replica slot) and
ships them with the RPC.  A crashed, hung, or corrupting replica is
detected by pipe EOF, RPC deadline, or checksum mismatch respectively;
the request retries on a sibling (bounded by ``replica_retries``) while
the damaged replica is killed and respawned in the background.  Every
recovery is counted in :meth:`ReplicaFleet.resilience`.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import os
import queue
import signal
import threading
import time
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import faults as faults_mod
from ..core.database import TrajectoryDatabase
from ..core.mp import process_context
from .cache import ResultCache, query_digest
from .config import ServiceConfig
from .metrics import MetricsRegistry, summarize_samples

__all__ = [
    "FLEET_COUNTER_BY_KIND",
    "FleetSpec",
    "ReplicaFleet",
    "FleetRejection",
    "ReplicaError",
    "ReplicaSpawnError",
]

#: Ring positions per replica slot.  Enough for an even signature split
#: at small N without making ring rebuilds measurable.
_VNODES = 64

#: Which :meth:`ReplicaFleet.resilience` counter each injected fault
#: class lands in when the router detects it (the replica-tier analogue
#: of :data:`repro.core.faults.COUNTER_BY_KIND`).
FLEET_COUNTER_BY_KIND = {
    "crash": "replica_crashes",
    "slow": "timeouts",
    "pipe_eof": "transport_errors",
    "attach_fail": "transport_errors",
    "corrupt": "checksum_failures",
}

_RESILIENCE_FIELDS = (
    "replica_crashes",
    "timeouts",
    "transport_errors",
    "checksum_failures",
    "retried_on_sibling",
    "respawns",
    "respawn_failures",
    "deploys",
    "deploy_failures",
)


class FleetRejection(Exception):
    """The fleet cannot admit this request right now (serve 503)."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class ReplicaError(Exception):
    """A replica answered with an engine-level error (serve 500/400)."""

    def __init__(self, exc_type: str, message: str) -> None:
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type
        self.message = message


class ReplicaSpawnError(RuntimeError):
    """A replica process failed to start or to report ready in time."""


class _ReplicaDown(Exception):
    """Transport-level RPC failure: the replica died or dropped its pipe."""

    def __init__(self, crashed: bool) -> None:
        super().__init__("replica down" if crashed else "replica transport error")
        self.crashed = crashed


@dataclass
class FleetSpec:
    """Everything a replica needs to build its engine (fork-inherited).

    The database object travels by fork inheritance, never by pickling —
    the fleet requires the ``fork`` start method, which is also what
    makes replica warm-up cheap: the parent's built artifacts arrive
    copy-on-write.
    """

    database: TrajectoryDatabase
    config: ServiceConfig
    epoch_token: str = "static:0"


@dataclass
class _PendingCall:
    loop: asyncio.AbstractEventLoop
    future: asyncio.Future
    info: dict = field(default_factory=dict)


def _signature_hash(signature: Tuple) -> int:
    digest = hashlib.sha1(repr(signature).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# Replica child process
# ----------------------------------------------------------------------
class _Replica:
    """The child side of one replica: the shared engine, a cache, metrics.

    The engine is the same :class:`~repro.service.handlers.QueryEngine`
    the single-process service runs, so served bytes are identical
    whichever tier answers.  The cache needs no epoch in its keys: it
    dies with the replica, and a new generation is a new replica.
    """

    def __init__(self, spec: FleetSpec, slot: int, epoch: int) -> None:
        # Imported here: handlers imports this module at load time.
        from .handlers import QueryEngine

        self.spec = spec
        self.slot = slot
        self.epoch = epoch
        config = spec.config
        self.cache = ResultCache(config.cache_size)
        # Engine-side metrics, shipped to the router over the "stats"
        # RPC and merged there into the single-process /stats shape.
        self.metrics = MetricsRegistry(config.latency_window)
        self.engine = QueryEngine(spec.database, config, self.metrics)
        if config.shards > 1:
            self.engine.attach_shards()

    def execute(self, op: str, payload: dict) -> Tuple[dict, bool]:
        """Run one RPC; returns ``(result, served_from_cache)``."""
        if op == "ping":
            return {"pid": os.getpid(), "epoch": self.epoch}, False
        if op == "stats":
            return self.stats_snapshot(), False
        if op == "distance":
            return self.engine.execute(op, [payload])[0], False
        key = (op,) + tuple(
            (name, query_digest(value) if name == "points" else value)
            for name, value in sorted(payload.items())
        )
        cached = self.cache.get(key)
        if cached is not None:
            return cached, True
        (result,) = self.engine.execute(op, [payload])
        self.cache.put(key, result)
        return result, False

    def stats_snapshot(self) -> dict:
        snapshot = self.metrics.snapshot()
        search = snapshot["search"]
        del search["pruning_power"]  # the router derives it fleet-wide
        return {
            "pid": os.getpid(),
            "epoch": self.epoch,
            "slot": self.slot,
            "epoch_token": self.spec.epoch_token,
            "rpcs": sum(snapshot["responses"].values()),
            "cache": self.cache.snapshot(),
            "search": search,
            "latency": self.metrics.latency_samples(),
        }


def _replica_main(conn, spec: FleetSpec, slot: int, epoch: int) -> None:
    """Child entry point: build the engine, then serve RPCs until EOF.

    The loop is strictly sequential — the router's queue-depth counter
    is therefore exactly the replica's backlog.  Fault directives ride
    on each RPC: ``apply`` runs pre-compute (crash/slow/pipe_eof fire
    here), ``wrap_result`` checksums the true result and applies any
    ``corrupt`` directive after, exactly like a sharded worker.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    replica = _Replica(spec, slot, epoch)
    try:
        conn.send(("ready", os.getpid()))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "shutdown":
                break
            _, seq, op, payload, directives = message
            started = time.perf_counter()
            status = 200
            try:
                faults_mod.apply(directives, inline=False)
                result, cached = replica.execute(op, payload)
                body, digest = faults_mod.wrap_result(result, directives)
                info = {
                    "cached": cached,
                    "elapsed_s": time.perf_counter() - started,
                }
                conn.send(("ok", seq, body, digest, info))
            except Exception as error:  # noqa: BLE001 - reported to router
                status = 500
                try:
                    conn.send(("err", seq, type(error).__name__, str(error)))
                except OSError:
                    break
            if op not in ("ping", "stats"):
                replica.metrics.record_response(
                    op, status, time.perf_counter() - started
                )
    finally:
        replica.engine.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Router-side replica handle
# ----------------------------------------------------------------------
class ReplicaHandle:
    """One replica process as seen by the router.

    A sender thread drains an outbound queue (so a full pipe can never
    block the event loop) and a receiver thread resolves pending
    futures via ``call_soon_threadsafe``.  The pending map is popped
    receiver-side, so queue depth stays accurate even when the event
    loop is busy.
    """

    def __init__(
        self,
        slot: int,
        epoch: int,
        epoch_token: str,
        process,
        conn,
        config: ServiceConfig,
    ) -> None:
        self.slot = slot
        self.epoch = epoch
        self.epoch_token = epoch_token
        self.process = process
        self.pid = process.pid
        self.conn = conn
        self.config = config
        self.state = "live"  # live -> retiring -> dead
        self.served = 0
        self._seq = itertools.count()
        self._pending: Dict[int, _PendingCall] = {}
        self._lock = threading.Lock()
        self._sendq: "queue.Queue" = queue.Queue()
        self._death_counted = False
        self._death_handled = False
        self._respawn_scheduled = False
        self._on_death = None  # fleet callback, set after construction
        self._sender = threading.Thread(
            target=self._send_loop,
            name=f"repro-replica-{slot}-send",
            daemon=True,
        )
        self._receiver = threading.Thread(
            target=self._recv_loop,
            name=f"repro-replica-{slot}-recv",
            daemon=True,
        )

    def start_io(self) -> None:
        self._sender.start()
        self._receiver.start()

    # -- properties ----------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.state != "dead" and self.process.is_alive()

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._pending) + self._sendq.qsize()

    # -- RPC -----------------------------------------------------------
    async def call(
        self,
        op: str,
        payload: dict,
        directives: Tuple = (),
        timeout: Optional[float] = None,
    ) -> Tuple[dict, str, dict]:
        """One RPC round trip; returns ``(payload, checksum, info)``.

        Raises :class:`_ReplicaDown` on transport failure,
        :class:`ReplicaError` when the replica reports an exception, and
        :class:`asyncio.TimeoutError` past the deadline.
        """
        if self.state == "dead":
            raise _ReplicaDown(crashed=False)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        seq = next(self._seq)
        with self._lock:
            self._pending[seq] = _PendingCall(loop, future)
        self._sendq.put(("rpc", seq, op, payload, tuple(directives)))
        if timeout is None:
            timeout = self.config.replica_rpc_timeout_s
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            with self._lock:
                self._pending.pop(seq, None)
            raise

    # -- worker threads ------------------------------------------------
    def _send_loop(self) -> None:
        while True:
            message = self._sendq.get()
            if message is None:
                return
            try:
                self.conn.send(message)
            except (OSError, ValueError, BrokenPipeError):
                self._mark_dead()
                return

    def _recv_loop(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                self._mark_dead()
                return
            kind = message[0]
            if kind == "ready":  # pragma: no cover - consumed at spawn
                continue
            seq = message[1]
            with self._lock:
                pending = self._pending.pop(seq, None)
            if pending is None:
                continue  # timed out and abandoned; drop the late answer
            self.served += 1
            if kind == "ok":
                _, _, body, digest, info = message
                result = (body, digest, info)
                self._resolve(pending, result, None)
            else:
                _, _, exc_type, text = message
                self._resolve(pending, None, ReplicaError(exc_type, text))

    @staticmethod
    def _resolve(pending: _PendingCall, result, error) -> None:
        def setter() -> None:
            if pending.future.done():
                return
            if error is not None:
                pending.future.set_exception(error)
            else:
                pending.future.set_result(result)

        try:
            pending.loop.call_soon_threadsafe(setter)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _mark_dead(self) -> None:
        with self._lock:
            first = not self._death_handled
            self._death_handled = True
            self.state = "dead"
            pending, self._pending = dict(self._pending), {}
        for call in pending.values():
            self._resolve(call, None, _ReplicaDown(crashed=True))
        callback = self._on_death
        if first and callback is not None:
            callback(self)

    # -- lifecycle -----------------------------------------------------
    def drain_sync(self, timeout: float) -> bool:
        """Block (off-loop) until the backlog empties or the deadline."""
        deadline = time.monotonic() + timeout
        while self.depth > 0 and time.monotonic() < deadline:
            if not self.process.is_alive():
                return False
            time.sleep(0.01)
        return self.depth == 0

    def kill(self) -> None:
        # A deliberate kill: the caller already attributed this death
        # (timeout, transport error), so the EOF that follows must not
        # double-count it as a crash.
        self._death_counted = True
        self.state = "dead"
        try:
            self.process.kill()
        except (OSError, AttributeError):  # pragma: no cover
            pass
        self._sendq.put(None)
        # The receiver thread sees EOF and fails any still-pending calls.

    def close(self, timeout: float = 2.0) -> None:
        """Graceful stop: shutdown message, bounded join, then SIGKILL."""
        if self.state != "dead":
            self.state = "dead"
            # Through the sender queue, never directly: Connection.send
            # is not safe against a concurrent in-flight RPC send.
            self._sendq.put(("shutdown",))
        self._sendq.put(None)
        self.process.join(timeout)
        if self.process.is_alive():
            try:
                self.process.kill()
            except OSError:  # pragma: no cover
                pass
            self.process.join(1.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def snapshot(self) -> dict:
        return {
            "slot": self.slot,
            "pid": self.pid,
            "epoch": self.epoch,
            "state": self.state,
            "alive": self.alive,
            "depth": self.depth,
            "served": self.served,
        }


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------
class ReplicaFleet:
    """N replica processes, a hash ring, and the recovery machinery.

    Threading model: ``submit``/``stats_async``/``drain`` run on the
    event loop; ``start``/``rolling_deploy``/``close`` are blocking and
    must run off it (the service calls them from its dispatch executor,
    which also serializes deploys).  Membership (``_slots``) is guarded
    by one lock; the single-flight map is loop-only state.
    """

    def __init__(self, spec: FleetSpec) -> None:
        self.config = spec.config.validated()
        self._spec = spec
        self.replicas = self.config.replicas
        self.epoch = 0
        self._slots: List[Optional[ReplicaHandle]] = [None] * self.replicas
        self._membership = threading.RLock()
        self._ring: List[Tuple[int, int]] = []  # (position, slot), sorted
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        self._counters: Counter = Counter()
        self._counter_lock = threading.Lock()
        self._spawner = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-fleet"
        )
        self._fault_plan = None  # chaos hook: FaultPlan at "replica:rpc"
        self._closing = False
        self.coalesced = 0
        self.spillovers = 0
        self.shed = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._build_ring()

    # -- construction --------------------------------------------------
    def _build_ring(self) -> None:
        ring = []
        for slot in range(self.replicas):
            for vnode in range(_VNODES):
                position = _signature_hash(("ring", slot, vnode))
                ring.append((position, slot))
        ring.sort()
        self._ring = ring

    def start(self) -> None:
        """Spawn the initial fleet (blocking; call before serving)."""
        context, method = process_context("fork")
        if method != "fork":
            raise ReplicaSpawnError(
                "the replicated serving tier requires the 'fork' start "
                f"method (got {method!r}); run with replicas=1"
            )
        self.epoch = 1
        for slot in range(self.replicas):
            self._slots[slot] = self._spawn(slot, self._spec, self.epoch)

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Tell the fleet which loop owns respawn scheduling."""
        self._loop = loop

    def _spawn(self, slot: int, spec: FleetSpec, epoch: int) -> ReplicaHandle:
        context, _ = process_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=True)
        # Daemonic children cannot have children of their own, which the
        # replica needs when it runs a sharded engine internally.
        process = context.Process(
            target=_replica_main,
            args=(child_conn, spec, slot, epoch),
            name=f"repro-replica-{slot}",
            daemon=spec.config.shards == 1,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(spec.config.replica_spawn_timeout_s):
            process.kill()
            process.join(1.0)
            raise ReplicaSpawnError(
                f"replica {slot} did not report ready within "
                f"{spec.config.replica_spawn_timeout_s}s"
            )
        ready = parent_conn.recv()
        if ready[0] != "ready":  # pragma: no cover - protocol violation
            process.kill()
            raise ReplicaSpawnError(f"replica {slot} sent {ready[0]!r}")
        handle = ReplicaHandle(
            slot, epoch, spec.epoch_token, process, parent_conn, spec.config
        )
        handle._on_death = self._note_death
        handle.start_io()
        return handle

    # -- accounting ----------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] += value

    def resilience(self) -> Dict[str, int]:
        with self._counter_lock:
            return {
                name: self._counters.get(name, 0)
                for name in _RESILIENCE_FIELDS
            }

    # -- routing -------------------------------------------------------
    def _eligible(self, min_epoch: int) -> List[ReplicaHandle]:
        with self._membership:
            return [
                handle
                for handle in self._slots
                if handle is not None
                and handle.state == "live"
                and handle.epoch >= min_epoch
            ]

    def _route(self, sig_hash: int, min_epoch: int) -> ReplicaHandle:
        eligible = self._eligible(min_epoch)
        if not eligible:
            self.shed += 1
            raise FleetRejection("no replica available")
        slots = {handle.slot for handle in eligible}
        preferred = None
        index = bisect_right(self._ring, (sig_hash, self.replicas))
        for offset in range(len(self._ring)):
            _, slot = self._ring[(index + offset) % len(self._ring)]
            if slot in slots:
                preferred = next(h for h in eligible if h.slot == slot)
                break
        assert preferred is not None
        if preferred.depth >= self.config.replica_spillover_depth:
            least = min(eligible, key=lambda h: h.depth)
            if least.depth < preferred.depth:
                preferred = least
                self.spillovers += 1
        if preferred.depth >= self.config.replica_queue_depth:
            self.shed += 1
            raise FleetRejection(
                f"all replicas saturated (depth >= "
                f"{self.config.replica_queue_depth})"
            )
        return preferred

    # -- the serving path ----------------------------------------------
    async def submit(
        self,
        op: str,
        signature: Tuple,
        payload: dict,
        min_epoch: int = 0,
    ) -> Tuple[dict, dict]:
        """Serve one request through the fleet: ``(result, meta)``.

        Coalesces concurrent duplicates of the same signature into one
        RPC (single-flight), routes by consistent hash with spillover,
        verifies the result checksum, and retries on siblings while
        respawning damaged replicas.
        """
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        min_epoch = min(min_epoch, self.epoch)
        key = (op, signature)
        inflight = self._inflight.get(key)
        if inflight is not None:
            result, meta = await asyncio.shield(inflight)
            if meta["epoch"] >= min_epoch:
                self.coalesced += 1
                return result, {**meta, "coalesced": True}
            # The in-flight answer is older than this client may see
            # (mid-deploy); fall through to a fresh computation.
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        try:
            result, meta = await self._submit_uncoalesced(
                op, signature, payload, min_epoch
            )
            if not future.done():
                future.set_result((result, meta))
            return result, meta
        except BaseException as error:
            if not future.done():
                future.set_exception(error)
                # Coalesced waiters consume the exception; if none
                # attached, silence the "never retrieved" warning.
                future.exception()
            raise
        finally:
            if self._inflight.get(key) is future:
                del self._inflight[key]

    async def _submit_uncoalesced(
        self, op: str, signature: Tuple, payload: dict, min_epoch: int
    ) -> Tuple[dict, dict]:
        sig_hash = _signature_hash(signature)
        attempts = 0
        last_slot: Optional[int] = None
        while True:
            attempts += 1
            handle = self._route(sig_hash, min_epoch)
            if last_slot is not None and handle.slot != last_slot:
                self._count("retried_on_sibling")
            directives: Tuple = ()
            if self._fault_plan is not None:
                directives = self._fault_plan.directives(
                    "replica:rpc", handle.slot
                )
            try:
                body, digest, info = await handle.call(
                    op, payload, directives
                )
                if faults_mod.checksum(body) != digest:
                    self._count("checksum_failures")
                    raise _Retry()
                meta = {
                    "replica": handle.slot,
                    "epoch": handle.epoch,
                    "cached": bool(info.get("cached")),
                    "attempts": attempts,
                    "coalesced": False,
                }
                return body, meta
            except asyncio.TimeoutError:
                self._count("timeouts")
                self._condemn(handle)
            except _ReplicaDown as down:
                if down.crashed:
                    self._note_crash(handle)
                else:
                    self._count("transport_errors")
                self._condemn(handle)
            except ReplicaError as error:
                # The replica is alive; only transport-looking failures
                # (the pipe_eof / attach_fail fault classes) are
                # retryable.  Engine errors are the request's problem.
                if error.exc_type in ("EOFError", "ShardAttachError"):
                    self._count("transport_errors")
                else:
                    raise
            except _Retry:
                pass
            if attempts > self.config.replica_retries:
                raise FleetRejection(
                    f"request failed after {attempts} attempt(s) "
                    "across replicas"
                )
            last_slot = handle.slot

    # -- failure handling ----------------------------------------------
    def _note_crash(self, handle: ReplicaHandle) -> None:
        if not handle._death_counted:
            handle._death_counted = True
            self._count("replica_crashes")

    def _note_death(self, handle: ReplicaHandle) -> None:
        """Receiver-thread callback: a replica's pipe went down.

        Any unexpected EOF from a live replica is a crash — checking
        ``process.exitcode`` here would race the OS reaping the child
        (it reads ``None`` until the waitpid lands).  Deliberate kills
        pre-set ``_death_counted`` so they are not double-attributed.
        """
        if self._closing or handle.state == "retiring":
            return
        self._note_crash(handle)
        self._schedule_respawn(handle)

    def _condemn(self, handle: ReplicaHandle) -> None:
        """Kill a damaged/hung replica and respawn its slot."""
        if handle.state == "retiring" or self._closing:
            return
        handle.kill()
        self._schedule_respawn(handle)

    def _schedule_respawn(self, handle: ReplicaHandle) -> None:
        loop = self._loop
        if loop is None or self._closing:
            return
        with self._membership:
            current = self._slots[handle.slot]
            if current is not handle or handle._respawn_scheduled:
                return
            handle._respawn_scheduled = True

        def spawn() -> None:
            try:
                replacement = self._spawn(
                    handle.slot, self._spec, self.epoch
                )
            except Exception:  # noqa: BLE001 - slot stays dead
                self._count("respawn_failures")
                return
            installed = False
            with self._membership:
                if self._slots[handle.slot] is handle and not self._closing:
                    self._slots[handle.slot] = replacement
                    installed = True
            if installed:
                self._count("respawns")
            else:
                replacement.close(timeout=1.0)

        def kickoff() -> None:
            if not self._closing:
                self._spawner.submit(spawn)

        try:
            loop.call_soon_threadsafe(kickoff)
        except RuntimeError:  # pragma: no cover - loop closed
            pass

    # -- rolling deploys -----------------------------------------------
    def rolling_deploy(self, spec: FleetSpec) -> int:
        """Swap every slot to ``spec`` one at a time (blocking, off-loop).

        For each slot the replacement spawns and reports ready *before*
        the old replica stops being routable, so live capacity never
        drops below N.  The old replica drains its backlog (bounded by
        ``drain_timeout_s``) and is then reaped.  Returns the new epoch.
        """
        new_epoch = self.epoch + 1
        try:
            for slot in range(self.replicas):
                replacement = self._spawn(slot, spec, new_epoch)
                with self._membership:
                    old = self._slots[slot]
                    self._slots[slot] = replacement
                if old is not None:
                    old.state = "retiring"
                    old.drain_sync(self.config.drain_timeout_s)
                    old.close()
        except Exception:
            self._count("deploy_failures")
            raise
        self._spec = spec
        self.epoch = new_epoch
        self._count("deploys")
        return new_epoch

    # -- introspection -------------------------------------------------
    def snapshot(self) -> dict:
        """Router-side view (sync; no RPCs — safe from any thread)."""
        with self._membership:
            handles = [h for h in self._slots if h is not None]
        return {
            "enabled": True,
            "count": self.replicas,
            "epoch": self.epoch,
            "epoch_token": self._spec.epoch_token,
            "alive": sum(1 for h in handles if h.alive),
            "router": {
                "coalesced": self.coalesced,
                "spillovers": self.spillovers,
                "shed": self.shed,
                "inflight_signatures": len(self._inflight),
            },
            "resilience": self.resilience(),
            "replicas": [h.snapshot() for h in handles],
        }

    async def stats_async(self) -> dict:
        """The merged fleet view: per-replica stats plus fleet totals."""
        with self._membership:
            handles = [h for h in self._slots if h is not None]
        per_replica: List[dict] = []
        for handle in handles:
            entry = handle.snapshot()
            if handle.state == "live":
                try:
                    body, digest, _ = await handle.call(
                        "stats", {}, timeout=5.0
                    )
                    if faults_mod.checksum(body) == digest:
                        entry.update(
                            rpcs=body["rpcs"],
                            cache=body["cache"],
                            search=body["search"],
                            latency={
                                op: summarize_samples(
                                    data["samples"], data["count"]
                                )
                                for op, data in body["latency"].items()
                            },
                            _raw_latency=body["latency"],
                        )
                except (asyncio.TimeoutError, _ReplicaDown, ReplicaError):
                    entry["unresponsive"] = True
            per_replica.append(entry)

        # Fleet totals: SearchStats counters sum; latency rings merge
        # sample-by-sample so fleet percentiles are over the union.
        search_totals = Counter()
        pruned_by = Counter()
        window_totals = Counter()
        cache_totals = Counter()
        samples_by_op: Dict[str, list] = {}
        counts_by_op: Counter = Counter()
        for entry in per_replica:
            search = entry.get("search")
            if search:
                for name in (
                    "queries",
                    "candidates",
                    "true_distance_computations",
                ):
                    search_totals[name] += search[name]
                pruned_by.update(search["pruned_by"])
                window_totals.update(search.get("windows", {}))
                search_totals["engine_seconds"] += search["engine_seconds"]
            cache = entry.get("cache")
            if cache:
                for name in ("size", "capacity", "hits", "misses", "evictions"):
                    cache_totals[name] += cache[name]
            raw = entry.pop("_raw_latency", None)
            if raw:
                for op, data in raw.items():
                    samples_by_op.setdefault(op, []).extend(data["samples"])
                    counts_by_op[op] += data["count"]
        avoided = (
            search_totals["candidates"]
            - search_totals["true_distance_computations"]
        )
        looked_up = cache_totals["hits"] + cache_totals["misses"]
        fleet = {
            "search": {
                "queries": search_totals["queries"],
                "candidates": search_totals["candidates"],
                "true_distance_computations": search_totals[
                    "true_distance_computations"
                ],
                "pruning_power": round(
                    avoided / search_totals["candidates"], 6
                )
                if search_totals["candidates"]
                else 0.0,
                "pruned_by": dict(pruned_by),
                "engine_seconds": round(search_totals["engine_seconds"], 6),
                "windows": {
                    name: window_totals[name]
                    for name in ("total", "evaluated", "pruned", "abandoned")
                },
            },
            "latency": {
                op: summarize_samples(samples, counts_by_op[op])
                for op, samples in samples_by_op.items()
            },
            "cache": {
                **{k: cache_totals[k] for k in
                   ("size", "capacity", "hits", "misses", "evictions")},
                "hit_rate": round(cache_totals["hits"] / looked_up, 6)
                if looked_up
                else 0.0,
            },
        }
        snapshot = self.snapshot()
        snapshot["fleet"] = fleet
        snapshot["per_replica"] = per_replica
        del snapshot["replicas"]
        return snapshot

    # -- drain / close -------------------------------------------------
    async def drain(self, timeout: float) -> bool:
        """Wait (on the loop) for every replica's backlog to empty."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._membership:
                handles = [h for h in self._slots if h is not None]
            if all(h.depth == 0 or not h.alive for h in handles):
                return True
            await asyncio.sleep(0.02)
        return False

    def close(self) -> None:
        """Reap the fleet (blocking): shutdown, join, kill stragglers."""
        self._closing = True
        self._spawner.shutdown(wait=True, cancel_futures=True)
        with self._membership:
            handles = [h for h in self._slots if h is not None]
            self._slots = [None] * self.replicas
        for handle in handles:
            handle.close()


class _Retry(Exception):
    """Internal: this attempt failed a verification, try a sibling."""
