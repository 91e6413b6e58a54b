"""Generation store: immutable snapshots, atomic publish, compaction.

An *ingest root* is a directory with this layout::

    root/
      CURRENT            # {"generation": "gen-000003", "epoch": 3}
      wal.jsonl          # delta log since the current generation's fold
      gen-000000/        # one immutable generation per fold
        meta.json        # kind, count, uids, next_uid, last_seq, epoch
        data.npz         # kind "memory": the corpus archive
        store/           # kind "store": a tiered mmap store directory

Crash-consistency invariants (proved by the chaos suite):

1. **meta.json is written last inside its directory** (atomically, via
   tmp + rename), so ``meta.json`` present ⟺ the generation is
   complete.  A directory without it is an orphan of a crashed
   compaction and is deleted by :meth:`IngestRoot.recover`.
2. **CURRENT is the only publish point** and is swapped atomically, so
   readers resolve either the old or the new generation — never a torn
   one.  Old generation directories are retained, which is what lets a
   pinned reader keep serving its epoch through a swap.
3. **Replay is idempotent.**  Every generation records the ``last_seq``
   it folded; opening replays only WAL records beyond it, so the WAL
   trim racing a crash (before or after) changes nothing.
4. **The WAL tail may be torn** (crash mid-append); recovery truncates
   exactly the unacknowledged record (:mod:`repro.ingest.wal`).

Compaction crosses the ``compact:fold`` / ``compact:manifest`` /
``compact:publish`` fault points (:data:`repro.core.faults.SWAP_POINTS`)
in that order; a crash at any of them leaves the root in a state
:meth:`IngestRoot.recover` + :meth:`IngestRoot.open_mutable` restore to
a consistent corpus.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core import faults as _faults
from ..core.database import TrajectoryDatabase
from ..core.trajectory import Trajectory
from ..data.io import load_npz, save_npz
from .mutable import MutableDatabase
from .wal import DeltaLog

__all__ = ["IngestRoot", "Generation", "IngestError", "compact"]

CURRENT_FILE = "CURRENT"
WAL_FILE = "wal.jsonl"
GENERATION_PREFIX = "gen-"
GENERATION_KINDS = ("memory", "store")


class IngestError(RuntimeError):
    """The ingest root is missing, malformed, or irrecoverably corrupt."""


def _atomic_write_json(path: Path, payload: Dict[str, object]) -> None:
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _read_meta(directory: Path) -> Dict[str, object]:
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise IngestError(
            f"generation {directory} has no meta.json (incomplete compaction?)"
        )
    return json.loads(meta_path.read_text())


class Generation:
    """One immutable generation, opened read-only."""

    def __init__(
        self, directory: Path, *, pool_pages: int = 256
    ) -> None:
        self.directory = Path(directory)
        self.name = self.directory.name
        self.meta = _read_meta(self.directory)
        self.tiered = None
        if self.meta["kind"] == "store":
            from ..storage.tiered import TieredDatabase

            self.tiered = TieredDatabase.open(
                self.directory / "store", pool_pages=pool_pages
            )
            self.database = self.tiered.database
        else:
            trajectories = load_npz(self.directory / "data.npz")
            self.database = TrajectoryDatabase(
                trajectories, float(self.meta["epsilon"])
            )

    @property
    def uids(self) -> List[int]:
        return [int(u) for u in self.meta["uids"]]

    def close(self) -> None:
        if self.tiered is not None:
            self.tiered.close()
            self.tiered = None


class IngestRoot:
    """Handle on an ingest root directory (see module docstring)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        if not (self.root / CURRENT_FILE).exists():
            raise IngestError(
                f"{self.root} is not an ingest root (no {CURRENT_FILE}); "
                "create one with `repro-trajectory ingest ROOT --init DATA`"
            )

    # ------------------------------------------------------------------
    @classmethod
    def init(
        cls,
        root: Union[str, Path],
        trajectories: Sequence[Trajectory],
        epsilon: float,
        *,
        kind: str = "memory",
        **build_kwargs,
    ) -> "IngestRoot":
        """Create a fresh root with generation 0 over ``trajectories``."""
        root = Path(root)
        if (root / CURRENT_FILE).exists():
            raise IngestError(f"{root} is already an ingest root")
        root.mkdir(parents=True, exist_ok=True)
        name = f"{GENERATION_PREFIX}000000"
        _write_generation(
            root / name,
            list(trajectories),
            uids=list(range(len(trajectories))),
            epsilon=float(epsilon),
            kind=kind,
            next_uid=len(trajectories),
            last_seq=0,
            epoch=0,
            source=None,
            **build_kwargs,
        )
        (root / WAL_FILE).touch()
        _atomic_write_json(
            root / CURRENT_FILE, {"generation": name, "epoch": 0}
        )
        return cls(root)

    # ------------------------------------------------------------------
    @property
    def wal_path(self) -> Path:
        return self.root / WAL_FILE

    def current(self) -> Dict[str, object]:
        try:
            pointer = json.loads((self.root / CURRENT_FILE).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise IngestError(f"cannot read {CURRENT_FILE}: {error}") from None
        if "generation" not in pointer:
            raise IngestError(f"{CURRENT_FILE} names no generation")
        return pointer

    def state_token(self) -> Tuple[str, int, int]:
        """Cheap change detector for ``--follow`` polling: the published
        generation plus the WAL size."""
        pointer = self.current()
        try:
            wal_size = self.wal_path.stat().st_size
        except OSError:
            wal_size = 0
        return (str(pointer["generation"]), int(pointer.get("epoch", 0)), wal_size)

    def open_generation(
        self, name: Optional[str] = None, *, pool_pages: int = 256
    ) -> Generation:
        if name is None:
            name = str(self.current()["generation"])
        return Generation(self.root / name, pool_pages=pool_pages)

    # ------------------------------------------------------------------
    def recover(self, *, repair: bool = True) -> Dict[str, object]:
        """Restore the root's invariants after a crash.

        Truncates a torn WAL tail and removes orphan generation
        directories (no ``meta.json``) left by a crashed compaction.

        ``repair=False`` is the **reader role**: validate only, never
        write.  A live mutator's in-flight append looks exactly like a
        torn tail, and a compaction mid-build looks exactly like an
        orphan directory — a concurrent reader (the follow-mode
        service) repairing either would destroy the writer's work, so
        readers must leave both alone.  Repair belongs to the single
        mutator (CLI ``ingest`` / ``compact``), where a torn tail or
        orphan really is crash debris.
        """
        current = str(self.current()["generation"])
        if not repair:
            DeltaLog.read(self.wal_path)  # raises on mid-log corruption
            if not (self.root / current / "meta.json").exists():
                raise IngestError(
                    f"published generation {current} is incomplete"
                )
            return {"wal_truncated": False, "orphans_removed": []}
        _, truncated = DeltaLog.recover(self.wal_path)
        orphans: List[str] = []
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir() or not entry.name.startswith(GENERATION_PREFIX):
                continue
            if entry.name == current:
                if not (entry / "meta.json").exists():
                    raise IngestError(
                        f"published generation {entry.name} is incomplete"
                    )
                continue
            if not (entry / "meta.json").exists():
                shutil.rmtree(entry)
                orphans.append(entry.name)
        return {"wal_truncated": truncated, "orphans_removed": orphans}

    def open_mutable(
        self,
        *,
        pool_pages: int = 256,
        fault_plan: Optional[_faults.FaultPlan] = None,
        repair: bool = True,
    ) -> MutableDatabase:
        """Recover, open the current generation, replay the WAL, and
        attach the log for further mutations.

        ``repair=False`` opens in the reader role (see
        :meth:`recover`): the WAL is replayed up to any in-flight
        tail but never truncated, and no log is attached — the result
        serves queries, it does not accept mutations.
        """
        self.recover(repair=repair)
        generation = self.open_generation(pool_pages=pool_pages)
        base = generation.tiered if generation.tiered is not None else generation.database
        mutable = MutableDatabase(
            base,
            base_uids=generation.uids,
            next_uid=int(generation.meta["next_uid"]),
            generation=generation.name,
        )
        last_seq = int(generation.meta["last_seq"])
        mutable.applied_seq = last_seq
        records, _ = DeltaLog.read(self.wal_path)
        for record in records:
            mutable.apply_record(record)
        if repair:
            mutable.log = DeltaLog(
                self.wal_path, fault_plan=fault_plan, last_folded=last_seq
            )
        return mutable


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def compact(
    root: Union[IngestRoot, str, Path],
    *,
    kind: Optional[str] = None,
    fault_plan: Optional[_faults.FaultPlan] = None,
    pool_pages: int = 256,
    **build_kwargs,
) -> str:
    """Fold the WAL delta into a new immutable generation and publish it.

    ``kind`` defaults to the current generation's kind ("memory" or
    "store"); ``build_kwargs`` reach :func:`repro.storage.tiered.build_store`
    for the out-of-core path (``parts``, ``chunk_size``,
    ``summary_block``, ``max_triangle``, ...).  Returns the new
    generation's name.  The fault plan fires at ``compact:fold``,
    ``compact:manifest``, and ``compact:publish`` — a ``crash`` at any
    point leaves a recoverable root.
    """
    if not isinstance(root, IngestRoot):
        root = IngestRoot(root)

    def trip(point: str) -> None:
        if fault_plan is not None:
            _faults.apply(fault_plan.directives(point, 0), inline=True)

    root.recover()
    pointer = root.current()
    trip("compact:fold")
    mutable = root.open_mutable(pool_pages=pool_pages)
    try:
        old_name = str(pointer["generation"])
        generation_kind = (
            kind
            if kind is not None
            else str(_read_meta(root.root / old_name)["kind"])
        )
        if generation_kind not in GENERATION_KINDS:
            raise IngestError(f"unknown generation kind {generation_kind!r}")
        trajectories, uids = mutable.snapshot()
        last_seq = mutable.applied_seq
        next_uid = mutable.next_uid
        epsilon = mutable.epsilon
        epoch = int(pointer.get("epoch", 0)) + 1
    finally:
        mutable.close()

    index = int(old_name[len(GENERATION_PREFIX) :]) + 1
    while (root.root / f"{GENERATION_PREFIX}{index:06d}").exists():
        index += 1  # skip orphan numbers a crashed compaction burned
    name = f"{GENERATION_PREFIX}{index:06d}"
    _write_generation(
        root.root / name,
        trajectories,
        uids=uids,
        epsilon=epsilon,
        kind=generation_kind,
        next_uid=next_uid,
        last_seq=last_seq,
        epoch=epoch,
        source=old_name,
        fault_plan=fault_plan,
        **build_kwargs,
    )
    trip("compact:publish")
    _atomic_write_json(
        root.root / CURRENT_FILE, {"generation": name, "epoch": epoch}
    )
    # Trim folded records; a crash on either side of this is covered by
    # idempotent replay (records with seq <= last_seq are skipped).
    records, _ = DeltaLog.read(root.wal_path)
    DeltaLog.rewrite(
        root.wal_path, [r for r in records if int(r["seq"]) > last_seq]
    )
    return name


def _write_generation(
    directory: Path,
    trajectories: List[Trajectory],
    *,
    uids: List[int],
    epsilon: float,
    kind: str,
    next_uid: int,
    last_seq: int,
    epoch: int,
    source: Optional[str],
    fault_plan: Optional[_faults.FaultPlan] = None,
    **build_kwargs,
) -> None:
    if kind not in GENERATION_KINDS:
        raise IngestError(f"unknown generation kind {kind!r}")
    directory.mkdir(parents=True, exist_ok=False)
    if kind == "store":
        from ..storage.tiered import build_store

        build_store(
            trajectories, directory / "store", epsilon, **build_kwargs
        )
    else:
        save_npz(directory / "data.npz", trajectories)
    if fault_plan is not None:
        _faults.apply(fault_plan.directives("compact:manifest", 0), inline=True)
    # meta.json last: its presence is the completeness marker.
    _atomic_write_json(
        directory / "meta.json",
        {
            "kind": kind,
            "count": len(trajectories),
            "epsilon": float(epsilon),
            "uids": [int(u) for u in uids],
            "next_uid": int(next_uid),
            "last_seq": int(last_seq),
            "epoch": int(epoch),
            "source": source,
        },
    )
