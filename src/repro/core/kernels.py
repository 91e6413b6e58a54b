"""Refine-phase kernel selection: dispatch, autotuning, and reporting.

The refine phase has three interchangeable EDR kernels — every one
returns byte-for-byte the same distances and the same early-abandon
sentinel pattern, so engines may swap them freely without changing
answers or pruner counters:

``scalar``
    One kernel invocation per candidate.  In batch context this runs the
    batched kernel on singleton batches (a candidate's abandonment
    schedule is independent of its batch mates, so a singleton batch is
    bit-identical to the same candidate inside any larger batch); on the
    unbatched path it is plain :func:`~repro.core.edr.edr`.
``batched``
    :func:`~repro.core.edr_batch.edr_many`, the padded row-DP over a
    whole candidate batch: the legacy kernel, which the autotuner's
    ties still favour.
``bitparallel``
    :func:`~repro.core.edr_bitparallel.edr_many_bitparallel`, the
    Myers/Hyyrö bit-vector kernel (64 DP cells per machine word), and
    what ``edr_kernel=None`` runs.  Banded calls delegate to ``batched``
    internally, so the choice is moot under a Sakoe-Chiba band.

``auto`` resolves through a per-length-bucket autotune table: the
database races the kernels on small deterministic samples of its own
trajectories, one race per length bucket (buckets are the power-of-two
groups the refine phase already batches by), and caches the winner.
The table is stored on the database, serialized by ``save``/``load``,
and can be built eagerly at warm time.

Determinism: the trial schedule is fixed by a seed (sample membership
and order never depend on timing), ties break toward the legacy kernel,
and the ``REPRO_KERNEL_FORCE`` environment variable short-circuits every
choice — no wall clock is read at all on that path — so tests can pin a
kernel globally.  An injectable ``time_fn`` makes the autotuner itself
deterministic under test.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .edr_batch import edr_many
from .edr_bitparallel import edr_many_bitparallel

__all__ = [
    "FORCE_ENV",
    "DEFAULT_KERNEL",
    "KERNEL_CHOICES",
    "LEGACY_KERNEL",
    "TIMED_KERNELS",
    "KernelPlan",
    "KernelSelection",
    "autotune_kernels",
    "kernel_report",
    "length_bucket",
    "resolve_kernel_plan",
    "run_kernel",
]

#: Accepted values of every ``edr_kernel`` knob.
KERNEL_CHOICES = ("auto", "scalar", "batched", "bitparallel")

#: Kernels the autotuner races (everything but the meta-choice "auto").
TIMED_KERNELS = ("scalar", "batched", "bitparallel")

#: The kernel before kernel selection existed.  The autotuner breaks
#: ties toward it, and ``"auto"`` without a database resolves to it.
LEGACY_KERNEL = "batched"

#: What ``edr_kernel=None`` means.  It returns the legacy kernel's
#: distances and sentinels bit for bit, and the autotuner picks it for
#: every length bucket of the perfbench corpus.  The CLI and the
#: service default to "auto" instead.
DEFAULT_KERNEL = "bitparallel"

#: The autotuner drops a kernel from a bucket's race once its best time
#: exceeds this multiple of the leader's.
RACE_CUTOFF = 2.0

#: Environment override: set to a concrete kernel name to force it
#: everywhere, bypassing the autotuner (and any timing) entirely.
FORCE_ENV = "REPRO_KERNEL_FORCE"


def length_bucket(length: int) -> int:
    """The refine phase's length bucket key (power-of-two groups)."""
    return int(length).bit_length()


def _scalar_many(query, candidates, epsilon, bounds=None, band=None) -> np.ndarray:
    """Per-candidate dispatch with the batched kernel's exact semantics.

    Runs the batched row-DP on singleton batches so the early-abandon
    sentinel pattern matches ``edr_many`` bit for bit (scalar ``edr``
    swaps its DP orientation for short queries, which abandons at
    different rows — sound, but not counter-identical).
    """
    count = len(candidates)
    if bounds is None:
        bounds_list: List[Optional[float]] = [None] * count
    else:
        bounds_array = np.broadcast_to(
            np.asarray(bounds, dtype=np.float64).ravel(), (count,)
        )
        bounds_list = [float(value) for value in bounds_array]
    results = np.empty(count, dtype=np.float64)
    for position, candidate in enumerate(candidates):
        results[position] = edr_many(
            query, [candidate], epsilon, bounds=bounds_list[position], band=band
        )[0]
    return results


_KERNEL_FUNCTIONS: Dict[str, Callable] = {
    "scalar": _scalar_many,
    "batched": edr_many,
    "bitparallel": edr_many_bitparallel,
}


def run_kernel(
    kernel: str, query, candidates, epsilon, bounds=None, band=None
) -> np.ndarray:
    """Run one refine batch through the named kernel.

    All kernels return identical arrays (values and sentinels), so the
    name only selects *how* the batch is computed.
    """
    try:
        function = _KERNEL_FUNCTIONS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown EDR kernel {kernel!r}; choose from {', '.join(TIMED_KERNELS)}"
        ) from None
    return function(query, candidates, epsilon, bounds=bounds, band=band)


@dataclass
class KernelSelection:
    """An autotuned (or loaded/forced) per-bucket kernel table."""

    table: Dict[int, str] = field(default_factory=dict)
    default: str = LEGACY_KERNEL
    throughput: Dict[str, float] = field(default_factory=dict)  # cells/second
    trials: int = 0
    source: str = "autotune"

    def kernel_for_bucket(self, bucket: int) -> str:
        return self.table.get(int(bucket), self.default)

    def to_dict(self) -> dict:
        return {
            "table": {str(bucket): kernel for bucket, kernel in sorted(self.table.items())},
            "default": self.default,
            "throughput": dict(self.throughput),
            "trials": self.trials,
            "source": self.source,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "KernelSelection":
        return cls(
            table={int(bucket): str(kernel) for bucket, kernel in payload.get("table", {}).items()},
            default=str(payload.get("default", LEGACY_KERNEL)),
            throughput={str(k): float(v) for k, v in payload.get("throughput", {}).items()},
            trials=int(payload.get("trials", 0)),
            source=str(payload.get("source", "loaded")),
        )

    @classmethod
    def from_json(cls, text: str) -> "KernelSelection":
        return cls.from_dict(json.loads(text))


@dataclass
class KernelPlan:
    """A resolved kernel choice for one query (or one warm service)."""

    requested: str  # what the caller asked for ("auto", a fixed name, ...)
    source: str  # "fixed" | "forced" | "autotune" | "loaded"
    default: str = LEGACY_KERNEL
    table: Dict[int, str] = field(default_factory=dict)
    throughput: Dict[str, float] = field(default_factory=dict)

    def kernel_for_bucket(self, bucket: int) -> str:
        return self.table.get(int(bucket), self.default)

    def kernel_for_length(self, length: int) -> str:
        return self.kernel_for_bucket(length_bucket(length))


def forced_kernel() -> Optional[str]:
    """The ``REPRO_KERNEL_FORCE`` override, validated, or ``None``."""
    forced = os.environ.get(FORCE_ENV)
    if not forced:
        return None
    if forced not in TIMED_KERNELS:
        raise ValueError(
            f"{FORCE_ENV}={forced!r} is not a kernel; choose from {', '.join(TIMED_KERNELS)}"
        )
    return forced


def resolve_kernel_plan(database=None, kernel: Optional[str] = None) -> KernelPlan:
    """Resolve an ``edr_kernel`` knob into a concrete per-bucket plan.

    ``None`` means :data:`DEFAULT_KERNEL`, the bit-parallel kernel.
    ``"auto"`` consults the
    database's cached autotune table, running the autotuner on first use;
    without a database it degrades to the legacy kernel.  The
    ``REPRO_KERNEL_FORCE`` environment variable overrides everything,
    reading no clock at all.
    """
    forced = forced_kernel()
    if forced is not None:
        return KernelPlan(requested=kernel or forced, source="forced", default=forced)
    if kernel is None:
        kernel = DEFAULT_KERNEL
    if kernel not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown EDR kernel {kernel!r}; choose from {', '.join(KERNEL_CHOICES)}"
        )
    if kernel != "auto":
        return KernelPlan(requested=kernel, source="fixed", default=kernel)
    if database is None:
        return KernelPlan(requested="auto", source="fixed", default=LEGACY_KERNEL)
    selection = database.kernel_selection()
    return KernelPlan(
        requested="auto",
        source=selection.source,
        default=selection.default,
        table=dict(selection.table),
        throughput=dict(selection.throughput),
    )


def autotune_kernels(
    database,
    trials: int = 5,
    sample: int = 8,
    kernels: Sequence[str] = TIMED_KERNELS,
    seed: int = 0,
    time_fn: Optional[Callable[[], float]] = None,
) -> KernelSelection:
    """Race the kernels per length bucket on the database's own data.

    For every length bucket present in the database, up to ``sample``
    member trajectories (chosen by a seeded shuffle — deterministic for
    a given database and seed, independent of timing) are refined
    against a representative query (the database trajectory of median
    length) by each candidate kernel, ``trials`` times; the best-of
    time decides the bucket, with ties broken toward the legacy kernel.
    Each kernel first runs once untimed, so one-time costs (first-call
    setup, cold caches) never decide a bucket, and the timed trials go
    round-robin over the kernels, so a host slowdown during the race
    hits every kernel alike instead of whichever one was running.  A
    kernel more than ``RACE_CUTOFF`` times slower than the leader sits
    out the remaining rounds: it cannot win on noise, and the rounds
    left go to the close contenders.  ``time_fn`` defaults to
    ``time.perf_counter`` and is injectable so tests can drive the
    choice deterministically.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if sample < 1:
        raise ValueError("sample must be at least 1")
    for kernel in kernels:
        if kernel not in TIMED_KERNELS:
            raise ValueError(f"cannot autotune meta-kernel {kernel!r}")
    clock = time.perf_counter if time_fn is None else time_fn
    rng = np.random.default_rng(seed)

    lengths = np.asarray(database.lengths, dtype=np.int64)
    # Representative query: the median-length trajectory (stable pick).
    median_order = np.argsort(lengths, kind="stable")
    query = database.trajectories[int(median_order[len(median_order) // 2])]

    buckets: Dict[int, List[int]] = {}
    for position, length in enumerate(lengths.tolist()):
        buckets.setdefault(length_bucket(length), []).append(position)

    # Tie-break preference: legacy first, so equal timings change nothing.
    preference = {"batched": 0, "bitparallel": 1, "scalar": 2}
    table: Dict[int, str] = {}
    cells_by_kernel: Dict[str, float] = {}
    seconds_by_kernel: Dict[str, float] = {}
    for bucket in sorted(buckets):
        members = buckets[bucket]
        if len(members) > sample:
            chosen = rng.choice(len(members), size=sample, replace=False)
            members = [members[int(index)] for index in np.sort(chosen)]
        candidates = [database.trajectories[index] for index in members]
        cells = len(query) * int(sum(len(c) for c in candidates))
        for kernel in kernels:
            run_kernel(kernel, query, candidates, database.epsilon)
        elapsed: Dict[str, float] = {}
        racing = list(kernels)
        for _ in range(trials):
            for kernel in racing:
                start = clock()
                run_kernel(kernel, query, candidates, database.epsilon)
                delta = clock() - start
                elapsed[kernel] = min(elapsed.get(kernel, delta), delta)
            leader = min(elapsed[kernel] for kernel in racing)
            racing = [
                kernel
                for kernel in racing
                if elapsed[kernel] <= RACE_CUTOFF * leader
            ]
        for kernel in kernels:
            cells_by_kernel[kernel] = cells_by_kernel.get(kernel, 0.0) + cells
            seconds_by_kernel[kernel] = seconds_by_kernel.get(kernel, 0.0) + max(
                elapsed[kernel], 0.0
            )
        table[bucket] = min(
            kernels,
            key=lambda kernel: (
                elapsed[kernel],
                preference.get(kernel, len(preference)),
            ),
        )

    throughput = {
        kernel: (cells_by_kernel[kernel] / seconds_by_kernel[kernel])
        if seconds_by_kernel.get(kernel, 0.0) > 0.0
        else 0.0
        for kernel in cells_by_kernel
    }
    # The plan default covers buckets never seen at tune time (queries
    # against trajectories longer than anything sampled): majority vote
    # over the tuned buckets, ties toward the legacy kernel.
    if table:
        votes: Dict[str, int] = {}
        for kernel in table.values():
            votes[kernel] = votes.get(kernel, 0) + 1
        default = min(
            votes, key=lambda kernel: (-votes[kernel], preference.get(kernel, 99))
        )
    else:
        default = LEGACY_KERNEL
    return KernelSelection(
        table=table,
        default=default,
        throughput=throughput,
        trials=trials,
        source="autotune",
    )


def kernel_report(database=None, kernel: Optional[str] = None) -> dict:
    """Debug/stats view of the kernel choice in force.

    Returns the resolved plan (requested choice, source, per-bucket
    table, default) plus the autotuner's measured per-kernel cell
    throughput when available.  Safe to call with no database — it then
    reports the fixed resolution.
    """
    plan = resolve_kernel_plan(database, kernel)
    return {
        "requested": plan.requested,
        "source": plan.source,
        "default": plan.default,
        "table": {str(bucket): name for bucket, name in sorted(plan.table.items())},
        "throughput_cells_per_s": {
            name: float(value) for name, value in sorted(plan.throughput.items())
        },
        "forced": os.environ.get(FORCE_ENV) or None,
        "choices": list(KERNEL_CHOICES),
    }
