"""Refine-phase EDR kernels: one per role, dispatched by name.

The refine phase has three interchangeable EDR kernels — every one
returns byte-for-byte the same distances and the same early-abandon
sentinel pattern, so engines may swap them freely without changing
answers or pruner counters:

``scalar``
    One kernel invocation per candidate.  In batch context this runs the
    batched kernel on singleton batches (a candidate's abandonment
    schedule is independent of its batch mates, so a singleton batch is
    bit-identical to the same candidate inside any larger batch); on the
    unbatched path it is plain :func:`~repro.core.edr.edr`.  It is the
    reference the other two are pinned against.
``batched``
    :func:`~repro.core.edr_batch.edr_many`, the padded row-DP over a
    whole candidate batch.  Its per-start form is the window DP of
    subtrajectory search.
``bitparallel``
    :func:`~repro.core.edr_bitparallel.edr_many_bitparallel`, the
    Myers/Hyyrö bit-vector kernel (64 DP cells per machine word), and
    what ``edr_kernel=None`` runs.  Banded calls delegate to ``batched``
    internally, so the choice is moot under a Sakoe-Chiba band.

The roles are fixed: whole-trajectory refinement runs
:data:`DEFAULT_KERNEL`, the subtrajectory filter runs the bit-parallel
kernel in free-start mode and the window DP the batched one.  The
``edr_kernel`` knob names one of the three for whole-trajectory
refinement; it exists so benchmarks and the byte-equality tests can
compare the kernels through the engines.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from .edr_batch import edr_many
from .edr_bitparallel import edr_many_bitparallel

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_CHOICES",
    "check_kernel_choice",
    "kernel_report",
    "length_bucket",
    "run_kernel",
]

#: Accepted values of every ``edr_kernel`` knob.
KERNEL_CHOICES = ("scalar", "batched", "bitparallel")

#: What ``edr_kernel=None`` means.  It returns the batched kernel's
#: distances and sentinels bit for bit and, on 32-candidate batches, is
#: faster than it at every trajectory length from 16 points up, in 1-D,
#: 2-D and 3-D (docs/KERNELS.md gives the measurements and the
#: small-batch exceptions).
DEFAULT_KERNEL = "bitparallel"


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
            f"unknown EDR kernel {kernel!r}; choose from {', '.join(KERNEL_CHOICES)}"
        ) from None
    return function(query, candidates, epsilon, bounds=bounds, band=band)


def check_kernel_choice(kernel: Optional[str]) -> str:
    """The kernel an ``edr_kernel`` value names: ``None`` is
    :data:`DEFAULT_KERNEL`, any other value outside
    :data:`KERNEL_CHOICES` raises ``ValueError``."""
    if kernel is None:
        return DEFAULT_KERNEL
    if kernel not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown EDR kernel {kernel!r}; choose from {', '.join(KERNEL_CHOICES)}"
        )
    return kernel


def autotune_kernels() -> Dict[int, str]:
    """The per-length-bucket kernel table: always empty.

    Kernels are fixed by role, so there is nothing to tune and no clock
    is read.  The name stays because the layer tracer of ``perfbench/``
    wraps it to report ``kernels.autotune_s`` (which reads 0).
    """
    return {}


def kernel_report() -> dict:
    """The ``/stats`` view of the refine kernel in force.

    ``table`` is the per-length-bucket table, empty since every bucket
    runs :data:`DEFAULT_KERNEL`.
    """
    return {
        "kernel": DEFAULT_KERNEL,
        "table": {},
        "choices": list(KERNEL_CHOICES),
    }
