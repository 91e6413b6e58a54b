"""Assemble EXPERIMENTS.md from the benchmark result tables.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/make_experiments_md.py

Each experiment section quotes the paper's reported values, embeds the
measured table from ``benchmarks/results/``, and states the qualitative
shape that the benchmark asserts.
"""

from __future__ import annotations

from pathlib import Path

RESULTS = Path(__file__).parent / "results"
OUTPUT = Path(__file__).parent.parent / "EXPERIMENTS.md"

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (Section 5), reproduced
by `pytest benchmarks/ --benchmark-only`.  Raw tables live in
`benchmarks/results/`; this file is assembled from them by
`python benchmarks/make_experiments_md.py`.

**Reading guidance.**  Absolute numbers are not comparable: the paper
ran on a 2005 Sun Blade with disk-resident data and the original
(proprietary) datasets, while this reproduction runs synthetic
stand-ins (DESIGN.md §4) on an in-memory Python/numpy stack.  What the
benchmarks assert — and what this file reports — is the *shape* of each
result: which method wins, how trends move with the parameters, and
that every pruned search returns exactly the sequential scan's answer
(no false dismissals; the `match` column).

**Known, documented deviations.**

* The paper's Figure 5 histogram distance (net-first CompHisDist) is
  unsound on chained matches and was replaced by the equivalent-on-
  strings, provably sound flow form (DESIGN.md §8) — a strictly smaller
  lower bound, so measured histogram pruning power is, if anything,
  conservative relative to the paper's.
* Figure 8's "merge join beats index probes in wall-clock" reflects the
  paper's disk-based R-tree; with this in-memory R-tree the PR variant
  is often the fastest Q-gram method.  Both are reported.
* Near-triangle pruning magnitudes (Table 3) are highly sensitive to
  the data's length structure and the reference selection; the paper's
  first-N policy yields small-but-matching shapes here, and the added
  length-aware `short` policy (DESIGN.md §7) shows the headroom.
* Wall-clock speedups track the paper where EDR cost dominates (long
  trajectories: Kungfu/Slip/Mixed/Randomwalk).  On short-trajectory
  sets this stack's vectorized EDR is cheap enough that per-candidate
  bound computation absorbs part of the savings — pruning *power*
  reproduces everywhere; the disk-I/O ablation shows the savings the
  paper's disk-resident setting additionally enjoyed.
"""

SECTIONS = [
    (
        "table1_clustering",
        "Table 1 — clustering efficacy",
        "Paper: CM Eu=2/10 vs elastic 10/10; ASL Eu=4/45 vs elastic 20-21/45.\n"
        "Asserted shape: Euclidean never beats any elastic measure "
        "(DTW/ERP/LCSS/EDR), which cluster together at the top.",
    ),
    (
        "table2_classification",
        "Table 2 — 1-NN error under noise and local time shifting",
        "Paper: CM Eu=0.25 DTW=0.14 ERP=0.14 LCSS=0.10 EDR=0.03; "
        "ASL Eu=0.28 DTW=0.18 ERP=0.17 LCSS=0.14 EDR=0.09.\n"
        "Asserted shape: EDR most robust (<= LCSS, < DTW/ERP/Eu); the "
        "measured gap EDR-vs-LCSS (~2x) matches the paper's '50% more "
        "accurate' headline.",
    ),
    (
        "table3_neartriangle",
        "Table 3 — near triangle inequality alone",
        "Paper: power ASL=0.09 RandN=0.07 RandU=0.26; speedup 1.07-1.31.\n"
        "Asserted shape: NTI is a weak filter; uniform length spread "
        "(RandU) prunes at least as well as normal (RandN); equal-length "
        "data never prunes (unit-tested).",
    ),
    (
        "fig7_qgram_power",
        "Figure 7 — pruning power of mean-value Q-grams",
        "Asserted shape (as in the paper): power falls as Q-gram size "
        "grows (size 1 best); 2-D variants (PR/PS2) >= 1-D (PB/PS1).",
    ),
    (
        "fig8_qgram_speedup",
        "Figure 8 — speedup of mean-value Q-grams",
        "Asserted shape: the best Q-gram speedup is larger on "
        "long-trajectory data (each avoided EDR is worth more).  The "
        "paper's join-beats-index wall-clock finding is reported but not "
        "asserted (disk vs in-memory index; see deviations above).",
    ),
    (
        "fig9_histogram_power",
        "Figure 9 — pruning power of histograms",
        "Asserted shape (as in the paper): trajectory histograms at bin "
        "size eps (2HE) dominate; power decays with bin size delta; HSR "
        ">= HSE for every variant.",
    ),
    (
        "fig10_histogram_speedup",
        "Figure 10 — speedup of histograms",
        "Asserted shape: the best HSR variant beats the best HSE variant "
        "(sorting by lower bound pays off).",
    ),
    (
        "fig11_combination_orders",
        "Figure 11 — the six orders of the three pruning methods",
        "Asserted shape: every order has identical pruning power "
        "(independent filters), and the paper's governing principle — "
        "run the strongest *cheap* filter first — picks the fastest "
        "order.  In the paper's stack that filter was the 2-D histogram "
        "(2HPN fastest); in this stack the vectorized Q-gram merge join "
        "is cheaper than the 2-D histogram flow, so Q-gram-first orders "
        "win.  Same principle, substrate-dependent winner.",
    ),
    (
        "fig12_combined_power",
        "Figure 12 — combined methods vs single methods (power)",
        "Asserted shape: each combination prunes at least as much as its "
        "parts; NTR alone is the weakest method.",
    ),
    (
        "fig13_combined_speedup",
        "Figure 13 — combined methods vs single methods (speedup)",
        "Asserted shape: the combined methods beat NTI alone and Q-grams "
        "alone; 1HPN (per-axis histograms first) is the best overall "
        "combination, as the paper concludes.",
    ),
    (
        "ablation_maxtriangle",
        "Ablation — NTI reference budget (maxTriangle)",
        "Paper claim: 'the larger maxTriangle is, the more pruning power'.\n"
        "Asserted: monotone non-decreasing power in the budget.",
    ),
    (
        "ablation_k_sweep",
        "Ablation — pruning power vs k",
        "Section 5 varies k from 1 to 20 and reports 20.  Asserted: "
        "power is monotone non-increasing in k (a larger k weakens the "
        "k-th best distance every bound must beat).",
    ),
    (
        "ablation_early_abandon",
        "Ablation — early-abandoning EDR",
        "Library extension: the DP stops when a row's minimum exceeds "
        "the k-th best distance.  Answers and pruning-power accounting "
        "are unchanged; only wall-clock improves.",
    ),
    (
        "ablation_cse",
        "Ablation — Constant Shift Embedding (Section 4.2)",
        "Paper's negative result: the CSE constant is so large that "
        "shifted triangle bounds prune nothing.  Asserted: the shifted "
        "usable-bound rate never exceeds the raw rate.",
    ),
    (
        "ablation_disk_io",
        "Ablation — physical I/O on a disk-resident store",
        "Library extension substantiating the paper's I/O-inclusive "
        "speedups: pruned candidates' pages are never read.",
    ),
    (
        "extension_lcss_pruning",
        "Extension — the pruning framework applied to LCSS",
        "The paper claims its techniques transfer to LCSS (Section 4) "
        "but omits the details; this library supplies them (histogram "
        "match-capacity and Q-gram upper bounds) and measures them.",
    ),
    (
        "baseline_clustertree",
        "Baseline — the cluster-based index of [36]",
        "The conclusions argue cluster indexing cannot serve non-metric "
        "distances exactly: its triangle bound is invalid for EDR/LCSS. "
        "Measured: recall of the cluster index vs the always-exact "
        "pruning of Section 4.",
    ),
    (
        "extension_join",
        "Extension — pruned similarity self-join",
        "The Q-gram filter's original use case ([10]), closed-loop: "
        "all pairs within EDR radius, exact, with pruning.",
    ),
    (
        "bulk_bounds",
        "Engineering — bulk lower-bound kernels and multi-query serving",
        "Not a paper experiment: the filter phase (every pruner's lower "
        "bound over the whole database) rewritten as vectorized bulk "
        "kernels with bit-identical values, versus the scalar "
        "per-candidate loop; the exact histogram stage on a bound-order "
        "k-NN's visits, the matcher on every visit versus greedy-matching "
        "ceilings plus the matcher where they exceed the threshold; plus "
        "`knn_batch` (shared warm pruners, sorted engine) versus naive "
        "sequential `knn_search` calls. "
        "Generated by `python benchmarks/bench_bulk_bounds.py` "
        "(also writes `BENCH_bulk_bounds.json`).",
    ),
    (
        "edr_refine",
        "Engineering — batched EDR refinement and parallel matrix precompute",
        "Not a paper experiment: the refine phase (true-EDR verification "
        "of every unpruned candidate) rewritten as one many-candidate DP "
        "(`edr_many`: shared-width padding, per-row active-set "
        "early-abandon compaction) versus the scalar per-candidate "
        "kernel, with answers asserted identical to the linear-scan "
        "oracle; plus the near-triangle reference-matrix precompute "
        "(`edr_matrix`) serial versus process-pool workers.  The "
        "pure-refine rows time the worst-case refinement load "
        "(`pruners=[]`, every candidate verified); parallel matrix "
        "speedup depends on available cores.  Generated by "
        "`python benchmarks/bench_edr_refine.py` (also writes "
        "`BENCH_edr_refine.json`).",
    ),
    (
        "edr_bitparallel",
        "Engineering — bit-parallel EDR kernel",
        "Not a paper experiment: EDR's unit-cost DP rewritten in the "
        "Myers/Hyyrö bit-parallel form (`edr_many_bitparallel`: vertical "
        "deltas packed into uint64 words, 64 cells per word operation, "
        "ε-match bitmasks from `match_bits`, the same per-candidate early "
        "abandoning and band) versus the batched row DP (`edr_many`), on "
        "the pruner-free refine phase and the raw kernels head to head.  "
        "Before timing, every kernel's k-NN answer — scalar, batched, "
        "bit-parallel — is asserted *byte-equal* to the scalar `edr` "
        "linear scan; the engines refine with the bit-parallel kernel "
        "(`repro.core.kernels`, docs/KERNELS.md).  Generated by "
        "`python benchmarks/bench_edr_bitparallel.py` (also writes "
        "`BENCH_edr_bitparallel.json`, regression-guarded in CI with "
        "`--require-speedup`).",
    ),
    (
        "service",
        "Engineering — query service micro-batching under load",
        "Not a paper experiment: the resident HTTP query service "
        "(`repro-trajectory serve`, docs/SERVICE.md) measured by a "
        "closed-loop client population, micro-batching off "
        "(`max_batch=1`) versus on, with served `/knn` answers "
        "oracle-asserted equal to direct `knn_search`.  The `skewed` "
        "workload (Zipf-weighted hot queries, the result cache disabled) "
        "shows duplicates coalescing onto a queued or computing query; "
        "the `distinct` workload isolates pure batch dispatch, which is "
        "expected to be near 1x.  The batcher dispatches at once when "
        "idle and batches only what queues while a batch computes.  "
        "Generated by "
        "`python benchmarks/bench_service.py` (also writes "
        "`BENCH_service.json`).",
    ),
    (
        "shards",
        "Engineering — sharded intra-query parallelism",
        "Not a paper experiment: one k-NN query split across N "
        "shared-memory database shards (`ShardedDatabase`, "
        "docs/SHARDING.md) versus serial `knn_search`, answers "
        "oracle-asserted byte-for-byte identical at every shard count. "
        "The 1-shard row isolates the pipeline's scheduling win (the "
        "two-stage exact histogram bound is paid only where cheap); "
        "multi-shard scaling beyond it requires real cores — on a "
        "single-CPU host the extra shards only add IPC, which the table "
        "records honestly (`cpu_count` is in the JSON).  Generated by "
        "`python benchmarks/bench_shards.py` (also writes "
        "`BENCH_shards.json`).",
    ),
    (
        "replicas",
        "Engineering — replicated serving tier (fleet-wide cache)",
        "Not a paper experiment: the replica fleet "
        "(`repro-trajectory serve --replicas N`, docs/REPLICATION.md) "
        "measured by the same zipf closed-loop client population as the "
        "service benchmark, 4 replicas versus the single-process "
        "service, served `/knn` answers oracle-asserted equal to direct "
        "`knn_search` on both the compute and the cache path.  "
        "Consistent-hash routing on the full request signature makes "
        "the per-replica LRU caches compose into one fleet-wide cache "
        "(aggregate capacity `replicas x cache_size`, no duplicated "
        "entries), so with a hot-query pool larger than one engine's "
        "cache the single engine thrashes while the fleet holds the "
        "whole pool — the committed single-core numbers isolate that "
        "cache effect (`cpu_count` is in the JSON); multi-core hosts "
        "add miss-path parallelism on top.  Generated by "
        "`python benchmarks/bench_replicas.py` (also writes "
        "`BENCH_replicas.json`, gated in CI with "
        "`--require-speedup 2.5`).",
    ),
    (
        "tiered",
        "Engineering — tiered storage scaling (out-of-core build, "
        "sublinear bytes touched)",
        "Not a paper experiment, but the paper's central I/O claim at "
        "scale: a disk-resident store (`repro-trajectory build-store`, "
        "docs/STORAGE.md) built out-of-core in streaming chunks, served "
        "by `TieredDatabase` running the unmodified engines over mmap "
        "artifacts.  Per-block histogram skip summaries let the blocked "
        "sorted engine rule out whole store blocks without faulting their "
        "rows, so the bytes a k-NN query touches grow sublinearly in "
        "corpus size, and the subprocess-measured build peak RSS stays "
        "bounded (run-count-scaled merge buffers + MADV_DONTNEED on "
        "consumed pages).  Answers and pruner counters are "
        "oracle-asserted byte-for-byte against the in-memory serial "
        "engine before timing.  Generated by "
        "`python benchmarks/bench_tiered.py` (also writes "
        "`BENCH_tiered.json`, gated in CI with `--require-sublinear`).",
    ),
    (
        "ingest",
        "Engineering — incremental ingest vs full index rebuild",
        "Not a paper experiment: the streaming-ingest subsystem "
        "(`repro.ingest`, docs/INGEST.md) maintains the Q-gram, "
        "histogram, and NTI pruning artifacts incrementally as "
        "trajectories are inserted, instead of rebuilding them from "
        "scratch.  The table times the canonical \"a delta arrives on a "
        "warm base\" scenario — a 10% delta streamed onto an "
        "already-indexed base — against a cold rebuild of the merged "
        "corpus.  The incremental view's answers and per-pruner "
        "counters are oracle-asserted byte-for-byte against the cold "
        "rebuild before timing.  Generated by "
        "`python benchmarks/bench_ingest.py` (also writes "
        "`BENCH_ingest.json`, gated in CI with `--require-speedup 3`).",
    ),
]


def main() -> None:
    parts = [PREAMBLE]
    missing = []
    for name, title, commentary in SECTIONS:
        path = RESULTS / f"{name}.txt"
        parts.append(f"\n## {title}\n")
        parts.append(commentary + "\n")
        if path.exists():
            parts.append("```\n" + path.read_text().strip() + "\n```\n")
        else:
            missing.append(name)
            parts.append("*(no result file — benchmark not yet run)*\n")
    OUTPUT.write_text("\n".join(parts))
    status = f"wrote {OUTPUT}"
    if missing:
        status += f" ({len(missing)} sections missing: {', '.join(missing)})"
    print(status)


if __name__ == "__main__":
    main()
