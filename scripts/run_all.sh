#!/usr/bin/env bash
# Full verification run: test suite, the benchmark harness's tests,
# complete benchmark suite, the query service smoke test + load
# benchmark, and the assembled EXPERIMENTS.md.
# Writes test_output.txt / bench_output.txt at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest tests/ -x -q 2>&1 | tee test_output.txt
python -m pytest perfbench/tests -q 2>&1 | tee -a test_output.txt
python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt
python scripts/service_smoke.py
python scripts/shard_smoke.py
python scripts/replica_smoke.py
python scripts/store_smoke.py
python scripts/ingest_smoke.py
python benchmarks/bench_service.py --count 400 --clients 8 --requests 4 \
    --pool 16 --max-batch 8 --epsilon 1.0
python benchmarks/bench_replicas.py --require-speedup 2.5
python benchmarks/bench_shards.py --count 2000 --require-speedup 1.5
python benchmarks/bench_subknn.py --require-speedup 3
python benchmarks/bench_tiered.py --sizes 10000,100000 --require-sublinear
python benchmarks/bench_ingest.py --require-speedup 3
python benchmarks/make_experiments_md.py
echo "run_all: done" >> bench_output.txt
