#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 verify from
# ROADMAP.md (release build + full test suite). Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test -q --workspace

# The parallel-driver determinism contracts (bitwise-identical factors AND
# solves at every worker count) must hold both with the test harness running
# cases concurrently (default) and fully serialized — the two schedules
# exercise different interleavings of the work-stealing runtime.
echo "==> determinism suite (default test threads)"
cargo test -q --release --test determinism

echo "==> determinism suite (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test -q --release --test determinism

# The server's concurrency contracts (batched responses bitwise identical to
# serial answers, typed rejections, LRU eviction accounting) must hold with
# test cases running concurrently and fully serialized — the schedules put
# very different load shapes through the worker pool.
echo "==> server suite (default test threads)"
cargo test -q --release -p mf-server

echo "==> server suite (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test -q --release -p mf-server

# The intra-front tiled task DAG has its own bitwise contract (serial vs
# 1/2/4/8 workers × f32/f64 × arena/heap with fronts forced to expand).
# Run the tiled tests by name and count them, so a filter typo or a renamed
# test cannot silently skip the suite.
echo "==> tiled determinism suite (explicit, default + single test thread)"
for t in "" "RUST_TEST_THREADS=1"; do
  out=$(env $t cargo test --release --test determinism tiled_expansion 2>&1) || {
    echo "$out"
    exit 1
  }
  echo "$out" | grep -q "2 passed" || {
    echo "expected exactly 2 tiled determinism tests to run:"
    echo "$out"
    exit 1
  }
done

# The analysis pipeline has its own bitwise contract: analyze_parallel must
# reproduce the serial analyze byte for byte (permutation, etree, supernode
# partition, row structures, fingerprint) at 1/2/4/8 workers, across matrix
# families and at both factor precisions, and the orderings must reproduce
# the permutation hashes and fingerprints recorded from the commit before
# they moved to compact subgraphs (analysis_ordering_matches_golden). Run the
# analysis tests by name and count them, so a filter typo or a renamed test
# cannot silently skip them.
echo "==> analysis determinism suite (explicit, default + single test thread)"
for t in "" "RUST_TEST_THREADS=1"; do
  out=$(env $t cargo test --release --test determinism analysis_ 2>&1) || {
    echo "$out"
    exit 1
  }
  echo "$out" | grep -q "5 passed" || {
    echo "expected exactly 5 analysis determinism tests to run:"
    echo "$out"
    exit 1
  }
done

# The factor bench runs the tiled scheduler on every suite matrix and
# asserts critical_path <= makespan <= serial_time for the tree and tiled
# schedule models at every worker count — a violation panics the bench and
# fails this step.
echo "==> factor_parallel bench (tiled + tree schedulers, writes BENCH_factor.json)"
cargo bench -p mf-bench --bench factor_parallel

echo "==> solve bench (writes BENCH_solve.json)"
cargo bench -p mf-bench --bench solve

# The symbolic bench asserts, before timing anything, that analyze_parallel's
# fingerprint matches the serial analysis at 1/2/4/8 workers on every suite
# matrix, and that the supernodal task DAG admits a >1x simulated multi-worker
# speedup — either violation panics the bench and fails this step.
echo "==> symbolic bench (analysis fingerprint gate, writes BENCH_symbolic.json)"
cargo bench -p mf-bench --bench symbolic

# The multi-GPU driver's determinism contracts (bitwise-identical factors at
# every workers × devices combination, OOM-fallback parity with the serial
# drain driver, clean NotPositiveDefinite recovery) run by name and are
# counted, so a filter typo or a renamed test cannot silently skip them.
echo "==> multi-GPU determinism suite (explicit, default + single test thread)"
for t in "" "RUST_TEST_THREADS=1"; do
  out=$(env $t cargo test --release --test determinism multigpu_ 2>&1) || {
    echo "$out"
    exit 1
  }
  echo "$out" | grep -q "3 passed" || {
    echo "expected exactly 3 multi-GPU determinism tests to run:"
    echo "$out"
    exit 1
  }
done

# The out-of-core (memory-budgeted) driver's determinism contracts — ladder-off
# runs bitwise identical to in-core at every budget × worker count × precision,
# residency provably under budget, bf16 spill halving traffic without moving
# the eviction schedule, typed infeasible-budget errors, streaming solve parity
# and refinement through 16-bit spill storage — run by name and are counted,
# so a filter typo or a renamed test cannot silently skip them.
echo "==> out-of-core determinism suite (explicit, default + single test thread)"
for t in "" "RUST_TEST_THREADS=1"; do
  out=$(env $t cargo test --release --test determinism ooc_ 2>&1) || {
    echo "$out"
    exit 1
  }
  echo "$out" | grep -q "9 passed" || {
    echo "expected exactly 9 out-of-core determinism tests to run:"
    echo "$out"
    exit 1
  }
done

# Property tests for the out-of-core planner: residency never exceeds the
# budget at any event for arbitrary structures/budgets/ladders, and f64
# refinement converges through 16-bit spill storage.
echo "==> out-of-core property suite (explicit, counted)"
out=$(cargo test --release --test property ooc_ 2>&1) || {
  echo "$out"
  exit 1
}
echo "$out" | grep -q "2 passed" || {
  echo "expected exactly 2 out-of-core property tests to run:"
  echo "$out"
  exit 1
}

# Property tests for the peer-copy primitive the multi-GPU extend-add path
# rides on: event forward-progress/transitivity across arbitrary device
# chains, and bitwise h2d -> d2d -> d2h roundtrips over arbitrary shapes.
echo "==> gpusim peer-copy property suite"
cargo test -q --release -p mf-gpusim --test peer_properties

echo "==> gpu_pipeline bench (writes BENCH_gpu.json)"
cargo bench -p mf-bench --bench gpu_pipeline

# Multi-GPU strong scaling. Asserted inside the bench (panic fails this
# step): bitwise identity with the serial drain driver at 1/2/4/8 devices,
# 2 devices beating 1 on every suite matrix, and peer extend-add traffic
# appearing wherever the proportional mapping splits a subtree.
echo "==> multigpu bench (writes BENCH_multigpu.json)"
cargo bench -p mf-bench --bench multigpu

# Open-loop load bench for the service layer. Three invariants are asserted
# inside the bench and panic (failing this step) on violation: every response
# bitwise identical to the serial single-request answer, batched mode beating
# per-request dispatch on requests/sec at 8 concurrent callers, and overload
# bursts shedding load without corrupting accepted requests.
echo "==> server load bench (writes BENCH_server.json)"
cargo bench -p mf-bench --bench server

# Out-of-core traffic/wall-clock sweep over budget fractions and the spill
# ladder. Four invariants are asserted inside the bench and panic (failing
# this step) on violation: residency never over budget, ladder-off runs
# bitwise identical to in-core, bf16 cutting spill traffic >= 1.8x at the
# same schedule, and f64 refinement converging through bf16 spill storage.
echo "==> ooc bench (writes BENCH_ooc.json)"
cargo bench -p mf-bench --bench ooc

# benchmark/ is its own workspace on the facade crate: it constructs
# `Analysis` by literal and calls the analysis stages by name, so a public-API
# break shows here instead of in the acceptance run. --smoke runs every
# workload untraced and traced at tiny sizes and checks every answer.
echo "==> benchmark package (build + smoke run of every workload)"
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "CI OK"
