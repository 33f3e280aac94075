#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 verify from
# ROADMAP.md (release build + full test suite). Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"
tree_before=$(git status --porcelain)

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

# Suites that pin a contract by name. Each row of the manifest is
# `test-target filter expected-count`; the filter must run exactly that many
# tests, with the test harness running cases concurrently (default) and fully
# serialized, so a filter typo or a renamed test cannot silently skip a suite.
#   arena_storage    peak front bytes within the symbolic bound, two allocations
#                    serially, parallel bits == serial at 1/2/4/8 workers
#   analysis_        analyze_parallel == analyze byte for byte; golden orderings
#   numeric_         golden hashes of factor slabs and solve_many outputs (f64 and
#                    f32, 1 and 8 RHS, serial and 1/2/4 workers) from before the
#                    flat structure, the solve stack and the subtree tasks
#   multigpu_        bitwise factors at every workers x devices, OOM parity
#   ooc_             budgeted == in-core bits, residency, bf16 spill, typed errors
#   symbolic_flat, bottom_subtrees, subtree_tasks
#                    flat parallel build == serial, the subtree partition, the
#                    range-task drivers and the forward stack bound
#   sim_clock        golden hashes of total_time, fallbacks, peer bytes, allocation
#                    events and per-device busy time: drain, pipelined, 2/4 devices,
#                    P2/P3/P4/baseline, and under device OOM; of the per-call records
#                    (sn, policy, total, kernel and copy buckets) of recorded drain
#                    runs, serial and one-worker parallel; and
#                    sim_clock_parallel_entry_runs_pipelined_and_multi_device_on_one_timeline:
#                    the parallel entry's pipelined and 4-device runs at 1/2/3 workers
#                    are the serial entry's, bit for bit and clock for clock
#   driver_errors    a failing pivot at every supernode under every issuer: the
#                    serial error, empty devices, machines as good as new; a
#                    recorded run, serial or at 1/2 workers, failed or not, leaves
#                    no machine recording or holding records
#   ordering_quality nested dissection splits meshes in balance and within 1.5x
#                    the flops of a geometric dissection; valid on random patterns
echo "==> named suites (counted, default + single test thread)"
while read -r target filter expected; do
  for t in "" "RUST_TEST_THREADS=1"; do
    out=$(env $t cargo test --release --test "$target" "$filter" 2>&1) || {
      echo "$out"
      exit 1
    }
    echo "$out" | grep -q "test result: ok. $expected passed" || {
      echo "expected exactly $expected '$filter' tests of '$target' to run (${t:-default threads}):"
      echo "$out"
      exit 1
    }
  done
done <<'MANIFEST'
determinism arena_storage 2
determinism analysis_ 5
determinism numeric_ 1
determinism multigpu_ 3
determinism ooc_ 8
determinism sim_clock 3
determinism driver_errors 2
property ooc_ 2
property symbolic_flat 1
property bottom_subtrees 1
property subtree_tasks 1
property ordering_quality 2
MANIFEST

# Property tests for the peer-copy primitive the multi-GPU extend-add path
# rides on: event forward-progress/transitivity across arbitrary device
# chains, and bitwise h2d -> d2d -> d2h roundtrips over arbitrary shapes.
echo "==> gpusim peer-copy property suite"
cargo test -q --release -p mf-gpusim --test peer_properties

# benchmark/ is its own workspace on the facade crate: it constructs
# `Analysis` by literal and calls the analysis stages by name, so a public-API
# break shows here instead of in the acceptance run. --smoke runs every
# workload untraced and traced at tiny sizes and checks every answer.
echo "==> benchmark package (build + smoke run of every workload)"
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --smoke

# Nothing above may write into the tree: build and run output is untracked
# and ignored, and no step regenerates a tracked file.
echo "==> tracked files untouched"
[ "$(git status --porcelain)" = "$tree_before" ] || {
  echo "the run modified the working tree:"
  git status --porcelain
  exit 1
}

echo "CI OK"
