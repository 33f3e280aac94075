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

# `unsafe` lives in mf-dense alone (its SIMD kernels and packing scratch):
# every other crate root forbids it, so the compiler rejects a new block.
echo "==> #![forbid(unsafe_code)] in every crate root but mf-dense's"
missing=$(grep -L '^#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs | grep -v '^crates/dense/' || true)
[ -z "$missing" ] || {
  echo "crate roots without #![forbid(unsafe_code)]:"
  echo "$missing"
  exit 1
}

# Public docs must resolve every intra-doc link and link no private item, so
# a deletion cannot leave a dangling reference behind.
echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test -q --workspace

# mf-runtime's idle workers wait on a condvar with no timeout, so a lost
# wake is a hang, not a slow run: the runtime suite and both determinism runs
# below run under `timeout`, with a bound far above their run time (seconds),
# and their test binaries are built first so the bound times the tests only.
echo "==> runtime suite (under timeout)"
cargo test -q --release -p mf-runtime --no-run
timeout 600 cargo test -q --release -p mf-runtime

# The parallel-driver determinism contracts (bitwise-identical factors AND
# solves at every worker count) must hold both with the test harness running
# cases concurrently (default) and fully serialized — the two put different
# loads on the runtime's workers, and so different orders of task starts and
# completions.
cargo test -q --release --test determinism --no-run
echo "==> determinism suite (default test threads)"
timeout 600 cargo test -q --release --test determinism

echo "==> determinism suite (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 timeout 600 cargo test -q --release --test determinism

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
# A target is a root test file, `crate/lib` (a crate's unit tests) or
# `crate/file` (one of a crate's test files).
#   arena_storage    peak front bytes == the two-buffer bound, two allocations
#                    serially, parallel bits == serial at 1/2/4/8 workers
#   analysis_        analyze_parallel == analyze byte for byte; golden orderings;
#                    the stage calls (order, permute_sym, elimination_tree, ...)
#                    replayed serially and at 2/4 workers == analyze's fingerprint
#   postorder_       every ordering kind comes out postordered: the supernodal
#                    postorder is the identity, fundamental and amalgamated, and
#                    the fill is the raw ordering's, on grids and random patterns
#   numeric_         golden hashes of factor slabs and solve_many outputs (f64 and
#                    f32, 1 and 8 RHS, serial and 1/2/4 workers), re-recorded
#                    with postordered orderings and the recursive panel solve
#   multigpu_        the in-flight issuer's factors bitwise at every workers x
#                    1/2/4/8 devices, OOM parity at 4 devices and 1/2 workers
#   in_flight_       the one issuer of fronts in flight at 1/2/4 devices: the
#                    drain driver's OOM fallbacks and bits (f64 and f32); a
#                    failing pivot at 1/2 devices reports the serial column and
#                    hands the device back empty
#   ooc_             budgeted == in-core bits at every budget and worker count
#                    (f32, f64), refinement under a budget, typed errors; a
#                    budgeted rehearsal's resident peak <= budget and a full
#                    budget spills nothing, on random structures
#   ooc::            the spill planner: a full budget plans no traffic, a tight
#                    one evicts within the budget (host tier before disk, and
#                    within its capacity), one byte under the floor is typed
#                    BudgetTooSmall, the plan is a pure function of its inputs
#   symbolic_flat, bottom_subtrees, subtree_tasks
#                    the row-structure range tasks == the serial build at 1/2/4/8
#                    workers, the factor's subtree partition, the factor and
#                    solve range-task drivers and the forward stack bound
#   range_tasks      the one task partition (subtrees in range order, then one
#                    task per supernode above in ascending id) covers the
#                    postorder once, for the factor's, the solve's and the
#                    analysis' subtrees, on a raw (not postordered) minimum-
#                    degree structure whose factor partitions break postorder
#   sim_clock        golden hashes of total_time, fallbacks, peer bytes, allocation
#                    events and per-device busy time: drain, then the one in-flight
#                    issuer at 1 device (pipelined: window 3, batched P4 runs,
#                    children readied together) and at 2/4 devices (window 8, no
#                    batches, children readied one by one),
#                    P2/P3/P4/baseline, and under device OOM, the parallel entry's
#                    drain at 2/4 workers giving the drain column's words but its
#                    allocation count; of the per-call records (sn, policy, total,
#                    kernel and copy buckets) of recorded serial drain runs, the
#                    parallel entry's at 1/2/4 workers equal to them; of budgeted
#                    drain runs (clock words and every OocStats field, fixed
#                    P1 and the baseline hybrid at min_feasible_budget and
#                    halfway to in core, on the paper node and the CPU alone);
#                    and
#                    sim_clock_parallel_entry_runs_pipelined_and_multi_device_on_one_timeline:
#                    the parallel entry's pipelined and 4-device runs at 1/2/3 workers
#                    are the serial entry's, bit for bit and clock for clock
#   driver_errors    a failing pivot at every supernode under every issuer: the
#                    serial error, empty devices, machines as good as new; after
#                    a failed recorded run, serial or at 1/2 workers, the next
#                    recorded run on the same machines books a fresh run's
#                    per-front records, t_assemble included
#   ordering_quality nested dissection splits meshes in balance and within 1.5x
#                    the flops of a geometric dissection; valid on random patterns
#   two_buffer       a front is a slab panel + an update block: every policy and
#                    a batched P4 run keep the panel's upper triangle zero and
#                    the single-buffer bits; a child straddling the pivot/update
#                    boundary lands in both buffers
#   output_leading_dimension, factor_front_small_is_bitwise
#                    the leading dimension of a block never changes a kernel's
#                    bits (syrk, gemm and the solve sweeps' panel; seed and
#                    packed paths); the two-buffer fused small front == the
#                    kernel sequence
#   panel_sweeps     the RHS-blocked forward/backward panel kernels == an
#                    in-test reference of the one-column order, every lane
#                    count, NaN in what they must not read; they solve L·Lᵀ
#   bitwise_sweeps   a batched solve == the loop of single-RHS solves, and
#                    parallel == serial at 1/2/4 workers (each task writing
#                    the rows it owns, reading what others published), for
#                    1/2/3/8/9/17 RHS, f32 and f64, on grids, elasticity and
#                    a 27-point cube whose panels take the packed order
#   solve_allocations
#                    solve_many allocates as often on the 120² plate as on
#                    the 60² one: nothing per supernode
#   exec_plan        every point of the plan space (pipelining x devices x
#                    budget x machines with and without a device x serial or
#                    parallel entry) factors to the canonical bits recording the
#                    plan the contract names, or fails with the typed PlanError
#                    before any machine moves; at every point, the parallel entry
#                    included, the rehearsal equals the run (clock, records,
#                    fallbacks, plan, ooc) or fails with its error; a parallel
#                    entry without machines is typed too
#   gpusim_          a device's streams and events: wait_event is forward-only,
#                    stream tails (record_event) never regress, record/wait
#                    chains are transitive, and a d2h after an h2d reads back
#                    the uploaded bits
#   time_split       every gpusim charge lands in exactly one component counter
#                    (potrf, trsm, syrk+gemm, copies, host memops + pinned
#                    allocations) as its interval's end - start, host kernels,
#                    device kernels, h2d, d2h and p2p on the receiving device;
#                    reset zeroes the counters
#   pseudo_peripheral_from_components
#                    nested dissection's components search serves as the
#                    pseudo-peripheral search's first sweep
#   rehearsal_equals_the_run_it_predicts
#                    a run without data charges the clock of the run with
#                    data: FactorOptions::rehearse == factor_permuted on
#                    total_time, every FuRecord field, gpu, gpu_devices,
#                    peer_bytes, oom_fallbacks, plan and ooc, bit for bit,
#                    or the run's error, over fixed P1-P4, the baseline
#                    hybrid, a hand-set model hybrid picking at least two
#                    policies per matrix and a mixed oracle table, both P4
#                    transfer plans, drain and pipelined at 1/2/4 devices,
#                    three matrices, on the paper node, a 2 000-byte device
#                    and a CPU-only node, in core and under budgets at
#                    min_feasible_budget and halfway to in core; the plan
#                    records the P2-loses / P4-wins rehearsals it ran
#   keep_update_path_is_bitwise_identical_to_download_path
#                    the keep rule (update downloads dropped, the device
#                    buffer exported) lands the download path's bytes and
#                    exports the exact device update, P2/P3/P4 both plans
#   estimate_matches_real_execution_time
#                    estimate_fu_time == the f32 run with data, bit for bit,
#                    every policy, both P4 transfer plans, five front shapes
#                    (fused small, root, mid, large), both through the lane's
#                    run_front
#   leaf_min_degree  minimum degree on bit rows == the quotient graph's order, every ND leaf
#   column_counts_match  near-linear column counts == the row-subtree walk, at 1/2/4/8 workers
#   forest_postorder  the one postorder layout: subtrees nested, children and roots ascending; a forest with a parent numbered before its child panics
#   a_nnz_counts     each supernode's recorded entry count == the permuted matrix's in its columns
#   refactor_on_a_reused  refactors on one machine report a fresh solver's clock and gpu stats
#   parallel_factor_never_writes  a 2-worker factor leaves the process kernel cap alone
#   one_plan_        the parallel entry's simulated fields == factor_permuted's and rehearse's, 1/2/4 workers x 8 repeats;
#                    its first machine left as the serial run leaves its machine (clock, empty device, utilization),
#                    the others untouched: its range tasks own their panels and run on twins
#   unlike_machines  the parallel entry refuses machines unlike its first before any clock moves
#   panicking_task   a task panicking on the caller's or a spawned worker thread panics out of Runtime::run, never hangs, and stops the tree
echo "==> named suites (counted, default + single test thread)"
while read -r target filter expected; do
  case $target in
    */lib) args=(-p "${target%/lib}" --lib) ;;
    */*) args=(-p "${target%%/*}" --test "${target#*/}") ;;
    *) args=(--test "$target") ;;
  esac
  for t in "" "RUST_TEST_THREADS=1"; do
    out=$(env $t cargo test --release "${args[@]}" "$filter" 2>&1) || {
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
determinism analysis_ 6
determinism numeric_ 1
determinism multigpu_ 3
determinism ooc_ 4
determinism sim_clock 4
determinism driver_errors 2
property ooc_ 1
property gpusim_ 3
mf-core/lib ooc:: 4
property symbolic_flat 1
property bottom_subtrees 1
property subtree_tasks 1
property ordering_quality 2
property postorder_ 1
mf-core/lib two_buffer 2
mf-core/lib in_flight_ 2
mf-dense/ld_invariance output_leading_dimension 1
mf-dense/lib factor_front_small_is_bitwise 1
mf-dense/lib panel_sweeps 2
mf-core/lib bitwise_sweeps 2
mf-core/solve_alloc solve_allocations 1
determinism exec_plan 1
mf-core/lib exec_plan 1
mf-gpusim/lib time_split 3
mf-sparse/lib pseudo_peripheral_from_components 1
mf-sparse/lib range_tasks 1
mf-core/lib rehearsal_equals_the_run_it_predicts 1
mf-core/lib keep_update_path_is_bitwise_identical_to_download_path 1
mf-core/lib estimate_matches_real_execution_time 1
mf-sparse/lib leaf_min_degree 1
mf-sparse/lib column_counts_match 1
mf-sparse/lib forest_postorder 1
mf-sparse/lib a_nnz_counts 1
mf-core/lib refactor_on_a_reused 1
mf-core/kernel_width parallel_factor_never_writes 1
determinism one_plan_ 1
determinism unlike_machines 1
mf-runtime/lib panicking_task 1
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
