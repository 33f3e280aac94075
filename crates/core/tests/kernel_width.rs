//! The parallel factor scopes each task's kernel width to the task's thread
//! and leaves the process-wide dense-kernel cap alone.
//!
//! A thread polling `mf_dense::num_threads()` while a 2-worker factorization
//! runs must read the cap the process set, and two overlapping runs must
//! leave `thread_cap()` where it was. This file is its own test binary
//! because the cap is process-wide: no other test may set it meanwhile.

use mf_core::{analyze, factor_permuted_parallel, Analysis, FactorOptions, ParallelOptions};
use mf_gpusim::Machine;
use mf_matgen::{laplacian_3d, Stencil};
use mf_sparse::{AmalgamationOptions, OrderingKind};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A cap no task of a 2-thread budget is ever granted.
const SENTINEL: usize = 7;

/// The analysis of the 27-point Laplacian on an `n³` grid.
fn cube(n: usize) -> Analysis {
    let a = laplacian_3d(n, n, n, Stencil::Full);
    analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default())).unwrap()
}

/// Factor `an`'s matrix at 2 workers, thread budget 2.
fn factor_at_two_workers(an: &Analysis) {
    let mut machines = [Machine::paper_node(), Machine::paper_node()];
    let par = ParallelOptions { thread_budget: 2 };
    let opts = FactorOptions::default();
    factor_permuted_parallel(&an.permuted.0, &an.symbolic, &an.perm, &mut machines, &opts, &par)
        .unwrap();
}

#[test]
fn parallel_factor_never_writes_the_process_kernel_cap() {
    let (small, medium, large) = (cube(12), cube(14), cube(16));
    mf_dense::set_num_threads(SENTINEL);

    // A poller on its own thread sees the process cap throughout a run.
    let (done, polls, other) = (AtomicBool::new(false), AtomicUsize::new(0), AtomicUsize::new(0));
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let n = mf_dense::num_threads();
                if n != SENTINEL {
                    other.store(n, Ordering::Relaxed);
                }
                polls.fetch_add(1, Ordering::Relaxed);
            }
        });
        while polls.load(Ordering::Relaxed) == 0 {
            std::hint::spin_loop();
        }
        factor_at_two_workers(&medium);
        done.store(true, Ordering::Release);
    });
    assert_eq!(other.load(Ordering::Relaxed), 0, "a poller read another thread's task width");
    assert!(polls.load(Ordering::Relaxed) > 1);

    // Two overlapping runs: the second starts once the first is under way
    // (its first task has set a width, if the cap moves at all) and runs
    // longer, so it ends last.
    let (small, large) = (&small, &large);
    for _ in 0..3 {
        std::thread::scope(|s| {
            let started = Instant::now();
            s.spawn(|| factor_at_two_workers(small));
            s.spawn(move || {
                while mf_dense::thread_cap() == SENTINEL
                    && started.elapsed() < Duration::from_millis(5)
                {
                    std::hint::spin_loop();
                }
                factor_at_two_workers(large);
            });
        });
        assert_eq!(mf_dense::thread_cap(), SENTINEL, "overlapping runs moved the process cap");
    }
}
