//! The solve sweeps allocate per solve, never per supernode.
//!
//! A counting global allocator (per thread, so the test harness's own
//! threads do not count) sees every allocation `solve_many` makes. The
//! count must not depend on the matrix: the permuted right-hand-side block,
//! the result, the subtrahend stack and the gathered update rows are sized
//! once from the symbolic bounds, and no kernel allocates scratch. This file
//! is its own test binary because a `#[global_allocator]` is process-wide.

use mf_core::{analyze, factor_permuted, CholeskyFactor, FactorOptions};
use mf_dense::Scalar;
use mf_gpusim::Machine;
use mf_matgen::{laplacian_2d, Stencil};
use mf_sparse::{AmalgamationOptions, OrderingKind, SymCsc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn plate_factor<T: Scalar>(side: usize) -> CholeskyFactor<T> {
    let a = laplacian_2d(side, side, Stencil::Full);
    let an =
        analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default())).unwrap();
    let at: SymCsc<T> = an.permuted.0.cast();
    let mut machine = Machine::paper_node();
    factor_permuted(&at, &an.symbolic, &an.perm, &mut machine, &FactorOptions::default()).unwrap().0
}

/// Allocations of one `solve_many` of `nrhs` right-hand sides.
fn solve_allocations<T: Scalar>(f: &CholeskyFactor<T>, nrhs: usize) -> usize {
    let b = vec![T::ONE; f.order() * nrhs];
    let before = ALLOCATIONS.with(Cell::get);
    let x = f.solve_many(&b, nrhs);
    let count = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(x.len(), b.len());
    count
}

fn check<T: Scalar>() {
    let (small, large) = (plate_factor::<T>(60), plate_factor::<T>(120));
    assert!(large.symbolic.num_supernodes() > 3 * small.symbolic.num_supernodes());
    for nrhs in [1, 3, 8, 17] {
        let (s, l) = (solve_allocations(&small, nrhs), solve_allocations(&large, nrhs));
        assert_eq!(s, l, "{} nrhs={nrhs}: {s} allocations on the 60² plate, {l} on 120²", T::NAME);
    }
}

#[test]
fn solve_allocations_do_not_grow_with_the_matrix() {
    check::<f64>();
    check::<f32>();
}
