//! Nested-parallelism arbitration between the tree runtime and the dense
//! engine's column-slab threading.
//!
//! Near the leaves of the elimination tree many small fronts run
//! concurrently and each should keep its dense kernels single-threaded;
//! near the root one huge front runs alone and should take every hardware
//! thread inside the kernel. [`ThreadBudget`] implements that hand-off with
//! one shared counter: a task entering execution takes a [`BudgetLease`] on
//! a slot and receives `max(1, total / active)` kernel threads, so the *sum*
//! of kernel widths never exceeds the budget by more than the rounding slack
//! — no oversubscription when a root front runs under a busy pool. The slot
//! goes back when the lease drops, the task's unwind included.
//!
//! Widths may vary run to run (they depend on how many tasks happen to be
//! in flight), which is safe because the dense engine is bitwise
//! deterministic at every thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A shared hardware-thread budget split between concurrently running tasks.
#[derive(Debug)]
pub struct ThreadBudget {
    total: usize,
    active: AtomicUsize,
}

impl ThreadBudget {
    /// A budget of `total` hardware threads (clamped to at least 1).
    pub fn new(total: usize) -> Self {
        ThreadBudget { total: total.max(1), active: AtomicUsize::new(0) }
    }

    /// The total budget.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Currently running tasks.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Enter a task: claim a slot, held until the returned lease drops —
    /// on unwind too, so a task that dies never shrinks every later task's
    /// kernel width. The lease carries the width this task may use.
    pub fn lease(&self) -> BudgetLease<'_> {
        let running = self.active.fetch_add(1, Ordering::AcqRel) + 1;
        BudgetLease { budget: self, width: (self.total / running).max(1) }
    }
}

/// A held slot of a [`ThreadBudget`]; see [`ThreadBudget::lease`].
#[derive(Debug)]
pub struct BudgetLease<'a> {
    budget: &'a ThreadBudget,
    width: usize,
}

impl BudgetLease<'_> {
    /// The kernel-thread width granted to this task.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl Drop for BudgetLease<'_> {
    fn drop(&mut self) {
        self.budget.active.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_task_gets_the_whole_budget() {
        let b = ThreadBudget::new(8);
        assert_eq!(b.lease().width(), 8);
        assert_eq!(b.active(), 0);
    }

    #[test]
    fn concurrent_tasks_split_the_budget() {
        let b = ThreadBudget::new(8);
        // 1, 2, 3 and 4 active: 8/3 rounds down to 2.
        let leases: Vec<_> = (0..4).map(|_| b.lease()).collect();
        assert_eq!(leases.iter().map(BudgetLease::width).collect::<Vec<_>>(), [8, 4, 2, 2]);
        drop(leases);
        assert_eq!(b.active(), 0);
    }

    #[test]
    fn width_never_drops_below_one() {
        let b = ThreadBudget::new(2);
        let leases: Vec<_> = (0..5).map(|_| b.lease()).collect();
        assert!(leases.iter().all(|l| l.width() >= 1));
        assert_eq!(b.active(), 5);
    }

    #[test]
    fn lease_releases_on_drop_and_on_unwind() {
        let b = ThreadBudget::new(8);
        {
            let l1 = b.lease();
            assert_eq!(l1.width(), 8);
            let l2 = b.lease();
            assert_eq!(l2.width(), 4);
            assert_eq!(b.active(), 2);
        }
        assert_eq!(b.active(), 0, "both leases must release on scope exit");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _l = b.lease();
            panic!("worker died mid-task");
        }));
        assert!(caught.is_err());
        assert_eq!(b.active(), 0, "a panicking holder must still release its slot");
    }

    #[test]
    fn zero_budget_clamps_to_one() {
        let b = ThreadBudget::new(0);
        assert_eq!(b.total(), 1);
        assert_eq!(b.lease().width(), 1);
    }
}
