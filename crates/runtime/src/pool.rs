//! The worker pool: one monitor — a mutex over the run's ready stack and
//! bookkeeping, and a condvar idle workers wait on — and the run loop that
//! drives a [`TaskGraph`] to completion.

use crate::graph::TaskGraph;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What the workers of one run share, all of it behind one lock.
struct Shared<E> {
    /// Released tasks no worker has started, the most recent on top.
    ready: Vec<usize>,
    /// Tasks that returned `Ok`.
    completed: usize,
    /// Set by the first error or a panicking task: no task starts after it.
    abort: bool,
    /// Every `(task, error)` returned before the stop.
    errors: Vec<(usize, E)>,
}

/// The run's shared state and the condvar idle workers wait on. Every
/// change a waiter could be waiting for — a task pushed, the last
/// completion, an abort — is made under the lock and notified, so no wake
/// can be lost and no wait needs a timeout.
struct Monitor<E> {
    shared: Mutex<Shared<E>>,
    wake: Condvar,
}

impl<E> Monitor<E> {
    /// No task runs under the lock, and a worker that panics sets `abort` on
    /// its way out, so a poisoned state is still one to read and stop on.
    fn lock(&self) -> MutexGuard<'_, Shared<E>> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Sets the abort flag if the worker unwinds out of a task, so the other
/// workers stop instead of waiting forever for a completion count that will
/// never arrive.
struct AbortOnPanic<'a, E>(&'a Monitor<E>);

impl<E> Drop for AbortOnPanic<'_, E> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().abort = true;
            self.0.wake.notify_all();
        }
    }
}

/// A task runtime with a fixed worker count.
#[derive(Debug, Clone, Copy)]
pub struct Runtime {
    workers: usize,
}

impl Runtime {
    /// A runtime with `workers` worker threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Runtime { workers: workers.max(1) }
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute every task of `graph` in dependency order.
    ///
    /// `states` supplies one mutable per-worker context (scratch arenas,
    /// clocks, record buffers, …) and must have exactly [`Self::workers`]
    /// entries; the vector is returned after the run for the caller to
    /// harvest. `task(state, id)` runs each task; the runtime guarantees a
    /// task starts only after all of its prerequisites returned `Ok`, with
    /// their writes visible (every completion and every start of a task is
    /// ordered by the run's one lock).
    ///
    /// Scheduling: one ready stack, seeded with the initial ready set (tasks
    /// with no prerequisites) so that the lowest id is popped first. A worker
    /// that finishes a task runs the first dependent it released next,
    /// itself — the parent runs where its last child's update is hot — and
    /// pushes any further released dependents onto the stack, waking one
    /// idle worker for each. An idle worker pops the top of the stack, or
    /// waits on the run's condvar until there is something to pop or
    /// nothing left to do.
    ///
    /// Errors abort the run: no new task starts after the first `Err`, and
    /// every `(task, error)` observed before the stop is returned (an empty
    /// vector means success). More than one error can be reported because
    /// in-flight tasks on other workers run to completion. A panicking task
    /// stops the run the same way, and the panic propagates out of `run`.
    ///
    /// The calling thread participates as worker 0 — only `workers - 1`
    /// threads are spawned, so a 1-worker runtime degenerates to a plain
    /// loop on the caller's thread (no spawn, warm allocator arenas).
    pub fn run<S, E, F>(
        &self,
        graph: &TaskGraph,
        states: Vec<S>,
        task: F,
    ) -> (Vec<S>, Vec<(usize, E)>)
    where
        S: Send,
        E: Send,
        F: Fn(&mut S, usize) -> Result<(), E> + Sync,
    {
        assert_eq!(states.len(), self.workers, "one state per worker required");
        let n = graph.len();
        if n == 0 {
            return (states, Vec::new());
        }
        // Reversed, so the stack pops the lowest id first: one worker runs a
        // postordered tree's tasks in id order.
        let mut ready = graph.initial_ready();
        ready.reverse();
        let monitor = Monitor {
            shared: Mutex::new(Shared { ready, completed: 0, abort: false, errors: Vec::new() }),
            wake: Condvar::new(),
        };

        let worker = |state: &mut S| {
            let _guard = AbortOnPanic(&monitor);
            let mut next = None;
            let mut shared = monitor.lock();
            loop {
                let t = loop {
                    if shared.abort || shared.completed == n {
                        return;
                    }
                    if let Some(t) = next.take().or_else(|| shared.ready.pop()) {
                        break t;
                    }
                    shared = monitor.wake.wait(shared).unwrap_or_else(PoisonError::into_inner);
                };
                drop(shared);
                let result = task(state, t);
                shared = monitor.lock();
                match result {
                    Ok(()) => {
                        shared.completed += 1;
                        let mut released =
                            graph.dependents(t).iter().copied().filter(|&d| graph.complete_one(d));
                        next = released.next();
                        for d in released {
                            shared.ready.push(d);
                            monitor.wake.notify_one();
                        }
                        if shared.completed == n {
                            monitor.wake.notify_all();
                        }
                    }
                    Err(e) => {
                        shared.errors.push((t, e));
                        shared.abort = true;
                        monitor.wake.notify_all();
                    }
                }
            }
        };

        let mut states = states;
        let mut state0 = states.remove(0);
        let states = std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .into_iter()
                .map(|mut st| {
                    let worker = &worker;
                    scope.spawn(move || {
                        worker(&mut st);
                        st
                    })
                })
                .collect();
            worker(&mut state0);
            let mut all = Vec::with_capacity(self.workers);
            all.push(state0);
            all.extend(handles.into_iter().map(|h| h.join().expect("worker thread panicked")));
            all
        });

        (states, monitor.shared.into_inner().unwrap_or_else(PoisonError::into_inner).errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    fn chain(n: usize) -> TaskGraph {
        // 0 ← 1 ← 2 ← … (each task depends on the previous one).
        let mut g = TaskGraph::new(n);
        for t in 1..n {
            g.add_dependency(t, t - 1);
        }
        g
    }

    fn binary_tree(levels: u32) -> (TaskGraph, Vec<usize>) {
        // Heap-indexed complete binary tree: node 0 is the root, children of
        // i are 2i+1, 2i+2; parents[] in elimination-tree convention.
        let n = (1usize << levels) - 1;
        let parents: Vec<usize> =
            (0..n).map(|i| if i == 0 { usize::MAX } else { (i - 1) / 2 }).collect();
        (TaskGraph::from_parents(&parents), parents)
    }

    #[test]
    fn executes_every_task_once_respecting_dependencies() {
        for workers in [1, 2, 4, 8] {
            let (g, parents) = binary_tree(7); // 127 tasks
            let n = g.len();
            let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
            let rt = Runtime::new(workers);
            let states = vec![(); workers];
            let (_, errs) = rt.run(&g, states, |_, t| -> Result<(), ()> {
                // Children of t (if any) must already be done.
                for (c, &p) in parents.iter().enumerate() {
                    if p == t {
                        assert!(done[c].load(Ordering::Acquire), "child {c} of {t} not done");
                    }
                }
                assert!(!done[t].swap(true, Ordering::AcqRel), "task {t} ran twice");
                Ok(())
            });
            assert!(errs.is_empty());
            assert!(done.iter().all(|d| d.load(Ordering::Relaxed)), "{workers} workers");
        }
    }

    #[test]
    fn chain_serialises_on_any_worker_count() {
        let g = chain(200);
        let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let rt = Runtime::new(4);
        let (_, errs) = rt.run(&g, vec![(); 4], |_, t| -> Result<(), ()> {
            order.lock().unwrap().push(t);
            Ok(())
        });
        assert!(errs.is_empty());
        assert_eq!(*order.lock().unwrap(), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn per_worker_state_is_private_and_returned() {
        let (g, _) = binary_tree(6);
        let rt = Runtime::new(3);
        let (states, errs) = rt.run(&g, vec![0usize; 3], |count, _| -> Result<(), ()> {
            *count += 1;
            Ok(())
        });
        assert!(errs.is_empty());
        assert_eq!(states.iter().sum::<usize>(), g.len(), "every task counted exactly once");
    }

    #[test]
    fn error_aborts_and_reports_the_task() {
        let (g, _) = binary_tree(8);
        let ran = AtomicUsize::new(0);
        let rt = Runtime::new(4);
        let (_, errs) = rt.run(&g, vec![(); 4], |_, t| {
            ran.fetch_add(1, Ordering::Relaxed);
            if t == 17 {
                Err("boom")
            } else {
                Ok(())
            }
        });
        assert!(errs.iter().any(|(t, e)| *t == 17 && *e == "boom"));
        // The root (task 0, which depends on everything) must never run.
        assert!(ran.load(Ordering::Relaxed) < g.len(), "abort must cut the run short");
    }

    #[test]
    fn panicking_task_propagates_out_of_run_and_the_root_never_runs() {
        // A leaf panics on the caller's thread (worker 0), or on a spawned
        // worker: `run` must panic — neither hang nor return — and the root,
        // which depends on every task, must never start.
        for (workers, on_caller) in [(1, true), (2, true), (4, true), (2, false), (4, false)] {
            let (g, _) = binary_tree(7);
            let caller = std::thread::current().id();
            let panicked = (Mutex::new(false), Condvar::new());
            let root_ran = AtomicBool::new(false);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                Runtime::new(workers).run(&g, vec![(); workers], |_, t| -> Result<(), ()> {
                    root_ran.fetch_or(t == 0, Ordering::Relaxed);
                    if (std::thread::current().id() == caller) == on_caller {
                        *panicked.0.lock().unwrap() = true;
                        panicked.1.notify_all();
                        panic!("task {t} panics");
                    }
                    // Every other task waits for the panic, so a worker of
                    // the other kind surely gets a task of its own.
                    let seen = panicked.0.lock().unwrap();
                    let wait = Duration::from_secs(10);
                    drop(panicked.1.wait_timeout_while(seen, wait, |p| !*p).unwrap());
                    Ok(())
                })
            }));
            assert!(outcome.is_err(), "{workers} workers, on caller {on_caller}: run returned");
            assert!(*panicked.0.lock().unwrap(), "{workers} workers: no task panicked");
            assert!(!root_ran.load(Ordering::Relaxed), "{workers} workers: the root ran");
        }
    }

    #[test]
    fn park_wake_storm_stays_live() {
        // Alternating wide/narrow rounds: W parallel tasks funnel into a
        // single gate task that releases the next round, so most workers
        // wait at every gate and must be woken by whichever worker runs it.
        // Idle workers wait without a timeout, so one lost wake hangs this
        // test (CI runs the suite under `timeout`). Correctness (every task
        // exactly once, in round order) is asserted directly.
        let (rounds, width, workers) = (200usize, 4usize, 4usize);
        let n = rounds * (width + 1);
        let mut g = TaskGraph::new(n);
        let id = |r: usize, j: usize| r * (width + 1) + j; // j == width is the gate
        for r in 0..rounds {
            for j in 0..width {
                if r > 0 {
                    g.add_dependency(id(r, j), id(r - 1, width));
                }
                g.add_dependency(id(r, width), id(r, j));
            }
        }
        let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let rt = Runtime::new(workers);
        let (_, errs) = rt.run(&g, vec![(); workers], |_, t| -> Result<(), ()> {
            let (r, j) = (t / (width + 1), t % (width + 1));
            if j == width {
                for jj in 0..width {
                    assert!(done[id(r, jj)].load(Ordering::Acquire), "gate {r} ran early");
                }
            } else if r > 0 {
                assert!(done[id(r - 1, width)].load(Ordering::Acquire), "round {r} ran early");
            }
            assert!(!done[t].swap(true, Ordering::AcqRel), "task {t} ran twice");
            Ok(())
        });
        assert!(errs.is_empty());
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed)));
    }

    #[test]
    fn empty_graph_is_a_no_op() {
        let g = TaskGraph::new(0);
        let rt = Runtime::new(2);
        let (states, errs) = rt.run(&g, vec![1u8, 2u8], |_, _| -> Result<(), ()> { Ok(()) });
        assert!(errs.is_empty());
        assert_eq!(states, vec![1, 2]);
    }
}
