//! The worker pool: per-worker Chase–Lev deques, a sleep/wake parker, and
//! the run loop that drives a [`TaskGraph`] to completion.

use crate::deque::{Steal, TaskDeque};
use crate::graph::TaskGraph;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How long an idle worker sleeps before re-scanning on its own. Wakeups
/// are delivered reliably (the SeqCst handshake in [`Parker`] closes the
/// historical store-load race), so the timeout is pure paranoia against
/// bugs elsewhere — it can afford to be long. The old 500 µs value papered
/// over missed wakes with busy re-scans, which burned a core per idle
/// worker on expansion-heavy graphs.
const PARK_TIMEOUT: Duration = Duration::from_millis(5);

/// Epoch-based sleep/wake coordination for idle workers.
///
/// A worker reads the epoch, scans every deque, and parks only if the epoch
/// is still unchanged — any wake-worthy event (task release or expansion,
/// abort, last completion) bumps the epoch first.
///
/// The wake path is a classic two-flag (Dekker-style) handshake: the parker
/// publishes `sleepers += 1` then reads `epoch`; the waker publishes
/// `epoch += 1` then reads `sleepers`. Both sides' operations are `SeqCst`,
/// so at least one of them observes the other — a missed wake would need
/// the parker to read the pre-bump epoch *and* the waker to read the
/// pre-increment sleeper count, which the total `SeqCst` order forbids.
/// Release/acquire alone is not enough: each thread's load could hoist
/// above its own store, and the wait would silently fall back to the
/// safety timeout.
#[derive(Debug, Default)]
struct Parker {
    epoch: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parker {
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bump the epoch and wake every parked worker.
    fn wake_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders the notify after any in-progress
            // check-then-wait transition.
            let _g = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    /// Park until the epoch moves past `seen` (or the safety timeout).
    fn park(&self, seen: u64) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        {
            let g = self.lock.lock().unwrap();
            if self.epoch.load(Ordering::SeqCst) == seen {
                let _ = self.cv.wait_timeout(g, PARK_TIMEOUT).unwrap();
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Sets the abort flag if the worker unwinds out of a task, so the other
/// workers stop instead of waiting forever for a completion count that will
/// never arrive.
struct AbortOnPanic<'a> {
    abort: &'a AtomicBool,
    parker: &'a Parker,
}

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.abort.store(true, Ordering::Release);
            self.parker.wake_all();
        }
    }
}

/// A work-stealing runtime with a fixed worker count.
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
    /// their writes visible (release/acquire on the dependency counters).
    ///
    /// Scheduling: the initial ready set (tasks with no prerequisites) is
    /// dealt round-robin across the worker deques in ascending id order;
    /// each completion pushes newly released tasks onto the completing
    /// worker's own deque (bottom, LIFO — depth-first into the tree, the
    /// cache-friendly order); idle workers steal from the top (FIFO —
    /// breadth-first, the load-balancing order).
    ///
    /// Errors abort the run: no new task starts after the first `Err`, and
    /// every `(task, error)` observed before the stop is returned (an empty
    /// vector means success). More than one error can be reported because
    /// in-flight tasks on other workers run to completion.
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
        let nw = self.workers;
        // Each deque is sized to the whole graph: a task is pushed at most
        // once overall, so no deque can ever see more than `n` pushes —
        // the no-wraparound precondition of `TaskDeque`; no deque ever
        // grows or spills.
        let deques: Vec<TaskDeque> = (0..nw).map(|_| TaskDeque::new(n)).collect();
        for (i, t) in graph.initial_ready().into_iter().enumerate() {
            deques[i % nw].push(t);
        }

        let completed = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let parker = Parker::default();
        let errors: Mutex<Vec<(usize, E)>> = Mutex::new(Vec::new());

        let find_task = |w: usize| -> Option<usize> {
            if let Some(t) = deques[w].pop() {
                return Some(t);
            }
            for i in 1..nw {
                let d = &deques[(w + i) % nw];
                loop {
                    match d.steal() {
                        Steal::Task(t) => return Some(t),
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => break,
                    }
                }
            }
            None
        };

        let worker = |w: usize, state: &mut S| {
            let _guard = AbortOnPanic { abort: &abort, parker: &parker };
            loop {
                if abort.load(Ordering::Acquire) || completed.load(Ordering::Acquire) == n {
                    return;
                }
                // Read the epoch *before* the scan so a release that lands
                // mid-scan prevents the park below.
                let epoch = parker.epoch();
                let Some(t) = find_task(w) else {
                    if abort.load(Ordering::Acquire) || completed.load(Ordering::Acquire) == n {
                        return;
                    }
                    parker.park(epoch);
                    continue;
                };
                match task(state, t) {
                    Ok(()) => {
                        for &dep in graph.dependents(t) {
                            if graph.complete_one(dep) {
                                deques[w].push(dep);
                                parker.wake_all();
                            }
                        }
                        if completed.fetch_add(1, Ordering::AcqRel) + 1 == n {
                            parker.wake_all();
                        }
                    }
                    Err(e) => {
                        errors.lock().unwrap().push((t, e));
                        abort.store(true, Ordering::Release);
                        parker.wake_all();
                    }
                }
            }
        };

        let mut states = states;
        let mut state0 = states.remove(0);
        let states = std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .into_iter()
                .enumerate()
                .map(|(i, st)| {
                    let worker = &worker;
                    scope.spawn(move || {
                        let mut st = st;
                        worker(i + 1, &mut st);
                        st
                    })
                })
                .collect();
            worker(0, &mut state0);
            let mut all = Vec::with_capacity(nw);
            all.push(state0);
            all.extend(handles.into_iter().map(|h| h.join().expect("worker thread panicked")));
            all
        });

        (states, errors.into_inner().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

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
    fn park_wake_storm_stays_live() {
        // Alternating wide/narrow rounds: W parallel tasks funnel into a
        // single gate task that releases the next round, so most workers
        // park at every gate and must be woken by whichever worker runs it.
        // A lost wake costs a full PARK_TIMEOUT per occurrence; systematic
        // loss would stall this test into its harness timeout. Correctness
        // (every task exactly once, in round order) is asserted directly.
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
