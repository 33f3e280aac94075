//! The solve worker pool: drains session queues, batches pending RHS from
//! independent callers into one `solve_many` sweep, and scatters the
//! results back through each request's reply slot.
//!
//! ## Why batching is free accuracy-wise
//!
//! The solve path is RHS-count-invariant (PR 3): column `j` of a batched
//! `solve_many` is bitwise identical to a single-RHS solve of that column.
//! So the batch composition a request happens to land in — which depends on
//! arrival timing — can never change the answer a caller receives, only how
//! soon it arrives. `ServerConfig::validate_batches` re-solves every
//! request serially after the batched sweep and asserts exactly that.
//!
//! ## Why batching wins throughput-wise
//!
//! A batched sweep walks the factor's supernodal panels once for the whole
//! block and routes trailing updates through one multi-RHS GEMM per
//! supernode — 1.9–2.4× over per-request dispatch at 8–32 RHS when it was
//! measured (`benchmark/` tracks `core.solve_rhs8_s` against `core.solve_s`).
//! Aggregating *across callers* converts that kernel
//! win into service throughput.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mf_core::RefactorError;
use mf_gpusim::Machine;

use crate::cache::lock;
use crate::session::{Op, Session};
use crate::{Inner, ServeError, SubmitError};

/// What a worker pulled from a session queue in one claim.
enum Batch {
    /// A run of consecutive solve ops, batched into one sweep.
    Solves(Vec<Op>),
    /// A refactor, executed alone at its queue position.
    Refactor(Op),
    Empty,
}

/// Worker main loop: block on the ready queue, drain one session, repeat.
/// On shutdown, keeps draining until the ready queue is empty so accepted
/// requests are answered rather than dropped.
pub(crate) fn worker_loop(inner: Arc<Inner>) {
    loop {
        let sess = {
            let mut ready = lock(&inner.ready);
            loop {
                if let Some(s) = ready.pop_front() {
                    break Some(s);
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                ready = inner.ready_cv.wait(ready).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(sess) = sess else { return };
        service(&inner, &sess);
        // Re-arm: if the session accumulated more work while we drained it,
        // put it back so another (or this) worker picks it up.
        let rearm = {
            let mut q = lock(&sess.q);
            q.in_service = false;
            if !q.ops.is_empty() && !q.scheduled {
                q.scheduled = true;
                true
            } else {
                false
            }
        };
        if rearm {
            lock(&inner.ready).push_back(sess);
            inner.ready_cv.notify_one();
        }
    }
}

/// Claim a batch from the session under its queue lock: either the leading
/// refactor, or the longest run of solves whose combined RHS count stays
/// within the batching window (a first op wider than the window still runs,
/// alone — the window shapes batches, it does not reject work).
fn claim(sess: &Session, window: usize) -> Batch {
    let mut q = lock(&sess.q);
    q.scheduled = false;
    q.in_service = true;
    match q.ops.front() {
        None => Batch::Empty,
        Some(Op::Refactor { .. }) => Batch::Refactor(q.ops.pop_front().expect("front exists")),
        Some(Op::Solve { .. }) => {
            let mut ops = Vec::new();
            let mut total = 0usize;
            while let Some(Op::Solve { nrhs, .. }) = q.ops.front() {
                if !ops.is_empty() && total + nrhs > window {
                    break;
                }
                total += nrhs;
                ops.push(q.ops.pop_front().expect("front exists"));
            }
            Batch::Solves(ops)
        }
    }
}

/// Serve exactly one batch (or one refactor) per claim, then hand the
/// session back to the ready queue — round-robin across sessions, so one
/// deep queue cannot starve every other tenant.
fn service(inner: &Arc<Inner>, sess: &Arc<Session>) {
    match claim(sess, inner.cfg.max_batch_rhs) {
        Batch::Empty => {}
        Batch::Refactor(op) => run_refactor(inner, sess, op),
        Batch::Solves(ops) => run_solves(inner, sess, ops),
    }
}

fn run_refactor(inner: &Arc<Inner>, sess: &Arc<Session>, op: Op) {
    let Op::Refactor { a, reply } = op else { unreachable!("claim returned a refactor") };
    let mut machine = Machine::paper_node();
    let result = {
        let mut solver = lock(&sess.solver);
        solver.refactor(&a, &mut machine).map_err(|e| match e {
            RefactorError::PatternMismatch => SubmitError::PatternMismatch,
            RefactorError::Factor(f) => SubmitError::Factor(f),
        })
    };
    inner.stats.refactors.fetch_add(1, Ordering::Relaxed);
    sess.touch(inner.tick());
    inner.pending_ops.fetch_sub(1, Ordering::AcqRel);
    reply.put(result);
}

fn run_solves(inner: &Arc<Inner>, sess: &Arc<Session>, ops: Vec<Op>) {
    let n = sess.n;
    let total: usize = ops
        .iter()
        .map(|op| match op {
            Op::Solve { nrhs, .. } => *nrhs,
            Op::Refactor { .. } => unreachable!("claim batches only solves"),
        })
        .sum();
    let mut block = Vec::with_capacity(n * total);
    for op in &ops {
        if let Op::Solve { b, .. } = op {
            block.extend_from_slice(b);
        }
    }

    // Width arbitration: the lease splits the hardware-thread budget with
    // every other in-flight batch, so concurrent sessions each solve
    // narrow while a lone batch takes the whole machine.
    let lease = inner.budget.lease();
    let (result, serial_check) = {
        let solver = lock(&sess.solver);
        let result = if lease.width() > 1 {
            solver.solve_many_parallel(&block, total, lease.width())
        } else {
            solver.solve_many(&block, total)
        };
        // In validation mode, re-solve each request on its own while the
        // solver lock is still held (a refactor must not slip between the
        // batched sweep and its per-request reference answers).
        let serial_check = if inner.cfg.validate_batches && result.is_ok() {
            let mut refs = Vec::with_capacity(ops.len());
            for op in &ops {
                if let Op::Solve { b, nrhs, .. } = op {
                    refs.push(solver.solve_many(b, *nrhs));
                }
            }
            Some(refs)
        } else {
            None
        };
        (result, serial_check)
    };
    drop(lease);

    inner.stats.batches.fetch_add(1, Ordering::Relaxed);
    inner.stats.solved_rhs.fetch_add(total as u64, Ordering::Relaxed);
    inner.stats.max_batch_rhs.fetch_max(total as u64, Ordering::Relaxed);
    sess.touch(inner.tick());

    match result {
        Ok(x) => {
            if let Some(refs) = serial_check {
                let mut off = 0usize;
                for (op, serial) in ops.iter().zip(refs) {
                    if let Op::Solve { nrhs, .. } = op {
                        let cols = n * nrhs;
                        let serial = serial.expect("admission-validated request re-solves");
                        let batched = &x[off..off + cols];
                        assert!(
                            batched.iter().zip(&serial).all(|(p, q)| p.to_bits() == q.to_bits()),
                            "batched answer diverged bitwise from the per-request serial solve"
                        );
                        off += cols;
                    }
                }
            }
            let mut off = 0usize;
            for op in ops {
                if let Op::Solve { nrhs, reply, .. } = op {
                    let cols = n * nrhs;
                    reply.put(Ok(x[off..off + cols].to_vec()));
                    off += cols;
                    inner.pending_ops.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
        Err(e) => {
            // Unreachable for admission-validated requests, but a server
            // degrades gracefully rather than trusting that.
            for op in ops {
                if let Op::Solve { reply, .. } = op {
                    reply.put(Err(ServeError::Invalid(e)));
                    inner.pending_ops.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
    }
}
