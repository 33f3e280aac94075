//! # mf-server — multi-tenant solver-as-a-service over the multifrontal stack
//!
//! The repository's numeric layers end at a fast, refactorizable,
//! batch-capable [`SpdSolver`]; this crate is the front door that turns
//! those per-call wins into *service throughput* for many independent
//! callers:
//!
//! * **Pattern-keyed analysis caching** — submissions are fingerprinted by
//!   sparsity structure ([`mf_sparse::SymCsc::fingerprint`]); a same-pattern
//!   submission (gated authoritatively by `same_pattern`) skips the entire
//!   symbolic phase and goes straight to numeric factorization, exactly the
//!   work split [`SpdSolver::refactor`] exploits within one session.
//! * **Cross-request RHS batching** — solve requests from independent
//!   callers against the same factor are aggregated into one blocked
//!   `solve_many` sweep (up to [`ServerConfig::max_batch_rhs`] columns) and
//!   scattered back per caller. The solve path is RHS-count-invariant, so
//!   every caller's answer is bitwise identical to a per-request serial
//!   solve — batching changes *when* an answer arrives, never *what* it is.
//! * **Admission control and backpressure** — the global op queue is
//!   bounded ([`ServerConfig::queue_depth`]); excess load is rejected with
//!   [`ServeError::Overloaded`] instead of growing without bound, malformed
//!   requests are rejected at admission with the typed
//!   [`mf_core::SolveError`], and solve width is arbitrated through the
//!   shared [`mf_runtime::ThreadBudget`].
//! * **Per-tenant memory accounting** — each session is charged its
//!   symbolic working-storage-bound footprint
//!   ([`mf_core::estimated_memory_bytes`]); a tenant over budget has idle
//!   sessions evicted LRU, and a submission that cannot fit even then is
//!   rejected with [`SubmitError::BudgetExceeded`]. Sessions configured
//!   with a factor memory budget spill to host/disk tiers instead of
//!   holding the bound resident, so the same estimate reserves only the
//!   cap; a cap too small for the largest front is rejected at admission
//!   with the typed [`mf_core::FactorError::BudgetTooSmall`].
//!
//! ## Consistency model
//!
//! Per session, operations (solves and refactors) execute in submission
//! order, drained by one worker at a time; across sessions there is no
//! ordering. Every response is bitwise identical to the serial
//! single-request answer against the session's matrix at that queue
//! position.
//!
//! ## Quick start
//!
//! ```
//! use mf_core::{Precision, SolverOptions};
//! use mf_server::{Server, ServerConfig};
//!
//! let cfg = ServerConfig {
//!     solver: SolverOptions { precision: Precision::F64, ..Default::default() },
//!     ..Default::default()
//! };
//! let server = Server::start(cfg);
//! let a = mf_matgen::laplacian_3d(6, 6, 4, mf_matgen::Stencil::Faces);
//! let session = server.submit("tenant-a", &a).unwrap();
//! let b = mf_matgen::rhs_ones(&a);
//! let x = server.solve(session, b.clone()).unwrap();
//! let r = a.residual(&x, &b);
//! assert!(r.iter().all(|v| v.abs() < 1e-8));
//! ```

#![forbid(unsafe_code)]

mod cache;
mod session;
mod worker;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mf_core::{estimated_memory_bytes, FactorError, SolveError, SolverOptions, SpdSolver};
use mf_gpusim::Machine;
use mf_runtime::ThreadBudget;
use mf_sparse::symbolic::{analyze_parallel, Analysis, AnalyzeError, SymCscF64Holder};
use mf_sparse::SymCsc;

use cache::{lock, AnalysisCache};
use session::{OneShot, Op, Session, SessionQueue};

pub use session::{RefactorTicket, SessionId, SolveTicket};

/// Server tuning knobs. The defaults are sized for tests and demos; a real
/// deployment should set `workers` to the core count and the budgets to the
/// machine's memory.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Solver options (ordering, amalgamation, policy, precision) applied
    /// to every submission — also part of what makes cached analyses
    /// reusable, since analysis depends on the ordering choice.
    pub solver: SolverOptions,
    /// Solve worker threads (clamped to at least 1).
    pub workers: usize,
    /// Batching window: maximum RHS columns aggregated into one sweep.
    /// `1` disables cross-request batching (per-request dispatch).
    pub max_batch_rhs: usize,
    /// Global bound on queued-but-unfinished operations; excess solve
    /// traffic is rejected with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Entry budget of the pattern-keyed analysis cache (0 disables it).
    pub analysis_cache_entries: usize,
    /// Resident-byte budget per tenant (working-storage-bound accounting).
    pub tenant_memory_bytes: usize,
    /// Hardware-thread budget arbitrated across concurrent batch solves.
    pub thread_budget: usize,
    /// Re-solve every batched request serially and assert bitwise equality
    /// (test/CI mode; defeats the point of batching in production).
    pub validate_batches: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            solver: SolverOptions::default(),
            workers: 2,
            max_batch_rhs: 32,
            queue_depth: 1024,
            analysis_cache_entries: 16,
            tenant_memory_bytes: 256 << 20,
            thread_budget: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            validate_batches: false,
        }
    }
}

/// Rejection of a matrix submission or refactor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admitting this system would exceed the tenant's resident-memory
    /// budget even after evicting every idle session.
    BudgetExceeded {
        /// Bytes this submission needs (symbolic working-storage bound).
        required: usize,
        /// The tenant's configured budget.
        budget: usize,
        /// Bytes still resident after LRU eviction of idle sessions.
        resident: usize,
    },
    /// The symbolic analysis rejected the matrix at admission (e.g. a
    /// structurally missing diagonal) — hostile input must produce a typed
    /// rejection, never unwind a caller thread.
    Analyze(AnalyzeError),
    /// The numeric factorization failed (e.g. the matrix is not SPD).
    Factor(FactorError),
    /// A refactor's matrix pattern differs from the session's.
    PatternMismatch,
    /// The session was closed or evicted.
    SessionClosed,
    /// The refactor queue slot was refused by backpressure.
    Overloaded {
        /// The configured bound that was hit.
        queue_depth: usize,
    },
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::BudgetExceeded { required, budget, resident } => write!(
                f,
                "tenant memory budget exceeded: need {required} bytes, {resident} of {budget} \
                 already resident"
            ),
            SubmitError::Analyze(e) => write!(f, "analysis rejected the matrix: {e}"),
            SubmitError::Factor(e) => write!(f, "factorization failed: {e}"),
            SubmitError::PatternMismatch => {
                write!(f, "matrix pattern differs from the session's analyzed pattern")
            }
            SubmitError::SessionClosed => write!(f, "session closed or evicted"),
            SubmitError::Overloaded { queue_depth } => {
                write!(f, "server overloaded: {queue_depth} operations already queued")
            }
            SubmitError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Rejection or failure of a solve request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The global op queue is at `queue_depth`; retry later.
    Overloaded {
        /// The configured bound that was hit.
        queue_depth: usize,
    },
    /// The request was malformed (wrong length, zero RHS, non-finite).
    Invalid(SolveError),
    /// The session was closed or evicted.
    SessionClosed,
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queue_depth } => {
                write!(f, "server overloaded: {queue_depth} operations already queued")
            }
            ServeError::Invalid(e) => write!(f, "invalid request: {e}"),
            ServeError::SessionClosed => write!(f, "session closed or evicted"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Point-in-time server counters (monotonic unless noted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Successful matrix submissions (sessions created).
    pub submissions: u64,
    /// Submissions that reused a cached symbolic analysis.
    pub analysis_hits: u64,
    /// Submissions that ran the full symbolic phase.
    pub analysis_misses: u64,
    /// Completed in-session refactors.
    pub refactors: u64,
    /// Accepted solve requests.
    pub solve_requests: u64,
    /// RHS columns solved (across all batches).
    pub solved_rhs: u64,
    /// Batched sweeps executed.
    pub batches: u64,
    /// Widest batch (RHS columns) executed so far.
    pub max_batch_rhs: u64,
    /// Solve requests rejected by backpressure.
    pub rejected_overloaded: u64,
    /// Requests rejected as malformed at admission.
    pub rejected_invalid: u64,
    /// Submissions rejected by tenant memory budgets.
    pub rejected_budget: u64,
    /// Idle sessions evicted to fit new submissions.
    pub evicted_sessions: u64,
    /// Analysis-cache entries now resident (gauge).
    pub cache_entries: usize,
    /// Peak analysis-cache entries ever resident — never exceeds the
    /// configured entry budget.
    pub cache_entries_peak: usize,
    /// Live sessions (gauge).
    pub active_sessions: usize,
    /// Resident bytes charged across all tenants (gauge).
    pub resident_bytes: usize,
}

#[derive(Default)]
pub(crate) struct AtomicStats {
    pub(crate) submissions: AtomicU64,
    pub(crate) analysis_hits: AtomicU64,
    pub(crate) analysis_misses: AtomicU64,
    pub(crate) refactors: AtomicU64,
    pub(crate) solve_requests: AtomicU64,
    pub(crate) solved_rhs: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) max_batch_rhs: AtomicU64,
    pub(crate) rejected_overloaded: AtomicU64,
    pub(crate) rejected_invalid: AtomicU64,
    pub(crate) rejected_budget: AtomicU64,
    pub(crate) evicted_sessions: AtomicU64,
}

/// Per-tenant accounting.
struct TenantState {
    resident_bytes: usize,
    sessions: Vec<SessionId>,
}

/// The session registry: id → session, tenant → accounting.
struct Registry {
    sessions: HashMap<SessionId, Arc<Session>>,
    tenants: HashMap<String, TenantState>,
    next_id: u64,
}

/// Shared server state (behind `Arc`, owned jointly by the handle and the
/// worker threads).
pub(crate) struct Inner {
    pub(crate) cfg: ServerConfig,
    registry: Mutex<Registry>,
    pub(crate) ready: Mutex<VecDeque<Arc<Session>>>,
    pub(crate) ready_cv: Condvar,
    pub(crate) pending_ops: AtomicUsize,
    pub(crate) budget: ThreadBudget,
    cache: AnalysisCache,
    clock: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    pub(crate) stats: AtomicStats,
}

impl Inner {
    /// Advance the logical LRU clock.
    pub(crate) fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// The multi-tenant solver service. Construct with [`Server::start`]; drop
/// to shut down (accepted requests are drained, then workers join).
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spin up the worker pool and return the service handle.
    pub fn start(cfg: ServerConfig) -> Server {
        let worker_count = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            budget: ThreadBudget::new(cfg.thread_budget),
            cache: AnalysisCache::new(cfg.analysis_cache_entries),
            cfg,
            registry: Mutex::new(Registry {
                sessions: HashMap::new(),
                tenants: HashMap::new(),
                next_id: 0,
            }),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            pending_ops: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            stats: AtomicStats::default(),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("mf-server-worker-{i}"))
                    .spawn(move || worker::worker_loop(inner))
                    .expect("spawn solve worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// Submit a matrix for `tenant`: analyze (or reuse a cached same-pattern
    /// analysis), admit against the tenant's memory budget (evicting idle
    /// sessions LRU if needed), factor, and return the session handle.
    ///
    /// Runs on the caller's thread — submissions from different callers
    /// analyze and factor concurrently.
    pub fn submit(&self, tenant: &str, a: &SymCsc<f64>) -> Result<SessionId, SubmitError> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }

        // 1. Symbolic analysis, through the pattern-keyed cache.
        let analysis: Arc<Analysis> = match inner.cache.lookup(a) {
            Some(cached) => {
                inner.stats.analysis_hits.fetch_add(1, Ordering::Relaxed);
                // Reuse the structural results; only the numeric values of
                // the permuted copy belong to *this* submission.
                let mut an = (*cached).clone();
                an.permuted = SymCscF64Holder(an.perm.permute_sym(a));
                Arc::new(an)
            }
            None => {
                inner.stats.analysis_misses.fetch_add(1, Ordering::Relaxed);
                let opts = &inner.cfg.solver;
                let an = analyze_parallel(
                    a,
                    opts.ordering,
                    opts.amalgamation.as_ref(),
                    opts.analysis_workers.max(1),
                )
                .map(Arc::new)
                .map_err(SubmitError::Analyze)?;
                inner.cache.insert(a.clone(), an.clone());
                an
            }
        };

        // 2. Admission. A memory-budgeted session spills instead of holding
        // the full symbolic bound resident, so it reserves the *cap*, not
        // the bound — but only when the cap is feasible at all (the largest
        // front's working set must fit). An infeasible cap is rejected here,
        // typed, before any bytes are reserved or numeric work starts.
        let solver_opts = &inner.cfg.solver;
        let required = estimated_memory_bytes(
            &analysis,
            solver_opts.precision,
            solver_opts.factor.memory_budget,
        )
        .map_err(|e| {
            inner.stats.rejected_budget.fetch_add(1, Ordering::Relaxed);
            SubmitError::Factor(e)
        })?;
        // Reserve the tenant's bytes before the expensive numeric
        // factorization, evicting idle sessions LRU to make room.
        let id = {
            let mut reg = lock(&inner.registry);
            let resident_now = self.evict_until_fits(&mut reg, tenant, required);
            if resident_now + required > inner.cfg.tenant_memory_bytes {
                inner.stats.rejected_budget.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::BudgetExceeded {
                    required,
                    budget: inner.cfg.tenant_memory_bytes,
                    resident: resident_now,
                });
            }
            let t = reg
                .tenants
                .entry(tenant.to_string())
                .or_insert(TenantState { resident_bytes: 0, sessions: Vec::new() });
            t.resident_bytes += required;
            reg.next_id += 1;
            SessionId(reg.next_id)
        };

        // 3. Numeric factorization, outside every lock.
        let mut machine = Machine::paper_node();
        let solver = match SpdSolver::from_analysis(a, &analysis, &mut machine, &inner.cfg.solver) {
            Ok(s) => s,
            Err(e) => {
                let mut reg = lock(&inner.registry);
                if let Some(t) = reg.tenants.get_mut(tenant) {
                    t.resident_bytes -= required;
                }
                return Err(SubmitError::Factor(e));
            }
        };

        // 4. Register the session.
        let sess = Session::new(tenant.to_string(), a.order(), required, solver, inner.tick());
        let mut reg = lock(&inner.registry);
        reg.sessions.insert(id, sess);
        reg.tenants.get_mut(tenant).expect("reserved above").sessions.push(id);
        inner.stats.submissions.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Evict this tenant's idle sessions in LRU order until `required` more
    /// bytes fit (or nothing evictable remains). Returns the tenant's
    /// resident bytes afterwards. Caller holds the registry lock.
    fn evict_until_fits(&self, reg: &mut Registry, tenant: &str, required: usize) -> usize {
        let budget = self.inner.cfg.tenant_memory_bytes;
        loop {
            let resident = reg.tenants.get(tenant).map_or(0, |t| t.resident_bytes);
            if resident + required <= budget {
                return resident;
            }
            // LRU scan over this tenant's idle sessions.
            let victim = {
                let Some(t) = reg.tenants.get(tenant) else { return resident };
                let mut best: Option<(SessionId, u64)> = None;
                for &sid in &t.sessions {
                    let Some(s) = reg.sessions.get(&sid) else { continue };
                    let idle = {
                        let q = lock(&s.q);
                        !q.in_service && !q.scheduled && q.ops.is_empty() && !q.closed
                    };
                    if idle && best.is_none_or(|(_, stamp)| s.stamp() < stamp) {
                        best = Some((sid, s.stamp()));
                    }
                }
                best
            };
            let Some((sid, _)) = victim else { return resident };
            self.remove_session(reg, sid, true);
        }
    }

    /// Remove `sid` from the registry, mark it closed, and release its
    /// bytes. Caller holds the registry lock.
    fn remove_session(&self, reg: &mut Registry, sid: SessionId, evicted: bool) {
        let Some(s) = reg.sessions.remove(&sid) else { return };
        {
            let mut q = lock(&s.q);
            q.closed = true;
        }
        if let Some(t) = reg.tenants.get_mut(&s.tenant) {
            t.resident_bytes = t.resident_bytes.saturating_sub(s.mem_bytes);
            t.sessions.retain(|&x| x != sid);
        }
        if evicted {
            self.inner.stats.evicted_sessions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Enqueue a multi-RHS solve (`b` is `n × nrhs` column-major) and
    /// return a ticket. Malformed requests and overload are rejected here,
    /// synchronously, without consuming a queue slot.
    pub fn solve_many_async(
        &self,
        session: SessionId,
        b: Vec<f64>,
        nrhs: usize,
    ) -> Result<SolveTicket, ServeError> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let sess = lock(&inner.registry)
            .sessions
            .get(&session)
            .cloned()
            .ok_or(ServeError::SessionClosed)?;
        if let Err(e) = SolveError::validate(sess.n, &b, nrhs) {
            inner.stats.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Invalid(e));
        }
        let shot = self.enqueue(&sess, |reply| Op::Solve { b, nrhs, reply })?;
        inner.stats.solve_requests.fetch_add(1, Ordering::Relaxed);
        Ok(SolveTicket { shot, submitted: Instant::now() })
    }

    /// Single-RHS convenience: enqueue and block for the answer.
    pub fn solve(&self, session: SessionId, b: Vec<f64>) -> Result<Vec<f64>, ServeError> {
        self.solve_many_async(session, b, 1)?.wait()
    }

    /// [`Self::solve`] for an `n × nrhs` block.
    pub fn solve_many(
        &self,
        session: SessionId,
        b: Vec<f64>,
        nrhs: usize,
    ) -> Result<Vec<f64>, ServeError> {
        self.solve_many_async(session, b, nrhs)?.wait()
    }

    /// Enqueue a same-pattern refactor of the session's system (new numeric
    /// values, cached symbolic analysis — the `refactor()` fast path).
    /// FIFO-ordered with the session's solves: requests enqueued before it
    /// see the old values, requests after it see the new ones.
    pub fn resubmit_async(
        &self,
        session: SessionId,
        a: SymCsc<f64>,
    ) -> Result<RefactorTicket, ServeError> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let sess = lock(&inner.registry)
            .sessions
            .get(&session)
            .cloned()
            .ok_or(ServeError::SessionClosed)?;
        self.enqueue(&sess, |reply| Op::Refactor { a: Box::new(a), reply })
            .map(|shot| RefactorTicket { shot })
    }

    /// Blocking form of [`Self::resubmit_async`].
    pub fn resubmit(&self, session: SessionId, a: SymCsc<f64>) -> Result<(), SubmitError> {
        match self.resubmit_async(session, a) {
            Ok(ticket) => ticket.wait(),
            Err(ServeError::SessionClosed) => Err(SubmitError::SessionClosed),
            Err(ServeError::ShuttingDown) => Err(SubmitError::ShuttingDown),
            Err(ServeError::Overloaded { queue_depth }) => {
                Err(SubmitError::Overloaded { queue_depth })
            }
            Err(ServeError::Invalid(_)) => unreachable!("refactor admission never validates RHS"),
        }
    }

    /// Close a session explicitly, releasing its memory charge. Already
    /// queued operations still complete; later requests get
    /// [`ServeError::SessionClosed`]. Returns whether the session existed.
    pub fn close(&self, session: SessionId) -> bool {
        let mut reg = lock(&self.inner.registry);
        let existed = reg.sessions.contains_key(&session);
        self.remove_session(&mut reg, session, false);
        existed
    }

    /// Shared admission + enqueue + scheduling for both op kinds.
    fn enqueue<T, F>(&self, sess: &Arc<Session>, make: F) -> Result<Arc<OneShot<T>>, ServeError>
    where
        F: FnOnce(Arc<OneShot<T>>) -> Op,
    {
        let inner = &self.inner;
        // Backpressure: reserve a queue slot or reject.
        let prev = inner.pending_ops.fetch_add(1, Ordering::AcqRel);
        if prev >= inner.cfg.queue_depth {
            inner.pending_ops.fetch_sub(1, Ordering::AcqRel);
            inner.stats.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { queue_depth: inner.cfg.queue_depth });
        }
        let shot = OneShot::new();
        let op = make(shot.clone());
        let schedule = {
            let mut q = lock(&sess.q);
            if q.closed {
                inner.pending_ops.fetch_sub(1, Ordering::AcqRel);
                return Err(ServeError::SessionClosed);
            }
            q.ops.push_back(op);
            sess.touch(inner.tick());
            mark_schedulable(&mut q)
        };
        if schedule {
            lock(&inner.ready).push_back(sess.clone());
            inner.ready_cv.notify_one();
        }
        Ok(shot)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let inner = &self.inner;
        let s = &inner.stats;
        // The cache reports only its occupancy: hit/miss counts live in the
        // server's atomic counters alone. (A previous revision kept a second
        // hit counter inside the cache and `debug_assert_eq!`-ed the two
        // here, but the cache lookup and the atomic increment are separate
        // steps — a concurrent submission between them made the assert fire
        // spuriously under load.)
        let (cache_entries, cache_entries_peak) = inner.cache.stats();
        let (active_sessions, resident_bytes) = {
            let reg = lock(&inner.registry);
            (reg.sessions.len(), reg.tenants.values().map(|t| t.resident_bytes).sum())
        };
        ServerStats {
            submissions: s.submissions.load(Ordering::Relaxed),
            analysis_hits: s.analysis_hits.load(Ordering::Relaxed),
            analysis_misses: s.analysis_misses.load(Ordering::Relaxed),
            refactors: s.refactors.load(Ordering::Relaxed),
            solve_requests: s.solve_requests.load(Ordering::Relaxed),
            solved_rhs: s.solved_rhs.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            max_batch_rhs: s.max_batch_rhs.load(Ordering::Relaxed),
            rejected_overloaded: s.rejected_overloaded.load(Ordering::Relaxed),
            rejected_invalid: s.rejected_invalid.load(Ordering::Relaxed),
            rejected_budget: s.rejected_budget.load(Ordering::Relaxed),
            evicted_sessions: s.evicted_sessions.load(Ordering::Relaxed),
            cache_entries,
            cache_entries_peak,
            active_sessions,
            resident_bytes,
        }
    }
}

impl Drop for Server {
    /// Graceful shutdown: workers drain every scheduled session, then exit.
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.ready_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Mark the session schedulable if it is not already queued or being
/// drained; returns whether the caller should push it to the ready queue.
fn mark_schedulable(q: &mut SessionQueue) -> bool {
    if !q.scheduled && !q.in_service {
        q.scheduled = true;
        true
    } else {
        false
    }
}
