//! Out-of-core execution: memory-budgeted residency with liveness-driven
//! eviction (DESIGN.md §4.14).
//!
//! The in-core drivers keep the whole factor slab plus the front arena
//! resident — `in_core_bytes` — which caps solvable N at device memory.
//! This module lifts that cap: `plan_ooc` simulates the postorder
//! elimination over the *symbolic* structure alone and produces an
//! `OocPlan` — a deterministic spill/reload schedule that keeps
//! residency below a caller-chosen byte budget at every instant, and the
//! traffic totals of [`OocStats`].
//!
//! ## Eviction policy
//!
//! The postorder traversal makes next-touch times exact, so the policy is
//! Belady's optimal rather than a heuristic:
//!
//! * a **finished panel** is dead for factorization the moment it is
//!   written — it is only touched again by the solve sweeps — so panels
//!   always have the farthest next-touch and are evicted first, in
//!   reverse postorder of completion;
//! * a **child update** is next touched when its parent supernode
//!   assembles, i.e. at the parent's postorder rank; among updates the
//!   one whose parent eliminates last is evicted first.
//!
//! Both rules collapse into a single ordered set keyed by next-touch
//! rank (panels offset past every update key). A front is its panel,
//! assembled and factored in place in its slab slot, plus its `m × m`
//! update block on the arena; assembly streams child updates into them
//! **one at a time** — each child's block dies the moment its extend-add
//! completes, the classical out-of-core multifrontal discipline — so the
//! untouchable working set of a step is only `m² + s·k + maxᶜ mᶜ²`
//! scalars ([`min_feasible_budget`]).
//!
//! ## Tiers
//!
//! Spilled blocks go to pinned host memory while its fixed capacity lasts,
//! then to simulated disk. The capacity and the four transfer bandwidths are
//! constants of this module, in the repository's ~25×-scaled stand-in regime
//! (see `mf-matgen::paper`).
//!
//! ## Replay
//!
//! A budgeted run takes the drain schedule at every worker count, the one
//! schedule whose front lifetimes the plan models. The serial arena loop
//! calls `OocPlan::begin_front` before each front, which charges that
//! step's transfers on the executing [`HostClock`](mf_gpusim::HostClock)
//! through `charge_memop`, so spill traffic shares the virtual timeline with
//! every other cost. Residency is the plan's alone: [`OocStats`] reports it,
//! and no driver keeps a second account.
//!
//! A spilled block comes back as it left, in the compute precision, so a
//! budget moves the simulated clock and never the bits: a budgeted factor is
//! bitwise identical to the in-core one at every budget and worker count.
//! The plan only prices transfers, so the parallel drain's workers run
//! without one; that run's simulated fields are its serial rehearsal's.

use std::collections::BTreeSet;

use mf_gpusim::HostClock;
use mf_sparse::SymbolicFactor;

use crate::factor::FactorError;

/// Where an evicted block is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpillTier {
    /// Pinned host memory: [`HOST_CAPACITY`] bytes at PCIe bandwidth.
    Host,
    /// Simulated disk: unbounded, at streaming-storage bandwidth.
    Disk,
}

/// Pinned-host tier capacity in bytes; spills that do not fit go to disk.
const HOST_CAPACITY: usize = 24 << 20;
/// Device → pinned-host eviction bandwidth (bytes/s). Pinned PCIe-gen2-era
/// rates, asymmetric as measured for the paper's node: d2h slightly slower
/// than h2d.
const HOST_WRITE_BW: f64 = 5.2e9;
/// Pinned-host → device reload bandwidth (bytes/s).
const HOST_READ_BW: f64 = 5.7e9;
/// Device → disk eviction bandwidth (bytes/s): streaming storage of the same
/// era.
const DISK_WRITE_BW: f64 = 1.2e8;
/// Disk → device reload bandwidth (bytes/s).
const DISK_READ_BW: f64 = 1.5e8;

/// Bytes the in-core drivers keep resident: the contiguous factor slab
/// plus the LIFO update-stack peak — the "symbolic bound" that budget
/// fractions in tests and the benchmark refer to.
pub fn in_core_bytes(symbolic: &SymbolicFactor, elem_bytes: usize) -> usize {
    (symbolic.factor_slab_len() + symbolic.update_stack_peak()) * elem_bytes
}

/// The smallest residency budget any eviction schedule can honour: the
/// largest per-supernode pinned working set. Assembly writes the panel and
/// the update block while it streams child updates in **one at a time**
/// (each child's block is dead the moment its extend-add completes — the
/// classical out-of-core multifrontal discipline), so at any instant the
/// untouchable set is both buffers of the front plus the single child
/// being consumed: `m² + s·k + maxᶜ mᶜ²` scalars.
pub fn min_feasible_budget(symbolic: &SymbolicFactor, elem_bytes: usize) -> usize {
    let mut worst = 0usize;
    for (sn, info) in symbolic.supernodes.iter().enumerate() {
        let (s, k, m) = (info.front_size(), info.k(), info.m());
        let biggest_child = symbolic
            .children(sn)
            .iter()
            .map(|&c| {
                let cm = symbolic.supernodes[c].m();
                cm * cm
            })
            .max()
            .unwrap_or(0);
        worst = worst.max(m * m + s * k + biggest_child);
    }
    worst * elem_bytes
}

/// One replayed spill transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IoOp {
    /// Which tier the block moves to/from.
    tier: SpillTier,
    /// `true` = eviction (device → tier), `false` = reload.
    write: bool,
    /// Bytes on the wire: the block at its compute precision.
    bytes: usize,
}

impl IoOp {
    /// The transfer's bandwidth in bytes/s.
    fn bandwidth(&self) -> f64 {
        match (self.tier, self.write) {
            (SpillTier::Host, true) => HOST_WRITE_BW,
            (SpillTier::Host, false) => HOST_READ_BW,
            (SpillTier::Disk, true) => DISK_WRITE_BW,
            (SpillTier::Disk, false) => DISK_READ_BW,
        }
    }
}

/// Residency and traffic totals of one budgeted run — surfaced as
/// `FactorStats::ooc`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OocStats {
    /// Peak device residency the plan reaches (≤ budget).
    pub resident_peak_bytes: usize,
    /// Bytes evicted to the pinned-host tier.
    pub host_bytes_out: usize,
    /// Bytes reloaded from the pinned-host tier.
    pub host_bytes_in: usize,
    /// Bytes evicted to the disk tier.
    pub disk_bytes_out: usize,
    /// Bytes reloaded from the disk tier.
    pub disk_bytes_in: usize,
    /// Number of block evictions.
    pub evictions: usize,
    /// Number of block reloads.
    pub loads: usize,
}

impl OocStats {
    /// Total eviction traffic in bytes.
    pub fn bytes_out(&self) -> usize {
        self.host_bytes_out + self.disk_bytes_out
    }

    /// Total reload traffic in bytes.
    pub fn bytes_in(&self) -> usize {
        self.host_bytes_in + self.disk_bytes_in
    }

    /// Total spill traffic in both directions, in bytes.
    pub fn traffic_bytes(&self) -> usize {
        self.bytes_out() + self.bytes_in()
    }
}

/// A deterministic out-of-core schedule for one symbolic structure.
///
/// Everything here is a pure function of `(symbolic, elem_bytes, budget)` —
/// no numeric values, no worker count, no clock state — and nothing in it
/// touches a value: it prices the transfers of a budgeted run and reports
/// its residency, and the factor's bits are the in-core run's.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OocPlan {
    /// Totals, surfaced as `FactorStats::ooc`.
    pub stats: OocStats,
    /// Per-postorder-rank transfers to replay (charge on the executing
    /// clock) before processing that supernode.
    step_io: Vec<Vec<IoOp>>,
}

impl OocPlan {
    /// Replay the planned spill transfers of the front at postorder `rank`
    /// on the executing host clock. They come before the front's assembly
    /// begins, so its per-call record does not book them.
    pub(crate) fn begin_front(&self, rank: usize, host: &mut HostClock) {
        for op in &self.step_io[rank] {
            host.charge_memop(op.bytes, op.bandwidth());
        }
    }
}

/// Mutable planner state: device residency, tier occupancy, the Belady
/// eviction queue, and the accumulating schedule.
struct PlanState {
    elem_bytes: usize,
    budget: usize,
    /// Scalar counts per block: `[0, nsn)` = panels (s·k), `[nsn, 2nsn)`
    /// = updates (m·m).
    block_elems: Vec<usize>,
    /// Next-touch key per block (updates: parent's rank; panels: nsn +
    /// own rank, i.e. always after every update).
    key: Vec<usize>,
    /// Blocks on a spill tier.
    spilled: Vec<Option<SpillTier>>,
    /// Resident blocks currently eligible for eviction, max key first.
    evictable: BTreeSet<(usize, usize)>,
    /// Device-resident bytes.
    cur: usize,
    host_used: usize,
    ops: Vec<IoOp>,
    stats: OocStats,
}

impl PlanState {
    fn bytes(&self, blk: usize) -> usize {
        self.block_elems[blk] * self.elem_bytes
    }

    /// Make `need` more bytes resident, first evicting farthest-next-touch
    /// blocks until they fit.
    fn grow(&mut self, need: usize) -> Result<(), FactorError> {
        while self.cur + need > self.budget {
            let &(_, blk) = self.evictable.iter().next_back().ok_or({
                // Unreachable when budget ≥ min_feasible_budget; surface
                // the pinned working set that broke the invariant.
                FactorError::BudgetTooSmall { budget: self.budget, required: self.cur + need }
            })?;
            self.evictable.remove(&(self.key[blk], blk));
            let bytes = self.bytes(blk);
            let tier = if self.host_used + bytes <= HOST_CAPACITY {
                self.host_used += bytes;
                self.stats.host_bytes_out += bytes;
                SpillTier::Host
            } else {
                self.stats.disk_bytes_out += bytes;
                SpillTier::Disk
            };
            self.spilled[blk] = Some(tier);
            self.cur -= bytes;
            self.stats.evictions += 1;
            self.ops.push(IoOp { tier, write: true, bytes });
        }
        self.cur += need;
        self.stats.resident_peak_bytes = self.stats.resident_peak_bytes.max(self.cur);
        Ok(())
    }
}

/// Build the out-of-core schedule for `budget_bytes` of device residency.
///
/// Fails with [`FactorError::BudgetTooSmall`] when the budget is below
/// [`min_feasible_budget`]; a budget of [`in_core_bytes`] or more yields a
/// plan with no transfers at all (budgeted execution then trivially
/// matches the in-core driver).
pub(crate) fn plan_ooc(
    symbolic: &SymbolicFactor,
    elem_bytes: usize,
    budget_bytes: usize,
) -> Result<OocPlan, FactorError> {
    let nsn = symbolic.num_supernodes();
    let required = min_feasible_budget(symbolic, elem_bytes);
    if budget_bytes < required {
        return Err(FactorError::BudgetTooSmall { budget: budget_bytes, required });
    }

    let mut rank = vec![0usize; nsn];
    for (r, &sn) in symbolic.postorder.iter().enumerate() {
        rank[sn] = r;
    }

    let mut block_elems = vec![0usize; 2 * nsn];
    let mut key = vec![0usize; 2 * nsn];
    for (sn, info) in symbolic.supernodes.iter().enumerate() {
        block_elems[sn] = info.front_size() * info.k();
        let m = info.m();
        block_elems[nsn + sn] = m * m;
        // Panels are only re-touched by the solve: order them after every
        // update, latest-finished first out.
        key[sn] = nsn + rank[sn];
        if m > 0 {
            // An update's next touch is its parent's elimination step.
            key[nsn + sn] = rank[info.parent];
        }
    }

    let mut st = PlanState {
        elem_bytes,
        budget: budget_bytes,
        block_elems,
        key,
        spilled: vec![None; 2 * nsn],
        evictable: BTreeSet::new(),
        cur: 0,
        host_used: 0,
        ops: Vec::new(),
        stats: OocStats::default(),
    };

    let mut step_io = Vec::with_capacity(nsn);

    for &sn in &symbolic.postorder {
        let info = &symbolic.supernodes[sn];
        // Allocate both buffers of the front first — its update block on
        // the arena, its panel's slab slot — since assembly streams each
        // child's update into them one at a time.
        st.grow(st.bytes(nsn + sn))?;
        st.grow(st.bytes(sn))?;

        // Consume the children in child order: reload each spilled one
        // just before its extend-add, after which the block dies — only
        // one child update is ever pinned alongside the front. Siblings
        // not yet consumed stay evictable (their next-touch key is the
        // current rank, the nearest touch of anything in the queue, so
        // Belady victimises them only as a last resort).
        for &c in symbolic.children(sn) {
            let blk = nsn + c;
            if st.block_elems[blk] == 0 {
                continue;
            }
            let bytes = st.bytes(blk);
            if let Some(tier) = st.spilled[blk] {
                st.grow(bytes)?;
                st.spilled[blk] = None;
                if tier == SpillTier::Host {
                    st.host_used -= bytes;
                    st.stats.host_bytes_in += bytes;
                } else {
                    st.stats.disk_bytes_in += bytes;
                }
                st.stats.loads += 1;
                st.ops.push(IoOp { tier, write: false, bytes });
            } else {
                st.evictable.remove(&(st.key[blk], blk));
            }
            st.cur -= bytes;
        }

        // Retire: the update block moves down over the consumed children
        // (`pop_and_compact`, within the arena), and it and the finished
        // panel become evictable.
        if info.m() > 0 {
            st.evictable.insert((st.key[nsn + sn], nsn + sn));
        }
        st.evictable.insert((st.key[sn], sn));

        step_io.push(std::mem::take(&mut st.ops));
    }

    Ok(OocPlan { stats: st.stats, step_io })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{analyze, AmalgamationOptions, OrderingKind};

    fn test_symbolic() -> SymbolicFactor {
        let a = mf_matgen::laplacian_3d(7, 7, 7, mf_matgen::Stencil::Faces);
        analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
            .unwrap()
            .symbolic
    }

    #[test]
    fn full_budget_plans_no_traffic() {
        let sym = test_symbolic();
        let bound = in_core_bytes(&sym, 4);
        let plan = plan_ooc(&sym, 4, bound).unwrap();
        assert_eq!(plan.stats.evictions, 0);
        assert_eq!(plan.stats.loads, 0);
        assert_eq!(plan.stats.traffic_bytes(), 0);
        assert!(plan.step_io.iter().all(|s| s.is_empty()));
        assert!(plan.stats.resident_peak_bytes <= bound);
    }

    #[test]
    fn tight_budget_spills_and_respects_residency() {
        let sym = test_symbolic();
        let bound = in_core_bytes(&sym, 4);
        let min = min_feasible_budget(&sym, 4);
        assert!(min <= bound);
        let budget = (bound * 3 / 10).max(min);
        let plan = plan_ooc(&sym, 4, budget).unwrap();
        assert!(plan.stats.evictions > 0, "30% budget must evict");
        assert!(plan.stats.resident_peak_bytes <= budget);
        // Loads only ever re-fetch spilled updates, never panels.
        assert!(plan.stats.loads <= plan.stats.evictions);
        // Host tier fills before disk is touched, and never past its capacity.
        if plan.stats.disk_bytes_out > 0 {
            assert!(plan.stats.host_bytes_out > 0);
        }
        assert!(plan.stats.host_bytes_out - plan.stats.host_bytes_in <= HOST_CAPACITY);
    }

    #[test]
    fn infeasible_budget_is_typed() {
        let sym = test_symbolic();
        let min = min_feasible_budget(&sym, 4);
        match plan_ooc(&sym, 4, min - 1) {
            Err(FactorError::BudgetTooSmall { budget, required }) => {
                assert_eq!(budget, min - 1);
                assert_eq!(required, min);
            }
            other => panic!("expected BudgetTooSmall, got {other:?}"),
        }
        // At exactly the minimum the plan must succeed.
        assert!(plan_ooc(&sym, 4, min).is_ok());
    }

    #[test]
    fn plan_is_a_pure_function_of_its_inputs() {
        let sym = test_symbolic();
        let bound = in_core_bytes(&sym, 4);
        let budget = (bound * 3 / 10).max(min_feasible_budget(&sym, 4));
        let a = plan_ooc(&sym, 4, budget).unwrap();
        let b = plan_ooc(&sym, 4, budget).unwrap();
        assert_eq!(a, b, "the plan is a pure function of its inputs");
    }
}
