//! Out-of-core execution: memory-budgeted residency with liveness-driven
//! eviction and a mixed-precision spill ladder (DESIGN.md §4.14).
//!
//! The in-core drivers keep the whole factor slab plus the front arena
//! resident — `in_core_bytes` — which caps solvable N at device memory.
//! This module lifts that cap: [`plan_ooc`] simulates the postorder
//! elimination over the *symbolic* structure alone and produces an
//! [`OocPlan`] — a deterministic spill/reload schedule that keeps
//! residency below a caller-chosen byte budget at every instant.
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
//! rank (panels offset past every update key). Assembly streams child
//! updates into the front **one at a time** — each child's block dies
//! the moment its extend-add completes, the classical out-of-core
//! multifrontal discipline — so the untouchable working set of a step is
//! only `s² + max(maxᶜ mᶜ², s·k)` scalars ([`min_feasible_budget`]).
//! Spilled blocks go to the pinned-host tier while it has capacity, then
//! to simulated disk; the charges land on the existing [`HostClock`] via
//! `charge_memop`, so spill traffic shares the virtual timeline with
//! every other cost.
//!
//! ## Precision ladder
//!
//! Spilled blocks may be stored down-converted ([`PrecisionLadder`]):
//! bf16 or f16 storage halves spill traffic of an f32 factorization while
//! f32 compute and the existing f64 iterative refinement absorb the
//! storage error — the storage-vs-compute precision split of
//! Li/Serban/Negrut (PAPERS.md), extending the paper's f32+refinement
//! scheme (§V). Down-conversion is applied *once*, in place, at the
//! moment a block is first produced if the plan says it will ever be
//! stored encoded; numerics therefore depend only on the (budget,
//! ladder) pair, never on worker count or on when the replayed transfers
//! happen — with the ladder off the factor is bitwise identical to the
//! in-core driver.

use std::collections::BTreeSet;

use mf_dense::Scalar;
use mf_gpusim::{Machine, SpillTier, TierParams};
use mf_sparse::SymbolicFactor;

/// Storage precision of spilled blocks.
///
/// Compute precision is unchanged (the factorization runs in `T`); the
/// ladder only governs what a block looks like while it lives on a spill
/// tier. `Bf16`/`F16` store 2 bytes per scalar regardless of `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrecisionLadder {
    /// Spilled blocks keep the compute precision; reloads are bitwise.
    #[default]
    Off,
    /// bfloat16 storage: f32 range, 8-bit mantissa. Round-to-nearest-even.
    Bf16,
    /// IEEE half storage: 11-bit mantissa, saturating at ±65504 (a spill
    /// encoder must never manufacture infinities).
    F16,
}

impl PrecisionLadder {
    /// Short stable name (used in reports and logs).
    pub fn name(self) -> &'static str {
        match self {
            PrecisionLadder::Off => "off",
            PrecisionLadder::Bf16 => "bf16",
            PrecisionLadder::F16 => "f16",
        }
    }

    /// Bytes one scalar occupies on a spill tier when the compute type
    /// has `elem_bytes` bytes.
    pub fn stored_bytes(self, elem_bytes: usize) -> usize {
        match self {
            PrecisionLadder::Off => elem_bytes,
            PrecisionLadder::Bf16 | PrecisionLadder::F16 => 2,
        }
    }

    /// The value a scalar comes back as after one store/load round trip.
    ///
    /// The encoder is f32-front-ended: f64 inputs first round to f32
    /// (RNE), then to the 16-bit storage format — the same double
    /// rounding a real half-precision spill path performs.
    pub fn store_and_load(self, x: f64) -> f64 {
        match self {
            PrecisionLadder::Off => x,
            PrecisionLadder::Bf16 => bf16_roundtrip(x as f32) as f64,
            PrecisionLadder::F16 => f16_roundtrip(x as f32) as f64,
        }
    }

    /// Degrade a block in place to what it will read back as from a spill
    /// tier. Idempotent; a no-op when the ladder is off.
    pub fn degrade_slice<T: Scalar>(self, xs: &mut [T]) {
        match self {
            PrecisionLadder::Off => {}
            PrecisionLadder::Bf16 => {
                for x in xs {
                    *x = T::from_f64(bf16_roundtrip(x.to_f64() as f32) as f64);
                }
            }
            PrecisionLadder::F16 => {
                for x in xs {
                    *x = T::from_f64(f16_roundtrip(x.to_f64() as f32) as f64);
                }
            }
        }
    }
}

/// f32 → bf16 → f32 round trip, round-to-nearest-even, saturating to the
/// largest finite bf16 instead of overflowing to infinity.
fn bf16_roundtrip(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1)) & 0xFFFF_0000;
    let out = f32::from_bits(rounded);
    if out.is_infinite() {
        // Rounding carried into the exponent of f32::MAX-scale inputs.
        f32::from_bits((bits & 0x8000_0000) | 0x7F7F_0000)
    } else {
        out
    }
}

/// f32 → IEEE half → f32 round trip (RNE, saturating at ±65504).
fn f16_roundtrip(x: f32) -> f32 {
    f32_from_f16(f16_from_f32(x))
}

fn f16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;
    if exp == 0xFF {
        // Propagate NaN; saturate infinities like every other overflow.
        return if man != 0 { sign | 0x7E00 } else { sign | 0x7BFF };
    }
    let e = exp - 127;
    if e > 15 {
        return sign | 0x7BFF; // saturate to 65504
    }
    if e >= -14 {
        // Normal half: keep 10 mantissa bits, RNE on the 13 dropped.
        let mut half = (((e + 15) as u32) << 10) | (man >> 13);
        let rem = man & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && half & 1 == 1) {
            half += 1;
            if half >= 0x7C00 {
                half = 0x7BFF; // carry reached the infinity encoding
            }
        }
        return sign | half as u16;
    }
    if e >= -24 {
        // Subnormal half.
        let man_full = man | 0x0080_0000;
        let shift = (13 + (-14 - e)) as u32;
        let mut half = man_full >> shift;
        let rem = man_full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        if rem > halfway || (rem == halfway && half & 1 == 1) {
            half += 1;
        }
        return sign | half as u16;
    }
    sign // underflow to (signed) zero
}

fn f32_from_f16(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x3FF) as u32;
    if exp == 0 {
        // ±0 and subnormals: value = man · 2⁻²⁴, exact in f32.
        let mag = man as f32 * f32::from_bits((127 - 24) << 23);
        return if sign != 0 { -mag } else { mag };
    }
    if exp == 0x1F {
        return if man != 0 { f32::NAN } else { f32::from_bits(sign | 0x7F80_0000) };
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

/// Why an out-of-core plan cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OocError {
    /// The budget is below [`min_feasible_budget`]: even with everything
    /// evictable spilled, some supernode's pinned working set (its front
    /// plus the single child update being streamed in, or plus its panel)
    /// would not fit.
    BudgetTooSmall {
        /// The infeasible budget that was requested.
        budget: usize,
        /// The smallest budget any schedule can honour, in bytes.
        required: usize,
    },
}

impl core::fmt::Display for OocError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OocError::BudgetTooSmall { budget, required } => write!(
                f,
                "memory budget of {budget} bytes is below the minimum feasible \
                 out-of-core working set of {required} bytes"
            ),
        }
    }
}

impl std::error::Error for OocError {}

/// Bytes the in-core drivers keep resident: the contiguous factor slab
/// plus the LIFO update-stack peak — the "symbolic bound" that budget
/// fractions in tests and the benchmark refer to.
pub fn in_core_bytes(symbolic: &SymbolicFactor, elem_bytes: usize) -> usize {
    (symbolic.factor_slab_len() + symbolic.update_stack_peak()) * elem_bytes
}

/// The smallest residency budget any eviction schedule can honour: the
/// largest per-supernode pinned working set. Assembly streams child
/// updates into the front **one at a time** (each child's block is dead
/// the moment its extend-add completes — the classical out-of-core
/// multifrontal discipline), so at any instant the untouchable set is the
/// front plus either the single child being consumed or the panel being
/// written: `s² + max(maxᶜ mᶜ², s·k)` scalars.
pub fn min_feasible_budget(symbolic: &SymbolicFactor, elem_bytes: usize) -> usize {
    let mut worst = 0usize;
    for (sn, info) in symbolic.supernodes.iter().enumerate() {
        let s = info.front_size();
        let k = info.k();
        let biggest_child = symbolic
            .children(sn)
            .iter()
            .map(|&c| {
                let cm = symbolic.supernodes[c].m();
                cm * cm
            })
            .max()
            .unwrap_or(0);
        worst = worst.max(s * s + biggest_child.max(s * k));
    }
    worst * elem_bytes
}

/// One replayed spill transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoOp {
    /// Which tier the block moves to/from.
    pub tier: SpillTier,
    /// `true` = eviction (device → tier), `false` = reload.
    pub write: bool,
    /// Encoded bytes on the wire (2 B/scalar under a 16-bit ladder).
    pub bytes: usize,
}

/// What happened at one point of the planned elimination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OocEventKind {
    /// A spilled child update was reloaded for its parent's extend-add.
    LoadUpdate(usize),
    /// A child update's extend-add completed; its block died (streamed
    /// assembly consumes children one at a time).
    ConsumeUpdate(usize),
    /// An update was evicted to make room.
    EvictUpdate(usize),
    /// A finished panel was evicted to make room.
    EvictPanel(usize),
    /// The supernode's front was allocated in the arena.
    AllocFront(usize),
    /// The supernode's panel slot became live in the slab.
    AllocPanel(usize),
    /// The front retired into its packed update; children died.
    Retire(usize),
}

/// One entry of the plan's residency trace. `resident_bytes` is the
/// device-tier residency *after* the event — the proptested invariant is
/// that it never exceeds the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocEvent {
    /// Postorder rank of the supernode being processed.
    pub rank: usize,
    /// What happened.
    pub kind: OocEventKind,
    /// Device-resident bytes after the event.
    pub resident_bytes: usize,
}

/// Residency and traffic accounting of one budgeted run — surfaced as
/// `FactorStats::ooc`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OocStats {
    /// The residency budget the plan honours.
    pub budget_bytes: usize,
    /// Compute-precision scalar size.
    pub elem_bytes: usize,
    /// Storage ladder for spilled blocks.
    pub ladder: PrecisionLadder,
    /// The in-core working-set bound (slab + update-stack peak) — what an
    /// unbudgeted run would keep resident.
    pub logical_peak_bytes: usize,
    /// Peak device residency the plan actually reaches (≤ budget).
    pub resident_peak_bytes: usize,
    /// Peak residency attributable to arena blocks (fronts + updates),
    /// mirrored into `FrontArena::resident_high_water_bytes`.
    pub arena_resident_peak_bytes: usize,
    /// [`min_feasible_budget`] of the structure.
    pub min_feasible_bytes: usize,
    /// Encoded bytes evicted to the pinned-host tier.
    pub host_bytes_out: usize,
    /// Encoded bytes reloaded from the pinned-host tier.
    pub host_bytes_in: usize,
    /// Encoded bytes evicted to the disk tier.
    pub disk_bytes_out: usize,
    /// Encoded bytes reloaded from the disk tier.
    pub disk_bytes_in: usize,
    /// Number of block evictions.
    pub evictions: usize,
    /// Number of block reloads.
    pub loads: usize,
    /// Panels still on a spill tier when factorization finishes.
    pub panels_spilled_at_end: usize,
    /// Total transfer time of the spill engine at tier bandwidths. This
    /// is the spill engine's own serialized timeline; the factorization
    /// drivers additionally charge each transfer on the clock of the
    /// worker that replays it.
    pub spill_seconds: f64,
}

impl OocStats {
    /// Total encoded eviction traffic.
    pub fn bytes_out(&self) -> usize {
        self.host_bytes_out + self.disk_bytes_out
    }

    /// Total encoded reload traffic.
    pub fn bytes_in(&self) -> usize {
        self.host_bytes_in + self.disk_bytes_in
    }

    /// Total encoded spill traffic in both directions.
    pub fn traffic_bytes(&self) -> usize {
        self.bytes_out() + self.bytes_in()
    }
}

/// A deterministic out-of-core schedule for one symbolic structure.
///
/// Everything here is a pure function of `(symbolic, elem_bytes, budget,
/// ladder, tiers)` — no numeric values, no worker count, no clock state —
/// which is what makes budgeted factorization bitwise-deterministic: the
/// serial and parallel drivers both consume the same plan and apply the
/// same [`OocPlan::degrade_panel`]/[`OocPlan::degrade_update`] flags at
/// block production time.
#[derive(Debug, Clone, PartialEq)]
pub struct OocPlan {
    /// Totals, surfaced as `FactorStats::ooc`.
    pub stats: OocStats,
    /// Per-postorder-rank transfers to replay (charge on the executing
    /// clock) before processing that supernode.
    pub step_io: Vec<Vec<IoOp>>,
    /// Per-postorder-rank peak of arena-resident bytes during the step —
    /// what the arena's tier-resident high water should record.
    pub arena_step_resident: Vec<usize>,
    /// Per-supernode: the panel is stored encoded at some point, so the
    /// driver must degrade it (once, at production) to the ladder's
    /// read-back value.
    pub degrade_panel: Vec<bool>,
    /// Per-supernode: ditto for the packed update block.
    pub degrade_update: Vec<bool>,
    /// Where each panel lives when factorization ends (`None` = resident).
    pub panel_tier: Vec<Option<SpillTier>>,
    /// Pinned-host tier occupancy (encoded bytes) at the end.
    pub host_used_end: usize,
    /// Full residency trace for invariant checking.
    pub events: Vec<OocEvent>,
    /// The tiers the schedule was planned on; replayed transfers are charged
    /// at their bandwidths.
    tiers: TierParams,
}

impl OocPlan {
    /// Replay the planned spill transfers of the front at postorder `rank`
    /// on the executing clock, then drop any profile records the charges
    /// produced so they do not leak into the front's assembly bucket
    /// (`FuRecord::absorb` books `HostMemop` under `t_assemble`).
    pub(crate) fn begin_front(&self, rank: usize, machine: &mut Machine) {
        for op in &self.step_io[rank] {
            let bw =
                if op.write { self.tiers.write_bw(op.tier) } else { self.tiers.read_bw(op.tier) };
            machine.host.charge_memop(op.bytes, bw);
        }
        if !self.step_io[rank].is_empty() {
            let _ = machine.take_records();
        }
    }

    /// Degrade the blocks of supernode `sn` the plan ever stores encoded —
    /// its factor `panel`, its packed `update` (empty at a root) — to their
    /// tier read-back values, once, at production: numerics then cannot
    /// depend on when transfers happen.
    pub(crate) fn finish_front<T: Scalar>(&self, sn: usize, panel: &mut [T], update: &mut [T]) {
        if self.degrade_update[sn] {
            self.stats.ladder.degrade_slice(update);
        }
        if self.degrade_panel[sn] {
            self.stats.ladder.degrade_slice(panel);
        }
    }
}

/// Mutable planner state: device residency, tier occupancy, the Belady
/// eviction queue, and the accumulating schedule.
struct PlanState<'a> {
    nsn: usize,
    elem_bytes: usize,
    enc_bytes: usize,
    budget: usize,
    tiers: &'a TierParams,
    ladder: PrecisionLadder,
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
    /// Device-resident bytes (compute precision).
    cur: usize,
    /// Of which, arena blocks (updates + the live front).
    arena_cur: usize,
    host_used: usize,
    ops: Vec<IoOp>,
    events: Vec<OocEvent>,
    stats: OocStats,
    degrade_panel: Vec<bool>,
    degrade_update: Vec<bool>,
    arena_step_peak: usize,
}

impl PlanState<'_> {
    fn native(&self, blk: usize) -> usize {
        self.block_elems[blk] * self.elem_bytes
    }

    fn encoded(&self, blk: usize) -> usize {
        self.block_elems[blk] * self.enc_bytes
    }

    fn push_event(&mut self, rank: usize, kind: OocEventKind) {
        self.stats.resident_peak_bytes = self.stats.resident_peak_bytes.max(self.cur);
        self.stats.arena_resident_peak_bytes =
            self.stats.arena_resident_peak_bytes.max(self.arena_cur);
        self.arena_step_peak = self.arena_step_peak.max(self.arena_cur);
        self.events.push(OocEvent { rank, kind, resident_bytes: self.cur });
    }

    /// Evict farthest-next-touch blocks until `need` more bytes fit.
    fn make_room(&mut self, need: usize, rank: usize) -> Result<(), OocError> {
        while self.cur + need > self.budget {
            let &(_, blk) = self.evictable.iter().next_back().ok_or({
                // Unreachable when budget ≥ min_feasible_budget; surface
                // the pinned working set that broke the invariant.
                OocError::BudgetTooSmall { budget: self.budget, required: self.cur + need }
            })?;
            self.evictable.remove(&(self.key[blk], blk));
            let native = self.native(blk);
            let enc = self.encoded(blk);
            let tier = if self.host_used + enc <= self.tiers.host_capacity {
                self.host_used += enc;
                SpillTier::Host
            } else {
                SpillTier::Disk
            };
            self.spilled[blk] = Some(tier);
            self.cur -= native;
            match tier {
                SpillTier::Host => self.stats.host_bytes_out += enc,
                SpillTier::Disk => self.stats.disk_bytes_out += enc,
            }
            self.stats.evictions += 1;
            self.stats.spill_seconds += self.tiers.transfer_seconds(tier, true, enc);
            self.ops.push(IoOp { tier, write: true, bytes: enc });
            if self.ladder != PrecisionLadder::Off {
                if blk < self.nsn {
                    self.degrade_panel[blk] = true;
                } else {
                    self.degrade_update[blk - self.nsn] = true;
                }
            }
            if blk < self.nsn {
                self.push_event(rank, OocEventKind::EvictPanel(blk));
            } else {
                self.arena_cur -= native;
                self.push_event(rank, OocEventKind::EvictUpdate(blk - self.nsn));
            }
        }
        Ok(())
    }
}

/// Build the out-of-core schedule for `budget_bytes` of device residency.
///
/// Fails with [`OocError::BudgetTooSmall`] when the budget is below
/// [`min_feasible_budget`]; a budget of [`in_core_bytes`] or more yields a
/// plan with no transfers at all (budgeted execution then trivially
/// matches the in-core driver).
pub fn plan_ooc(
    symbolic: &SymbolicFactor,
    elem_bytes: usize,
    budget_bytes: usize,
    ladder: PrecisionLadder,
    tiers: &TierParams,
) -> Result<OocPlan, OocError> {
    let nsn = symbolic.num_supernodes();
    let min_feasible = min_feasible_budget(symbolic, elem_bytes);
    if budget_bytes < min_feasible {
        return Err(OocError::BudgetTooSmall { budget: budget_bytes, required: min_feasible });
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
        nsn,
        elem_bytes,
        enc_bytes: ladder.stored_bytes(elem_bytes),
        budget: budget_bytes,
        tiers,
        ladder,
        block_elems,
        key,
        spilled: vec![None; 2 * nsn],
        evictable: BTreeSet::new(),
        cur: 0,
        arena_cur: 0,
        host_used: 0,
        ops: Vec::new(),
        events: Vec::new(),
        stats: OocStats {
            budget_bytes,
            elem_bytes,
            ladder,
            logical_peak_bytes: in_core_bytes(symbolic, elem_bytes),
            min_feasible_bytes: min_feasible,
            ..OocStats::default()
        },
        degrade_panel: vec![false; nsn],
        degrade_update: vec![false; nsn],
        arena_step_peak: 0,
    };

    let mut step_io = Vec::with_capacity(nsn);
    let mut arena_step_resident = Vec::with_capacity(nsn);

    for (r, &sn) in symbolic.postorder.iter().enumerate() {
        st.arena_step_peak = st.arena_cur;
        let info = &symbolic.supernodes[sn];
        let s = info.front_size();
        let k = info.k();
        let m = info.m();

        // Allocate the front first: assembly streams each child's update
        // into it one at a time.
        st.make_room(s * s * elem_bytes, r)?;
        st.cur += s * s * elem_bytes;
        st.arena_cur += s * s * elem_bytes;
        st.push_event(r, OocEventKind::AllocFront(sn));

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
            let native = st.native(blk);
            if let Some(tier) = st.spilled[blk] {
                let enc = st.encoded(blk);
                st.make_room(native, r)?;
                st.spilled[blk] = None;
                st.cur += native;
                st.arena_cur += native;
                if tier == SpillTier::Host {
                    st.host_used -= enc;
                    st.stats.host_bytes_in += enc;
                } else {
                    st.stats.disk_bytes_in += enc;
                }
                st.stats.loads += 1;
                st.stats.spill_seconds += tiers.transfer_seconds(tier, false, enc);
                st.ops.push(IoOp { tier, write: false, bytes: enc });
                st.push_event(r, OocEventKind::LoadUpdate(c));
            } else {
                st.evictable.remove(&(st.key[blk], blk));
            }
            st.cur -= native;
            st.arena_cur -= native;
            st.push_event(r, OocEventKind::ConsumeUpdate(c));
        }

        // The panel's slab slot.
        st.make_room(s * k * elem_bytes, r)?;
        st.cur += s * k * elem_bytes;
        st.push_event(r, OocEventKind::AllocPanel(sn));

        // Retire: the front compacts into the m×m update (in place —
        // `pop_and_compact` copies within the freed region), and the
        // finished panel plus the new update become evictable.
        st.cur -= (s * s - m * m) * elem_bytes;
        st.arena_cur -= (s * s - m * m) * elem_bytes;
        if m > 0 {
            st.evictable.insert((st.key[nsn + sn], nsn + sn));
        }
        st.evictable.insert((st.key[sn], sn));
        st.push_event(r, OocEventKind::Retire(sn));

        step_io.push(std::mem::take(&mut st.ops));
        arena_step_resident.push(st.arena_step_peak);
    }

    let panel_tier: Vec<Option<SpillTier>> = st.spilled[..nsn].to_vec();
    st.stats.panels_spilled_at_end = panel_tier.iter().filter(|t| t.is_some()).count();

    Ok(OocPlan {
        stats: st.stats,
        step_io,
        arena_step_resident,
        degrade_panel: st.degrade_panel,
        degrade_update: st.degrade_update,
        panel_tier,
        host_used_end: st.host_used,
        events: st.events,
        tiers: *tiers,
    })
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
    fn ladder_roundtrips_and_saturates() {
        for lad in [PrecisionLadder::Bf16, PrecisionLadder::F16] {
            // Powers of two and small integers are exact in both formats.
            for x in [0.0, 1.0, -2.0, 0.5, 1024.0, -0.25] {
                assert_eq!(lad.store_and_load(x), x, "{lad:?} should keep {x} exact");
            }
            // Idempotent: a second round trip changes nothing.
            let once = lad.store_and_load(std::f64::consts::PI);
            assert_eq!(lad.store_and_load(once), once);
            assert!((once - std::f64::consts::PI).abs() < 2e-2);
        }
        // f16 saturates instead of overflowing to infinity.
        assert_eq!(PrecisionLadder::F16.store_and_load(1e9), 65504.0);
        assert_eq!(PrecisionLadder::F16.store_and_load(-1e9), -65504.0);
        assert!(PrecisionLadder::Bf16.store_and_load(f32::MAX as f64).is_finite());
        // Subnormal halves survive the trip.
        let tiny = PrecisionLadder::F16.store_and_load(6e-8);
        assert!(tiny > 0.0 && tiny < 1e-7);
        // RNE: 1 + 2^-11 is halfway in f16 (10-bit mantissa) and must
        // round to the even neighbour, 1.0.
        assert_eq!(PrecisionLadder::F16.store_and_load(1.0 + 2f64.powi(-11)), 1.0);
        // Off is the identity.
        assert_eq!(PrecisionLadder::Off.store_and_load(std::f64::consts::E), std::f64::consts::E);
    }

    #[test]
    fn degrade_slice_matches_scalar_roundtrip() {
        let mut xs: Vec<f32> = (0..64).map(|i| (i as f32).sin() * 3.0).collect();
        let orig = xs.clone();
        PrecisionLadder::Bf16.degrade_slice(&mut xs);
        for (d, o) in xs.iter().zip(&orig) {
            assert_eq!(*d as f64, PrecisionLadder::Bf16.store_and_load(*o as f64));
        }
        // f64 inputs go through the f32 front end.
        let mut ys = [std::f64::consts::PI];
        PrecisionLadder::F16.degrade_slice(&mut ys);
        assert_eq!(ys[0], PrecisionLadder::F16.store_and_load(std::f64::consts::PI));
    }

    #[test]
    fn full_budget_plans_no_traffic() {
        let sym = test_symbolic();
        let bound = in_core_bytes(&sym, 4);
        let plan = plan_ooc(&sym, 4, bound, PrecisionLadder::Off, &TierParams::default()).unwrap();
        assert_eq!(plan.stats.evictions, 0);
        assert_eq!(plan.stats.loads, 0);
        assert_eq!(plan.stats.traffic_bytes(), 0);
        assert_eq!(plan.stats.panels_spilled_at_end, 0);
        assert!(plan.step_io.iter().all(|s| s.is_empty()));
        assert!(plan.degrade_panel.iter().all(|&d| !d));
        assert!(plan.stats.resident_peak_bytes <= bound);
    }

    #[test]
    fn tight_budget_spills_and_respects_residency() {
        let sym = test_symbolic();
        let bound = in_core_bytes(&sym, 4);
        let min = min_feasible_budget(&sym, 4);
        assert!(min <= bound);
        let budget = (bound * 3 / 10).max(min);
        let plan = plan_ooc(&sym, 4, budget, PrecisionLadder::Off, &TierParams::default()).unwrap();
        assert!(plan.stats.evictions > 0, "30% budget must evict");
        assert!(plan.stats.panels_spilled_at_end > 0);
        assert!(plan.events.iter().all(|e| e.resident_bytes <= budget));
        assert!(plan.stats.resident_peak_bytes <= budget);
        assert!(plan.stats.arena_resident_peak_bytes <= plan.stats.resident_peak_bytes);
        // Loads only ever re-fetch spilled updates, never panels.
        assert!(plan.stats.loads <= plan.stats.evictions);
        assert!(plan.stats.spill_seconds > 0.0);
        // Host tier fills before disk is touched.
        if plan.stats.disk_bytes_out > 0 {
            assert!(plan.stats.host_bytes_out > 0);
        }
    }

    #[test]
    fn infeasible_budget_is_typed() {
        let sym = test_symbolic();
        let min = min_feasible_budget(&sym, 4);
        match plan_ooc(&sym, 4, min - 1, PrecisionLadder::Off, &TierParams::default()) {
            Err(OocError::BudgetTooSmall { budget, required }) => {
                assert_eq!(budget, min - 1);
                assert_eq!(required, min);
            }
            other => panic!("expected BudgetTooSmall, got {other:?}"),
        }
        // At exactly the minimum the plan must succeed.
        assert!(plan_ooc(&sym, 4, min, PrecisionLadder::Off, &TierParams::default()).is_ok());
    }

    #[test]
    fn plan_is_deterministic_and_ladder_halves_traffic() {
        let sym = test_symbolic();
        let bound = in_core_bytes(&sym, 4);
        let budget = (bound * 3 / 10).max(min_feasible_budget(&sym, 4));
        let tiers = TierParams::default();
        let a = plan_ooc(&sym, 4, budget, PrecisionLadder::Off, &tiers).unwrap();
        let b = plan_ooc(&sym, 4, budget, PrecisionLadder::Off, &tiers).unwrap();
        assert_eq!(a, b, "the plan is a pure function of its inputs");
        let bf = plan_ooc(&sym, 4, budget, PrecisionLadder::Bf16, &tiers).unwrap();
        // Same schedule, half the encoded bytes per f32 scalar.
        assert_eq!(bf.stats.evictions, a.stats.evictions);
        assert_eq!(bf.stats.traffic_bytes() * 2, a.stats.traffic_bytes());
        // Every spilled block is flagged for degradation, and only those.
        for sn in 0..sym.num_supernodes() {
            if bf.panel_tier[sn].is_some() {
                assert!(bf.degrade_panel[sn]);
            }
        }
        assert!(bf.degrade_panel.iter().any(|&d| d));
        assert!(a.degrade_panel.iter().all(|&d| !d), "ladder off never degrades");
    }
}
