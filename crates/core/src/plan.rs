//! The run plan: what a factorization executes, decided once before any
//! front moves.
//!
//! [`FactorOptions::plan`] reads the options, the machines and the structure
//! and returns an [`ExecPlan`]: one [`Schedule`] and the [`Decision`] it took
//! on the caller's behalf, if any, with its reason. An option combination no
//! driver runs is a typed [`PlanError`]. Both entries — [`factor_permuted`]
//! and [`factor_permuted_parallel`] — make the one plan of their first
//! machine and hand it to one dispatch, [`run_plan`]; no driver reroutes, and
//! the run records its plan in [`FactorStats::plan`]. The parallel entry's
//! worker count changes how a drain executes (range tasks on the
//! `mf-runtime` scheduler over every machine), hence the wall time and the
//! storage accounting, and nothing simulated.
//!
//! What the run decides per front — a device OOM sending a front to P1 — is
//! not a plan decision; `FactorStats::oom_fallbacks` counts it.
//!
//! One private function maps a [`Schedule`] to its driver: with the matrix
//! and a factor slab for [`run_plan`], without either for
//! [`FactorOptions::rehearse`], which runs the plan on a twin of the first
//! machine (same configuration, fresh clocks and device) and
//! returns the run's simulated clock, per-call records and out-of-core
//! accounting bit for bit — or the run's own error. Every price is read from
//! the structure, so planning and rehearsing take no matrix. The plan's own
//! two single-device rehearsals are the same routine, and so is the clock of
//! the parallel entry's drain, run on the first machine itself, whose range
//! tasks run on twins. A run starts the clocks of the machines it runs on at
//! zero, as a twin's start.
//!
//! [`factor_permuted`]: crate::factor::factor_permuted
//! [`factor_permuted_parallel`]: crate::parallel::factor_permuted_parallel

use crate::factor::{factor_drain, CholeskyFactor, FactorError, FactorOptions};
use crate::multigpu::issue_fronts;
use crate::parallel::{factor_tasks, ParallelOptions};
use crate::stats::FactorStats;
use mf_dense::Scalar;
use mf_gpusim::{Gpu, HostClock, Machine};
use mf_sparse::symbolic::SymbolicFactor;
use mf_sparse::{Permutation, SymCsc};
use std::fmt;

/// The schedule a run executes. Every schedule produces the same factor
/// bits; they differ in the simulated timeline and in where fronts live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One front at a time in postorder on one machine's arena, the device
    /// drained after each. The parallel entry runs the same fronts as
    /// postorder range tasks, one worker per machine; its simulated fields
    /// are the serial run's.
    #[default]
    Drain,
    /// Fronts in flight on `devices` identical devices, one lane each, fed
    /// from one host timeline: look-ahead staging and event-gated downloads;
    /// on one device, batched runs of small P4 fronts; over several,
    /// peer-copy extend-adds between devices. Both entries run it on their
    /// first machine and leave the others untouched.
    Pipelined {
        /// Simulated devices; the machine's own is device 0.
        devices: usize,
    },
}

/// A choice the planner made on the caller's behalf, with its reason.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Pipelining was asked under a memory budget. The residency plan models
    /// the drain schedule's nested front lifetimes only, so the run drains.
    BudgetDrains,
    /// Pipelining was asked, but the machines carry no device: the run
    /// drains.
    NoDevice,
    /// The exact rehearsal of both single-device schedules (simulated
    /// seconds). The run pipelines iff `pipelined_s < drain_s`, so a
    /// pipelined request never loses to the drain schedule.
    Rehearsed {
        /// Makespan of the pipelined schedule.
        pipelined_s: f64,
        /// Makespan of the drain schedule.
        drain_s: f64,
    },
}

/// What a factorization run executes (see the module docs), priced for and
/// run on the first machine by either entry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecPlan {
    /// The schedule.
    pub schedule: Schedule,
    /// The choice the planner made on the caller's behalf, if any.
    pub decision: Option<Decision>,
}

/// An option combination no driver runs, rejected before any machine is
/// touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The parallel entry got no machine to run on.
    NoMachines,
    /// The parallel entry got machines unlike its first: any worker runs any
    /// front, so every machine needs the first one's CPU configuration and
    /// device configuration (or, like it, no device).
    UnlikeMachines,
    /// `devices.count` is zero.
    NoDevices,
    /// Several devices without pipelining: only the pipelined schedule keeps
    /// fronts in flight on more than one device.
    DevicesWithoutPipeline {
        /// The requested device count.
        devices: usize,
    },
    /// Several devices, but the machines carry none to replicate.
    DevicesWithoutGpu {
        /// The requested device count.
        devices: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoMachines => write!(f, "no machine to factor on"),
            PlanError::UnlikeMachines => write!(f, "machines of unlike configurations"),
            PlanError::NoDevices => write!(f, "a device count of zero"),
            PlanError::DevicesWithoutPipeline { devices } => {
                write!(f, "{devices} devices need pipelining enabled")
            }
            PlanError::DevicesWithoutGpu { devices } => {
                write!(f, "{devices} devices requested, but no machine carries a GPU")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl FactorOptions {
    /// The plan of a run of these options on `machines` — one machine for
    /// [`crate::factor_permuted`], one per worker for
    /// [`crate::factor_permuted_parallel`] — over `symbolic`'s structure, its
    /// prices at `T`'s width on the first machine, which every other must be
    /// like. Pure: it reads the machines' configurations only, and a run of
    /// the same inputs records exactly this plan.
    ///
    /// - Without pipelining the run drains ([`Schedule::Drain`]).
    /// - Pipelining under a memory budget, or without a device, drains too
    ///   ([`Decision::BudgetDrains`], [`Decision::NoDevice`]).
    /// - Otherwise the fronts run in flight on the first machine's host
    ///   timeline: several devices are [`Schedule::Pipelined`]; so is one
    ///   device when the exact rehearsal predicts it to win, else the run
    ///   drains ([`Decision::Rehearsed`]).
    pub fn plan<T: Scalar>(
        &self,
        symbolic: &SymbolicFactor,
        machines: &[Machine],
    ) -> Result<ExecPlan, PlanError> {
        let devices = self.devices.count;
        let Some(first) = machines.first() else { return Err(PlanError::NoMachines) };
        let alike = |m: &Machine| {
            m.host.config() == first.host.config()
                && m.gpu.as_ref().map(Gpu::config) == first.gpu.as_ref().map(Gpu::config)
        };
        if !machines.iter().all(alike) {
            return Err(PlanError::UnlikeMachines);
        } else if devices == 0 {
            return Err(PlanError::NoDevices);
        } else if devices > 1 && !self.pipeline.enabled {
            return Err(PlanError::DevicesWithoutPipeline { devices });
        } else if devices > 1 && first.gpu.is_none() {
            return Err(PlanError::DevicesWithoutGpu { devices });
        }
        let mut plan = ExecPlan::default();
        if !self.pipeline.enabled {
            return Ok(plan);
        }
        if self.memory_budget.is_some() {
            plan.decision = Some(Decision::BudgetDrains);
            return Ok(plan);
        }
        if first.gpu.is_none() {
            plan.decision = Some(Decision::NoDevice);
            return Ok(plan);
        }
        plan.schedule = Schedule::Pipelined { devices };
        if devices == 1 {
            let [pipelined_s, drain_s] = [plan.schedule, Schedule::Drain].map(|s| {
                let rehearsed = drive::<T>(s, symbolic, &mut twin(first), self, None);
                rehearsed.expect("an in-core rehearsal has no data to fail on").total_time
            });
            plan.decision = Some(Decision::Rehearsed { pipelined_s, drain_s });
            if pipelined_s >= drain_s {
                plan.schedule = Schedule::Drain;
            }
        }
        Ok(plan)
    }

    /// The simulated clock of a factorization under these options on
    /// `machine`, without data: the plan, its schedule run by the same driver
    /// on a twin of `machine` (same configuration, fresh clocks and device)
    /// without the matrix or a factor slab. No numeric buffer is allocated
    /// or touched (device buffers are reserved, not allocated); `symbolic`
    /// gives every front's shape and entry count, and `T` the bytes every
    /// transfer, assembly and spill is charged for.
    ///
    /// `total_time`, `records`, `gpu`, `gpu_devices`, `peer_bytes`,
    /// `oom_fallbacks`, `plan` and `ooc` equal those of
    /// [`crate::factor_permuted`] on `machine` and of
    /// [`crate::factor_permuted_parallel`] on any number of machines like it,
    /// bit for bit, on any machine and under any budget.
    /// `front_alloc_events` and `peak_front_bytes` describe storage a
    /// rehearsal never holds: they are zero, and so is `wall_time`. Where
    /// the run fails before touching data — an option combination no driver
    /// runs, an infeasible memory budget — the rehearsal returns the run's
    /// own error; it reads no pivot, so it never fails on one.
    pub fn rehearse<T: Scalar>(
        &self,
        symbolic: &SymbolicFactor,
        machine: &Machine,
    ) -> Result<FactorStats, FactorError> {
        let plan = self.plan::<T>(symbolic, std::slice::from_ref(machine))?;
        let rehearsed = drive::<T>(plan.schedule, symbolic, &mut twin(machine), self, None)?;
        Ok(FactorStats { plan, ..rehearsed })
    }
}

/// Run `plan` — [`FactorOptions::plan`]'s for these options and machines —
/// on its driver, the clocks of the machines it runs on started at zero, and
/// record it and the call's wall time in the stats. From the parallel entry
/// (`par`) a drain runs as range tasks, one worker per machine on a twin of
/// the first, its simulated fields the drain run without data on the first
/// machine before the tasks start; every other run is the serial driver's on
/// the first machine. Machines after the first are never touched.
pub(crate) fn run_plan<T: Scalar>(
    plan: ExecPlan,
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    machines: &mut [Machine],
    opts: &FactorOptions,
    par: Option<&ParallelOptions>,
) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
    let wall0 = std::time::Instant::now();
    let mut slab = vec![T::ZERO; symbolic.factor_slab_len()];
    let stats = match (plan.schedule, par) {
        (Schedule::Drain, Some(par)) => {
            // The drain's clock runs without data on the first machine, and
            // first: it builds the budget's out-of-core plan, so an
            // infeasible budget fails typed before any worker runs.
            machines[0].reset();
            let clock = drive::<T>(Schedule::Drain, symbolic, &mut machines[0], opts, None)?;
            let workers = (&machines[0], machines.len());
            let (peak_front_bytes, front_alloc_events) =
                factor_tasks((a, &mut slab), symbolic, workers, opts, par.thread_budget)?;
            FactorStats { peak_front_bytes, front_alloc_events, ..clock }
        }
        (schedule, _) => {
            machines[0].reset();
            drive(schedule, symbolic, &mut machines[0], opts, Some((a, &mut slab[..])))?
        }
    };
    let factor = CholeskyFactor { symbolic: symbolic.clone(), perm: perm.clone(), slab };
    Ok((factor, FactorStats { wall_time: wall0.elapsed().as_secs_f64(), plan, ..stats }))
}

/// A twin of `machine`, on which a rehearsal and a parallel drain's workers
/// run: the same configuration, fresh clocks and, if `machine` has a device,
/// a fresh one.
pub(crate) fn twin(machine: &Machine) -> Machine {
    let gpu = machine.gpu.as_ref().map(|g| Gpu::new(g.config().clone()));
    Machine { host: HostClock::new(machine.host.config().clone()), gpu }
}

/// Run `schedule` on its driver on `machine`'s host timeline with `data`,
/// the matrix to assemble and the slab for the panels, or without it
/// timing-only. The one map from a schedule to its driver, for the run and
/// the rehearsal alike.
fn drive<T: Scalar>(
    schedule: Schedule,
    symbolic: &SymbolicFactor,
    machine: &mut Machine,
    opts: &FactorOptions,
    data: Option<(&SymCsc<T>, &mut [T])>,
) -> Result<FactorStats, FactorError> {
    match schedule {
        Schedule::Drain => factor_drain(symbolic, machine, opts, data),
        Schedule::Pipelined { devices } => issue_fronts(symbolic, machine, opts, devices, data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::PipelineOptions;
    use crate::multigpu::MultiGpuOptions;
    use crate::parallel::factor_permuted_parallel;
    use crate::policy::PolicyKind;
    use crate::PolicySelector;
    use mf_matgen::{laplacian_3d, Stencil};
    use mf_sparse::symbolic::analyze;
    use mf_sparse::{AmalgamationOptions, OrderingKind};

    #[test]
    fn exec_plan_without_machines_is_typed() {
        let a = laplacian_3d(4, 4, 3, Stencil::Faces);
        let an = analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
            .unwrap();
        for opts in [
            FactorOptions::default(),
            FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P4),
                pipeline: PipelineOptions::pipelined(),
                devices: MultiGpuOptions::devices(2),
                ..Default::default()
            },
        ] {
            let par = ParallelOptions::default();
            let ran = factor_permuted_parallel(
                &an.permuted.0,
                &an.symbolic,
                &an.perm,
                &mut [],
                &opts,
                &par,
            );
            assert_eq!(ran.err(), Some(FactorError::Plan(PlanError::NoMachines)));
        }
        let e = FactorError::Plan(PlanError::DevicesWithoutPipeline { devices: 4 });
        assert_eq!(e.to_string(), "unsupported options: 4 devices need pipelining enabled");
    }

    #[test]
    fn rehearsal_under_an_infeasible_budget_is_the_runs_error() {
        // One byte below the smallest feasible budget, on a machine with a
        // device and on one without, drained or asked to pipeline (which
        // drains under a budget): the rehearsal fails as the run does.
        let a = laplacian_3d(4, 4, 3, Stencil::Faces);
        let an = analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
            .unwrap();
        let (a, symbolic) = (&an.permuted.0, &an.symbolic);
        let required = crate::ooc::min_feasible_budget(symbolic, f64::BYTES);
        let want = FactorError::BudgetTooSmall { budget: required - 1, required };
        let machines = [Machine::paper_node, || Machine::cpu_only(mf_gpusim::xeon_5160_core())];
        for (machine, pipeline) in machines
            .iter()
            .flat_map(|m| [(m, PipelineOptions::default()), (m, PipelineOptions::pipelined())])
        {
            let opts =
                FactorOptions { pipeline, memory_budget: Some(required - 1), ..Default::default() };
            let ran = crate::factor_permuted(a, symbolic, &an.perm, &mut machine(), &opts);
            assert_eq!(ran.err(), Some(want), "{pipeline:?}: the run");
            let rehearsed = opts.rehearse::<f64>(symbolic, &machine());
            assert_eq!(rehearsed.err(), Some(want), "{pipeline:?}");
        }
    }
}
