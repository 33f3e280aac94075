//! One wall-clock + sim-clock benchmark for the whole solver.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! benchmark --smoke [--seed <u64>]        every workload, tiny, traced too
//! benchmark --manifest                    print BENCHMARK.json
//! ```
//!
//! One workload per process. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! (and a Chrome trace lands in `benchmark/out/`). The line before it is the
//! run's record: host, noise, sample counts. See `benchmark/README.md`.

mod check;
mod cold;
mod host;
mod inputs;
mod ladder;
mod metrics;
mod profile;
mod rng;
mod sched;
mod serve;
mod stats;
mod trace;

use check::{Checks, Sabotage, Tally};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Per-layer metrics by name; a metric a workload does not exercise is
/// absent here and printed as 0.
pub type Layer = BTreeMap<String, f64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cube3dCold,
    Plate2dCold,
    Plate2dPar2,
    ElasticLadder,
    ServerOpen,
    ServerClosed8,
}

impl Workload {
    const ALL: [Workload; 6] = [
        Workload::Cube3dCold,
        Workload::Plate2dCold,
        Workload::Plate2dPar2,
        Workload::ElasticLadder,
        Workload::ServerOpen,
        Workload::ServerClosed8,
    ];

    /// The variants are declared in the order of [`metrics::WORKLOADS`].
    fn name(self) -> &'static str {
        metrics::WORKLOADS[self as usize].name
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub checks: Checks,
}

impl RunCfg {
    /// Ops a measuring loop runs at least, however short `--seconds` is; also
    /// the ops of each kind (untraced, traced) in the traced run.
    pub fn min_ops(&self) -> u32 {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Whether a measuring loop that has done `done` ops since `started`
    /// runs another: until `--seconds` have passed (smoke: one op).
    pub fn more_ops(&self, done: u32, started: Instant) -> bool {
        done < self.min_ops() || (!self.smoke && started.elapsed().as_secs_f64() < self.seconds)
    }
}

/// Ops timed back to back with nothing else in flight before or after: all
/// reps or passes of a batch workload, one drained window of a server one.
pub struct Window {
    /// Wall milliseconds of each op that passed its checks.
    pub op_ms: Vec<f64>,
    /// Wall seconds from the first op's start to the last op's completion.
    pub seconds: f64,
}

/// What a workload hands back.
pub struct Outcome {
    pub setup_s: f64,
    pub windows: Vec<Window>,
    pub tally: Tally,
    pub layer: Layer,
    /// Simulated seconds (clock `sim`) the untraced run can read for free;
    /// printed in the record so an A/A check can demand exact repeats.
    pub sim: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The outcome of a batch workload: its reps or passes, `seconds` from
    /// the first one's start to the last one's end, are one window.
    pub fn batch(
        setup_s: f64,
        op_ms: Vec<f64>,
        seconds: f64,
        tally: Tally,
        layer: Layer,
        sim: Vec<(&'static str, f64)>,
    ) -> Outcome {
        Outcome { setup_s, windows: vec![Window { op_ms, seconds }], tally, layer, sim }
    }
}

/// The three wall-clock end-to-end figures, `None` when no op succeeded:
/// the median op time over the ops of all windows together; the tail
/// percentile and the rate per window, and of those the median over
/// windows. A stall of the host lifts the tail of the window it falls in and
/// hardly moves a median, so the tail is the figure that needs the windows
/// and the median the one that can use every sample (measured on
/// `server_open`, ten seeds: median 7 % pooled against 13 % over windows,
/// p95 16–29 % pooled against 12 % over windows).
pub fn headline(windows: &[Window]) -> Option<(f64, f64, f64)> {
    let timed: Vec<&Window> = windows.iter().filter(|w| !w.op_ms.is_empty()).collect();
    if timed.is_empty() {
        return None;
    }
    let pooled: Vec<f64> = timed.iter().flat_map(|w| &w.op_ms).copied().collect();
    let tail: Vec<f64> = timed.iter().map(|w| stats::tail(&w.op_ms).1).collect();
    let rate: Vec<f64> = timed.iter().map(|w| w.op_ms.len() as f64 / w.seconds).collect();
    Some((stats::median(&pooled), stats::median(&tail), stats::median(&rate)))
}

/// Set up several times and report the median time, so one slow set-up does
/// not decide `setup_s`; the last set-up's product is the one measured on.
pub fn repeat_setup<T>(cfg: &RunCfg, mut set_up: impl FnMut() -> T) -> (T, f64) {
    let reps = if cfg.smoke { 1 } else { 3 };
    let mut seconds = Vec::new();
    let mut product = None;
    for _ in 0..reps {
        drop(product.take());
        let t = Instant::now();
        product = Some(set_up());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (product.expect("at least one set-up"), stats::median(&seconds))
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
}

/// Run one workload; print its record line and its result line. Returns
/// whether every op passed its checks.
fn run_workload(cfg: &RunCfg) -> bool {
    use gpu_multifrontal::dense;
    // One dense-kernel thread everywhere except the workload that measures
    // two workers, where the cap is the worker count and the factor driver's
    // thread budget arbitrates below it.
    dense::set_num_threads(if cfg.workload == Workload::Plate2dPar2 { cold::WORKERS } else { 1 });
    let calib_before_s = host::calibrate();
    let steal_before = host::steal_jiffies();
    let mut tr = Tracer::new(cfg.trace, cfg.workload.name());

    let out = match cfg.workload {
        Workload::Cube3dCold | Workload::Plate2dCold | Workload::Plate2dPar2 => {
            cold::run(cfg, &mut tr)
        }
        Workload::ElasticLadder => ladder::run(cfg, &mut tr),
        Workload::ServerOpen | Workload::ServerClosed8 => serve::run(cfg, &mut tr),
    };

    let record = host::HostRecord {
        nproc: host::nproc(),
        dense_threads: dense::num_threads(),
        llc_bytes: host::llc_bytes(),
        triad_array_bytes: if cfg.trace { 8 * profile::triad_elems(cfg.smoke) } else { 0 },
        calib_before_s,
        calib_after_s: host::calibrate(),
        steal_jiffies: host::steal_jiffies().saturating_sub(steal_before),
    };
    let headline = headline(&out.windows);
    let correct = out.tally.failed == 0 && headline.is_some();

    let metrics: Vec<String> = if cfg.trace {
        let mut layer = out.layer;
        layer.insert("bench.calib_drift_frac".into(), record.calib_drift_frac());
        let path = format!("benchmark/out/trace-{}.json", cfg.workload.name());
        if let Err(e) = tr.write_chrome(std::path::Path::new(&path)) {
            eprintln!("could not write {path}: {e}");
        }
        metrics::PER_LAYER
            .iter()
            .map(|m| metric_json(m.name, layer.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    } else {
        // No timed op succeeded: the run is incorrect and its times are void.
        let (p50_ms, _, ops_per_s) = headline.unwrap_or((0.0, 0.0, 0.0));
        let values = [out.setup_s, p50_ms, ops_per_s, host::peak_rss_mb()];
        metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| metric_json(m.name, v, m.unit))
            .collect()
    };

    for why in &out.tally.reasons {
        eprintln!("FAILED {}: {why}", cfg.workload.name());
    }
    let samples: Vec<usize> = out.windows.iter().map(|w| w.op_ms.len()).collect();
    let sim: Vec<String> = out.sim.iter().map(|(name, v)| format!("\"{name}\":{v}")).collect();
    println!(
        "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
         \"noisy\":{},\"windows\":{},\"samples\":{},\"tail_level\":{},\"tail_ms\":{},\
         \"clock\":\"wall unless the unit says sim\",\"sim_s\":{{{}}},\"op_ms\":[{}],\"host\":{}}}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.smoke,
        record.noisy(),
        samples.len(),
        samples.iter().sum::<usize>(),
        // The level every window supports: that of the smallest one.
        stats::tail_level(samples.iter().copied().min().unwrap_or(0)),
        number(headline.map_or(0.0, |h| h.1)),
        sim.join(","),
        // The samples themselves where they are few (reps and passes).
        out.windows
            .iter()
            .flat_map(|w| &w.op_ms)
            .take(64)
            .map(|ms| format!("{ms:.3}"))
            .collect::<Vec<_>>()
            .join(","),
        record.json(),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.join(", "),
    );
    correct
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    manifest: bool,
    sabotage: Option<Sabotage>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
        manifest: false,
        sabotage: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--sabotage" => {
                args.sabotage = Some(match value("--sabotage")?.as_str() {
                    "flip-bit" => Sabotage::FlipBit,
                    "tolerance" => Sabotage::Tolerance,
                    other => {
                        return Err(format!("--sabotage takes flip-bit or tolerance, got {other}"))
                    }
                })
            }
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    let checks = Checks::new(args.sabotage);
    let cfg = |workload, trace| RunCfg {
        workload,
        seed: args.seed,
        seconds: if args.smoke { 1.0 } else { args.seconds },
        trace,
        smoke: args.smoke,
        checks,
    };
    let ok = match (&args.workload, args.smoke) {
        (Some(name), _) => match Workload::parse(name) {
            Some(w) => run_workload(&cfg(w, args.trace)),
            None => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                eprintln!("unknown workload {name}; one of {}", names.join(", "));
                return ExitCode::from(2);
            }
        },
        // `--smoke` alone: every workload, untraced then traced, tiny sizes.
        (None, true) => {
            let mut ok = true;
            for w in Workload::ALL {
                ok &= run_workload(&cfg(w, false));
                ok &= run_workload(&cfg(w, true));
            }
            println!("{{\"smoke\": true, \"correct\": {ok}}}");
            ok
        }
        (None, false) => {
            eprintln!("--workload is required (or --smoke for all of them)");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_pools_the_median_and_takes_tail_and_rate_per_window() {
        assert!(headline(&[]).is_none());
        assert!(headline(&[Window { op_ms: Vec::new(), seconds: 1.0 }]).is_none());
        // A batch workload: one window, too few ops for a tail percentile.
        let (p50, tail, rate) =
            headline(&[Window { op_ms: vec![3.0, 1.0, 2.0], seconds: 6.0 }]).unwrap();
        assert_eq!((p50, tail, rate), (2.0, 2.0, 0.5));
        // Three windows of 400 ops; a stall lifts every op of the third by
        // 1000. The tail is the middle window's p95, the median is pooled.
        let ramp = |from: f64| (0..400).map(|i| from + f64::from(i)).collect::<Vec<f64>>();
        let windows = [
            Window { op_ms: ramp(0.0), seconds: 4.0 },
            Window { op_ms: ramp(10.0), seconds: 5.0 },
            Window { op_ms: ramp(1000.0), seconds: 8.0 },
            // a window in which every op failed carries no sample.
            Window { op_ms: Vec::new(), seconds: 4.0 },
        ];
        let (p50, tail, rate) = headline(&windows).unwrap();
        assert_eq!(tail, 10.0 + 379.0);
        assert_eq!(rate, 80.0);
        assert_eq!(p50, stats::median(&[ramp(0.0), ramp(10.0), ramp(1000.0)].concat()));
    }
}
