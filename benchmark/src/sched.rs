//! Request schedules for the server workloads.
//!
//! The arrival process is Poisson conditioned on its count: exactly
//! `round(rate·seconds)` arrivals at the order statistics of uniform times,
//! which is what a Poisson process looks like once you know how many events
//! it had. Request kinds are dealt from a shuffled deck with exact
//! proportions, and each kind's sessions from a deck of its own.
//!
//! The schedule is one fixed sample of that process — the workload's
//! *trace*, drawn from a constant — and `--seed` decides where in the trace
//! a run starts (the trace is replayed cyclically). A fresh sample per seed
//! was tried first: the few dozen refactors of a ten-second run decide most
//! of the queueing, and where the dice put them moved the median latency by
//! 16 % and p95 by 29 % between ten seeds (quartile distance ÷ median), more
//! than any regression bound. Replaying one trace keeps the offered work
//! and its bursts the same, so two runs differ by the solver or the host.

use crate::rng::Rng;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Solve1,
    Solve4,
    Resubmit,
}

impl Kind {
    pub fn nrhs(self) -> usize {
        match self {
            Kind::Solve1 => 1,
            Kind::Solve4 => 4,
            Kind::Resubmit => 0,
        }
    }
}

/// Share of each request kind in the open-loop mix.
const OPEN_MIX: [(Kind, f64); 3] =
    [(Kind::Solve1, 0.91), (Kind::Solve4, 0.05), (Kind::Resubmit, 0.04)];
/// Zipf exponent of the session choice.
const ZIPF_S: f64 = 1.2;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Seconds after the window opens at which the request is due.
    pub due_s: f64,
    pub session: usize,
    pub kind: Kind,
    /// First right-hand-side column of the session's pool to use.
    pub rhs: usize,
}

fn zipf_weights(n: usize) -> Vec<f64> {
    (1..=n).map(|r| (r as f64).powf(-ZIPF_S)).collect()
}

/// `n` items with counts proportional to the weights (largest remainder),
/// shuffled.
pub fn deck<T: Copy>(items: &[(T, f64)], n: usize, rng: &mut Rng) -> Vec<T> {
    let total: f64 = items.iter().map(|(_, w)| w).sum();
    let exact: Vec<f64> = items.iter().map(|(_, w)| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..items.len()).collect();
    by_remainder
        .sort_by(|&i, &j| (exact[j] - exact[j].floor()).total_cmp(&(exact[i] - exact[i].floor())));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut out = Vec::with_capacity(n);
    for (&(item, _), &c) in items.iter().zip(&counts) {
        out.extend(std::iter::repeat_n(item, c));
    }
    rng.shuffle(&mut out);
    out
}

fn session_deck(n: usize, sessions: usize, rng: &mut Rng) -> Vec<usize> {
    let weighted: Vec<(usize, f64)> = zipf_weights(sessions).into_iter().enumerate().collect();
    deck(&weighted, n, rng)
}

/// Seed of the trace: part of the workload's definition, not an input.
const TRACE_SEED: u64 = 0x6d66_2d73_6572_7665;

/// The open-loop trace: `round(rate·seconds)` requests due in `(0, seconds)`.
pub fn open_trace(rate_per_s: f64, seconds: f64, sessions: usize, rhs_pool: usize) -> Vec<Request> {
    let n = ((rate_per_s * seconds).round() as usize).max(1);
    let mut arrivals = Rng::new(TRACE_SEED, "arrivals");
    let gaps: Vec<f64> = (0..=n).map(|_| arrivals.exp1()).collect();
    let total: f64 = gaps.iter().sum();
    let mut choice = Rng::new(TRACE_SEED, "sessions");
    let kinds = deck(&OPEN_MIX, n, &mut choice);
    let mut sessions_of: Vec<Vec<usize>> = OPEN_MIX
        .iter()
        .map(|&(kind, _)| {
            session_deck(kinds.iter().filter(|&&k| k == kind).count(), sessions, &mut choice)
        })
        .collect();
    let mut t = 0.0;
    kinds
        .iter()
        .zip(&gaps)
        .map(|(&kind, gap)| {
            t += gap;
            let of_kind =
                OPEN_MIX.iter().position(|&(k, _)| k == kind).expect("kind is in the mix");
            Request {
                due_s: seconds * t / total,
                session: sessions_of[of_kind].pop().expect("one session per request of the kind"),
                kind,
                rhs: choice.below(rhs_pool),
            }
        })
        .collect()
}

/// `trace` (due in `(0, seconds)`) replayed cyclically from a seeded point,
/// cut into `windows` windows of equal request counts (equal durations would
/// let a window's sample fall below what its tail percentile needs); each
/// window's due times count from the previous window's last request.
pub fn replay(trace: &[Request], seconds: f64, seed: u64, windows: u32) -> Vec<Vec<Request>> {
    let start = seconds * Rng::new(seed, "arrivals").unit();
    let first = trace.partition_point(|r| r.due_s < start);
    let n = trace.len();
    let mut out = vec![Vec::new(); windows as usize];
    let mut window_start = start;
    for i in 0..n {
        let r = &trace[(first + i) % n];
        let due_s = if first + i < n { r.due_s } else { r.due_s + seconds };
        let w = i * out.len() / n;
        out[w].push(Request { due_s: due_s - window_start, ..*r });
        if (i + 1) * out.len() / n > w {
            window_start = due_s;
        }
    }
    out
}

/// Session and right-hand-side choices for the closed loop, which issues as
/// fast as answers return and so has no arrival times; cycled when used up.
/// One fixed list, entered at a seeded point.
pub fn closed_choices(seed: u64, sessions: usize, rhs_pool: usize) -> Vec<(usize, usize)> {
    let mut choice = Rng::new(TRACE_SEED, "sessions");
    let sess = session_deck(4096, sessions, &mut choice);
    let mut all: Vec<(usize, usize)> =
        sess.into_iter().map(|s| (s, choice.below(rhs_pool))).collect();
    let first = Rng::new(seed, "sessions").below(all.len());
    all.rotate_left(first);
    all
}

/// Open-loop latency: from the instant the request was *due* to the
/// worker-stamped completion. `after_submit` is taken right after the
/// submit call returned and `queue_to_done` is the ticket's own
/// submit-to-completion latency, so a generator that ran late (or a submit
/// that blocked) is charged to the request instead of hidden.
pub fn latency_from_due(due: Instant, after_submit: Instant, queue_to_done: Duration) -> Duration {
    after_submit.saturating_duration_since(due) + queue_to_done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_repeats_for_a_seed_and_differs_across_seeds() {
        let trace = open_trace(70.0, 10.0, 6, 8);
        assert_eq!(trace, open_trace(70.0, 10.0, 6, 8));
        let a = replay(&trace, 10.0, 5, 3);
        assert_eq!(a, replay(&trace, 10.0, 5, 3));
        assert_ne!(a, replay(&trace, 10.0, 6, 3));
    }

    #[test]
    fn replay_keeps_every_request_and_every_gap() {
        let trace = open_trace(70.0, 10.0, 6, 8);
        let n = trace.len();
        let windows = replay(&trace, 10.0, 9, 3);
        assert_eq!(windows.iter().map(Vec::len).collect::<Vec<_>>(), [234, 233, 233]);
        for w in &windows {
            assert!(w.windows(2).all(|p| p[0].due_s <= p[1].due_s));
            assert!(w[0].due_s >= 0.0);
        }
        // Laid end to end the windows are the trace, rotated: the same
        // requests in the same cyclic order with the same gaps between them.
        let mut flat: Vec<Request> = Vec::new();
        let mut offset = 0.0;
        for w in &windows {
            flat.extend(w.iter().map(|r| Request { due_s: r.due_s + offset, ..*r }));
            offset = flat[flat.len() - 1].due_s;
        }
        assert!(offset < 10.0);
        let same =
            |a: &Request, b: &Request| (a.session, a.kind, a.rhs) == (b.session, b.kind, b.rhs);
        let k = (0..n)
            .find(|&k| (0..n).all(|j| same(&trace[(k + j) % n], &flat[j])))
            .expect("a rotation of the trace");
        for j in 1..n - k {
            let in_trace = trace[k + j].due_s - trace[k + j - 1].due_s;
            assert!((flat[j].due_s - flat[j - 1].due_s - in_trace).abs() < 1e-9);
        }
    }

    #[test]
    fn trace_has_exact_count_mix_and_sorted_dues() {
        let s = open_trace(70.0, 10.0, 6, 8);
        assert_eq!(s.len(), 700);
        assert!(s.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(s[0].due_s > 0.0 && s[699].due_s < 10.0);
        let count = |k| s.iter().filter(|r| r.kind == k).count();
        assert_eq!(
            (count(Kind::Solve1), count(Kind::Solve4), count(Kind::Resubmit)),
            (637, 35, 28)
        );
        // Zipf(1.2) over six sessions, dealt per kind: rank 1 gets 46.4 % of
        // the 28 resubmits and rank 6 gets 5.4 % of them.
        let resubmits =
            |sess| s.iter().filter(|r| r.kind == Kind::Resubmit && r.session == sess).count();
        assert_eq!((resubmits(0), resubmits(5)), (13, 2));
        assert_eq!(s.iter().filter(|r| r.session == 0).count(), 296 + 16 + 13);
        assert!(s.iter().all(|r| r.session < 6 && r.rhs < 8));
    }

    #[test]
    fn deck_rounds_by_largest_remainder() {
        let d = deck(&[('a', 0.5), ('b', 0.3), ('c', 0.2)], 7, &mut Rng::new(0, "d"));
        let count = |c| d.iter().filter(|&&x| x == c).count();
        // exact shares 3.5, 2.1, 1.4: floors 3, 2, 1 and the spare goes to 'a'.
        assert_eq!((count('a'), count('b'), count('c')), (4, 2, 1));
    }

    #[test]
    fn due_time_latency() {
        let due = Instant::now();
        let ms = Duration::from_millis;
        // generator 3 ms late, then 2 ms in the server: the caller waited 5.
        assert_eq!(latency_from_due(due, due + ms(3), ms(2)), ms(5));
        // on time: just the server's share.
        assert_eq!(latency_from_due(due, due, ms(2)), ms(2));
        // a submit stamped before its due time never yields negative wait.
        assert_eq!(latency_from_due(due + ms(1), due, ms(2)), ms(2));
    }

    #[test]
    fn closed_choices_repeat_and_rotate() {
        let a = closed_choices(3, 6, 8);
        assert_eq!(a, closed_choices(3, 6, 8));
        assert_eq!(a.len(), 4096);
        let b = closed_choices(4, 6, 8);
        assert_ne!(a, b);
        let at = (0..b.len()).find(|&k| (0..b.len()).all(|j| b[(k + j) % b.len()] == a[j]));
        assert!(at.is_some(), "another seed enters the same list elsewhere");
    }
}
