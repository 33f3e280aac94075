//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around calls into the crates' public
//! functions (outside-in); nothing inside the crates is instrumented. A span
//! carries its layer (the crate it calls into), the span that caused it, and
//! the rep / pass / window it belongs to. Self time is a span's duration
//! minus the part of it that its children cover. Everything stays in memory
//! until [`Tracer::write_chrome`] at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle returned by [`Tracer::begin`]; `NO_SPAN` when tracing is off.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: SpanId,
    pub parent: SpanId,
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    workload: String,
    spans: Vec<Span>,
    /// Open spans of the recording thread, innermost last.
    stack: Vec<SpanId>,
}

impl Tracer {
    pub fn new(on: bool, workload: &str) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording off and on inside one process (the traced run also
    /// measures a few untraced ops to report the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, rep: u32) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        let now = self.ns(Instant::now());
        self.spans.push(Span { name, layer, start_ns: now, end_ns: now, id, parent, rep });
        self.stack.push(id);
        id
    }

    /// Close the span opened last. Spans close in LIFO order.
    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// A leaf span around `f`.
    pub fn scope<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        rep: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(layer, name, rep);
        let r = f();
        self.end(id);
        r
    }

    /// A span with explicit times and parent, for work that overlaps other
    /// work (requests in flight): `start` is when it was due, `end` when the
    /// worker stamped it complete.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        rep: u32,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            id,
            parent,
            rep,
        });
        id
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans called `name`, summed per rep.
    pub fn seconds_by_rep(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut by_rep = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_rep.entry(s.rep).or_insert(0.0) += s.duration_ns() as f64 * 1e-9;
        }
        by_rep
    }

    /// Median over reps of [`Self::seconds_by_rep`]; 0 when no such span.
    pub fn rep_median_s(&self, name: &str) -> f64 {
        let per_rep: Vec<f64> = self.seconds_by_rep(name).into_values().collect();
        if per_rep.is_empty() {
            0.0
        } else {
            crate::stats::median(&per_rep)
        }
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// The smallest share of a span called `name` that its children's spans
    /// cover (1 − self time ÷ duration), over all such spans.
    pub fn min_child_cover(&self, name: &str) -> f64 {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .filter(|s| s.name == name && s.duration_ns() > 0)
            .map(|s| 1.0 - selfs[s.id as usize] as f64 / s.duration_ns() as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// Write Chrome trace-event JSON (load in `chrome://tracing` / Perfetto).
    /// One complete ("X") event per span, one lane (`tid`) per rep.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_times_ns();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) };
            write!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\
                 \"rep\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.rep,
                s.id,
                parent,
                self.workload,
                s.rep,
                selfs[i] as f64 / 1e3,
            )?;
            writeln!(w, "{}", if i + 1 < self.spans.len() { "," } else { "" })?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the span. Children may nest,
/// abut or overlap one another (requests in flight do).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", layer: "l", start_ns, end_ns, id, parent, rep: 0 }
    }

    #[test]
    fn nested_children() {
        // root 0..100; child 10..60 with grandchild 20..30; child 70..90.
        let spans = vec![
            span(0, NO_SPAN, 0, 100),
            span(1, 0, 10, 60),
            span(2, 1, 20, 30),
            span(3, 0, 70, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // children 10..50 and 30..80 overlap on 30..50: union is 70.
        let spans = vec![span(0, NO_SPAN, 0, 100), span(1, 0, 10, 50), span(2, 0, 30, 80)];
        assert_eq!(self_times_ns(&spans)[0], 30);
        // a child contained in another adds nothing.
        let spans = vec![span(0, NO_SPAN, 0, 100), span(1, 0, 10, 90), span(2, 0, 20, 30)];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // a request due before its window opened and done after it closed.
        let spans = vec![span(0, NO_SPAN, 100, 200), span(1, 0, 50, 120), span(2, 0, 190, 400)];
        assert_eq!(self_times_ns(&spans)[0], 70);
    }

    #[test]
    fn recorder_nests_and_switches_off() {
        let mut tr = Tracer::new(true, "w");
        let rep = tr.begin("bench", "rep", 0);
        tr.scope("sparse", "sparse.order", 0, || std::hint::black_box(1 + 1));
        tr.end(rep);
        tr.set_on(false);
        assert_eq!(tr.begin("bench", "rep", 1), NO_SPAN);
        tr.end(NO_SPAN);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, rep);
        assert!(tr.min_child_cover("rep") <= 1.0);
        assert_eq!(tr.seconds_by_rep("sparse.order").len(), 1);
    }
}
