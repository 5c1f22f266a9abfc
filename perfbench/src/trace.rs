//! Benchmark-side spans and the per-layer ledger.
//!
//! Spans are recorded only in the benchmark's own code, around calls into a
//! layer's public functions: name, start, end, parent span and a request
//! id. They stay in memory until the run ends. A span's *self time* is its
//! duration minus the part of that interval its children cover; the ledger
//! lists self times per layer and checks that they add up to the wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// A workload's spans, one named track per thread.
pub type Tracks = Vec<(&'static str, Vec<Span>)>;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers (e.g. `serve.admit`).
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request the span belongs to (a submit, a read or a solve).
    pub request: u64,
}

/// In-memory span recorder for one thread. A disabled tracer records
/// nothing and costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer timing against `origin` (share it across threads so their
    /// spans line up).
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer { on, origin, spans: Vec::new(), open: Vec::new() }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        if self.on {
            let now = self.now();
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start: now, end: now, parent, request });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an `enter`/`exit` pairing bug).
    pub fn exit(&mut self) {
        if self.on {
            let i = self.open.pop().expect("span exit without a matching enter");
            self.spans[i].end = self.now();
        }
    }

    /// Records an already-closed span, nested in the innermost open one.
    pub fn record(&mut self, name: &'static str, request: u64, start: u64, end: u64) {
        if self.on {
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start, end, parent, request });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans, for writing out when the run ends.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn coverage(lo: u64, hi: u64, intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.into_iter().map(|(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of it covered by
/// its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - coverage(s.start, s.end, kids))
        .collect()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Summed duration, ns.
    pub total: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Totals per span name, in name order.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.total += s.end - s.start;
        t.self_ns += own;
    }
    out
}

/// The part of `wall` the layer self times leave unexplained:
/// `(wall − Σ self) / wall`.
pub fn ledger_residual(wall: f64, self_times: impl IntoIterator<Item = f64>) -> f64 {
    (wall - self_times.into_iter().sum::<f64>()) / wall
}

/// One workload's ledger: the self time of each layer over one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Wall time of the traced pass, ns (timed outside every span).
    pub wall_ns: f64,
    /// `(layer, self ns)` rows, outermost first.
    pub rows: Vec<(String, f64)>,
}

impl Ledger {
    /// Adds one layer row.
    pub fn row(&mut self, layer: &str, self_ns: f64) {
        self.rows.push((layer.to_string(), self_ns));
    }

    /// [`ledger_residual`] over the rows.
    pub fn residual(&self) -> f64 {
        ledger_residual(self.wall_ns, self.rows.iter().map(|r| r.1))
    }

    /// Human-readable table: self time per layer and its share of the wall.
    pub fn describe(&self, per: f64, per_unit: &str) -> Vec<String> {
        let mut lines = vec![format!("ledger: wall {:.3} ms", self.wall_ns / 1e6)];
        for (layer, ns) in &self.rows {
            lines.push(format!(
                "  {layer:<28} {:>10.3} ms  {:>6.1}%  {:>9.2} ns/{per_unit}",
                ns / 1e6,
                100.0 * ns / self.wall_ns,
                ns / per
            ));
        }
        lines.push(format!("  residual {:+.4}", self.residual()));
        lines
    }
}

/// Chrome trace-event JSON (loadable at `about:tracing`) for named tracks.
pub fn chrome_trace(tracks: &[(&str, &[Span])]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (tid, (track, spans)) in tracks.iter().enumerate() {
        for s in spans.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{track}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"parent\":{parent}}}}}",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.request,
            );
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_coverage() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10: the union 10..60 covers 50 of the root.
            span("b", 30, 60, Some(0)),
            // A child that spills past its parent only counts inside it.
            span("c", 90, 120, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 10, 30, 30, 10]);
    }

    #[test]
    fn coverage_clips_and_merges() {
        assert_eq!(coverage(0, 10, []), 0);
        assert_eq!(coverage(5, 10, [(0, 7), (6, 8), (9, 20)]), 4);
        assert_eq!(coverage(0, 100, [(50, 60), (10, 20), (15, 55)]), 50);
    }

    #[test]
    fn by_name_sums_totals_and_self_times() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("admit", 0, 20, Some(0)),
            span("admit", 50, 60, Some(0)),
        ];
        let t = by_name(&spans);
        assert_eq!(t["admit"], NameTotals { total: 30, self_ns: 30 });
        assert_eq!(t["pass"].self_ns, 70);
    }

    #[test]
    fn ledger_residual_is_the_unexplained_share_of_wall() {
        assert_eq!(ledger_residual(200.0, [50.0, 100.0]), 0.25);
        assert_eq!(ledger_residual(100.0, [60.0, 40.0]), 0.0);
        // Layers timed in isolation may over-explain the wall.
        assert!(ledger_residual(100.0, [80.0, 40.0]) < 0.0);
        let mut l = Ledger { wall_ns: 1000.0, rows: Vec::new() };
        l.row("serve.admit", 600.0);
        l.row("serve.epoch", 300.0);
        assert!((l.residual() - 0.1).abs() < 1e-12);
        assert_eq!(l.describe(10.0, "update").len(), 4);
    }

    #[test]
    fn tracer_nests_spans_and_records_closed_ones() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("outer", 1);
        t.enter("inner", 1);
        t.exit();
        t.record("closed", 2, 5, 6);
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s[0].end >= s[1].end);
        let json = chrome_trace(&[("main", s)]);
        assert!(json.starts_with("[{\"name\":\"outer\"") && json.ends_with("}]"));

        let mut off = Tracer::new(false, Instant::now());
        off.enter("x", 0);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
