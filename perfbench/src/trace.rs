//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into each layer. Each records its
//! name, start, end, parent span and request id; nothing is written
//! until [`Tracer::write_json`] at the end of the run. A span's self
//! time is its duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed (or still open) span, times in ns since the tracer's
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dotted name; the part before the first `.` is the layer.
    pub name: String,
    /// Start offset.
    pub start_ns: u64,
    /// End offset (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Request the span worked for.
    pub request: Option<u64>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span store that also times its own bookkeeping.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    cost_ns: AtomicU64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            cost_ns: AtomicU64::new(0),
        }
    }

    /// Time spent inside the tracer's own methods so far.
    pub fn cost(&self) -> Duration {
        Duration::from_nanos(self.cost_ns.load(Ordering::Relaxed))
    }

    fn charge(&self, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.cost_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &str, parent: Option<usize>, request: Option<u64>) -> usize {
        let entered = Instant::now();
        let t = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns: t,
            end_ns: t,
            parent,
            request,
        });
        let id = spans.len() - 1;
        drop(spans);
        self.charge(entered);
        id
    }

    /// Closes span `id` now.
    pub fn close(&self, id: usize) {
        let entered = Instant::now();
        let t = self.now_ns();
        self.spans.lock().expect("span store poisoned")[id].end_ns = t;
        self.charge(entered);
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f(id);
        self.close(id);
        out
    }

    /// Records an already measured interval as a closed span.
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let entered = Instant::now();
        let off = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns: off(start),
            end_ns: off(end),
            parent,
            request,
        });
        let id = spans.len() - 1;
        drop(spans);
        self.charge(entered);
        id
    }

    /// A copy of every span so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
                if i + 1 == spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += t as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // request [0,100) ⊃ affine [10,30) and relu [20,60) (overlapping
        // siblings count once), relu ⊃ kernel [25,35).
        let spans = vec![
            span("request", 0, 100, None),
            span("affine", 10, 30, Some(0)),
            span("relu", 20, 60, Some(0)),
            span("kernel", 25, 35, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("outer", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 25]);
    }

    #[test]
    fn self_time_sums_per_name() {
        let spans = vec![
            span("run", 0, 4_000_000, None),
            span("stage", 0, 1_000_000, Some(0)),
            span("stage", 2_000_000, 3_000_000, Some(0)),
        ];
        let by = self_ms_by_name(&spans);
        assert_eq!(by["run"], 2.0);
        assert_eq!(by["stage"], 2.0);
    }

    #[test]
    fn recorded_spans_nest_under_open_ones() {
        let tracer = Tracer::new();
        let root = tracer.open("root", None, Some(3));
        let t0 = Instant::now();
        let child = tracer.record("child", Some(root), Some(3), t0, t0);
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert!(spans[root].end_ns >= spans[root].start_ns);
    }
}
