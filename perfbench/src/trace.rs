//! Benchmark-side spans.
//!
//! Every span is recorded by the benchmark around one public call it
//! makes into a layer of the program: name, start, end, the span that
//! caused it, and the request it belongs to. Spans live in memory and are
//! written out as one tab-separated file when the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover; overlapping children (parallel workers)
//! are counted once.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique within one tracer.
    pub id: u32,
    /// The span this one is nested in; `None` for a root.
    pub parent: Option<u32>,
    /// The request every span of one request's tree shares.
    pub request: u64,
    /// Layer-qualified name, e.g. `service.submit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), next_id: AtomicU32::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    /// `t` as nanoseconds since the epoch (0 for instants before it).
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for a parent whose interval is only known after
    /// its children have been recorded.
    pub fn alloc_id(&self) -> u32 {
        // ordering: relaxed — the counter only has to hand out unique ids.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span with an id from [`Tracer::alloc_id`].
    pub fn record(&self, rec: SpanRec) {
        self.spans.lock().expect("span store lock").push(rec);
    }

    /// Runs `f` inside a span and returns its result; `f` receives the
    /// span's id, the parent of any span it records.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.alloc_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.record(SpanRec { id, parent, request, name, start_ns, end_ns });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut spans = self.spans.lock().expect("span store lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The spans of request `request` recorded so far.
    pub fn spans_of(&self, request: u64) -> Vec<SpanRec> {
        let spans = self.spans.lock().expect("span store lock");
        spans.iter().filter(|s| s.request == request).cloned().collect()
    }

    /// Writes every span as tab-separated lines (`id parent request name
    /// start_ns end_ns`), creating the parent directory.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |iv| union_len(iv, s.start_ns, s.end_ns));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec { id, parent, request: 7, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        // root [0,100): children [10,30) and [30,60) serial; [50,70) overlaps
        // the second; grandchild [12,20) inside the first child.
        let spans = vec![
            rec(1, None, "request", 0, 100),
            rec(2, Some(1), "a", 10, 30),
            rec(3, Some(1), "b", 30, 60),
            rec(4, Some(1), "c", 50, 70),
            rec(5, Some(2), "a.child", 12, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 60); // union [10,70)
        assert_eq!(selfs[&2], 20 - 8);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 20);
        assert_eq!(selfs[&5], 8);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![rec(1, None, "p", 10, 20), rec(2, Some(1), "c", 5, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn serial_tree_self_times_add_up_to_the_root() {
        // a root's uncovered time is its own self time, so over a tree
        // whose siblings never overlap the self times sum to the root
        let spans = vec![
            rec(1, None, "request", 0, 100),
            rec(2, Some(1), "a", 5, 40),
            rec(3, Some(2), "a.x", 10, 20),
            rec(4, Some(1), "b", 40, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.values().sum::<u64>(), 100);
        assert_eq!((selfs[&1], selfs[&2], selfs[&3], selfs[&4]), (15, 25, 10, 50));
    }

    #[test]
    fn tracer_records_nested_spans_with_parent_and_request() {
        let t = Tracer::new();
        t.span("outer", None, 3, |outer| {
            t.span("inner", Some(outer), 3, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(spans.iter().all(|s| s.request == 3));
    }
}
