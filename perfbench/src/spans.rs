//! In-memory span recorder: one span per call into a layer, written out
//! once when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it, and the id
//! of the cell it belongs to. A span's self time is its duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub cell: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. Work timed on other threads comes
/// back as [`Tracer::record`] calls with explicit start and end times.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// The instant span times count from, for timing work on other threads.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The innermost open span, the parent of the next one.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, cell: u64) -> usize {
        let start_ns = self.now_ns();
        let id = self.record(name, cell, self.current(), start_ns, start_ns);
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and returns
    /// its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, cell: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name, cell);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    /// Adds a closed span measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        cell: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span { id, parent, cell, name, start_ns, end_ns });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, with its self time.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"cell\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.id, s.cell, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// Total self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, parent, start, end) in spans {
            t.record(name, 0, parent, start, end);
        }
        t
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let t = tracer_with(&[
            ("cell", None, 0, 100),
            ("sim.run", Some(0), 10, 50),
            ("soc.load", Some(0), 50, 60),
            ("inner", Some(1), 20, 30),
        ]);
        assert_eq!(self_times(t.spans()), vec![50, 30, 10, 10]);
        let by_name = self_time_by_name(t.spans());
        assert_eq!(by_name["cell"], 50);
        assert_eq!(by_name["sim.run"], 30);
        assert_eq!(by_name["inner"], 10);
        // Self times of a tree add back up to the root's duration.
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_times_sum_per_name_across_cells() {
        let t = tracer_with(&[
            ("cell", None, 0, 10),
            ("sim.run", Some(0), 0, 4),
            ("cell", None, 10, 30),
            ("sim.run", Some(2), 12, 27),
        ]);
        let by_name = self_time_by_name(t.spans());
        assert_eq!(by_name["cell"], 6 + 5);
        assert_eq!(by_name["sim.run"], 4 + 15);
    }

    #[test]
    fn nested_begin_end_links_parents() {
        let mut t = Tracer::new();
        let a = t.begin("a", 7);
        let ((), _) = t.time("b", 7, || std::hint::black_box(()));
        let da = t.end(a);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(a));
        assert_eq!(s[0].parent, None);
        assert!(da >= s[1].duration_ns());
        assert_eq!(self_times(s)[0], da - s[1].duration_ns());
        assert!(t.to_jsonl().lines().all(|l| l.contains("\"cell\":7")));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.begin("a", 0);
        let _b = t.begin("b", 0);
        t.end(a);
    }
}
