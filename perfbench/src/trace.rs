//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (nothing inside the program is instrumented). Each
//! span has a name, a start and end relative to the recorder's epoch, an
//! optional parent span and a request id shared by every span of one
//! operation. The spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `memoir-opt` or `symexec.prove`.
    pub name: &'static str,
    /// Request id shared by the spans of one operation.
    pub req: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch (equal to `start` while open).
    pub end: Duration,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, req: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            req: req.to_string(),
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes `id` now and returns its duration in milliseconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        self.spans[id].end = self.epoch.elapsed();
        self.spans[id].duration().as_secs_f64() * 1e3
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in milliseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, req, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Records a root span measured elsewhere (e.g. on a client thread).
    pub fn record(&mut self, name: &'static str, req: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            req: req.to_string(),
            parent: None,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
    }

    fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// A span's duration minus the part of it covered by its children.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let covered = union(self.children(id).map(|c| (c.start, c.end)).collect());
        self.spans[id].duration().saturating_sub(covered)
    }

    /// Share of `root`'s wall time covered by its leaf descendants
    /// (spans with no children of their own).
    pub fn leaf_coverage(&self, root: SpanId) -> f64 {
        let mut leaves = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let kids: Vec<SpanId> = (0..self.spans.len())
                .filter(|&k| self.spans[k].parent == Some(id))
                .collect();
            if kids.is_empty() && id != root {
                leaves.push((self.spans[id].start, self.spans[id].end));
            }
            stack.extend(kids);
        }
        let total = self.spans[root].duration().as_secs_f64();
        if total == 0.0 {
            1.0
        } else {
            union(leaves).as_secs_f64() / total
        }
    }

    /// Per span name: `(count, total ms, self ms)`, sorted by name.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration().as_secs_f64() * 1e3;
            e.2 += self.self_time(id).as_secs_f64() * 1e3;
        }
        out
    }

    /// The trace as JSON: one object per span with its id, parent,
    /// request id and start/end in microseconds since the epoch.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"req\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.req,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                self.self_time(id).as_secs_f64() * 1e6,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Total length of the union of half-open intervals.
fn union(mut iv: Vec<(Duration, Duration)>) -> Duration {
    iv.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    fn tracer(spans: &[(&'static str, Option<SpanId>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, parent, s, e) in spans {
            t.spans.push(Span {
                name,
                req: "r".into(),
                parent,
                start: at(s),
                end: at(e),
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let t = tracer(&[
            ("root", None, 0, 100),
            ("a", Some(0), 10, 40),
            ("b", Some(0), 30, 60),
            ("c", Some(1), 10, 20),
        ]);
        assert_eq!(t.self_time(0), at(50));
        assert_eq!(t.self_time(1), at(20));
        // Leaves are c (10..20) and b (30..60): 40 of 100 ms.
        assert!((t.leaf_coverage(0) - 0.4).abs() < 1e-9);
    }
}
