//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end and the span that caused it; the
//! spans of one training step or one request share a `group` id. Spans
//! stay in memory while the benchmark runs and are written out once at
//! the end, so recording costs a clock read and a `Vec` push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug)]
pub struct Span {
    /// Step or request id shared by every span of that unit of work.
    pub group: u64,
    /// Layer name, e.g. `render.backward`.
    pub name: &'static str,
    /// Index of the parent span in the same [`Spans`], if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, group: u64, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.at(Instant::now());
        self.push(group, name, parent, now, now)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let now = self.at(Instant::now());
        self.spans[id].end_ns = now;
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        group: u64,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            group,
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        group: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(group, name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// The spans as a JSON array of
    /// `{"id","group","name","parent","start_ns","end_ns"}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"group\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.group, s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new(Instant::now());
        let root = spans.push(7, "step", None, 0, 100);
        spans.push(7, "a", Some(root), 10, 40);
        // Overlapping children count once.
        spans.push(7, "b", Some(root), 30, 50);
        let c = spans.push(7, "c", Some(root), 90, 120);
        spans.push(7, "d", Some(c), 95, 100);
        let selves = spans.self_times_ns();
        // Root: 100 - (10..50 => 40) - (90..100 => 10) = 50.
        assert_eq!(selves[root], 50);
        assert_eq!(selves[1], 30);
        assert_eq!(selves[2], 20);
        assert_eq!(selves[c], 25);
        let by_name = spans.self_ms_by_name();
        assert!((by_name["step"] - 50e-6).abs() < 1e-12);
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut spans = Spans::new(Instant::now());
        spans.push(1, "x", None, 0, 5);
        let p = spans.push(2, "y", None, 0, 10);
        spans.push(2, "z", Some(p), 1, 2);
        let json = spans.to_json();
        assert_eq!(json.matches("\"name\"").count(), 3);
        assert!(json.contains("\"parent\":1"));
        assert_eq!(spans.spans()[1].duration_ns(), 10);
    }
}
