//! The benchmark-side span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer — nothing inside `crates/` knows about them. They stay in memory
//! until the run ends and are then written as one JSON document. A
//! disabled tracer (the untraced end-to-end run) calls straight through.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// Spans of one lifecycle pass share this identifier.
    pub lifecycle: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    lifecycle: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            lifecycle: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts a new lifecycle pass: later spans carry the next identifier.
    pub fn next_lifecycle(&mut self) {
        self.lifecycle += 1;
    }

    /// Runs `f` inside a span called `name`, child of the span currently
    /// open (if any). `f` receives the tracer to open nested spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            lifecycle: self.lifecycle,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time, in seconds, and count of the spans called `name`.
    pub fn self_time(&self, name: &str) -> (f64, usize) {
        let mut total = 0u64;
        let mut count = 0usize;
        for s in self.spans.iter().filter(|s| s.name == name) {
            total += self_time_ns(&self.spans, s.id);
            count += 1;
        }
        (total as f64 * 1e-9, count)
    }

    /// Mean self time per span called `name`, in seconds (0 if none ran).
    pub fn mean_self_s(&self, name: &str) -> f64 {
        let (total, count) = self.self_time(name);
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Summed whole duration, in seconds, of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The trace as JSON: `{"spans": [{id, parent, lifecycle, name,
    /// start_ns, end_ns, self_ns}, …]}`, spans in start order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"parent\": {}, \"lifecycle\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id,
                parent,
                s.lifecycle,
                s.name,
                s.start_ns,
                s.end_ns,
                self_time_ns(&self.spans, s.id)
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// A span's duration minus the part of it its direct children cover
/// (overlapping children are merged first, so nothing is subtracted twice).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|&(lo, hi)| hi > lo)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (lo, hi) in children {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            lifecycle: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40), // sibling a
            span(2, Some(0), 50, 70), // sibling b
            span(3, Some(1), 15, 25), // grandchild: only span 1 pays for it
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_time_ns(&spans, 1), 30 - 10);
        assert_eq!(self_time_ns(&spans, 2), 20);
        assert_eq!(self_time_ns(&spans, 3), 10);
    }

    #[test]
    fn overlapping_children_are_merged_and_clipped_to_the_parent() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 170), // overlaps span 1 by 10
            span(3, Some(0), 190, 260), // runs past the parent's end
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 60 - 10);
    }

    #[test]
    fn recorder_links_parents_and_is_inert_when_disabled() {
        let mut t = Tracer::new(true);
        t.next_lifecycle();
        let got = t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| 7)
        });
        assert_eq!(got, 7);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("inner", Some(0))]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.lifecycle == 1 && s.end_ns >= s.start_ns));
        assert_eq!(t.self_time("inner").1, 2);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"outer\"") && json.contains("\"parent\": 0"));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }
}
