//! The benchmark's in-memory span recorder. Spans are recorded from the
//! benchmark's own code, around its calls into each layer (spans *inside*
//! the program are a later change); they are kept in memory and written out
//! once, when the workload ends. A disabled recorder costs one branch.

use crate::json::{obj, Value};
use std::time::Instant;

/// One recorded interval. `count` is the work done inside it (events,
/// packets, requests, ...), so ratios are measured where the work happens.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Pauses or resumes recording — the traced run alternates reps with the
    /// recorder on and off to measure its own overhead.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.len() <= 1, "toggled inside a span");
        self.enabled = enabled;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            layer,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span, crediting it with `count` units of work.
    pub fn exit(&mut self, count: u64) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        let span = &mut self.spans[id as usize];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.count = count;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("id", Value::from(u64::from(s.id))),
                        ("parent", s.parent.map_or(Value::Null, |p| Value::from(u64::from(p)))),
                        ("layer", Value::from(s.layer)),
                        ("name", Value::from(s.name.as_str())),
                        ("start_ns", Value::from(s.start_ns)),
                        ("end_ns", Value::from(s.end_ns)),
                        ("count", Value::from(s.count)),
                        ("self_ns", Value::from(self_time_ns(&self.spans, s.id))),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let span = &spans[id as usize];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, layer: "test", name: format!("s{id}"), start_ns, end_ns, count: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),  // nested child
            span(2, Some(1), 15, 25),  // grandchild: counts against 1, not 0
            span(3, Some(0), 40, 60),  // adjacent to 1
            span(4, Some(0), 55, 70),  // overlaps 3: the overlap counts once
            span(5, Some(0), 90, 120), // sticks out of the parent: clipped
            span(6, None, 200, 260),   // unrelated root
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - (30 + 20 + 10 + 10));
        assert_eq!(self_time_ns(&spans, 1), 30 - 10);
        assert_eq!(self_time_ns(&spans, 2), 10);
        assert_eq!(self_time_ns(&spans, 6), 60);
    }

    #[test]
    fn recorder_nests_spans_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.enter("bench", "root");
        rec.enter("core", "build");
        rec.exit(1);
        rec.set_enabled(false);
        rec.enter("core", "run");
        rec.exit(7);
        rec.set_enabled(true);
        rec.enter("core", "run");
        rec.exit(9);
        rec.exit(2);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), Some(0)));
        assert_eq!((spans[0].count, spans[1].count, spans[2].count), (2, 1, 9));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let total: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(self_time_ns(spans, 0), spans[0].end_ns - spans[0].start_ns - total);
        let json = rec.to_json();
        assert_eq!(json.as_arr().unwrap().len(), 3);
        assert_eq!(json.as_arr().unwrap()[1].get("parent").unwrap().as_f64(), Some(0.0));

        let mut off = Recorder::new(false);
        off.enter("core", "build");
        off.exit(1);
        assert!(off.spans().is_empty());
    }
}
