//! In-memory spans recorded by the harness around its calls into each
//! layer, written out when the run ends.
//!
//! A span is `name, start_ns, end_ns, parent, op_id`; every span of one
//! operation shares its `op_id`, and a layer's *self time* is its span's
//! duration minus the part its children cover. Each client thread owns
//! one [`Recorder`], so recording takes no lock.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span log against a shared time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in whatever span is open now.
    pub fn enter(&mut self, name: &'static str, op_id: u64) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Self times in milliseconds of every span called `name`.
pub fn self_ms(spans: &[Span], name: &str) -> Vec<f64> {
    self_times_ns(spans)
        .iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(own, _)| *own as f64 / 1e6)
        .collect()
}

/// The span dump: one array per client thread.
pub fn to_json(threads: &[Vec<Span>]) -> Json {
    Json::Arr(
        threads
            .iter()
            .map(|spans| {
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("op_id", Json::Num(s.op_id as f64)),
                            ])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("client.encrypt", 5, 25, Some(0)),
            span("client.call", 25, 95, Some(0)),
            span("inner", 30, 40, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 20, 60, 10]);
        assert_eq!(self_ms(&spans, "op"), vec![10.0 / 1e6]);
        assert_eq!(durations_ms(&spans, "client.call"), vec![70.0 / 1e6]);
    }

    #[test]
    fn recorder_nests_spans_and_keeps_the_operation_id() {
        let mut rec = Recorder::new(Instant::now());
        rec.enter("op", 9);
        rec.enter("client.call", 9);
        rec.exit();
        rec.exit();
        rec.enter("op", 10);
        rec.exit();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!((spans[0].op_id, spans[2].op_id), (9, 10));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
