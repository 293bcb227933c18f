//! Span self-time attribution for the traced run.
//!
//! Each traced op runs under a fresh flight recorder; its begin/end events
//! are folded here into one row per `(parent label, label)` pair holding
//! the count, the total time and the self time (the span's duration minus
//! the part its child spans cover). Rows stay in memory until the run
//! ends and the table is written out.

use tsdtw_obs::{Trace, TracePhase};

/// Parent label of a span opened with no enclosing span.
pub const ROOT: &str = "-";

/// One `(parent, label)` row.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Label of the enclosing span, or [`ROOT`].
    pub parent: &'static str,
    /// The span label.
    pub label: &'static str,
    /// Completed spans.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by child spans, seconds.
    pub self_s: f64,
}

/// The per-`(parent, label)` table, first-seen order.
#[derive(Debug, Clone, Default)]
pub struct SpanTable {
    rows: Vec<SpanRow>,
}

impl SpanTable {
    /// Folds one recorder trace into the table.
    ///
    /// # Panics
    /// If the recorder ring dropped events or the stream is unbalanced:
    /// both would make the self times wrong, and the ring is sized so it
    /// cannot happen for one op.
    pub fn absorb(&mut self, trace: &Trace) {
        assert_eq!(trace.dropped, 0, "flight recorder overflowed within one op");
        // (label, begin_us, child_us) of every open span.
        let mut stack: Vec<(&'static str, f64, f64)> = Vec::new();
        for ev in &trace.events {
            match ev.phase {
                TracePhase::Begin => stack.push((ev.label, ev.ts_us, 0.0)),
                TracePhase::End => {
                    let (label, begin_us, child_us) = stack.pop().expect("balanced span events");
                    assert_eq!(label, ev.label, "span events nest");
                    let dur_us = (ev.ts_us - begin_us).max(0.0);
                    let parent = match stack.last_mut() {
                        Some(p) => {
                            p.2 += dur_us;
                            p.0
                        }
                        None => ROOT,
                    };
                    self.add(
                        parent,
                        label,
                        dur_us * 1e-6,
                        (dur_us - child_us).max(0.0) * 1e-6,
                    );
                }
            }
        }
        assert!(stack.is_empty(), "every span closed within the op");
    }

    fn add(&mut self, parent: &'static str, label: &'static str, total_s: f64, self_s: f64) {
        let row = match self
            .rows
            .iter_mut()
            .position(|r| r.parent == parent && r.label == label)
        {
            Some(i) => &mut self.rows[i],
            None => {
                self.rows.push(SpanRow {
                    parent,
                    label,
                    count: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                });
                self.rows.last_mut().expect("just pushed")
            }
        };
        row.count += 1;
        row.total_s += total_s;
        row.self_s += self_s;
    }

    /// All rows, first-seen order.
    pub fn rows(&self) -> &[SpanRow] {
        &self.rows
    }

    /// Summed total time of the rows `keep` selects.
    pub fn total_s(&self, keep: impl Fn(&SpanRow) -> bool) -> f64 {
        self.rows
            .iter()
            .filter(|r| keep(r))
            .fold(0.0, |acc, r| acc + r.total_s)
    }

    /// Summed self time of the rows `keep` selects.
    pub fn self_s(&self, keep: impl Fn(&SpanRow) -> bool) -> f64 {
        self.rows
            .iter()
            .filter(|r| keep(r))
            .fold(0.0, |acc, r| acc + r.self_s)
    }

    /// The table as text: one row per `(parent, label)` with count, total
    /// and self time in milliseconds, and the per-op share of each.
    pub fn render(&self, ops: u64) -> String {
        let per_op = |s: f64| if ops == 0 { 0.0 } else { s * 1e3 / ops as f64 };
        let mut out = format!(
            "{:<26} {:<26} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
            "parent", "span", "count", "total_ms", "self_ms", "total_ms/op", "self_ms/op"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<26} {:<26} {:>10} {:>12.3} {:>12.3} {:>12.4} {:>12.4}\n",
                r.parent,
                r.label,
                r.count,
                r.total_s * 1e3,
                r.self_s * 1e3,
                per_op(r.total_s),
                per_op(r.self_s),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_obs::TraceEvent;

    fn ev(label: &'static str, phase: TracePhase, ts_us: f64) -> TraceEvent {
        TraceEvent {
            label,
            phase,
            ts_us,
            depth: 0,
            span_id: 0,
            track: 0,
            heap_live: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        use TracePhase::{Begin, End};
        let trace = Trace {
            events: vec![
                ev("op", Begin, 0.0),
                ev("kernel", Begin, 10.0),
                ev("kernel", End, 40.0),
                ev("kernel", Begin, 50.0),
                ev("kernel", End, 70.0),
                ev("op", End, 100.0),
            ],
            counters: Vec::new(),
            dropped: 0,
            capacity: 16,
        };
        let mut t = SpanTable::default();
        t.absorb(&trace);
        let rows = t.rows();
        assert_eq!(rows.len(), 2);
        let kernel = &rows[0];
        assert_eq!(
            (kernel.parent, kernel.label, kernel.count),
            ("op", "kernel", 2)
        );
        assert!((kernel.total_s - 50e-6).abs() < 1e-12);
        assert!((kernel.self_s - 50e-6).abs() < 1e-12);
        let op = &rows[1];
        assert_eq!((op.parent, op.label), (ROOT, "op"));
        assert!((op.total_s - 100e-6).abs() < 1e-12);
        assert!((op.self_s - 50e-6).abs() < 1e-12);
    }
}
