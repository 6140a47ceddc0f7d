//! In-memory spans for the traced run.
//!
//! A span is `(name, start_ns, end_ns, parent, op_id)`; the hierarchy is
//! op → round → layer call. Spans are recorded from the benchmark's own
//! files, around the public calls into each layer — the product carries no
//! tracing. A layer's *self time* is its spans' duration minus the part of
//! that interval their child spans cover. A disabled tracer records nothing
//! and reads no clock, which is what the end-to-end runs carry.

use std::collections::BTreeMap;
use std::time::Instant;

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-call name, e.g. `runtime.engine_run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation (event, wave, convergence, capture...) this span
    /// belongs to; every span of one op shares it.
    pub op_id: u32,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Summed self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Σ duration, nanoseconds.
    pub total_ns: u64,
    /// Σ (duration − children's duration), nanoseconds.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_op: u32,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    /// A tracer whose `enter`/`exit` do nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span. A span opened at the root
    /// starts a new op.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let op_id = if parent == NO_PARENT {
            self.next_op += 1;
            self.next_op
        } else {
            self.spans[parent as usize].op_id
        };
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.stack.push(index);
        Open(index)
    }

    /// Close the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop().expect("exit without enter");
        assert_eq!(top, open.0, "spans must close innermost-first");
        self.spans[top as usize].end_ns = end_ns;
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name over the spans from index `from` on (the whole
/// list when 0; a traced run passes where its measured blocks begin).
pub fn self_times(spans: &[Span], from: usize) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child_ns[span.parent as usize] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns).skip(from) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    /// op[0,100] ⊃ round[10,90] ⊃ {run[20,40], send[40,45], run[50,80]}:
    /// self times are op 20, round 25, run 50, send 5 — summing to the root.
    #[test]
    fn self_time_subtracts_children_on_a_hand_built_tree() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("round", 10, 90, 0),
            span("run", 20, 40, 1),
            span("send", 40, 45, 1),
            span("run", 50, 80, 1),
        ];
        let t = self_times(&spans, 0);
        assert_eq!(t["op"].self_ns, 20);
        assert_eq!(t["round"].self_ns, 25);
        assert_eq!(
            t["run"],
            SelfTime {
                calls: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(t["send"].self_ns, 5);
        // Self times partition the root span.
        let sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, spans[0].duration_ns());
        // From the round on: the op is out, nothing else moves.
        let inner = self_times(&spans, 1);
        assert!(!inner.contains_key("op"));
        assert_eq!(inner["round"], t["round"]);
        assert_eq!(inner["run"], t["run"]);
    }

    #[test]
    fn tracer_nests_spans_and_assigns_op_ids() {
        let mut t = Tracer::enabled();
        let op = t.enter("op");
        let inner = t.enter("layer");
        t.exit(inner);
        t.exit(op);
        let op2 = t.enter("op");
        t.exit(op2);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent), (NO_PARENT, 0));
        assert_eq!(s[0].op_id, s[1].op_id);
        assert_ne!(s[0].op_id, s[2].op_id);
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let g = t.enter("op");
        t.exit(g);
        assert!(t.spans().is_empty());
    }
}
