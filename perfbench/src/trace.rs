//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into a crate's public functions from
//! the benchmark's own code (`<crate>.<fn>`), carry the id of the
//! operation they belong to and the index of their parent span, and
//! are written out as JSON lines when the run ends. A span's self time
//! is its duration minus the time its direct children cover; the self
//! time of an operation's root span is the part of the operation no
//! layer span covers (`unattributed`).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    next_op: Cell<u64>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let now = self.tracer.now();
            self.tracer.spans.borrow_mut()[idx].end_ns = now;
            let popped = self.tracer.stack.borrow_mut().pop();
            debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        }
    }
}

/// Time attributed to one span name over all traced operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One traced operation: its root span's duration and the part of it
/// that no child span covers.
#[derive(Debug, Clone, Copy)]
pub struct OpSummary {
    pub op: u64,
    pub total_ns: u64,
    pub unattributed_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open the root span of a new operation.
    pub fn op(&self, name: &'static str) -> Guard<'_> {
        if self.on {
            assert!(self.stack.borrow().is_empty(), "operations do not nest");
            self.next_op.set(self.next_op.get() + 1);
        }
        self.span(name)
    }

    /// Open a child span of the innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                idx: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        let parent = self.stack.borrow().last().copied();
        let start_ns = self.now();
        spans.push(Span {
            name,
            op: self.next_op.get(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.borrow_mut().push(idx);
        Guard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name);
        f()
    }

    fn child_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut covered = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        covered
    }

    /// Per span name: total time and self time.
    pub fn attribution(&self) -> BTreeMap<&'static str, Attribution> {
        let covered = self.child_ns();
        let mut out: BTreeMap<&'static str, Attribution> = BTreeMap::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(covered[i]);
        }
        out
    }

    /// Root-span summaries, in operation order.
    pub fn ops(&self) -> Vec<OpSummary> {
        let covered = self.child_ns();
        self.spans
            .borrow()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, s)| {
                let total_ns = s.end_ns - s.start_ns;
                OpSummary {
                    op: s.op,
                    total_ns,
                    unattributed_ns: total_ns.saturating_sub(covered[i]),
                }
            })
            .collect()
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Each operation's duration less its direct children called `name`.
    pub fn op_totals_without(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut out: Vec<(usize, u64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                None => out.push((i, s.end_ns - s.start_ns)),
                Some(p) if s.name == name && spans[p].parent.is_none() => {
                    let last = out.last_mut().expect("a child follows its root");
                    debug_assert_eq!(last.0, p);
                    last.1 -= s.end_ns - s.start_ns;
                }
                Some(_) => {}
            }
        }
        out.into_iter().map(|(_, t)| t).collect()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ops_expose_remainder() {
        let t = Tracer::new(true);
        {
            let _op = t.op("op");
            t.time("a.x", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            {
                let _b = t.span("b.y");
                t.time("c.z", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            }
        }
        let attr = t.attribution();
        let ops = t.ops();
        assert_eq!(ops.len(), 1);
        let op = ops[0];
        let children = attr["a.x"].total_ns + attr["b.y"].total_ns;
        assert_eq!(op.unattributed_ns, op.total_ns - children);
        assert_eq!(
            attr["b.y"].self_ns,
            attr["b.y"].total_ns - attr["c.z"].total_ns
        );
        let sum: u64 = attr.values().map(|a| a.self_ns).sum();
        assert_eq!(sum, op.total_ns, "self times telescope to the op time");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _op = t.op("op");
            t.time("a.x", || ());
        }
        assert!(t.attribution().is_empty());
        assert!(t.ops().is_empty());
    }
}
