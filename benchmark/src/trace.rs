//! Harness-side spans: one record per call into a layer, kept in memory and
//! written out when the run ends. The program under test is not
//! instrumented; a span is the harness timing a public function.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`parse`, `interp`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Job the span belongs to; spans of one job share it.
    pub job: u32,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, job: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one, and returns
    /// its duration in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Records a call that was timed elsewhere (inside a callback the
    /// program under test invoked) as a child of the innermost open span,
    /// and returns its duration in nanoseconds.
    pub fn push_closed(
        &mut self,
        name: &'static str,
        job: u32,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            job,
        });
        end_ns - start_ns
    }

    /// The recorded spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: a span's duration minus the part its direct
    /// children cover, summed over all spans of that name.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let covered = span.end_ns - span.start_ns;
                let slot = &mut self_ns[parent as usize];
                *slot = slot.saturating_sub(covered);
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *by_name.entry(span.name).or_insert(0) += ns;
        }
        by_name
    }

    /// The spans as a JSON array of objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let job = t.begin("job", 0);
        let parse = t.begin("parse", 0);
        let lex = t.begin("lex", 0);
        t.end(lex);
        t.end(parse);
        let print = t.begin("print", 0);
        t.end(print);
        t.end(job);
        // Fix the clock so the arithmetic is exact.
        let times = [(0, 100), (10, 50), (20, 30), (60, 90)];
        for (span, (start, end)) in t.spans.iter_mut().zip(times) {
            span.start_ns = start;
            span.end_ns = end;
        }
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[3].parent, Some(0));
        let self_ns = t.self_time_ns();
        assert_eq!(self_ns["job"], 100 - 40 - 30);
        assert_eq!(self_ns["parse"], 40 - 10);
        assert_eq!(self_ns["lex"], 10);
        assert_eq!(self_ns["print"], 30);
        // Self times partition the root span.
        assert_eq!(self_ns.values().sum::<u64>(), 100);
        assert!(td_support::trace::validate_json(&t.to_json()).is_ok());
    }
}
