//! In-memory spans and counts recorded around the benchmark's calls into
//! each layer, written out as one JSON document when the run ends.
//!
//! A span has a name, a start, an end and the span that caused it; counts
//! attach to the span open when they are recorded, so ratios can be taken
//! where the work happened. With tracing off every call is a no-op.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Count {
    span: Option<usize>,
    name: String,
    value: f64,
}

/// The span and count recorder of one benchmark run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off; open spans stay open.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a count at the innermost open span.
    pub fn count(&mut self, name: &str, value: f64) {
        if self.on {
            self.counts.push(Count {
                span: self.open.last().copied(),
                name: name.to_string(),
                value,
            });
        }
    }

    /// The recorded spans and counts as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        // Self time: a span's duration minus what its direct children cover.
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut s = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                s.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                (span.end_ns - span.start_ns).saturating_sub(child_ns[id])
            );
        }
        s.push_str("],\"counts\":[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let span = c.span.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"span\":{span},\"name\":\"{}\",\"value\":{}}}",
                c.name, c.value
            );
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_counts_attach_to_the_open_span() {
        let mut t = Tracer::new(true);
        t.span("verdict", |t| {
            t.span("engine", |t| t.count("expansions", 7.0));
        });
        let json = t.to_json("w", 3);
        assert!(json.contains("\"id\":1,\"parent\":0,\"name\":\"engine\""));
        assert!(json.contains("{\"span\":1,\"name\":\"expansions\",\"value\":7}"));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("verdict", |t| {
            t.count("x", 1.0);
            5
        });
        assert_eq!((v, t.spans.len()), (5, 0));
    }
}
