//! Trace spans, recorded only from the harness's own files around its
//! calls into the program, kept in memory and written out at exit.

use std::time::Instant;

/// One recorded interval.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// The spans of one traced workload run. All share one `run_id`.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle to an open span.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: parent.map(|p| p.0),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_us = self.now_us();
        let s = &mut self.spans[id.0];
        s.end_us = end_us;
        (s.end_us - s.start_us) / 1e6
    }

    /// Records a span whose duration was measured elsewhere, ending now.
    pub fn record(&mut self, name: &str, parent: Option<SpanId>, secs: f64) {
        let end_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: end_us - secs * 1e6,
            end_us,
            parent: parent.map(|p| p.0),
        });
    }

    /// Runs `f` inside a top-level span.
    pub fn scoped<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, None);
        let out = f();
        self.end(id);
        out
    }

    /// The trace as JSON: one object per span with name, start, end (µs
    /// since the trace began) and parent index.
    pub fn to_json(&self, run_id: &str) -> String {
        let mut out = format!("{{\"run_id\": \"{run_id}\", \"unit\": \"us\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {:.1}, \"end\": {:.1}, \"parent\": {parent}}}{}\n",
                s.name,
                s.start_us,
                s.end_us,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Runs `f` inside a top-level span when a trace is recording, bare otherwise.
pub fn in_span<T>(spans: Option<&mut Spans>, name: &str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.scoped(name, f),
        None => f(),
    }
}
