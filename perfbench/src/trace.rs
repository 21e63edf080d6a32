//! An in-memory span recorder: one span per call into a layer, written
//! out as JSON lines when the traced run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is the id of the enclosing span (0 = none);
/// `req` groups the spans of one request line (0 = not a request).
struct Span {
    parent: usize,
    req: u64,
    name: String,
    start: Instant,
    end: Instant,
}

/// Span recorder; a span's id is its position in the list plus one.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Opens a span now and returns its id.
    pub fn begin(&mut self, name: &str, parent: usize, req: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: usize) {
        self.spans[id - 1].end = Instant::now();
    }

    /// Adds a span measured elsewhere (e.g. on another thread).
    pub fn record(
        &mut self,
        name: &str,
        parent: usize,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            parent,
            req,
            name: name.to_string(),
            start,
            end,
        });
        self.spans.len()
    }

    /// Writes every span as one JSON object per line, times in
    /// nanoseconds since the recorder was created.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos();
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()
    }
}
