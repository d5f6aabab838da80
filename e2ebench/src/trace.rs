//! Spans recorded by the benchmark's own code around calls into each
//! crate's public functions. Kept in memory, written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is the span that caused it: the root span of a
/// statement for a step the real session call also performed, `None` for the
/// root itself and for probes the benchmark adds on its own (the base plan,
/// a pool of one, cold planning on the shadow session, ...). Spans of one
/// statement share `stmt`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub stmt: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Time `f` as a span; returns the span's id and `f`'s value.
    pub fn span<T>(
        &mut self,
        parent: Option<u32>,
        stmt: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start = self.origin.elapsed();
        let out = std::hint::black_box(f());
        let end = self.origin.elapsed();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            stmt,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (id, out)
    }

    pub fn us(&self, id: u32) -> f64 {
        self.spans[id as usize].us()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"stmt\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.stmt, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
