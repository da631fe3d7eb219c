//! In-memory span recorder for the traced run.
//!
//! Every set-up repetition and every measured iteration is one trace: a
//! root span, and one child span per call into a layer. Each span holds
//! its trace id, its parent, its name and its start and end. Spans stay in
//! memory and are written out once, when the run ends, so recording costs
//! a `Vec::push` and two clock reads.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    trace: usize,
    parent: Option<usize>,
    name: &'static str,
    start_s: f64,
    end_s: f64,
}

/// Records spans while enabled; every call is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    trace: usize,
    root: Option<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { enabled: false, origin: Instant::now(), trace: 0, root: None, spans: Vec::new() }
    }

    /// Ends the current trace and starts one named `name`, recorded only
    /// when `enabled`.
    pub fn begin(&mut self, name: &'static str, enabled: bool) {
        self.close(self.root);
        self.trace += 1;
        self.enabled = enabled;
        self.root = self.open(name, None);
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, a child of the trace's root.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, self.root);
        let out = f();
        self.close(id);
        out
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { trace: self.trace, parent, name, start_s: now, end_s: now });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Per trace that has spans named `name`, their summed seconds.
    pub fn totals(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<(usize, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match out.last_mut() {
                Some((t, sum)) if *t == s.trace => *sum += s.end_s - s.start_s,
                _ => out.push((s.trace, s.end_s - s.start_s)),
            }
        }
        out.into_iter().map(|(_, sum)| sum).collect()
    }

    /// Seconds of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_s - s.start_s).collect()
    }

    /// Ends the current trace and writes one JSON object per span.
    pub fn write(&mut self, path: &Path) -> std::io::Result<()> {
        let root = self.root.take();
        self.close(root);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.trace, s.name, s.start_s, s.end_s
            )?;
        }
        out.flush()
    }
}
