//! In-memory spans recorded by the benchmark around calls into the
//! program's public functions. Nothing here reaches inside the program:
//! a span starts just before a call and ends just after it returns.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. `job` groups the spans of one job (or sweep);
/// `parent` is the index of the enclosing span, if any.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread-safe span store with one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index (for children).
    pub fn record(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns,
        });
        spans.len() - 1
    }

    /// Set the end of a span recorded open (for parents whose children
    /// are recorded before the parent ends).
    pub fn close(&self, span: usize, end_ns: u64) {
        self.spans.lock().expect("span store poisoned")[span].end_ns = end_ns;
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        self.record(name, job, parent, start, self.now());
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Durations, in nanoseconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// The spans as JSON lines (`name`, `job`, `parent`, `start_ns`,
    /// `end_ns`), written out when the run ends.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns
            );
        }
        out
    }
}
