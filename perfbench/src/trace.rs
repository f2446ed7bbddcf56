//! Benchmark-side spans for the traced run.
//!
//! A span wraps one call into a crate's public API from the benchmark's
//! own code (never from inside the crates) and records its name, wall
//! start and end, the calling thread's CPU time over it, its parent and,
//! for serving, the request id. Spans stay in memory and are written out
//! once, after measurement, as JSON lines.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::host::thread_cpu_ns;

/// One recorded span. Wall fields are nanoseconds since the trace
/// started; `cpu_ns` is thread CPU time, a different clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `HardwareNetwork::run`.
    pub name: &'static str,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
    /// Request id, for spans on the serving path.
    pub request: Option<u64>,
    /// Wall-clock start, ns since the trace began.
    pub wall_start_ns: u64,
    /// Wall-clock end, ns since the trace began.
    pub wall_end_ns: u64,
    /// Thread CPU time spent inside the span, ns.
    pub cpu_ns: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A cloneable handle to an optional span recorder; disabled handles
/// record nothing and cost one branch per call.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<Inner>>);

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer(Some(Arc::new(Inner {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(inner) = &self.0 else {
            return f();
        };
        let wall_start = Instant::now();
        let cpu_start = thread_cpu_ns();
        let out = f();
        let cpu_ns = thread_cpu_ns() - cpu_start;
        let wall_end = Instant::now();
        let span = Span {
            name,
            parent,
            request,
            wall_start_ns: (wall_start - inner.epoch).as_nanos() as u64,
            wall_end_ns: (wall_end - inner.epoch).as_nanos() as u64,
            cpu_ns,
        };
        inner.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Opens a parent span to be closed with [`Tracer::close`]; returns
    /// its index and start CPU time, or `None` when disabled.
    pub fn open(&self, name: &'static str) -> Option<(usize, u64)> {
        let inner = self.0.as_ref()?;
        let mut spans = inner.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            parent: None,
            request: None,
            wall_start_ns: (Instant::now() - inner.epoch).as_nanos() as u64,
            wall_end_ns: 0,
            cpu_ns: 0,
        });
        Some((spans.len() - 1, thread_cpu_ns()))
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, opened: Option<(usize, u64)>) {
        let (Some(inner), Some((i, cpu0))) = (&self.0, opened) else {
            return;
        };
        let mut spans = inner.spans.lock().expect("span list poisoned");
        spans[i].wall_end_ns = (Instant::now() - inner.epoch).as_nanos() as u64;
        spans[i].cpu_ns = thread_cpu_ns() - cpu0;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner.spans.lock().expect("span list poisoned").clone()
        })
    }

    /// Summed thread CPU of the spans named `name`, with their count.
    pub fn cpu_total(&self, name: &str) -> (f64, usize) {
        let spans = self.spans();
        let hits: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
        (
            hits.iter().map(|s| s.cpu_ns as f64).sum::<f64>() * 1e-9,
            hits.len(),
        )
    }

    /// The spans as JSON lines, each duration labelled with its clock.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"parent\": {}, \"request\": {}, \"wall_start_ns\": {}, \
                 \"wall_end_ns\": {}, \"cpu_ns\": {}}}\n",
                s.name,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.request.map_or("null".into(), |r| r.to_string()),
                s.wall_start_ns,
                s.wall_end_ns,
                s.cpu_ns
            ));
        }
        out
    }
}
