//! In-memory span recording for the traced run, written out as Chrome
//! trace-event JSON (opens in Perfetto or `chrome://tracing`).
//!
//! Spans are recorded only by the benchmark, around its calls into the
//! program's public functions; the program itself is not instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.function`, e.g. `braid.schedule`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// The request (operation) this span belongs to.
    pub req: u64,
    /// Recording thread.
    pub tid: u32,
}

impl Span {
    /// Span length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    stack: Vec<usize>,
    /// Spans in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Tracer {
            epoch,
            tid,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
            tid: self.tid,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns().max(start_ns);
        out
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total seconds and call count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.secs();
            e.1 += 1;
        }
        out
    }

    /// Total length of the direct children of spans named `name`.
    pub fn child_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(Span::secs)
            .sum()
    }

    /// Chrome trace-event JSON of every span (complete `X` events,
    /// microsecond timestamps).
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let layer = sp.name.split('.').next().unwrap_or(sp.name);
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"req\": {}, \"parent\": {}}}}}",
                sp.name,
                layer,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.tid,
                i,
                sp.req,
                sp.parent.map_or(-1, |p| p as i64),
            );
        }
        s.push_str("\n]}\n");
        s
    }
}
