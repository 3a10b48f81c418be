//! Benchmark-side tracing: one span around every call into a layer's
//! public functions, kept in memory and written out when the run ends.
//!
//! A span's layer is the part of its name before the first `.`
//! (`galaxy.prepare_plan` → `galaxy`). Self time is a span's duration
//! minus the part its child spans cover. When the tracer is off every
//! call is one branch, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Job the span belongs to (0 = none).
    pub job: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
}

/// Aggregate of all spans sharing one name.
#[derive(Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl NameStats {
    pub fn median_us(&self) -> f64 {
        self.percentile_us(0.5)
    }

    pub fn percentile_us(&self, q: f64) -> f64 {
        let mut d: Vec<f64> = self.durations_ns.iter().map(|n| *n as f64 / 1e3).collect();
        crate::stats::percentile(&mut d, q)
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, job: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRec { name, start_ns, end_ns: start_ns, parent, job });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close a span opened by [`Tracer::enter`].
    #[inline]
    pub fn exit(&mut self, open: Open) {
        self.exit_job(open, 0);
    }

    /// Close a span, attaching a job id learned only from the call's
    /// result (a submission returns the id it created).
    #[inline]
    pub fn exit_job(&mut self, open: Open, job: u64) {
        if open.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        if job != 0 {
            span.job = job;
        }
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close innermost first");
    }

    /// Record a span timed elsewhere — by an executor the program calls
    /// while the tracer is borrowed by the driver — as a child of `parent`.
    pub fn record_child(
        &mut self,
        parent: Open,
        name: &'static str,
        start: Instant,
        end: Instant,
        job: u64,
    ) {
        if parent.0 == NO_PARENT {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(SpanRec { name, start_ns, end_ns, parent: parent.0, job });
    }

    /// Per-name count, total, self time and durations.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let dur = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += dur;
            entry.self_ns += dur.saturating_sub(child_ns[i]);
            entry.durations_ns.push(dur);
        }
        out
    }

    /// Spans as a JSON array of
    /// `{"name","start_ns","end_ns","parent","job"}` (parent = index of
    /// the enclosing span in this array, or null).
    pub fn spans_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.job
            ));
        }
        out.push_str("\n]");
        out
    }
}

/// Layer of a span or profile-scope name. Benchmark spans are named
/// `<layer>.<call>`; the program's own `obs::profile` scopes predate that
/// convention, so they are mapped by what the scoped code does.
pub fn layer_of(name: &str) -> &str {
    match name {
        "smi.render_xml" => "gpusim",
        "smi.parse_xml" => "xmlparse",
        // The rest of `get_gpu_usage`/`gpu_memory_usage`: walking the DOM.
        "smi.query" | "smi.query_mem" => "gyan",
        "fleet.place" => "fleet",
        n if n.starts_with("alloc.") || n.starts_with("gyan.") => "gyan",
        n if n.starts_with("queue.") => "galaxy",
        n => n.split('.').next().unwrap_or(n),
    }
}
