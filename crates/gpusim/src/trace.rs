//! Event-level execution traces.
//!
//! While the [`crate::profiler::Profiler`] aggregates per-API totals
//! (NVProf's summary view), the trace records every kernel, DMA transfer,
//! and host call as a timestamped interval on its engine's track — the
//! timeline view. `gyan::merged_chrome_trace` renders it (through
//! `obs::chrome`) as the JSON that `chrome://tracing` / Perfetto load,
//! which is how the batch pipelining (H2D copies overlapping kernels) can
//! be inspected visually.

/// One traced interval.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (kernel symbol, API call).
    pub name: String,
    /// Category: `kernel`, `h2d`, `d2h`, `host`.
    pub category: &'static str,
    /// Track the interval belongs to, e.g. `gpu0/compute`, `gpu1/h2d`,
    /// `host`.
    pub track: String,
    /// Start, virtual seconds.
    pub start_s: f64,
    /// Duration, virtual seconds.
    pub dur_s: f64,
}

impl TraceEvent {
    /// End of the interval.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.dur_s
    }

    /// Whether two intervals overlap in time.
    pub fn overlaps(&self, other: &TraceEvent) -> bool {
        self.start_s < other.end_s() && other.start_s < self.end_s()
    }
}

/// An append-only trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an interval.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        category: &'static str,
        track: impl Into<String>,
        start_s: f64,
        dur_s: f64,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            category,
            track: track.into(),
            start_s,
            dur_s,
        });
    }

    /// All events in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events on one track, sorted by start time.
    pub fn track(&self, track: &str) -> Vec<&TraceEvent> {
        let mut v: Vec<&TraceEvent> = self.events.iter().filter(|e| e.track == track).collect();
        v.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        v
    }

    /// Do any two events on *different* tracks overlap? (The signature of
    /// copy/compute pipelining.)
    pub fn has_cross_track_overlap(&self, track_a: &str, track_b: &str) -> bool {
        let a = self.track(track_a);
        let b = self.track(track_b);
        a.iter().any(|ea| b.iter().any(|eb| ea.overlaps(eb)))
    }

    /// Merge another trace into this one.
    pub fn merge(&mut self, other: &Trace) {
        self.events.extend(other.events.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query_tracks() {
        let mut t = Trace::new();
        t.record("k1", "kernel", "gpu0/compute", 1.0, 2.0);
        t.record("copy1", "h2d", "gpu0/h2d", 0.5, 1.0);
        t.record("k2", "kernel", "gpu0/compute", 3.5, 1.0);
        assert_eq!(t.events().len(), 3);
        let compute = t.track("gpu0/compute");
        assert_eq!(compute.len(), 2);
        assert_eq!(compute[0].name, "k1");
        assert_eq!(compute[1].name, "k2");
    }

    #[test]
    fn overlap_detection() {
        let a = TraceEvent {
            name: "a".into(),
            category: "kernel",
            track: "x".into(),
            start_s: 1.0,
            dur_s: 2.0,
        };
        let b = TraceEvent { name: "b".into(), start_s: 2.5, ..a.clone() };
        let c = TraceEvent { name: "c".into(), start_s: 3.0, ..a.clone() };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // touching intervals do not overlap
        assert!(b.overlaps(&c));
    }

    #[test]
    fn cross_track_overlap() {
        let mut t = Trace::new();
        t.record("k", "kernel", "gpu0/compute", 1.0, 2.0);
        t.record("c", "h2d", "gpu0/h2d", 2.0, 2.0);
        assert!(t.has_cross_track_overlap("gpu0/compute", "gpu0/h2d"));
        assert!(!t.has_cross_track_overlap("gpu0/compute", "gpu1/h2d"));
    }

    #[test]
    fn merge_combines_events() {
        let mut a = Trace::new();
        a.record("x", "host", "host", 0.0, 1.0);
        let mut b = Trace::new();
        b.record("y", "host", "host", 1.0, 1.0);
        a.merge(&b);
        assert_eq!(a.events().len(), 2);
    }
}
