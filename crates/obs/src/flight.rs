//! Flight recorder: a fixed-capacity ring of the most recent closed
//! spans and events, snapshottable at any moment into a self-contained
//! JSONL dump or a Chrome trace.
//!
//! The ring lives inside [`crate::Recorder`] (see
//! [`crate::Recorder::enable_flight`]) and holds a shared handle to the
//! very record the span/event log stores, so while enabled it costs one
//! reference count per closed span/event, not a copy; a record evicted
//! from the log lives on for as long as the ring still holds it, and
//! only a snapshot deep-copies. The point is post-mortems without
//! full-run tracing: the ops server dumps it on `GET /api/flightrec`,
//! the SLO engine captures one on every alert firing, and simtest
//! attaches one to invariant violations.

use crate::{event_json_line, span_json_line, EventData, SpanData};
use std::collections::VecDeque;
use std::sync::Arc;

/// One entry of a [`FlightSnapshot`]: a closed span or an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightRecord {
    /// A span that has ended (open spans are appended at snapshot time).
    Span(SpanData),
    /// A point-in-time event.
    Event(EventData),
}

impl FlightRecord {
    /// The record's timestamp: span start or event time.
    pub fn t(&self) -> f64 {
        match self {
            FlightRecord::Span(s) => s.start,
            FlightRecord::Event(e) => e.t,
        }
    }

    /// The record's name.
    pub fn name(&self) -> &str {
        match self {
            FlightRecord::Span(s) => &s.name,
            FlightRecord::Event(e) => &e.name,
        }
    }
}

/// One entry of the ring: the log's own record, shared.
#[derive(Debug)]
pub(crate) enum Shared {
    Span(Arc<SpanData>),
    Event(Arc<EventData>),
}

/// The bounded ring itself; owned by the recorder, mutated on every
/// close/emit while flight recording is enabled.
#[derive(Debug)]
pub(crate) struct FlightRing {
    capacity: usize,
    records: VecDeque<Shared>,
    dropped: u64,
}

impl FlightRing {
    pub(crate) fn new(capacity: usize) -> Self {
        FlightRing { capacity, records: VecDeque::with_capacity(capacity.min(1024)), dropped: 0 }
    }

    pub(crate) fn push(&mut self, record: Shared) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    pub(crate) fn snapshot(&self, captured_at: f64) -> FlightSnapshot {
        FlightSnapshot {
            captured_at,
            dropped: self.dropped,
            records: self
                .records
                .iter()
                .map(|record| match record {
                    Shared::Span(s) => FlightRecord::Span(SpanData::clone(s)),
                    Shared::Event(e) => FlightRecord::Event(EventData::clone(e)),
                })
                .collect(),
        }
    }
}

/// A self-contained copy of the flight ring at one instant.
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// Recorder-clock time of the capture.
    pub captured_at: f64,
    /// Records evicted (or refused, at capacity 0) since enablement —
    /// how much history the ring has already forgotten.
    pub dropped: u64,
    /// Retained records, oldest first; still-open spans are appended
    /// last with `end: null`.
    pub records: Vec<FlightRecord>,
}

impl FlightSnapshot {
    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Render as JSON Lines: a header object
    /// (`{"type":"flightrec",...}`) followed by one span/event object
    /// per record, in the same schema as [`crate::Recorder::to_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"flightrec\",\"captured_at\":{},\"records\":{},\"dropped\":{}}}\n",
            crate::format_f64(self.captured_at),
            self.records.len(),
            self.dropped,
        );
        for record in &self.records {
            match record {
                FlightRecord::Span(s) => out.push_str(&span_json_line(s)),
                FlightRecord::Event(e) => out.push_str(&event_json_line(e)),
            }
        }
        out
    }

    /// Render as a Chrome trace (JSON string): closed spans become
    /// complete events on a `flightrec/spans` track, events become
    /// zero-duration slices on `flightrec/events`. Open spans are
    /// clipped to the capture time.
    pub fn to_chrome_trace(&self) -> String {
        let mut trace = crate::chrome::TraceBuilder::new();
        for record in &self.records {
            match record {
                FlightRecord::Span(s) => {
                    let end = s.end.unwrap_or(self.captured_at).max(s.start);
                    trace.add_complete(
                        s.name.clone(),
                        "flightrec",
                        "flightrec/spans",
                        s.start,
                        end - s.start,
                        s.fields.clone(),
                    );
                }
                FlightRecord::Event(e) => {
                    trace.add_complete(
                        e.name.clone(),
                        "flightrec",
                        "flightrec/events",
                        e.t,
                        0.0,
                        e.fields.clone(),
                    );
                }
            }
        }
        trace.to_json()
    }
}

#[cfg(test)]
mod tests {
    use crate::{json, Recorder};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn stepped() -> (Recorder, Arc<AtomicU64>) {
        let cell = Arc::new(AtomicU64::new(0));
        let c = cell.clone();
        let rec = Recorder::with_clock(move || c.load(Ordering::SeqCst) as f64 / 1000.0);
        (rec, cell)
    }

    #[test]
    fn disabled_recorder_has_no_flight_state() {
        let rec = Recorder::new();
        rec.event("loose", [("n", 1u64)]);
        assert!(!rec.flight_enabled());
        assert!(rec.flight_snapshot().is_none());
    }

    #[test]
    fn ring_retains_the_most_recent_records() {
        let (rec, clock) = stepped();
        rec.enable_flight(3);
        for i in 0..5u64 {
            clock.store(i * 1000, Ordering::SeqCst);
            rec.event(format!("tick_{i}"), [("i", i)]);
        }
        let snap = rec.flight_snapshot().expect("flight enabled");
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.dropped, 2);
        let names: Vec<&str> = snap.records.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["tick_2", "tick_3", "tick_4"]);
        assert_eq!(snap.records[0].t(), 2.0);
    }

    #[test]
    fn snapshot_includes_open_spans_and_round_trips_as_jsonl() {
        let (rec, clock) = stepped();
        rec.enable_flight(16);
        let closed = rec.span("closed");
        clock.store(100, Ordering::SeqCst);
        closed.end();
        let _open = rec.span("still_open");
        rec.event("note", [("msg", "with \"quotes\"")]);
        clock.store(250, Ordering::SeqCst);

        let snap = rec.flight_snapshot().unwrap();
        assert_eq!(snap.captured_at, 0.25);
        let names: Vec<&str> = snap.records.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["closed", "note", "still_open"]);

        let jsonl = snap.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1 + snap.len());
        let header = json::parse(lines[0]).expect("header parses");
        assert_eq!(header.get("type").and_then(|v| v.as_str()), Some("flightrec"));
        assert_eq!(header.get("records").and_then(|v| v.as_f64()), Some(3.0));
        for line in &lines[1..] {
            let obj = json::parse(line).expect("record line parses");
            let kind = obj.get("type").and_then(|v| v.as_str()).unwrap();
            assert!(kind == "span" || kind == "event", "unexpected record type {kind}");
        }
    }

    #[test]
    fn chrome_trace_export_is_valid_json_with_both_tracks() {
        let (rec, clock) = stepped();
        rec.enable_flight(16);
        let s = rec.span("work");
        clock.store(2000, Ordering::SeqCst);
        s.end();
        rec.event("decision", [("gpu", 0u64)]);

        let trace = rec.flight_snapshot().unwrap().to_chrome_trace();
        let parsed = json::parse(&trace).expect("chrome trace parses");
        let events = parsed.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert!(!events.is_empty());
        let names: Vec<_> =
            events.iter().filter_map(|e| e.get("name").and_then(|n| n.as_str())).collect();
        assert!(names.contains(&"work"), "{names:?}");
        assert!(names.contains(&"decision"), "{names:?}");
    }

    #[test]
    fn ring_wraps_exactly_at_capacity() {
        let (rec, clock) = stepped();
        rec.enable_flight(4);
        // Fill to exactly capacity: nothing dropped yet.
        for i in 0..4u64 {
            clock.store(i * 1000, Ordering::SeqCst);
            rec.event(format!("fill_{i}"), [("i", i)]);
        }
        let full = rec.flight_snapshot().unwrap();
        assert_eq!(full.len(), 4);
        assert_eq!(full.dropped, 0);

        // The very next record triggers the wrap: length stays at
        // capacity, the oldest record is the one evicted.
        clock.store(4000, Ordering::SeqCst);
        rec.event("fill_4", [("i", 4u64)]);
        let wrapped = rec.flight_snapshot().unwrap();
        assert_eq!(wrapped.len(), 4);
        assert_eq!(wrapped.dropped, 1);
        let names: Vec<&str> = wrapped.records.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["fill_1", "fill_2", "fill_3", "fill_4"]);
    }

    #[test]
    fn snapshot_ordering_is_stable_across_wraps_and_repeat_captures() {
        let (rec, clock) = stepped();
        rec.enable_flight(5);
        // Push far more records than the ring holds so it wraps several
        // times over; retained records must still come back oldest-first
        // with strictly non-decreasing timestamps.
        for i in 0..23u64 {
            clock.store(i * 1000, Ordering::SeqCst);
            rec.event(format!("seq_{i:02}"), [("i", i)]);
        }
        let snap = rec.flight_snapshot().unwrap();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap.dropped, 18);
        let names: Vec<&str> = snap.records.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["seq_18", "seq_19", "seq_20", "seq_21", "seq_22"]);
        assert!(
            snap.records.windows(2).all(|w| w[0].t() <= w[1].t()),
            "retained records must stay in chronological order"
        );

        // A second capture with no intervening records sees the same
        // view: snapshots are pure reads, not drains.
        let again = rec.flight_snapshot().unwrap();
        let names_again: Vec<&str> = again.records.iter().map(|r| r.name()).collect();
        assert_eq!(names_again, names);
        assert_eq!(again.dropped, snap.dropped);
    }

    #[test]
    fn mid_wrap_dump_replays_into_a_valid_chrome_trace() {
        let (rec, clock) = stepped();
        rec.enable_flight(6);
        // Interleave spans and events well past capacity so the capture
        // lands mid-wrap, with one span still open at capture time.
        for i in 0..9u64 {
            clock.store(i * 1000, Ordering::SeqCst);
            let s = rec.span(format!("wave_{i}"));
            clock.store(i * 1000 + 500, Ordering::SeqCst);
            s.end();
            rec.event(format!("mark_{i}"), [("i", i)]);
        }
        let _open = rec.span("in_flight");
        clock.store(9500, Ordering::SeqCst);

        let snap = rec.flight_snapshot().unwrap();
        assert_eq!(snap.len(), 6 + 1, "ring contents plus the open span");
        assert!(snap.dropped > 0, "capture must land mid-wrap");

        let trace = snap.to_chrome_trace();
        let parsed = json::parse(&trace).expect("mid-wrap dump parses as a Chrome trace");
        let events = parsed.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        // Every retained record becomes a complete event with a
        // non-negative duration; the open span is clipped to capture
        // time rather than emitted with a null end.
        let complete: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X")).collect();
        assert_eq!(complete.len(), snap.len());
        for e in &complete {
            assert!(e.get("dur").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        }
        let open = complete
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("in_flight"))
            .expect("open span present in the trace");
        // Clipped: started at t=8.5s, captured at t=9.5s → 1s = 1000000µs.
        assert_eq!(open.get("dur").and_then(|v| v.as_f64()), Some(1_000_000.0));
    }

    #[test]
    fn capacity_zero_drops_everything() {
        let rec = Recorder::new();
        rec.enable_flight(0);
        rec.event("gone", [("n", 1u64)]);
        let snap = rec.flight_snapshot().unwrap();
        assert!(snap.is_empty());
        assert_eq!(snap.dropped, 1);
    }
}
