//! Flight recorder: the last [`CAPACITY`] ended spans and events of a
//! [`crate::Recorder`]'s log, snapshottable at any moment into a
//! self-contained JSONL dump or a Chrome trace.
//!
//! The window is a read over the log's tail, not a second store
//! ([`crate::Recorder::flight_snapshot`]): recording costs nothing extra,
//! so it is always on, and it holds only what the log still retains.
//! The point is post-mortems without full-run tracing: the ops server
//! dumps it on `GET /api/flightrec`, and simtest attaches one to invariant
//! violations. An alert firing is an event in the log, so a snapshot taken
//! after it holds the firing and what led up to it.

use crate::{event_json_line, span_json_line, EventData, SpanData};

/// Ended spans and events a [`FlightSnapshot`] holds at most.
pub const CAPACITY: usize = 512;

/// One entry of a [`FlightSnapshot`]: a closed span or an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightRecord {
    /// A span that has ended (open spans are appended at snapshot time).
    Span(SpanData),
    /// A point-in-time event.
    Event(EventData),
}

impl FlightRecord {
    /// The record's name.
    pub fn name(&self) -> &str {
        match self {
            FlightRecord::Span(s) => &s.name,
            FlightRecord::Event(e) => &e.name,
        }
    }
}

/// A self-contained copy of the flight window at one instant.
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// Recorder-clock time of the capture.
    pub captured_at: f64,
    /// Ended spans and events recorded but not in the window — how much
    /// history the snapshot has already forgotten.
    pub dropped: u64,
    /// The window's ended spans and events in record order, oldest
    /// first; still-open spans are appended last with `end: null`.
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
}

#[cfg(test)]
mod tests {
    use super::{FlightRecord, CAPACITY};
    use crate::{json, Recorder};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    impl FlightRecord {
        /// The record's timestamp: span start or event time.
        pub(crate) fn t(&self) -> f64 {
            match self {
                FlightRecord::Span(s) => s.start,
                FlightRecord::Event(e) => e.t,
            }
        }
    }

    fn stepped() -> (Recorder, Arc<AtomicU64>) {
        let cell = Arc::new(AtomicU64::new(0));
        let c = cell.clone();
        let rec = Recorder::new();
        rec.set_clock(move || c.load(Ordering::SeqCst) as f64 / 1000.0);
        (rec, cell)
    }

    fn names(rec: &Recorder) -> Vec<String> {
        rec.flight_snapshot().records.iter().map(|r| r.name().to_string()).collect()
    }

    #[test]
    fn window_wraps_exactly_at_capacity() {
        let (rec, clock) = stepped();
        // Fill to exactly capacity: nothing dropped yet.
        for i in 0..CAPACITY as u64 {
            clock.store(i * 1000, Ordering::SeqCst);
            rec.event(format!("fill_{i}"), [("i", i)]);
        }
        let full = rec.flight_snapshot();
        assert_eq!((full.len(), full.dropped), (CAPACITY, 0));
        assert_eq!(full.records[0].name(), "fill_0");

        // The very next record wraps the window: length stays at capacity,
        // the oldest record is the one that leaves.
        rec.span("fill_last").end();
        let wrapped = rec.flight_snapshot();
        assert_eq!((wrapped.len(), wrapped.dropped), (CAPACITY, 1));
        assert_eq!(wrapped.records[0].name(), "fill_1");
        assert_eq!(wrapped.records[CAPACITY - 1].name(), "fill_last");
        // The log itself still holds everything: only the window moved.
        assert_eq!(rec.events().len(), CAPACITY);
    }

    /// Spans and events stamped at one clock reading come back in the
    /// order they were recorded — the record number decides, the
    /// timestamp cannot — and a span sits where it *ended*.
    #[test]
    fn records_at_one_timestamp_come_back_in_record_order() {
        let rec = Recorder::new();
        let outer = rec.span("outer");
        rec.event("first", [("n", 1u64)]);
        rec.span("inner").end();
        rec.event("row", [("n", 2u64)]);
        rec.event("row", [("n", 3u64)]);
        outer.end();
        rec.event("last", [("n", 4u64)]);
        assert_eq!(names(&rec), ["first", "inner", "row", "row", "outer", "last"]);
    }

    /// Under a retention cap below the window's capacity the window holds
    /// exactly what the log retains, and `dropped` counts every ended span
    /// and event the log has let go.
    #[test]
    fn under_a_retention_cap_the_window_is_what_the_log_retains() {
        let (rec, clock) = stepped();
        rec.set_log_retention(Some(8));
        let _held = rec.span("held_open");
        for i in 0..100u64 {
            clock.store(i * 1000, Ordering::SeqCst);
            rec.span(format!("s{i}")).end();
            rec.event(format!("e{i}"), [("i", i)]);
        }
        let snap = rec.flight_snapshot();
        let ended = rec.spans().into_iter().filter(|s| s.end.is_some()).map(|s| s.name);
        let retained: Vec<String> =
            ended.chain(rec.events().into_iter().map(|e| e.name)).map(|n| n.to_string()).collect();
        assert!(retained.len() < CAPACITY);
        // Retained spans and events in record order, the open span last.
        let want: Vec<String> = (0..100)
            .flat_map(|i| [format!("s{i}"), format!("e{i}")])
            .filter(|name| retained.contains(name))
            .chain(["held_open".to_string()])
            .collect();
        assert_eq!(names(&rec), want);
        assert_eq!(snap.dropped, 200 - retained.len() as u64);
        let (dropped_spans, dropped_events) = rec.dropped_log_records();
        assert_eq!(snap.dropped, dropped_spans + dropped_events);
    }

    #[test]
    fn snapshot_includes_open_spans_and_round_trips_as_jsonl() {
        let (rec, clock) = stepped();
        let closed = rec.span("closed");
        clock.store(100, Ordering::SeqCst);
        closed.end();
        let _open = rec.span("still_open");
        rec.event("note", [("msg", "with \"quotes\"")]);
        clock.store(250, Ordering::SeqCst);

        let snap = rec.flight_snapshot();
        assert_eq!(snap.captured_at, 0.25);
        assert_eq!(names(&rec), ["closed", "note", "still_open"]);

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
    fn snapshot_ordering_is_stable_across_wraps_and_repeat_captures() {
        let (rec, clock) = stepped();
        // Record far more than the window holds; the window must still
        // come back oldest-first with non-decreasing timestamps.
        let total = 2 * CAPACITY as u64 + 23;
        for i in 0..total {
            clock.store(i * 1000, Ordering::SeqCst);
            rec.event(format!("seq_{i:04}"), [("i", i)]);
        }
        let snap = rec.flight_snapshot();
        assert_eq!((snap.len(), snap.dropped), (CAPACITY, total - CAPACITY as u64));
        let names: Vec<&str> = snap.records.iter().map(|r| r.name()).collect();
        assert_eq!(names[0], format!("seq_{:04}", total - CAPACITY as u64));
        assert_eq!(names[CAPACITY - 1], format!("seq_{:04}", total - 1));
        assert!(
            snap.records.windows(2).all(|w| w[0].t() <= w[1].t()),
            "windowed records must stay in chronological order"
        );

        // A second capture with no intervening records sees the same
        // view: snapshots are pure reads, not drains.
        let again = rec.flight_snapshot();
        let names_again: Vec<&str> = again.records.iter().map(|r| r.name()).collect();
        assert_eq!(names_again, names);
        assert_eq!(again.dropped, snap.dropped);
    }

    #[test]
    fn mid_wrap_dump_holds_the_window_and_the_open_span() {
        let (rec, clock) = stepped();
        // Interleave spans and events well past capacity so the capture
        // lands mid-wrap, with one span still open at capture time.
        let waves = CAPACITY as u64 / 2 + 9;
        for i in 0..waves {
            clock.store(i * 1000, Ordering::SeqCst);
            let s = rec.span(format!("wave_{i}"));
            clock.store(i * 1000 + 500, Ordering::SeqCst);
            s.end();
            rec.event(format!("mark_{i}"), [("i", i)]);
        }
        let _open = rec.span("in_flight");
        clock.store(waves * 1000 + 500, Ordering::SeqCst);

        let snap = rec.flight_snapshot();
        assert_eq!(snap.len(), CAPACITY + 1, "the window plus the open span");
        assert_eq!(snap.dropped, 18, "capture must land mid-wrap");

        // The dump `/api/flightrec` serves: a header carrying the drop
        // count, then one parseable line per record, the open span last
        // with no end.
        let dump = snap.to_jsonl();
        let lines: Vec<_> =
            dump.lines().map(|l| json::parse(l).expect("dump line parses")).collect();
        assert_eq!(lines[0].get("dropped").and_then(|v| v.as_f64()), Some(18.0));
        assert_eq!(lines.len(), 1 + snap.len());
        let open = lines.last().unwrap();
        assert_eq!(open.get("name").and_then(|v| v.as_str()), Some("in_flight"));
        assert_eq!(open.get("end"), Some(&json::JsonValue::Null));
    }
}
