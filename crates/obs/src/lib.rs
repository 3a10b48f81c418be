//! Telemetry subsystem: structured spans and events, metrics, and trace
//! export.
//!
//! The central type is [`Recorder`], a cheaply cloneable, thread-safe
//! handle threaded through the Galaxy/GYAN pipeline. It carries three
//! sinks:
//!
//! * a **span/event log** — [`Span`]s form a tree via parent links and
//!   carry key/value [`Value`] fields; point-in-time events attach to a
//!   span or stand alone. The whole log exports as JSONL
//!   ([`Recorder::to_jsonl`]).
//! * a **metrics registry** ([`metrics::Registry`]) — counters, gauges,
//!   and histograms with Prometheus text exposition.
//! * an **injectable clock** — timestamps come from a caller-supplied
//!   closure, so a virtual-time simulation produces byte-for-byte
//!   deterministic telemetry.
//!
//! Chrome-trace assembly lives in [`chrome`]; a minimal JSON reader for
//! asserting on exported artifacts lives in [`json`]. The crate is
//! dependency-free so every layer of the workspace can use it.

pub mod chrome;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod serve;
pub mod sketch;
pub mod slo;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A telemetry field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// UTF-8 text.
    Str(String),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Render as a JSON literal.
    pub fn to_json(&self) -> String {
        match self {
            Value::Str(s) => format!("\"{}\"", json_escape(s)),
            Value::Int(v) => v.to_string(),
            Value::UInt(v) => v.to_string(),
            Value::Float(v) => format_f64(*v),
            Value::Bool(v) => v.to_string(),
        }
    }

    /// The string content, when this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A lossy numeric view of the value (strings yield `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::UInt(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(v) => Some(if *v { 1.0 } else { 0.0 }),
            Value::Str(_) => None,
        }
    }

    /// The boolean content, when this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Escape a string for embedding in a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a float compactly but losslessly enough for telemetry (JSON has
/// no Infinity/NaN — those degrade to null).
// `json_escape` above is the workspace's one string escaper; this is one of
// three f64 renderers on purpose. `bench::gate::fmt_json` prints `3` where
// this prints `3.0`, and `gyan::ops::num` prints `1000000000000000.0` where
// this prints `1000000000000000` — each into pinned artifacts, so they are
// not duplicates to merge.
pub(crate) fn format_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// One completed-or-open span in the log.
#[derive(Debug, Clone)]
pub struct SpanData {
    /// Unique id within this recorder.
    pub id: u64,
    /// Parent span id, if any.
    pub parent: Option<u64>,
    /// Span name (e.g. `"galaxy.map_destination"`).
    pub name: String,
    /// Start timestamp (seconds, recorder clock).
    pub start: f64,
    /// End timestamp; `None` while the span is open.
    pub end: Option<f64>,
    /// Attached key/value fields.
    pub fields: Vec<(String, Value)>,
}

impl SpanData {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// One point-in-time event in the log.
#[derive(Debug, Clone)]
pub struct EventData {
    /// Event name (e.g. `"gyan.rule.decision"`).
    pub name: String,
    /// Timestamp (seconds, recorder clock).
    pub t: f64,
    /// Enclosing span id, if the event was emitted within a span.
    pub span: Option<u64>,
    /// Attached key/value fields.
    pub fields: Vec<(String, Value)>,
}

impl EventData {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

#[derive(Default)]
struct LogState {
    /// Sorted by id: ids are allocated under this lock, so push order is
    /// id order, and eviction (which preserves relative order) keeps it
    /// that way — span lookup is a binary search, not a scan.
    spans: Vec<SpanData>,
    events: Vec<EventData>,
    /// Optional retention cap (per log, spans and events separately).
    /// `None` (the default) retains everything.
    retain: Option<usize>,
    dropped_spans: u64,
    dropped_events: u64,
}

impl LogState {
    /// Position of span `id`, exploiting the sorted-by-id invariant.
    fn span_index(&self, id: u64) -> Option<usize> {
        self.spans.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// Enforce the retention cap with ~25% slack so eviction is a rare
    /// batch pass (amortized O(1) per record), not an O(n) scan on every
    /// push. Only *closed* spans are evicted — open spans must survive so
    /// open/close balance checks stay meaningful; events evict FIFO.
    fn evict(&mut self) {
        let Some(limit) = self.retain else { return };
        let slack = limit / 4 + 1;
        if self.spans.len() > limit + slack {
            let mut to_drop = self.spans.len() - limit;
            let mut dropped = 0u64;
            self.spans.retain(|s| {
                if to_drop > 0 && s.end.is_some() {
                    to_drop -= 1;
                    dropped += 1;
                    false
                } else {
                    true
                }
            });
            self.dropped_spans += dropped;
        }
        if self.events.len() > limit + slack {
            let drop_n = self.events.len() - limit;
            self.events.drain(0..drop_n);
            self.dropped_events += drop_n as u64;
        }
    }
}

type ClockFn = dyn Fn() -> f64 + Send + Sync;

struct RecorderInner {
    log: Mutex<LogState>,
    metrics: metrics::Registry,
    clock: Mutex<Arc<ClockFn>>,
    next_id: AtomicU64,
    // Lock-order discipline: the flight lock is a leaf — it is never
    // held while taking the log or clock lock (and vice versa callers
    // drop the log lock before pushing here).
    flight: Mutex<Option<flight::FlightRing>>,
}

/// Thread-safe telemetry handle; clone freely — all clones share one log,
/// one metrics registry, and one clock.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose clock reads 0 until one is injected.
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                log: Mutex::new(LogState::default()),
                metrics: metrics::Registry::new(),
                clock: Mutex::new(Arc::new(|| 0.0)),
                next_id: AtomicU64::new(1),
                flight: Mutex::new(None),
            }),
        }
    }

    /// A recorder reading timestamps from `clock`.
    pub fn with_clock(clock: impl Fn() -> f64 + Send + Sync + 'static) -> Self {
        let r = Recorder::new();
        r.set_clock(clock);
        r
    }

    /// Replace the timestamp source (e.g. with a virtual clock).
    pub fn set_clock(&self, clock: impl Fn() -> f64 + Send + Sync + 'static) {
        *self.inner.clock.lock().unwrap_or_else(|e| e.into_inner()) = Arc::new(clock);
    }

    /// Current time per the injected clock.
    pub fn now(&self) -> f64 {
        let clock = self.inner.clock.lock().unwrap_or_else(|e| e.into_inner()).clone();
        clock()
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &metrics::Registry {
        &self.inner.metrics
    }

    /// Turn on the flight recorder with a ring of `capacity` records.
    /// Re-enabling resets the ring (and its drop counter).
    pub fn enable_flight(&self, capacity: usize) {
        *self.inner.flight.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(flight::FlightRing::new(capacity));
    }

    /// Whether flight recording is enabled.
    pub fn flight_enabled(&self) -> bool {
        self.inner.flight.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }

    /// Snapshot the flight ring (`None` while disabled). Still-open
    /// spans are appended after the ring's records so the snapshot shows
    /// in-progress work too.
    pub fn flight_snapshot(&self) -> Option<flight::FlightSnapshot> {
        let captured_at = self.now();
        let mut snap = {
            let flight = self.inner.flight.lock().unwrap_or_else(|e| e.into_inner());
            flight.as_ref()?.snapshot(captured_at)
        };
        for span in self.open_spans() {
            snap.records.push(flight::FlightRecord::Span(span));
        }
        Some(snap)
    }

    fn flight_push(&self, make: impl FnOnce() -> flight::FlightRecord) {
        let mut flight = self.inner.flight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(ring) = flight.as_mut() {
            ring.push(make());
        }
    }

    /// Open a root span.
    pub fn span(&self, name: impl Into<String>) -> Span {
        self.open_span(name.into(), None)
    }

    fn open_span(&self, name: String, parent: Option<u64>) -> Span {
        let start = self.now();
        let mut log = self.inner.log.lock().unwrap_or_else(|e| e.into_inner());
        // Allocate the id while holding the log lock so push order is id
        // order — the invariant `LogState::span_index` binary-searches on.
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        log.spans.push(SpanData { id, parent, name, start, end: None, fields: Vec::new() });
        log.evict();
        Span { recorder: self.clone(), id, ended: false }
    }

    fn close_span(&self, id: u64) {
        let end = self.now();
        let closed = {
            let mut log = self.inner.log.lock().unwrap_or_else(|e| e.into_inner());
            match log.span_index(id).map(|i| &mut log.spans[i]) {
                Some(span) if span.end.is_none() => {
                    span.end = Some(end);
                    Some(span.clone())
                }
                _ => None,
            }
        };
        if let Some(span) = closed {
            self.flight_push(|| flight::FlightRecord::Span(span));
        }
    }

    fn add_span_field(&self, id: u64, key: String, value: Value) {
        let mut log = self.inner.log.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = log.span_index(id) {
            log.spans[i].fields.push((key, value));
        }
    }

    /// Cap the span/event log at roughly `limit` records each, evicting
    /// the oldest **closed** spans and oldest events once the cap (plus
    /// ~25% batching slack) is exceeded; open spans are never evicted, so
    /// open/close-balance checks keep working. `None` (the default)
    /// retains everything. Long soak runs set this so telemetry stays
    /// O(limit) instead of O(jobs); [`Recorder::dropped_log_records`]
    /// reports how much history eviction cost.
    pub fn set_log_retention(&self, limit: Option<usize>) {
        let mut log = self.inner.log.lock().unwrap_or_else(|e| e.into_inner());
        log.retain = limit;
        log.evict();
    }

    /// `(spans, events)` evicted by the retention cap so far.
    pub fn dropped_log_records(&self) -> (u64, u64) {
        let log = self.inner.log.lock().unwrap_or_else(|e| e.into_inner());
        (log.dropped_spans, log.dropped_events)
    }

    /// Emit a standalone event.
    pub fn event<K: Into<String>, V: Into<Value>>(
        &self,
        name: impl Into<String>,
        fields: impl IntoIterator<Item = (K, V)>,
    ) {
        self.emit_event(name.into(), None, fields);
    }

    fn emit_event<K: Into<String>, V: Into<Value>>(
        &self,
        name: String,
        span: Option<u64>,
        fields: impl IntoIterator<Item = (K, V)>,
    ) {
        let t = self.now();
        let fields = fields.into_iter().map(|(k, v)| (k.into(), v.into())).collect();
        let ev = EventData { name, t, span, fields };
        self.flight_push(|| flight::FlightRecord::Event(ev.clone()));
        let mut log = self.inner.log.lock().unwrap_or_else(|e| e.into_inner());
        log.events.push(ev);
        log.evict();
    }

    /// Snapshot of all spans recorded so far.
    pub fn spans(&self) -> Vec<SpanData> {
        self.inner.log.lock().unwrap_or_else(|e| e.into_inner()).spans.clone()
    }

    /// Spans recorded but not yet ended — a quiesced system should have
    /// none, which makes this the open/close-balance probe for invariant
    /// checkers.
    pub fn open_spans(&self) -> Vec<SpanData> {
        self.inner
            .log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .spans
            .iter()
            .filter(|s| s.end.is_none())
            .cloned()
            .collect()
    }

    /// Snapshot of all events recorded so far.
    pub fn events(&self) -> Vec<EventData> {
        self.inner.log.lock().unwrap_or_else(|e| e.into_inner()).events.clone()
    }

    /// Events with the given name.
    pub fn events_named(&self, name: &str) -> Vec<EventData> {
        self.events().into_iter().filter(|e| e.name == name).collect()
    }

    /// Spans with the given name.
    pub fn spans_named(&self, name: &str) -> Vec<SpanData> {
        self.spans().into_iter().filter(|s| s.name == name).collect()
    }

    /// Export the span/event log as JSON Lines: one object per line,
    /// spans first (in open order), then events (in emit order).
    pub fn to_jsonl(&self) -> String {
        let log = self.inner.log.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for s in &log.spans {
            out.push_str(&span_json_line(s));
        }
        for e in &log.events {
            out.push_str(&event_json_line(e));
        }
        out
    }
}

/// Render one span as a JSONL line (newline-terminated).
pub(crate) fn span_json_line(s: &SpanData) -> String {
    format!(
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{}{}}}\n",
        s.id,
        s.parent.map_or("null".to_string(), |p| p.to_string()),
        json_escape(&s.name),
        format_f64(s.start),
        s.end.map_or("null".to_string(), format_f64),
        render_fields(&s.fields),
    )
}

/// Render one event as a JSONL line (newline-terminated).
pub(crate) fn event_json_line(e: &EventData) -> String {
    format!(
        "{{\"type\":\"event\",\"name\":\"{}\",\"t\":{},\"span\":{}{}}}\n",
        json_escape(&e.name),
        format_f64(e.t),
        e.span.map_or("null".to_string(), |p| p.to_string()),
        render_fields(&e.fields),
    )
}

fn render_fields(fields: &[(String, Value)]) -> String {
    if fields.is_empty() {
        return String::new();
    }
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("\"{}\":{}", json_escape(k), v.to_json())).collect();
    format!(",\"fields\":{{{}}}", body.join(","))
}

/// An open span; ends (records its end timestamp) on [`Span::end`] or
/// drop, whichever comes first.
pub struct Span {
    recorder: Recorder,
    id: u64,
    ended: bool,
}

impl Span {
    /// This span's id (usable as a parent link after the span closes).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Open a child span.
    pub fn child(&self, name: impl Into<String>) -> Span {
        self.recorder.open_span(name.into(), Some(self.id))
    }

    /// Attach a key/value field.
    pub fn field(&self, key: impl Into<String>, value: impl Into<Value>) {
        self.recorder.add_span_field(self.id, key.into(), value.into());
    }

    /// Emit an event attached to this span.
    pub fn event<K: Into<String>, V: Into<Value>>(
        &self,
        name: impl Into<String>,
        fields: impl IntoIterator<Item = (K, V)>,
    ) {
        self.recorder.emit_event(name.into(), Some(self.id), fields);
    }

    /// Close the span now.
    pub fn end(mut self) {
        self.ended = true;
        self.recorder.close_span(self.id);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.ended {
            self.recorder.close_span(self.id);
        }
    }
}

/// Convenience for callers that may or may not have telemetry wired up:
/// an `Option<&Recorder>`-like free function set. Emitting through `None`
/// is a no-op, so call sites stay unconditional.
pub fn event_opt<K: Into<String>, V: Into<Value>>(
    recorder: Option<&Recorder>,
    name: impl Into<String>,
    fields: impl IntoIterator<Item = (K, V)>,
) {
    if let Some(r) = recorder {
        r.event(name, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as ClockCell, Ordering as ClockOrdering};

    fn stepped_recorder() -> (Recorder, Arc<ClockCell>) {
        // Clock in milliseconds stored in an atomic; tests advance it.
        let cell = Arc::new(ClockCell::new(0));
        let c = cell.clone();
        let rec = Recorder::with_clock(move || c.load(ClockOrdering::SeqCst) as f64 / 1000.0);
        (rec, cell)
    }

    #[test]
    fn span_tree_records_parent_links_and_times() {
        let (rec, clock) = stepped_recorder();
        let root = rec.span("job");
        clock.store(100, ClockOrdering::SeqCst);
        let child = rec.spans_named("job");
        assert_eq!(child.len(), 1);
        let inner = root.child("phase");
        inner.field("tool", "racon_gpu");
        clock.store(250, ClockOrdering::SeqCst);
        inner.end();
        root.end();

        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let job = &spans[0];
        let phase = &spans[1];
        assert_eq!(phase.parent, Some(job.id));
        assert_eq!(job.start, 0.0);
        assert_eq!(phase.start, 0.1);
        assert_eq!(phase.end, Some(0.25));
        assert_eq!(job.end, Some(0.25));
        assert_eq!(phase.field("tool").and_then(|v| v.as_str()), Some("racon_gpu"));
    }

    #[test]
    fn dropped_span_closes_itself() {
        let (rec, clock) = stepped_recorder();
        {
            let _s = rec.span("scoped");
            clock.store(500, ClockOrdering::SeqCst);
        }
        assert_eq!(rec.spans()[0].end, Some(0.5));
    }

    #[test]
    fn events_attach_to_spans() {
        let (rec, _clock) = stepped_recorder();
        let s = rec.span("alloc");
        s.event("decision", [("reason", "all_free")]);
        rec.event("loose", [("n", 3u64)]);
        s.end();

        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].span, Some(rec.spans()[0].id));
        assert_eq!(events[0].field("reason").and_then(|v| v.as_str()), Some("all_free"));
        assert_eq!(events[1].span, None);
        assert_eq!(events[1].field("n").and_then(|v| v.as_f64()), Some(3.0));
    }

    #[test]
    fn jsonl_export_parses_line_by_line() {
        let (rec, clock) = stepped_recorder();
        let s = rec.span("job");
        s.field("id", 7u64);
        s.event("note", [("msg", "hi \"there\"\n")]);
        clock.store(1250, ClockOrdering::SeqCst);
        s.end();

        let text = rec.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let span = json::parse(lines[0]).expect("span line parses");
        assert_eq!(span.get("type").and_then(|v| v.as_str()), Some("span"));
        assert_eq!(span.get("name").and_then(|v| v.as_str()), Some("job"));
        assert_eq!(span.get("end").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(
            span.get("fields").and_then(|f| f.get("id")).and_then(|v| v.as_f64()),
            Some(7.0)
        );
        let event = json::parse(lines[1]).expect("event line parses");
        assert_eq!(event.get("type").and_then(|v| v.as_str()), Some("event"));
        assert_eq!(
            event.get("fields").and_then(|f| f.get("msg")).and_then(|v| v.as_str()),
            Some("hi \"there\"\n")
        );
    }

    #[test]
    fn recorder_is_shared_across_clones_and_threads() {
        let rec = Recorder::new();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    let s = rec.span(format!("worker-{i}"));
                    rec.metrics().inc_counter("obs_test_total", 1);
                    s.end();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.spans().len(), 8);
        assert_eq!(rec.metrics().counter_value("obs_test_total"), 8);
    }

    #[test]
    fn retention_evicts_closed_spans_and_old_events_only() {
        let rec = Recorder::new();
        rec.set_log_retention(Some(8));
        let held = rec.span("held-open");
        for i in 0..40u64 {
            let s = rec.span("burst");
            s.field("i", i);
            s.end();
            rec.event("tick", [("i", i)]);
        }
        let spans = rec.spans();
        // The cap plus batching slack bounds the log; the open span
        // survived every eviction pass.
        assert!(spans.len() <= 8 + 8 / 4 + 1, "spans bounded, got {}", spans.len());
        assert!(spans.iter().any(|s| s.name == "held-open" && s.end.is_none()));
        assert!(rec.events().len() <= 8 + 8 / 4 + 1);
        let (dropped_spans, dropped_events) = rec.dropped_log_records();
        assert!(dropped_spans > 0 && dropped_events > 0);
        // Eviction preserves the sorted-by-id invariant, so closing a
        // surviving span (binary search) still works.
        held.end();
        assert!(rec.open_spans().is_empty());
        // Newest records are the ones retained.
        let ids: Vec<u64> = rec.spans().iter().map(|s| s.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "span log stays id-sorted after eviction");
    }

    #[test]
    fn unbounded_by_default_and_cap_can_be_lifted() {
        let rec = Recorder::new();
        for _ in 0..100 {
            rec.span("s").end();
        }
        assert_eq!(rec.spans().len(), 100);
        rec.set_log_retention(Some(10));
        assert!(rec.spans().len() <= 10 + 10 / 4 + 1);
        rec.set_log_retention(None);
        for _ in 0..50 {
            rec.span("more").end();
        }
        let before = rec.dropped_log_records();
        assert!(rec.spans().len() >= 50);
        assert_eq!(rec.dropped_log_records(), before, "no eviction once lifted");
    }

    #[test]
    fn concurrent_span_churn_keeps_ids_sorted() {
        let rec = Recorder::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let s = rec.span("w");
                        s.field("k", 1u64);
                        s.end();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let ids: Vec<u64> = rec.spans().iter().map(|s| s.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), 1600);
        assert!(rec.open_spans().is_empty());
    }

    #[test]
    fn virtual_clock_injection_is_deterministic() {
        let make = || {
            let (rec, clock) = stepped_recorder();
            let s = rec.span("a");
            clock.store(10, ClockOrdering::SeqCst);
            let c = s.child("b");
            clock.store(30, ClockOrdering::SeqCst);
            c.end();
            s.end();
            rec.to_jsonl()
        };
        assert_eq!(make(), make());
    }
}
