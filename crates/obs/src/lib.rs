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
//!
//! Recording is the hot side and reading the cold one (end of run, on
//! failure, on a scrape), so a record is laid out for the writer: names,
//! field keys and string values are [`Text`]s (a literal, or a run-time
//! string of at most [`Text::INLINE`] bytes, costs no allocation), an
//! ended span or an event is stored **once**, by value, in the
//! log with a record number, and every reader — [`Recorder::spans`],
//! [`Recorder::events`], a [`flight::FlightSnapshot`] (the log's last
//! [`flight::CAPACITY`] records) — copies on demand. A timestamp takes
//! no lock of its own: the clock is read under the log lock the record
//! takes anyway, which also makes log order time order.

pub mod chrome;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod serve;
pub mod sketch;
pub mod slo;
mod text;

pub use text::Text;

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A span/event name or a field key: a [`Text`], in the role that is
/// nearly always a literal or a `pub const …: &str`.
pub type Key = Text;

/// A telemetry field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// UTF-8 text.
    Str(Text),
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

/// A borrowed string is copied — in place when it is at most
/// [`Text::INLINE`] bytes. A longer *literal* is recorded by reference
/// through `Value::from(Text::from(literal))`.
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Text::concat(&[v]))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<Text> for Value {
    fn from(v: Text) -> Self {
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
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    /// Unique id within this recorder.
    pub id: u64,
    /// Parent span id, if any.
    pub parent: Option<u64>,
    /// Span name (e.g. `"galaxy.map_destination"`).
    pub name: Key,
    /// Start timestamp (seconds, recorder clock).
    pub start: f64,
    /// End timestamp; `None` while the span is open.
    pub end: Option<f64>,
    /// Attached key/value fields.
    pub fields: Vec<(Key, Value)>,
}

impl SpanData {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// One point-in-time event in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct EventData {
    /// Event name (e.g. `"gyan.rule.decision"`).
    pub name: Key,
    /// Timestamp (seconds, recorder clock).
    pub t: f64,
    /// Enclosing span id, if the event was emitted within a span.
    pub span: Option<u64>,
    /// Attached key/value fields.
    pub fields: Vec<(Key, Value)>,
}

impl EventData {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

#[derive(Default)]
struct LogState {
    /// The timestamp source, read only through [`LogState::now`] with the
    /// log lock held.
    clock: Clock,
    /// Spans not yet ended, by id: attaching a field or ending a span is
    /// one lookup here, however long the retained log behind it is.
    open: HashMap<u64, SpanData, BuildHasherDefault<IdHasher>>,
    /// Ended spans, oldest *end* first — the end eviction takes from —
    /// each with its record number.
    closed: VecDeque<(u64, SpanData)>,
    /// Events in emit order, each with its record number.
    events: VecDeque<(u64, EventData)>,
    /// Ended spans and events recorded so far; the last one's number.
    recorded: u64,
    /// Optional retention cap (per log, spans and events separately).
    /// `None` (the default) retains everything.
    retain: Option<usize>,
    dropped_spans: u64,
    dropped_events: u64,
}

impl LogState {
    /// Current time per the injected clock.
    fn now(&self) -> f64 {
        (self.clock.0)()
    }

    /// Number the next ended span or event: record order across both
    /// deques, which a flight snapshot merges by.
    fn next_record(&mut self) -> u64 {
        self.recorded += 1;
        self.recorded
    }

    /// Enforce the retention cap: as soon as the spans or the events
    /// number more than `limit`, evict the oldest. Both deques are kept
    /// in eviction order, so each eviction is a pop from the front —
    /// O(1), never looking at a record it keeps — and records are freed
    /// at the pace they are written, not a quarter of the cap in one
    /// call (a burst the allocator paid for in the calls after it). Only
    /// *ended* spans are evicted, oldest end first — open spans must
    /// survive so open/close balance checks stay meaningful, and a job
    /// that queued for long is not the first to go the moment it
    /// finishes; events evict FIFO.
    fn evict(&mut self) {
        let Some(limit) = self.retain else { return };
        let spans = self.open.len() + self.closed.len();
        if spans > limit {
            let drop_n = (spans - limit).min(self.closed.len());
            self.closed.drain(..drop_n);
            self.dropped_spans += drop_n as u64;
        }
        if self.events.len() > limit {
            let drop_n = self.events.len() - limit;
            self.events.drain(..drop_n);
            self.dropped_events += drop_n as u64;
        }
    }

    /// The given spans in open (= id) order, which is what every export
    /// promises; the log itself is kept in the order eviction wants.
    fn by_id<'a>(spans: impl Iterator<Item = &'a SpanData>) -> Vec<&'a SpanData> {
        let mut spans: Vec<&SpanData> = spans.collect();
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }

    /// Every retained span, ended or not.
    fn spans(&self) -> impl Iterator<Item = &SpanData> {
        self.closed.iter().map(|(_, s)| s).chain(self.open.values())
    }
}

type ClockFn = dyn Fn() -> f64 + Send + Sync;

/// The injected timestamp source; reads 0 until one is set.
struct Clock(Box<ClockFn>);

impl Default for Clock {
    fn default() -> Self {
        Clock(Box::new(|| 0.0))
    }
}

/// Hashes the open-span map's keys — ids this recorder hands out in
/// sequence, never input — with one multiply (Fibonacci hashing): the low
/// bits of consecutive ids land in distinct buckets and the high bits the
/// table's tag bytes read are mixed, without SipHash's rounds.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

struct RecorderInner {
    // The clock lives in the log state and is read with the log lock
    // held, so a record's timestamp and its place in the log are taken in
    // one step: log order is time order. The clock must therefore not
    // call back into the recorder or take a lock a recording thread can
    // hold; the workspace's clocks are an atomic load.
    log: Mutex<LogState>,
    metrics: metrics::Registry,
    next_id: AtomicU64,
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
                next_id: AtomicU64::new(1),
            }),
        }
    }

    /// Replace the timestamp source (e.g. with a virtual clock). The
    /// clock is called with the recorder's log lock held (one call per
    /// event or batch of events, two per span, one per
    /// [`Recorder::now`]), so every record is stamped and appended in one
    /// step and the log is in time order. It must not call back into the
    /// recorder, nor take a lock that a thread recording can hold.
    pub fn set_clock(&self, clock: impl Fn() -> f64 + Send + Sync + 'static) {
        self.log().clock = Clock(Box::new(clock));
    }

    /// Current time per the injected clock.
    pub fn now(&self) -> f64 {
        self.log().now()
    }

    fn log(&self) -> MutexGuard<'_, LogState> {
        self.inner.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &metrics::Registry {
        &self.inner.metrics
    }

    /// Snapshot the last [`flight::CAPACITY`] ended spans and events the
    /// log retains, in record order, followed by the still-open spans so
    /// the snapshot shows in-progress work too.
    pub fn flight_snapshot(&self) -> flight::FlightSnapshot {
        use flight::FlightRecord;
        let log = self.log();
        let mut spans = log.closed.iter().rev().peekable();
        let mut events = log.events.iter().rev().peekable();
        let windowed = (log.closed.len() + log.events.len()).min(flight::CAPACITY);
        let mut records = Vec::with_capacity(windowed + log.open.len());
        // Both deques are in record order: merge them from the back.
        for _ in 0..windowed {
            let span_is_newer = match (spans.peek(), events.peek()) {
                (Some((s, _)), Some((e, _))) => s > e,
                (span, _) => span.is_some(),
            };
            records.extend(if span_is_newer {
                spans.next().map(|(_, s)| FlightRecord::Span(s.clone()))
            } else {
                events.next().map(|(_, e)| FlightRecord::Event(e.clone()))
            });
        }
        records.reverse();
        let dropped = log.recorded - records.len() as u64;
        records.extend(
            LogState::by_id(log.open.values()).into_iter().cloned().map(FlightRecord::Span),
        );
        flight::FlightSnapshot { captured_at: log.now(), dropped, records }
    }

    /// Open a root span.
    pub fn span(&self, name: impl Into<Key>) -> Span {
        self.open_span(name.into(), None)
    }

    fn open_span(&self, name: Key, parent: Option<u64>) -> Span {
        let mut log = self.log();
        let start = log.now();
        // Allocate the id while holding the log lock so id order is open
        // order — the order every export sorts back into.
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        log.open.insert(id, SpanData { id, parent, name, start, end: None, fields: Vec::new() });
        log.evict();
        Span { recorder: self.clone(), id, ended: false }
    }

    fn close_span(&self, id: u64) {
        let mut log = self.log();
        let Some(mut span) = log.open.remove(&id) else { return };
        span.end = Some(log.now());
        let seq = log.next_record();
        log.closed.push_back((seq, span));
    }

    fn add_span_field(&self, id: u64, key: Key, value: Value) {
        if let Some(span) = self.log().open.get_mut(&id) {
            span.fields.push((key, value));
        }
    }

    /// Cap the span/event log at `limit` records each, evicting the
    /// oldest-**ended** spans and oldest events once the cap is
    /// exceeded; open spans are never evicted, so open/close-balance
    /// checks keep working. `None` (the default)
    /// retains everything. Long soak runs set this so telemetry stays
    /// O(limit) instead of O(jobs); [`Recorder::dropped_log_records`]
    /// reports how much history eviction cost.
    pub fn set_log_retention(&self, limit: Option<usize>) {
        let mut log = self.log();
        log.retain = limit;
        log.evict();
    }

    /// `(spans, events)` evicted by the retention cap so far.
    pub fn dropped_log_records(&self) -> (u64, u64) {
        let log = self.log();
        (log.dropped_spans, log.dropped_events)
    }

    /// Emit a standalone event.
    pub fn event<K: Into<Key>, V: Into<Value>>(
        &self,
        name: impl Into<Key>,
        fields: impl IntoIterator<Item = (K, V)>,
    ) {
        self.emit_event(name.into(), None, fields);
    }

    fn emit_event<K, V>(
        &self,
        name: Key,
        span: Option<u64>,
        fields: impl IntoIterator<Item = (K, V)>,
    ) where
        K: Into<Key>,
        V: Into<Value>,
    {
        let fields = fields.into_iter().map(|(k, v)| (k.into(), v.into())).collect();
        let mut log = self.log();
        let t = log.now();
        let seq = log.next_record();
        log.events.push_back((seq, EventData { name, t, span, fields }));
        log.evict();
    }

    /// Snapshot of all spans recorded so far, in open order.
    pub fn spans(&self) -> Vec<SpanData> {
        let log = self.log();
        LogState::by_id(log.spans()).into_iter().cloned().collect()
    }

    /// Spans recorded but not yet ended — a quiesced system should have
    /// none, which makes this the open/close-balance probe for invariant
    /// checkers.
    pub fn open_spans(&self) -> Vec<SpanData> {
        let log = self.log();
        LogState::by_id(log.open.values()).into_iter().cloned().collect()
    }

    /// Snapshot of all events recorded so far, in emit order.
    pub fn events(&self) -> Vec<EventData> {
        self.log().events.iter().map(|(_, e)| e.clone()).collect()
    }

    /// Events with the given name.
    pub fn events_named(&self, name: &str) -> Vec<EventData> {
        let log = self.log();
        log.events.iter().filter(|(_, e)| e.name == name).map(|(_, e)| e.clone()).collect()
    }

    /// Export the span/event log as JSON Lines: one object per line,
    /// spans first (in open order), then events (in emit order).
    pub fn to_jsonl(&self) -> String {
        let log = self.log();
        let mut out = String::new();
        for s in LogState::by_id(log.spans()) {
            out.push_str(&span_json_line(s));
        }
        for (_, e) in &log.events {
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

fn render_fields(fields: &[(Key, Value)]) -> String {
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
    pub fn child(&self, name: impl Into<Key>) -> Span {
        self.recorder.open_span(name.into(), Some(self.id))
    }

    /// Attach a key/value field.
    pub fn field(&self, key: impl Into<Key>, value: impl Into<Value>) {
        self.recorder.add_span_field(self.id, key.into(), value.into());
    }

    /// Emit an event attached to this span.
    pub fn event<K: Into<Key>, V: Into<Value>>(
        &self,
        name: impl Into<Key>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as ClockCell, Ordering as ClockOrdering};

    fn stepped_recorder() -> (Recorder, Arc<ClockCell>) {
        // Clock in milliseconds stored in an atomic; tests advance it.
        let cell = Arc::new(ClockCell::new(0));
        let c = cell.clone();
        let rec = Recorder::new();
        rec.set_clock(move || c.load(ClockOrdering::SeqCst) as f64 / 1000.0);
        (rec, cell)
    }

    #[test]
    fn span_tree_records_parent_links_and_times() {
        let (rec, clock) = stepped_recorder();
        let root = rec.span("job");
        clock.store(100, ClockOrdering::SeqCst);
        let child: Vec<_> = rec.spans().into_iter().filter(|s| s.name == "job").collect();
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
        // The cap bounds the log; the open span survived every eviction.
        assert_eq!(spans.len(), 8, "spans bounded");
        assert!(spans.iter().any(|s| s.name == "held-open" && s.end.is_none()));
        assert_eq!(rec.events().len(), 8);
        let (dropped_spans, dropped_events) = rec.dropped_log_records();
        assert!(dropped_spans > 0 && dropped_events > 0);
        // An open span is found by id whatever was evicted around it.
        held.end();
        assert!(rec.open_spans().is_empty());
        // The log is kept in end order (the long-held span ended last);
        // readers still get open order.
        let ids: Vec<u64> = rec.spans().iter().map(|s| s.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "spans() stays id-sorted after eviction");
        assert_eq!(ids[0], 1, "the span that ended last survived, oldest id or not");
    }

    /// Open spans alone over the cap: the eviction quota can never be
    /// met. The old `Vec::retain` pass then re-scanned the whole log on
    /// every later `open_span`; eviction now costs what it drops.
    #[test]
    fn open_spans_beyond_the_cap_survive_and_eviction_keeps_counting() {
        const CAP: usize = 8;
        let rec = Recorder::new();
        rec.set_log_retention(Some(CAP));
        let held: Vec<Span> = (0..64).map(|_| rec.span("held-open")).collect();
        // The rule, on counts alone: checked at every open, anything over
        // `limit` goes, ended spans only.
        let (mut ended, mut dropped) = (0usize, 0u64);
        for _ in 0..10_000 {
            let open = held.len() + 1;
            if open + ended > CAP {
                let drop_n = (open + ended - CAP).min(ended);
                ended -= drop_n;
                dropped += drop_n as u64;
            }
            rec.span("churn").end();
            ended += 1;
        }
        assert_eq!(rec.dropped_log_records(), (dropped, 0));
        assert_eq!(rec.open_spans().len(), held.len(), "open spans are never evicted");
        let spans = rec.spans();
        assert_eq!(spans.len(), held.len() + ended);
        assert!(ended <= CAP, "{ended} ended spans retained");
        drop(held);
        assert!(rec.open_spans().is_empty());
    }

    #[test]
    fn unbounded_by_default_and_cap_can_be_lifted() {
        let rec = Recorder::new();
        for _ in 0..100 {
            rec.span("s").end();
        }
        assert_eq!(rec.spans().len(), 100);
        rec.set_log_retention(Some(10));
        assert_eq!(rec.spans().len(), 10);
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

    /// The clock is read under the log lock, so no writer can append
    /// between another's reading and its append: with a clock that moves
    /// on every read, the event log is in time order, spans in open order
    /// are in start order, and a flight snapshot holds nothing stamped
    /// after its own capture time.
    #[test]
    fn concurrent_writers_log_in_time_order() {
        let ticks = Arc::new(ClockCell::new(0));
        let t = ticks.clone();
        let rec = Recorder::new();
        rec.set_clock(move || t.fetch_add(1, ClockOrdering::SeqCst) as f64);
        // Three writers and the snapshot taker start together.
        let start = Arc::new(std::sync::Barrier::new(4));
        let writers: Vec<_> = (0..3u64)
            .map(|w| {
                let (rec, start) = (rec.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..5_000u64 {
                        let s = rec.span("w");
                        s.field("i", i);
                        s.event("tick", [("writer", w)]);
                        s.end();
                    }
                })
            })
            .collect();
        // Snapshots are taken (at least one) until the writers are done,
        // and checked as they come: how many hold a record stamped after
        // their capture.
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let snapshots = {
            let (rec, done) = (rec.clone(), done.clone());
            std::thread::spawn(move || {
                start.wait();
                let (mut taken, mut bad) = (0usize, 0usize);
                while taken == 0 || !done.load(ClockOrdering::SeqCst) {
                    let snap = rec.flight_snapshot();
                    let newer = snap.records.iter().any(|r| {
                        let end = match r {
                            flight::FlightRecord::Span(s) => s.end,
                            flight::FlightRecord::Event(_) => None,
                        };
                        r.t() > snap.captured_at || end.is_some_and(|e| e > snap.captured_at)
                    });
                    taken += 1;
                    bad += usize::from(newer);
                }
                bad
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, ClockOrdering::SeqCst);
        let bad = snapshots.join().unwrap();

        let events = rec.events();
        let spans = rec.spans();
        assert_eq!((events.len(), spans.len()), (15_000, 15_000));
        let found = (
            events.windows(2).filter(|p| p[1].t < p[0].t).count(),
            spans.windows(2).filter(|p| p[1].start < p[0].start).count(),
            bad,
        );
        assert_eq!(
            found,
            (0, 0, 0),
            "(event inversions, span-start inversions, snapshots newer than their capture)"
        );
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
