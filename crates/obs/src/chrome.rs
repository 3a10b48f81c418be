//! Chrome trace (about://tracing / Perfetto) JSON assembly.
//!
//! Collects complete ("X") duration events and counter ("C") events on
//! named tracks, then renders one `traceEvents` JSON document. Tracks map
//! to thread ids in first-appearance order, with metadata ("M") events
//! naming them, so a merged job/kernel/monitor timeline reads coherently.

use crate::{json_escape, Key, Value};

/// One duration event (Chrome phase `"X"`).
#[derive(Debug, Clone)]
pub struct CompleteEvent {
    /// Event label.
    pub name: Key,
    /// Comma-separated categories.
    pub category: String,
    /// Track (rendered as a named thread).
    pub track: String,
    /// Start time in seconds.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Extra `args` entries.
    pub args: Vec<(Key, Value)>,
}

/// One counter sample (Chrome phase `"C"`).
#[derive(Debug, Clone)]
pub struct CounterEvent {
    /// Counter name (one chart per name).
    pub name: String,
    /// Track the counter belongs to.
    pub track: String,
    /// Sample time in seconds.
    pub t_s: f64,
    /// Series name → value at this instant.
    pub series: Vec<(String, f64)>,
}

/// Accumulates events and renders the trace document.
#[derive(Debug, Default, Clone)]
pub struct TraceBuilder {
    complete: Vec<CompleteEvent>,
    counters: Vec<CounterEvent>,
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Add a duration event. `name` and `args` are a span's or event's
    /// own name and fields, moved in as they are.
    pub fn add_complete(
        &mut self,
        name: impl Into<Key>,
        category: impl Into<String>,
        track: impl Into<String>,
        start_s: f64,
        dur_s: f64,
        args: Vec<(Key, Value)>,
    ) {
        self.complete.push(CompleteEvent {
            name: name.into(),
            category: category.into(),
            track: track.into(),
            start_s,
            dur_s,
            args,
        });
    }

    /// Add a counter sample.
    pub fn add_counter(
        &mut self,
        name: impl Into<String>,
        track: impl Into<String>,
        t_s: f64,
        series: Vec<(String, f64)>,
    ) {
        self.counters.push(CounterEvent { name: name.into(), track: track.into(), t_s, series });
    }

    /// All duration events added so far.
    pub fn complete_events(&self) -> &[CompleteEvent] {
        &self.complete
    }

    /// All counter samples added so far.
    pub fn counter_events(&self) -> &[CounterEvent] {
        &self.counters
    }

    /// Track names in first-appearance order (the tid assignment).
    pub fn tracks(&self) -> Vec<String> {
        let mut tracks: Vec<String> = Vec::new();
        for name in
            self.complete.iter().map(|e| &e.track).chain(self.counters.iter().map(|e| &e.track))
        {
            if !tracks.iter().any(|t| t == name) {
                tracks.push(name.clone());
            }
        }
        tracks
    }

    /// Render the Chrome trace JSON document. Timestamps convert to
    /// microseconds; events are emitted in insertion order (virtual time
    /// makes that deterministic).
    pub fn to_json(&self) -> String {
        let tracks = self.tracks();
        let tid_of = |track: &str| tracks.iter().position(|t| t == track).unwrap_or(0) + 1;
        let mut parts: Vec<String> = Vec::new();
        for (i, track) in tracks.iter().enumerate() {
            parts.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                json_escape(track),
            ));
        }
        for e in &self.complete {
            let mut args = String::new();
            if !e.args.is_empty() {
                let body: Vec<String> = e
                    .args
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v.to_json()))
                    .collect();
                args = format!(",\"args\":{{{}}}", body.join(","));
            }
            parts.push(format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}{}}}",
                json_escape(&e.name),
                json_escape(&e.category),
                tid_of(&e.track),
                us(e.start_s),
                us(e.dur_s),
                args,
            ));
        }
        for c in &self.counters {
            let body: Vec<String> = c
                .series
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", json_escape(k), trim_float(*v)))
                .collect();
            parts.push(format!(
                "{{\"ph\":\"C\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{{}}}}}",
                json_escape(&c.name),
                tid_of(&c.track),
                us(c.t_s),
                body.join(","),
            ));
        }
        format!("{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}", parts.join(","))
    }
}

/// Seconds → integer microseconds (Chrome's `ts`/`dur` unit).
fn us(seconds: f64) -> u64 {
    (seconds * 1.0e6).round().max(0.0) as u64
}

fn trim_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn trace_renders_valid_json_with_named_tracks() {
        let mut b = TraceBuilder::new();
        b.add_complete("job 1", "galaxy", "jobs", 0.0, 2.5, vec![("tool".into(), "racon".into())]);
        b.add_complete("poa_kernel", "kernel", "gpu0", 0.5, 1.0, Vec::new());
        b.add_counter("sm_util", "gpu0", 0.5, vec![("gpu0".into(), 87.0)]);

        let doc = json::parse(&b.to_json()).expect("trace JSON parses");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        // 2 thread_name metadata + 2 complete + 1 counter.
        assert_eq!(events.len(), 5);
        let kernel = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("poa_kernel"))
            .unwrap();
        assert_eq!(kernel.get("ts").and_then(|v| v.as_f64()), Some(500000.0));
        assert_eq!(kernel.get("dur").and_then(|v| v.as_f64()), Some(1000000.0));
        // jobs track appeared first → tid 1; gpu0 → tid 2.
        assert_eq!(kernel.get("tid").and_then(|v| v.as_f64()), Some(2.0));
    }

    #[test]
    fn track_order_is_first_appearance() {
        let mut b = TraceBuilder::new();
        b.add_complete("a", "c", "t2", 0.0, 1.0, Vec::new());
        b.add_complete("b", "c", "t1", 0.0, 1.0, Vec::new());
        b.add_complete("c", "c", "t2", 1.0, 1.0, Vec::new());
        assert_eq!(b.tracks(), vec!["t2".to_string(), "t1".to_string()]);
    }
}
