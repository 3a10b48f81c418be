//! Metrics registry: counters, gauges, histograms, and Prometheus text
//! exposition (plus a small exposition parser for tests and tooling).
//!
//! Metric keys may carry inline Prometheus labels —
//! `galaxy_jobs_total{state="ok"}` — which the exposition groups under
//! one `# TYPE` header per base name.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Histogram bucket upper bounds used when none are supplied: roughly
/// log-spaced from 1 ms to 100 s, suiting queue waits and phase times.
pub const DEFAULT_BUCKETS: [f64; 10] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0];

/// Counter bumped when [`Registry::observe_with_buckets`] is called with
/// bounds that disagree with the histogram's existing buckets.
pub const HISTOGRAM_BUCKET_CONFLICTS: &str = "obs_histogram_bucket_conflicts_total";

#[derive(Debug, Clone)]
struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len()], sum: 0.0, count: 0 }
    }

    fn observe(&mut self, v: f64) {
        for (i, bound) in self.bounds.iter().enumerate() {
            if v <= *bound {
                self.counts[i] += 1;
            }
        }
        self.sum += v;
        self.count += 1;
    }
}

#[derive(Default)]
struct MetricsState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// Optional help text, keyed by base metric name (labels stripped).
    help: BTreeMap<String, String>,
}

/// Thread-safe metrics registry; clone freely, all clones share state.
#[derive(Clone)]
pub struct Registry {
    state: Arc<Mutex<MetricsState>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry { state: Arc::new(Mutex::new(MetricsState::default())) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    // The update methods below look `name` up as the `&str` it is and
    // copy it into an owned key only the first time a series is seen.

    /// Add `by` to a monotonically increasing counter.
    pub fn inc_counter(&self, name: &str, by: u64) {
        let mut state = self.lock();
        if let Some(value) = state.counters.get_mut(name) {
            *value += by;
        } else {
            state.counters.insert(name.to_string(), by);
        }
    }

    /// Register help text for a metric family. Keyed by base name
    /// (inline labels are stripped), rendered as a `# HELP` line ahead
    /// of the family's `# TYPE` header. Idempotent; the latest text
    /// wins.
    pub fn set_help(&self, name: &str, help: &str) {
        self.lock().help.insert(base_name(name).to_string(), help.to_string());
    }

    /// Registered help text for a metric family, if any.
    pub fn help_text(&self, name: &str) -> Option<String> {
        self.lock().help.get(base_name(name)).cloned()
    }

    /// Set a gauge to an absolute value.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut state = self.lock();
        if let Some(gauge) = state.gauges.get_mut(name) {
            *gauge = value;
        } else {
            state.gauges.insert(name.to_string(), value);
        }
    }

    /// Adjust a gauge by a (possibly negative) delta.
    pub fn add_gauge(&self, name: &str, delta: f64) {
        let mut state = self.lock();
        if let Some(gauge) = state.gauges.get_mut(name) {
            *gauge += delta;
        } else {
            state.gauges.insert(name.to_string(), delta);
        }
    }

    /// Record an observation into a histogram with [`DEFAULT_BUCKETS`].
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with_buckets(name, value, &DEFAULT_BUCKETS);
    }

    /// Record an observation into a histogram with explicit bucket
    /// bounds (bounds are fixed by the first observation).
    ///
    /// Calling again under the same name with *different* bounds is a
    /// wiring bug: the observation still lands (in the original buckets,
    /// so `_count`/`_sum` stay truthful) but the conflict is surfaced via
    /// [`HISTOGRAM_BUCKET_CONFLICTS`] and a debug assertion instead of
    /// silently corrupting the bucket layout.
    pub fn observe_with_buckets(&self, name: &str, value: f64, bounds: &[f64]) {
        let mismatch = {
            let mut state = self.lock();
            let hist = match state.histograms.get_mut(name) {
                Some(hist) => hist,
                None => state.histograms.entry(name.to_string()).or_insert(Histogram::new(bounds)),
            };
            let mismatch = hist.bounds != bounds;
            hist.observe(value);
            mismatch
        };
        if mismatch {
            self.inc_counter(HISTOGRAM_BUCKET_CONFLICTS, 1);
            debug_assert!(!mismatch, "histogram '{name}' observed with conflicting bucket bounds");
        }
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Number of observations in a histogram (0 when absent).
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.lock().histograms.get(name).map_or(0, |h| h.count)
    }

    /// Sum of observations in a histogram (0 when absent).
    pub fn histogram_sum(&self, name: &str) -> f64 {
        self.lock().histograms.get(name).map_or(0.0, |h| h.sum)
    }

    /// Estimate quantile `q` (clamped to `[0, 1]`) of a histogram via
    /// Prometheus-style linear interpolation within the cumulative
    /// bucket holding the target rank. Returns `None` for an absent or
    /// empty histogram. Ranks falling in the implicit `+Inf` bucket are
    /// clamped to the highest finite bound, as `histogram_quantile` does.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        let state = self.lock();
        let h = state.histograms.get(name)?;
        if h.count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * h.count as f64;
        let mut lower = 0.0f64;
        let mut prev = 0u64;
        for (bound, cum) in h.bounds.iter().zip(&h.counts) {
            if *cum as f64 >= rank && *cum > prev {
                let fraction = (rank - prev as f64) / (*cum - prev) as f64;
                return Some(lower + (bound - lower) * fraction);
            }
            lower = *bound;
            prev = *cum;
        }
        h.bounds.last().copied()
    }

    /// Render the whole registry in Prometheus text exposition format.
    ///
    /// Output is deterministic: metric families sorted by name, one
    /// `# HELP` (when registered via [`Registry::set_help`]) and one
    /// `# TYPE` header per base name (inline labels stripped).
    pub fn render_prometheus(&self) -> String {
        let state = self.lock();
        let help = &state.help;
        let mut out = String::new();
        let mut last_typed = String::new();
        let mut type_header = |out: &mut String, name: &str, kind: &str| {
            let base = base_name(name);
            if last_typed != base {
                if let Some(text) = help.get(base) {
                    out.push_str(&format!("# HELP {base} {}\n", escape_help(text)));
                }
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_typed = base.to_string();
            }
        };
        for (name, value) in &state.counters {
            type_header(&mut out, name, "counter");
            out.push_str(&format!("{} {value}\n", render_key(name)));
        }
        for (name, value) in &state.gauges {
            type_header(&mut out, name, "gauge");
            out.push_str(&format!("{} {}\n", render_key(name), format_value(*value)));
        }
        for (name, hist) in &state.histograms {
            type_header(&mut out, name, "histogram");
            let (base, raw_labels) = split_labels(name);
            let labels = render_label_body(&split_label_pairs(&raw_labels));
            // `counts[i]` already counts observations <= bounds[i], i.e.
            // buckets are stored cumulatively as Prometheus expects.
            for (bound, count) in hist.bounds.iter().zip(&hist.counts) {
                out.push_str(&format!(
                    "{base}_bucket{{{}le=\"{}\"}} {count}\n",
                    labels_prefix(&labels),
                    format_value(*bound),
                ));
            }
            out.push_str(&format!(
                "{base}_bucket{{{}le=\"+Inf\"}} {}\n",
                labels_prefix(&labels),
                hist.count
            ));
            let label_block =
                if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
            out.push_str(&format!("{base}_sum{label_block} {}\n", format_value(hist.sum)));
            out.push_str(&format!("{base}_count{label_block} {}\n", hist.count));
        }
        out
    }
}

/// Strip inline labels: `a_total{x="y"}` → `a_total`.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Split `name{labels}` into (name, labels-without-braces).
fn split_labels(name: &str) -> (&str, String) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.trim_end_matches('}').to_string()),
        None => (name, String::new()),
    }
}

fn labels_prefix(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    }
}

/// Re-render a stored metric key with its label values escaped for the
/// exposition format (`name{k="v"}` keys store values raw).
fn render_key(name: &str) -> String {
    match name.split_once('{') {
        None => name.to_string(),
        Some((base, rest)) => {
            let body = rest.trim_end_matches('}');
            format!("{base}{{{}}}", render_label_body(&split_label_pairs(body)))
        }
    }
}

/// Split a raw (unescaped) label body into key/value pairs.
///
/// Values are stored raw, so a `"` inside a value is only recognizable by
/// what follows it: the closing quote is the one whose remaining tail is
/// empty or starts the next `key="` pair. A raw value containing the
/// two-character sequence `","` stays genuinely ambiguous — callers
/// should not rely on it — but every single special character (`"`, `\`,
/// newline) round-trips.
fn split_label_pairs(body: &str) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let Some((key, after)) = rest.split_once("=\"") else { break };
        let mut close = None;
        for (i, b) in after.bytes().enumerate() {
            if b == b'"' {
                let tail = after[i + 1..].trim_start();
                if tail.is_empty() || tail.starts_with(',') {
                    close = Some(i);
                    break;
                }
            }
        }
        let Some(close) = close else { break };
        pairs.push((key.trim().to_string(), after[..close].to_string()));
        let tail = after[close + 1..].trim_start();
        rest = tail.strip_prefix(',').unwrap_or(tail).trim_start();
    }
    pairs
}

/// Render label pairs as an exposition label body with escaped values.
fn render_label_body(pairs: &[(String, String)]) -> String {
    let rendered: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
    rendered.join(",")
}

/// Escape `# HELP` text per the Prometheus text format: backslash and
/// line-feed only (quotes stay literal in help text).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a label value per the Prometheus text format: backslash,
/// double-quote, and line-feed.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One sample parsed from Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (without labels).
    pub name: String,
    /// Label key/value pairs, in exposition order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// Look up a label by key.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parse Prometheus text exposition into samples; `#` lines are skipped,
/// malformed lines are errors.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {raw}", lineno + 1))?;
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {}: bad value '{value_part}'", lineno + 1))?;
        let (name, labels) = match name_part.split_once('{') {
            None => (name_part.to_string(), Vec::new()),
            Some((base, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated labels: {raw}", lineno + 1))?;
                (base.to_string(), parse_labels(body, lineno + 1)?)
            }
        };
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("line {lineno}: bad metric name '{name}'", lineno = lineno + 1));
        }
        samples.push(PromSample { name, labels, value });
    }
    Ok(samples)
}

fn parse_labels(body: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (key, after_key) =
            rest.split_once('=').ok_or_else(|| format!("line {lineno}: label without '='"))?;
        let after_key = after_key
            .strip_prefix('"')
            .ok_or_else(|| format!("line {lineno}: unquoted label value"))?;
        // Escape-aware scan for the closing quote: `\"`, `\\`, and `\n`
        // unescape; unknown escapes are kept literally.
        let mut value = String::new();
        let mut close = None;
        let mut chars = after_key.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    close = Some(i);
                    break;
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, other)) => {
                        value.push('\\');
                        value.push(other);
                    }
                    None => {
                        return Err(format!("line {lineno}: dangling escape in label value"));
                    }
                },
                c => value.push(c),
            }
        }
        let close = close.ok_or_else(|| format!("line {lineno}: unterminated label value"))?;
        labels.push((key.trim().to_string(), value));
        rest = after_key[close + 1..].trim_start_matches(',').trim_start();
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let reg = Registry::new();
        reg.inc_counter("jobs_total", 2);
        reg.inc_counter("jobs_total", 1);
        reg.set_gauge("queue_depth", 4.0);
        reg.add_gauge("queue_depth", -4.0);
        reg.observe("wait_seconds", 0.004);
        reg.observe("wait_seconds", 0.2);
        reg.observe("wait_seconds", 50.0);

        assert_eq!(reg.counter_value("jobs_total"), 3);
        assert_eq!(reg.gauge_value("queue_depth"), Some(0.0));
        assert_eq!(reg.histogram_count("wait_seconds"), 3);
        assert!((reg.histogram_sum("wait_seconds") - 50.204).abs() < 1e-9);
    }

    #[test]
    fn exposition_renders_and_parses() {
        let reg = Registry::new();
        reg.inc_counter("jobs_total{state=\"ok\"}", 5);
        reg.inc_counter("jobs_total{state=\"error\"}", 1);
        reg.set_gauge("queue_depth", 0.0);
        reg.observe_with_buckets("wait_seconds", 0.05, &[0.01, 0.1, 1.0]);
        reg.observe_with_buckets("wait_seconds", 0.5, &[0.01, 0.1, 1.0]);

        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("# TYPE wait_seconds histogram"));

        let samples = parse_prometheus(&text).expect("exposition parses");
        let ok = samples
            .iter()
            .find(|s| s.name == "jobs_total" && s.label("state") == Some("ok"))
            .unwrap();
        assert_eq!(ok.value, 5.0);
        let depth = samples.iter().find(|s| s.name == "queue_depth").unwrap();
        assert_eq!(depth.value, 0.0);
        let inf = samples
            .iter()
            .find(|s| s.name == "wait_seconds_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 2.0);
        let count = samples.iter().find(|s| s.name == "wait_seconds_count").unwrap();
        assert_eq!(count.value, 2.0);
        // Buckets are cumulative: le=0.1 holds the 0.05 observation only.
        let b01 = samples
            .iter()
            .find(|s| s.name == "wait_seconds_bucket" && s.label("le") == Some("0.1"))
            .unwrap();
        assert_eq!(b01.value, 1.0);
    }

    #[test]
    fn label_values_escape_and_round_trip() {
        let reg = Registry::new();
        // A value with every special character: quote, backslash, newline.
        reg.inc_counter("paths_total{path=\"a\\b\"c\nd\"}", 3);
        reg.set_gauge("last_error{msg=\"said \"no\"\"}", 1.0);
        reg.observe_with_buckets("tool_seconds{tool=\"racon \\ gpu\"}", 0.5, &[1.0]);

        let text = reg.render_prometheus();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(!line.contains('\n'), "raw newline leaked into exposition: {line:?}");
        }
        let samples = parse_prometheus(&text).expect("escaped exposition parses");
        let path = samples.iter().find(|s| s.name == "paths_total").unwrap();
        assert_eq!(path.label("path"), Some("a\\b\"c\nd"));
        assert_eq!(path.value, 3.0);
        let msg = samples.iter().find(|s| s.name == "last_error").unwrap();
        assert_eq!(msg.label("msg"), Some("said \"no\""));
        let bucket = samples
            .iter()
            .find(|s| s.name == "tool_seconds_bucket" && s.label("le") == Some("1"))
            .unwrap();
        assert_eq!(bucket.label("tool"), Some("racon \\ gpu"));
        assert_eq!(bucket.value, 1.0);
    }

    #[test]
    fn help_lines_precede_type_headers_and_escape() {
        let reg = Registry::new();
        reg.set_help("jobs_total", "Jobs admitted, by state.");
        reg.set_help("wait_seconds", "Queue wait.\nSecond \\ line.");
        reg.inc_counter("jobs_total{state=\"ok\"}", 1);
        reg.inc_counter("jobs_total{state=\"error\"}", 2);
        reg.inc_counter("unhelped_total", 1);
        reg.observe_with_buckets("wait_seconds", 0.5, &[1.0]);

        let text = reg.render_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let help_at = lines
            .iter()
            .position(|l| *l == "# HELP jobs_total Jobs admitted, by state.")
            .expect("help line present");
        assert_eq!(lines[help_at + 1], "# TYPE jobs_total counter");
        // One HELP per family, even with two labeled series.
        assert_eq!(lines.iter().filter(|l| l.starts_with("# HELP jobs_total")).count(), 1);
        assert!(lines.contains(&"# HELP wait_seconds Queue wait.\\nSecond \\\\ line."), "{text}");
        assert!(!text.contains("# HELP unhelped_total"));
        // Help keyed by base name works when set with a labeled key too.
        reg.set_help("other_total{a=\"b\"}", "By base.");
        assert_eq!(reg.help_text("other_total"), Some("By base.".to_string()));
        parse_prometheus(&text).expect("help lines do not break the parser");
    }

    #[test]
    fn histogram_exposition_conformance_round_trips() {
        let reg = Registry::new();
        reg.set_help("conf_seconds", "Conformance histogram.");
        for v in [0.05, 0.5, 5.0] {
            reg.observe_with_buckets("conf_seconds{tool=\"racon\"}", v, &[0.1, 1.0]);
        }
        let text = reg.render_prometheus();
        let samples = parse_prometheus(&text).expect("exposition parses");
        let series: Vec<&PromSample> =
            samples.iter().filter(|s| s.name.starts_with("conf_seconds")).collect();
        // Exactly the conformant series set: every finite bucket, a
        // terminal +Inf bucket, then _sum and _count.
        let names: Vec<&str> = series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "conf_seconds_bucket",
                "conf_seconds_bucket",
                "conf_seconds_bucket",
                "conf_seconds_sum",
                "conf_seconds_count"
            ]
        );
        let buckets: Vec<&&PromSample> =
            series.iter().filter(|s| s.name == "conf_seconds_bucket").collect();
        assert_eq!(buckets.last().unwrap().label("le"), Some("+Inf"));
        // Buckets are cumulative and +Inf equals _count.
        let cum: Vec<f64> = buckets.iter().map(|s| s.value).collect();
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "{cum:?}");
        let count = series.iter().find(|s| s.name == "conf_seconds_count").unwrap();
        assert_eq!(buckets.last().unwrap().value, count.value);
        assert_eq!(count.value, 3.0);
        let sum = series.iter().find(|s| s.name == "conf_seconds_sum").unwrap();
        assert!((sum.value - 5.55).abs() < 1e-9);
        // Labels survive on every series of the family.
        assert!(buckets.iter().all(|s| s.label("tool") == Some("racon")));
    }

    #[test]
    fn conflicting_bucket_bounds_are_surfaced() {
        let reg = Registry::new();
        reg.observe_with_buckets("mixed_seconds", 0.5, &[1.0, 2.0]);
        let conflict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.observe_with_buckets("mixed_seconds", 0.5, &[3.0]);
        }));
        // Debug builds assert; release builds keep going. Either way the
        // conflict counter ticks, the observation lands, and the original
        // bucket layout survives.
        assert_eq!(conflict.is_err(), cfg!(debug_assertions));
        assert_eq!(reg.counter_value(HISTOGRAM_BUCKET_CONFLICTS), 1);
        assert_eq!(reg.histogram_count("mixed_seconds"), 2);
        let text = reg.render_prometheus();
        assert!(text.contains("mixed_seconds_bucket{le=\"2\"}"), "{text}");
        assert!(!text.contains("mixed_seconds_bucket{le=\"3\"}"), "{text}");
        // Matching bounds never trip it.
        reg.observe_with_buckets("mixed_seconds", 0.1, &[1.0, 2.0]);
        assert_eq!(reg.counter_value(HISTOGRAM_BUCKET_CONFLICTS), 1);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let reg = Registry::new();
        for v in [0.5, 1.5, 3.0, 3.5] {
            reg.observe_with_buckets("lat", v, &[1.0, 2.0, 4.0]);
        }
        // rank 2 lands exactly on the le=2 cumulative boundary.
        assert_eq!(reg.histogram_quantile("lat", 0.5), Some(2.0));
        // rank 3 is halfway through the (2, 4] bucket's two observations.
        assert_eq!(reg.histogram_quantile("lat", 0.75), Some(3.0));
        // rank 0 interpolates to the first bucket's lower edge.
        assert_eq!(reg.histogram_quantile("lat", 0.0), Some(0.0));
    }

    #[test]
    fn quantile_exact_boundary_hits_the_bound() {
        let reg = Registry::new();
        reg.observe_with_buckets("exact", 1.0, &[1.0, 2.0]);
        // Every rank falls in the first bucket; its upper bound is the
        // only information the histogram retains.
        assert_eq!(reg.histogram_quantile("exact", 1.0), Some(1.0));
        assert_eq!(reg.histogram_quantile("exact", 0.5), Some(0.5));
    }

    #[test]
    fn quantile_inf_bucket_clamps_to_highest_finite_bound() {
        let reg = Registry::new();
        reg.observe_with_buckets("spill", 100.0, &[1.0, 2.0]);
        reg.observe_with_buckets("spill", 0.5, &[1.0, 2.0]);
        // p99 lives in the +Inf region: clamp to le=2 like Prometheus.
        assert_eq!(reg.histogram_quantile("spill", 0.99), Some(2.0));
        // Out-of-range q is clamped, not an error.
        assert_eq!(reg.histogram_quantile("spill", 7.0), Some(2.0));
    }

    #[test]
    fn quantile_of_empty_or_absent_histogram_is_none() {
        let reg = Registry::new();
        assert_eq!(reg.histogram_quantile("nope", 0.5), None);
        // A histogram that exists but has never observed anything would
        // need an explicit zero-observation path; the registry only
        // creates histograms on observe, so absence covers it — but an
        // all-below-zero rank must not divide by zero either.
        reg.observe_with_buckets("one", 5.0, &[1.0]);
        assert_eq!(reg.histogram_quantile("one", 0.5), Some(1.0));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_prometheus("name_without_value\n").is_err());
        assert!(parse_prometheus("bad-name 1\n").is_err());
        assert!(parse_prometheus("name{unterminated 1\n").is_err());
        assert!(parse_prometheus("# comment only\n").unwrap().is_empty());
    }

    #[test]
    fn registry_is_shared_across_clones() {
        let reg = Registry::new();
        let clones: Vec<_> = (0..4)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        reg.inc_counter("shared_total", 1);
                    }
                })
            })
            .collect();
        for c in clones {
            c.join().unwrap();
        }
        assert_eq!(reg.counter_value("shared_total"), 400);
    }
}
