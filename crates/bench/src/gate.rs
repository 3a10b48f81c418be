//! The one gate mechanism behind every `BENCH_*.json`.
//!
//! A [`Trajectory`] is `schema + commit + Vec<Metric>`; what differs
//! between gates is only the metric table. Each metric declares how it
//! may be compared ([`Kind`]):
//!
//! * [`Kind::Virtual`] — a virtual-time result, deterministic at the
//!   gate's fixed seed. Compared exactly: any difference fails.
//! * [`Kind::Context`] — recorded, never compared.
//!
//! Speed in wall-clock time is not a gate metric: the canonical benchmark
//! (`benchmark/`, declared in `BENCHMARK.json`) measures it, repeated to
//! a time budget.
//!
//! [`run_gate`] compares a run against the gate's committed file, prints
//! the one-line delta summary, and on a pass rewrites the file. An
//! intended move is accepted with `gates --accept`, which records the run
//! despite the comparison.

use obs::json::{self, JsonValue};

/// Schema identifier of gate `name`. Bump the suffix when the metric
/// tables change incompatibly; a file of another schema is not compared
/// but replaced by a fresh recording.
pub fn schema(name: &str) -> String {
    format!("gyan.bench.{name}/v2")
}

/// How a metric is compared against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Deterministic at the gate's seed; compared exactly.
    Virtual,
    /// Recorded for the reader; never compared.
    Context,
}

/// One named number of a gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (the JSON `name` member).
    pub name: String,
    /// The recorded value.
    pub value: f64,
    /// How it is compared.
    pub kind: Kind,
}

impl Metric {
    /// A [`Kind::Virtual`] metric.
    pub fn exact(name: &str, value: f64) -> Metric {
        Metric { name: name.to_string(), value, kind: Kind::Virtual }
    }

    /// A [`Kind::Context`] metric.
    pub fn context(name: &str, value: f64) -> Metric {
        Metric { name: name.to_string(), value, kind: Kind::Context }
    }
}

/// One recorded gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Schema identifier (see [`schema`]).
    pub schema: String,
    /// `git rev-parse --short` of the measured tree (or `"unknown"`).
    pub commit: String,
    /// The metric table, in document order.
    pub metrics: Vec<Metric>,
    /// A JSON object embedded verbatim under `"profile"` (the scheduler
    /// gate's `obs::profile` export). Rendered, not parsed back.
    pub profile: Option<String>,
}

fn fmt_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Trajectory {
    /// The metric called `name`, if the run has one.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Render the `BENCH_<gate>.json` document, one metric per line.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"value\": {}, \"kind\": \"{}\"}}",
                    obs::json_escape(&m.name),
                    fmt_json(m.value),
                    if m.kind == Kind::Virtual { "virtual" } else { "context" },
                )
            })
            .collect();
        let profile = match &self.profile {
            Some(p) => format!(",\n  \"profile\": {}", p.trim_end()),
            None => String::new(),
        };
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"commit\": \"{}\",\n  \"metrics\": [\n{}\n  ]{profile}\n}}\n",
            obs::json_escape(&self.schema),
            obs::json_escape(&self.commit),
            metrics.join(",\n"),
        )
    }

    /// Parse a trajectory document of gate schema `expected`. Errors on
    /// malformed JSON, a malformed metric, or any other schema (an old
    /// version, or another gate's file).
    pub fn parse(text: &str, expected: &str) -> Result<Trajectory, String> {
        Trajectory::from_doc(&json::parse(text)?, expected)
    }

    fn from_doc(doc: &JsonValue, expected: &str) -> Result<Trajectory, String> {
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing field \"schema\"".to_string())?;
        if schema != expected {
            return Err(format!("schema mismatch: file has {schema:?}, expected {expected:?}"));
        }
        let metrics = doc
            .get("metrics")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "missing array \"metrics\"".to_string())?
            .iter()
            .map(parse_metric)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trajectory {
            schema: schema.to_string(),
            commit: doc.get("commit").and_then(JsonValue::as_str).unwrap_or("unknown").to_string(),
            metrics,
            profile: None,
        })
    }
}

fn parse_metric(doc: &JsonValue) -> Result<Metric, String> {
    let name = doc
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "metric without a \"name\"".to_string())?;
    let kind = match doc.get("kind").and_then(JsonValue::as_str) {
        Some("virtual") => Kind::Virtual,
        // A `wall` row is what files of this schema recorded before wall
        // time left the gates: readable, never compared, and reported
        // `GONE` by the first run without it.
        Some("context" | "wall") => Kind::Context,
        other => return Err(format!("metric {name:?}: bad \"kind\" {other:?}")),
    };
    let value = doc
        .get("value")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("metric {name:?}: missing numeric field \"value\""))?;
    Ok(Metric { name: name.to_string(), value, kind })
}

/// What the comparator decided about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Equal, or never compared.
    Pass,
    /// A virtual metric is not bit-equal to the baseline.
    Differs,
    /// In this run but not in the baseline (reported, passes).
    New,
    /// In the baseline but not in this run (fails: a gated number may
    /// not vanish silently).
    Gone,
}

/// One metric's movement between the baseline and this run.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// Baseline value, when the baseline has the metric.
    pub prev: Option<f64>,
    /// This run's value, when the run has the metric.
    pub new: Option<f64>,
    /// Signed percent change relative to `prev` (`+` = number went up;
    /// 0 when either side is missing or the baseline is zero).
    pub pct_change: f64,
    /// The comparator's decision.
    pub verdict: Verdict,
}

impl Delta {
    /// Whether this delta fails the gate.
    pub fn failed(&self) -> bool {
        matches!(self.verdict, Verdict::Differs | Verdict::Gone)
    }
}

/// Compare a run against its baseline, metric by metric, under the
/// *run's* kinds (the committed metric table, not whatever an old file
/// says). Every name on either side yields a [`Delta`].
pub fn compare(prev: &Trajectory, new: &Trajectory) -> Vec<Delta> {
    let mut deltas: Vec<Delta> = new
        .metrics
        .iter()
        .map(|m| {
            let Some(p) = prev.get(&m.name) else {
                return Delta {
                    name: m.name.clone(),
                    prev: None,
                    new: Some(m.value),
                    pct_change: 0.0,
                    verdict: Verdict::New,
                };
            };
            let pct_change = if p.abs() > f64::EPSILON { 100.0 * (m.value - p) / p } else { 0.0 };
            let verdict = if m.kind == Kind::Virtual && m.value != p {
                Verdict::Differs
            } else {
                Verdict::Pass
            };
            Delta { name: m.name.clone(), prev: Some(p), new: Some(m.value), pct_change, verdict }
        })
        .collect();
    for p in &prev.metrics {
        if new.get(&p.name).is_none() {
            deltas.push(Delta {
                name: p.name.clone(),
                prev: Some(p.value),
                new: None,
                pct_change: 0.0,
                verdict: Verdict::Gone,
            });
        }
    }
    deltas
}

fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// One-line human summary of a comparison, e.g.
/// `queue_wait_p99_s 63.00 (=) · profile_attributed_pct 91.90 (+0.2%) · ...`.
pub fn summary_line(deltas: &[Delta]) -> String {
    deltas
        .iter()
        .map(|d| match (d.verdict, d.prev, d.new) {
            (Verdict::Gone, Some(p), _) => format!("{} GONE (was {})", d.name, fmt(p)),
            (Verdict::New, _, Some(n)) => format!("{} {} (NEW)", d.name, fmt(n)),
            (Verdict::Differs, Some(p), Some(n)) => format!("{} {n} (DIFFERS, was {p})", d.name),
            (_, Some(p), Some(n)) if p == n => format!("{} {} (=)", d.name, fmt(n)),
            (_, _, Some(n)) => format!("{} {} ({:+.1}%)", d.name, fmt(n), d.pct_change),
            _ => d.name.clone(),
        })
        .collect::<Vec<_>>()
        .join(" · ")
}

/// The baseline in a gate's committed file of schema `expected`: `None`
/// when there is no file or it belongs to another schema (a fresh
/// baseline is recorded), `Err` when a file of this schema does not
/// parse — overwriting it would drop every pin it holds without a word.
fn baseline(file: Option<&str>, expected: &str) -> Result<Option<Trajectory>, String> {
    let Some(text) = file else { return Ok(None) };
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(JsonValue::as_str).is_some_and(|s| s != expected) {
        return Ok(None);
    }
    Trajectory::from_doc(&doc, expected).map(Some)
}

/// What a gate's measurement function hands back.
pub struct Run {
    /// The metric table.
    pub metrics: Vec<Metric>,
    /// Optional profile object to embed in the gate's file.
    pub profile: Option<String>,
}

/// One gate: a name (`gates <name>`), the file it owns, and the
/// function that measures it. `Err` from `run` is an absolute check
/// failing (an SLO fired, acceptance violated) — `--accept` does not
/// override those.
pub struct Gate {
    /// Gate name; also the schema's middle segment.
    pub name: &'static str,
    /// Trajectory file, relative to the repo root.
    pub file: &'static str,
    /// The measurement body.
    pub run: fn() -> Result<Run, String>,
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A NaN or ∞ is rendered as `null`, which [`Trajectory::parse`] rejects:
/// once recorded, the file would fail every later run. So a run carrying
/// one fails before it is compared or written.
fn all_finite(name: &str, metrics: &[Metric]) -> Result<(), String> {
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => {
            Err(format!("{name}: FAIL — metric {:?} is {}; nothing recorded", m.name, m.value))
        }
        None => Ok(()),
    }
}

/// Measure `gate`, compare against its committed file, and — on a pass,
/// or unconditionally with `accept` — rewrite the file. A committed file
/// of the gate's schema that does not parse fails the gate before it is
/// measured, `accept` or not. On a failed comparison nothing is written
/// (the evidence stays) and the error names every failed metric.
pub fn run_gate(gate: &Gate, accept: bool) -> Result<(), String> {
    let name = gate.name;
    let schema = schema(name);
    let file = std::fs::read_to_string(gate.file).ok();
    let base = baseline(file.as_deref(), &schema).map_err(|e| {
        format!(
            "{name}: FAIL — {} does not parse: {e}; restore it, or delete it to record a \
             fresh baseline",
            gate.file
        )
    })?;
    let run = (gate.run)().map_err(|e| format!("{name}: FAIL — {e}"))?;
    all_finite(name, &run.metrics)?;
    let new =
        Trajectory { schema, commit: git_commit(), metrics: run.metrics, profile: run.profile };

    match base {
        Some(base) => {
            let deltas = compare(&base, &new);
            println!("\n{name} vs {} ({}):\n  {}", gate.file, base.commit, summary_line(&deltas));
            let failed: Vec<&Delta> = deltas.iter().filter(|d| d.failed()).collect();
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
            for d in &failed {
                eprintln!(
                    "{name}: {:?} {}: {} -> {}",
                    d.verdict,
                    d.name,
                    show(d.prev),
                    show(d.new)
                );
            }
            if !failed.is_empty() && !accept {
                return Err(format!(
                    "{name}: FAIL — {} left untouched; fix the change, or rerun \
                     `gates {name} --accept` if the move is intended",
                    gate.file
                ));
            }
        }
        None => println!("\n{name}: no {} baseline; recording one", new.schema),
    }

    let io = |e: std::io::Error| format!("{name}: cannot record the run: {e}");
    if let Some(dir) = std::path::Path::new(gate.file).parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    std::fs::write(gate.file, new.render_json()).map_err(io)?;
    println!("{name}: trajectory written to {} (commit {})", gate.file, new.commit);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "gyan.bench.demo/v2";

    fn trajectory() -> Trajectory {
        Trajectory {
            schema: SCHEMA.to_string(),
            commit: "abc123def456".to_string(),
            metrics: vec![
                Metric::exact("makespan_s", 2445.119936020456),
                Metric::exact("idle_s", 0.0),
                Metric::context("users", 100_000.0),
                Metric::context("attributed_pct", 91.5),
            ],
            profile: None,
        }
    }

    fn with(name: &str, value: f64) -> Trajectory {
        let mut t = trajectory();
        t.metrics.iter_mut().find(|m| m.name == name).expect("metric exists").value = value;
        t
    }

    fn failed(prev: &Trajectory, new: &Trajectory) -> Vec<String> {
        compare(prev, new).into_iter().filter(Delta::failed).map(|d| d.name).collect()
    }

    #[test]
    fn render_parse_roundtrip_preserves_every_metric_and_the_profile_member() {
        let mut t = trajectory();
        assert_eq!(Trajectory::parse(&t.render_json(), SCHEMA).expect("roundtrip parses"), t);
        // An embedded profile stays a well-formed member and does not
        // disturb the metrics.
        t.profile = Some("{\"type\":\"profile\",\"scopes\":[]}".to_string());
        let text = t.render_json();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("profile").and_then(|p| p.get("type")).and_then(JsonValue::as_str),
            Some("profile")
        );
        assert_eq!(Trajectory::parse(&text, SCHEMA).unwrap().metrics, t.metrics);
    }

    #[test]
    fn other_schema_versions_and_other_gates_files_are_rejected() {
        let text = trajectory().render_json();
        for other in ["gyan.bench.demo/v1", "gyan.bench.paper/v2"] {
            let err = Trajectory::parse(&text, other).unwrap_err();
            assert!(err.contains("schema mismatch"), "{err}");
        }
        assert_eq!(schema("scheduler"), "gyan.bench.scheduler/v2");
    }

    #[test]
    fn a_committed_wall_row_reads_as_context_and_is_reported_gone() {
        let text = r#"{"schema": "gyan.bench.demo/v2", "commit": "old", "metrics": [
            {"name": "rate", "value": 5e5, "kind": "wall", "min": 2e5, "max": 5e5},
            {"name": "makespan_s", "value": 2445.119936020456, "kind": "virtual"}]}"#;
        let prev = Trajectory::parse(text, SCHEMA).unwrap();
        assert_eq!(prev.metrics[0], Metric::context("rate", 5e5));
        let deltas = compare(&prev, &trajectory());
        assert_eq!(failed(&prev, &trajectory()), vec!["rate"]);
        let line = summary_line(&deltas);
        assert!(line.contains("makespan_s 2445 (=)"), "{line}");
        assert!(line.contains("idle_s 0 (NEW)"), "{line}");
        assert!(line.contains("rate GONE (was 500000)"), "{line}");
    }

    #[test]
    fn a_trajectory_never_regresses_against_itself() {
        let t = trajectory();
        let deltas = compare(&t, &t);
        assert_eq!(deltas.len(), t.metrics.len());
        assert!(deltas.iter().all(|d| d.verdict == Verdict::Pass));
    }

    #[test]
    fn virtual_fails_on_one_ulp_and_context_ignores_ten_x() {
        let prev = trajectory();
        let exact = prev.get("makespan_s").unwrap();
        let ulp = f64::from_bits(exact.to_bits() + 1);
        let new = with("makespan_s", ulp);
        assert_eq!(failed(&prev, &new), vec!["makespan_s"]);
        // Both values are printed in full, so the one-ulp move is visible.
        let line = summary_line(&compare(&prev, &new));
        assert!(line.contains(&format!("makespan_s {ulp} (DIFFERS, was {exact})")), "{line}");
        // The ulp survives a trip through the file.
        let reparsed = Trajectory::parse(&new.render_json(), SCHEMA).unwrap();
        assert_eq!(failed(&prev, &reparsed), vec!["makespan_s"]);

        assert!(failed(&prev, &with("users", 1_000_000.0)).is_empty());
        let line = summary_line(&compare(&prev, &with("attributed_pct", 915.0)));
        assert!(line.contains("attributed_pct 915 (+900.0%)"), "{line}");
    }

    #[test]
    fn zero_baseline_neither_divides_nor_fails_a_context_row() {
        let prev = with("attributed_pct", 0.0);
        let deltas = compare(&prev, &with("attributed_pct", 1e-9));
        let d = deltas.iter().find(|d| d.name == "attributed_pct").unwrap();
        assert_eq!(d.verdict, Verdict::Pass);
        assert!(d.pct_change.is_finite());
    }

    #[test]
    fn added_and_removed_metrics_are_reported_by_name() {
        let prev = trajectory();
        let mut new = trajectory();
        new.metrics.retain(|m| m.name != "makespan_s" && m.name != "users");
        new.metrics.push(Metric::exact("fallbacks", 16.0));
        let deltas = compare(&prev, &new);
        let verdict = |name: &str| deltas.iter().find(|d| d.name == name).unwrap().verdict;
        assert_eq!(verdict("fallbacks"), Verdict::New);
        assert_eq!(verdict("makespan_s"), Verdict::Gone);
        assert_eq!(verdict("users"), Verdict::Gone);
        // Gone fails (a gated number may not vanish silently); new passes.
        assert_eq!(failed(&prev, &new), vec!["makespan_s", "users"]);
        let line = summary_line(&deltas);
        assert!(line.contains("fallbacks 16.00 (NEW)"), "{line}");
        assert!(line.contains("makespan_s GONE (was 2445)"), "{line}");
    }

    #[test]
    fn a_malformed_committed_file_fails_while_a_missing_or_foreign_one_is_replaced() {
        let text = trajectory().render_json();
        assert_eq!(baseline(Some(&text), SCHEMA), Ok(Some(trajectory())));
        // No file, or another schema's: a fresh baseline is recorded.
        assert_eq!(baseline(None, SCHEMA), Ok(None));
        assert_eq!(baseline(Some(&text), "gyan.bench.demo/v3"), Ok(None));
        // This schema's file that does not parse names the parse error.
        let truncated = &text[..text.len() / 2];
        assert!(baseline(Some(truncated), SCHEMA).is_err());
        let bad_metric = text.replace("\"kind\": \"virtual\"", "\"kind\": \"exact\"");
        let err = baseline(Some(&bad_metric), SCHEMA).unwrap_err();
        assert!(err.contains("metric \"makespan_s\": bad \"kind\""), "{err}");
        let no_value = text.replace("\"value\": 100000", "\"value\": \"many\"");
        let err = baseline(Some(&no_value), SCHEMA).unwrap_err();
        assert!(err.contains("metric \"users\": missing numeric field \"value\""), "{err}");
    }

    #[test]
    fn a_non_finite_metric_fails_the_gate_before_anything_is_written() {
        fn poisoned() -> Result<Run, String> {
            let metrics = vec![Metric::exact("fine", 1.0), Metric::exact("runtime_s", f64::NAN)];
            Ok(Run { metrics, profile: None })
        }
        // What recording it would have done: `null`, which no run parses back.
        let t = Trajectory { metrics: poisoned().unwrap().metrics, ..trajectory() };
        assert!(Trajectory::parse(&t.render_json(), SCHEMA).unwrap_err().contains("runtime_s"));

        let gate = Gate { name: "demo", file: "target/BENCH_poisoned.json", run: poisoned };
        for accept in [false, true] {
            let err = run_gate(&gate, accept).unwrap_err();
            assert!(err.contains("\"runtime_s\" is NaN"), "{err}");
        }
        assert!(!std::path::Path::new(gate.file).exists(), "the trajectory file was written");
    }

    #[test]
    fn a_malformed_committed_file_fails_the_gate_before_it_is_measured() {
        fn unreachable() -> Result<Run, String> {
            panic!("the gate body ran against a malformed baseline")
        }
        // The workspace's (ignored) target directory, whatever the cwd.
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_malformed.json");
        let gate = Gate { name: "demo", file, run: unreachable };
        let text = trajectory().render_json();
        std::fs::create_dir_all(std::path::Path::new(file).parent().unwrap()).unwrap();
        std::fs::write(file, &text[..text.len() / 2]).unwrap();
        for accept in [false, true] {
            let err = run_gate(&gate, accept).unwrap_err();
            assert!(err.contains("BENCH_malformed.json does not parse"), "{err}");
        }
        let left = std::fs::read_to_string(gate.file).unwrap();
        std::fs::remove_file(gate.file).unwrap();
        assert_eq!(left, text[..text.len() / 2], "the malformed file was overwritten");
    }
}
