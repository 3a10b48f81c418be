//! The one gate mechanism behind every `BENCH_*.json`.
//!
//! A [`Trajectory`] is `schema + commit + Vec<Metric>`; what differs
//! between gates is only the metric table. Each metric declares how it
//! may be compared ([`Kind`]):
//!
//! * [`Kind::Wall`] — a wall-clock rate. [`measure`] runs it in short
//!   segments interleaved round-robin with the gate's other wall
//!   metrics and reports the fastest segment (min/median/max ride
//!   along); it regresses when it moves the wrong way by more than its
//!   own `bound_pct`, committed in the metric table from a noise study.
//! * [`Kind::Virtual`] — a virtual-time result, deterministic at the
//!   gate's fixed seed. Compared exactly: any difference fails.
//! * [`Kind::Context`] — recorded, never compared.
//!
//! [`run_gate`] takes its baseline from the median of the last
//! [`HISTORY_WINDOW`] same-schema entries of [`HISTORY_FILE`] (falling
//! back to the gate's committed file), prints the one-line delta
//! summary, and on a pass rewrites the file and appends the history
//! line; a wall metric below its bound is re-measured up to
//! [`REMEASURES`] times before it is believed. An intended move is
//! accepted with `gates --accept`, which records the run despite the
//! comparison and restarts the window.

use obs::json::{self, JsonValue};
use std::time::{Duration, Instant};

/// The committed run log: one line per passing gate run,
/// `{"recorded_at", "gate", "accepted", "trajectory"}`.
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// How many trailing same-schema history entries the baseline medians.
pub const HISTORY_WINDOW: usize = 5;

/// Fewest segments [`measure`] runs per wall metric, whatever the budget.
pub const MIN_SEGMENTS: usize = 7;

/// Extra measurements [`run_gate`] grants while a wall metric reads
/// below its bound. One of twelve steadiness runs of an unchanged tree
/// spent a whole 6 s measuring window in a slow phase of the box (both
/// scheduler metrics −21…−28 % at once, the next gate 6 s later normal);
/// the fastest segment cannot exceed what the code can do, so measuring
/// again lets such a phase pass and cannot rescue a real regression.
pub const REMEASURES: usize = 3;

/// Schema identifier of gate `name`. Bump the suffix when the metric
/// tables change incompatibly; entries of another schema are skipped,
/// never misread.
pub fn schema(name: &str) -> String {
    format!("gyan.bench.{name}/v2")
}

/// The direction in which a wall metric may drift freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger numbers are improvements (throughput).
    Higher,
    /// Smaller numbers are improvements (latency).
    Lower,
}

/// How a metric is compared against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Wall-clock measurement: `value` is the fastest segment.
    Wall {
        /// Good direction.
        better: Better,
        /// Allowed move in the bad direction, percent of the baseline.
        bound_pct: f64,
        /// Slowest/lowest segment.
        min: f64,
        /// Median segment.
        median: f64,
        /// Fastest/highest segment.
        max: f64,
        /// Segments measured.
        segments: u32,
    },
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

    /// A [`Kind::Wall`] metric from per-segment readings: the value is
    /// the best segment in the `better` direction.
    pub fn wall(name: &str, better: Better, bound_pct: f64, segments: &[f64]) -> Metric {
        let mut sorted = segments.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        Metric {
            name: name.to_string(),
            value: if better == Better::Higher { max } else { min },
            kind: Kind::Wall {
                better,
                bound_pct,
                min,
                median: median(&sorted),
                max,
                segments: sorted.len() as u32,
            },
        }
    }
}

/// Median of an ascending, non-empty slice.
fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
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
                let head = format!(
                    "    {{\"name\": \"{}\", \"value\": {}",
                    obs::json_escape(&m.name),
                    fmt_json(m.value)
                );
                match &m.kind {
                    Kind::Wall { better, bound_pct, min, median, max, segments } => format!(
                        "{head}, \"kind\": \"wall\", \"better\": \"{}\", \"bound_pct\": {}, \
                         \"min\": {}, \"median\": {}, \"max\": {}, \"segments\": {segments}}}",
                        if *better == Better::Higher { "higher" } else { "lower" },
                        fmt_json(*bound_pct),
                        fmt_json(*min),
                        fmt_json(*median),
                        fmt_json(*max),
                    ),
                    Kind::Virtual => format!("{head}, \"kind\": \"virtual\"}}"),
                    Kind::Context => format!("{head}, \"kind\": \"context\"}}"),
                }
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
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("metric {name:?}: missing numeric field {key:?}"))
    };
    let kind = match doc.get("kind").and_then(JsonValue::as_str) {
        Some("wall") => Kind::Wall {
            better: match doc.get("better").and_then(JsonValue::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                other => return Err(format!("metric {name:?}: bad \"better\" {other:?}")),
            },
            bound_pct: num("bound_pct")?,
            min: num("min")?,
            median: num("median")?,
            max: num("max")?,
            segments: num("segments")? as u32,
        },
        Some("virtual") => Kind::Virtual,
        Some("context") => Kind::Context,
        other => return Err(format!("metric {name:?}: bad \"kind\" {other:?}")),
    };
    Ok(Metric { name: name.to_string(), value: num("value")?, kind })
}

/// One wall-clock benchmark for [`measure`].
pub struct WallBench<'a> {
    /// Metric name.
    pub name: &'static str,
    /// Allowed drop below the baseline, percent (from the noise study).
    pub bound_pct: f64,
    /// Runs one short fixed-size segment of work; returns the
    /// operations it completed.
    pub segment: Box<dyn FnMut() -> u64 + 'a>,
}

/// The measuring protocol, once: run every bench's segments round-robin
/// until each has at least [`MIN_SEGMENTS`] and `budget` is spent, and
/// report each as operations per real second — fastest segment as the
/// value, min/median/max alongside. Interleaving matters because this
/// box's slow phases last seconds: back-to-back repeats of one metric
/// all land in the same phase, round-robin segments do not.
pub fn measure(budget: Duration, benches: &mut [WallBench<'_>]) -> Vec<Metric> {
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); benches.len()];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_SEGMENTS || start.elapsed() < budget {
        for (bench, rates) in benches.iter_mut().zip(&mut rates) {
            let t = Instant::now();
            let ops = (bench.segment)();
            rates.push(ops as f64 / t.elapsed().as_secs_f64().max(1e-9));
        }
        rounds += 1;
    }
    benches
        .iter()
        .zip(&rates)
        .map(|(b, rates)| Metric::wall(b.name, Better::Higher, b.bound_pct, rates))
        .collect()
}

/// What the comparator decided about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its rule (or never compared).
    Pass,
    /// A wall metric moved the wrong way by more than its bound.
    Regressed,
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
        matches!(self.verdict, Verdict::Regressed | Verdict::Differs | Verdict::Gone)
    }
}

/// Compare a run against its baseline, metric by metric, under the
/// *run's* kinds and bounds (the committed metric table, not whatever
/// an old file says). Every name on either side yields a [`Delta`].
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
            let verdict = match &m.kind {
                Kind::Wall { better, bound_pct, .. } => {
                    let bad_move = if *better == Better::Higher { -pct_change } else { pct_change };
                    // The absolute floor keeps a 0 → 1e-9 wobble on an
                    // idle metric from failing a gate.
                    if bad_move > *bound_pct && (m.value - p).abs() > 1e-6 {
                        Verdict::Regressed
                    } else {
                        Verdict::Pass
                    }
                }
                Kind::Virtual if m.value != p => Verdict::Differs,
                Kind::Virtual | Kind::Context => Verdict::Pass,
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
/// `decisions_per_sec 412345 (-3.1%) · queue_wait_p99_s 63.00 (=) · nodes 100 · ...`.
pub fn summary_line(deltas: &[Delta]) -> String {
    deltas
        .iter()
        .map(|d| match (d.verdict, d.prev, d.new) {
            (Verdict::Gone, Some(p), _) => format!("{} GONE (was {})", d.name, fmt(p)),
            (Verdict::New, _, Some(n)) => format!("{} {} (NEW)", d.name, fmt(n)),
            (Verdict::Differs, Some(p), Some(n)) => format!("{} {n} (DIFFERS, was {p})", d.name),
            (Verdict::Regressed, _, Some(n)) => {
                format!("{} {} ({:+.1}% REGRESSED)", d.name, fmt(n), d.pct_change)
            }
            (_, Some(p), Some(n)) if p == n => format!("{} {} (=)", d.name, fmt(n)),
            (_, _, Some(n)) => format!("{} {} ({:+.1}%)", d.name, fmt(n), d.pct_change),
            _ => d.name.clone(),
        })
        .collect::<Vec<_>>()
        .join(" · ")
}

/// The baseline a run is compared against, and where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The latest recorded run, each wall value replaced by its median
    /// over the window.
    pub trajectory: Trajectory,
    /// Human description (`"BENCH_history.jsonl, median of 5"`, …).
    pub source: String,
}

/// Pick the baseline for a gate of schema `expected`: the last
/// [`HISTORY_WINDOW`] same-schema history entries (other schemas and
/// other gates are skipped; the window does not reach back past an
/// `--accept`ed entry), else the committed `file`, else `None`.
pub fn baseline(history: &str, file: Option<&str>, expected: &str) -> Option<Baseline> {
    let mut window: Vec<Trajectory> = Vec::new(); // newest first
    for line in history.lines().rev() {
        let Ok(doc) = json::parse(line) else { continue };
        let Some(Ok(t)) = doc.get("trajectory").map(|t| Trajectory::from_doc(t, expected)) else {
            continue;
        };
        window.push(t);
        let accepted = doc.get("accepted").and_then(JsonValue::as_bool) == Some(true);
        if accepted || window.len() == HISTORY_WINDOW {
            break;
        }
    }
    let Some(mut latest) = window.first().cloned() else {
        let t = Trajectory::parse(file?, expected).ok()?;
        let source = format!("committed file ({})", t.commit);
        return Some(Baseline { trajectory: t, source });
    };
    for m in &mut latest.metrics {
        if matches!(m.kind, Kind::Wall { .. }) {
            let mut values: Vec<f64> = window.iter().filter_map(|t| t.get(&m.name)).collect();
            values.sort_by(f64::total_cmp);
            m.value = median(&values);
        }
    }
    let source = format!("{HISTORY_FILE} (median of {}, latest {})", window.len(), latest.commit);
    Some(Baseline { trajectory: latest, source })
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

/// One [`HISTORY_FILE`] line (newline-terminated) for a recorded run.
fn history_line(recorded_at: &str, gate: &str, accepted: bool, t: &Trajectory) -> String {
    let compact: String = t.render_json().lines().map(str::trim).collect();
    format!(
        "{{\"recorded_at\":\"{recorded_at}\",\"gate\":\"{gate}\",\"accepted\":{accepted},\
         \"trajectory\":{compact}}}\n"
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn git_commit() -> String {
    command_line("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

/// Fold a re-measurement into `metrics`: each wall metric keeps whichever
/// run read better (value and spread together). Everything else stays as
/// first measured — virtual values cannot differ, context is not compared.
fn keep_best(metrics: &mut [Metric], again: Vec<Metric>) {
    for a in again {
        let Kind::Wall { better, .. } = a.kind else { continue };
        if let Some(m) = metrics.iter_mut().find(|m| m.name == a.name) {
            let improves =
                if better == Better::Higher { a.value > m.value } else { a.value < m.value };
            if improves {
                *m = a;
            }
        }
    }
}

/// A NaN or ∞ is rendered as `null`, which [`Trajectory::parse`] rejects:
/// once recorded, the line would drop out of every later baseline without
/// a word. So a run carrying one fails before it is compared or written.
fn all_finite(name: &str, metrics: &[Metric]) -> Result<(), String> {
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => {
            Err(format!("{name}: FAIL — metric {:?} is {}; nothing recorded", m.name, m.value))
        }
        None => Ok(()),
    }
}

/// Measure `gate`, compare against its baseline, and — on a pass, or
/// unconditionally with `accept` — rewrite its file and append the
/// history line. A wall metric that reads below its bound is re-measured
/// (the gate's body runs again, up to [`REMEASURES`] times, each wall
/// metric keeping its best run) before it is believed: a slow phase of
/// the box passes, a regression persists. On a failed comparison nothing
/// is written (the evidence stays) and the error names every failed
/// metric.
pub fn run_gate(gate: &Gate, accept: bool) -> Result<(), String> {
    let name = gate.name;
    let body = || (gate.run)().map_err(|e| format!("{name}: FAIL — {e}"));
    let run = body()?;
    all_finite(name, &run.metrics)?;
    let mut new = Trajectory {
        schema: schema(name),
        commit: git_commit(),
        metrics: run.metrics,
        profile: None,
    };

    let history = std::fs::read_to_string(HISTORY_FILE).unwrap_or_default();
    let file = std::fs::read_to_string(gate.file).ok();
    match baseline(&history, file.as_deref(), &new.schema) {
        Some(base) => {
            let mut deltas = compare(&base.trajectory, &new);
            for attempt in 1..=REMEASURES {
                if accept || !deltas.iter().any(|d| d.verdict == Verdict::Regressed) {
                    break;
                }
                println!("\n{name}: {}", summary_line(&deltas));
                println!("{name}: below a wall bound — re-measuring ({attempt}/{REMEASURES})");
                keep_best(&mut new.metrics, body()?.metrics);
                deltas = compare(&base.trajectory, &new);
            }
            println!("\n{name} vs {}:\n  {}", base.source, summary_line(&deltas));
            let failed: Vec<&Delta> = deltas.iter().filter(|d| d.failed()).collect();
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
            for d in &failed {
                eprintln!(
                    "{name}: {:?} {}: {} -> {} ({:+.1}%)",
                    d.verdict,
                    d.name,
                    show(d.prev),
                    show(d.new),
                    d.pct_change
                );
            }
            if !failed.is_empty() && !accept {
                return Err(format!(
                    "{name}: FAIL — {} and {HISTORY_FILE} left untouched; fix the regression, \
                     or rerun `gates {name} --accept` if the move is intended",
                    gate.file
                ));
            }
        }
        None => println!("\n{name}: no {} baseline; recording one", new.schema),
    }

    let recorded_at = command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]).unwrap_or_default();
    // The history line carries the metric table only, not the profile.
    let line = history_line(&recorded_at, name, accept, &new);
    new.profile = run.profile;
    let io = |e: std::io::Error| format!("{name}: cannot record the run: {e}");
    if let Some(dir) = std::path::Path::new(gate.file).parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    std::fs::write(gate.file, new.render_json()).map_err(io)?;
    let mut log =
        std::fs::OpenOptions::new().create(true).append(true).open(HISTORY_FILE).map_err(io)?;
    std::io::Write::write_all(&mut log, line.as_bytes()).map_err(io)?;
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
                Metric::wall("rate", Better::Higher, 20.0, &[40_000.0, 50_000.0, 45_000.0]),
                Metric::wall("latency_us", Better::Lower, 20.0, &[30.0, 25.0, 40.0]),
                Metric::exact("makespan_s", 2445.119936020456),
                Metric::exact("idle_s", 0.0),
                Metric::context("users", 100_000.0),
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

    fn history_line(gate: &str, accepted: bool, t: &Trajectory) -> String {
        super::history_line("x", gate, accepted, t)
    }

    #[test]
    fn render_parse_roundtrip_preserves_every_metric_and_the_wall_spread() {
        let mut t = trajectory();
        assert_eq!(t.get("rate"), Some(50_000.0), "higher-is-better value is the fastest segment");
        assert_eq!(t.get("latency_us"), Some(25.0), "lower-is-better value is the fastest segment");
        assert_eq!(
            t.metrics[0].kind,
            Kind::Wall {
                better: Better::Higher,
                bound_pct: 20.0,
                min: 40_000.0,
                median: 45_000.0,
                max: 50_000.0,
                segments: 3
            }
        );
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
        for other in ["gyan.bench.demo/v1", "gyan.bench.placement/v2"] {
            let err = Trajectory::parse(&text, other).unwrap_err();
            assert!(err.contains("schema mismatch"), "{err}");
        }
        assert_eq!(schema("scheduler"), "gyan.bench.scheduler/v2");
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
    }

    #[test]
    fn wall_moves_are_judged_by_the_metrics_own_bound_and_direction() {
        let prev = trajectory(); // both wall metrics carry bound_pct 20
        assert!(failed(&prev, &with("rate", 50_000.0 * 0.85)).is_empty(), "-15% is inside 20%");
        assert_eq!(failed(&prev, &with("rate", 50_000.0 * 0.5)), vec!["rate"], "2x slowdown");
        assert_eq!(failed(&prev, &with("latency_us", 25.0 * 2.0)), vec!["latency_us"]);
        // Improvements never fail, however large.
        assert!(failed(&prev, &with("rate", 500_000.0)).is_empty());
        assert!(failed(&prev, &with("latency_us", 2.5)).is_empty());
        // The bound is the run's, not the baseline's: a tighter committed
        // table applies at once.
        let mut tight = with("rate", 50_000.0 * 0.85);
        if let Kind::Wall { bound_pct, .. } = &mut tight.metrics[0].kind {
            *bound_pct = 10.0;
        }
        assert_eq!(failed(&prev, &tight), vec!["rate"]);
        let line = summary_line(&compare(&prev, &with("rate", 5_000.0)));
        assert!(line.contains("rate 5000 (-90.0% REGRESSED)"), "{line}");
        assert!(line.contains("latency_us 25.00 (=)"), "{line}");
    }

    #[test]
    fn zero_baseline_neither_divides_nor_regresses() {
        let mut prev = trajectory();
        prev.metrics[1].value = 0.0;
        let deltas = compare(&prev, &with("latency_us", 1e-9));
        let d = deltas.iter().find(|d| d.name == "latency_us").unwrap();
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
    fn history_baseline_is_the_median_of_the_last_five_same_schema_lines() {
        let mut history = String::new();
        // Skipped: a /v1-style line, another gate's line, garbage.
        history.push_str(
            "{\"recorded_at\":\"x\",\"gate\":\"demo\",\"trajectory\":\
             {\"schema\": \"gyan.bench.demo/v1\", \"commit\": \"old\", \"rate\": 1}}\n",
        );
        let mut other = with("rate", 1.0);
        other.schema = schema("placement");
        history.push_str(&history_line("placement", false, &other));
        history.push_str("not json\n");
        // Seven demo runs; only the last five count.
        for rate in [1.0, 2.0, 50.0, 10.0, 40.0, 30.0, 20.0] {
            history.push_str(&history_line("demo", false, &with("rate", rate)));
        }
        history.push_str(&history_line("placement", false, &other));
        let base = baseline(&history, None, SCHEMA).expect("history has demo runs");
        assert_eq!(base.trajectory.get("rate"), Some(30.0), "median of 50,10,40,30,20");
        assert_eq!(base.trajectory.get("makespan_s"), trajectory().get("makespan_s"));
        assert!(base.source.contains("median of 5"), "{}", base.source);

        // An accepted entry restarts the window: older runs no longer count.
        history.push_str(&history_line("demo", true, &with("rate", 4.0)));
        history.push_str(&history_line("demo", false, &with("rate", 6.0)));
        let base = baseline(&history, None, SCHEMA).unwrap();
        assert_eq!(base.trajectory.get("rate"), Some(5.0), "median of 4 and 6");

        // No same-schema history: the committed file, if it is this gate's.
        let v1_only = history.lines().next().unwrap();
        let file = with("rate", 7.0).render_json();
        let base = baseline(v1_only, Some(&file), SCHEMA).unwrap();
        assert_eq!(base.trajectory.get("rate"), Some(7.0));
        assert!(baseline(v1_only, Some(&other.render_json()), SCHEMA).is_none());
        assert!(baseline("", None, SCHEMA).is_none());
    }

    #[test]
    fn a_remeasurement_keeps_each_wall_metrics_better_run_and_nothing_else() {
        let mut first = with("rate", 30_000.0).metrics; // latency_us 25, users 100000
        let mut again = with("latency_us", 35.0);
        again.metrics.iter_mut().find(|m| m.name == "users").unwrap().value = 7.0;
        let faster = again.metrics[0].clone(); // rate 50000, the trajectory() reading
        keep_best(&mut first, again.metrics);
        let get = |name: &str| first.iter().find(|m| m.name == name).unwrap();
        assert_eq!(*get("rate"), faster, "higher is better: the second run's reading wins whole");
        assert_eq!(get("latency_us").value, 25.0, "lower is better: the first run's reading stays");
        assert_eq!(get("users").value, 100_000.0, "context is not re-taken");
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
        let history = std::fs::read(HISTORY_FILE).ok();
        for accept in [false, true] {
            let err = run_gate(&gate, accept).unwrap_err();
            assert!(err.contains("\"runtime_s\" is NaN"), "{err}");
        }
        assert!(!std::path::Path::new(gate.file).exists(), "the trajectory file was written");
        assert_eq!(std::fs::read(HISTORY_FILE).ok(), history, "the history was touched");
    }

    #[test]
    fn measure_reports_the_fast_segments_rate_with_ordered_spread() {
        // Segments alternate fast (1 ms) and slow (20 ms) for the same
        // 1000 ops, the shape of a box flipping between phases.
        let mut calls = 0u32;
        let mut benches = [WallBench {
            name: "alternating",
            bound_pct: 15.0,
            segment: Box::new(|| {
                calls += 1;
                let ms = if calls % 2 == 1 { 1 } else { 20 };
                std::thread::sleep(Duration::from_millis(ms));
                1000
            }),
        }];
        let metrics = measure(Duration::ZERO, &mut benches);
        let m = &metrics[0];
        let Kind::Wall { better, bound_pct, min, median, max, segments } = m.kind else {
            panic!("measure yields wall metrics, got {:?}", m.kind);
        };
        assert_eq!((better, bound_pct, segments), (Better::Higher, 15.0, MIN_SEGMENTS as u32));
        assert!(min <= median && median <= max, "{min} {median} {max}");
        assert_eq!(m.value, max);
        // A slow segment cannot beat 1000 ops / 20 ms; the value must.
        assert!(min <= 50_000.0, "slowest segment slept 20 ms: {min}");
        assert!(m.value > 50_000.0 && m.value <= 1_000_000.0, "fast rate expected: {}", m.value);
    }
}
