//! SLO alert engine: windowed rules over the metrics registry, evaluated
//! on the recorder's (virtual) clock, with Prometheus-style
//! `pending → firing → resolved` state transitions.
//!
//! Every transition is emitted as an [`ALERT_EVENT`] audit event (routed
//! to the `obs/alerts` Chrome-trace track by `gyan::telemetry`) and
//! counted under [`ALERT_TRANSITIONS_COUNTER`] in the same registry the
//! rules read — the alert plane monitors itself. A firing is one such
//! event in the log, so [`Recorder::flight_snapshot`] taken after it holds
//! both the firing and the moments leading up to it.
//!
//! Evaluation is explicitly driven ([`AlertEngine::evaluate`]): under a
//! virtual clock there is no background time to poll on, so the harness
//! (wave barrier, ops loop, example driver) decides the cadence.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::{json_escape, Recorder, Value};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Counter family (labeled by rule and target state) counting alert
/// transitions.
pub const ALERT_TRANSITIONS_COUNTER: &str = "obs_alert_transitions_total";
/// Gauge: number of rules currently firing.
pub const ALERTS_FIRING_GAUGE: &str = "obs_alerts_firing";
/// Audit event emitted on every state transition.
pub const ALERT_EVENT: &str = "obs.alert.transition";

/// What a rule measures each evaluation.
#[derive(Clone)]
pub enum AlertExpr {
    /// Current value of a gauge (`None` while unset — rule stays quiet).
    Gauge(String),
    /// Per-second increase of a counter over a sliding window, computed
    /// from the engine's own evaluation-time samples.
    CounterRate {
        /// Counter name (inline labels included, if any).
        name: String,
        /// Sliding-window width in clock seconds.
        window_s: f64,
    },
    /// Interpolated histogram quantile ([`crate::metrics::Registry::histogram_quantile`]).
    HistogramQuantile {
        /// Histogram name.
        name: String,
        /// Quantile in `[0, 1]`.
        q: f64,
    },
    /// Arbitrary probe — lets rules watch state outside the registry
    /// (e.g. a lease table) without coupling obs to it.
    Custom(Arc<dyn Fn() -> Option<f64> + Send + Sync>),
}

impl fmt::Debug for AlertExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertExpr::Gauge(name) => write!(f, "Gauge({name})"),
            AlertExpr::CounterRate { name, window_s } => {
                write!(f, "CounterRate({name}, {window_s}s)")
            }
            AlertExpr::HistogramQuantile { name, q } => {
                write!(f, "HistogramQuantile({name}, q={q})")
            }
            AlertExpr::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// Threshold comparison direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    /// Breach when the value exceeds the threshold.
    Gt,
    /// Breach when the value falls below the threshold.
    Lt,
}

/// One alert rule: an expression, a threshold, and an optional hold
/// (`for_s`) the breach must sustain before the rule fires.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Stable rule name (label value on the transition counter).
    pub name: String,
    /// What to measure.
    pub expr: AlertExpr,
    /// Comparison direction.
    pub cmp: Compare,
    /// Threshold the expression is compared against.
    pub threshold: f64,
    /// Seconds a breach must persist before `pending` becomes `firing`
    /// (0 fires immediately).
    pub for_s: f64,
}

impl AlertRule {
    /// A rule that fires immediately on breach.
    pub fn new(name: impl Into<String>, expr: AlertExpr, cmp: Compare, threshold: f64) -> Self {
        AlertRule { name: name.into(), expr, cmp, threshold, for_s: 0.0 }
    }

    /// Require the breach to hold for `secs` before firing.
    pub fn hold_for(mut self, secs: f64) -> Self {
        self.for_s = secs.max(0.0);
        self
    }
}

/// Rule lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Not breaching.
    Inactive,
    /// Breaching, but the `for_s` hold has not elapsed yet.
    Pending,
    /// Breaching past the hold — the alert is live.
    Firing,
}

impl AlertState {
    /// Lower-case state name as used in events and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// One state transition observed during an evaluation.
#[derive(Debug, Clone)]
pub struct AlertTransition {
    /// Rule name.
    pub rule: String,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
    /// Transition kind: `pending`, `firing`, `resolved` (firing →
    /// inactive), or `cancelled` (pending → inactive).
    pub kind: &'static str,
    /// Evaluation time.
    pub at: f64,
    /// Expression value at the transition (`None` when unevaluable).
    pub value: Option<f64>,
}

/// Point-in-time view of one rule.
#[derive(Debug, Clone)]
pub struct AlertStatus {
    /// The rule (expression, threshold, hold).
    pub rule: AlertRule,
    /// Current state.
    pub state: AlertState,
    /// Last evaluated value.
    pub value: Option<f64>,
    /// When the current state was entered.
    pub since: f64,
    /// Times this rule has fired over its lifetime.
    pub fired: u64,
}

/// What a rule reads, resolved from its [`AlertExpr`] once, when the rule
/// is added: a registry series is read through its handle.
enum Probe {
    Gauge(Gauge),
    CounterRate(Counter, f64),
    HistogramQuantile(Histogram, f64),
    Custom(Arc<dyn Fn() -> Option<f64> + Send + Sync>),
}

struct RuleState {
    rule: AlertRule,
    probe: Probe,
    state: AlertState,
    since: f64,
    pending_since: f64,
    last_value: Option<f64>,
    fired: u64,
    /// (t, counter value) samples for `CounterRate`, pruned to window.
    samples: Vec<(f64, u64)>,
}

/// The alert engine; clone freely — clones share rule state.
#[derive(Clone)]
pub struct AlertEngine {
    recorder: Recorder,
    firing: Gauge,
    rules: Arc<Mutex<Vec<RuleState>>>,
}

impl AlertEngine {
    /// An engine reading metrics and clock from `recorder`.
    pub fn new(recorder: &Recorder) -> Self {
        AlertEngine {
            recorder: recorder.clone(),
            firing: recorder.metrics().gauge(ALERTS_FIRING_GAUGE),
            rules: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Register a rule (evaluated in registration order). A series the
    /// rule reads is resolved to its handle here; one never written stays
    /// out of the exposition.
    pub fn add_rule(&self, rule: AlertRule) {
        let since = self.recorder.now();
        let metrics = self.recorder.metrics();
        let probe = match &rule.expr {
            AlertExpr::Gauge(name) => Probe::Gauge(metrics.gauge(name)),
            AlertExpr::CounterRate { name, window_s } => {
                Probe::CounterRate(metrics.counter(name), *window_s)
            }
            AlertExpr::HistogramQuantile { name, q } => {
                Probe::HistogramQuantile(metrics.histogram(name), *q)
            }
            AlertExpr::Custom(f) => Probe::Custom(Arc::clone(f)),
        };
        self.lock().push(RuleState {
            rule,
            probe,
            state: AlertState::Inactive,
            since,
            pending_since: since,
            last_value: None,
            fired: 0,
            samples: Vec::new(),
        });
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<RuleState>> {
        self.rules.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Evaluate every rule at the recorder's current clock time,
    /// returning the transitions that occurred. Emits an audit event and
    /// registry metrics for each transition.
    pub fn evaluate(&self) -> Vec<AlertTransition> {
        let now = self.recorder.now();
        let metrics = self.recorder.metrics();
        let mut transitions = Vec::new();
        let mut firing = 0usize;
        {
            let mut rules = self.lock();
            for rs in rules.iter_mut() {
                let value = match &rs.probe {
                    Probe::Gauge(gauge) => gauge.get(),
                    Probe::HistogramQuantile(histogram, q) => histogram.quantile(*q),
                    Probe::Custom(f) => f(),
                    Probe::CounterRate(counter, window_s) => {
                        let current = counter.get();
                        rs.samples.push((now, current));
                        rs.samples.retain(|(t, _)| now - *t <= *window_s);
                        rs.samples
                            .first()
                            .filter(|(t0, _)| now - *t0 > 0.0)
                            .map(|(t0, v0)| current.saturating_sub(*v0) as f64 / (now - t0))
                    }
                };
                rs.last_value = value;
                let breached = match (value, rs.rule.cmp) {
                    (Some(v), Compare::Gt) => v > rs.rule.threshold,
                    (Some(v), Compare::Lt) => v < rs.rule.threshold,
                    (None, _) => false,
                };
                let next = match (rs.state, breached) {
                    (AlertState::Inactive, true) => {
                        if rs.rule.for_s > 0.0 {
                            AlertState::Pending
                        } else {
                            AlertState::Firing
                        }
                    }
                    (AlertState::Pending, true) => {
                        if now - rs.pending_since >= rs.rule.for_s {
                            AlertState::Firing
                        } else {
                            AlertState::Pending
                        }
                    }
                    (AlertState::Firing, true) => AlertState::Firing,
                    (_, false) => AlertState::Inactive,
                };
                if next != rs.state {
                    let kind = match (rs.state, next) {
                        (_, AlertState::Pending) => "pending",
                        (_, AlertState::Firing) => "firing",
                        (AlertState::Firing, _) => "resolved",
                        _ => "cancelled",
                    };
                    if next == AlertState::Pending {
                        rs.pending_since = now;
                    }
                    if next == AlertState::Firing {
                        rs.fired += 1;
                    }
                    transitions.push(AlertTransition {
                        rule: rs.rule.name.clone(),
                        from: rs.state,
                        to: next,
                        kind,
                        at: now,
                        value,
                    });
                    rs.state = next;
                    rs.since = now;
                }
                if rs.state == AlertState::Firing {
                    firing += 1;
                }
            }
        }
        // Locks released: the recorder's metrics/log locks are
        // only taken with the engine lock dropped.
        self.firing.set(firing as f64);
        for tr in &transitions {
            metrics.inc_counter(
                &format!(
                    "{ALERT_TRANSITIONS_COUNTER}{{rule=\"{}\",to=\"{}\"}}",
                    tr.rule,
                    tr.to.as_str()
                ),
                1,
            );
            let mut fields: Vec<(&str, Value)> = vec![
                ("rule", Value::from(tr.rule.as_str())),
                ("from", Value::from(tr.from.as_str())),
                ("to", Value::from(tr.to.as_str())),
                ("kind", Value::from(tr.kind)),
            ];
            if let Some(v) = tr.value {
                fields.push(("value", Value::from(v)));
            }
            self.recorder.event(ALERT_EVENT, fields);
        }
        transitions
    }

    /// Current status of every rule, in registration order.
    pub fn statuses(&self) -> Vec<AlertStatus> {
        self.lock()
            .iter()
            .map(|rs| AlertStatus {
                rule: rs.rule.clone(),
                state: rs.state,
                value: rs.last_value,
                since: rs.since,
                fired: rs.fired,
            })
            .collect()
    }

    /// Names of rules currently firing.
    pub fn firing(&self) -> Vec<String> {
        self.lock()
            .iter()
            .filter(|rs| rs.state == AlertState::Firing)
            .map(|rs| rs.rule.name.clone())
            .collect()
    }

    /// JSON document for `GET /api/alerts`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .statuses()
            .iter()
            .map(|s| {
                format!(
                    "{{\"rule\":\"{}\",\"state\":\"{}\",\"value\":{},\"threshold\":{},\"since\":{},\"fired\":{}}}",
                    json_escape(&s.rule.name),
                    s.state.as_str(),
                    s.value.map_or("null".to_string(), crate::format_f64),
                    crate::format_f64(s.rule.threshold),
                    crate::format_f64(s.since),
                    s.fired,
                )
            })
            .collect();
        format!("{{\"alerts\":[{}]}}", body.join(","))
    }

    /// One-line-per-rule human summary (for example programs).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for s in self.statuses() {
            let value = s.value.map_or("-".to_string(), |v| format!("{v:.3}"));
            out.push_str(&format!(
                "{:<24} {:<8} value={value} threshold={} fired={}\n",
                s.rule.name,
                s.state.as_str(),
                s.rule.threshold,
                s.fired
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn stepped() -> (Recorder, Arc<AtomicU64>) {
        let cell = Arc::new(AtomicU64::new(0));
        let c = cell.clone();
        let rec = Recorder::new();
        rec.set_clock(move || c.load(Ordering::SeqCst) as f64);
        (rec, cell)
    }

    #[test]
    fn gauge_rule_walks_pending_firing_resolved() {
        let (rec, clock) = stepped();
        let engine = AlertEngine::new(&rec);
        engine.add_rule(
            AlertRule::new("depth", AlertExpr::Gauge("depth".into()), Compare::Gt, 5.0)
                .hold_for(2.0),
        );

        // Unset gauge: no evaluation, no transition.
        assert!(engine.evaluate().is_empty());

        rec.metrics().set_gauge("depth", 10.0);
        let tr = engine.evaluate();
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].kind, "pending");

        // Hold not yet elapsed.
        clock.store(1, Ordering::SeqCst);
        assert!(engine.evaluate().is_empty());

        clock.store(2, Ordering::SeqCst);
        let tr = engine.evaluate();
        assert_eq!(tr[0].kind, "firing");
        assert_eq!(engine.firing(), vec!["depth".to_string()]);

        rec.metrics().set_gauge("depth", 0.0);
        clock.store(3, Ordering::SeqCst);
        let tr = engine.evaluate();
        assert_eq!(tr[0].kind, "resolved");
        assert!(engine.firing().is_empty());

        // Metrics + audit trail recorded every transition.
        let m = rec.metrics();
        assert_eq!(m.counter_value("obs_alert_transitions_total{rule=\"depth\",to=\"firing\"}"), 1);
        assert_eq!(m.gauge_value(ALERTS_FIRING_GAUGE), Some(0.0));
        assert_eq!(rec.events_named(ALERT_EVENT).len(), 3);
        let fired = engine.statuses().remove(0);
        assert_eq!(fired.fired, 1);
    }

    #[test]
    fn pending_breach_that_clears_is_cancelled() {
        let (rec, clock) = stepped();
        let engine = AlertEngine::new(&rec);
        engine.add_rule(
            AlertRule::new("blip", AlertExpr::Gauge("g".into()), Compare::Gt, 1.0).hold_for(10.0),
        );
        rec.metrics().set_gauge("g", 5.0);
        assert_eq!(engine.evaluate()[0].kind, "pending");
        rec.metrics().set_gauge("g", 0.0);
        clock.store(1, Ordering::SeqCst);
        assert_eq!(engine.evaluate()[0].kind, "cancelled");
    }

    #[test]
    fn counter_rate_uses_a_sliding_window() {
        let (rec, clock) = stepped();
        let engine = AlertEngine::new(&rec);
        engine.add_rule(AlertRule::new(
            "burn",
            AlertExpr::CounterRate { name: "errs".into(), window_s: 10.0 },
            Compare::Gt,
            0.5,
        ));

        // First sample: no window yet, rule stays quiet.
        assert!(engine.evaluate().is_empty());
        // 2 errors/second for 3 seconds.
        for t in 1..=3u64 {
            rec.metrics().inc_counter("errs", 2);
            clock.store(t, Ordering::SeqCst);
            engine.evaluate();
        }
        assert_eq!(engine.firing(), vec!["burn".to_string()]);
        let status = engine.statuses().remove(0);
        assert!(status.value.unwrap() > 1.9, "{status:?}");

        // Counter stops moving; once the active samples age out of the
        // window the rate returns to 0 and the alert resolves.
        for t in 4..=20u64 {
            clock.store(t, Ordering::SeqCst);
            engine.evaluate();
        }
        assert!(engine.firing().is_empty());
        let status = engine.statuses().remove(0);
        assert_eq!(status.value, Some(0.0));
    }

    /// The engine's evaluation with every series looked up by name, as it
    /// read them before rules held handles.
    struct ByName {
        rules: Vec<ByNameRule>,
    }

    struct ByNameRule {
        rule: AlertRule,
        state: AlertState,
        pending_since: f64,
        samples: Vec<(f64, u64)>,
    }

    impl ByName {
        /// `(rule, value, transition kind)` of every rule, in order.
        fn evaluate(&mut self, rec: &Recorder) -> Vec<(String, Option<f64>, Option<&'static str>)> {
            let (now, metrics) = (rec.now(), rec.metrics());
            let mut out = Vec::new();
            for ByNameRule { rule, state, pending_since, samples } in &mut self.rules {
                let value = match &rule.expr {
                    AlertExpr::Gauge(name) => metrics.gauge_value(name),
                    AlertExpr::HistogramQuantile { name, q } => {
                        metrics.histogram_quantile(name, *q)
                    }
                    AlertExpr::Custom(f) => f(),
                    AlertExpr::CounterRate { name, window_s } => {
                        let current = metrics.counter_value(name);
                        samples.push((now, current));
                        samples.retain(|(t, _)| now - *t <= *window_s);
                        let (t0, v0) = samples[0];
                        (now - t0 > 0.0).then(|| current.saturating_sub(v0) as f64 / (now - t0))
                    }
                };
                let breached = value.is_some_and(|v| match rule.cmp {
                    Compare::Gt => v > rule.threshold,
                    Compare::Lt => v < rule.threshold,
                });
                let held = now - *pending_since >= rule.for_s;
                let next = match (*state, breached) {
                    (_, false) => AlertState::Inactive,
                    (AlertState::Inactive, true) if rule.for_s > 0.0 => AlertState::Pending,
                    (AlertState::Pending, true) if !held => AlertState::Pending,
                    _ => AlertState::Firing,
                };
                let kind = (next != *state).then_some(match (*state, next) {
                    (_, AlertState::Pending) => "pending",
                    (_, AlertState::Firing) => "firing",
                    (AlertState::Firing, _) => "resolved",
                    _ => "cancelled",
                });
                if kind == Some("pending") {
                    *pending_since = now;
                }
                *state = next;
                out.push((rule.name.clone(), value, kind));
            }
            out
        }
    }

    #[test]
    fn rules_read_through_handles_as_by_name() {
        let (rec, clock) = stepped();
        let m = rec.metrics();
        // Written before any rule exists, by name and by handle.
        m.inc_counter("written_total", 1);
        let early = m.histogram("h_seconds");
        let rate = |name: &str| AlertExpr::CounterRate { name: name.into(), window_s: 3.0 };
        let rules = vec![
            AlertRule::new("never", rate("never_total"), Compare::Gt, 0.0),
            AlertRule::new("late", rate("late_total"), Compare::Gt, 0.5).hold_for(2.0),
            AlertRule::new("written", rate("written_total"), Compare::Gt, 1.0),
            AlertRule::new("gauge", AlertExpr::Gauge("depth".into()), Compare::Gt, 1.0)
                .hold_for(1.0),
            AlertRule::new(
                "p90",
                AlertExpr::HistogramQuantile { name: "h_seconds".into(), q: 0.9 },
                Compare::Gt,
                0.5,
            ),
            AlertRule::new("unset", AlertExpr::Gauge("unset".into()), Compare::Lt, 1.0),
        ];
        let before = m.render_prometheus();
        let engine = AlertEngine::new(&rec);
        rules.iter().for_each(|rule| engine.add_rule(rule.clone()));
        assert_eq!(m.render_prometheus(), before, "adding rules rendered a series");
        let mut by_name = ByName {
            rules: rules
                .into_iter()
                .map(|rule| ByNameRule {
                    rule,
                    state: AlertState::Inactive,
                    pending_since: 0.0,
                    samples: Vec::new(),
                })
                .collect(),
        };
        let (late, depth) = (m.counter("late_total"), m.gauge("depth"));
        for t in 0..12u64 {
            clock.store(t, Ordering::SeqCst);
            match t {
                2 => depth.set(3.0),
                3 => m.inc_counter("late_total", 4),
                4 => early.observe(2.0),
                5 => late.inc(6),
                6 => m.set_gauge("depth", 0.0),
                7 => m.observe("h_seconds", 0.001),
                8 => (0..20).for_each(|_| early.observe(0.001)),
                _ => m.inc_counter("written_total", t),
            }
            let transitions = engine.evaluate();
            let want = by_name.evaluate(&rec);
            let values: Vec<_> = engine.statuses().iter().map(|s| s.value).collect();
            assert_eq!(values, want.iter().map(|(_, v, _)| *v).collect::<Vec<_>>(), "t={t}");
            let got: Vec<_> =
                transitions.iter().map(|tr| (tr.rule.clone(), tr.value, Some(tr.kind))).collect();
            let want: Vec<_> = want.into_iter().filter(|(_, _, kind)| kind.is_some()).collect();
            assert_eq!(got, want, "t={t}");
        }
        assert_eq!(m.counter_value("never_total"), 0);
        assert!(!m.render_prometheus().contains("never_total"));
        assert!(!m.render_prometheus().contains("unset"));
        // The script walks every rule that can breach through pending,
        // firing and resolved.
        let kinds: Vec<_> = rec
            .events_named(ALERT_EVENT)
            .iter()
            .filter_map(|e| {
                Some(format!("{}:{}", e.field("rule")?.as_str()?, e.field("kind")?.as_str()?))
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "gauge:pending",
                "late:pending",
                "gauge:firing",
                "p90:firing",
                "late:firing",
                "gauge:resolved",
                "late:resolved",
                "p90:resolved",
                "written:firing"
            ]
        );
    }

    #[test]
    fn to_json_lists_every_rule() {
        let (rec, _clock) = stepped();
        let engine = AlertEngine::new(&rec);
        engine.add_rule(AlertRule::new("a", AlertExpr::Gauge("g".into()), Compare::Lt, 2.0));
        let doc = crate::json::parse(&engine.to_json()).expect("alerts JSON parses");
        let alerts = doc.get("alerts").and_then(|v| v.as_array()).unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].get("state").and_then(|v| v.as_str()), Some("inactive"));
        assert_eq!(alerts[0].get("value"), Some(&crate::json::JsonValue::Null));
    }
}
