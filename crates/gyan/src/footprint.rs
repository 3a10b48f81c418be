//! Online per-tool GPU footprint profiles — the telemetry→policy loop.
//!
//! The static `gpu_memory_hint_mib` destination parameter is a guess made
//! at deployment time; real tools' peak GPU memory varies with input size
//! by orders of magnitude. This module closes the loop: every concluded
//! GPU attempt feeds its observed peak memory and runtime into a
//! [`FootprintRegistry`] keyed by `(tool, input-size bucket)`, and the
//! dispatch hook consults the learned p95 instead of the static hint once
//! a profile has enough samples ([`MemoryHint::Learned`]).
//!
//! Profiles aggregate with [`obs::sketch::QuantileSketch`] — bounded
//! memory per profile regardless of job count, and deterministic merges
//! so multi-node registries can be combined without drift. Input sizes
//! are binned into power-of-two buckets ([`obs::sketch::size_bucket`]):
//! coarse enough that profiles converge quickly, fine enough that a
//! 100 MiB and a 100 GiB invocation of the same tool never share an
//! estimate.
//!
//! Consumers:
//!
//! * [`crate::GyanHook`] resolves each job's memory hint through
//!   [`FootprintRegistry::estimate`] (override > learned >
//!   destination param > default) and reports the decision as a
//!   [`FOOTPRINT_ESTIMATE_EVENT`] audit once the attempt concludes.
//! * The queue engine's footprint-revised resubmission ladder asks the
//!   hook (`JobHook::revised_gpu_budget`), which asks
//!   [`FootprintRegistry::revised_budget`], for a bigger budget before
//!   blindly falling back to CPU.
//! * Ops surfaces: every conclusion that teaches a profile exports the
//!   `gyan_footprint_*` gauges into the recorder's registry, which
//!   `/metrics` serves, and its audit lands on a `gyan/footprint`
//!   Chrome-trace track.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use obs::sketch::{bucket_label, size_bucket, QuantileSketch};
use obs::{Recorder, Value};

/// Environment variable declaring a job's total input size in MiB. Set by
/// the submitter (Galaxy knows dataset sizes at submission); read by the
/// dispatch hook to select the profile bucket. Jobs without it fall into
/// bucket 0.
pub const GALAXY_INPUT_SIZE_MIB_ENV: &str = "GALAXY_INPUT_SIZE_MIB";

/// Environment variable carrying the GPU memory budget (MiB) the
/// orchestrator granted this attempt. Exported by the GPU hook on every
/// GPU-mapped attempt so the tool process (and the simulation harness's
/// OOM model) can see the ceiling it must fit under.
pub const GPU_MEMORY_BUDGET_ENV: &str = "GALAXY_GPU_MEMORY_BUDGET_MIB";

/// Environment variable declaring the peak GPU memory (MiB) a simulated
/// job will touch. The harness sets it per job; the hook snapshots it at
/// dispatch so the registry can learn from it at conclusion. A real
/// deployment would read the peak from the 1 Hz [`crate::UsageMonitor`]
/// (`UsageStats::mem_max`) instead.
pub const GPU_OBSERVED_PEAK_ENV: &str = "GALAXY_GPU_OBSERVED_PEAK_MIB";

/// A MiB quantity exported on the job's environment (`None` when unset
/// or not a number).
pub fn env_mib(job: &galaxy::Job, var: &str) -> Option<u64> {
    job.env_var(var).and_then(|v| v.parse().ok())
}

/// The job's declared input size for profile bucketing (0 when unset —
/// those jobs share the smallest bucket).
pub fn input_mib(job: &galaxy::Job) -> u64 {
    env_mib(job, GALAXY_INPUT_SIZE_MIB_ENV).unwrap_or(0)
}

/// Audit event emitted when a learned-or-static estimate is reconciled
/// against the observed peak at job conclusion.
pub const FOOTPRINT_ESTIMATE_EVENT: &str = "footprint.estimate";

/// Profiles with fewer samples than this fall back to the static hint.
pub const MIN_SAMPLES: u64 = 8;

/// How the dispatch-time memory estimate was chosen, in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateSource {
    /// The job's `gpu_budget_override_mib` (footprint-revised
    /// resubmission).
    Override,
    /// Learned p95 from a converged profile.
    Learned,
    /// The destination's `gpu_memory_hint_mib` parameter or
    /// [`crate::orchestrator::DEFAULT_GPU_MEMORY_HINT_MIB`].
    Static,
}

impl EstimateSource {
    /// Stable snake_case name used in audits and metrics labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            EstimateSource::Override => "override",
            EstimateSource::Learned => "learned",
            EstimateSource::Static => "static",
        }
    }
}

/// Memory-hint resolution mode for the dispatch hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryHint {
    /// Always use the destination parameter / default (the pre-GYAN
    /// behaviour; the ablation baseline).
    #[default]
    Static,
    /// Use the learned per-`(tool, bucket)` p95 once a profile holds at
    /// least [`MIN_SAMPLES`] observations; fall back to static below that.
    Learned,
}

/// One `(tool, input bucket)` profile.
#[derive(Default)]
struct Profile {
    peak_mib: QuantileSketch,
    runtime_s: QuantileSketch,
    last_updated: f64,
}

/// Dispatch-time context held until the attempt concludes.
struct Pending {
    tool: String,
    bucket: u32,
    estimate_mib: u64,
    static_mib: u64,
    source: EstimateSource,
    declared_peak_mib: Option<u64>,
    dispatched_at: f64,
}

#[derive(Default)]
struct State {
    profiles: BTreeMap<(String, u32), Profile>,
    pending: BTreeMap<u64, Pending>,
}

/// Read-only snapshot of one profile, for ops surfaces and tests.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Tool id.
    pub tool: String,
    /// Power-of-two input-size bucket (see [`obs::sketch::size_bucket`]).
    pub bucket: u32,
    /// Human-readable bucket range, e.g. `"[2^10,2^11)MiB"`.
    pub bucket_label: String,
    /// Observations folded into this profile.
    pub samples: u64,
    /// Median observed peak GPU memory (MiB).
    pub peak_mib_p50: f64,
    /// 95th-percentile observed peak GPU memory (MiB) — the learned hint.
    pub peak_mib_p95: f64,
    /// Largest observed peak GPU memory (MiB).
    pub peak_mib_max: f64,
    /// Median observed runtime (seconds).
    pub runtime_s_p50: f64,
    /// 95th-percentile observed runtime (seconds).
    pub runtime_s_p95: f64,
    /// Virtual time of the newest observation.
    pub last_updated: f64,
}

/// Shared, thread-safe registry of per-`(tool, input bucket)` footprint
/// profiles. Clones share state.
#[derive(Clone, Default)]
pub struct FootprintRegistry {
    state: Arc<Mutex<State>>,
}

impl FootprintRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        FootprintRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fold one concluded attempt into the profile for `tool` at
    /// `input_mib`.
    pub fn observe(&self, tool: &str, input_mib: u64, peak_mib: f64, runtime_s: f64, now: f64) {
        let bucket = size_bucket(input_mib);
        let mut state = self.lock();
        let profile = state.profiles.entry((tool.to_string(), bucket)).or_default();
        profile.peak_mib.observe(peak_mib);
        profile.runtime_s.observe(runtime_s.max(0.0));
        profile.last_updated = now;
    }

    /// Record the dispatch-time decision for `job_id` so the matching
    /// [`FootprintRegistry::conclude`] can reconcile estimate vs.
    /// observation. A re-dispatch (resubmitted attempt) overwrites the
    /// previous attempt's pending entry.
    #[allow(clippy::too_many_arguments)]
    pub fn note_dispatch(
        &self,
        job_id: u64,
        tool: &str,
        input_mib: u64,
        estimate_mib: u64,
        static_mib: u64,
        source: EstimateSource,
        declared_peak_mib: Option<u64>,
        now: f64,
    ) {
        self.lock().pending.insert(
            job_id,
            Pending {
                tool: tool.to_string(),
                bucket: size_bucket(input_mib),
                estimate_mib,
                static_mib,
                source,
                declared_peak_mib,
                dispatched_at: now,
            },
        );
    }

    /// Drop the pending dispatch record for `job_id` without learning
    /// from it (CPU attempts, failed attempts).
    pub fn forget(&self, job_id: u64) {
        self.lock().pending.remove(&job_id);
    }

    /// Conclude the pending attempt for `job_id`. On success with a
    /// declared peak, the observation is folded into the profile, a
    /// [`FOOTPRINT_ESTIMATE_EVENT`] audit reconciling estimate vs. peak
    /// is emitted, and the `gyan_footprint_*` metrics are refreshed.
    /// Failed attempts only clear the pending record — a job killed by an
    /// undersized budget never reached its true peak, so learning from it
    /// would bias the profile low.
    pub fn conclude(&self, job_id: u64, ok: bool, now: f64, recorder: Option<&Recorder>) {
        let pending = match self.lock().pending.remove(&job_id) {
            Some(p) => p,
            None => return,
        };
        if !ok {
            return;
        }
        let peak = match pending.declared_peak_mib {
            Some(p) => p as f64,
            None => return,
        };
        let runtime = (now - pending.dispatched_at).max(0.0);
        let samples;
        {
            let mut state = self.lock();
            let profile = state.profiles.entry((pending.tool.clone(), pending.bucket)).or_default();
            profile.peak_mib.observe(peak);
            profile.runtime_s.observe(runtime);
            profile.last_updated = now;
            samples = profile.peak_mib.count();
        }
        if let Some(rec) = recorder {
            let err_pct =
                if peak > 0.0 { (pending.estimate_mib as f64 - peak) / peak * 100.0 } else { 0.0 };
            rec.event(
                FOOTPRINT_ESTIMATE_EVENT,
                [
                    ("job_id", Value::from(job_id)),
                    ("tool", pending.tool.as_str().into()),
                    ("bucket", bucket_label(pending.bucket).into()),
                    ("estimate_mib", pending.estimate_mib.into()),
                    ("static_mib", pending.static_mib.into()),
                    ("observed_peak_mib", peak.into()),
                    ("err_pct", err_pct.into()),
                    ("source", pending.source.as_str().into()),
                    ("samples", samples.into()),
                ],
            );
            self.export_metrics(rec.metrics());
        }
    }

    /// Learned memory estimate for `tool` at `input_mib`: the ceil'd p95
    /// of the profile's peak sketch once it holds at least [`MIN_SAMPLES`]
    /// observations, `None` otherwise (caller falls back to static).
    pub fn estimate(&self, tool: &str, input_mib: u64) -> Option<u64> {
        let bucket = size_bucket(input_mib);
        let state = self.lock();
        let profile = state.profiles.get(&(tool.to_string(), bucket))?;
        if profile.peak_mib.count() < MIN_SAMPLES {
            return None;
        }
        profile.peak_mib.quantile(0.95).map(|v| v.ceil() as u64)
    }

    /// Tool-wide estimate merging every input bucket — used where no job
    /// context exists ([`crate::orchestrator::admission_hint`]).
    pub fn estimate_tool(&self, tool: &str) -> Option<u64> {
        let state = self.lock();
        let mut merged: Option<QuantileSketch> = None;
        for ((t, _), profile) in state.profiles.iter() {
            if t != tool {
                continue;
            }
            match &mut merged {
                Some(m) => m.merge(&profile.peak_mib),
                None => merged = Some(profile.peak_mib.clone()),
            }
        }
        let merged = merged?;
        if merged.count() < MIN_SAMPLES {
            return None;
        }
        merged.quantile(0.95).map(|v| v.ceil() as u64)
    }

    /// A revised (larger) budget for a failed attempt that ran under
    /// `prev_mib`: the profile's observed max plus 25% headroom, and at
    /// least double the failed budget — so repeated footprint retries
    /// escalate geometrically even before the profile has seen a peak
    /// this large. `None` when nothing is known and no previous budget
    /// exists to double.
    pub fn revised_budget(&self, tool: &str, input_mib: u64, prev_mib: Option<u64>) -> Option<u64> {
        let bucket = size_bucket(input_mib);
        let profile_max = {
            let state = self.lock();
            state
                .profiles
                .get(&(tool.to_string(), bucket))
                .and_then(|p| p.peak_mib.max())
                .map(|m| (m * 1.25).ceil() as u64)
        };
        let doubled = prev_mib.map(|p| p.saturating_mul(2));
        match (profile_max, doubled) {
            (Some(m), Some(d)) => Some(m.max(d)),
            (Some(m), None) => Some(m),
            (None, Some(d)) => Some(d),
            (None, None) => None,
        }
    }

    /// Snapshots of every profile, ordered by `(tool, bucket)`.
    pub fn snapshot(&self) -> Vec<ProfileSnapshot> {
        let state = self.lock();
        state
            .profiles
            .iter()
            .map(|((tool, bucket), p)| ProfileSnapshot {
                tool: tool.clone(),
                bucket: *bucket,
                bucket_label: bucket_label(*bucket),
                samples: p.peak_mib.count(),
                peak_mib_p50: p.peak_mib.quantile(0.5).unwrap_or(0.0),
                peak_mib_p95: p.peak_mib.quantile(0.95).unwrap_or(0.0),
                peak_mib_max: p.peak_mib.max().unwrap_or(0.0),
                runtime_s_p50: p.runtime_s.quantile(0.5).unwrap_or(0.0),
                runtime_s_p95: p.runtime_s.quantile(0.95).unwrap_or(0.0),
                last_updated: p.last_updated,
            })
            .collect()
    }

    /// Export every profile as `gyan_footprint_*` gauges into `metrics`.
    pub fn export_metrics(&self, metrics: &obs::metrics::Registry) {
        metrics.set_help(
            "gyan_footprint_profiles",
            "Number of learned (tool, input-size bucket) footprint profiles.",
        );
        metrics
            .set_help("gyan_footprint_samples", "Observations folded into the footprint profile.");
        metrics.set_help(
            "gyan_footprint_peak_mib_p95",
            "Learned p95 of observed peak GPU memory (MiB) per tool and input bucket.",
        );
        metrics.set_help(
            "gyan_footprint_peak_mib_max",
            "Largest observed peak GPU memory (MiB) per tool and input bucket.",
        );
        metrics.set_help(
            "gyan_footprint_runtime_s_p50",
            "Median observed runtime (seconds) per tool and input bucket.",
        );
        let snaps = self.snapshot();
        metrics.set_gauge("gyan_footprint_profiles", snaps.len() as f64);
        for s in &snaps {
            let labels = format!("{{tool=\"{}\",bucket=\"{}\"}}", s.tool, s.bucket_label);
            metrics.set_gauge(&format!("gyan_footprint_samples{labels}"), s.samples as f64);
            metrics.set_gauge(&format!("gyan_footprint_peak_mib_p95{labels}"), s.peak_mib_p95);
            metrics.set_gauge(&format!("gyan_footprint_peak_mib_max{labels}"), s.peak_mib_max);
            metrics.set_gauge(&format!("gyan_footprint_runtime_s_p50{labels}"), s.runtime_s_p50);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FootprintRegistry {
        /// Pending dispatch records currently held (attempts in flight).
        pub(crate) fn pending_count(&self) -> usize {
            self.lock().pending.len()
        }
    }

    #[test]
    fn estimate_gated_on_min_samples() {
        let reg = FootprintRegistry::new();
        for i in 0..7 {
            reg.observe("racon_gpu", 1500, 900.0 + i as f64, 10.0, i as f64);
        }
        assert_eq!(reg.estimate("racon_gpu", 1500), None, "below threshold");
        reg.observe("racon_gpu", 1500, 907.0, 10.0, 7.0);
        let est = reg.estimate("racon_gpu", 1500).expect("converged");
        // p95 of 900..=907 within the sketch's 2% relative error.
        assert!((880..=930).contains(&est), "estimate {est}");
    }

    #[test]
    fn buckets_keep_sizes_apart() {
        let reg = FootprintRegistry::new();
        for i in 0..10 {
            reg.observe("bonito_gpu", 100, 500.0, 5.0, i as f64);
            reg.observe("bonito_gpu", 100_000, 40_000.0, 600.0, i as f64);
        }
        let small = reg.estimate("bonito_gpu", 100).unwrap();
        let large = reg.estimate("bonito_gpu", 100_000).unwrap();
        assert!(small < 600, "small-input estimate {small}");
        assert!(large > 30_000, "large-input estimate {large}");
        // Same bucket, different probe size: 100 and 120 MiB share [64,128).
        assert_eq!(reg.estimate("bonito_gpu", 120), Some(small));
    }

    #[test]
    fn estimate_tool_merges_buckets() {
        let reg = FootprintRegistry::new();
        for i in 0..5 {
            reg.observe("racon_gpu", 100, 500.0, 5.0, i as f64);
            reg.observe("racon_gpu", 10_000, 4000.0, 60.0, i as f64);
        }
        // Neither bucket alone meets the threshold; merged they do.
        assert_eq!(reg.estimate("racon_gpu", 100), None);
        let merged = reg.estimate_tool("racon_gpu").unwrap();
        assert!(merged > 3000, "merged p95 dominated by the heavy bucket: {merged}");
        assert_eq!(reg.estimate_tool("other_tool"), None);
    }

    #[test]
    fn conclude_learns_and_audits_successes_only() {
        let reg = FootprintRegistry::new();
        let rec = Recorder::new();
        reg.note_dispatch(1, "racon_gpu", 1500, 1024, 1024, EstimateSource::Static, Some(900), 0.0);
        reg.conclude(1, true, 12.5, Some(&rec));
        assert_eq!(reg.pending_count(), 0);
        let snaps = reg.snapshot();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].samples, 1);
        assert!((snaps[0].runtime_s_p50 - 12.5).abs() / 12.5 < 0.05);
        let events = rec.events();
        let audit = events.iter().find(|e| e.name == FOOTPRINT_ESTIMATE_EVENT).expect("audit");
        assert_eq!(audit.field("source").and_then(|v| v.as_str()), Some("static"));
        // Failed attempt: pending cleared, nothing learned.
        reg.note_dispatch(
            2,
            "racon_gpu",
            1500,
            1024,
            1024,
            EstimateSource::Static,
            Some(9000),
            13.0,
        );
        reg.conclude(2, false, 14.0, Some(&rec));
        assert_eq!(reg.snapshot()[0].samples, 1, "failure not folded in");
        assert_eq!(reg.pending_count(), 0);
    }

    #[test]
    fn forget_drops_pending_without_learning() {
        let reg = FootprintRegistry::new();
        reg.note_dispatch(7, "t", 10, 100, 100, EstimateSource::Static, Some(50), 0.0);
        reg.forget(7);
        reg.conclude(7, true, 1.0, None);
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn revised_budget_escalates() {
        let reg = FootprintRegistry::new();
        // Nothing known, no previous budget: no advice.
        assert_eq!(reg.revised_budget("t", 1000, None), None);
        // Nothing known yet, but a failed budget exists: double it.
        assert_eq!(reg.revised_budget("t", 1000, Some(1024)), Some(2048));
        // Profile knows a bigger peak: max * 1.25 wins over doubling.
        for i in 0..4 {
            reg.observe("t", 1000, 6000.0, 5.0, i as f64);
        }
        let revised = reg.revised_budget("t", 1000, Some(1024)).unwrap();
        assert!(revised >= 7000, "25% headroom over observed max: {revised}");
    }

    #[test]
    fn metrics_expose_profiles() {
        let reg = FootprintRegistry::new();
        for i in 0..3 {
            reg.observe("racon_gpu", 1500, 1000.0, 10.0, i as f64);
        }
        let metrics = obs::metrics::Registry::new();
        reg.export_metrics(&metrics);
        assert_eq!(metrics.gauge_value("gyan_footprint_profiles"), Some(1.0));
        assert_eq!(
            metrics.gauge_value(
                "gyan_footprint_samples{tool=\"racon_gpu\",bucket=\"[1024,2048)MiB\"}"
            ),
            Some(3.0)
        );
        let text = metrics.render_prometheus();
        assert!(text.contains("# HELP gyan_footprint_peak_mib_p95"), "{text}");
        assert!(text.contains("gyan_footprint_samples{tool=\"racon_gpu\""), "{text}");
    }
}
