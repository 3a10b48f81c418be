//! What every workload hands back to `main`: one [`Repeat`] per in-run
//! repeat, plus the helpers that turn per-job virtual timestamps into the
//! user-visible virtual-time metrics.

use crate::stats::percentile;
use std::time::Instant;

/// Metrics computed on the virtual clock. They depend only on the seed,
/// so `main` requires them bit-identical across the repeats of one run —
/// a free determinism oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Virt {
    pub slowdown_p50: f64,
    pub slowdown_p99: f64,
    pub turnaround_p99_vs: f64,
    pub makespan_vs: f64,
    pub gpu_served_pct: f64,
    pub queue_wait_p50_vs: f64,
    pub queue_wait_p99_vs: f64,
}

/// One concluded job as the user saw it, in virtual seconds.
pub struct JobTimes {
    /// Entered the system (open loops: was due to).
    pub submit: f64,
    /// The attempt that concluded started.
    pub start: f64,
    /// Reached a terminal state.
    pub end: f64,
    /// The job's own runtime, had it never waited.
    pub runtime: f64,
    /// The tool declares a GPU requirement.
    pub gpu_tool: bool,
    /// The job concluded on a GPU destination.
    pub on_gpu: bool,
}

impl Virt {
    /// Exact percentiles over every job: no histogram buckets involved.
    pub fn from_jobs(jobs: &[JobTimes], makespan_vs: f64) -> Virt {
        let mut slowdown: Vec<f64> =
            jobs.iter().map(|j| (j.end - j.submit) / j.runtime.max(1e-9)).collect();
        let mut turnaround: Vec<f64> = jobs.iter().map(|j| j.end - j.submit).collect();
        let mut wait: Vec<f64> = jobs.iter().map(|j| (j.start - j.submit).max(0.0)).collect();
        let gpu_tools = jobs.iter().filter(|j| j.gpu_tool).count();
        let served = jobs.iter().filter(|j| j.gpu_tool && j.on_gpu).count();
        Virt {
            slowdown_p50: percentile(&mut slowdown, 0.5),
            slowdown_p99: percentile(&mut slowdown, 0.99),
            turnaround_p99_vs: percentile(&mut turnaround, 0.99),
            makespan_vs,
            gpu_served_pct: 100.0 * served as f64 / gpu_tools.max(1) as f64,
            queue_wait_p50_vs: percentile(&mut wait, 0.5),
            queue_wait_p99_vs: percentile(&mut wait, 0.99),
        }
    }
}

/// One in-run repeat: the stack was built from scratch, the timed
/// section ran once, and every check passed.
pub struct Repeat {
    /// Stack build, XML parses, schedule/dataset generation (untimed
    /// part): one sample per set-up, [`SETUPS_PER_REPEAT`] per repeat.
    pub setup_s: Vec<f64>,
    /// Wall-clock length of the timed section.
    pub wall_s: f64,
    /// Jobs that arrived (concluded + rejected).
    pub jobs: u64,
    /// Jobs that did not end `ok` (terminal error, cancelled, rejected).
    pub failed: u64,
    /// The timed section cut into consecutive segments `(wall µs, jobs)`
    /// — one trip, one scheduler step, one tool run — that do identical
    /// work in every repeat of a seed, which is what lets `main` take each
    /// segment's fastest repeat.
    pub segments: Vec<(f64, u64)>,
    pub virt: Virt,
    /// Per-layer values this repeat measured (traced repeats only).
    pub layer: Vec<(&'static str, f64)>,
}

/// What the probes of a traced run call into: an idle node of the
/// workload's shape (and its fleet, if it has one).
pub struct ProbeTargets {
    pub cluster: gpusim::GpuCluster,
    pub fleet: Option<fleet::Fleet>,
}

/// Set-ups timed per repeat. A set-up takes milliseconds, so one sample
/// per repeat would make `setup_s` the noisiest number of the run.
pub const SETUPS_PER_REPEAT: usize = 5;

/// Build the stack [`SETUPS_PER_REPEAT`] times, timing each; the last
/// one built is the one the repeat runs on.
pub fn timed_setups<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(SETUPS_PER_REPEAT);
    loop {
        let start = Instant::now();
        let stack = build();
        samples.push(start.elapsed().as_secs_f64());
        if samples.len() == SETUPS_PER_REPEAT {
            return (stack, samples);
        }
    }
}

/// Distinct `AllocationReason`s among the decision audits the recorders
/// still retain.
pub fn allocation_reasons<'a>(recorders: impl IntoIterator<Item = &'a obs::Recorder>) -> usize {
    let reasons: std::collections::BTreeSet<String> = recorders
        .into_iter()
        .flat_map(|r| r.events_named("gyan.allocation.decision"))
        .filter_map(|e| e.field("reason").and_then(|v| v.as_str()).map(str::to_string))
        .collect();
    reasons.len()
}

/// Wall µs of one Prometheus scrape of `recorder`'s registry: the read
/// side of the metrics the run just wrote.
pub fn scrape_us(recorder: &obs::Recorder) -> f64 {
    let start = Instant::now();
    std::hint::black_box(recorder.metrics().render_prometheus());
    start.elapsed().as_secs_f64() * 1e6
}

/// A failed correctness check: the run prints no result and exits non-zero.
#[derive(Debug)]
pub struct CheckFailed(pub String);

pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), CheckFailed> {
    if ok {
        Ok(())
    } else {
        Err(CheckFailed(what()))
    }
}

/// SplitMix64 step: derives independent sub-seeds from `--seed`.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
