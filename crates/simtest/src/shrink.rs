//! Scenario minimization.
//!
//! Given a failing scenario, try structurally smaller variants (fewer
//! jobs, fewer workflows, fewer faults) that still fail the same way, and
//! iterate to a fixpoint. Everything stays deterministic: candidates are
//! derived from the scenario value, never from fresh randomness, so the
//! shrink path itself reproduces from the seed.

use crate::harness::run_scenario;
use crate::scenario::Scenario;
use crate::SimOptions;

/// Cap on candidate evaluations, so shrinking a pathological scenario
/// cannot dominate the test run.
const MAX_SHRINK_RUNS: usize = 200;

/// Smaller variants of `s`, most aggressive first.
fn candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // Halve the job list, then drop one job at a time (from the back, so
    // earlier fair-share ordering is preserved).
    if s.jobs.len() > 1 {
        let mut half = s.clone();
        half.jobs.truncate(s.jobs.len() / 2);
        out.push(half);
    }
    if !s.jobs.is_empty() {
        let mut one_less = s.clone();
        one_less.jobs.pop();
        out.push(one_less);
    }
    // Drop each workflow.
    for i in 0..s.dags.len() {
        let mut fewer = s.clone();
        fewer.dags.remove(i);
        out.push(fewer);
    }
    // Clear per-job runner faults.
    if s.jobs.iter().any(|j| j.fault.is_some()) {
        let mut clean = s.clone();
        for job in &mut clean.jobs {
            job.fault = None;
        }
        out.push(clean);
    }
    // Clear cluster-level fault fields one at a time.
    if s.faults.smi_query_failures > 0 {
        let mut f = s.clone();
        f.faults.smi_query_failures = 0;
        out.push(f);
    }
    if s.faults.freeze_smi_at_wave.is_some() {
        let mut f = s.clone();
        f.faults.freeze_smi_at_wave = None;
        out.push(f);
    }
    if s.faults.discard_at_wave.is_some() {
        let mut f = s.clone();
        f.faults.discard_at_wave = None;
        out.push(f);
    }
    // Relax queue pressure back to defaults.
    if s.queue_capacity != 64 {
        let mut relaxed = s.clone();
        relaxed.queue_capacity = 64;
        out.push(relaxed);
    }
    if s.per_user_limit.is_some() {
        let mut relaxed = s.clone();
        relaxed.per_user_limit = None;
        out.push(relaxed);
    }
    out
}

/// Shrink `scenario` to a locally minimal variant that still fails under
/// `options` with the same `reason` — a smaller scenario that breaks
/// something else is a different bug. If nothing smaller fails so, the
/// input comes back unchanged.
pub fn shrink(scenario: &Scenario, options: &SimOptions, reason: &str) -> Scenario {
    let mut best = scenario.clone();
    let mut runs = 0usize;
    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            runs += 1;
            if runs > MAX_SHRINK_RUNS {
                return best;
            }
            if run_scenario(&candidate, options).is_err_and(|failure| failure.reason == reason) {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultSpec, JobSpec, RunnerFault, ToolKind};

    fn scenario_with(jobs: usize) -> Scenario {
        Scenario {
            seed: 0,
            gpu_count: 2,
            workers: 2,
            queue_capacity: 64,
            per_user_limit: None,
            resubmit_to_cpu: false,
            jobs: (0..jobs)
                .map(|i| JobSpec {
                    user: i % 3,
                    priority: 0,
                    kind: ToolKind::Echo,
                    fault: if i == 0 { Some(RunnerFault::Crash) } else { None },
                })
                .collect(),
            dags: Vec::new(),
            faults: FaultSpec { smi_query_failures: 2, ..FaultSpec::default() },
        }
    }

    #[test]
    fn candidates_are_strictly_smaller_or_less_faulty() {
        let s = scenario_with(6);
        for candidate in candidates(&s) {
            let shrunk_jobs = candidate.jobs.len() < s.jobs.len();
            let shrunk_faults = candidate.faults.smi_query_failures < s.faults.smi_query_failures
                || candidate.jobs.iter().filter(|j| j.fault.is_some()).count()
                    < s.jobs.iter().filter(|j| j.fault.is_some()).count();
            assert!(shrunk_jobs || shrunk_faults, "candidate did not shrink: {candidate:?}");
        }
    }

    #[test]
    fn passing_scenario_shrinks_to_itself() {
        let s = scenario_with(2);
        let options = SimOptions::default();
        assert!(run_scenario(&s, &options).is_ok(), "fixture passes under correct options");
        assert_eq!(shrink(&s, &options, "no_leaked_leases"), s);
    }
}
