//! Seeded scenario generation.
//!
//! A [`Scenario`] is everything one simulation run needs: topology, queue
//! shape, the tool mix, workflow shapes, submission schedule, and the
//! fault plan. It is derived *only* from the seed, so a failure report
//! carrying `SIMTEST_SEED=<n>` reconstructs the run bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The simulated users jobs are attributed to (fair-share actors).
pub const USERS: &[&str] = &["alice", "bob", "carol"];

/// Which simulated tool a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolKind {
    /// A trivial CPU tool (no requirements, instant).
    Echo,
    /// CPU racon polishing (no GPU requirement).
    RaconCpu,
    /// GPU racon; `pinned` requests a specific minor via the
    /// `<requirement version>` attribute.
    RaconGpu {
        /// Requested minor, when the wrapper pins one.
        pinned: Option<u32>,
    },
    /// GPU bonito basecalling, optionally pinned the same way.
    Bonito {
        /// Requested minor, when the wrapper pins one.
        pinned: Option<u32>,
    },
}

impl ToolKind {
    /// The installed tool id this kind submits.
    pub fn tool_id(self) -> String {
        match self {
            ToolKind::Echo => "sim_echo".to_string(),
            ToolKind::RaconCpu => "sim_racon_cpu".to_string(),
            ToolKind::RaconGpu { pinned: None } => "sim_racon_gpu".to_string(),
            ToolKind::RaconGpu { pinned: Some(m) } => format!("sim_racon_gpu_p{m}"),
            ToolKind::Bonito { pinned: None } => "sim_bonito".to_string(),
            ToolKind::Bonito { pinned: Some(m) } => format!("sim_bonito_p{m}"),
        }
    }

    /// Whether the wrapper declares a GPU requirement.
    pub fn wants_gpu(self) -> bool {
        matches!(self, ToolKind::RaconGpu { .. } | ToolKind::Bonito { .. })
    }
}

/// An execution fault queued for a job's first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunnerFault {
    /// Container runtime failed to launch (exit 125).
    ContainerLaunch,
    /// OOM-killed attempt (exit 137).
    OutOfMemory,
    /// Segfaulting attempt (exit 139).
    Crash,
}

/// One plain (non-workflow) submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Index into [`USERS`].
    pub user: usize,
    /// Submission priority (0–9).
    pub priority: u8,
    /// Tool to run.
    pub kind: ToolKind,
    /// Fault injected on this job's first execution attempt, if any.
    pub fault: Option<RunnerFault>,
}

/// Shape of a submitted DAG workflow (steps are all echo tools, so the
/// shapes stress the scheduler, not the tools).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagShape {
    /// A strict chain of `n` steps.
    Chain(usize),
    /// The classic prep → {left, right} → join diamond.
    Diamond,
    /// One root fanning out to `n` independent children.
    FanOut(usize),
}

impl DagShape {
    /// Number of steps the shape expands to.
    pub fn steps(self) -> usize {
        match self {
            DagShape::Chain(n) => n,
            DagShape::Diamond => 4,
            DagShape::FanOut(n) => n + 1,
        }
    }
}

/// The scenario's fault plan (beyond per-job [`RunnerFault`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSpec {
    /// Number of SMI queries that fail before recovering.
    pub smi_query_failures: u32,
    /// Freeze the SMI snapshot for the duration of this wave (stale
    /// observations), thawing before the next.
    pub freeze_smi_at_wave: Option<usize>,
    /// Skip the plans of this wave instead of executing them (mid-wave
    /// discard).
    pub discard_at_wave: Option<usize>,
}

impl FaultSpec {
    /// Whether any fault is armed.
    pub fn any(&self) -> bool {
        self.smi_query_failures > 0
            || self.freeze_smi_at_wave.is_some()
            || self.discard_at_wave.is_some()
    }
}

/// A fully specified simulation run, derived deterministically from a
/// seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The generating seed (kept for failure reports).
    pub seed: u64,
    /// GPUs on the node (0 = CPU-only host).
    pub gpu_count: u32,
    /// Modeled handler workers = wave width.
    pub workers: u32,
    /// Queue admission capacity.
    pub queue_capacity: usize,
    /// Optional per-user admission cap.
    pub per_user_limit: Option<usize>,
    /// Whether the engine resubmits failed GPU jobs to the CPU
    /// destination.
    pub resubmit_to_cpu: bool,
    /// Plain submissions, in submission order.
    pub jobs: Vec<JobSpec>,
    /// Workflow submissions (submitted after the plain jobs).
    pub dags: Vec<DagShape>,
    /// The fault plan.
    pub faults: FaultSpec,
}

impl Scenario {
    /// Generate the scenario for `seed`. Same seed → same scenario,
    /// always; this is the reproduction contract.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Two-GPU nodes dominate (the paper's K80 board); CPU-only and
        // single-GPU hosts keep the degraded paths honest.
        let gpu_count = *pick(&mut rng, &[2, 2, 2, 1, 0]);
        let workers = rng.gen_range(1..=4u32);
        let queue_capacity = if rng.gen_bool(0.25) { rng.gen_range(2..=4usize) } else { 64 };
        let per_user_limit = if rng.gen_bool(0.2) { Some(rng.gen_range(1..=3usize)) } else { None };
        let resubmit_to_cpu = rng.gen_bool(0.6);

        let n_jobs = rng.gen_range(2..=10usize);
        let jobs = (0..n_jobs).map(|_| Self::gen_job(&mut rng, gpu_count)).collect();

        let n_dags = rng.gen_range(0..=2usize);
        let dags = (0..n_dags)
            .map(|_| match rng.gen_range(0..3u32) {
                0 => DagShape::Chain(rng.gen_range(2..=4usize)),
                1 => DagShape::Diamond,
                _ => DagShape::FanOut(rng.gen_range(2..=3usize)),
            })
            .collect();

        let faults = FaultSpec {
            smi_query_failures: if rng.gen_bool(0.4) { rng.gen_range(1..=3u32) } else { 0 },
            freeze_smi_at_wave: if rng.gen_bool(0.3) {
                Some(rng.gen_range(0..=2usize))
            } else {
                None
            },
            discard_at_wave: if rng.gen_bool(0.3) { Some(rng.gen_range(0..=2usize)) } else { None },
        };

        Scenario {
            seed,
            gpu_count,
            workers,
            queue_capacity,
            per_user_limit,
            resubmit_to_cpu,
            jobs,
            dags,
            faults,
        }
    }

    fn gen_job(rng: &mut StdRng, gpu_count: u32) -> JobSpec {
        let user = rng.gen_range(0..USERS.len());
        let priority = rng.gen_range(0..=9u8);
        let pin = |rng: &mut StdRng| {
            if gpu_count > 0 && rng.gen_bool(0.4) {
                Some(rng.gen_range(0..gpu_count))
            } else {
                None
            }
        };
        let kind = match rng.gen_range(0..5u32) {
            0 => ToolKind::Echo,
            1 => ToolKind::RaconCpu,
            2 | 3 => ToolKind::RaconGpu { pinned: pin(rng) },
            _ => ToolKind::Bonito { pinned: pin(rng) },
        };
        let fault = if rng.gen_bool(0.25) {
            Some(*pick(
                rng,
                &[RunnerFault::ContainerLaunch, RunnerFault::OutOfMemory, RunnerFault::Crash],
            ))
        } else {
            None
        };
        JobSpec { user, priority, kind, fault }
    }

    /// One-line human summary for failure reports.
    pub fn describe(&self) -> String {
        let faulted = self.jobs.iter().filter(|j| j.fault.is_some()).count();
        format!(
            "gpus={} workers={} capacity={} per_user={:?} resubmit={} jobs={} \
             (gpu {}, faulted {}) dags={:?} smi_failures={} freeze@{:?} discard@{:?}",
            self.gpu_count,
            self.workers,
            self.queue_capacity,
            self.per_user_limit,
            self.resubmit_to_cpu,
            self.jobs.len(),
            self.jobs.iter().filter(|j| j.kind.wants_gpu()).count(),
            faulted,
            self.dags,
            self.faults.smi_query_failures,
            self.faults.freeze_smi_at_wave,
            self.faults.discard_at_wave,
        )
    }
}

fn pick<'a, T>(rng: &mut StdRng, options: &'a [T]) -> &'a T {
    &options[rng.gen_range(0..options.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn seeds_produce_varied_scenarios() {
        let scenarios: Vec<Scenario> = (0..100).map(Scenario::generate).collect();
        assert!(scenarios.iter().any(|s| s.gpu_count == 0), "some CPU-only hosts");
        assert!(scenarios.iter().any(|s| s.gpu_count == 2), "some dual-GPU hosts");
        assert!(scenarios.iter().any(|s| s.faults.any()), "some faulted runs");
        assert!(scenarios.iter().any(|s| !s.dags.is_empty()), "some workflow runs");
        assert!(
            scenarios.iter().any(|s| s.jobs.iter().any(|j| j.fault.is_some())),
            "some runner faults"
        );
    }

    #[test]
    fn pinned_jobs_only_appear_with_gpus() {
        for seed in 0..200 {
            let s = Scenario::generate(seed);
            for job in &s.jobs {
                if let ToolKind::RaconGpu { pinned: Some(m) }
                | ToolKind::Bonito { pinned: Some(m) } = job.kind
                {
                    assert!(m < s.gpu_count, "seed {seed}: pin {m} on {} gpus", s.gpu_count);
                }
            }
        }
    }
}
