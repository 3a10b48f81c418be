//! Seed-determined load scenarios: everything about a soak run —
//! topology, arrival shape, job mix, and fault mix — derives from one
//! `u64`, so any failure reproduces from `LOADTEST_SEED=<n>` alone.

use crate::arrival::{ArrivalProcess, Burst, LoadProfile};
use crate::mix::{BoundedPareto, UserMix};
use fleet::{Fleet, NodeClass};
use galaxy::queue::DispatchMode;
use gpusim::{GpuArch, GpuCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtest::driver::Hardware;

/// Tool id of the CPU-only synthetic tool the driver installs.
pub const CPU_TOOL_ID: &str = "load_cpu";
/// Tool id of the GPU wrapper tool (with the paper's
/// `$__galaxy_gpu_enabled__` conditional) the driver installs.
pub const GPU_TOOL_ID: &str = "load_gpu";

/// Cluster shape the scenario runs against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// One node with `gpus` devices behind `install_gyan`.
    SingleNode {
        /// GPU count on the node.
        gpus: u32,
    },
    /// A heterogeneous multi-node fleet behind `install_fleet`.
    Fleet {
        /// Tesla K80 node count.
        k80: u32,
        /// A100 node count.
        a100: u32,
    },
}

impl Topology {
    /// The simulated hardware of this shape, ready for
    /// [`simtest::driver::Gpus::install`].
    pub fn hardware(&self) -> Hardware {
        match *self {
            Topology::SingleNode { gpus } => {
                Hardware::Node(GpuCluster::node(GpuArch::tesla_k80(), gpus))
            }
            Topology::Fleet { k80, a100 } => Hardware::Fleet(
                Fleet::builder().nodes(NodeClass::k80(), k80).nodes(NodeClass::a100(), a100),
            ),
        }
    }
}

/// One generated submission: when, who, what, and how long it "runs"
/// on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadJob {
    /// Arrival time on the virtual clock (seconds).
    pub at: f64,
    /// Submitting user (`u000042`-style, stable across runs).
    pub user: String,
    /// Tool id ([`CPU_TOOL_ID`] or [`GPU_TOOL_ID`]).
    pub tool: &'static str,
    /// Virtual runtime charged by the wave-time model (seconds).
    pub runtime_s: f64,
    /// Inject a failure on any GPU-enabled attempt (the CPU resubmit
    /// then succeeds), exercising the resubmission ladder under load.
    pub fail_on_gpu: bool,
    /// Queue priority (0 = normal).
    pub priority: u8,
    /// Declared input size (MiB); 0 when the scenario carries no
    /// [`MemoryModel`].
    pub input_mib: u64,
    /// Peak GPU memory (MiB) the job touches on a GPU attempt; 0 when
    /// the scenario carries no [`MemoryModel`] (the OOM rule is off).
    pub peak_mib: u64,
}

/// The GPU memory behaviour of a scenario's synthetic GPU jobs: input
/// sizes from a heavy-tailed draw, peak memory tied to the input-size
/// bucket (so footprint profiles can converge), and a CPU slowdown for
/// jobs pushed off the GPU.
///
/// Peaks are quantized per power-of-two input bucket and jittered by
/// ±`noise`: every peak a profile observes sits within a narrow band of
/// the bucket's base footprint, which keeps the learned p95 within the
/// paper-experiment accuracy bound (with `noise = 0.07`, the worst
/// peak/p95 ratio is 1.07/0.93 ≈ 1.15 < 1.2) while still leaving a
/// tail of attempts that exceed it and exercise the revised-budget
/// retry.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModel {
    /// Input-size distribution (MiB).
    pub input: BoundedPareto,
    /// Peak GPU memory per input MiB (applied to the bucket midpoint).
    pub peak_per_input_mib: f64,
    /// Relative jitter applied to each job's peak (fraction, e.g. 0.07).
    pub noise: f64,
    /// Runtime multiplier for a memory-model GPU job that ends up
    /// running on CPU (fallback or rejection) — the cost the learned
    /// right-sizing loop is trying to avoid.
    pub cpu_slowdown: f64,
}

impl Default for MemoryModel {
    fn default() -> Self {
        MemoryModel {
            // Heavy-tailed inputs: most jobs fit a ~1 GiB static hint,
            // a few percent land in buckets whose footprint exceeds it.
            input: BoundedPareto { xm: 64.0, cap: 8_192.0, alpha: 1.3 },
            peak_per_input_mib: 0.75,
            noise: 0.07,
            cpu_slowdown: 6.0,
        }
    }
}

impl MemoryModel {
    /// Deterministic peak for `input_mib` given a jitter draw
    /// `u ∈ [-1, 1]`: the bucket midpoint's footprint, jittered.
    fn peak_for(&self, input_mib: u64, u: f64) -> u64 {
        let bucket = obs::sketch::size_bucket(input_mib);
        let midpoint_mib = 1.5 * (1u64 << bucket.min(62)) as f64;
        let base = midpoint_mib * self.peak_per_input_mib;
        (base * (1.0 + self.noise * u)).round().max(1.0) as u64
    }
}

/// Full description of one load-test run. Construct via the named
/// shapes ([`LoadScenario::diurnal`] & co.) or literally for custom
/// sweeps; [`LoadScenario::generate`] expands it into the concrete,
/// seed-determined submission schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadScenario {
    /// Generating seed: the whole schedule derives from this.
    pub seed: u64,
    /// Shape name, for reports and failure messages.
    pub name: &'static str,
    /// Registered user population size.
    pub users: usize,
    /// Arrival horizon in virtual seconds (jobs arrive in `[0, duration_s)`).
    pub duration_s: f64,
    /// Time-varying arrival rate.
    pub profile: LoadProfile,
    /// Heavy-tailed virtual-runtime distribution.
    pub runtime: BoundedPareto,
    /// Power-law skew of submissions across the user population.
    pub user_skew: f64,
    /// Fraction of jobs using the GPU wrapper tool.
    pub gpu_fraction: f64,
    /// Fraction of GPU jobs that fail their GPU-enabled attempts.
    pub gpu_fail_fraction: f64,
    /// Queue-engine wave width (worker count).
    pub workers: u32,
    /// Cluster shape.
    pub topology: Topology,
    /// Queue admission capacity.
    pub capacity: usize,
    /// Dispatch backend; [`DispatchMode::Event`] is the only one. The
    /// field stays only because `benchmark/src/queue_day.rs` names it
    /// (ROADMAP 1(b) deletes it with `QueueConfig::dispatch`).
    pub dispatch: DispatchMode,
    /// GPU memory model for synthetic GPU jobs. `None` (the default for
    /// every named shape) disables the OOM rule and keeps schedules
    /// byte-identical to pre-memory-model runs; `Some` gives each GPU
    /// job an input size and a peak footprint drawn from a *separate*
    /// salted RNG stream, so enabling it never perturbs arrival times,
    /// users, runtimes, or fault flags.
    pub memory: Option<MemoryModel>,
}

impl LoadScenario {
    /// A healthy day of load: diurnal sinusoid, ~1 job per user over
    /// the day, GPU minority, provisioned so every SLO stays quiet.
    pub fn diurnal(seed: u64, users: usize) -> Self {
        let duration_s = 86_400.0;
        LoadScenario {
            seed,
            name: "diurnal",
            users,
            duration_s,
            profile: LoadProfile {
                base_rate: users as f64 / duration_s,
                diurnal_amplitude: 0.6,
                period_s: duration_s,
                bursts: Vec::new(),
            },
            runtime: BoundedPareto { xm: 0.5, cap: 15.0, alpha: 1.6 },
            user_skew: 2.5,
            gpu_fraction: 0.25,
            gpu_fail_fraction: 0.0,
            workers: 32,
            topology: Topology::SingleNode { gpus: 32 },
            capacity: 16_384,
            dispatch: DispatchMode::Event,
            memory: None,
        }
    }

    /// Six healthy hours punctuated by two 15-minute 4× bursts. The
    /// runtime cap is tightened so wave barriers stay short enough for
    /// burst arrivals to keep their waits inside the SLO.
    pub fn burst(seed: u64, users: usize) -> Self {
        let duration_s = 21_600.0;
        LoadScenario {
            seed,
            name: "burst",
            users,
            duration_s,
            profile: LoadProfile {
                base_rate: users as f64 / duration_s,
                diurnal_amplitude: 0.3,
                period_s: duration_s,
                bursts: vec![
                    Burst { start_s: 5_400.0, duration_s: 900.0, multiplier: 4.0 },
                    Burst { start_s: 14_400.0, duration_s: 900.0, multiplier: 4.0 },
                ],
            },
            runtime: BoundedPareto { xm: 0.5, cap: 8.0, alpha: 1.6 },
            user_skew: 2.0,
            gpu_fraction: 0.25,
            gpu_fail_fraction: 0.0,
            workers: 32,
            topology: Topology::SingleNode { gpus: 32 },
            capacity: 16_384,
            dispatch: DispatchMode::Event,
            memory: None,
        }
    }

    /// A fleet too small for its arrival rate: one worker serving a
    /// stream that outpaces it, so the backlog — and queue-wait p99 —
    /// grows without bound until `queue-wait-p99` fires.
    pub fn under_provisioned(seed: u64, users: usize) -> Self {
        let duration_s = 1_800.0;
        LoadScenario {
            seed,
            name: "under-provisioned",
            users,
            duration_s,
            profile: LoadProfile {
                base_rate: users as f64 / duration_s,
                diurnal_amplitude: 0.2,
                period_s: duration_s,
                bursts: Vec::new(),
            },
            runtime: BoundedPareto { xm: 0.5, cap: 15.0, alpha: 1.6 },
            user_skew: 2.0,
            gpu_fraction: 0.2,
            gpu_fail_fraction: 0.0,
            workers: 1,
            topology: Topology::SingleNode { gpus: 1 },
            capacity: 8_192,
            dispatch: DispatchMode::Event,
            memory: None,
        }
    }

    /// A cluster whose GPU attempts mostly fail: every failed attempt
    /// resubmits down the ladder to CPU, driving the resubmission rate
    /// over the `resubmission-burn` SLO threshold. The horizon scales
    /// with the population (fixed ~5 arrivals/s) because the SLO this
    /// shape must breach is a *rate* — a population-scaled rate would
    /// stop firing at small smoke-test populations.
    pub fn gpu_flaky(seed: u64, users: usize) -> Self {
        let duration_s = (users as f64 / 5.0).max(60.0);
        LoadScenario {
            seed,
            name: "gpu-flaky",
            users,
            duration_s,
            profile: LoadProfile {
                base_rate: users as f64 / duration_s,
                diurnal_amplitude: 0.0,
                period_s: 0.0,
                bursts: Vec::new(),
            },
            runtime: BoundedPareto { xm: 0.2, cap: 2.0, alpha: 1.4 },
            user_skew: 2.0,
            gpu_fraction: 0.9,
            gpu_fail_fraction: 0.9,
            workers: 4,
            topology: Topology::SingleNode { gpus: 4 },
            capacity: 8_192,
            dispatch: DispatchMode::Event,
            memory: None,
        }
    }

    /// A healthy diurnal hour against a heterogeneous multi-node fleet
    /// (`install_fleet` placement instead of single-node GYAN).
    pub fn fleet(seed: u64, users: usize) -> Self {
        let duration_s = 3_600.0;
        LoadScenario {
            seed,
            name: "fleet-diurnal",
            users,
            duration_s,
            profile: LoadProfile {
                base_rate: users as f64 / duration_s,
                diurnal_amplitude: 0.4,
                period_s: duration_s,
                bursts: Vec::new(),
            },
            runtime: BoundedPareto { xm: 0.5, cap: 10.0, alpha: 1.6 },
            user_skew: 2.0,
            gpu_fraction: 0.3,
            gpu_fail_fraction: 0.0,
            workers: 8,
            topology: Topology::Fleet { k80: 2, a100: 2 },
            capacity: 8_192,
            dispatch: DispatchMode::Event,
            memory: None,
        }
    }

    /// Attach the stock [`MemoryModel`] (builder form for sweeps).
    pub fn with_memory_model(mut self) -> Self {
        self.memory = Some(MemoryModel::default());
        self
    }

    /// Expand into the concrete submission schedule: arrival times from
    /// the thinned-Poisson process, users from the skewed mix, runtimes
    /// from the bounded Pareto, GPU/fault flags from Bernoulli draws —
    /// all from `self.seed`, in one deterministic pass.
    pub fn generate(&self) -> Vec<LoadJob> {
        // Separate streams for arrival times and job attributes so the
        // attribute draws can't perturb inter-arrival statistics.
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Memory draws come from a third, salted stream: attaching a
        // MemoryModel must not perturb any draw of the base schedule.
        let mut mem_rng = StdRng::seed_from_u64(self.seed ^ 0xF00D_F007_F007_F00D);
        let mix = UserMix { users: self.users, skew: self.user_skew };
        ArrivalProcess::new(self.profile.clone(), self.duration_s, self.seed)
            .map(|at| {
                let user = format!("u{:06}", mix.sample(&mut rng));
                let gpu = rng.gen_bool(self.gpu_fraction);
                let (input_mib, peak_mib) = match (&self.memory, gpu) {
                    (Some(model), true) => {
                        let input = model.input.sample(&mut mem_rng).round().max(1.0) as u64;
                        let jitter: f64 = mem_rng.gen_range(-1.0..=1.0);
                        (input, model.peak_for(input, jitter))
                    }
                    _ => (0, 0),
                };
                LoadJob {
                    at,
                    user,
                    tool: if gpu { GPU_TOOL_ID } else { CPU_TOOL_ID },
                    runtime_s: self.runtime.sample(&mut rng),
                    fail_on_gpu: gpu && rng.gen_bool(self.gpu_fail_fraction),
                    priority: if rng.gen_bool(0.05) { rng.gen_range(1..=3u8) } else { 0 },
                    input_mib,
                    peak_mib,
                }
            })
            .collect()
    }

    /// One-line description for reports and failure messages.
    pub fn describe(&self) -> String {
        let topology = match &self.topology {
            Topology::SingleNode { gpus } => format!("1 node × {gpus} GPU"),
            Topology::Fleet { k80, a100 } => format!("fleet {k80}×k80 + {a100}×a100"),
        };
        format!(
            "{} seed={} users={} horizon={}s rate={:.3}/s workers={} {} gpu={:.0}% fail={:.0}%",
            self.name,
            self.seed,
            self.users,
            self.duration_s,
            self.profile.base_rate,
            self.workers,
            topology,
            self.gpu_fraction * 100.0,
            self.gpu_fail_fraction * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let scenario = LoadScenario::diurnal(17, 2_000);
        assert_eq!(scenario.generate(), scenario.generate());
        let other = LoadScenario::diurnal(18, 2_000);
        assert_ne!(scenario.generate(), other.generate());
    }

    #[test]
    fn schedule_respects_the_scenario_envelope() {
        let scenario = LoadScenario::burst(3, 5_000);
        let jobs = scenario.generate();
        assert!(!jobs.is_empty());
        for job in &jobs {
            assert!((0.0..scenario.duration_s).contains(&job.at));
            assert!(job.runtime_s >= scenario.runtime.xm && job.runtime_s <= scenario.runtime.cap);
            assert!(!job.fail_on_gpu, "burst scenario injects no faults");
        }
        // The base rate contributes ~one job per user over the horizon;
        // the two 4× burst windows add roughly another quarter on top.
        let n = jobs.len() as f64;
        assert!((4_000.0..8_000.0).contains(&n), "{n} arrivals for 5000 users");
    }

    #[test]
    fn memory_model_rides_a_separate_stream() {
        let base = LoadScenario::diurnal(17, 2_000);
        let modeled = base.clone().with_memory_model();
        let a = base.generate();
        let b = modeled.generate();
        assert_eq!(a.len(), b.len(), "same arrival schedule");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.at, &x.user, x.tool, x.runtime_s, x.fail_on_gpu, x.priority),
                (y.at, &y.user, y.tool, y.runtime_s, y.fail_on_gpu, y.priority),
                "base draws must be untouched by the memory stream"
            );
            assert_eq!((x.input_mib, x.peak_mib), (0, 0), "no model, no sizes");
        }
        let model = MemoryModel::default();
        for job in b.iter().filter(|j| j.tool == GPU_TOOL_ID) {
            assert!(job.input_mib >= model.input.xm as u64 && job.peak_mib > 0);
            // Peaks stay inside the bucket's jitter band.
            let bucket = obs::sketch::size_bucket(job.input_mib);
            let base_peak = 1.5 * (1u64 << bucket) as f64 * model.peak_per_input_mib;
            let lo = base_peak * (1.0 - model.noise) - 1.0;
            let hi = base_peak * (1.0 + model.noise) + 1.0;
            assert!(
                (lo..=hi).contains(&(job.peak_mib as f64)),
                "peak {} outside [{lo:.0},{hi:.0}] for input {}",
                job.peak_mib,
                job.input_mib
            );
        }
        for job in b.iter().filter(|j| j.tool == CPU_TOOL_ID) {
            assert_eq!((job.input_mib, job.peak_mib), (0, 0));
        }
    }

    #[test]
    fn flaky_scenario_marks_gpu_failures_only_on_gpu_jobs() {
        let jobs = LoadScenario::gpu_flaky(5, 1_000).generate();
        assert!(jobs.iter().any(|j| j.fail_on_gpu));
        for job in jobs.iter().filter(|j| j.fail_on_gpu) {
            assert_eq!(job.tool, GPU_TOOL_ID);
        }
    }
}
