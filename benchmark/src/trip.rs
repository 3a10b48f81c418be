//! `trip` — ROADMAP's "one submission's trip", closed loop, one client.
//!
//! Every submission is driven phase by phase from outside
//! (`create_job` → `prepare_plan` → `JobExecutor::execute` →
//! `finish_job`) through `GalaxyApp` + `install_gyan` on the paper's
//! 2×K80 node, so per-phase latency is observable without any scope
//! inside the program. The executor returns at once in wall time and
//! charges each job's seeded runtime to the virtual clock.
//!
//! The seed decides the tool of every trip (CPU tool, GPU tool, GPU tool
//! pinned to device 0 or 1) and a schedule of lingering GPU processes
//! that the benchmark attaches and detaches between trips. Nine trips in
//! ten run on one stack using the paper's Process-ID allocation, whose
//! job table so grows to 27 000 entries — what a trip costs at large N
//! (`finish_job` scans every dataset declared so far) is part of
//! `trip_p99_us` and is `galaxy.trip_drift_ratio`. The last tenth runs on
//! a Process-Allocated-Memory stack, so all four of the paper's cases
//! (requested-free, busy → free fallback, all-busy scatter, all-busy
//! least-memory) occur in every run.

use crate::common::{
    allocation_reasons, check, mix_seed, scrape_us, timed_setups, CheckFailed, JobTimes, Repeat,
    Virt,
};
use crate::profile::{self, ScopeTable};
use crate::queue_day::{GPU_TOOL, LOG_RETENTION};
use crate::stats::median;
use crate::trace::Tracer;
use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
use galaxy::tool::macros::MacroLibrary;
use galaxy::{GalaxyApp, JobState};
use gpusim::{GpuCluster, GpuProcess, VirtualClock};
use gyan::allocation::AllocationPolicy;
use gyan::reservations::RESERVATION_CONFLICTS_COUNTER;
use gyan::setup::{install_gyan, GyanConfig};
use gyan::LeaseTable;
use loadgen::BoundedPareto;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Trips per repeat: 3 to 3.5 s on the reference box, so six repeats fit
/// `run_seconds`, and 300 samples lie beyond each repeat's p99.
pub const TRIPS: usize = 30_000;
/// Trips on the Process-Allocated-Memory stack: enough for the paper's
/// Case 4 to occur hundreds of times, few enough that the Process-ID
/// stack's job table grows to nearly the full `TRIPS`.
const MEMORY_ARM_TRIPS: usize = TRIPS / 10;
/// Trips between two changes of the lingering-process state: short
/// enough that every case occurs thousands of times, long enough that
/// attach/detach is not what the run measures.
const CHURN_EVERY: usize = 8;

const CPU_TOOL: &str = r#"<tool id="trip_cpu" name="Trip CPU">
  <command>echo $text</command>
  <inputs><param name="text" type="text" value="tick"/></inputs>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

fn pinned_gpu_tool(id: &str, minor: u32) -> String {
    format!(
        r#"<tool id="{id}" name="Trip GPU pinned {minor}">
  <requirements><requirement type="compute" version="{minor}">gpu</requirement></requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
load_kernel --device gpu
#else
load_kernel --device cpu
#end if
]]></command>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#
    )
}

/// What one trip submits.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tool {
    Cpu,
    Gpu,
    GpuPinned(u32),
}

impl Tool {
    fn id(self) -> &'static str {
        match self {
            Tool::Cpu => "trip_cpu",
            Tool::Gpu => "load_gpu",
            Tool::GpuPinned(0) => "trip_gpu_dev0",
            Tool::GpuPinned(_) => "trip_gpu_dev1",
        }
    }
}

/// Lingering processes on the two devices: resident memory in MiB, 0 =
/// the device is free.
type Occupancy = [u64; 2];

struct Trip {
    tool: Tool,
    runtime_s: f64,
    occupancy: Occupancy,
}

/// Returns at once; charges the job's seeded runtime to the node's clock.
struct ChargingExecutor {
    clock: VirtualClock,
    /// Runtime by job id − 1 (job ids are handed out in trip order).
    runtimes: Arc<Vec<f64>>,
}

impl JobExecutor for ChargingExecutor {
    fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
        self.clock.advance(self.runtimes[plan.job_id as usize - 1]);
        ExecutionResult::ok(if plan.env_var("GALAXY_GPU_ENABLED") == Some("true") {
            "gpu"
        } else {
            "cpu"
        })
    }
}

/// One GYAN deployment: the paper's node under one allocation policy.
struct Arm {
    policy: AllocationPolicy,
    app: GalaxyApp,
    cluster: GpuCluster,
    table: LeaseTable,
    executor: ChargingExecutor,
    trips: Vec<Trip>,
    /// Pids of the processes the benchmark currently has attached.
    attached: [Option<u32>; 2],
}

struct TripStack {
    arms: Vec<Arm>,
}

fn schedule(seed: u64, n: usize) -> Vec<Trip> {
    let mut rng = StdRng::seed_from_u64(seed);
    let runtime = BoundedPareto { xm: 0.5, cap: 15.0, alpha: 1.6 };
    let mut occupancy: Occupancy = [0, 0];
    (0..n)
        .map(|i| {
            if i % CHURN_EVERY == 0 {
                // Even sizes on device 0, odd on device 1: least-memory
                // never ties.
                occupancy = [
                    if rng.gen_bool(0.6) { 2 * rng.gen_range(30..=1_350u64) } else { 0 },
                    if rng.gen_bool(0.6) { 2 * rng.gen_range(30..=1_350u64) + 1 } else { 0 },
                ];
            }
            let tool = match rng.gen_range(0..100u32) {
                0..=34 => Tool::Cpu,
                35..=64 => Tool::Gpu,
                65..=82 => Tool::GpuPinned(0),
                _ => Tool::GpuPinned(1),
            };
            Trip { tool, runtime_s: runtime.sample(&mut rng), occupancy }
        })
        .collect()
}

fn setup(seed: u64) -> TripStack {
    let lib = MacroLibrary::new();
    let arms = [
        (AllocationPolicy::ProcessId, TRIPS - MEMORY_ARM_TRIPS),
        (AllocationPolicy::MemoryBased, MEMORY_ARM_TRIPS),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (policy, n))| {
        let cluster = GpuCluster::k80_node();
        let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).expect("shipped job conf"));
        for xml in [
            CPU_TOOL.to_string(),
            GPU_TOOL.to_string(),
            pinned_gpu_tool("trip_gpu_dev0", 0),
            pinned_gpu_tool("trip_gpu_dev1", 1),
        ] {
            app.install_tool_xml(&xml, &lib).expect("trip tools parse");
        }
        app.set_event_log_limit(Some(LOG_RETENTION));
        let table =
            install_gyan(&mut app, &cluster, GyanConfig { policy, ..GyanConfig::default() });
        app.recorder().set_log_retention(Some(LOG_RETENTION));
        let trips = schedule(mix_seed(seed, 2 + i as u64), n);
        let executor = ChargingExecutor {
            clock: cluster.clock().clone(),
            runtimes: Arc::new(trips.iter().map(|t| t.runtime_s).collect()),
        };
        Arm { policy, app, cluster, table, executor, trips, attached: [None, None] }
    })
    .collect();
    TripStack { arms }
}

impl Arm {
    /// Make the devices' resident processes match `want`.
    fn set_occupancy(&mut self, want: Occupancy) {
        for minor in 0..2u32 {
            if let Some(pid) = self.attached[minor as usize].take() {
                self.cluster.detach_process(minor, pid).expect("benchmark-owned process");
            }
            let mib = want[minor as usize];
            if mib > 0 {
                let pid = self.cluster.spawn_pid();
                self.cluster
                    .attach_process(minor, GpuProcess::compute(pid, "lingering_tool", mib))
                    .expect("device exists and has room");
                self.attached[minor as usize] = Some(pid);
            }
        }
    }

    /// The paper's Case 1–4 table, transcribed: the device mask a GPU
    /// trip must be given under `occupancy` with no lease outstanding.
    fn expected_mask(&self, tool: Tool, occupancy: Occupancy) -> (String, &'static str) {
        let free: Vec<u32> = (0..2u32).filter(|m| occupancy[*m as usize] == 0).collect();
        if let Tool::GpuPinned(minor) = tool {
            if free.contains(&minor) {
                return (minor.to_string(), "requested_free");
            }
        }
        if !free.is_empty() {
            let mask = free.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
            return (mask, "free_fallback");
        }
        match self.policy {
            AllocationPolicy::ProcessId => ("0,1".to_string(), "all_busy_scatter"),
            AllocationPolicy::MemoryBased => {
                let least = if occupancy[0] <= occupancy[1] { 0 } else { 1 };
                (least.to_string(), "all_busy_least_memory")
            }
        }
    }
}

/// Drive every trip of one arm; returns per-trip wall latency in µs.
fn drive(
    arm: &mut Arm,
    tracer: &mut Tracer,
    latencies_us: &mut Vec<f64>,
) -> Result<(), CheckFailed> {
    let no_params = ParamDict::new();
    for i in 0..arm.trips.len() {
        let Trip { tool, occupancy, .. } = arm.trips[i];
        if i % CHURN_EVERY == 0 {
            arm.set_occupancy(occupancy);
        }
        let start = Instant::now();
        let trip = tracer.enter("driver.trip", 0);

        let span = tracer.enter("galaxy.create_job", 0);
        let created = arm.app.create_job(tool.id(), &no_params);
        let job_id = created.map_err(|e| CheckFailed(format!("create_job: {e}")))?;
        tracer.exit_job(span, job_id);

        let span = tracer.enter("galaxy.prepare_plan", job_id);
        let plan = arm.app.prepare_plan(job_id, None);
        tracer.exit(span);
        let plan = plan.map_err(|e| CheckFailed(format!("prepare_plan {job_id}: {e}")))?;

        let span = tracer.enter("galaxy.execute", job_id);
        let result = arm.executor.execute(&plan);
        tracer.exit(span);

        let span = tracer.enter("galaxy.finish_job", job_id);
        let finished = arm.app.finish_job(job_id, &result, true);
        tracer.exit(span);
        finished.map_err(|e| CheckFailed(format!("finish_job {job_id}: {e}")))?;

        tracer.exit_job(trip, job_id);
        latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    arm.set_occupancy([0, 0]);
    Ok(())
}

pub fn repeat(seed: u64, tracer: &mut Tracer) -> Result<(Repeat, ScopeTable), CheckFailed> {
    let (mut stack, setup_s) = timed_setups(|| setup(seed));

    let mut latencies_us = Vec::with_capacity(TRIPS);
    let ((driven, wall_s), scopes) = profile::during(tracer.is_on(), || {
        let start = Instant::now();
        let root = tracer.enter("driver.run", 0);
        let driven =
            stack.arms.iter_mut().try_for_each(|arm| drive(arm, tracer, &mut latencies_us));
        tracer.exit(root);
        (driven, start.elapsed().as_secs_f64())
    });
    driven?;

    // --- Correctness ----------------------------------------------------
    let mut times = Vec::with_capacity(TRIPS);
    let mut cases: BTreeSet<&'static str> = BTreeSet::new();
    let mut makespan_vs = 0.0;
    for arm in &stack.arms {
        check(arm.table.lease_count() == 0, || {
            format!("{} lease(s) left after the last trip", arm.table.lease_count())
        })?;
        check(arm.app.jobs().len() == arm.trips.len(), || {
            format!("{} jobs for {} trips", arm.app.jobs().len(), arm.trips.len())
        })?;
        for (i, trip) in arm.trips.iter().enumerate() {
            let job = arm.app.job(i as u64 + 1).expect("one job per trip, ids in trip order");
            check(job.state() == JobState::Ok, || {
                format!("job {} ended {:?}", job.id, job.state())
            })?;
            let gpu_tool = trip.tool != Tool::Cpu;
            let on_gpu = job.destination_id.as_deref() == Some("local_gpu");
            if gpu_tool {
                let (mask, case) = arm.expected_mask(trip.tool, trip.occupancy);
                cases.insert(case);
                check(job.env_var("CUDA_VISIBLE_DEVICES") == Some(mask.as_str()), || {
                    format!(
                        "job {} ({}, occupancy {:?}, {:?}): CUDA_VISIBLE_DEVICES {:?}, the paper's \
                         {case} case gives {mask:?}",
                        job.id,
                        trip.tool.id(),
                        trip.occupancy,
                        arm.policy,
                        job.env_var("CUDA_VISIBLE_DEVICES"),
                    )
                })?;
            } else {
                check(job.env_var("GALAXY_GPU_ENABLED") == Some("false"), || {
                    format!("CPU job {} was GPU-enabled", job.id)
                })?;
            }
            let submit = job.submit_time.unwrap_or(0.0);
            times.push(JobTimes {
                submit,
                start: job.start_time.unwrap_or(submit),
                end: job.end_time.unwrap_or(submit),
                runtime: trip.runtime_s,
                gpu_tool,
                on_gpu,
            });
        }
        makespan_vs += arm.cluster.clock().now();
    }
    check(cases.len() == 4, || format!("only the cases {cases:?} occurred, not all four"))?;
    let virt = Virt::from_jobs(&times, makespan_vs);

    // --- Per-layer values (traced repeats) ------------------------------
    let mut layer = Vec::new();
    if tracer.is_on() {
        let names = tracer.by_name();
        let median_us = |n: &str| names.get(n).map_or(0.0, |s| s.median_us());
        let decisions = scopes.leaf("gyan.allocate");
        let (prepare_s, prepares) =
            names.get("galaxy.prepare_plan").map_or((0.0, 1), |s| (s.total_s(), s.count.max(1)));
        let recorders = || stack.arms.iter().map(|arm| arm.app.recorder());
        let conflicts: u64 =
            recorders().map(|r| r.metrics().counter_value(RESERVATION_CONFLICTS_COUNTER)).sum();
        let dropped: u64 = recorders().map(|r| r.dropped_log_records()).map(|(s, e)| s + e).sum();
        // Over the Process-ID stack alone: its trips come first.
        let grown = stack.arms[0].trips.len();
        let decile = grown / 10;
        let drift = median(&latencies_us[grown - decile..grown]) / median(&latencies_us[..decile]);
        layer.extend([
            (
                "gpusim.smi_queries_per_job",
                scopes.count_prefixed("smi.query") as f64 / TRIPS as f64,
            ),
            ("gyan.decisions_per_job", decisions.count as f64 / TRIPS as f64),
            ("gyan.lease_conflicts_per_k", 1e3 * conflicts as f64 / decisions.count.max(1) as f64),
            ("gyan.cases_covered", allocation_reasons(recorders()) as f64),
            ("galaxy.create_job_us", median_us("galaxy.create_job")),
            ("galaxy.prepare_plan_us", (prepare_s - decisions.total_s) * 1e6 / prepares as f64),
            ("galaxy.execute_us", median_us("galaxy.execute")),
            ("galaxy.finish_job_us", median_us("galaxy.finish_job")),
            ("galaxy.trip_drift_ratio", drift),
            ("obs.metrics_render_us", recorders().map(scrape_us).sum()),
            ("obs.dropped_records", dropped as f64),
        ]);
    }

    let repeat = Repeat {
        setup_s,
        wall_s,
        jobs: TRIPS as u64,
        failed: 0,
        segments: latencies_us.into_iter().map(|us| (us, 1)).collect(),
        virt,
        layer,
    };
    Ok((repeat, scopes))
}
