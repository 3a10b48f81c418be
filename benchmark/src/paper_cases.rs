//! `paper_cases` — the paper's multi-GPU Cases 1–4 (Figs. 8–11) plus one
//! CPU/GPU Racon pair and one CPU/GPU Bonito pair, closed loop, one
//! client, through `GalaxyApp::submit` with the real
//! `seqtools::ToolExecutor` on the 2×K80 node.
//!
//! The tools do nearly all the work here and the scheduler layers almost
//! none: this is the workload a scheduler optimisation must *not* move.
//! Its checks pin the paper's behaviour: the `CUDA_VISIBLE_DEVICES` each
//! case must export and the FASTA output each tool must produce.

use crate::common::{
    allocation_reasons, check, mix_seed, timed_setups, CheckFailed, JobTimes, Repeat, Virt,
};
use crate::profile::{self, ScopeTable};
use crate::stats::median;
use crate::trace::{Open, Tracer};
use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
use galaxy::tool::macros::MacroLibrary;
use galaxy::{GalaxyApp, JobState};
use gpusim::{GpuCluster, VirtualClock};
use gyan::allocation::AllocationPolicy;
use gyan::setup::{install_gyan, GyanConfig};
use gyan::LeaseTable;
use seqtools::{DatasetSpec, ToolExecutor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const RACON_DATASET: &str = "bench_racon";
const BONITO_DATASET: &str = "bench_bonito";
/// Worker threads each tool run may use. One: with two, the timings of a
/// 2-core box measure how its cores were shared, not the tools.
const TOOL_THREADS: &str = "1";

/// The Racon wrapper in the shape of the paper's Code 3: `gpu` adds the
/// compute requirement (optionally pinned to a device), without it the
/// tool is CPU-only.
fn racon_tool(id: &str, gpu: bool, pinned: Option<u32>) -> String {
    let requirement = compute_requirement(gpu, pinned);
    format!(
        r#"<tool id="{id}" name="Racon" version="1.4.3">
  <requirements>
    <requirement type="package" version="1.4.3">racon</requirement>{requirement}
  </requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
racon_gpu -t $threads --cudapoa-batches 1 $dataset > $consensus
#else
racon -t $threads $dataset > $consensus
#end if
]]></command>
  <inputs>
    <param name="dataset" type="data" value="{RACON_DATASET}"/>
    <param name="threads" type="integer" value="{TOOL_THREADS}"/>
    <param name="consensus" type="text" value="consensus.fa"/>
  </inputs>
  <outputs><data name="consensus_out" format="fasta"/></outputs>
</tool>"#
    )
}

fn bonito_tool(id: &str, gpu: bool, pinned: Option<u32>) -> String {
    let requirement = compute_requirement(gpu, pinned);
    format!(
        r#"<tool id="{id}" name="Bonito" version="0.3.2">
  <requirements>
    <requirement type="package" version="0.3.2">bonito</requirement>{requirement}
  </requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
bonito basecaller -t $threads $model $dataset > $output
#else
bonito basecaller --device=cpu -t $threads $model $dataset > $output
#end if
]]></command>
  <inputs>
    <param name="dataset" type="data" value="{BONITO_DATASET}"/>
    <param name="threads" type="integer" value="{TOOL_THREADS}"/>
    <param name="model" type="text" value="dna_r9.4.1"/>
    <param name="output" type="text" value="basecalls.fasta"/>
  </inputs>
  <outputs><data name="basecalls" format="fasta"/></outputs>
</tool>"#
    )
}

fn compute_requirement(gpu: bool, pinned: Option<u32>) -> String {
    match (gpu, pinned) {
        (false, _) => String::new(),
        (true, None) => "\n    <requirement type=\"compute\">gpu</requirement>".to_string(),
        (true, Some(minor)) => {
            format!("\n    <requirement type=\"compute\" version=\"{minor}\">gpu</requirement>")
        }
    }
}

/// One tool run as the executor saw it.
struct Execution {
    job_id: u64,
    racon: bool,
    start: Instant,
    end: Instant,
    /// Virtual seconds the tool itself charged to the node's clock.
    charged_vs: f64,
}

/// Wraps the real tool executor to time each run: the benchmark-side
/// span around `seqtools`' public entry point.
struct TimedExecutor {
    inner: Arc<ToolExecutor>,
    clock: VirtualClock,
    log: Arc<Mutex<Vec<Execution>>>,
}

impl JobExecutor for TimedExecutor {
    fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
        let (start, start_vs) = (Instant::now(), self.clock.now());
        let result = self.inner.execute(plan);
        let (end, end_vs) = (Instant::now(), self.clock.now());
        self.log.lock().expect("no panic while logging").push(Execution {
            job_id: plan.job_id,
            racon: plan.command_line.starts_with("racon"),
            start,
            end,
            charged_vs: end_vs - start_vs,
        });
        result
    }
}

/// A GYAN deployment with lingering tool processes, as in Figs. 8–11.
struct Bed {
    app: GalaxyApp,
    cluster: GpuCluster,
    table: LeaseTable,
    executor: Arc<ToolExecutor>,
    log: Arc<Mutex<Vec<Execution>>>,
}

struct PaperStack {
    /// Process-ID allocation: Cases 1–3 and the CPU/GPU pairs.
    pid: Bed,
    /// Process-Allocated-Memory allocation: Case 4.
    memory: Bed,
}

fn bed(policy: AllocationPolicy, seed: u64) -> Bed {
    let cluster = GpuCluster::k80_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).expect("shipped job conf"));
    let executor = Arc::new(ToolExecutor::new(&cluster).with_linger());
    // Datasets shrunk to land in the time box; their content comes from
    // the run's seed.
    executor.register_dataset(DatasetSpec {
        name: RACON_DATASET,
        genome_len: 8_000,
        n_reads: 96,
        read_len: 500,
        seed: mix_seed(seed, 10),
        ..DatasetSpec::alzheimers_nfl()
    });
    executor.register_dataset(DatasetSpec {
        name: BONITO_DATASET,
        genome_len: 4_000,
        n_reads: 16,
        read_len: 800,
        seed: mix_seed(seed, 11),
        ..DatasetSpec::acinetobacter_pittii()
    });
    let log = Arc::new(Mutex::new(Vec::new()));
    app.set_executor(Box::new(TimedExecutor {
        inner: executor.clone(),
        clock: cluster.clock().clone(),
        log: log.clone(),
    }));
    let table = install_gyan(&mut app, &cluster, GyanConfig { policy, ..GyanConfig::default() });
    let lib = MacroLibrary::new();
    for xml in [
        racon_tool("racon_gpu", true, None),
        racon_tool("racon_gpu_dev0", true, Some(0)),
        racon_tool("racon_cpu", false, None),
        bonito_tool("bonito", true, None),
        bonito_tool("bonito_dev1", true, Some(1)),
        bonito_tool("bonito_cpu", false, None),
    ] {
        app.install_tool_xml(&xml, &lib).expect("paper tools parse");
    }
    Bed { app, cluster, table, executor, log }
}

fn setup(seed: u64) -> PaperStack {
    PaperStack {
        pid: bed(AllocationPolicy::ProcessId, seed),
        memory: bed(AllocationPolicy::MemoryBased, seed),
    }
}

/// One submission of the script: which tool, and the device mask the
/// paper says it must be given (`None` = a CPU tool).
struct Step {
    tool: &'static str,
    mask: Option<&'static str>,
    /// Kill every lingering process first (a new case starts).
    fresh: bool,
}

const fn step(tool: &'static str, mask: Option<&'static str>, fresh: bool) -> Step {
    Step { tool, mask, fresh }
}

/// Cases 1–3 (Process-ID) and the two pairs.
const PID_SCRIPT: &[Step] = &[
    // Case 1: two tools pinned to their own devices.
    step("racon_gpu_dev0", Some("0"), true),
    step("bonito_dev1", Some("1"), false),
    // Case 2: two instances of one tool both ask for device 1.
    step("bonito_dev1", Some("1"), true),
    step("bonito_dev1", Some("0"), false),
    // Case 3: four Racon instances; the last two are scattered.
    step("racon_gpu_dev0", Some("0"), true),
    step("racon_gpu_dev0", Some("1"), false),
    step("racon_gpu_dev0", Some("0,1"), false),
    step("racon_gpu_dev0", Some("0,1"), false),
    // The CPU/GPU pairs of the paper's speed-up figures.
    step("racon_cpu", None, true),
    step("racon_gpu", Some("0,1"), false),
    step("bonito_cpu", None, true),
    step("bonito", Some("0,1"), false),
];

/// Case 4 (Process-Allocated-Memory): the second Bonito goes to the
/// device holding only Racon's 60 MiB instead of being scattered.
const MEMORY_SCRIPT: &[Step] = &[
    step("racon_gpu_dev0", Some("0"), true),
    step("bonito_dev1", Some("1"), false),
    step("bonito_dev1", Some("0"), false),
];

struct Submitted {
    job_id: u64,
    span: Open,
    wall_us: f64,
}

fn run_script(
    bed: &mut Bed,
    script: &[Step],
    tracer: &mut Tracer,
) -> Result<Vec<Submitted>, CheckFailed> {
    let no_params = ParamDict::new();
    let mut out = Vec::with_capacity(script.len());
    for s in script {
        if s.fresh {
            bed.executor.release_all();
        }
        let start = Instant::now();
        let span = tracer.enter("galaxy.submit", 0);
        let submitted = bed.app.submit(s.tool, &no_params);
        let job_id = *submitted.as_ref().unwrap_or(&0);
        tracer.exit_job(span, job_id);
        let wall_us = start.elapsed().as_secs_f64() * 1e6;
        submitted.map_err(|e| CheckFailed(format!("submit {}: {e}", s.tool)))?;
        out.push(Submitted { job_id, span, wall_us });
    }
    bed.executor.release_all();
    Ok(out)
}

pub fn repeat(seed: u64, tracer: &mut Tracer) -> Result<(Repeat, ScopeTable), CheckFailed> {
    let (mut stack, setup_s) = timed_setups(|| setup(seed));

    let ((submitted, wall_s), scopes) = profile::during(tracer.is_on(), || {
        let start = Instant::now();
        let root = tracer.enter("driver.run", 0);
        let submitted = run_script(&mut stack.pid, PID_SCRIPT, tracer).and_then(|pid_jobs| {
            Ok((pid_jobs, run_script(&mut stack.memory, MEMORY_SCRIPT, tracer)?))
        });
        tracer.exit(root);
        (submitted, start.elapsed().as_secs_f64())
    });
    let (pid_jobs, memory_jobs) = submitted?;

    // --- Correctness: masks and outputs as the paper reports them -------
    let mut times = Vec::new();
    let mut latencies_us = Vec::new();
    let mut racon_s = Vec::new();
    let mut bonito_s = Vec::new();
    let mut execute_s = 0.0;
    let mut makespan_vs = 0.0;
    for (bed, script, jobs) in
        [(&stack.pid, PID_SCRIPT, &pid_jobs), (&stack.memory, MEMORY_SCRIPT, &memory_jobs)]
    {
        check(bed.table.lease_count() == 0, || {
            format!("{} lease(s) left after the last case", bed.table.lease_count())
        })?;
        let log = bed.log.lock().expect("no panic while logging");
        check(log.len() == script.len(), || {
            format!("{} tool runs for {} submissions", log.len(), script.len())
        })?;
        for ((s, submitted), run) in script.iter().zip(jobs.iter()).zip(log.iter()) {
            let job = bed.app.job(submitted.job_id).expect("submitted job exists");
            check(job.state() == JobState::Ok, || {
                format!("{} (job {}) ended {:?}: {}", s.tool, job.id, job.state(), job.stderr)
            })?;
            check(job.env_var("CUDA_VISIBLE_DEVICES") == s.mask, || {
                format!(
                    "{} (job {}): CUDA_VISIBLE_DEVICES {:?}, the paper expects {:?}",
                    s.tool,
                    job.id,
                    job.env_var("CUDA_VISIBLE_DEVICES"),
                    s.mask
                )
            })?;
            let header = if s.tool.starts_with("racon") { ">consensus" } else { ">" };
            check(job.stdout.starts_with(header) && job.stdout.lines().count() >= 2, || {
                format!("{} (job {}) did not produce a FASTA record", s.tool, job.id)
            })?;
            check(run.job_id == job.id, || "tool runs out of submission order".to_string())?;

            let run_s = run.end.duration_since(run.start).as_secs_f64();
            execute_s += run_s;
            if run.racon { &mut racon_s } else { &mut bonito_s }.push(run_s);
            tracer.record_child(submitted.span, "seqtools.execute", run.start, run.end, job.id);
            latencies_us.push(submitted.wall_us);

            let submit = job.submit_time.unwrap_or(0.0);
            times.push(JobTimes {
                submit,
                start: job.start_time.unwrap_or(submit),
                end: job.end_time.unwrap_or(submit),
                runtime: run.charged_vs,
                gpu_tool: s.mask.is_some(),
                on_gpu: job.destination_id.as_deref() == Some("local_gpu"),
            });
        }
        makespan_vs += bed.cluster.clock().now();
    }
    let virt = Virt::from_jobs(&times, makespan_vs);
    let jobs = times.len() as u64;

    let mut layer = Vec::new();
    if tracer.is_on() {
        let names = tracer.by_name();
        let decisions = scopes.leaf("gyan.allocate").count;
        let reasons = allocation_reasons([stack.pid.app.recorder(), stack.memory.app.recorder()]);
        layer.extend([
            ("gpusim.smi_queries_per_job", scopes.count_prefixed("smi.query") as f64 / jobs as f64),
            ("gyan.decisions_per_job", decisions as f64 / jobs as f64),
            ("gyan.cases_covered", reasons as f64),
            (
                "galaxy.submit_us",
                names.get("galaxy.submit").map_or(0.0, |s| s.self_ns as f64 / 1e3 / s.count as f64),
            ),
            ("seqtools.racon_execute_s", median(&racon_s)),
            ("seqtools.bonito_execute_s", median(&bonito_s)),
            ("seqtools.execute_share_pct", 100.0 * execute_s / wall_s),
        ]);
    }

    let segments = latencies_us.into_iter().map(|us| (us, 1)).collect();
    let repeat = Repeat { setup_s, wall_s, jobs, failed: 0, segments, virt, layer };
    Ok((repeat, scopes))
}
