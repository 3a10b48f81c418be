//! Run one [`Scenario`] through the real stack.
//!
//! Nothing here is mocked: the harness hands [`Stack::build`] a simulated
//! [`GpuCluster`] and the `seqtools` executor wrapped in a
//! [`FaultInjectingExecutor`], and [`Stack::pump`] drives a real
//! [`QueueEngine`] wave by wave — checking invariants at every barrier.
//! What is simtest's own lives here: the `sim_*` tools and datasets, the
//! DAG shapes, and the fault plan (runner faults at submission, the SMI
//! freeze and the mid-wave discard as the pump's wave hooks).

use crate::driver::{Gpus, Hardware, Repro, Stack, StackSpec};
use crate::invariants;
use crate::scenario::{DagShape, JobSpec, RunnerFault, Scenario, ToolKind, USERS};
use crate::{Failure, SimOptions, SimReport, SEED_ENV};
use galaxy::params::ParamDict;
use galaxy::queue::{DagStep, DagWorkflow, QueueConfig, QueueEngine, ResubmitPolicy};
use galaxy::runners::faults::{FaultInjectingExecutor, FaultPlan, InjectedFault};
use galaxy::GalaxyError;
use gpusim::{GpuArch, GpuCluster};
use gyan::setup::GyanConfig;
use obs::slo::{AlertExpr, AlertRule, Compare};
use obs::Recorder;
use seqtools::{DatasetSpec, ToolExecutor};
use std::sync::Arc;

/// Upper bound on waves per scenario: generation caps work at ~25 queue
/// entries, so hundreds of waves can only mean a dispatch livelock.
const MAX_WAVES: usize = 300;

fn racon_dataset() -> DatasetSpec {
    DatasetSpec {
        name: "sim_racon",
        genome_len: 1_500,
        n_reads: 12,
        read_len: 1_200,
        ..DatasetSpec::alzheimers_nfl()
    }
}

fn fast5_dataset() -> DatasetSpec {
    DatasetSpec {
        name: "sim_fast5",
        genome_len: 1_200,
        n_reads: 2,
        read_len: 250,
        ..DatasetSpec::acinetobacter_pittii()
    }
}

const ECHO_TOOL: &str = r#"<tool id="sim_echo" name="Echo">
  <command>echo $text</command>
  <inputs><param name="text" type="text" value="tick"/></inputs>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

const RACON_CPU_TOOL: &str = r#"<tool id="sim_racon_cpu" name="Racon CPU">
  <command>racon -t 2 sim_racon > out.fa</command>
  <outputs><data name="out" format="fasta"/></outputs>
</tool>"#;

/// GPU wrapper with the paper's `$__galaxy_gpu_enabled__` conditional:
/// the CPU branch runs when allocation fails (or the host has no GPUs).
fn racon_gpu_tool(id: &str, pinned: Option<u32>) -> String {
    let version = pinned.map(|m| format!(" version=\"{m}\"")).unwrap_or_default();
    format!(
        r#"<tool id="{id}" name="Racon">
  <requirements><requirement type="compute"{version}>gpu</requirement></requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
racon_gpu -t 2 sim_racon > out.fa
#else
racon -t 2 sim_racon > out.fa
#end if
]]></command>
  <outputs><data name="out" format="fasta"/></outputs>
</tool>"#
    )
}

fn bonito_tool(id: &str, pinned: Option<u32>) -> String {
    let version = pinned.map(|m| format!(" version=\"{m}\"")).unwrap_or_default();
    format!(
        r#"<tool id="{id}" name="Bonito">
  <requirements><requirement type="compute"{version}>gpu</requirement></requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
bonito basecaller dna_r9.4.1 sim_fast5 > calls.fa
#else
bonito basecaller --device=cpu dna_r9.4.1 sim_fast5 > calls.fa
#end if
]]></command>
  <outputs><data name="out" format="fasta"/></outputs>
</tool>"#
    )
}

fn tool_xmls(gpu_count: u32) -> Vec<String> {
    let mut xmls = vec![
        ECHO_TOOL.to_string(),
        RACON_CPU_TOOL.to_string(),
        racon_gpu_tool("sim_racon_gpu", None),
        bonito_tool("sim_bonito", None),
    ];
    for m in 0..gpu_count {
        xmls.push(racon_gpu_tool(&format!("sim_racon_gpu_p{m}"), Some(m)));
        xmls.push(bonito_tool(&format!("sim_bonito_p{m}"), Some(m)));
    }
    xmls
}

fn dag_for(shape: DagShape, index: usize) -> DagWorkflow {
    let name = format!("sim_dag_{index}");
    match shape {
        DagShape::Chain(n) => {
            let mut dag =
                DagWorkflow::new(name).step(DagStep::new("sim_echo").with_param("text", "c0"));
            for i in 1..n {
                dag =
                    dag.step(DagStep::new("sim_echo").with_input_from("text", i - 1).after(i - 1));
            }
            dag
        }
        DagShape::Diamond => DagWorkflow::new(name)
            .step(DagStep::new("sim_echo").with_param("text", "prep"))
            .step(DagStep::new("sim_echo").with_input_from("text", 0).after(0))
            .step(DagStep::new("sim_echo").with_input_from("text", 0).after(0))
            .step(DagStep::new("sim_echo").with_input_from("text", 1).after(1).after(2)),
        DagShape::FanOut(n) => {
            let mut dag =
                DagWorkflow::new(name).step(DagStep::new("sim_echo").with_param("text", "root"));
            for _ in 0..n {
                dag = dag.step(DagStep::new("sim_echo").with_input_from("text", 0).after(0));
            }
            dag
        }
    }
}

fn injected(fault: RunnerFault) -> InjectedFault {
    match fault {
        RunnerFault::ContainerLaunch => InjectedFault::ContainerLaunch,
        RunnerFault::OutOfMemory => InjectedFault::OutOfMemory,
        RunnerFault::Crash => InjectedFault::Crash,
    }
}

/// The live operations plane runs alongside the postmortem invariant
/// checker: a leaked-lease SLO rule, evaluated at every wave barrier,
/// must page on the same condition `no_leaked_leases` trips on — proving
/// an operator watching `/api/alerts` would have seen the bug.
fn leaked_lease_rule(gpus: &Gpus) -> Vec<AlertRule> {
    let gpus = gpus.clone();
    let leases = AlertExpr::Custom(Arc::new(move || Some(gpus.lease_count() as f64)));
    vec![AlertRule::new("leaked-lease", leases, Compare::Gt, 0.0)]
}

/// One entry of the schedule: everything arrives at time zero.
enum Arrival<'a> {
    Job(usize, &'a JobSpec),
    Dag(usize, DagShape),
}

/// Execute `scenario` under `options`, checking invariants at every wave
/// barrier and once more after shutdown.
// Failure is large (it carries the fired-alert list and flight dump),
// but the Err path is terminal — a failure report, not a hot return.
#[allow(clippy::result_large_err)]
pub fn run_scenario(scenario: &Scenario, options: &SimOptions) -> Result<SimReport, Failure> {
    run_scenario_recorded(scenario, options).map(|(report, _)| report)
}

/// [`run_scenario`], also handing back the run's recorder (flight ring
/// on, retention off) — the telemetry the export-parity suite pins.
#[allow(clippy::result_large_err)]
pub fn run_scenario_recorded(
    scenario: &Scenario,
    options: &SimOptions,
) -> Result<(SimReport, Recorder), Failure> {
    let cluster = GpuCluster::node(GpuArch::tesla_k80(), scenario.gpu_count);
    let executor = Arc::new(ToolExecutor::new(&cluster));
    executor.register_dataset(racon_dataset());
    executor.register_dataset(fast5_dataset());
    let fault_plan = FaultPlan::new();
    let resubmit = if scenario.resubmit_to_cpu {
        ResubmitPolicy::gpu_to_cpu("local_cpu")
    } else {
        ResubmitPolicy::none()
    };
    let gyan = GyanConfig::default();
    let mut stack = Stack::build(StackSpec {
        repro: Repro { seed: scenario.seed, seed_env: SEED_ENV, scenario: scenario.describe() },
        tools: tool_xmls(scenario.gpu_count),
        hardware: Hardware::Node(cluster.clone()),
        policy: gyan.policy,
        memory_hint: gyan.memory_hint,
        executor: Arc::new(FaultInjectingExecutor::new(executor, fault_plan.clone())),
        queue: QueueConfig {
            capacity: scenario.queue_capacity,
            workers: scenario.workers,
            per_user_limit: scenario.per_user_limit,
            resubmit,
            ..QueueConfig::default()
        },
        wave_time: None,
        alert_rules: leaked_lease_rule,
        log_retention: None,
        release_on_discard: options.release_on_discard,
    })?;

    // Cluster-level faults: failing SMI queries from the start, a stale
    // SMI view for exactly one wave, one discarded wave.
    cluster.inject_smi_query_failures(scenario.faults.smi_query_failures);
    let discard_wave = options.force_wave_discard.or(scenario.faults.discard_at_wave);

    let jobs = scenario.jobs.iter().enumerate().map(|(i, job)| Arrival::Job(i, job));
    let dags = scenario.dags.iter().enumerate().map(|(i, shape)| Arrival::Dag(i, *shape));
    let pumped = stack.pump(
        jobs.chain(dags).map(|arrival| (0.0, arrival)),
        |engine, arrival| {
            match arrival {
                Arrival::Job(index, job) => {
                    let handle = submit_job(engine, job, index)?;
                    if let Some(f) = job.fault {
                        fault_plan.inject(handle, injected(f));
                    }
                }
                Arrival::Dag(index, shape) => {
                    engine.submit_dag(USERS[index % USERS.len()], dag_for(shape, index))?;
                }
            }
            Ok(())
        },
        MAX_WAVES,
        // Before a wave, its faults; at its barrier the stale view ends.
        |stack, wave| {
            if scenario.faults.freeze_smi_at_wave == Some(wave) {
                cluster.freeze_smi_snapshot();
            }
            if discard_wave == Some(wave) {
                stack.engine.discard_next_wave();
            }
        },
        |_, _| {
            cluster.thaw_smi_snapshot();
            Ok(())
        },
    )?;

    stack.finish(pumped, |stack, report| {
        let events = stack.recorder.events();
        invariants::exclusive_isolation(&events)?;
        invariants::export_matches_acquire(&events)?;
        Ok((report, stack.recorder.clone()))
    })
}

fn submit_job(engine: &mut QueueEngine, job: &JobSpec, index: usize) -> Result<u64, GalaxyError> {
    let user = USERS[job.user % USERS.len()];
    let mut params = ParamDict::new();
    if matches!(job.kind, ToolKind::Echo) {
        params.set("text", format!("sim {index}"));
    }
    engine
        .submit_with_priority(user, &job.kind.tool_id(), &params, job.priority)
        .map(|handle| handle.0)
}
