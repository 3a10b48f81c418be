//! A [`JobExecutor`] that runs the simulated tools for Galaxy jobs.
//!
//! The executor is the "process spawn" end of the pipeline: it receives
//! the fully assembled [`ExecutionPlan`] (command line, environment,
//! container wrapping), interprets the executable name, and runs the
//! corresponding tool simulation — honouring `CUDA_VISIBLE_DEVICES`
//! exactly as a real CUDA process would, charging container overhead, and
//! registering a process on the simulated GPUs so concurrent `nvidia-smi`
//! queries observe it.
//!
//! **Linger mode** keeps each GPU job's process resident on its devices
//! after the job returns, emulating long-running concurrent jobs; the
//! paper's multi-GPU Cases 1–4 snapshot `nvidia-smi` while several tools
//! occupy the GPUs simultaneously.

use crate::bonito::{basecall_cpu, basecall_gpu, BonitoInput, BonitoModel, BonitoOpts};
use crate::datasets::DatasetSpec;
use crate::racon::{polish_cpu, polish_gpu, RaconInput, RaconOpts};
use galaxy::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
use gpusim::{CudaContext, GpuCluster, GpuProcess, Trace};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Device memory (MiB) a lingering Racon process holds (paper Fig. 11
/// shows 60 MiB per racon_gpu process).
const RACON_LINGER_MIB: u64 = 60;
/// Device memory (MiB) a lingering Bonito process holds (Fig. 10 shows a
/// busy device at 2734 MiB ≈ 63 driver + 2671 process).
const BONITO_LINGER_MIB: u64 = 2671;

/// GPU-job traces an executor keeps: the most recent this many, older ones
/// dropped, so a serving executor's memory does not grow with its jobs.
const TRACES_KEPT: usize = 256;

/// The most recent `TRACES_KEPT` GPU-job traces, by job id.
#[derive(Default)]
struct Traces {
    by_job: HashMap<u64, Trace>,
    /// Job ids in the order their traces arrived, oldest first.
    order: VecDeque<u64>,
}

impl Traces {
    /// Keep `trace` as `job_id`'s (a job traced again keeps its latest
    /// trace and its first place in line) and drop the oldest past the
    /// bound.
    fn keep(&mut self, job_id: u64, trace: Trace) {
        if self.by_job.insert(job_id, trace).is_none() {
            self.order.push_back(job_id);
        }
        if self.order.len() > TRACES_KEPT {
            if let Some(oldest) = self.order.pop_front() {
                self.by_job.remove(&oldest);
            }
        }
    }
}

/// One lingering process record.
#[derive(Debug, Clone)]
pub struct LingeringProcess {
    /// Host pid.
    pub pid: u32,
    /// Devices the process occupies.
    pub minors: Vec<u32>,
    /// Process name.
    pub name: String,
}

/// The tool execution backend.
pub struct ToolExecutor {
    cluster: GpuCluster,
    linger: bool,
    lingering: Arc<Mutex<Vec<LingeringProcess>>>,
    datasets: Mutex<HashMap<String, DatasetSpec>>,
    racon_cache: Mutex<HashMap<String, Arc<RaconInput>>>,
    bonito_cache: Mutex<HashMap<String, Arc<BonitoInput>>>,
    traces: Mutex<Traces>,
}

impl ToolExecutor {
    /// Create an executor over `cluster`.
    pub fn new(cluster: &GpuCluster) -> Self {
        let mut datasets = HashMap::new();
        for spec in DatasetSpec::all() {
            datasets.insert(spec.name.to_ascii_lowercase(), spec);
        }
        ToolExecutor {
            cluster: cluster.clone(),
            linger: false,
            lingering: Arc::new(Mutex::new(Vec::new())),
            datasets: Mutex::new(datasets),
            racon_cache: Mutex::new(HashMap::new()),
            bonito_cache: Mutex::new(HashMap::new()),
            traces: Mutex::default(),
        }
    }

    /// Keep GPU processes resident after jobs finish (multi-GPU cases).
    pub fn with_linger(mut self) -> Self {
        self.linger = true;
        self
    }

    /// Register (or override) a dataset, addressable from command lines.
    pub fn register_dataset(&self, spec: DatasetSpec) {
        self.datasets.lock().insert(spec.name.to_ascii_lowercase(), spec);
    }

    /// Release one lingering process (the job's owner killed it).
    pub fn release(&self, pid: u32) {
        let mut lingering = self.lingering.lock();
        if let Some(idx) = lingering.iter().position(|p| p.pid == pid) {
            let proc = lingering.remove(idx);
            for minor in proc.minors {
                let _ = self.cluster.detach_process(minor, proc.pid);
            }
        }
    }

    /// Release every lingering process.
    pub fn release_all(&self) {
        let pids: Vec<u32> = self.lingering.lock().iter().map(|p| p.pid).collect();
        for pid in pids {
            self.release(pid);
        }
    }

    /// Execution timeline of a finished GPU job (rendered as a Chrome
    /// trace by `gyan::merged_chrome_trace`), while it is among the last
    /// 256 GPU jobs this executor ran.
    pub fn trace_for_job(&self, job_id: u64) -> Option<Trace> {
        self.traces.lock().by_job.get(&job_id).cloned()
    }

    fn dataset_from_command(&self, tokens: &[&str], default: &str) -> DatasetSpec {
        let datasets = self.datasets.lock();
        for token in tokens {
            let key = token.to_ascii_lowercase();
            if let Some(spec) = datasets.get(&key) {
                return spec.clone();
            }
        }
        datasets
            .get(&default.to_ascii_lowercase())
            .cloned()
            .unwrap_or_else(DatasetSpec::alzheimers_nfl)
    }

    fn racon_input(&self, spec: &DatasetSpec) -> Arc<RaconInput> {
        let mut cache = self.racon_cache.lock();
        cache
            .entry(spec.name.to_string())
            .or_insert_with(|| Arc::new(RaconInput::from_dataset(spec)))
            .clone()
    }

    fn bonito_input(&self, spec: &DatasetSpec) -> Arc<BonitoInput> {
        let mut cache = self.bonito_cache.lock();
        cache
            .entry(spec.name.to_string())
            .or_insert_with(|| Arc::new(BonitoInput::from_dataset(spec)))
            .clone()
    }

    fn flag_value<T: std::str::FromStr>(tokens: &[&str], flag: &str) -> Option<T> {
        tokens
            .iter()
            .position(|t| *t == flag)
            .and_then(|i| tokens.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    fn run_racon(&self, plan: &ExecutionPlan, tokens: &[&str], gpu: bool) -> ExecutionResult {
        let opts = RaconOpts {
            threads: Self::flag_value(tokens, "-t").unwrap_or(4),
            batches: Self::flag_value(tokens, "--cudapoa-batches").unwrap_or(1),
            banded: tokens.contains(&"--cudapoa-banded"),
            window_len: Self::flag_value(tokens, "-w").unwrap_or(500),
        };
        let spec = self.dataset_from_command(tokens, DatasetSpec::alzheimers_nfl().name);
        let input = self.racon_input(&spec);
        let pid = self.cluster.spawn_pid();

        if gpu {
            let mask = plan.env_var("CUDA_VISIBLE_DEVICES");
            let mut ctx = match CudaContext::new(&self.cluster, mask, pid, "/usr/bin/racon_gpu") {
                Ok(ctx) => ctx,
                Err(e) => return ExecutionResult::fail(2, e.to_string()),
            };
            match polish_gpu(&input, &opts, &self.cluster, &mut ctx) {
                Ok(report) => {
                    let minors = ctx.visible_minors().to_vec();
                    self.traces.lock().keep(plan.job_id, std::mem::take(&mut ctx.trace));
                    ctx.destroy();
                    self.maybe_linger(pid, &minors, "/usr/bin/racon_gpu", RACON_LINGER_MIB);
                    ExecutionResult::ok(consensus_fasta(&report.consensus)).with_pid(pid)
                }
                Err(e) => {
                    ctx.destroy();
                    ExecutionResult::fail(1, e.to_string())
                }
            }
        } else {
            let report = polish_cpu(&input, &opts, self.cluster.host(), self.cluster.clock());
            ExecutionResult::ok(consensus_fasta(&report.consensus)).with_pid(pid)
        }
    }

    fn run_bonito(&self, plan: &ExecutionPlan, tokens: &[&str]) -> ExecutionResult {
        let opts = BonitoOpts {
            chunk: Self::flag_value(tokens, "--chunksize").unwrap_or(2_000),
            batch: Self::flag_value(tokens, "--batchsize").unwrap_or(32),
            threads: Self::flag_value(tokens, "-t").unwrap_or(48),
        };
        let spec = self.dataset_from_command(tokens, DatasetSpec::acinetobacter_pittii().name);
        let input = self.bonito_input(&spec);
        let model = BonitoModel::pretrained(spec.seed);
        let pid = self.cluster.spawn_pid();
        let use_gpu =
            plan.env_var("GALAXY_GPU_ENABLED") == Some("true") && !tokens.contains(&"--device=cpu");

        if use_gpu {
            let mask = plan.env_var("CUDA_VISIBLE_DEVICES");
            let mut ctx = match CudaContext::new(&self.cluster, mask, pid, "bonito") {
                Ok(ctx) => ctx,
                Err(e) => return ExecutionResult::fail(2, e.to_string()),
            };
            match basecall_gpu(&input, &model, &opts, &self.cluster, &mut ctx) {
                Ok(report) => {
                    let minors = ctx.visible_minors().to_vec();
                    self.traces.lock().keep(plan.job_id, std::mem::take(&mut ctx.trace));
                    ctx.destroy();
                    self.maybe_linger(pid, &minors, "bonito", BONITO_LINGER_MIB);
                    ExecutionResult::ok(report.fasta).with_pid(pid)
                }
                Err(e) => {
                    ctx.destroy();
                    ExecutionResult::fail(1, e.to_string())
                }
            }
        } else {
            let report =
                basecall_cpu(&input, &model, &opts, self.cluster.host(), self.cluster.clock());
            ExecutionResult::ok(report.fasta).with_pid(pid)
        }
    }

    fn maybe_linger(&self, pid: u32, minors: &[u32], name: &str, mib: u64) {
        if !self.linger {
            return;
        }
        let mut attached = Vec::new();
        for &minor in minors {
            if self.cluster.attach_process(minor, GpuProcess::compute(pid, name, mib)).is_ok() {
                attached.push(minor);
            }
        }
        self.lingering.lock().push(LingeringProcess {
            pid,
            minors: attached,
            name: name.to_string(),
        });
    }
}

fn consensus_fasta(consensus: &str) -> String {
    format!(">consensus\n{consensus}\n")
}

impl JobExecutor for ToolExecutor {
    fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
        // Charge container pull + cold-start overhead before the tool runs.
        if let Some(container) = &plan.container {
            self.cluster.clock().advance(container.overhead_s);
        }
        let tokens: Vec<&str> = plan.command_line.split_whitespace().collect();
        match tokens.first() {
            Some(&"racon_gpu") => self.run_racon(plan, &tokens, true),
            Some(&"racon") => self.run_racon(plan, &tokens, false),
            Some(&"bonito") => self.run_bonito(plan, &tokens),
            Some(&"echo") => ExecutionResult::ok(tokens[1..].join(" ")),
            Some(other) => ExecutionResult::fail(127, format!("{other}: command not found")),
            None => ExecutionResult::fail(127, "empty command"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galaxy::runners::ExecutionPlan;

    impl ToolExecutor {
        /// Processes currently lingering on GPUs.
        fn lingering(&self) -> Vec<LingeringProcess> {
            self.lingering.lock().clone()
        }
    }

    fn tiny_racon_spec() -> DatasetSpec {
        DatasetSpec {
            name: "tiny_racon",
            genome_len: 2_000,
            n_reads: 24,
            read_len: 600,
            ..DatasetSpec::alzheimers_nfl()
        }
    }

    fn plan(cmd: &str, env: &[(&str, &str)]) -> ExecutionPlan {
        ExecutionPlan {
            job_id: 1,
            tool_id: "t".into(),
            destination_id: "d".into(),
            command_line: cmd.into(),
            env: std::sync::Arc::new(
                env.iter().map(|(k, v)| (k.to_string().into(), v.to_string().into())).collect(),
            ),
            container: None,
            command_parts: vec![],
        }
    }

    #[test]
    fn racon_gpu_runs_and_releases_devices() {
        let cluster = GpuCluster::k80_node();
        let exec = ToolExecutor::new(&cluster);
        exec.register_dataset(tiny_racon_spec());
        let result = exec.execute(&plan(
            "racon_gpu -t 4 tiny_racon",
            &[("GALAXY_GPU_ENABLED", "true"), ("CUDA_VISIBLE_DEVICES", "0")],
        ));
        assert_eq!(result.exit_code, 0, "{}", result.stderr);
        assert!(result.stdout.starts_with(">consensus"));
        assert!(result.pid.is_some());
        // Without linger, devices are free afterwards.
        assert_eq!(cluster.available_devices(), vec![0, 1]);
        assert!(exec.trace_for_job(1).is_some());
    }

    #[test]
    fn only_the_most_recent_traces_are_kept() {
        let mut traces = Traces::default();
        for job in 0..TRACES_KEPT as u64 + 44 {
            let mut trace = Trace::new();
            trace.record("k", "gpu", "gpu0/compute", job as f64, 1.0);
            traces.keep(job, trace);
        }
        assert_eq!((traces.by_job.len(), traces.order.len()), (TRACES_KEPT, TRACES_KEPT));
        assert!(!traces.by_job.contains_key(&43) && traces.by_job.contains_key(&44));
        // A job traced again keeps its latest trace and its place in line.
        traces.keep(44, Trace::new());
        assert!(traces.by_job[&44].events().is_empty());
        assert_eq!(traces.order.front(), Some(&44));
    }

    #[test]
    fn linger_keeps_process_on_masked_device() {
        let cluster = GpuCluster::k80_node();
        let exec = ToolExecutor::new(&cluster).with_linger();
        exec.register_dataset(tiny_racon_spec());
        let result = exec.execute(&plan(
            "racon_gpu -t 2 tiny_racon",
            &[("GALAXY_GPU_ENABLED", "true"), ("CUDA_VISIBLE_DEVICES", "1")],
        ));
        assert_eq!(result.exit_code, 0);
        assert_eq!(cluster.available_devices(), vec![0]);
        let lingering = exec.lingering();
        assert_eq!(lingering.len(), 1);
        assert_eq!(lingering[0].minors, vec![1]);
        exec.release(result.pid.unwrap());
        assert_eq!(cluster.available_devices(), vec![0, 1]);
    }

    #[test]
    fn racon_cpu_does_not_touch_gpus() {
        let cluster = GpuCluster::k80_node();
        let exec = ToolExecutor::new(&cluster);
        exec.register_dataset(tiny_racon_spec());
        let result =
            exec.execute(&plan("racon -t 4 tiny_racon", &[("GALAXY_GPU_ENABLED", "false")]));
        assert_eq!(result.exit_code, 0);
        assert_eq!(cluster.available_devices(), vec![0, 1]);
        assert!(cluster.clock().now() > 0.0, "CPU run must consume virtual time");
    }

    #[test]
    fn empty_device_mask_fails_like_real_cuda() {
        let cluster = GpuCluster::k80_node();
        let exec = ToolExecutor::new(&cluster);
        exec.register_dataset(tiny_racon_spec());
        let result = exec.execute(&plan(
            "racon_gpu tiny_racon",
            &[("GALAXY_GPU_ENABLED", "true"), ("CUDA_VISIBLE_DEVICES", "")],
        ));
        assert_eq!(result.exit_code, 2);
        assert!(result.stderr.contains("no CUDA-capable"));
    }

    #[test]
    fn unknown_command_fails_127() {
        let cluster = GpuCluster::k80_node();
        let exec = ToolExecutor::new(&cluster);
        let result = exec.execute(&plan("nonexistent_tool --flag", &[]));
        assert_eq!(result.exit_code, 127);
    }

    #[test]
    fn container_overhead_charged() {
        use galaxy::runners::{ContainerEngine, ContainerInvocation};
        let cluster = GpuCluster::k80_node();
        let exec = ToolExecutor::new(&cluster);
        let mut p = plan("echo hi", &[]);
        p.container = Some(ContainerInvocation {
            engine: ContainerEngine::Docker,
            image: "img".into(),
            command_parts: vec![],
            overhead_s: 0.6,
        });
        exec.execute(&p);
        assert!((cluster.clock().now() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn dataset_selected_from_command_token() {
        let cluster = GpuCluster::k80_node();
        let exec = ToolExecutor::new(&cluster);
        let tiny = tiny_racon_spec();
        exec.register_dataset(tiny.clone());
        let spec = exec.dataset_from_command(&["racon", "-t", "4", "TINY_RACON"], "x");
        assert_eq!(spec.name, "tiny_racon");
    }
}
