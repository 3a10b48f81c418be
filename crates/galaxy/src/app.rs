//! The Galaxy application: tool box, destination mapping, and the job
//! submission pipeline of the paper's Fig. 2.
//!
//! [`GalaxyApp`] executes the four steps GYAN instruments:
//!
//! 1. the user submits a job for a tool (`submit`);
//! 2. the job is mapped to a destination — statically via `job_conf`, or
//!    through a registered *dynamic rule* (GYAN's
//!    `gpu_dynamic_destination`);
//! 3. registered [`JobHook`]s run (GYAN's GPU allocation +
//!    `CUDA_VISIBLE_DEVICES`/`GALAXY_GPU_ENABLED` export), the command is
//!    rendered and — for container destinations — wrapped and passed
//!    through [`CommandMutator`]s (GYAN's `--gpus all`/`--nv` injection);
//! 4. the plan is handed to the [`JobExecutor`] and the results are
//!    collected into the history.

use crate::containers::ImageRegistry;
use crate::error::GalaxyError;
use crate::history::History;
use crate::job::conf::{Destination, JobConfig};
use crate::job::{Job, JobState};
use crate::params::ParamDict;
use crate::runners::container_cmd::VolumeBind;
use crate::runners::local::LocalRunner;
use crate::runners::{
    CommandMutator, ExecutionPlan, ExecutionResult, JobConclusion, JobExecutor, JobHook,
    NullExecutor,
};
use crate::slots::Slots;
use crate::tool::macros::MacroLibrary;
use crate::tool::wrapper::parse_tool;
use crate::tool::Tool;
use obs::metrics::Counter;
use obs::{Key, Recorder, Span, Text, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Counter: jobs entering [`GalaxyApp::submit`].
pub const JOBS_SUBMITTED_COUNTER: &str = "galaxy_jobs_submitted_total";
/// Counter: jobs finishing in the `Ok` state.
pub const JOBS_OK_COUNTER: &str = "galaxy_jobs_ok_total";
/// Counter: jobs finishing in the `Error` state.
pub const JOBS_ERROR_COUNTER: &str = "galaxy_jobs_error_total";

/// A dynamic destination rule: given the tool, the job, and the config,
/// return the id of a concrete destination. This is the signature of the
/// paper's `gpu_dynamic_destination` function in `dynamic_destination.py`.
pub type DynamicRule =
    Box<dyn Fn(&Tool, &Job, &JobConfig) -> Result<Arc<str>, GalaxyError> + Send + Sync>;

/// Source of (virtual) time for job timestamps.
pub trait TimeSource: Send + Sync {
    /// Current time in seconds.
    fn now(&self) -> f64;
}

/// A time source pinned to zero (default when no simulator is attached).
#[derive(Debug, Default, Clone, Copy)]
pub struct ZeroTime;

impl TimeSource for ZeroTime {
    fn now(&self) -> f64 {
        0.0
    }
}

/// The Galaxy application.
pub struct GalaxyApp {
    /// Shared, so preparing an attempt takes a handle to the tool, not a
    /// copy of its inputs, outputs and command template.
    tools: HashMap<Arc<str>, Arc<Tool>>,
    pipeline: Pipeline,
    history: History,
    /// Each job with its open `galaxy.job` span, at the job id's slot.
    jobs: Slots<JobSlot>,
    executor: Box<dyn JobExecutor>,
    recorder: Recorder,
    counters: JobCounters,
}

/// One job's record, and its `galaxy.job` span while the job's lifecycle
/// is open (created or prepared, not yet finished) — kept so the queue
/// path can trace several dispatch attempts under one job span.
struct JobSlot {
    job: Job,
    span: Option<Span>,
}

/// The app's lifecycle counters, as handles on its recorder's registry.
struct JobCounters {
    submitted: Counter,
    ok: Counter,
    error: Counter,
}

/// What preparing an attempt reads: the app without its tools, job table
/// and history, so a job can be prepared where it sits in its slot.
struct Pipeline {
    config: JobConfig,
    rules: HashMap<String, DynamicRule>,
    hooks: Vec<Box<dyn JobHook>>,
    mutators: Vec<Box<dyn CommandMutator>>,
    registry: ImageRegistry,
    time: Box<dyn TimeSource>,
    volumes: Vec<VolumeBind>,
}

impl GalaxyApp {
    /// Create an app from a parsed job configuration.
    pub fn new(config: JobConfig) -> Self {
        let recorder = Recorder::new();
        let metrics = recorder.metrics();
        let counters = JobCounters {
            submitted: metrics.counter(JOBS_SUBMITTED_COUNTER),
            ok: metrics.counter(JOBS_OK_COUNTER),
            error: metrics.counter(JOBS_ERROR_COUNTER),
        };
        GalaxyApp {
            tools: HashMap::new(),
            pipeline: Pipeline {
                config,
                rules: HashMap::new(),
                hooks: Vec::new(),
                mutators: Vec::new(),
                registry: ImageRegistry::new(),
                time: Box::new(ZeroTime),
                volumes: Vec::new(),
            },
            history: History::new(),
            jobs: Slots::default(),
            executor: Box::new(NullExecutor),
            recorder,
            counters,
        }
    }

    /// Install a parsed tool into the tool box.
    pub fn install_tool(&mut self, tool: Tool) {
        self.tools.insert(Arc::clone(&tool.id), Arc::new(tool));
    }

    /// Parse a wrapper (with macro library) and install it.
    pub fn install_tool_xml(
        &mut self,
        src: &str,
        library: &MacroLibrary,
    ) -> Result<&Tool, GalaxyError> {
        let tool = parse_tool(src, library)?;
        let id = tool.id.clone();
        self.install_tool(tool);
        Ok(&self.tools[&*id])
    }

    /// Tool by id.
    pub fn tool(&self, id: &str) -> Option<&Tool> {
        self.tools.get(id).map(Arc::as_ref)
    }

    /// Register a dynamic destination rule under `name`.
    pub fn register_rule(&mut self, name: impl Into<String>, rule: DynamicRule) {
        self.pipeline.rules.insert(name.into(), rule);
    }

    /// Register a pre-dispatch hook.
    pub fn add_hook(&mut self, hook: Box<dyn JobHook>) {
        self.pipeline.hooks.push(hook);
    }

    /// Register a command mutator.
    pub fn add_mutator(&mut self, mutator: Box<dyn CommandMutator>) {
        self.pipeline.mutators.push(mutator);
    }

    /// The registered hooks, in registration order — the queue engine
    /// asks them for retry advice.
    pub(crate) fn hooks(&self) -> &[Box<dyn JobHook>] {
        &self.pipeline.hooks
    }

    /// Replace the execution backend.
    pub fn set_executor(&mut self, executor: Box<dyn JobExecutor>) {
        self.executor = executor;
    }

    /// Replace the time source (attach the simulator clock).
    pub fn set_time_source(&mut self, time: Box<dyn TimeSource>) {
        self.pipeline.time = time;
    }

    /// The telemetry recorder for this app.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Replace the container image registry.
    pub fn set_registry(&mut self, registry: ImageRegistry) {
        self.pipeline.registry = registry;
    }

    /// Shared access to the registry.
    pub fn registry(&self) -> &ImageRegistry {
        &self.pipeline.registry
    }

    /// Add a volume bind applied to all container launches.
    pub fn add_volume(&mut self, volume: VolumeBind) {
        self.pipeline.volumes.push(volume);
    }

    /// The parsed job configuration.
    pub fn config(&self) -> &JobConfig {
        &self.pipeline.config
    }

    /// Submit a job for `tool_id` with user-specified `user_params` and run
    /// it to completion (the synchronous single-job path; the queue engine
    /// in [`crate::queue`] drives the same phases asynchronously).
    pub fn submit(&mut self, tool_id: &str, user_params: &ParamDict) -> Result<u64, GalaxyError> {
        let job_id = self.create_job(tool_id, user_params)?;
        let plan = self.prepare_plan(job_id, None)?;
        let result = self.execute_plan(job_id, &plan);
        self.finish_job(job_id, &result, true).map(|()| job_id)
    }

    /// Phase 1 of Fig. 2: resolve the tool, build the parameter dictionary
    /// (declared defaults, then the user's values — Galaxy's
    /// `build_param_dict`), and create the job record in the `New` state.
    /// Opens the job's `galaxy.job` telemetry span; it stays open until
    /// [`GalaxyApp::finish_job`] (or a preparation failure) closes it.
    pub fn create_job(
        &mut self,
        tool_id: &str,
        user_params: &ParamDict,
    ) -> Result<u64, GalaxyError> {
        self.counters.submitted.inc(1);
        // The job id is the next slot's, so the span opens with every
        // field it carries: the tool and either the job id or the error.
        let job_id = self.jobs.next_id();
        let Some(tool) = self.tools.get(tool_id) else {
            self.counters.error.inc(1);
            let job_span = self.recorder.span_with(
                "galaxy.job",
                [("tool", Value::from(tool_id)), ("error", Value::from("unknown tool"))],
            );
            job_span.child("galaxy.tool_parse").end();
            job_span.end();
            return Err(GalaxyError::UnknownTool(tool_id.to_string()));
        };
        let job_span = self
            .recorder
            .span_with("galaxy.job", [("tool", Value::from(tool_id)), ("job_id", job_id.into())]);
        let parse_span = job_span.child("galaxy.tool_parse");
        let mut params = ParamDict::new();
        for input in &tool.inputs {
            if let Some(default) = &input.default {
                params.set(input.name.clone(), default.clone());
            }
        }
        params.extend(user_params);
        parse_span.end_with([("inputs", tool.inputs.len())]);

        let mut job = Job::new(job_id, Arc::clone(&tool.id), params);
        job.submit_time = Some(self.pipeline.time.now());
        self.jobs.insert(job_id, JobSlot { job, span: Some(job_span) });
        Ok(job_id)
    }

    /// Phases 2–3 of Fig. 2: map the job to a destination, run the
    /// registered hooks, and assemble the [`ExecutionPlan`] — without
    /// dispatching it. `dest_override` bypasses mapping and pins a concrete
    /// destination (the queue engine's resubmission path). On failure the
    /// job is marked `Error` with counters/span annotated; a job already in
    /// `Error` may be prepared again (resubmission).
    pub fn prepare_plan(
        &mut self,
        job_id: u64,
        dest_override: Option<&str>,
    ) -> Result<ExecutionPlan, GalaxyError> {
        let Some(JobSlot { job, span }) = self.jobs.get_mut(job_id) else {
            return Err(GalaxyError::UnknownJob(job_id));
        };
        let Some(tool) = self.tools.get(&*job.tool_id) else {
            let err = GalaxyError::UnknownTool(job.tool_id.to_string());
            self.fail_job(job_id, &err);
            return Err(err);
        };
        let job_span = span.get_or_insert_with(|| {
            self.recorder.span_with(
                "galaxy.job",
                [("tool", Value::from(&*job.tool_id)), ("job_id", job_id.into())],
            )
        });
        let result = self.pipeline.prepare(tool, job, job_span, dest_override);
        if let Err(e) = &result {
            self.fail_job(job_id, e);
        }
        result
    }

    /// Dispatch a prepared plan on the app's executor, tracing the
    /// `galaxy.dispatch` phase under the job's span.
    fn execute_plan(&self, job_id: u64, plan: &ExecutionPlan) -> ExecutionResult {
        let dispatch_span = self.job_span_child(
            job_id,
            "galaxy.dispatch",
            [("destination", Value::from(&*plan.destination_id))],
        );
        let result = self.executor.execute(plan);
        if let Some(span) = dispatch_span {
            span.end_with([("exit_code", i64::from(result.exit_code))]);
        }
        result
    }

    /// Open a child span, with its first `fields`, under a live job's
    /// `galaxy.job` span (used by the queue engine to trace dispatch
    /// phases it drives itself).
    pub fn job_span_child<K: Into<Key>, V: Into<Value>>(
        &self,
        job_id: u64,
        name: &'static str,
        fields: impl IntoIterator<Item = (K, V)>,
    ) -> Option<Span> {
        Some(self.jobs.get(job_id)?.span.as_ref()?.child_with(name, fields))
    }

    /// Phase 4 of Fig. 2: record an execution result — timestamps,
    /// captured streams, the state transition, and history collection.
    /// With `final_attempt == false` a failure records the attempt but
    /// leaves the job eligible for resubmission: no failed datasets are
    /// declared, the error counter is untouched, and the job span stays
    /// open so the next attempt traces under it.
    pub fn finish_job(
        &mut self,
        job_id: u64,
        result: &ExecutionResult,
        final_attempt: bool,
    ) -> Result<(), GalaxyError> {
        let now = self.pipeline.time.now();
        let Some(JobSlot { job, span }) = self.jobs.get_mut(job_id) else {
            return Err(GalaxyError::UnknownJob(job_id));
        };
        job.end_time = Some(now);
        job.stdout = result.stdout.clone();
        job.stderr = result.stderr.clone();
        job.exit_code = Some(result.exit_code);
        job.pid = result.pid;
        let tool_outputs = self.tools.get(&*job.tool_id).map_or(&[][..], |t| &t.outputs);

        if result.exit_code == 0 {
            job.transition(JobState::Ok)?;
            for (i, output) in tool_outputs.iter().enumerate() {
                let ds = self.history.declare(output.name.clone(), output.format.clone(), job_id);
                let content = if i == 0 { result.stdout.clone() } else { String::new() };
                self.history.complete(ds, content);
            }
            self.counters.ok.inc(1);
            if let Some(span) = span.take() {
                span.end();
            }
            self.conclude(job_id, JobConclusion::Ok);
            Ok(())
        } else {
            job.transition(JobState::Error)?;
            let err = GalaxyError::ToolFailed(result.stderr.clone());
            if final_attempt {
                for output in tool_outputs {
                    let ds =
                        self.history.declare(output.name.clone(), output.format.clone(), job_id);
                    self.history.fail(ds);
                }
                self.counters.error.inc(1);
                if let Some(span) = span.take() {
                    span.end_with([("error", err.to_string())]);
                }
                self.conclude(job_id, JobConclusion::FailedFinal);
            } else {
                // Release attempt-scoped hook resources (GYAN's GPU lease)
                // *before* the resubmitted attempt re-prepares — the
                // fallback attempt must not inherit the failed one's
                // device reservation.
                self.conclude(job_id, JobConclusion::FailedRetryable);
            }
            Err(err)
        }
    }

    /// Notify every hook that a job's current attempt concluded.
    fn conclude(&self, job_id: u64, conclusion: JobConclusion) {
        for hook in &self.pipeline.hooks {
            hook.after_conclude(job_id, conclusion);
        }
    }

    /// Close a job's open `galaxy.job` span with a `discarded` marker,
    /// notifying no hook. The queue engine uses this for plans skipped by
    /// a mid-wave discard, whose lease release the engine's discard
    /// listener owns.
    pub fn close_job_span_discarded(&mut self, job_id: u64) {
        if let Some(span) = self.jobs.get_mut(job_id).and_then(|slot| slot.span.take()) {
            span.end_with([("discarded", true)]);
        }
    }

    /// Mark a job failed outside the executor path (mapping/hook/template
    /// errors): error counter, span annotation, `Error` state, stderr.
    fn fail_job(&mut self, job_id: u64, e: &GalaxyError) {
        self.counters.error.inc(1);
        if let Some(JobSlot { job, span }) = self.jobs.get_mut(job_id) {
            if let Some(span) = span.take() {
                span.end_with([("error", e.to_string())]);
            }
            let _ = job.transition(JobState::Error);
            job.stderr = e.to_string();
        }
        self.conclude(job_id, JobConclusion::PrepareFailed);
    }

    /// Resolve the destination for a tool's job, following one level of
    /// dynamic-rule indirection.
    pub fn map_destination(&self, tool: &Tool, job: &Job) -> Result<&Destination, GalaxyError> {
        self.pipeline.map_destination(tool, job)
    }

    /// Job by id.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(id).map(|slot| &slot.job)
    }

    /// Mutable job by id — how the queue engine writes an attempt's
    /// context (user, excluded nodes, revised budget) before dispatch.
    pub(crate) fn job_mut(&mut self, id: u64) -> Option<&mut Job> {
        self.jobs.get_mut(id).map(|slot| &mut slot.job)
    }

    /// Set an environment variable on a job's record before dispatch
    /// (e.g. a submitter's declared input size). Returns false for
    /// unknown job ids.
    pub fn set_job_env(&mut self, id: u64, key: &str, value: &str) -> bool {
        let (key, value) = (Text::concat(&[key]), Text::concat(&[value]));
        self.job_mut(id).map(|job| job.set_env(key, value)).is_some()
    }

    /// All jobs, ordered by id (the order they sit in).
    pub fn jobs(&self) -> Vec<&Job> {
        self.jobs.iter().map(|slot| &slot.job).collect()
    }

    /// The history of produced datasets.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The recorder's log retention ([`Recorder::set_log_retention`])
    /// under its old name, from when the app kept a second event log.
    /// Kept only for the `benchmark/` crate, which calls it, until
    /// ROADMAP 1(a) drops those calls.
    pub fn set_event_log_limit(&mut self, limit: Option<usize>) {
        self.recorder.set_log_retention(limit);
    }
}

impl Pipeline {
    /// Steps 2–3 of Fig. 2 for one attempt, traced under `job_span`.
    fn prepare(
        &self,
        tool: &Tool,
        job: &mut Job,
        job_span: &Span,
        dest_override: Option<&str>,
    ) -> Result<ExecutionPlan, GalaxyError> {
        // Step 2 of Fig. 2: destination mapping (or the resubmission
        // override, which skips the rule and targets a fallback directly).
        let map_span = job_span.child("galaxy.map_destination");
        let destination = match dest_override {
            Some(id) => self
                .config
                .destination(id)
                .ok_or_else(|| GalaxyError::UnknownDestination(id.to_string()))?,
            None => self.map_destination(tool, job)?,
        };
        let mapped = Value::from(&*destination.id);
        match dest_override {
            Some(_) => {
                map_span.end_with([("override", Value::from(true)), ("destination", mapped)])
            }
            None => map_span.end_with([("destination", mapped)]),
        }
        job.destination_id = Some(Arc::clone(&destination.id));
        job.transition(JobState::Queued)?;

        // GYAN's extension point: hooks adjust env + params before the
        // command is rendered.
        let hooks_span = job_span.child_with("galaxy.hooks", [("hooks", self.hooks.len())]);
        for hook in &self.hooks {
            hook.before_dispatch(job, tool, destination);
        }
        hooks_span.end();

        // Step 3: command assembly (the template-render and
        // container-assembly phases span themselves under `job_span`).
        let plan = LocalRunner.build_plan(
            tool,
            job,
            destination,
            &self.registry,
            &self.mutators,
            &self.volumes,
            Some(job_span),
        )?;
        job.command_line = Some(Arc::clone(&plan.command_line));
        job.transition(JobState::Running)?;
        job.start_time = Some(self.time.now());
        Ok(plan)
    }

    /// See [`GalaxyApp::map_destination`].
    fn map_destination(&self, tool: &Tool, job: &Job) -> Result<&Destination, GalaxyError> {
        let dest_id = self.config.destination_for_tool(&tool.id).ok_or_else(|| {
            GalaxyError::UnknownDestination(format!("no mapping for {}", tool.id))
        })?;
        let dest = self
            .config
            .destination(dest_id)
            .ok_or_else(|| GalaxyError::UnknownDestination(dest_id.to_string()))?;
        if !dest.is_dynamic() {
            return Ok(dest);
        }
        let rule_name = dest.rule_function().ok_or_else(|| {
            GalaxyError::BadJobConf(format!("dynamic {} has no function", dest.id))
        })?;
        let rule = self
            .rules
            .get(rule_name)
            .ok_or_else(|| GalaxyError::UnknownRule(rule_name.to_string()))?;
        let chosen_id = rule(tool, job, &self.config)?;
        let chosen = self
            .config
            .destination(&chosen_id)
            .ok_or_else(|| GalaxyError::UnknownDestination(chosen_id.to_string()))?;
        if chosen.is_dynamic() {
            return Err(GalaxyError::BadJobConf(format!(
                "dynamic rule {rule_name} returned another dynamic destination {chosen_id}"
            )));
        }
        Ok(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::conf::GYAN_JOB_CONF;

    fn spans_named(rec: &Recorder, name: &str) -> Vec<obs::SpanData> {
        rec.spans().into_iter().filter(|s| s.name == name).collect()
    }

    const ECHO_TOOL: &str = r#"<tool id="echo" name="Echo">
      <command>echo $text</command>
      <inputs><param name="text" type="text" value="hello"/></inputs>
      <outputs><data name="out" format="txt"/></outputs>
    </tool>"#;

    fn app_with_echo() -> GalaxyApp {
        let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
        app.install_tool_xml(ECHO_TOOL, &MacroLibrary::new()).unwrap();
        // Route everything to the plain CPU destination for these tests.
        app.register_rule(
            "gpu_dynamic_destination",
            Box::new(|_tool, _job, _conf| Ok("local_cpu".into())),
        );
        app
    }

    #[test]
    fn submit_runs_job_to_ok() {
        let mut app = app_with_echo();
        let mut params = ParamDict::new();
        params.set("text", "world");
        let id = app.submit("echo", &params).unwrap();
        let job = app.job(id).unwrap();
        assert_eq!(job.state(), JobState::Ok);
        assert_eq!(job.command_line.as_deref(), Some("echo world"));
        assert_eq!(job.destination_id.as_deref(), Some("local_cpu"));
        assert_eq!(app.history().datasets_for_job(id).len(), 1);
    }

    #[test]
    fn defaults_fill_missing_params() {
        let mut app = app_with_echo();
        let id = app.submit("echo", &ParamDict::new()).unwrap();
        assert_eq!(app.job(id).unwrap().command_line.as_deref(), Some("echo hello"));
    }

    #[test]
    fn unknown_tool_rejected() {
        let mut app = app_with_echo();
        assert!(matches!(app.submit("ghost", &ParamDict::new()), Err(GalaxyError::UnknownTool(_))));
    }

    #[test]
    fn unregistered_rule_fails_mapping() {
        let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
        app.install_tool_xml(ECHO_TOOL, &MacroLibrary::new()).unwrap();
        let err = app.submit("echo", &ParamDict::new()).unwrap_err();
        assert!(matches!(err, GalaxyError::UnknownRule(_)));
        // The job record still exists, in Error state.
        assert_eq!(app.jobs().len(), 1);
        assert_eq!(app.jobs()[0].state(), JobState::Error);
    }

    #[test]
    fn rule_returning_dynamic_destination_rejected() {
        let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
        app.install_tool_xml(ECHO_TOOL, &MacroLibrary::new()).unwrap();
        app.register_rule("gpu_dynamic_destination", Box::new(|_, _, _| Ok("dynamic_dest".into())));
        assert!(matches!(app.submit("echo", &ParamDict::new()), Err(GalaxyError::BadJobConf(_))));
    }

    #[test]
    fn failing_executor_marks_job_error() {
        struct Failing;
        impl JobExecutor for Failing {
            fn execute(
                &self,
                _p: &crate::runners::ExecutionPlan,
            ) -> crate::runners::ExecutionResult {
                crate::runners::ExecutionResult::fail(1, "tool blew up")
            }
        }
        let mut app = app_with_echo();
        app.set_executor(Box::new(Failing));
        let err = app.submit("echo", &ParamDict::new()).unwrap_err();
        assert!(matches!(err, GalaxyError::ToolFailed(_)));
        let job = app.jobs()[0];
        assert_eq!(job.state(), JobState::Error);
        assert_eq!(job.exit_code, Some(1));
        // Output dataset exists but failed.
        assert_eq!(app.history().datasets_for_job(job.id).len(), 1);
    }

    #[test]
    fn hooks_run_before_command_render() {
        struct InjectText;
        impl JobHook for InjectText {
            fn before_dispatch(&self, job: &mut Job, _t: &Tool, _d: &Destination) {
                job.params.set("text", "from-hook");
                job.set_env("GALAXY_GPU_ENABLED", "false");
            }
        }
        let mut app = app_with_echo();
        app.add_hook(Box::new(InjectText));
        let id = app.submit("echo", &ParamDict::new()).unwrap();
        let job = app.job(id).unwrap();
        assert_eq!(job.command_line.as_deref(), Some("echo from-hook"));
        assert_eq!(job.env_var("GALAXY_GPU_ENABLED"), Some("false"));
    }

    #[test]
    fn static_tool_mapping_bypasses_rule() {
        let conf = r#"<job_conf>
          <plugins><plugin id="local" type="runner" load="x"/></plugins>
          <destinations default="dyn">
            <destination id="dyn" runner="dynamic">
              <param id="function">gpu_dynamic_destination</param>
            </destination>
            <destination id="pinned" runner="local"/>
          </destinations>
          <tools><tool id="echo" destination="pinned"/></tools>
        </job_conf>"#;
        let mut app = GalaxyApp::new(JobConfig::from_xml(conf).unwrap());
        app.install_tool_xml(ECHO_TOOL, &MacroLibrary::new()).unwrap();
        let id = app.submit("echo", &ParamDict::new()).unwrap();
        assert_eq!(app.job(id).unwrap().destination_id.as_deref(), Some("pinned"));
    }

    #[test]
    fn submit_emits_phase_span_tree_and_counters() {
        let mut app = app_with_echo();
        app.submit("echo", &ParamDict::new()).unwrap();

        let rec = app.recorder();
        let job = &spans_named(rec, "galaxy.job")[0];
        assert_eq!(job.field("tool").and_then(|v| v.as_str()), Some("echo"));
        assert_eq!(job.field("job_id").and_then(|v| v.as_f64()), Some(1.0));
        assert!(job.end.is_some(), "job span must close");
        for phase in [
            "galaxy.tool_parse",
            "galaxy.map_destination",
            "galaxy.hooks",
            "galaxy.template_render",
            "galaxy.container_assembly",
            "galaxy.dispatch",
        ] {
            let spans = spans_named(rec, phase);
            assert_eq!(spans.len(), 1, "missing phase span {phase}");
            assert_eq!(spans[0].parent, Some(job.id), "{phase} must nest under the job");
            assert!(spans[0].end.is_some(), "{phase} must close");
        }
        let dispatch = &spans_named(rec, "galaxy.dispatch")[0];
        assert_eq!(dispatch.field("exit_code").and_then(|v| v.as_f64()), Some(0.0));

        let m = rec.metrics();
        assert_eq!(m.counter_value(JOBS_SUBMITTED_COUNTER), 1);
        assert_eq!(m.counter_value(JOBS_OK_COUNTER), 1);
        assert_eq!(m.counter_value(JOBS_ERROR_COUNTER), 0);
    }

    #[test]
    fn failed_job_counts_and_annotates_span() {
        let mut app = app_with_echo();
        let _ = app.submit("ghost", &ParamDict::new());
        struct Failing;
        impl JobExecutor for Failing {
            fn execute(
                &self,
                _p: &crate::runners::ExecutionPlan,
            ) -> crate::runners::ExecutionResult {
                crate::runners::ExecutionResult::fail(2, "boom")
            }
        }
        app.set_executor(Box::new(Failing));
        let _ = app.submit("echo", &ParamDict::new());

        let m = app.recorder().metrics();
        assert_eq!(m.counter_value(JOBS_SUBMITTED_COUNTER), 2);
        assert_eq!(m.counter_value(JOBS_ERROR_COUNTER), 2);
        assert_eq!(m.counter_value(JOBS_OK_COUNTER), 0);
        let jobs = spans_named(app.recorder(), "galaxy.job");
        assert!(jobs.iter().all(|s| s.field("error").is_some()));
    }

    #[test]
    fn event_log_limit_caps_the_recorder_log() {
        let mut app = app_with_echo();
        app.set_event_log_limit(Some(8));
        for _ in 0..10 {
            app.submit("echo", &ParamDict::new()).unwrap();
        }
        let (dropped_spans, _) = app.recorder().dropped_log_records();
        assert!(dropped_spans > 0, "ten jobs' spans must overflow a retention of 8");
    }
}
