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
use crate::tool::macros::MacroLibrary;
use crate::tool::wrapper::parse_tool;
use crate::tool::Tool;
use obs::{Recorder, Span};
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
    Box<dyn Fn(&Tool, &Job, &JobConfig) -> Result<String, GalaxyError> + Send + Sync>;

/// Placement-aware resubmission callback: `(tool_id, destination_id,
/// excluded_nodes) -> can_still_host`. Installed by a placement layer
/// (the fleet) so the queue engine can ask, without a dependency on it,
/// whether retrying a failed attempt on the same destination is viable
/// once the failed node is excluded — falling to the ordinary fallback
/// ladder when it is not.
pub type PlacementAdvisor = Box<dyn Fn(&str, &str, &[String]) -> bool + Send + Sync>;

/// Footprint-aware resubmission callback: given the failed job (with its
/// per-attempt env still attached), return a revised GPU memory budget
/// (MiB) for a same-destination retry — or `None` when no better budget
/// is known and the failure should walk the ordinary fallback ladder.
/// Installed by a footprint layer (GYAN's learned profiles) so the queue
/// engine can resubmit with a grown budget, via
/// [`crate::GALAXY_GPU_BUDGET_OVERRIDE_ENV`], before blindly falling
/// from GPU to CPU.
pub type FootprintAdvisor = Box<dyn Fn(&Job) -> Option<u64> + Send + Sync>;

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

/// One timestamped event in the application log.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual time of the event.
    pub t: f64,
    /// Human-readable description.
    pub message: String,
}

/// The Galaxy application.
pub struct GalaxyApp {
    /// Shared, so preparing an attempt takes a handle to the tool, not a
    /// copy of its inputs, outputs and command template.
    tools: HashMap<String, Arc<Tool>>,
    config: JobConfig,
    rules: HashMap<String, DynamicRule>,
    hooks: Vec<Box<dyn JobHook>>,
    mutators: Vec<Box<dyn CommandMutator>>,
    registry: ImageRegistry,
    history: History,
    jobs: HashMap<u64, Job>,
    next_job_id: u64,
    executor: Box<dyn JobExecutor>,
    time: Box<dyn TimeSource>,
    volumes: Vec<VolumeBind>,
    events: Vec<Event>,
    /// Optional cap on the app event log; `None` retains everything.
    /// Soak harnesses set this — per-job lifecycle strings would
    /// otherwise grow O(jobs) over a 10^5-user run.
    event_log_limit: Option<usize>,
    dropped_events: u64,
    recorder: Recorder,
    /// `galaxy.job` spans of jobs whose lifecycle is still open (created
    /// or prepared but not yet finished) — kept so the asynchronous queue
    /// path can span multiple dispatch attempts under one job span.
    open_spans: HashMap<u64, Span>,
    placement_advisor: Option<PlacementAdvisor>,
    footprint_advisor: Option<FootprintAdvisor>,
}

impl GalaxyApp {
    /// Create an app from a parsed job configuration.
    pub fn new(config: JobConfig) -> Self {
        GalaxyApp {
            tools: HashMap::new(),
            config,
            rules: HashMap::new(),
            hooks: Vec::new(),
            mutators: Vec::new(),
            registry: ImageRegistry::new(),
            history: History::new(),
            jobs: HashMap::new(),
            next_job_id: 0,
            executor: Box::new(NullExecutor),
            time: Box::new(ZeroTime),
            volumes: Vec::new(),
            events: Vec::new(),
            event_log_limit: None,
            dropped_events: 0,
            recorder: Recorder::new(),
            open_spans: HashMap::new(),
            placement_advisor: None,
            footprint_advisor: None,
        }
    }

    /// Install a parsed tool into the tool box.
    pub fn install_tool(&mut self, tool: Tool) {
        self.tools.insert(tool.id.clone(), Arc::new(tool));
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
        Ok(&self.tools[&id])
    }

    /// Tool by id.
    pub fn tool(&self, id: &str) -> Option<&Tool> {
        self.tools.get(id).map(Arc::as_ref)
    }

    /// Iterator over every installed tool (unordered).
    pub fn tools(&self) -> impl Iterator<Item = &Tool> {
        self.tools.values().map(Arc::as_ref)
    }

    /// Register a dynamic destination rule under `name`.
    pub fn register_rule(&mut self, name: impl Into<String>, rule: DynamicRule) {
        self.rules.insert(name.into(), rule);
    }

    /// Register a pre-dispatch hook.
    pub fn add_hook(&mut self, hook: Box<dyn JobHook>) {
        self.hooks.push(hook);
    }

    /// Register a command mutator.
    pub fn add_mutator(&mut self, mutator: Box<dyn CommandMutator>) {
        self.mutators.push(mutator);
    }

    /// Install the placement-aware resubmission advisor (see
    /// [`PlacementAdvisor`]). Replaces any previous advisor.
    pub fn set_placement_advisor(&mut self, advisor: PlacementAdvisor) {
        self.placement_advisor = Some(advisor);
    }

    /// The installed placement advisor, if any.
    pub fn placement_advisor(&self) -> Option<&PlacementAdvisor> {
        self.placement_advisor.as_ref()
    }

    /// Install the footprint-aware resubmission advisor (see
    /// [`FootprintAdvisor`]). Replaces any previous advisor.
    pub fn set_footprint_advisor(&mut self, advisor: FootprintAdvisor) {
        self.footprint_advisor = Some(advisor);
    }

    /// The installed footprint advisor, if any.
    pub fn footprint_advisor(&self) -> Option<&FootprintAdvisor> {
        self.footprint_advisor.as_ref()
    }

    /// Replace the execution backend.
    pub fn set_executor(&mut self, executor: Box<dyn JobExecutor>) {
        self.executor = executor;
    }

    /// Replace the time source (attach the simulator clock).
    pub fn set_time_source(&mut self, time: Box<dyn TimeSource>) {
        self.time = time;
    }

    /// Replace the telemetry recorder (share one with the scheduler or
    /// GYAN components). Clones of the handle see everything this app
    /// records.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The telemetry recorder for this app.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Replace the container image registry.
    pub fn set_registry(&mut self, registry: ImageRegistry) {
        self.registry = registry;
    }

    /// Shared access to the registry.
    pub fn registry(&self) -> &ImageRegistry {
        &self.registry
    }

    /// Add a volume bind applied to all container launches.
    pub fn add_volume(&mut self, volume: VolumeBind) {
        self.volumes.push(volume);
    }

    /// The parsed job configuration.
    pub fn config(&self) -> &JobConfig {
        &self.config
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
        self.recorder.metrics().inc_counter(JOBS_SUBMITTED_COUNTER, 1);
        let job_span = self.recorder.span("galaxy.job");
        job_span.field("tool", tool_id);

        let parse_span = job_span.child("galaxy.tool_parse");
        let tool = match self.tools.get(tool_id) {
            Some(t) => t,
            None => {
                self.recorder.metrics().inc_counter(JOBS_ERROR_COUNTER, 1);
                job_span.field("error", "unknown tool");
                return Err(GalaxyError::UnknownTool(tool_id.to_string()));
            }
        };
        let mut params = ParamDict::new();
        for input in &tool.inputs {
            if let Some(default) = &input.default {
                params.set(input.name.clone(), default.clone());
            }
        }
        params.extend(user_params);
        parse_span.field("inputs", tool.inputs.len());
        parse_span.end();

        self.next_job_id += 1;
        let job_id = self.next_job_id;
        job_span.field("job_id", job_id);
        let mut job = Job::new(job_id, tool_id, params);
        job.submit_time = Some(self.time.now());
        self.jobs.insert(job_id, job);
        self.open_spans.insert(job_id, job_span);
        self.log(format!("job {job_id} submitted for tool {tool_id}"));
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
        let Some(mut job) = self.jobs.remove(&job_id) else {
            return Err(GalaxyError::UnknownJob(job_id));
        };
        let Some(tool) = self.tools.get(&job.tool_id).cloned() else {
            let err = GalaxyError::UnknownTool(job.tool_id.clone());
            self.jobs.insert(job_id, job);
            self.fail_job(job_id, &err);
            return Err(err);
        };
        let job_span = self.open_spans.remove(&job_id).unwrap_or_else(|| {
            let s = self.recorder.span("galaxy.job");
            s.field("tool", job.tool_id.as_str());
            s.field("job_id", job_id);
            s
        });
        let result = self.prepare_job(&tool, &mut job, &job_span, dest_override);
        self.jobs.insert(job_id, job);
        self.open_spans.insert(job_id, job_span);
        if let Err(e) = &result {
            self.fail_job(job_id, e);
        }
        result
    }

    fn prepare_job(
        &mut self,
        tool: &Tool,
        job: &mut Job,
        job_span: &Span,
        dest_override: Option<&str>,
    ) -> Result<ExecutionPlan, GalaxyError> {
        // Step 2 of Fig. 2: destination mapping (or the resubmission
        // override, which skips the rule and targets a fallback directly).
        let map_span = job_span.child("galaxy.map_destination");
        let destination = match dest_override {
            Some(id) => {
                let dest = self
                    .config
                    .destination(id)
                    .ok_or_else(|| GalaxyError::UnknownDestination(id.to_string()))?;
                map_span.field("override", true);
                dest.clone()
            }
            None => self.map_destination(tool, job)?,
        };
        map_span.field("destination", destination.id.as_str());
        map_span.end();
        job.destination_id = Some(destination.id.clone());
        job.transition(JobState::Queued)?;
        self.log(format!("job {} mapped to destination {}", job.id, destination.id));

        // GYAN's extension point: hooks adjust env + params before the
        // command is rendered.
        let hooks_span = job_span.child("galaxy.hooks");
        hooks_span.field("hooks", self.hooks.len());
        for hook in &self.hooks {
            hook.before_dispatch(job, tool, &destination);
        }
        hooks_span.end();

        // Step 3: command assembly (the template-render and
        // container-assembly phases span themselves under `job_span`).
        let plan = LocalRunner.build_plan_traced(
            tool,
            job,
            &destination,
            &self.registry,
            &self.mutators,
            &self.volumes,
            job_span,
        )?;
        job.command_line = Some(plan.command_line.clone());
        job.transition(JobState::Running)?;
        job.start_time = Some(self.time.now());
        self.log(format!("job {} running: {}", job.id, plan.rendered_command()));
        Ok(plan)
    }

    /// Dispatch a prepared plan on the app's executor, tracing the
    /// `galaxy.dispatch` phase under the job's span.
    fn execute_plan(&self, job_id: u64, plan: &ExecutionPlan) -> ExecutionResult {
        let dispatch_span = self.job_span_child(job_id, "galaxy.dispatch");
        if let Some(span) = &dispatch_span {
            span.field("destination", plan.destination_id.as_str());
        }
        let result = self.executor.execute(plan);
        if let Some(span) = dispatch_span {
            span.field("exit_code", i64::from(result.exit_code));
            span.end();
        }
        result
    }

    /// Open a child span under a live job's `galaxy.job` span (used by the
    /// queue engine to trace dispatch phases it drives itself).
    pub fn job_span_child(&self, job_id: u64, name: &'static str) -> Option<Span> {
        self.open_spans.get(&job_id).map(|s| s.child(name))
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
        let now = self.time.now();
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return Err(GalaxyError::UnknownJob(job_id));
        };
        job.end_time = Some(now);
        job.stdout = result.stdout.clone();
        job.stderr = result.stderr.clone();
        job.exit_code = Some(result.exit_code);
        job.pid = result.pid;
        let tool_outputs = self.tools.get(&job.tool_id).map_or(&[][..], |t| &t.outputs);

        if result.exit_code == 0 {
            job.transition(JobState::Ok)?;
            for (i, output) in tool_outputs.iter().enumerate() {
                let ds = self.history.declare(output.name.clone(), output.format.clone(), job_id);
                let content = if i == 0 { result.stdout.clone() } else { String::new() };
                self.history.complete(ds, content);
            }
            self.recorder.metrics().inc_counter(JOBS_OK_COUNTER, 1);
            if let Some(span) = self.open_spans.remove(&job_id) {
                span.end();
            }
            self.log(format!("job {job_id} ok"));
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
                self.recorder.metrics().inc_counter(JOBS_ERROR_COUNTER, 1);
                if let Some(span) = self.open_spans.remove(&job_id) {
                    span.field("error", err.to_string());
                    span.end();
                }
                self.log(format!("job {job_id} error (exit {})", result.exit_code));
                self.conclude(job_id, JobConclusion::FailedFinal);
            } else {
                self.log(format!(
                    "job {job_id} attempt failed (exit {}), eligible for resubmission",
                    result.exit_code
                ));
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
        for hook in &self.hooks {
            hook.after_conclude(job_id, conclusion);
        }
    }

    /// Notify hooks that a prepared-but-never-executed plan was dropped
    /// (discard shutdown) so attempt-scoped resources are released.
    pub fn discard_job(&mut self, job_id: u64) {
        self.log(format!("job {job_id} discarded before execution"));
        self.close_job_span_discarded(job_id);
        self.conclude(job_id, JobConclusion::Discarded);
    }

    /// Close a job's open `galaxy.job` span with a `discarded` marker
    /// WITHOUT notifying hooks. The queue engine uses this for plans
    /// skipped by a mid-wave discard, where lease release is owned by the
    /// pool's discard listener (same path as a discard shutdown) and a
    /// second conclusion would double-notify.
    pub fn close_job_span_discarded(&mut self, job_id: u64) {
        if let Some(span) = self.open_spans.remove(&job_id) {
            span.field("discarded", true);
            span.end();
        }
    }

    /// Mark a job failed outside the executor path (mapping/hook/template
    /// errors): error counter, span annotation, `Error` state, stderr.
    fn fail_job(&mut self, job_id: u64, e: &GalaxyError) {
        self.recorder.metrics().inc_counter(JOBS_ERROR_COUNTER, 1);
        if let Some(span) = self.open_spans.remove(&job_id) {
            span.field("error", e.to_string());
            span.end();
        }
        self.log(format!("job {job_id} failed: {e}"));
        if let Some(job) = self.jobs.get_mut(&job_id) {
            let _ = job.transition(JobState::Error);
            job.stderr = e.to_string();
        }
        self.conclude(job_id, JobConclusion::PrepareFailed);
    }

    /// Resolve the destination for a tool's job, following one level of
    /// dynamic-rule indirection.
    pub fn map_destination(&self, tool: &Tool, job: &Job) -> Result<Destination, GalaxyError> {
        let dest_id = self.config.destination_for_tool(&tool.id).ok_or_else(|| {
            GalaxyError::UnknownDestination(format!("no mapping for {}", tool.id))
        })?;
        let dest = self
            .config
            .destination(dest_id)
            .ok_or_else(|| GalaxyError::UnknownDestination(dest_id.to_string()))?;
        if !dest.is_dynamic() {
            return Ok(dest.clone());
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
            .ok_or_else(|| GalaxyError::UnknownDestination(chosen_id.clone()))?;
        if chosen.is_dynamic() {
            return Err(GalaxyError::BadJobConf(format!(
                "dynamic rule {rule_name} returned another dynamic destination {chosen_id}"
            )));
        }
        Ok(chosen.clone())
    }

    /// Job by id.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// Set an environment variable on a job's record before dispatch —
    /// how the queue engine passes per-submission context (e.g.
    /// [`crate::GALAXY_USER_ENV`]) to pre-dispatch hooks. Returns false
    /// for unknown job ids.
    pub fn set_job_env(&mut self, id: u64, key: &str, value: &str) -> bool {
        match self.jobs.get_mut(&id) {
            Some(job) => {
                job.set_env(key, value);
                true
            }
            None => false,
        }
    }

    /// Remove an environment variable from a job's record — the companion
    /// of [`GalaxyApp::set_job_env`] for per-attempt context that must
    /// not leak onto the next attempt (e.g. the exclusion set of
    /// [`crate::GALAXY_EXCLUDED_NODES_ENV`]). Returns false when the job
    /// is unknown or the key was absent.
    pub fn remove_job_env(&mut self, id: u64, key: &str) -> bool {
        self.jobs.get_mut(&id).map(|job| job.remove_env(key)).unwrap_or(false)
    }

    /// All jobs, ordered by id.
    pub fn jobs(&self) -> Vec<&Job> {
        let mut v: Vec<&Job> = self.jobs.values().collect();
        v.sort_by_key(|j| j.id);
        v
    }

    /// The history of produced datasets.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The application event log.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Cap the app event log at roughly `limit` entries, evicting the
    /// oldest in amortized batches (~25% slack) once exceeded. `None`
    /// (the default) retains everything.
    pub fn set_event_log_limit(&mut self, limit: Option<usize>) {
        self.event_log_limit = limit;
        self.evict_events();
    }

    /// App events evicted by the log cap so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    fn log(&mut self, message: String) {
        self.events.push(Event { t: self.time.now(), message });
        self.evict_events();
    }

    fn evict_events(&mut self) {
        let Some(limit) = self.event_log_limit else { return };
        let slack = limit / 4 + 1;
        if self.events.len() > limit + slack {
            let drop_n = self.events.len() - limit;
            self.events.drain(0..drop_n);
            self.dropped_events += drop_n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::conf::GYAN_JOB_CONF;

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
            Box::new(|_tool, _job, _conf| Ok("local_cpu".to_string())),
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
        app.register_rule(
            "gpu_dynamic_destination",
            Box::new(|_, _, _| Ok("dynamic_dest".to_string())),
        );
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
        let job = &rec.spans_named("galaxy.job")[0];
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
            let spans = rec.spans_named(phase);
            assert_eq!(spans.len(), 1, "missing phase span {phase}");
            assert_eq!(spans[0].parent, Some(job.id), "{phase} must nest under the job");
            assert!(spans[0].end.is_some(), "{phase} must close");
        }
        let dispatch = &rec.spans_named("galaxy.dispatch")[0];
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
        let jobs = app.recorder().spans_named("galaxy.job");
        assert!(jobs.iter().all(|s| s.field("error").is_some()));
    }

    #[test]
    fn events_logged_through_lifecycle() {
        let mut app = app_with_echo();
        let id = app.submit("echo", &ParamDict::new()).unwrap();
        let messages: Vec<&str> = app.events().iter().map(|e| e.message.as_str()).collect();
        assert!(messages.iter().any(|m| m.contains("submitted")));
        assert!(messages.iter().any(|m| m.contains("mapped to destination local_cpu")));
        assert!(messages.iter().any(|m| m.contains(&format!("job {id} ok"))));
    }
}
