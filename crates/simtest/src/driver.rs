//! The one scenario driver under `simtest::harness` and
//! `loadgen::driver`: build the real stack, pump it wave by wave with
//! the SLO plane and the lease-leak invariant checked at every barrier,
//! run the whole-run checks, and report any failure in one shape.
//!
//! Nothing here knows what a scenario *is*. A caller hands in its tool
//! wrappers, hardware, executor and queue shape ([`StackSpec`]), its
//! arrivals and how to submit one, and two hooks around each wave; the
//! driver owns everything the harnesses used to hand-build in parallel —
//! and is topology-blind the way the GPU hook is: [`Gpus`] is the only
//! place a single node and a fleet differ.

use crate::invariants::{self, Violation};
use crate::{Failure, SimReport};
use fleet::{Fleet, FleetBuilder, FleetConfig};
use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::queue::{DurationModel, QueueConfig, QueueEngine, SubmissionState, WaveTimeCharging};
use galaxy::runners::JobExecutor;
use galaxy::tool::macros::MacroLibrary;
use galaxy::{GalaxyApp, GalaxyError};
use gpusim::{GpuCluster, VirtualClock};
use gyan::allocation::AllocationPolicy;
use gyan::footprint::MemoryHint;
use gyan::ops::{default_alert_rules, galaxy_alert_rules};
use gyan::setup::{install_gyan, ClusterTime, GyanConfig};
use gyan::LeaseTable;
use obs::slo::{AlertEngine, AlertExpr, AlertRule, Compare};
use obs::Recorder;
use std::sync::Arc;

/// Destination GPU jobs are routed to, whatever the topology.
const GPU_DESTINATION: &str = "local_gpu";

/// What identifies a run in a failure report: the seed, the environment
/// variable a test reads it back from, and the scenario's description.
#[derive(Debug, Clone)]
pub struct Repro {
    /// Generating seed.
    pub seed: u64,
    /// Name of the variable that replays it (`SIMTEST_SEED`, …).
    pub seed_env: &'static str,
    /// Scenario description.
    pub scenario: String,
}

impl Repro {
    /// `violation` at `wave` (None = setup or a whole-run check), with no
    /// alert or flight-recorder context — [`Stack::fail`] adds those.
    pub fn failure(&self, wave: Option<usize>, violation: Violation) -> Failure {
        Failure {
            seed: self.seed,
            seed_env: self.seed_env,
            wave,
            reason: violation.invariant,
            detail: violation.detail,
            scenario: self.scenario.clone(),
            fired_alerts: Vec::new(),
            flight_jsonl: None,
        }
    }
}

impl Failure {
    /// With the alerts firing and the flight-recorder dump of this
    /// moment attached, so a repro seed comes with its own black box.
    fn observed(mut self, alerts: &AlertEngine, recorder: &Recorder) -> Failure {
        self.fired_alerts = alerts.firing();
        self.flight_jsonl = recorder.flight_snapshot().map(|s| s.to_jsonl());
        self
    }
}

/// GPU hardware before it is wired into an app.
pub enum Hardware {
    /// One node.
    Node(GpuCluster),
    /// A fleet, as a builder: the app's recorder is attached on install.
    Fleet(FleetBuilder),
}

/// Where GPU jobs are placed — what [`install_gyan`] or
/// [`fleet::install_fleet`] wired into the app. Every per-topology
/// difference of a scenario run lives in this type's methods.
#[derive(Clone)]
pub enum Gpus {
    /// Single-node GYAN: the node and its lease table.
    Node {
        /// The simulated node.
        cluster: GpuCluster,
        /// The lease table `install_gyan` returned.
        table: LeaseTable,
    },
    /// A fleet of nodes behind two-phase placement.
    Fleet(Fleet),
}

impl Gpus {
    /// Install GYAN over `hardware` into `app`. `policy` is the single
    /// node's device allocation strategy (a fleet's shards keep their
    /// builder's); `memory_hint` applies to both.
    pub fn install(
        hardware: Hardware,
        app: &mut GalaxyApp,
        policy: AllocationPolicy,
        memory_hint: MemoryHint,
    ) -> Gpus {
        match hardware {
            Hardware::Node(cluster) => {
                let config = GyanConfig { policy, memory_hint, ..GyanConfig::default() };
                let table = install_gyan(app, &cluster, config);
                Gpus::Node { cluster, table }
            }
            Hardware::Fleet(builder) => {
                let fleet = builder.recorder(app.recorder().clone()).build();
                let config = FleetConfig {
                    gpu_destination: GPU_DESTINATION.to_string(),
                    gpu_destinations: vec![GPU_DESTINATION.to_string()],
                    memory_hint,
                    ..FleetConfig::default()
                };
                fleet::install_fleet(app, &fleet, config);
                Gpus::Fleet(fleet)
            }
        }
    }

    /// The shared virtual timeline.
    pub fn clock(&self) -> &VirtualClock {
        match self {
            Gpus::Node { cluster, .. } => cluster.clock(),
            Gpus::Fleet(fleet) => fleet.clock(),
        }
    }

    /// Leases currently held, on the node or across the fleet.
    pub fn lease_count(&self) -> usize {
        match self {
            Gpus::Node { table, .. } => table.lease_count(),
            Gpus::Fleet(fleet) => fleet.total_lease_count(),
        }
    }

    /// The barrier invariant: every lease of the wave was released.
    pub fn leaked_leases(&self, wave: usize) -> Result<(), Violation> {
        match self {
            Gpus::Node { table, .. } => invariants::no_leaked_leases(table, wave),
            Gpus::Fleet(fleet) => invariants::fleet_lease_leak(fleet, wave),
        }
    }

    /// The stock SLO rules of the topology.
    pub fn slo_rules(&self) -> Vec<AlertRule> {
        match self {
            Gpus::Node { table, .. } => default_alert_rules(table),
            Gpus::Fleet(fleet) => fleet_slo_rules(fleet),
        }
    }
}

/// The SLO rules a fleet topology arms: [`galaxy_alert_rules`] (a
/// fleet has no single lease table for the other two stock rules) plus
/// `fleet-lease-leak`, the fleet analogue of lease-oversubscription —
/// at a wave barrier every placement must have been released.
pub fn fleet_slo_rules(fleet: &Fleet) -> Vec<AlertRule> {
    let f = fleet.clone();
    let mut rules = galaxy_alert_rules();
    rules.push(AlertRule::new(
        "fleet-lease-leak",
        AlertExpr::Custom(Arc::new(move || Some(f.total_lease_count() as f64))),
        Compare::Gt,
        0.0,
    ));
    rules
}

/// Everything in which two scenario stacks differ.
pub struct StackSpec {
    /// Who is running, for failure reports.
    pub repro: Repro,
    /// Tool wrapper XMLs to install.
    pub tools: Vec<String>,
    /// The GPUs to install GYAN over.
    pub hardware: Hardware,
    /// Single-node device allocation strategy.
    pub policy: AllocationPolicy,
    /// Memory-hint resolution mode.
    pub memory_hint: MemoryHint,
    /// Runs (or fakes) the tool bodies.
    pub executor: Arc<dyn JobExecutor>,
    /// The queue's shape. `time_charging` is left to `wave_time`, which
    /// needs the stack's clock.
    pub queue: QueueConfig,
    /// Virtual seconds a plan occupies a worker, charged to the stack's
    /// clock at each barrier; `None` leaves the clock to the executor.
    pub wave_time: Option<Box<dyn DurationModel>>,
    /// The rules the live SLO plane evaluates at every barrier.
    pub alert_rules: fn(&Gpus) -> Vec<AlertRule>,
    /// Cap on retained app events and recorder spans/events.
    pub log_retention: Option<usize>,
    /// Register the lease table's discard listener (the production
    /// wiring; `false` is simtest's known-bad one).
    pub release_on_discard: bool,
}

/// A built stack: the real engine over the real app, nothing mocked
/// below the executor.
pub struct Stack {
    /// The queue engine, owning the app.
    pub engine: QueueEngine,
    /// The virtual timeline engine, GPUs and recorder share.
    pub clock: VirtualClock,
    /// The installed GPUs.
    pub gpus: Gpus,
    /// The live SLO plane.
    pub alerts: AlertEngine,
    /// The app's recorder.
    pub recorder: Recorder,
    repro: Repro,
}

/// What [`Stack::pump`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pumped {
    /// Arrivals the queue admitted.
    pub submitted: usize,
    /// Arrivals admission control rejected.
    pub rejected: usize,
    /// Pumps that dispatched something.
    pub waves: usize,
    /// Deepest backlog seen just before a pump.
    pub peak_queue_depth: usize,
}

impl Stack {
    /// App from the shipped job conf → tools → GYAN over the hardware →
    /// SLO plane → queue engine → discard listener.
    // Failure is large (it carries the flight dump), but the Err path is
    // terminal — a failure report, not a hot return.
    #[allow(clippy::result_large_err)]
    pub fn build(spec: StackSpec) -> Result<Stack, Failure> {
        let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).expect("shipped job conf"));
        let lib = MacroLibrary::new();
        for xml in &spec.tools {
            if let Err(e) = app.install_tool_xml(xml, &lib) {
                return Err(spec
                    .repro
                    .failure(None, Violation::new("setup", format!("tool install: {e}"))));
            }
        }
        app.set_event_log_limit(spec.log_retention);
        let gpus = Gpus::install(spec.hardware, &mut app, spec.policy, spec.memory_hint);
        let clock = gpus.clock().clone();
        let recorder = app.recorder().clone();
        recorder.set_log_retention(spec.log_retention);

        let alerts = AlertEngine::new(&recorder);
        for rule in (spec.alert_rules)(&gpus) {
            alerts.add_rule(rule);
        }

        let mut config = spec.queue;
        if let Some(model) = spec.wave_time {
            let clock = Box::new(ClusterTime::new(clock.clone()));
            config.time_charging = Some(WaveTimeCharging { clock, model });
        }
        app.set_executor(Box::new(spec.executor.clone()));
        let engine = QueueEngine::new(app, spec.executor, config);
        if let (true, Gpus::Node { table, .. }) = (spec.release_on_discard, &gpus) {
            engine.set_discard_listener(table.discard_listener(Some(recorder.clone())));
        }
        Ok(Stack { engine, clock, gpus, alerts, recorder, repro: spec.repro })
    }

    /// `violation` as a failure report with the stack's black box attached.
    pub fn fail(&self, wave: Option<usize>, violation: Violation) -> Failure {
        self.repro.failure(wave, violation).observed(&self.alerts, &self.recorder)
    }

    /// Pump `arrivals` — `(due time, arrival)` in due order — through the
    /// queue until both are drained. Each turn: submit what has come due,
    /// note the backlog, `before_wave` (the fault hook), one
    /// `pump_wave()`; after a pump that dispatched, the barrier:
    /// `alerts.evaluate()`, [`Gpus::leaked_leases`], the caller's
    /// `at_barrier`, then the `max_waves` livelock bound. A pump that
    /// dispatched nothing changed nothing, so it has no barrier: the
    /// clock jumps to the next arrival, or the run is over. Both hooks
    /// get the number of waves dispatched so far.
    #[allow(clippy::result_large_err)]
    pub fn pump<A>(
        &mut self,
        arrivals: impl IntoIterator<Item = (f64, A)>,
        mut submit: impl FnMut(&mut QueueEngine, A) -> Result<(), GalaxyError>,
        max_waves: usize,
        mut before_wave: impl FnMut(&mut Stack, usize),
        mut at_barrier: impl FnMut(&mut Stack, usize) -> Result<(), Violation>,
    ) -> Result<Pumped, Failure> {
        let mut arrivals = arrivals.into_iter().enumerate().peekable();
        let mut out = Pumped { submitted: 0, rejected: 0, waves: 0, peak_queue_depth: 0 };
        loop {
            let now = self.clock.now();
            while let Some((index, (_, arrival))) = arrivals.next_if(|(_, (at, _))| *at <= now) {
                match submit(&mut self.engine, arrival) {
                    Ok(()) => out.submitted += 1,
                    Err(GalaxyError::QueueRejected(_)) => out.rejected += 1,
                    Err(e) => {
                        let detail = format!("arrival {index}: {e}");
                        return Err(self.fail(None, Violation::new("submission", detail)));
                    }
                }
            }
            out.peak_queue_depth = out.peak_queue_depth.max(self.engine.queue_depth());

            before_wave(self, out.waves);
            if self.engine.pump_wave() == 0 {
                // Queue idle: jump to the next arrival, or the run is over.
                let Some((_, (at, _))) = arrivals.peek() else { return Ok(out) };
                self.clock.advance_to(*at);
                continue;
            }
            out.waves += 1;

            let wave = out.waves;
            self.alerts.evaluate();
            let barrier = self.gpus.leaked_leases(wave).and_then(|()| at_barrier(self, wave));
            barrier.map_err(|v| self.fail(Some(wave), v))?;
            if wave >= max_waves {
                let detail = format!("still dispatching after {max_waves} waves");
                return Err(self.fail(Some(wave), Violation::new("wave_bound", detail)));
            }
        }
    }

    /// The end of a drained run: engine↔app conservation, then `report` —
    /// the caller's own whole-run checks and its report, from the run's
    /// tallies and the still-live stack — then `engine.shutdown()` and
    /// span balance.
    #[allow(clippy::result_large_err)]
    pub fn finish<R>(
        self,
        pumped: Pumped,
        report: impl FnOnce(&Stack, SimReport) -> Result<R, Violation>,
    ) -> Result<R, Failure> {
        invariants::conservation(&self.engine).map_err(|v| self.fail(None, v))?;
        let states = self.engine.submission_states();
        let count = |want: SubmissionState| states.iter().filter(|(_, s)| *s == want).count();
        let run = SimReport {
            seed: self.repro.seed,
            waves: pumped.waves,
            submitted: pumped.submitted,
            rejected: pumped.rejected,
            ok: count(SubmissionState::Ok),
            error: count(SubmissionState::Error),
            cancelled: count(SubmissionState::Cancelled),
        };
        let report = report(&self, run).map_err(|v| self.fail(None, v))?;

        let Stack { engine, alerts, recorder, repro, .. } = self;
        engine.shutdown();
        invariants::spans_balanced(&recorder)
            .map_err(|v| repro.failure(None, v).observed(&alerts, &recorder))?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::NodeClass;
    use gpusim::GpuArch;

    fn show(rules: Vec<AlertRule>) -> Vec<String> {
        rules.iter().map(|r| format!("{r:?}")).collect()
    }

    #[test]
    fn fleet_slo_rules_are_the_galaxy_rules_plus_the_lease_leak_probe() {
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 2).build();
        let (fleet_rules, galaxy) = (show(fleet_slo_rules(&fleet)), show(galaxy_alert_rules()));
        assert_eq!(fleet_rules[..galaxy.len()], galaxy[..], "thresholds live once, in gyan::ops");
        assert_eq!(fleet_rules.len(), galaxy.len() + 1);
        assert!(fleet_rules[galaxy.len()].contains("fleet-lease-leak"), "{fleet_rules:?}");
    }

    #[test]
    fn slo_rules_are_the_stock_set_of_each_topology() {
        let install = |hardware| {
            let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).expect("job conf"));
            Gpus::install(hardware, &mut app, AllocationPolicy::ProcessId, MemoryHint::Static)
        };
        let node = install(Hardware::Node(GpuCluster::node(GpuArch::tesla_k80(), 2)));
        let Gpus::Node { table, .. } = &node else { panic!("a node installs as Gpus::Node") };
        assert_eq!(show(node.slo_rules()), show(default_alert_rules(table)));

        let fleet = install(Hardware::Fleet(Fleet::builder().nodes(NodeClass::k80(), 2)));
        let Gpus::Fleet(the_fleet) = &fleet else { panic!("a fleet installs as Gpus::Fleet") };
        assert_eq!(show(fleet.slo_rules()), show(fleet_slo_rules(the_fleet)));
        assert_ne!(show(fleet.slo_rules()), show(node.slo_rules()));
    }
}
