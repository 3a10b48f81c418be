//! The reservation layer under the queue engine: same-wave contention
//! cannot double-book a device, invalid requests are audited, leases
//! survive neither failure, resubmission, nor a discarded wave, and a
//! property test holds the no-oversubscription invariant across random
//! schedules.

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{JobHandle, QueueConfig, QueueEngine, ResubmitPolicy, SubmissionState};
use galaxy::runners::{ExecutionPlan, ExecutionResult, JobExecutor, NullExecutor};
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::GpuCluster;
use gyan::allocation::AllocationPolicy;
use gyan::reservations::{
    LeaseTable, RESERVATIONS_ACQUIRED_COUNTER, RESERVATIONS_RELEASED_COUNTER,
    RESERVATION_CONFLICTS_COUNTER,
};
use gyan::setup::{install_gyan, GyanConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// A GPU tool whose requirement pins the given device ids (empty string =
/// no preference). The command is trivial — these tests exercise
/// placement, not tool simulation.
fn gpu_tool(id: &str, gpu_ids: &str) -> String {
    let version =
        if gpu_ids.is_empty() { String::new() } else { format!(" version=\"{gpu_ids}\"") };
    format!(
        r#"<tool id="{id}" name="{id}">
          <requirements><requirement type="compute"{version}>gpu</requirement></requirements>
          <command>echo {id}</command>
          <outputs><data name="out" format="txt"/></outputs>
        </tool>"#
    )
}

fn app_with_tools(
    cluster: &GpuCluster,
    policy: AllocationPolicy,
    tools: &[(&str, &str)],
) -> (GalaxyApp, LeaseTable) {
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let table = install_gyan(&mut app, cluster, GyanConfig { policy, ..GyanConfig::default() });
    let lib = MacroLibrary::new();
    for (id, pins) in tools {
        app.install_tool_xml(&gpu_tool(id, pins), &lib).unwrap();
    }
    (app, table)
}

fn mask(engine: &QueueEngine, id: u64) -> String {
    engine.app().job(id).unwrap().env_var("CUDA_VISIBLE_DEVICES").unwrap_or("").to_string()
}

/// Two jobs pinned to the same device, prepared in the same dispatch wave
/// while SMI still shows the device free: without the lease table both
/// would export `CUDA_VISIBLE_DEVICES=1`. With it, the first gets the
/// device, the second is redirected, and the conflict is audited.
#[test]
fn same_wave_contention_cannot_double_book() {
    let cluster = GpuCluster::k80_node();
    let (app, table) = app_with_tools(
        &cluster,
        AllocationPolicy::ProcessId,
        &[("racon_dev1", "1"), ("bonito_dev1", "1")],
    );
    let mut engine = QueueEngine::new(app, Arc::new(NullExecutor), QueueConfig::default());

    let first = engine.submit_async("alice", "racon_dev1", &ParamDict::new()).unwrap();
    let second = engine.submit_async("alice", "bonito_dev1", &ParamDict::new()).unwrap();
    engine.run_until_idle();

    assert_eq!(engine.state(first), Some(SubmissionState::Ok));
    assert_eq!(engine.state(second), Some(SubmissionState::Ok));
    // One job holds the pinned device; its wave-mate is redirected to the
    // other device instead of double-booking.
    assert_eq!(mask(&engine, first.0), "1");
    assert_eq!(mask(&engine, second.0), "0");

    let rec = engine.app().recorder();
    let conflicts = rec.events_named("gyan.reservation.conflict");
    assert_eq!(conflicts.len(), 1, "exactly one contention");
    let c = &conflicts[0];
    assert_eq!(c.field("job_id").and_then(|v| v.as_f64()), Some(second.0 as f64));
    assert_eq!(c.field("baseline_devices").and_then(|v| v.as_str()), Some("1"));
    assert_eq!(c.field("granted_devices").and_then(|v| v.as_str()), Some("0"));
    assert_eq!(
        c.field("blocked_by").and_then(|v| v.as_str()),
        Some(format!("1:job{}", first.0).as_str())
    );
    assert_eq!(rec.metrics().counter_value(RESERVATION_CONFLICTS_COUNTER), 1);

    // Both jobs concluded, so every lease is back.
    assert_eq!(table.lease_count(), 0);
    assert_eq!(
        rec.metrics().counter_value(RESERVATIONS_ACQUIRED_COUNTER),
        rec.metrics().counter_value(RESERVATIONS_RELEASED_COUNTER)
    );
}

/// A request naming a device the node does not have is audited as
/// `invalid_request`, not silently treated as "no preference".
#[test]
fn invalid_device_request_is_audited() {
    let cluster = GpuCluster::k80_node();
    let (app, _table) = app_with_tools(&cluster, AllocationPolicy::ProcessId, &[("ghost", "7")]);
    let mut engine = QueueEngine::new(app, Arc::new(NullExecutor), QueueConfig::default());
    let h = engine.submit_async("alice", "ghost", &ParamDict::new()).unwrap();
    engine.run_until_idle();

    assert_eq!(engine.state(h), Some(SubmissionState::Ok));
    // The job still runs — on the free devices.
    assert_eq!(mask(&engine, h.0), "0,1");
    let decisions = engine.app().recorder().events_named("gyan.allocation.decision");
    let d = decisions.iter().find(|e| e.field("requested").and_then(|v| v.as_str()) == Some("7"));
    let d = d.expect("decision for the ghost request");
    assert_eq!(d.field("reason").and_then(|v| v.as_str()), Some("invalid_request"));
    assert_eq!(d.field("invalid_requested").and_then(|v| v.as_str()), Some("7"));
}

/// A `gpu_memory_hint_mib` that is not a number falls back to the
/// configured default, but not silently: the hook bumps a counter and
/// audits the typo, once per dispatch (the single-node twin of
/// `tests/fleet.rs::malformed_memory_hint_is_audited_not_silent` — same
/// hook, same event).
#[test]
fn malformed_memory_hint_is_audited_not_silent() {
    use gyan::orchestrator::{INVALID_HINT_COUNTER, INVALID_HINT_EVENT};
    let conf = JobConfig::from_xml(
        r#"<job_conf>
          <plugins><plugin id="local" type="runner" load="x"/></plugins>
          <destinations default="dyn">
            <destination id="dyn" runner="dynamic">
              <param id="function">gpu_dynamic_destination</param>
            </destination>
            <destination id="local_gpu" runner="local">
              <param id="gpu_memory_hint_mib">lots</param>
            </destination>
            <destination id="local_cpu" runner="local"/>
          </destinations>
        </job_conf>"#,
    )
    .unwrap();
    let cluster = GpuCluster::k80_node();
    let mut app = GalaxyApp::new(conf);
    app.install_tool_xml(&gpu_tool("racon_dev0", "0"), &MacroLibrary::new()).unwrap();
    let table = install_gyan(&mut app, &cluster, GyanConfig::default());

    // Prepared but not concluded, so the lease (and the hint it was
    // sized with) is still on the table.
    let id = app.create_job("racon_dev0", &ParamDict::new()).unwrap();
    app.prepare_plan(id, None).unwrap();
    assert_eq!(app.job(id).unwrap().env_var("GALAXY_GPU_ENABLED"), Some("true"));
    assert_eq!(table.leases_on(0)[0].memory_hint_mib, 1024, "the default hint applies");

    let recorder = app.recorder();
    assert_eq!(recorder.metrics().counter_value(INVALID_HINT_COUNTER), 1);
    let audits = recorder.events_named(INVALID_HINT_EVENT);
    assert_eq!(audits.len(), 1);
    assert_eq!(audits[0].field("job_id").and_then(|v| v.as_f64()), Some(id as f64));
    assert_eq!(audits[0].field("raw").and_then(|v| v.as_str()), Some("lots"));
    assert_eq!(audits[0].field("destination").and_then(|v| v.as_str()), Some("local_gpu"));
    assert_eq!(audits[0].field("fallback_mib").and_then(|v| v.as_f64()), Some(1024.0));
}

/// A failed `nvidia-smi` query is not a GPU-less node: the job degrades to
/// the CPU branch as before, but the decision audit names the failure
/// (`smi_query_failed` + the error text) instead of claiming
/// `no_gpus_on_node` on a two-GPU node, and the fault costs exactly the
/// one decision that met it.
#[test]
fn failed_smi_query_is_audited_as_a_failed_query_not_a_gpuless_node() {
    let cluster = GpuCluster::k80_node();
    let (mut app, table) =
        app_with_tools(&cluster, AllocationPolicy::ProcessId, &[("racon_dev1", "1")]);

    cluster.inject_smi_query_failures(1);
    let blind = app.create_job("racon_dev1", &ParamDict::new()).unwrap();
    app.prepare_plan(blind, None).unwrap();
    assert_eq!(app.job(blind).unwrap().env_var("GALAXY_GPU_ENABLED"), Some("false"));
    assert_eq!(app.job(blind).unwrap().env_var("CUDA_VISIBLE_DEVICES"), None);
    assert_eq!(table.lease_count(), 0);

    // One decision, one query: the budget of one is spent, so the very
    // next job sees both devices again.
    let sighted = app.create_job("racon_dev1", &ParamDict::new()).unwrap();
    app.prepare_plan(sighted, None).unwrap();
    assert_eq!(app.job(sighted).unwrap().env_var("CUDA_VISIBLE_DEVICES"), Some("1"));

    let decisions = app.recorder().events_named("gyan.allocation.decision");
    assert_eq!(decisions.len(), 2);
    let field = |i: usize, name: &str| decisions[i].field(name).and_then(|v| v.as_str());
    assert_eq!(field(0, "reason"), Some("smi_query_failed"));
    assert!(field(0, "error").is_some_and(|e| e.contains("NVIDIA-SMI has failed")));
    assert_eq!(field(0, "requested"), Some("1"));
    assert_eq!(field(0, "all_gpus"), Some(""));
    assert_eq!(field(1, "reason"), Some("requested_free"));
    assert_eq!(field(1, "error"), None);
}

/// Fails like a dying device: nonzero exit with a CUDA OOM message on the
/// GPU destination, success anywhere else.
struct FailOnGpu;

impl JobExecutor for FailOnGpu {
    fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
        if &*plan.destination_id == "local_gpu" {
            ExecutionResult::fail(42, "CUDA error: out of memory")
        } else {
            ExecutionResult::ok("recovered on cpu")
        }
    }
}

/// A job failing mid-execute on the GPU must release its lease *before*
/// the resubmitted CPU attempt is prepared — otherwise a retry storm
/// would pin devices nobody is using.
#[test]
fn gpu_failure_releases_lease_before_cpu_retry() {
    let cluster = GpuCluster::k80_node();
    let (app, table) =
        app_with_tools(&cluster, AllocationPolicy::ProcessId, &[("racon_dev1", "1")]);
    let config =
        QueueConfig { resubmit: ResubmitPolicy::gpu_to_cpu("local_cpu"), ..QueueConfig::default() };
    let mut engine = QueueEngine::new(app, Arc::new(FailOnGpu), config);

    let h = engine.submit_async("alice", "racon_dev1", &ParamDict::new()).unwrap();
    engine.run_until_idle();
    assert_eq!(engine.state(h), Some(SubmissionState::Ok), "CPU fallback succeeds");
    assert_eq!(table.lease_count(), 0);

    let rec = engine.app().recorder();
    // Exactly one acquisition: the GPU attempt. The CPU attempt maps to a
    // non-GPU destination and never touches the table.
    assert_eq!(rec.metrics().counter_value(RESERVATIONS_ACQUIRED_COUNTER), 1);
    assert_eq!(rec.metrics().counter_value(RESERVATIONS_RELEASED_COUNTER), 1);

    // Chronology: the failed attempt's release precedes the CPU attempt's
    // preparation (its hook export with gpu_enabled = false).
    let events = rec.events();
    let release = events
        .iter()
        .position(|e| {
            e.name == "gyan.reservation.release"
                && e.field("reason").and_then(|v| v.as_str()) == Some("failed_retryable")
        })
        .expect("retryable-failure release");
    let cpu_prepare = events
        .iter()
        .position(|e| {
            e.name == "gyan.hook.export"
                && e.field("gpu_enabled").and_then(|v| v.as_bool()) == Some(false)
        })
        .expect("CPU attempt hook export");
    assert!(
        release < cpu_prepare,
        "lease released (event {release}) before CPU re-prepare (event {cpu_prepare})"
    );
}

/// Remembers which job ids actually ran.
struct RecordingOk {
    ran: std::sync::Mutex<Vec<u64>>,
}

impl JobExecutor for RecordingOk {
    fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
        self.ran.lock().unwrap().push(plan.job_id);
        ExecutionResult::ok("")
    }
}

/// Plans a discarded wave skips never execute and never conclude — the
/// engine's discard listener must be the one to release their leases.
#[test]
fn discard_shutdown_releases_leases_of_never_executed_plans() {
    let cluster = GpuCluster::k80_node();
    let (app, table) =
        app_with_tools(&cluster, AllocationPolicy::ProcessId, &[("pin0", "0"), ("pin1", "1")]);
    let rec = app.recorder().clone();
    let executor = Arc::new(RecordingOk { ran: std::sync::Mutex::new(Vec::new()) });
    let config = QueueConfig { workers: 4, ..QueueConfig::default() };
    let mut engine = QueueEngine::new(app, executor.clone(), config);
    engine.set_discard_listener(table.discard_listener(Some(rec.clone())));

    let mut ids = Vec::new();
    for i in 0..8 {
        let tool = if i % 2 == 0 { "pin0" } else { "pin1" };
        ids.push(engine.submit_async("alice", tool, &ParamDict::new()).unwrap().0);
    }
    // The first wave is prepared — each preparation leases devices — and
    // then dropped unexecuted; the second wave runs normally.
    engine.discard_next_wave();
    engine.run_until_idle();
    let acquired = rec.metrics().counter_value(RESERVATIONS_ACQUIRED_COUNTER);
    assert!(acquired > 0);

    let skipped = rec.events_named("galaxy.queue.discard").len();
    assert_eq!(skipped, 4, "the discard must skip the first wave's plans");
    for id in &ids[..4] {
        assert_eq!(engine.state(JobHandle(*id)), Some(SubmissionState::Cancelled));
    }

    // Every never-executed plan's leases were released by the listener;
    // executed plans concluded, which released theirs.
    let ran = executor.ran.lock().unwrap().clone();
    assert_eq!(ran, ids[4..], "the wave after the discarded one ran");
    let holders = table.holders();
    for id in &ids {
        if !ran.contains(id) {
            assert!(!holders.contains(id), "skipped job {id} leaked a lease");
        }
    }
    let held = table.lease_count() as u64;
    let released = rec.metrics().counter_value(RESERVATIONS_RELEASED_COUNTER);
    assert_eq!(acquired, released + held, "acquired = released + still-held");
    let discarded: Vec<_> = rec
        .events_named("gyan.reservation.release")
        .into_iter()
        .filter(|e| e.field("reason").and_then(|v| v.as_str()) == Some("discarded"))
        .collect();
    assert!(!discarded.is_empty(), "listener audited the skipped plans");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No-oversubscription invariant across arbitrary schedules: whatever
    /// the interleaving of users, pins (valid or not), failures, and
    /// worker counts, (a) an exclusive lease is only ever granted on a
    /// device with no active lease, (b) every acquired lease is released,
    /// and (c) every submission reaches a terminal state.
    #[test]
    fn random_schedules_never_oversubscribe(
        jobs in prop::collection::vec(
            (0u8..3, prop::option::of(0u32..4), any::<bool>()),
            1..12,
        ),
        workers in 1u32..5,
    ) {
        let cluster = GpuCluster::k80_node();
        // Tools covering every pin the generator can produce, plus "f_*"
        // twins the executor fails on the GPU destination.
        let mut tools: Vec<(String, String)> = Vec::new();
        for pin in ["", "0", "1", "2", "3"] {
            let suffix = if pin.is_empty() { "none".to_string() } else { pin.to_string() };
            tools.push((format!("t_{suffix}"), pin.to_string()));
            tools.push((format!("f_{suffix}"), pin.to_string()));
        }
        let tool_refs: Vec<(&str, &str)> =
            tools.iter().map(|(id, pin)| (id.as_str(), pin.as_str())).collect();
        let (app, table) = app_with_tools(&cluster, AllocationPolicy::MemoryBased, &tool_refs);

        struct FailTwinsOnGpu;
        impl JobExecutor for FailTwinsOnGpu {
            fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
                if &*plan.destination_id == "local_gpu" && plan.tool_id.starts_with("f_") {
                    ExecutionResult::fail(42, "CUDA error: out of memory")
                } else {
                    ExecutionResult::ok("")
                }
            }
        }

        let config = QueueConfig {
            workers,
            resubmit: ResubmitPolicy::gpu_to_cpu("local_cpu"),
            ..QueueConfig::default()
        };
        let mut engine = QueueEngine::new(app, Arc::new(FailTwinsOnGpu), config);

        let mut handles = Vec::new();
        for (user, pin, fails) in &jobs {
            let prefix = if *fails { "f" } else { "t" };
            let suffix = match pin {
                Some(p) => p.to_string(),
                None => "none".to_string(),
            };
            let tool = format!("{prefix}_{suffix}");
            let user = format!("user{user}");
            handles.push(engine.submit_async(&user, &tool, &ParamDict::new()).unwrap());
        }
        engine.run_until_idle();

        // (c) every submission terminal.
        for h in &handles {
            let state = engine.state(*h);
            prop_assert!(
                matches!(state, Some(SubmissionState::Ok) | Some(SubmissionState::Error)),
                "non-terminal state {state:?}"
            );
        }

        // (b) every lease released.
        prop_assert_eq!(table.lease_count(), 0);
        let rec = engine.app().recorder();
        prop_assert_eq!(
            rec.metrics().counter_value(RESERVATIONS_ACQUIRED_COUNTER),
            rec.metrics().counter_value(RESERVATIONS_RELEASED_COUNTER)
        );

        // (a) replay the audit chronologically: an exclusive acquisition
        // must land on a device with zero active leases.
        let mut active: std::collections::HashMap<u32, Vec<(u64, bool)>> =
            std::collections::HashMap::new();
        for event in rec.events() {
            // One record per grant or release, naming all of its devices.
            let devices = || -> Vec<u32> {
                let list = event.field("devices").and_then(|v| v.as_str()).unwrap();
                list.split(',').map(|minor| minor.parse().unwrap()).collect()
            };
            let holder = || event.field("job_id").and_then(|v| v.as_f64()).unwrap() as u64;
            match &*event.name {
                "gyan.reservation.acquire" => {
                    let exclusive = event.field("exclusive").and_then(|v| v.as_bool()).unwrap();
                    for device in devices() {
                        let slot = active.entry(device).or_default();
                        if exclusive {
                            prop_assert!(
                                slot.is_empty(),
                                "exclusive grant on device {} with {} active lease(s)",
                                device,
                                slot.len()
                            );
                        }
                        slot.push((holder(), exclusive));
                    }
                }
                "gyan.reservation.release" => {
                    let released = devices();
                    prop_assert!(released.windows(2).all(|w| w[0] < w[1]), "{:?}", released);
                    for device in released {
                        let slot = active.entry(device).or_default();
                        let h = holder();
                        let pos = slot.iter().position(|(owner, _)| *owner == h);
                        prop_assert!(pos.is_some(), "release without a matching lease");
                        slot.remove(pos.unwrap());
                    }
                }
                _ => {}
            }
        }
        prop_assert!(active.values().all(Vec::is_empty), "leases left active at end of audit");
    }
}
