//! The fleet layer end to end: deterministic multi-node placement over
//! heterogeneous architectures, TPV-style destination rules, queue-engine
//! dispatch with node-labeled ledger snapshots, and the node-labeled
//! fleet operations plane.

use fleet::{
    fleet_gpus_json, fleet_nodes_json, fleet_ops_server, install_fleet, policy_by_name, BinPack,
    DestinationRule, DestinationRules, FairShare, Fleet, FleetConfig, NodeClass, PlacementRequest,
};
use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{QueueConfig, QueueEngine, SubmissionState};
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::{GpuCluster, GpuProcess};
use obs::serve::http_get;
use obs::slo::AlertEngine;
use obs::Recorder;
use seqtools::ToolExecutor;
use std::sync::Arc;

// &[0] pins one minor so each placement takes exactly one die (an empty
// request takes every free die on the chosen node).
fn request<'a>(job_id: u64, user: &'a str, tool: &'a str, hint: u64) -> PlacementRequest<'a> {
    PlacementRequest {
        job_id,
        user,
        tool_id: tool,
        requested: &[0],
        memory_hint_mib: hint,
        excluded_nodes: &[],
    }
}

fn heterogeneous_fleet() -> Fleet {
    heterogeneous_fleet_under("least_loaded")
}

fn heterogeneous_fleet_under(policy: &str) -> Fleet {
    Fleet::builder()
        .nodes(NodeClass::k80(), 3)
        .nodes(NodeClass::v100(), 2)
        .nodes(NodeClass::a100(), 1)
        .policy(policy_by_name(policy).unwrap())
        .build()
}

// --- Satellite: placement determinism ---------------------------------

/// Same fleet state + same request sequence ⇒ identical node choices,
/// across fresh fleets and across policies.
#[test]
fn placement_is_deterministic_for_every_policy() {
    for policy in ["least_loaded", "bin_pack", "fair_share"] {
        let run = || {
            let fleet = Fleet::builder()
                .nodes(NodeClass::k80(), 4)
                .nodes(NodeClass::a100(), 2)
                .policy(policy_by_name(policy).unwrap())
                .build();
            (0..12u64)
                .map(|job| {
                    let user = if job % 2 == 0 { "ada" } else { "bob" };
                    fleet.place(&request(job, user, "racon_gpu", 256)).map(|p| p.node)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "policy {policy} must be deterministic");
    }
}

/// Tie-break ordering: equal scores resolve to the lowest node id, so an
/// idle homogeneous fleet fills node 0 first, then 1, then 2 — never a
/// permutation.
#[test]
fn ties_resolve_to_the_lowest_node_id_in_order() {
    let fleet = Fleet::builder().nodes(NodeClass::k80(), 3).build();
    let nodes: Vec<u32> = (0..3u64)
        .map(|job| fleet.place(&request(job, "ada", "racon_gpu", 256)).unwrap().node)
        .collect();
    assert_eq!(nodes, vec![0, 1, 2]);
}

/// FNV-1a over 2 000 seeded place / release / detach steps on
/// `heterogeneous_fleet()`: of every placement the job, the node and the
/// mask (a rejection hashes as node `u32::MAX`). A third of the placed
/// jobs leave a process behind on their first device, which outlives the
/// lease until a later step detaches it, so nodes are scored with
/// devices that are busy but unleased, leased but idle, and shared.
/// No job id is placed twice.
fn placement_sequence_digest(policy: &str) -> u64 {
    let fleet = heterogeneous_fleet_under(policy);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for byte in bytes {
            digest = (digest ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut live: Vec<u64> = Vec::new();
    let mut lingering: Vec<(u32, u32, u32)> = Vec::new();
    for job in 0..2_000u64 {
        let r = next();
        // 200 steps of filling (5 in 8 place, 2 in 8 release) alternate
        // with 200 of draining (2 and 5), so the fleet is scored idle,
        // part-full and oversubscribed.
        let placing = if (job / 200) % 2 == 0 { 5 } else { 2 };
        match r % 8 {
            step if step < placing => {
                let user = ["ada", "bob", "cyd", "dee"][(r >> 8) as usize % 4];
                let pinned = [(r >> 16) as u32 % 8];
                let requested: &[u32] = if (r >> 24) % 4 == 0 { &[] } else { &pinned };
                let hint = [256, 1_024, 12_000, 20_000, 50_000][(r >> 32) as usize % 5];
                let placed = fleet.place(&PlacementRequest {
                    job_id: job,
                    user,
                    tool_id: "racon_gpu",
                    requested,
                    memory_hint_mib: hint,
                    excluded_nodes: &[],
                });
                fold(&job.to_le_bytes());
                let Some(p) = placed else {
                    fold(&u32::MAX.to_le_bytes());
                    continue;
                };
                fold(&p.node.to_le_bytes());
                fold(p.allocation.cuda_visible_devices.as_bytes());
                live.push(job);
                if (r >> 40) % 3 == 0 {
                    let (minor, pid) = (p.allocation.devices[0], 50_000 + job as u32);
                    let cluster = &fleet.shard(p.node).unwrap().cluster;
                    if cluster.attach_process(minor, GpuProcess::compute(pid, "linger", 64)).is_ok()
                    {
                        lingering.push((p.node, minor, pid));
                    }
                }
            }
            7 if !lingering.is_empty() => {
                let (node, minor, pid) = lingering.swap_remove((r >> 8) as usize % lingering.len());
                fleet.shard(node).unwrap().cluster.detach_process(minor, pid).unwrap();
            }
            _ if !live.is_empty() => {
                let job = live.swap_remove((r >> 8) as usize % live.len());
                assert!(fleet.release(job, "ok") > 0);
            }
            _ => {}
        }
    }
    digest
}

/// The sequence above, per stock policy, as captured at 0f6d93c — the
/// commit before `NodeShard::load` stopped taking device locks — by this
/// same function: the cheaper reads score every node as the locked ones
/// did, so every placement lands where it landed.
#[test]
fn placement_sequence_matches_the_golden_captured_before_the_lock_free_load() {
    for (policy, golden) in [
        ("least_loaded", 0x14c4_cd1c_e21d_f29cu64),
        ("bin_pack", 0x725e_04b6_608d_e4c2),
        ("fair_share", 0x8a09_ec87_e28b_5479),
    ] {
        let digest = placement_sequence_digest(policy);
        assert_eq!(digest, golden, "policy {policy}: digest {digest:#018x}");
    }
}

// --- Policies over heterogeneous hardware ------------------------------

#[test]
fn bin_pack_saturates_one_node_before_the_next() {
    let fleet = Fleet::builder()
        .nodes(NodeClass::k80(), 2) // 2 dies each
        .policy(Arc::new(BinPack))
        .build();
    let nodes: Vec<u32> = (0..4u64)
        .map(|job| fleet.place(&request(job, "ada", "racon_gpu", 256)).unwrap().node)
        .collect();
    assert_eq!(nodes, vec![0, 0, 1, 1], "fill node 0's two dies, then node 1's");
}

#[test]
fn fair_share_spreads_a_burst_across_nodes() {
    let fleet = Fleet::builder().nodes(NodeClass::k80(), 3).policy(Arc::new(FairShare)).build();
    let nodes: Vec<u32> = (0..3u64)
        .map(|job| fleet.place(&request(job, "ada", "racon_gpu", 256)).unwrap().node)
        .collect();
    assert_eq!(nodes, vec![0, 1, 2], "one user's burst may not pile onto one node");
}

// --- Destination rules over node classes -------------------------------

#[test]
fn rules_route_tools_to_admissible_classes_only() {
    let rules =
        DestinationRules::parse("tool=bonito* classes=v100,a100 min_gpu_mem_mib=12000\ntool=*\n")
            .unwrap();
    let fleet = Fleet::builder()
        .nodes(NodeClass::k80(), 3)
        .nodes(NodeClass::v100(), 1)
        .rules(rules)
        .build();
    // bonito skips all three (lower-id, emptier) K80 nodes.
    let p = fleet.place(&request(1, "ada", "bonito", 256)).expect("v100 admits bonito");
    assert_eq!((p.node, p.node_class.as_str()), (3, "v100"));
    // racon is unconstrained and lands on the first K80.
    let p = fleet.place(&request(2, "ada", "racon_gpu", 256)).expect("k80 admits racon");
    assert_eq!(p.node_class, "k80");
}

#[test]
fn memory_hints_exclude_small_die_classes() {
    let fleet = heterogeneous_fleet();
    // 20 GB only fits an A100 die (K80 = 11,441 MiB, V100 = 16,160 MiB).
    let p = fleet.place(&request(1, "ada", "racon_gpu", 20_000)).expect("a100 fits");
    assert_eq!(p.node_class, "a100");
    // 100 GB fits nothing.
    assert!(fleet.place(&request(2, "ada", "racon_gpu", 100_000)).is_none());
}

#[test]
fn right_sizing_comes_from_the_matching_rule() {
    let rules = DestinationRules::new()
        .with(DestinationRule::any("bonito*").on_classes(["a100"]).with_cores(8).with_mem(65_536))
        .with(DestinationRule::any("*"));
    let fleet = Fleet::builder().nodes(NodeClass::a100(), 1).rules(rules).build();
    let p = fleet.place(&request(1, "ada", "bonito", 1024)).unwrap();
    assert_eq!((p.cores, p.mem_mib), (8, 65_536));
    // The catch-all rule right-sizes to the whole node.
    let p = fleet.place(&request(2, "ada", "racon_gpu", 1024)).unwrap();
    assert_eq!((p.cores, p.mem_mib), (64, 512 * 1024));
}

// --- Queue-engine dispatch with node-labeled snapshots -----------------

// Echo-bodied so the stock executor can run it without datasets; the
// `#if` still proves the GPU branch was taken.
const FLEET_GPU_TOOL: &str = r#"<tool id="racon_gpu" name="Racon">
  <requirements><requirement type="compute">gpu</requirement></requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
echo gpu
#else
echo cpu
#end if
]]></command>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

/// Full dispatch path: QueueEngine fair-share waves → dynamic rule →
/// GyanHook placing over the fleet → GALAXY_NODE export → node-labeled
/// ledger snapshot, with leases released at the wave barrier.
#[test]
fn queue_dispatch_stamps_the_node_onto_the_ledger() {
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    app.install_tool_xml(FLEET_GPU_TOOL, &MacroLibrary::new()).unwrap();
    let fleet = Fleet::builder().nodes(NodeClass::k80(), 2).nodes(NodeClass::a100(), 1).build();
    // GYAN_JOB_CONF ships local_gpu/local_cpu destinations; point the
    // fleet config at those.
    install_fleet(
        &mut app,
        &fleet,
        FleetConfig {
            gpu_destination: "local_gpu".to_string(),
            gpu_destinations: vec!["local_gpu".to_string()],
            ..FleetConfig::default()
        },
    );
    let executor = Arc::new(ToolExecutor::new(&GpuCluster::cpu_only_node()));
    let mut engine = QueueEngine::new(app, executor, QueueConfig::default());

    let handles: Vec<u64> = (0..3)
        .map(|_| engine.submit_async("ada", "racon_gpu", &ParamDict::new()).unwrap().0)
        .collect();
    engine.run_until_idle();

    let ledger = engine.ledger();
    let nodes: Vec<Option<String>> =
        handles.iter().map(|id| ledger.get(*id).unwrap().node.clone()).collect();
    for (handle, node) in handles.iter().zip(&nodes) {
        assert_eq!(engine.state(galaxy::queue::JobHandle(*handle)), Some(SubmissionState::Ok));
        let name = node.as_deref().unwrap_or_else(|| panic!("job {handle} has no node label"));
        assert!(name.starts_with("k80-") || name.starts_with("a100-"), "unexpected node {name}");
        // The wrapper's #if took the GPU branch.
        assert_eq!(engine.app().job(*handle).unwrap().stdout, "gpu");
    }
    // Wave barrier concluded everything: no leases or bookings survive.
    assert_eq!(fleet.total_lease_count(), 0);
    assert!(fleet.active_placements().is_empty());
}

// --- Fleet operations plane --------------------------------------------

#[test]
fn fleet_ops_plane_labels_gpus_nodes_and_metrics() {
    let recorder = Recorder::new();
    let fleet = Fleet::builder()
        .nodes(NodeClass::k80(), 1)
        .nodes(NodeClass::a100(), 1)
        .recorder(recorder.clone())
        .build();
    fleet.place(&request(1, "ada", "racon_gpu", 256)).unwrap();
    fleet.place(&request(2, "ada", "bonito", 20_000)).unwrap();

    let gpus = obs::json::parse(&fleet_gpus_json(&fleet)).unwrap();
    let devices = gpus.get("gpus").and_then(|v| v.as_array()).unwrap();
    assert_eq!(devices.len(), 10, "2 K80 dies + 8 A100 dies");
    assert!(devices.iter().any(|d| d.get("node").and_then(|v| v.as_str()) == Some("k80-000")));
    assert!(devices.iter().any(|d| d.get("node").and_then(|v| v.as_str()) == Some("a100-001")));

    let nodes = obs::json::parse(&fleet_nodes_json(&fleet)).unwrap();
    let list = nodes.get("nodes").and_then(|v| v.as_array()).unwrap();
    assert_eq!(list.len(), 2);
    assert_eq!(list[1].get("arch").and_then(|v| v.as_str()), Some("A100-SXM4-40GB"));

    let ledger = galaxy::queue::JobsLedger::new();
    let alerts = AlertEngine::new(&recorder);
    let handle =
        fleet_ops_server(&recorder, &fleet, &ledger, &alerts).start("127.0.0.1:0").expect("bind");
    let (status, body) = http_get(handle.addr(), "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("fleet_placements_total{node=\"k80-000\"} 1"), "{body}");
    assert!(body.contains("fleet_placements_total{node=\"a100-001\"} 1"), "{body}");
    let (status, body) = http_get(handle.addr(), "/api/nodes").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"node\":\"a100-001\""), "{body}");
    handle.shutdown();
}

// --- Placement-aware resubmission --------------------------------------

// Fails on any GPU attempt (unknown command → exit 127) and succeeds on
// CPU: the resubmission ladder's worst customer.
const GPU_FLAKY_TOOL: &str = r#"<tool id="racon_gpu" name="Racon">
  <requirements><requirement type="compute">gpu</requirement></requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
racoon_segfault
#else
echo cpu
#end if
]]></command>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

fn fleet_engine(fleet: &Fleet, policy: galaxy::queue::ResubmitPolicy) -> QueueEngine {
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    app.install_tool_xml(GPU_FLAKY_TOOL, &MacroLibrary::new()).unwrap();
    install_fleet(
        &mut app,
        fleet,
        FleetConfig {
            gpu_destination: "local_gpu".to_string(),
            gpu_destinations: vec!["local_gpu".to_string()],
            ..FleetConfig::default()
        },
    );
    let executor = Arc::new(ToolExecutor::new(&GpuCluster::cpu_only_node()));
    let config = galaxy::queue::QueueConfig { resubmit: policy, ..Default::default() };
    QueueEngine::new(app, executor, config)
}

/// The tentpole end to end: a GPU failure first retries *on the fleet*
/// with the failed node excluded (landing on the other node class), and
/// only when the node-retry budget is spent falls down the ladder to
/// CPU — each hop audited with the failed node and the exclusion set.
#[test]
fn failed_node_is_excluded_on_retry_before_falling_to_cpu() {
    let fleet = Fleet::builder().nodes(NodeClass::k80(), 1).nodes(NodeClass::a100(), 1).build();
    let policy = galaxy::queue::ResubmitPolicy::placement_aware("local_cpu", 1);
    let mut engine = fleet_engine(&fleet, policy);

    let handle = engine.submit_async("ada", "racon_gpu", &ParamDict::new()).unwrap();
    engine.run_until_idle();

    // Three attempts: k80-000 (fails) → a100-001 (fails) → CPU (ok).
    assert_eq!(engine.state(handle), Some(SubmissionState::Ok));
    let snap = engine.ledger().get(handle.0).unwrap();
    assert_eq!(snap.attempts, 3);
    assert_eq!(snap.destination.as_deref(), Some("local_cpu"));

    let rec = engine.app().recorder();
    let dispatched: Vec<String> = rec
        .events_named("galaxy.queue.dispatch")
        .iter()
        .map(|e| e.field("destination").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(dispatched, ["local_gpu", "local_gpu", "local_cpu"]);

    let resubmits = rec.events_named("galaxy.queue.resubmit");
    assert_eq!(resubmits.len(), 2);
    let field = |i: usize, k: &str| {
        resubmits[i].field(k).and_then(|v| v.as_str()).map(str::to_string).unwrap()
    };
    // Hop 1: node retry — same destination, dead node excluded.
    assert_eq!(field(0, "reason"), "node_excluded");
    assert_eq!(field(0, "from_node"), "k80-000");
    assert_eq!(field(0, "to_destination"), "local_gpu");
    assert_eq!(field(0, "excluded_nodes"), "k80-000");
    // Hop 2: budget spent — down the ladder, from the *other* node.
    assert_eq!(field(1, "reason"), "fallback");
    assert_eq!(field(1, "from_node"), "a100-001");
    assert_eq!(field(1, "to_destination"), "local_cpu");
    assert_eq!(field(1, "excluded_nodes"), "k80-000");

    // Every failed attempt's leases were released before its retry.
    assert_eq!(fleet.total_lease_count(), 0);
    assert!(fleet.active_placements().is_empty());
}

/// Bugfix regression: a GPU→CPU retry must not inherit the failed GPU
/// attempt's exports — the ledger snapshot carries no node label and the
/// job record no `CUDA_VISIBLE_DEVICES`/`GALAXY_NODE` after the CPU
/// attempt concludes.
#[test]
fn cpu_retry_carries_no_stale_node_or_device_mask() {
    let fleet = Fleet::builder().nodes(NodeClass::k80(), 1).build();
    let policy = galaxy::queue::ResubmitPolicy::gpu_to_cpu("local_cpu");
    let mut engine = fleet_engine(&fleet, policy);

    let handle = engine.submit_async("ada", "racon_gpu", &ParamDict::new()).unwrap();
    engine.run_until_idle();

    assert_eq!(engine.state(handle), Some(SubmissionState::Ok));
    // The GPU attempt really ran on a node (the resubmit audit names it) …
    let rec = engine.app().recorder();
    let resubmits = rec.events_named("galaxy.queue.resubmit");
    assert_eq!(resubmits.len(), 1);
    assert_eq!(resubmits[0].field("from_node").and_then(|v| v.as_str()), Some("k80-000"));
    // … but the retried attempt is scrubbed clean of it, everywhere.
    let snap = engine.ledger().get(handle.0).unwrap();
    assert_eq!(snap.node, None, "CPU retry must not keep the dead attempt's node label");
    assert_eq!(snap.destination.as_deref(), Some("local_cpu"));
    let job = engine.app().job(handle.0).unwrap();
    assert_eq!(job.env_var("GALAXY_GPU_ENABLED"), Some("false"));
    assert_eq!(job.env_var("CUDA_VISIBLE_DEVICES"), None);
    assert_eq!(job.env_var(galaxy::GALAXY_NODE_ENV), None);
    assert_eq!(job.stdout, "cpu");
}

/// Release-before-retry ordering: on a single fully-booked node, the
/// retry can only place if the failed attempt's leases were released
/// *before* the retry's placement ran.
#[test]
fn resubmission_releases_leases_before_the_retry_places() {
    let fleet = Fleet::builder().nodes(NodeClass::k80(), 1).build();
    // Retry on the same GPU destination (no node retry, no CPU): both
    // attempts need the node's full die set.
    let policy = galaxy::queue::ResubmitPolicy {
        max_attempts: 2,
        fallbacks: vec!["local_gpu".into()],
        node_retries: 0,
        footprint_retries: 0,
    };
    let mut engine = fleet_engine(&fleet, policy);

    let handle = engine.submit_async("ada", "racon_gpu", &ParamDict::new()).unwrap();
    engine.run_until_idle();

    // Both attempts fail on GPU; the second still *placed* — which is
    // only possible if release preceded the retry's placement.
    assert_eq!(engine.state(handle), Some(SubmissionState::Error));
    let snap = engine.ledger().get(handle.0).unwrap();
    assert_eq!(snap.attempts, 2);
    assert_eq!(snap.node.as_deref(), Some("k80-000"), "retry re-placed on the freed node");
    let job = engine.app().job(handle.0).unwrap();
    assert_eq!(job.env_var("GALAXY_GPU_ENABLED"), Some("true"));
    assert_eq!(fleet.total_lease_count(), 0, "final conclusion released the retry's leases");
}

// --- Release idempotency under failure paths ---------------------------

/// `after_conclude` firing twice for the same job (a retry racing a
/// conclusion) must not double-release or corrupt counts; nor must a
/// release arriving after the job's node already died.
#[test]
fn release_is_idempotent_across_double_conclude_and_node_death() {
    use galaxy::runners::{JobConclusion, JobHook};
    let fleet = Fleet::builder().nodes(NodeClass::k80(), 2).build();
    // The one hook over the fleet seam, as `install_fleet` builds it.
    let hook = gyan::GyanHook::new(
        fleet.clone(),
        ["fleet_gpu"],
        gyan::orchestrator::DEFAULT_GPU_MEMORY_HINT_MIB,
        gyan::FootprintRegistry::new(),
        gyan::MemoryHint::Static,
    );

    // Double conclude.
    fleet.place(&request(1, "ada", "racon_gpu", 256)).unwrap();
    hook.after_conclude(1, JobConclusion::FailedRetryable);
    hook.after_conclude(1, JobConclusion::FailedRetryable);
    assert_eq!(fleet.total_lease_count(), 0);
    assert!(fleet.active_placements().is_empty());

    // Release after node death: the booking is already gone.
    let p = fleet.place(&request(2, "ada", "racon_gpu", 256)).unwrap();
    let node_name = p.node_name.clone();
    assert_eq!(fleet.fail_node(&node_name), Some(vec![2]));
    hook.after_conclude(2, JobConclusion::FailedRetryable);
    assert_eq!(fleet.total_lease_count(), 0);
    assert!(fleet.active_placements().is_empty());

    // The dead node stays out of placement; the survivor still serves.
    let p = fleet.place(&request(3, "ada", "racon_gpu", 256)).expect("survivor places");
    assert_ne!(p.node_name, node_name);
    hook.after_conclude(3, JobConclusion::Ok);
    assert_eq!(fleet.total_lease_count(), 0);
}

/// Bugfix regression: a shard's table supersedes a holder's stale leases
/// only on itself, so a fleet that placed a booked job again — scoring the
/// old node with the job's own lease against it, landing elsewhere,
/// overwriting the booking — orphaned the first lease for good. `place`
/// now releases the job's booking as `superseded` before it scores.
#[test]
fn re_placing_a_booked_job_supersedes_its_first_placement() {
    let recorder = Recorder::new();
    let fleet = Fleet::builder().nodes(NodeClass::k80(), 2).recorder(recorder.clone()).build();
    let first = fleet.place(&request(1, "ada", "racon_gpu", 256)).unwrap();
    let second = fleet.place(&request(1, "ada", "racon_gpu", 256)).unwrap();
    // Node 0 is idle again by the time it is scored, and wins the tie.
    assert_eq!((first.node, second.node), (0, 0));
    assert_eq!(fleet.total_lease_count(), 1, "one lease");
    assert_eq!(fleet.holders_by_node(), vec![(0, vec![1]), (1, vec![])], "one holder");
    assert_eq!(fleet.active_placements(), vec![(1, 0)]);

    // Landing elsewhere leaves nothing behind either.
    assert!(fleet.cordon("k80-000"));
    assert_eq!(fleet.place(&request(1, "ada", "racon_gpu", 256)).unwrap().node, 1);
    assert_eq!(fleet.holders_by_node(), vec![(0, vec![]), (1, vec![1])]);

    let superseded: Vec<String> = recorder
        .events_named(fleet::fleet::FLEET_RELEASE_EVENT)
        .iter()
        .filter(|e| e.field("why").and_then(|v| v.as_str()) == Some("superseded"))
        .map(|e| e.field("node").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(superseded, ["k80-000", "k80-000"]);

    assert!(fleet.release(1, "ok") > 0);
    assert_eq!(fleet.total_lease_count(), 0, "zero after release");
    assert!(fleet.active_placements().is_empty());
}

// --- Destination memory hints: rule/hook agreement + validation --------

fn hint_conf(hint: &str) -> JobConfig {
    JobConfig::from_xml(&format!(
        r#"<job_conf>
          <plugins><plugin id="local" type="runner" load="x"/></plugins>
          <destinations default="dyn">
            <destination id="dyn" runner="dynamic">
              <param id="function">gpu_dynamic_destination</param>
            </destination>
            <destination id="fleet_gpu" runner="local">
              <param id="gpu_memory_hint_mib">{hint}</param>
            </destination>
            <destination id="local_cpu" runner="local"/>
          </destinations>
        </job_conf>"#
    ))
    .unwrap()
}

const SMALL_GPU_TOOL: &str = r#"<tool id="racon_gpu"><requirements>
  <requirement type="compute">gpu</requirement>
</requirements><command>racon_gpu</command></tool>"#;

/// Bugfix regression: the dynamic rule must resolve the same
/// per-destination `gpu_memory_hint_mib` the hook uses. A 20 GB hint on
/// a K80-only fleet (11,441 MiB dies) must route to CPU at the *rule*,
/// not bounce off placement after committing to the GPU destination.
#[test]
fn rule_and_hook_agree_on_the_destination_memory_hint() {
    let mut app = GalaxyApp::new(hint_conf("20000"));
    app.install_tool_xml(SMALL_GPU_TOOL, &MacroLibrary::new()).unwrap();
    let fleet = Fleet::builder().nodes(NodeClass::k80(), 2).build();
    install_fleet(&mut app, &fleet, FleetConfig::default());

    let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
    let job = app.job(id).unwrap();
    // With the config-level default (1,024 MiB) the rule would have said
    // "the fleet hosts this" and stranded the job on fleet_gpu with a
    // CPU environment; resolving the destination's own hint routes it
    // straight to the CPU destination instead.
    assert_eq!(job.destination_id.as_deref(), Some("local_cpu"));
    assert_eq!(job.env_var("GALAXY_GPU_ENABLED"), Some("false"));
    assert_eq!(fleet.total_lease_count(), 0);
}

/// Bugfix regression: a malformed `gpu_memory_hint_mib` falls back to
/// the default, but no longer silently — it bumps a counter and emits a
/// decision-audit event naming the typo.
#[test]
fn malformed_memory_hint_is_audited_not_silent() {
    use gyan::orchestrator::{INVALID_HINT_COUNTER, INVALID_HINT_EVENT};
    let recorder = Recorder::new();
    let mut app = GalaxyApp::new(hint_conf("lots"));
    app.install_tool_xml(SMALL_GPU_TOOL, &MacroLibrary::new()).unwrap();
    let fleet = Fleet::builder().nodes(NodeClass::k80(), 1).recorder(recorder.clone()).build();
    install_fleet(&mut app, &fleet, FleetConfig::default());

    let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
    // The default hint (1,024 MiB) fits a K80 die: the job still runs on
    // the fleet.
    let job = app.job(id).unwrap();
    assert_eq!(job.destination_id.as_deref(), Some("fleet_gpu"));
    assert_eq!(job.env_var("GALAXY_GPU_ENABLED"), Some("true"));

    assert_eq!(recorder.metrics().counter_value(INVALID_HINT_COUNTER), 1);
    let audits = recorder.events_named(INVALID_HINT_EVENT);
    assert_eq!(audits.len(), 1);
    assert_eq!(audits[0].field("raw").and_then(|v| v.as_str()), Some("lots"));
    assert_eq!(audits[0].field("destination").and_then(|v| v.as_str()), Some("fleet_gpu"));
    assert_eq!(audits[0].field("fallback_mib").and_then(|v| v.as_f64()), Some(1024.0));
}

// --- Cordon / drain over the queue path --------------------------------

/// Cordoned nodes keep serving releases for their in-flight leases but
/// take no new placements; drain resolves once the count hits zero, and
/// uncordon restores placement.
#[test]
fn cordon_drain_uncordon_lifecycle_over_live_leases() {
    let fleet = Fleet::builder().nodes(NodeClass::k80(), 2).build();
    fleet.place(&request(1, "ada", "racon_gpu", 256)).unwrap();
    assert_eq!(fleet.node_of(1), Some(0));

    assert_eq!(fleet.drain("k80-000"), Some(1), "one lease still draining");
    assert_eq!(fleet.is_drained("k80-000"), Some(false));
    // New work skips the cordoned node even though it is emptier.
    let p = fleet.place(&request(2, "ada", "racon_gpu", 256)).unwrap();
    assert_eq!(p.node_name, "k80-001");
    // The cordoned shard still serves its release; drain resolves.
    fleet.release(1, "ok");
    assert_eq!(fleet.is_drained("k80-000"), Some(true));

    assert!(fleet.uncordon("k80-000"));
    let p = fleet.place(&request(3, "ada", "racon_gpu", 256)).unwrap();
    assert_eq!(p.node_name, "k80-000", "uncordoned node takes work again");
    fleet.release(2, "ok");
    fleet.release(3, "ok");
    assert_eq!(fleet.total_lease_count(), 0);
}

// --- Heterogeneous pricing sanity --------------------------------------

/// The same placement is *priced* differently per node class: a kernel
/// runs strictly faster on newer architectures, so destination rules that
/// steer basecallers to V100/A100 nodes buy real simulated speedups.
#[test]
fn node_classes_price_the_same_kernel_differently() {
    let seconds_on = |class: NodeClass| {
        let spec = gpusim::KernelSpec::fp32("polish", 4096, 256, 1e12, 1e9);
        spec.duration(&class.arch).unwrap().total_s
    };
    let k80 = seconds_on(NodeClass::k80());
    let v100 = seconds_on(NodeClass::v100());
    let a100 = seconds_on(NodeClass::a100());
    assert!(k80 > v100 && v100 > a100, "k80={k80} v100={v100} a100={a100}");
}
