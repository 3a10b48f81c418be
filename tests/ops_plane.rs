//! End-to-end operations plane: boot the embedded introspection server
//! over a real `QueueEngine`/`install_gyan` stack and drive every
//! acceptance surface over actual HTTP —
//!
//! * `/metrics` round-trips through obs's own Prometheus parser;
//! * `/api/gpus` reports exactly the leases the [`LeaseTable`] holds;
//! * a synthetic conflict storm walks the `gpu-conflict-rate` SLO rule
//!   through pending → firing → resolved;
//! * the flight-recorder dump captured at firing time replays as a valid
//!   Chrome trace;
//! * a single node and a fleet are served by the one `ops_server`, every
//!   route answering on both.

use fleet::{fleet_ops_server, Fleet, NodeClass, PlacementRequest};
use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{JobSnapshot, JobsLedger, QueueConfig, QueueEngine, SubmissionState};
use galaxy::runners::NullExecutor;
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::GpuCluster;
use gyan::allocation::AllocationPolicy;
use gyan::ops::{default_alert_rules, ops_server, DEFAULT_NODE_NAME};
use gyan::reservations::LeaseTable;
use gyan::setup::{install_gyan, GyanConfig};
use obs::flight::FlightRecord;
use obs::metrics::parse_prometheus;
use obs::serve::http_get;
use obs::slo::{AlertEngine, AlertState, ALERT_EVENT};
use obs::Recorder;
use std::sync::Arc;

const GPU_TOOL: &str = r#"<tool id="ops_racon" name="Racon">
  <requirements><requirement type="compute">gpu</requirement></requirements>
  <command>racon_gpu reads</command>
  <outputs><data name="out" format="fasta"/></outputs>
</tool>"#;

const CPU_TOOL: &str = r#"<tool id="ops_echo" name="Echo">
  <command>echo $text</command>
  <inputs><param name="text" type="text" value="tick"/></inputs>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

/// The full stack, wired the production way (`install_gyan` shares the
/// recorder, lease table, and virtual clock), plus the alert engine
/// loaded with the stock rules.
struct Stack {
    cluster: GpuCluster,
    engine: QueueEngine,
    table: LeaseTable,
    alerts: AlertEngine,
}

fn stack() -> Stack {
    let cluster = GpuCluster::k80_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let table = install_gyan(&mut app, &cluster, GyanConfig::default());
    let lib = MacroLibrary::new();
    app.install_tool_xml(GPU_TOOL, &lib).unwrap();
    app.install_tool_xml(CPU_TOOL, &lib).unwrap();
    let alerts = AlertEngine::new(app.recorder());
    for rule in default_alert_rules(&table) {
        alerts.add_rule(rule);
    }
    let engine = QueueEngine::new(app, Arc::new(NullExecutor), QueueConfig::default());
    Stack { cluster, engine, table, alerts }
}

fn serve(stack: &Stack) -> obs::serve::OpsHandle {
    let recorder = stack.engine.app().recorder().clone();
    let nodes = [(DEFAULT_NODE_NAME, &stack.cluster, &stack.table)];
    ops_server(&recorder, &nodes, &stack.engine.ledger(), &stack.alerts)
        .start("127.0.0.1:0")
        .expect("bind ephemeral port")
}

/// Run a mixed GPU/CPU workload, then check `/metrics` parses with the
/// crate's own Prometheus parser and agrees with the registry, and that
/// the job API reflects the ledger.
#[test]
fn metrics_scrape_round_trips_and_jobs_api_matches_ledger() {
    let mut s = stack();
    let gpu = s.engine.submit_async("alice", "ops_racon", &ParamDict::new()).unwrap();
    let cpu = s.engine.submit_async("bob", "ops_echo", &ParamDict::new()).unwrap();
    s.engine.run_until_idle();
    assert_eq!(s.engine.state(gpu), Some(SubmissionState::Ok));
    assert_eq!(s.engine.state(cpu), Some(SubmissionState::Ok));

    let handle = serve(&s);
    let (status, body) = http_get(handle.addr(), "/metrics").unwrap();
    assert_eq!(status, 200);
    let samples = parse_prometheus(&body).expect("scrape parses with the obs parser");
    assert!(!samples.is_empty());
    let registry = s.engine.app().recorder().metrics();
    for name in ["galaxy_jobs_submitted_total", "gyan_reservations_acquired_total"] {
        let sample = samples.iter().find(|p| p.name == name && p.labels.is_empty());
        let sample = sample.unwrap_or_else(|| panic!("{name} missing from scrape"));
        assert_eq!(sample.value, registry.counter_value(name) as f64, "{name}");
    }

    // Job API: both jobs listed in id order with their final state.
    let (status, body) = http_get(handle.addr(), "/api/jobs").unwrap();
    assert_eq!(status, 200);
    let doc = obs::json::parse(&body).expect("jobs json parses");
    let jobs = doc.get("jobs").and_then(|v| v.as_array()).expect("jobs array");
    assert_eq!(jobs.len(), 2);
    for (job, id) in jobs.iter().zip([gpu.0, cpu.0]) {
        assert_eq!(job.get("id").and_then(|v| v.as_f64()), Some(id as f64));
        assert_eq!(job.get("state").and_then(|v| v.as_str()), Some("ok"));
        assert!(job.get("destination").and_then(|v| v.as_str()).is_some());
        assert!(job.get("finished_at").and_then(|v| v.as_f64()).is_some());
    }
    let (status, body) = http_get(handle.addr(), &format!("/api/jobs/{}", gpu.0)).unwrap();
    assert_eq!(status, 200);
    let one = obs::json::parse(&body).unwrap();
    assert_eq!(one.get("tool").and_then(|v| v.as_str()), Some("ops_racon"));
    assert_eq!(one.get("attempts").and_then(|v| v.as_f64()), Some(1.0));
    let (status, _) = http_get(handle.addr(), "/api/jobs/999999").unwrap();
    assert_eq!(status, 404);

    let (status, body) = http_get(handle.addr(), "/healthz").unwrap();
    assert_eq!(status, 200);
    let health = obs::json::parse(&body).unwrap();
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert!(health.get("http_pool").is_some(), "{body}");
    handle.shutdown();
}

/// `/api/gpus` must agree with the lease table exactly: same devices,
/// same holders, same exclusivity, same memory hints.
#[test]
fn gpus_api_lease_view_matches_the_lease_table() {
    let s = stack();
    let recorder = s.engine.app().recorder().clone();
    // Hold one exclusive lease (free path) and one shared lease on the
    // other device via a second holder requesting the now-busy set.
    s.table
        .allocate_and_lease(
            &s.cluster,
            &[0],
            AllocationPolicy::ProcessId,
            9001,
            256,
            Some(&recorder),
        )
        .expect("grant");
    s.table
        .allocate_and_lease(
            &s.cluster,
            &[1],
            AllocationPolicy::ProcessId,
            9002,
            128,
            Some(&recorder),
        )
        .expect("grant");

    let handle = serve(&s);
    let (status, body) = http_get(handle.addr(), "/api/gpus").unwrap();
    assert_eq!(status, 200);
    let doc = obs::json::parse(&body).expect("gpus json parses");
    let gpus = doc.get("gpus").and_then(|v| v.as_array()).expect("gpus array");
    assert_eq!(gpus.len() as u32, s.cluster.device_count());

    // Rebuild (device, holder, exclusive, hint) tuples from the HTTP view
    // and compare with the table's own snapshot — they must be identical.
    let mut from_http: Vec<(u32, u64, bool, u64)> = Vec::new();
    for gpu in gpus {
        let minor = gpu.get("minor").and_then(|v| v.as_f64()).unwrap() as u32;
        for lease in gpu.get("leases").and_then(|v| v.as_array()).unwrap() {
            assert_eq!(lease.get("device").and_then(|v| v.as_f64()), Some(f64::from(minor)));
            from_http.push((
                minor,
                lease.get("holder").and_then(|v| v.as_f64()).unwrap() as u64,
                lease.get("exclusive").and_then(|v| v.as_bool()).unwrap(),
                lease.get("memory_hint_mib").and_then(|v| v.as_f64()).unwrap() as u64,
            ));
        }
    }
    let from_table: Vec<(u32, u64, bool, u64)> = s
        .table
        .all_leases()
        .iter()
        .map(|l| (l.device, l.holder, l.exclusive, l.memory_hint_mib))
        .collect();
    assert_eq!(from_http, from_table, "HTTP lease view diverged from the LeaseTable");
    assert_eq!(from_table.len(), 2);
    handle.shutdown();
}

/// `/api/profile` must serve the same scope registry the in-process
/// profiler holds: after driving real allocations through the lease
/// table with the profiler enabled, every scope path visible in a local
/// snapshot must come back over live HTTP, including the named
/// allocation-pipeline stages.
#[test]
fn profile_api_serves_the_in_process_scopes_over_http() {
    let s = stack();
    let recorder = s.engine.app().recorder().clone();
    let profiler = obs::profile::global();
    profiler.enable();

    // Drive the instrumented hot path: allocate + release twice so the
    // pipeline scopes (gyan.allocate → alloc.observe → smi.query → …)
    // all record at least one sample.
    for holder in [7001u64, 7002] {
        s.table
            .allocate_and_lease(
                &s.cluster,
                &[0],
                AllocationPolicy::ProcessId,
                holder,
                64,
                Some(&recorder),
            )
            .expect("grant");
        s.table.release(holder, "profiled", Some(&recorder));
    }

    // The in-process view, captured before asking over HTTP. Other tests
    // in the binary may add scopes concurrently, so the HTTP view is
    // asserted to be a superset, never an exact match.
    let local: Vec<String> = profiler.snapshot().into_iter().map(|e| e.path).collect();
    for expected in ["gyan.allocate", "gyan.allocate;alloc.observe;smi.query", "alloc.release"] {
        assert!(
            local.iter().any(|p| p == expected),
            "instrumented pipeline must record {expected:?}: {local:?}"
        );
    }

    let handle = serve(&s);
    let (status, body) = http_get(handle.addr(), "/api/profile").unwrap();
    assert_eq!(status, 200);
    let doc = obs::json::parse(&body).expect("profile json parses");
    let scopes = doc.get("scopes").and_then(|v| v.as_array()).expect("scopes array");
    let over_http: Vec<String> = scopes
        .iter()
        .map(|s| s.get("path").and_then(|v| v.as_str()).expect("scope path").to_string())
        .collect();
    for path in &local {
        assert!(
            over_http.iter().any(|p| p == path),
            "scope {path:?} present in-process but missing over HTTP: {over_http:?}"
        );
    }
    // Sanity on the stats shape: the allocation root carries counts.
    let root = scopes
        .iter()
        .find(|s| s.get("path").and_then(|v| v.as_str()) == Some("gyan.allocate"))
        .expect("gyan.allocate over HTTP");
    assert!(root.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 2.0);
    assert!(root.get("total_s").and_then(|v| v.as_f64()).is_some());

    // The collapsed export serves the same paths as flamegraph input.
    let (status, collapsed) = http_get(handle.addr(), "/api/profile?format=collapsed").unwrap();
    assert_eq!(status, 200);
    assert!(
        collapsed
            .lines()
            .any(|l| l.starts_with("gyan.allocate ") || l.starts_with("gyan.allocate;")),
        "collapsed output must contain the allocation stacks: {collapsed}"
    );

    profiler.disable();
    handle.shutdown();
}

/// Synthetic conflict storm: one job camps on device 0 with an exclusive
/// lease; a stream of probes requests device 0 and gets redirected —
/// each redirection is a `gyan_reservation_conflicts_total` increment.
/// The `gpu-conflict-rate` rule must walk pending → firing (an event the
/// flight window then holds) and resolve once the storm stops.
#[test]
fn conflict_storm_walks_the_alert_through_its_lifecycle() {
    let s = stack();
    let recorder = s.engine.app().recorder().clone();
    let clock = s.cluster.clock().clone();
    let storm = |holder: u64| {
        s.table
            .allocate_and_lease(
                &s.cluster,
                &[0],
                AllocationPolicy::ProcessId,
                holder,
                64,
                Some(&recorder),
            )
            .expect("grant");
        s.table.release(holder, "probe_done", Some(&recorder));
    };

    // Camp on device 0.
    s.table
        .allocate_and_lease(
            &s.cluster,
            &[0],
            AllocationPolicy::ProcessId,
            9001,
            256,
            Some(&recorder),
        )
        .expect("camper grant");

    let handle = serve(&s);
    let mut kinds: Vec<String> = Vec::new();
    let state_of = |rule: &str| -> String {
        let (status, body) = http_get(handle.addr(), "/api/alerts").unwrap();
        assert_eq!(status, 200);
        let doc = obs::json::parse(&body).expect("alerts json parses");
        doc.get("alerts")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .find(|a| a.get("rule").and_then(|v| v.as_str()) == Some(rule))
            .and_then(|a| a.get("state").and_then(|v| v.as_str()).map(str::to_string))
            .expect("rule present")
    };

    // One conflicting probe per virtual second: a sustained 1/s rate
    // against the 0.5/s threshold.
    for i in 0..6u64 {
        storm(100 + i);
        clock.advance(1.0);
        for tr in s.alerts.evaluate() {
            if tr.rule == "gpu-conflict-rate" {
                kinds.push(tr.kind.to_string());
            }
        }
        if kinds.is_empty() {
            assert_eq!(state_of("gpu-conflict-rate"), "inactive");
        }
    }
    assert_eq!(kinds, vec!["pending", "firing"], "storm must escalate");
    assert_eq!(state_of("gpu-conflict-rate"), "firing");
    assert_eq!(s.alerts.firing(), vec!["gpu-conflict-rate".to_string()]);

    // The firing is an audit event in the log, so the flight window read
    // after it holds the transition.
    let snapshot = recorder.flight_snapshot();
    assert!(
        snapshot.records.iter().any(|r| match r {
            FlightRecord::Event(e) => {
                e.name == ALERT_EVENT
                    && e.field("rule").and_then(|v| v.as_str()) == Some("gpu-conflict-rate")
                    && e.field("to").and_then(|v| v.as_str()) == Some("firing")
            }
            FlightRecord::Span(_) => false,
        }),
        "flight window holds the firing transition"
    );
    // The live endpoint serves the same recorder ring as JSONL.
    let (status, body) = http_get(handle.addr(), "/api/flightrec").unwrap();
    assert_eq!(status, 200);
    for line in body.lines() {
        obs::json::parse(line).expect("flightrec line parses");
    }

    // Storm over: once the rate window drains, the alert resolves.
    clock.advance(15.0);
    let resolved = s.alerts.evaluate();
    assert!(
        resolved.iter().any(|tr| tr.rule == "gpu-conflict-rate"
            && tr.kind == "resolved"
            && tr.from == AlertState::Firing),
        "storm end must resolve the alert: {resolved:?}"
    );
    assert_eq!(state_of("gpu-conflict-rate"), "inactive");
    assert!(s.alerts.firing().is_empty());
    handle.shutdown();
}

/// One operations plane for both topologies. A single node is served as
/// the one-entry node list `node-000`; a fleet through
/// `fleet_ops_server`, which is the same `ops_server` over its shards
/// plus `/api/nodes`. Every route answers on both, and each node is
/// labeled on `/metrics` and on every device.
#[test]
fn one_ops_server_serves_a_node_and_a_fleet() {
    // The single node: one GPU job run to completion, then a held lease.
    let mut s = stack();
    let gpu = s.engine.submit_async("alice", "ops_racon", &ParamDict::new()).unwrap();
    s.engine.run_until_idle();
    let recorder = s.engine.app().recorder().clone();
    s.table
        .allocate_and_lease(
            &s.cluster,
            &[0],
            AllocationPolicy::ProcessId,
            gpu.0,
            256,
            Some(&recorder),
        )
        .expect("grant");

    // The fleet: a K80 node and an A100 node. Job 1 fits a K80 die and
    // lands on the lower node id; job 2's 20 000 MiB fit only an A100 die.
    let recorder = Recorder::new();
    let the_fleet = Fleet::builder()
        .nodes(NodeClass::k80(), 1)
        .nodes(NodeClass::a100(), 1)
        .recorder(recorder.clone())
        .build();
    let ledger = JobsLedger::new();
    for (job_id, tool_id, memory_hint_mib, node) in
        [(1, "racon_gpu", 256, "k80-000"), (2, "bonito", 20_000, "a100-001")]
    {
        let request = PlacementRequest {
            job_id,
            user: "ada",
            tool_id,
            requested: &[0],
            memory_hint_mib,
            excluded_nodes: &[],
        };
        assert_eq!(the_fleet.place(&request).expect("fleet places").node_name, node);
        ledger.upsert(JobSnapshot {
            job_id,
            user: "ada".into(),
            tool: tool_id.into(),
            state: SubmissionState::Queued,
            attempts: 1,
            destination: Some("local_gpu".into()),
            node: Some(node.to_string().into()),
            priority: 1,
            submitted_at: 0.0,
            finished_at: None,
        });
    }
    let alerts = AlertEngine::new(&recorder);
    for rule in default_alert_rules(&the_fleet) {
        alerts.add_rule(rule);
    }

    let served = [
        (serve(&s), vec![DEFAULT_NODE_NAME], 2, gpu.0),
        (
            fleet_ops_server(&recorder, &the_fleet, &ledger, &alerts)
                .start("127.0.0.1:0")
                .expect("bind ephemeral port"),
            vec!["k80-000", "a100-001"],
            10, // 2 K80 dies + 8 A100 dies
            2,
        ),
    ];
    let mut bench = Vec::new();
    for (handle, names, devices, job) in &served {
        let get = |path: &str| http_get(handle.addr(), path).unwrap();

        let (status, body) = get("/metrics");
        assert_eq!(status, 200);
        parse_prometheus(&body).expect("scrape parses with the obs parser");
        for name in names {
            assert!(body.contains(&format!("gyan_node_info{{node=\"{name}\"}} 1")), "{body}");
        }
        assert_eq!(get("/healthz").0, 200);

        // Every device carries its node's name, in node order.
        let (status, body) = get("/api/gpus");
        assert_eq!(status, 200);
        let doc = obs::json::parse(&body).expect("gpus json parses");
        let gpus = doc.get("gpus").and_then(|v| v.as_array()).expect("gpus array");
        assert_eq!(gpus.len(), *devices);
        let mut labels: Vec<&str> =
            gpus.iter().filter_map(|g| g.get("node").and_then(|v| v.as_str())).collect();
        assert_eq!(labels.len(), *devices);
        labels.dedup();
        assert_eq!(&labels, names);

        // A job's leases are joined from whichever node holds them.
        let (status, body) = get("/api/jobs");
        assert_eq!(status, 200);
        obs::json::parse(&body).expect("jobs json parses");
        let (status, body) = get(&format!("/api/jobs/{job}"));
        assert_eq!(status, 200);
        let one = obs::json::parse(&body).expect("job json parses");
        let leases = one.get("leases").and_then(|v| v.as_array()).expect("leases array");
        assert_eq!(leases.len(), 1, "{body}");
        assert_eq!(get("/api/jobs/999999").0, 404);
        assert_eq!(get("/api/jobs/not-a-number").0, 404);

        for path in ["/api/alerts", "/api/profile"] {
            let (status, body) = get(path);
            assert_eq!(status, 200, "{path}");
            obs::json::parse(&body).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"));
        }
        let (status, body) = get("/api/flightrec");
        assert_eq!(status, 200);
        for line in body.lines() {
            obs::json::parse(line).expect("flightrec line parses");
        }
        bench.push(get("/api/bench"));
    }
    // `/api/bench` serves one file, whichever topology asks.
    assert_eq!(bench[0], bench[1]);
    assert!(bench[0].0 == 200 || bench[0].1.contains("perf trajectory"), "{:?}", bench[0]);

    // `/api/nodes` is the fleet's own view.
    let (node, fleet) = (&served[0].0, &served[1].0);
    assert_eq!(http_get(node.addr(), "/api/nodes").unwrap().0, 404);
    let (status, body) = http_get(fleet.addr(), "/api/nodes").unwrap();
    assert_eq!(status, 200);
    let doc = obs::json::parse(&body).expect("nodes json parses");
    let list = doc.get("nodes").and_then(|v| v.as_array()).expect("nodes array");
    assert_eq!(list.len(), 2);
    assert_eq!(list[1].get("node").and_then(|v| v.as_str()), Some("a100-001"));
    assert_eq!(list[1].get("arch").and_then(|v| v.as_str()), Some("A100-SXM4-40GB"));
    // The fleet's per-node placement series ride on the same scrape.
    let (_, body) = http_get(fleet.addr(), "/metrics").unwrap();
    assert!(body.contains("fleet_placements_total{node=\"k80-000\"} 1"), "{body}");
    assert!(body.contains("fleet_placements_total{node=\"a100-001\"} 1"), "{body}");

    for (handle, ..) in served {
        handle.shutdown();
    }
}
