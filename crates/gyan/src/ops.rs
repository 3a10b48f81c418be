//! The live operations plane: wiring GYAN's runtime state into the
//! embedded introspection server (`obs::serve`).
//!
//! One call to [`ops_server`] produces an [`obs::serve::OpsServer`] whose
//! routes expose the whole observe→map→dispatch stack over a list of
//! named nodes — a single node is the one-entry list [`DEFAULT_NODE_NAME`],
//! a fleet its shards in node-id order:
//!
//! | endpoint           | content                                          |
//! |--------------------|--------------------------------------------------|
//! | `/metrics`         | Prometheus scrape of the recorder's registry     |
//! | `/healthz`         | liveness + HTTP pool saturation                  |
//! | `/api/gpus`        | every node's merged SMI device state + active leases, each device `"node"`-labeled |
//! | `/api/jobs`        | job lifecycle snapshots from the queue ledger, joined with their leases on any node |
//! | `/api/jobs/<id>`   | one job, with the leases it currently holds      |
//! | `/api/alerts`      | SLO alert-rule states from the [`AlertEngine`]   |
//! | `/api/flightrec`   | flight-recorder JSONL dump (the log's tail)      |
//! | `/api/profile`     | hot-path profiler aggregation (`?format=collapsed` for flamegraph text, `?reset=1` to clear) |
//! | `/api/bench`       | last recorded perf trajectory (`BENCH_scheduler.json`) |
//!
//! A fleet adds only `/api/nodes` (`fleet::fleet_ops_server`): class,
//! cordon status and placement policy exist only there.
//!
//! Learned footprint profiles are served on `/metrics` as the
//! `gyan_footprint_*` gauges each conclusion that teaches one exports
//! ([`crate::footprint::FootprintRegistry::conclude`]).
//!
//! [`default_alert_rules`] builds the stock SLO rule set the paper's
//! operators would watch, over a node's lease table or a fleet's:
//! queue-wait p99, GPU allocation-conflict rate, failure/resubmission
//! burn rates, and lease-table oversubscription.
//!
//! [`AlertEngine`]: obs::slo::AlertEngine

use crate::reservations::{Lease, LeaseTable, LeaseView};
use galaxy::queue::{JobSnapshot, JobsLedger};
use gpusim::GpuCluster;
use obs::json_escape;
use obs::serve::{Handler, OpsServer, Response};
use obs::slo::{AlertEngine, AlertExpr, AlertRule, Compare};
use obs::Recorder;
use std::path::PathBuf;
use std::sync::Arc;

/// Node label a single-node deployment reports.
/// Multi-node fleets name each shard (`k80-000`, `a100-017`, ...) so the
/// GPU/job views and metrics never collapse into one anonymous list.
pub const DEFAULT_NODE_NAME: &str = "node-000";

/// Info-style gauge (value always 1) carrying a served node's label,
/// exported as `gyan_node_info{node="<name>"}` by [`ops_server`].
pub const NODE_INFO_GAUGE: &str = "gyan_node_info";

/// Render an `f64` for JSON output (`null` when non-finite, which the
/// operations-plane values never are in practice).
fn num(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

fn lease_json(lease: &Lease) -> String {
    format!(
        "{{\"device\":{},\"holder\":{},\"exclusive\":{},\"memory_hint_mib\":{},\"acquired_at\":{}}}",
        lease.device,
        lease.holder,
        lease.exclusive,
        lease.memory_hint_mib,
        num(lease.acquired_at)
    )
}

/// One node the operations plane serves.
struct Node {
    name: String,
    cluster: GpuCluster,
    table: LeaseTable,
}

/// Per-device JSON objects of one node's `/api/gpus` entries, each
/// carrying the `node` label.
fn gpu_objects(node: &Node) -> impl Iterator<Item = String> + '_ {
    node.cluster.snapshot().into_iter().map(move |dev| {
        let processes: Vec<String> = dev
            .processes()
            .iter()
            .map(|p| {
                format!(
                    "{{\"pid\":{},\"name\":\"{}\",\"used_mib\":{}}}",
                    p.pid,
                    json_escape(&p.name),
                    p.used_mib
                )
            })
            .collect();
        let leases: Vec<String> =
            node.table.leases_on(dev.minor_number).iter().map(lease_json).collect();
        format!(
            "{{\"node\":\"{}\",\"minor\":{},\"arch\":\"{}\",\"uuid\":\"{}\",\
             \"fb_total_mib\":{},\
             \"fb_used_mib\":{},\"fb_free_mib\":{},\"sm_utilization\":{},\
             \"mem_utilization\":{},\"pcie_link_gen\":{},\"available\":{},\
             \"processes\":[{}],\"leases\":[{}]}}",
            json_escape(&node.name),
            dev.minor_number,
            json_escape(dev.arch.name),
            json_escape(&dev.uuid),
            dev.fb_total_mib(),
            dev.fb_used_mib(),
            dev.fb_free_mib(),
            num(dev.sm_utilization),
            num(dev.mem_utilization),
            dev.pcie_link_gen,
            dev.is_available(),
            processes.join(","),
            leases.join(","),
        )
    })
}

/// JSON document for `/api/gpus`: every node's devices in node order,
/// each device's SMI view merged with the leases the reservation layer
/// holds on it — the two sources whose divergence is exactly the
/// observe→dispatch race the lease table closes.
fn gpus_json(nodes: &[Node]) -> String {
    let objects: Vec<String> = nodes.iter().flat_map(gpu_objects).collect();
    format!("{{\"gpus\":[{}]}}", objects.join(","))
}

/// Every active lease of every node, in node order.
fn all_leases(nodes: &[Node]) -> Vec<Lease> {
    nodes.iter().flat_map(|n| n.table.all_leases()).collect()
}

/// One job's `/api/jobs` JSON object: lifecycle snapshot plus the leases
/// it currently holds.
fn job_object(snap: &JobSnapshot, leases: &[Lease]) -> String {
    let held: Vec<String> =
        leases.iter().filter(|l| l.holder == snap.job_id).map(lease_json).collect();
    format!(
        "{{\"id\":{},\"user\":\"{}\",\"tool\":\"{}\",\"state\":\"{}\",\"attempts\":{},\
         \"destination\":{},\"node\":{},\"priority\":{},\"submitted_at\":{},\"finished_at\":{},\
         \"leases\":[{}]}}",
        snap.job_id,
        json_escape(&snap.user),
        json_escape(&snap.tool),
        snap.state.as_str(),
        snap.attempts,
        snap.destination
            .as_deref()
            .map_or("null".to_string(), |d| format!("\"{}\"", json_escape(d))),
        snap.node.as_deref().map_or("null".to_string(), |n| format!("\"{}\"", json_escape(n))),
        snap.priority,
        num(snap.submitted_at),
        snap.finished_at.map_or("null".to_string(), num),
        held.join(","),
    )
}

/// JSON document for `/api/jobs`: every job the queue engine has seen, in
/// id order, each with its lifecycle state, attempt count, destination,
/// and any leases it still holds on any node.
fn jobs_json(ledger: &JobsLedger, nodes: &[Node]) -> String {
    let leases = all_leases(nodes);
    let jobs: Vec<String> = ledger.all().iter().map(|s| job_object(s, &leases)).collect();
    format!("{{\"jobs\":[{}]}}", jobs.join(","))
}

/// JSON document for `/api/jobs/<id>`, or `None` when the ledger has
/// never seen that job id.
fn job_json(ledger: &JobsLedger, nodes: &[Node], job_id: u64) -> Option<String> {
    ledger.get(job_id).map(|snap| job_object(&snap, &all_leases(nodes)))
}

/// The stock SLO rule set for a GYAN deployment, single node or fleet:
/// `leases` is the node's [`LeaseTable`] or the fleet. Thresholds are
/// tuned for the simulated workloads in this repo; operators tune them
/// per site. In evaluation (and `/api/alerts`) order:
///
/// * `queue-wait-p99` — tail scheduling latency from the queue-wait
///   histogram (p99 > 30 virtual seconds, held 5 s before firing);
/// * `gpu-conflict-rate` — lease-redirected allocations per second over a
///   10 s window (sustained conflicts mean the wave size outruns the
///   GPUs);
/// * `job-failure-burn` / `resubmission-burn` — terminal failures and
///   retries per second over 30 s;
/// * `lease-oversubscription` — more than one lease on a single device
///   (shared placements are legal, but a persistent pile-up is the
///   paper's Case-4 contention signature), firing immediately.
pub fn default_alert_rules(leases: &impl LeaseView) -> Vec<AlertRule> {
    let leases = leases.clone();
    let rate =
        |name: &str, window_s: f64| AlertExpr::CounterRate { name: name.to_string(), window_s };
    vec![
        AlertRule::new(
            "queue-wait-p99",
            AlertExpr::HistogramQuantile {
                name: galaxy::queue::QUEUE_WAIT_HISTOGRAM.to_string(),
                q: 0.99,
            },
            Compare::Gt,
            30.0,
        )
        .hold_for(5.0),
        AlertRule::new(
            "gpu-conflict-rate",
            rate(crate::reservations::RESERVATION_CONFLICTS_COUNTER, 10.0),
            Compare::Gt,
            0.5,
        )
        .hold_for(2.0),
        AlertRule::new(
            "job-failure-burn",
            rate(galaxy::scheduler::JOBS_FAILED_COUNTER, 30.0),
            Compare::Gt,
            0.2,
        )
        .hold_for(5.0),
        AlertRule::new(
            "resubmission-burn",
            rate(galaxy::queue::QUEUE_RESUBMITTED_COUNTER, 30.0),
            Compare::Gt,
            0.5,
        )
        .hold_for(5.0),
        AlertRule::new(
            "lease-oversubscription",
            AlertExpr::Custom(Arc::new(move || Some(leases.max_leases_per_device() as f64))),
            Compare::Gt,
            1.0,
        ),
    ]
}

/// Handler for `/api/profile`: the global hot-path profiler's current
/// aggregation. `?format=collapsed` serves inferno-ready collapsed-stack
/// text instead of the JSON summary; `?reset=1` clears the aggregation
/// (after rendering the response, so a reset scrape still shows what it
/// cleared).
pub fn profile_route() -> Handler {
    Arc::new(|req| {
        let profiler = obs::profile::global();
        let response = if req.query_param("format") == Some("collapsed") {
            Response::text(profiler.collapsed())
        } else {
            Response::json(profiler.summary_json())
        };
        if req.query_param("reset") == Some("1") {
            profiler.reset();
        }
        response
    })
}

/// Handler for `/api/bench`: the last recorded perf trajectory, read from
/// `path` (normally `BENCH_scheduler.json` at the repo root, written by
/// `gates scheduler` — schema, commit, the metric table with each
/// metric's kind, and the embedded allocation profile). 404 with a hint
/// when no trajectory exists yet.
pub fn bench_route(path: impl Into<PathBuf>) -> Handler {
    let path = path.into();
    Arc::new(move |_req| match std::fs::read_to_string(&path) {
        Ok(body) => Response::json(body),
        Err(_) => Response::not_found(&format!(
            "perf trajectory {} (record one with \
             `cargo run --release -p gyan-bench --bin gates scheduler`)",
            path.display()
        )),
    })
}

/// Build the operations-plane HTTP server over a running GYAN stack whose
/// GPUs are `nodes`: each a `(name, devices, lease table)` triple, in the
/// order `/api/gpus` lists them — `[(DEFAULT_NODE_NAME, &cluster, &table)]`
/// for the paper's single node.
///
/// The returned [`OpsServer`] is not yet listening — call
/// `.start("127.0.0.1:0")` to bind (port 0 picks an ephemeral port; the
/// handle reports the real one). All state is shared by handle clones, so
/// the server observes the live system, not a snapshot.
///
/// The `/api/gpus` devices carry their node's name, and the metrics
/// registry gains one `gyan_node_info{node="<name>"}` info gauge per node,
/// so scrapes stay distinguishable after aggregation.
pub fn ops_server(
    recorder: &Recorder,
    nodes: &[(&str, &GpuCluster, &LeaseTable)],
    ledger: &JobsLedger,
    alerts: &AlertEngine,
) -> OpsServer {
    let nodes: Arc<[Node]> = nodes
        .iter()
        .map(|&(name, cluster, table)| Node {
            name: name.to_string(),
            cluster: cluster.clone(),
            table: table.clone(),
        })
        .collect();
    for node in nodes.iter() {
        let gauge = format!("{NODE_INFO_GAUGE}{{node=\"{}\"}}", node.name);
        recorder.metrics().set_gauge(&gauge, 1.0);
    }
    let (alerts, flight) = (alerts.clone(), recorder.clone());
    let (gpus, ledger) = (nodes.clone(), ledger.clone());
    OpsServer::new()
        .serve_metrics(recorder.metrics())
        .route("/api/alerts", Arc::new(move |_req| Response::json(alerts.to_json())))
        .route(
            "/api/flightrec",
            Arc::new(move |_req| {
                Response::ok("application/jsonl", flight.flight_snapshot().to_jsonl())
            }),
        )
        .route("/api/profile", profile_route())
        .route("/api/gpus", Arc::new(move |_req| Response::json(gpus_json(&gpus))))
        .route(
            "/api/jobs",
            // `/api/jobs/<id>` too: 404 when the ledger knows no such job
            // or the id is not a number.
            Arc::new(move |req| match req.path.strip_prefix("/api/jobs/") {
                None => Response::json(jobs_json(&ledger, &nodes)),
                Some(rest) => match rest.parse::<u64>() {
                    Ok(id) => match job_json(&ledger, &nodes, id) {
                        Some(body) => Response::json(body),
                        None => Response::not_found(&format!("job {id}")),
                    },
                    Err(_) => Response::not_found("job id"),
                },
            }),
        )
        .route("/api/bench", bench_route("BENCH_scheduler.json"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::serve::http_get;

    fn stack() -> (Recorder, GpuCluster, LeaseTable, JobsLedger, AlertEngine) {
        let recorder = Recorder::new();
        let cluster = GpuCluster::k80_node();
        let table = LeaseTable::new();
        let ledger = JobsLedger::new();
        let alerts = AlertEngine::new(&recorder);
        (recorder, cluster, table, ledger, alerts)
    }

    fn node(name: &str, cluster: &GpuCluster, table: &LeaseTable) -> Node {
        Node { name: name.to_string(), cluster: cluster.clone(), table: table.clone() }
    }

    /// A K80 node and an A100 node, the way a fleet names its shards.
    fn two_nodes() -> [Node; 2] {
        let a100 = GpuCluster::node(gpusim::GpuArch::a100(), 8);
        [
            node("k80-000", &GpuCluster::k80_node(), &LeaseTable::new()),
            node("a100-001", &a100, &LeaseTable::new()),
        ]
    }

    #[test]
    fn gpus_json_merges_smi_state_with_leases() {
        let (_recorder, cluster, table, _ledger, _alerts) = stack();
        table.allocate_and_lease(&cluster, &[0], crate::AllocationPolicy::ProcessId, 7, 100, None);

        let doc = obs::json::parse(&gpus_json(&[node("k80-007", &cluster, &table)]))
            .expect("gpus json parses");
        let gpus = doc.get("gpus").and_then(|v| v.as_array()).expect("gpus array");
        assert_eq!(gpus.len(), 2);
        let dev0 = &gpus[0];
        assert_eq!(dev0.get("node").and_then(|v| v.as_str()), Some("k80-007"));
        assert_eq!(gpus[1].get("node").and_then(|v| v.as_str()), Some("k80-007"));
        assert_eq!(dev0.get("minor").and_then(|v| v.as_f64()), Some(0.0));
        assert!(dev0.get("fb_total_mib").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let leases = dev0.get("leases").and_then(|v| v.as_array()).expect("leases array");
        assert_eq!(leases.len(), 1);
        assert_eq!(leases[0].get("holder").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(leases[0].get("exclusive").and_then(|v| v.as_bool()), Some(true));
        // Device 1 carries no lease.
        let dev1_leases = gpus[1].get("leases").and_then(|v| v.as_array()).unwrap();
        assert!(dev1_leases.is_empty());
    }

    #[test]
    fn jobs_json_lists_ledger_snapshots_with_their_leases() {
        let (_recorder, cluster, table, ledger, _alerts) = stack();
        ledger.upsert(JobSnapshot {
            job_id: 7,
            user: "ada".into(),
            tool: "racon_gpu".into(),
            state: galaxy::queue::SubmissionState::Queued,
            attempts: 1,
            destination: Some("local_gpu".into()),
            node: Some("k80-000".into()),
            priority: 1,
            submitted_at: 0.5,
            finished_at: None,
        });
        table.allocate_and_lease(&cluster, &[0], crate::AllocationPolicy::ProcessId, 7, 64, None);

        let nodes = [node(DEFAULT_NODE_NAME, &cluster, &table)];
        let doc = obs::json::parse(&jobs_json(&ledger, &nodes)).expect("jobs json parses");
        let jobs = doc.get("jobs").and_then(|v| v.as_array()).expect("jobs array");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].get("state").and_then(|v| v.as_str()), Some("queued"));
        assert_eq!(jobs[0].get("destination").and_then(|v| v.as_str()), Some("local_gpu"));
        assert_eq!(jobs[0].get("node").and_then(|v| v.as_str()), Some("k80-000"));
        assert_eq!(jobs[0].get("finished_at"), Some(&obs::json::JsonValue::Null));
        let leases = jobs[0].get("leases").and_then(|v| v.as_array()).unwrap();
        assert_eq!(leases.len(), 1);
        assert_eq!(leases[0].get("device").and_then(|v| v.as_f64()), Some(0.0));

        assert!(job_json(&ledger, &nodes, 7).is_some());
        assert!(job_json(&ledger, &nodes, 99).is_none());
    }

    #[test]
    fn gpus_json_concatenates_all_shards_with_node_labels() {
        let nodes = two_nodes();
        let k80 = &nodes[0];
        k80.table.allocate_and_lease(
            &k80.cluster,
            &[0],
            crate::AllocationPolicy::ProcessId,
            1,
            256,
            None,
        );
        let doc = obs::json::parse(&gpus_json(&nodes)).expect("parses");
        let gpus = doc.get("gpus").and_then(|v| v.as_array()).expect("gpus");
        // 2 K80 dies + 8 A100 dies, in node order.
        assert_eq!(gpus.len(), 10);
        let names: Vec<&str> =
            gpus.iter().filter_map(|g| g.get("node").and_then(|v| v.as_str())).collect();
        assert_eq!(names[..2], ["k80-000"; 2]);
        assert_eq!(names[2..], ["a100-001"; 8]);
        // Job 1's lease shows on a k80-000 device only.
        let leased: Vec<&str> = gpus
            .iter()
            .filter(|g| {
                g.get("leases").and_then(|v| v.as_array()).map(|l| !l.is_empty()).unwrap_or(false)
            })
            .filter_map(|g| g.get("node").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(leased, vec!["k80-000"]);
    }

    #[test]
    fn jobs_json_joins_leases_across_shards() {
        let nodes = two_nodes();
        let a100 = &nodes[1];
        a100.table.allocate_and_lease(
            &a100.cluster,
            &[3],
            crate::AllocationPolicy::ProcessId,
            7,
            256,
            None,
        );
        let ledger = JobsLedger::new();
        ledger.upsert(JobSnapshot {
            job_id: 7,
            user: "ada".into(),
            tool: "racon_gpu".into(),
            state: galaxy::queue::SubmissionState::Queued,
            attempts: 1,
            destination: Some("local_gpu".into()),
            node: Some("a100-001".into()),
            priority: 1,
            submitted_at: 0.0,
            finished_at: None,
        });
        let doc = obs::json::parse(&jobs_json(&ledger, &nodes)).expect("parses");
        let jobs = doc.get("jobs").and_then(|v| v.as_array()).expect("jobs");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].get("node").and_then(|v| v.as_str()), Some("a100-001"));
        let leases = jobs[0].get("leases").and_then(|v| v.as_array()).expect("leases");
        assert_eq!(leases.len(), 1);
        assert_eq!(leases[0].get("device").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(
            job_json(&ledger, &nodes, 7).map(|one| one.contains("\"device\":3")),
            Some(true)
        );
    }

    #[test]
    fn default_rules_are_pinned_and_contain_the_galaxy_rules_in_order() {
        let (recorder, _cluster, table, _ledger, _alerts) = stack();
        // Name, expression (with window), comparison, threshold and hold
        // of every stock rule, in evaluation order.
        let pinned: Vec<String> =
            default_alert_rules(&table).iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(
            pinned,
            [
                "AlertRule { name: \"queue-wait-p99\", expr: HistogramQuantile(galaxy_queue_wait_seconds, q=0.99), cmp: Gt, threshold: 30.0, for_s: 5.0 }",
                "AlertRule { name: \"gpu-conflict-rate\", expr: CounterRate(gyan_reservation_conflicts_total, 10s), cmp: Gt, threshold: 0.5, for_s: 2.0 }",
                "AlertRule { name: \"job-failure-burn\", expr: CounterRate(galaxy_pool_jobs_failed_total, 30s), cmp: Gt, threshold: 0.2, for_s: 5.0 }",
                "AlertRule { name: \"resubmission-burn\", expr: CounterRate(galaxy_queue_resubmitted_total, 30s), cmp: Gt, threshold: 0.5, for_s: 5.0 }",
                "AlertRule { name: \"lease-oversubscription\", expr: Custom(..), cmp: Gt, threshold: 1.0, for_s: 0.0 }",
            ]
        );

        let alerts = AlertEngine::new(&recorder);
        for rule in default_alert_rules(&table) {
            alerts.add_rule(rule);
        }
        alerts.evaluate();
        assert!(alerts.firing().is_empty());
        assert_eq!(
            alerts.to_json(),
            "{\"alerts\":[\
             {\"rule\":\"queue-wait-p99\",\"state\":\"inactive\",\"value\":null,\"threshold\":30.0,\"since\":0.0,\"fired\":0},\
             {\"rule\":\"gpu-conflict-rate\",\"state\":\"inactive\",\"value\":null,\"threshold\":0.5,\"since\":0.0,\"fired\":0},\
             {\"rule\":\"job-failure-burn\",\"state\":\"inactive\",\"value\":null,\"threshold\":0.2,\"since\":0.0,\"fired\":0},\
             {\"rule\":\"resubmission-burn\",\"state\":\"inactive\",\"value\":null,\"threshold\":0.5,\"since\":0.0,\"fired\":0},\
             {\"rule\":\"lease-oversubscription\",\"state\":\"inactive\",\"value\":0.0,\"threshold\":1.0,\"since\":0.0,\"fired\":0}]}"
        );
    }

    #[test]
    fn ops_server_serves_every_endpoint() {
        let (recorder, cluster, table, ledger, alerts) = stack();
        recorder.metrics().inc_counter("demo_total", 3);
        alerts.add_rule(AlertRule::new(
            "demo",
            AlertExpr::Gauge("missing".to_string()),
            Compare::Gt,
            1.0,
        ));
        let server =
            ops_server(&recorder, &[(DEFAULT_NODE_NAME, &cluster, &table)], &ledger, &alerts);
        let handle = server.start("127.0.0.1:0").expect("bind");
        let addr = handle.addr();

        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("demo_total 3"));
        assert!(
            body.contains("gyan_node_info{node=\"node-000\"} 1"),
            "metrics must carry the node label: {body}"
        );

        let (status, body) = http_get(addr, "/api/gpus").unwrap();
        assert_eq!(status, 200);
        assert!(obs::json::parse(&body).is_ok());
        assert!(body.contains("\"node\":\"node-000\""), "{body}");

        let (status, body) = http_get(addr, "/api/jobs").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"jobs\":[]"));
        let (status, _) = http_get(addr, "/api/jobs/42").unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(addr, "/api/jobs/not-a-number").unwrap();
        assert_eq!(status, 404);

        let (status, body) = http_get(addr, "/api/alerts").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"rule\":\"demo\""));

        let (status, body) = http_get(addr, "/api/flightrec").unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"type\":\"flightrec\""));

        let (status, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"http_pool\""), "{body}");

        handle.shutdown();
    }

    #[test]
    fn profile_route_serves_scopes_collapsed_text_and_reset() {
        let (recorder, cluster, table, ledger, alerts) = stack();
        let handle =
            ops_server(&recorder, &[(DEFAULT_NODE_NAME, &cluster, &table)], &ledger, &alerts)
                .start("127.0.0.1:0")
                .expect("bind");
        let addr = handle.addr();

        let profiler = obs::profile::global();
        profiler.enable();
        {
            let _outer = profiler.scope("ops.test.outer");
            let _inner = profiler.scope("ops.test.inner");
        }

        let (status, body) = http_get(addr, "/api/profile").unwrap();
        assert_eq!(status, 200);
        let doc = obs::json::parse(&body).expect("profile json parses");
        let paths: Vec<&str> = doc
            .get("scopes")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .filter_map(|s| s.get("path").and_then(|p| p.as_str()))
            .collect();
        assert!(paths.contains(&"ops.test.outer"), "{paths:?}");
        assert!(paths.contains(&"ops.test.outer;ops.test.inner"), "{paths:?}");

        let (status, body) = http_get(addr, "/api/profile?format=collapsed").unwrap();
        assert_eq!(status, 200);
        assert!(body.lines().any(|l| l.starts_with("ops.test.outer;ops.test.inner ")), "{body}");

        // Reset clears the aggregation; the resetting scrape itself still
        // reports the pre-reset view.
        let (status, body) = http_get(addr, "/api/profile?reset=1").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("ops.test.outer"));
        let (_, body) = http_get(addr, "/api/profile").unwrap();
        assert!(!body.contains("ops.test.outer"), "{body}");

        profiler.disable();
        handle.shutdown();
    }

    #[test]
    fn bench_route_serves_the_trajectory_file_or_404() {
        let dir = std::env::temp_dir().join(format!("gyan-bench-route-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_scheduler.json");
        let server = OpsServer::new().route("/api/bench", bench_route(&path));
        let handle = server.start("127.0.0.1:0").expect("bind");

        let (status, body) = http_get(handle.addr(), "/api/bench").unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("perf trajectory"), "{body}");

        std::fs::write(&path, "{\"schema\":\"gyan.bench.scheduler/v2\"}").unwrap();
        let (status, body) = http_get(handle.addr(), "/api/bench").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            obs::json::parse(&body).unwrap().get("schema").and_then(|v| v.as_str()),
            Some("gyan.bench.scheduler/v2")
        );

        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
