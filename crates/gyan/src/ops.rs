//! The live operations plane: wiring GYAN's runtime state into the
//! embedded introspection server (`obs::serve`).
//!
//! One call to [`ops_server`] produces an [`obs::serve::OpsServer`] whose
//! routes expose the whole observe→map→dispatch stack:
//!
//! | endpoint           | content                                          |
//! |--------------------|--------------------------------------------------|
//! | `/metrics`         | Prometheus scrape of the recorder's registry     |
//! | `/healthz`         | liveness + HTTP pool saturation                  |
//! | `/api/gpus`        | merged SMI device state + active leases          |
//! | `/api/jobs`        | job lifecycle snapshots from the queue ledger    |
//! | `/api/jobs/<id>`   | one job, with the leases it currently holds      |
//! | `/api/alerts`      | SLO alert-rule states from the [`AlertEngine`]   |
//! | `/api/flightrec`   | flight-recorder JSONL dump (the log's tail)      |
//! | `/api/profile`     | hot-path profiler aggregation (`?format=collapsed` for flamegraph text, `?reset=1` to clear) |
//! | `/api/bench`       | last recorded perf trajectory (`BENCH_scheduler.json`) |
//!
//! Learned footprint profiles are served on `/metrics` as the
//! `gyan_footprint_*` gauges each conclusion that teaches one exports
//! ([`crate::footprint::FootprintRegistry::conclude`]).
//!
//! [`default_alert_rules`] builds the stock SLO rule set the paper's
//! operators would watch: queue-wait p99, GPU allocation-conflict rate,
//! failure/resubmission burn rates, and lease-table oversubscription.
//!
//! [`AlertEngine`]: obs::slo::AlertEngine

use crate::reservations::{Lease, LeaseTable};
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

/// Info-style gauge (value always 1) carrying the serving node's label,
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

/// Per-device JSON objects for one node's `/api/gpus` entries, each
/// carrying the `node` label. Exposed so a fleet-level ops server can
/// concatenate the shards' device lists into one labeled view.
pub fn gpu_objects(cluster: &GpuCluster, table: &LeaseTable, node: &str) -> Vec<String> {
    cluster
        .snapshot()
        .iter()
        .map(|dev| {
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
                table.leases_on(dev.minor_number).iter().map(lease_json).collect();
            format!(
                "{{\"node\":\"{}\",\"minor\":{},\"arch\":\"{}\",\"uuid\":\"{}\",\
                 \"fb_total_mib\":{},\
                 \"fb_used_mib\":{},\"fb_free_mib\":{},\"sm_utilization\":{},\
                 \"mem_utilization\":{},\"pcie_link_gen\":{},\"available\":{},\
                 \"processes\":[{}],\"leases\":[{}]}}",
                json_escape(node),
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
        .collect()
}

/// JSON document for `/api/gpus`: every device's SMI view merged with the
/// leases the reservation layer holds on it — the two sources whose
/// divergence is exactly the observe→dispatch race the lease table closes.
/// Each device carries the serving `node` label.
pub fn gpus_json(cluster: &GpuCluster, table: &LeaseTable, node: &str) -> String {
    format!("{{\"gpus\":[{}]}}", gpu_objects(cluster, table, node).join(","))
}

/// One job's `/api/jobs` JSON object: lifecycle snapshot plus the leases
/// it currently holds. Public so the fleet ops plane can reuse the exact
/// schema while joining leases across shards.
pub fn job_object(snap: &JobSnapshot, leases: &[Lease]) -> String {
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
/// and any leases it still holds.
pub fn jobs_json(ledger: &JobsLedger, table: &LeaseTable) -> String {
    let leases = table.all_leases();
    let jobs: Vec<String> = ledger.all().iter().map(|s| job_object(s, &leases)).collect();
    format!("{{\"jobs\":[{}]}}", jobs.join(","))
}

/// JSON document for `/api/jobs/<id>`, or `None` when the ledger has
/// never seen that job id.
pub fn job_json(ledger: &JobsLedger, table: &LeaseTable, job_id: u64) -> Option<String> {
    ledger.get(job_id).map(|snap| job_object(&snap, &table.all_leases()))
}

/// The table-free half of the stock SLO rule set: the three rules that
/// read only Galaxy-level metrics, so every topology (single node or
/// fleet) arms them from this one definition.
///
/// * `queue-wait-p99` — tail scheduling latency from the queue-wait
///   histogram (p99 > 30 virtual seconds, held 5 s before firing);
/// * `job-failure-burn` / `resubmission-burn` — terminal failures and
///   retries per second over 30 s.
pub fn galaxy_alert_rules() -> Vec<AlertRule> {
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
            "job-failure-burn",
            AlertExpr::CounterRate {
                name: galaxy::scheduler::JOBS_FAILED_COUNTER.to_string(),
                window_s: 30.0,
            },
            Compare::Gt,
            0.2,
        )
        .hold_for(5.0),
        AlertRule::new(
            "resubmission-burn",
            AlertExpr::CounterRate {
                name: galaxy::queue::QUEUE_RESUBMITTED_COUNTER.to_string(),
                window_s: 30.0,
            },
            Compare::Gt,
            0.5,
        )
        .hold_for(5.0),
    ]
}

/// The stock SLO rule set for a GYAN deployment: [`galaxy_alert_rules`]
/// plus the two rules that read the lease table. Thresholds are tuned
/// for the simulated workloads in this repo; operators tune them per
/// site.
///
/// * `gpu-conflict-rate` — lease-redirected allocations per second over a
///   10 s window (sustained conflicts mean the wave size outruns the
///   cluster);
/// * `lease-oversubscription` — more than one lease on a single device
///   (shared placements are legal, but a persistent pile-up is the
///   paper's Case-4 contention signature), firing immediately.
pub fn default_alert_rules(table: &LeaseTable) -> Vec<AlertRule> {
    let t = table.clone();
    let mut rules = galaxy_alert_rules();
    // Evaluation (and `/api/alerts`) order is part of the surface:
    // the conflict rate sits right after the queue-wait rule.
    rules.insert(
        1,
        AlertRule::new(
            "gpu-conflict-rate",
            AlertExpr::CounterRate {
                name: crate::reservations::RESERVATION_CONFLICTS_COUNTER.to_string(),
                window_s: 10.0,
            },
            Compare::Gt,
            0.5,
        )
        .hold_for(2.0),
    );
    rules.push(AlertRule::new(
        "lease-oversubscription",
        AlertExpr::Custom(Arc::new(move || Some(t.max_leases_per_device() as f64))),
        Compare::Gt,
        1.0,
    ));
    rules
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

/// The routes every operations plane serves, whatever sits under it:
/// `/metrics`, `/api/alerts`, `/api/flightrec` and `/api/profile`. A
/// deployment adds its own device and job views on top — [`ops_server`]
/// for one node, `fleet::fleet_ops_server` for many.
pub fn ops_base(recorder: &Recorder, alerts: &AlertEngine) -> OpsServer {
    let alerts = alerts.clone();
    let flight = recorder.clone();
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
}

/// Handler for `/api/jobs` (the `list` document) and `/api/jobs/<id>`
/// (`one`'s document; 404 when it knows no such job or the id is not a
/// number).
pub fn jobs_route(
    list: impl Fn() -> String + Send + Sync + 'static,
    one: impl Fn(u64) -> Option<String> + Send + Sync + 'static,
) -> Handler {
    Arc::new(move |req| match req.path.strip_prefix("/api/jobs/") {
        None => Response::json(list()),
        Some(rest) => match rest.parse::<u64>() {
            Ok(id) => match one(id) {
                Some(body) => Response::json(body),
                None => Response::not_found(&format!("job {id}")),
            },
            Err(_) => Response::not_found("job id"),
        },
    })
}

/// Build the operations-plane HTTP server over a running GYAN stack.
///
/// The returned [`OpsServer`] is not yet listening — call
/// `.start("127.0.0.1:0")` to bind (port 0 picks an ephemeral port; the
/// handle reports the real one). All state is shared by handle clones, so
/// the server observes the live system, not a snapshot.
///
/// The node is labeled [`DEFAULT_NODE_NAME`]: the `/api/gpus` devices
/// carry `"node":"node-000"` and the metrics registry gains the
/// `gyan_node_info{node="node-000"}` info gauge, so this node's scrapes
/// stay distinguishable from a fleet's after aggregation.
pub fn ops_server(
    recorder: &Recorder,
    cluster: &GpuCluster,
    table: &LeaseTable,
    ledger: &JobsLedger,
    alerts: &AlertEngine,
) -> OpsServer {
    recorder
        .metrics()
        .set_gauge(&format!("{NODE_INFO_GAUGE}{{node=\"{DEFAULT_NODE_NAME}\"}}"), 1.0);
    let gpus = (cluster.clone(), table.clone());
    let jobs = (ledger.clone(), table.clone());
    let job = jobs.clone();
    ops_base(recorder, alerts)
        .route(
            "/api/gpus",
            Arc::new(move |_req| Response::json(gpus_json(&gpus.0, &gpus.1, DEFAULT_NODE_NAME))),
        )
        .route(
            "/api/jobs",
            jobs_route(move || jobs_json(&jobs.0, &jobs.1), move |id| job_json(&job.0, &job.1, id)),
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

    #[test]
    fn gpus_json_merges_smi_state_with_leases() {
        let (_recorder, cluster, table, _ledger, _alerts) = stack();
        table.allocate_and_lease(&cluster, &[0], crate::AllocationPolicy::ProcessId, 7, 100, None);

        let doc =
            obs::json::parse(&gpus_json(&cluster, &table, "k80-007")).expect("gpus json parses");
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
            user: "ada".to_string(),
            tool: "racon_gpu".to_string(),
            state: galaxy::queue::SubmissionState::Queued,
            attempts: 1,
            destination: Some("local_gpu".to_string()),
            node: Some("k80-000".to_string()),
            priority: 1,
            submitted_at: 0.5,
            finished_at: None,
        });
        table.allocate_and_lease(&cluster, &[0], crate::AllocationPolicy::ProcessId, 7, 64, None);

        let doc = obs::json::parse(&jobs_json(&ledger, &table)).expect("jobs json parses");
        let jobs = doc.get("jobs").and_then(|v| v.as_array()).expect("jobs array");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].get("state").and_then(|v| v.as_str()), Some("queued"));
        assert_eq!(jobs[0].get("destination").and_then(|v| v.as_str()), Some("local_gpu"));
        assert_eq!(jobs[0].get("node").and_then(|v| v.as_str()), Some("k80-000"));
        assert_eq!(jobs[0].get("finished_at"), Some(&obs::json::JsonValue::Null));
        let leases = jobs[0].get("leases").and_then(|v| v.as_array()).unwrap();
        assert_eq!(leases.len(), 1);
        assert_eq!(leases[0].get("device").and_then(|v| v.as_f64()), Some(0.0));

        assert!(job_json(&ledger, &table, 7).is_some());
        assert!(job_json(&ledger, &table, 99).is_none());
    }

    #[test]
    fn default_rules_are_pinned_and_contain_the_galaxy_rules_in_order() {
        let (recorder, _cluster, table, _ledger, _alerts) = stack();
        // Name, expression (with window), comparison, threshold and hold
        // of every stock rule, in evaluation order: composing the set
        // from `galaxy_alert_rules` must not move any of them.
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
        let galaxy: Vec<String> = galaxy_alert_rules().iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(galaxy, [pinned[0].as_str(), &pinned[2], &pinned[3]]);

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
        let server = ops_server(&recorder, &cluster, &table, &ledger, &alerts);
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
        let handle = ops_server(&recorder, &cluster, &table, &ledger, &alerts)
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
