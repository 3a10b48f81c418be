//! Fleet-level operations plane: node-labeled GPU/job views over all
//! shards, served through the same embedded `obs::serve` stack as the
//! single-node `gyan::ops::ops_server`.
//!
//! | endpoint         | content                                            |
//! |------------------|----------------------------------------------------|
//! | `/metrics`       | recorder registry incl. `fleet_*{node=...}` series |
//! | `/api/gpus`      | every shard's devices, each `"node"`-labeled       |
//! | `/api/nodes`     | per-node summaries (class, devices, leases, free)  |
//! | `/api/jobs`      | ledger snapshots joined with leases across shards  |
//! | `/api/alerts`    | SLO alert-rule states                              |
//! | `/api/flightrec` | flight-recorder JSONL dump                         |
//! | `/api/profile`   | hot-path profiler aggregation                      |

use crate::fleet::Fleet;
use galaxy::queue::JobsLedger;
use gyan::reservations::Lease;
use obs::json_escape;
use obs::serve::{OpsServer, Response};
use obs::slo::AlertEngine;
use obs::Recorder;
use std::sync::Arc;

/// JSON document for the fleet's `/api/gpus`: the shards' device lists
/// concatenated in node-id order, every device carrying its node's name.
pub fn fleet_gpus_json(fleet: &Fleet) -> String {
    let objects: Vec<String> = fleet
        .shards()
        .iter()
        .flat_map(|s| gyan::ops::gpu_objects(&s.cluster, &s.table, &s.name))
        .collect();
    format!("{{\"gpus\":[{}]}}", objects.join(","))
}

/// JSON document for `/api/nodes`: one summary object per shard, its
/// load the one placement scores ([`Fleet::loads`]).
pub fn fleet_nodes_json(fleet: &Fleet) -> String {
    let nodes: Vec<String> = fleet
        .shards()
        .iter()
        .zip(fleet.loads(None))
        .map(|(s, load)| {
            format!(
                "{{\"node\":\"{}\",\"class\":\"{}\",\"arch\":\"{}\",\"status\":\"{}\",\
                 \"cordoned\":{},\"devices\":{},\
                 \"active_leases\":{},\"free_devices\":{},\"pending_mem_mib\":{}}}",
                json_escape(&s.name),
                json_escape(s.class.name),
                json_escape(s.class.arch.name),
                s.status().as_str(),
                !s.is_placeable(),
                load.device_count,
                load.active_leases,
                load.free_devices,
                load.pending_mem_mib,
            )
        })
        .collect();
    format!("{{\"policy\":\"{}\",\"nodes\":[{}]}}", fleet.policy_name(), nodes.join(","))
}

/// All leases across all shards (the fleet-wide join key for the job
/// view).
fn fleet_leases(fleet: &Fleet) -> Vec<Lease> {
    fleet.shards().iter().flat_map(|s| s.table.all_leases()).collect()
}

/// JSON document for the fleet's `/api/jobs`: every ledger snapshot in
/// id order, joined with the leases it holds on *any* shard. Reuses
/// [`gyan::ops::job_object`] so the schema matches the single-node plane.
pub fn fleet_jobs_json(fleet: &Fleet, ledger: &JobsLedger) -> String {
    let leases = fleet_leases(fleet);
    let jobs: Vec<String> =
        ledger.all().iter().map(|s| gyan::ops::job_object(s, &leases)).collect();
    format!("{{\"jobs\":[{}]}}", jobs.join(","))
}

/// Build the fleet operations server: [`gyan::ops::ops_base`] plus the
/// fleet's node-labeled views. Like `gyan::ops::ops_server` the returned
/// server is not yet listening — call `.start("127.0.0.1:0")`. All routes
/// observe the live fleet through handle clones.
pub fn fleet_ops_server(
    recorder: &Recorder,
    fleet: &Fleet,
    ledger: &JobsLedger,
    alerts: &AlertEngine,
) -> OpsServer {
    let gpus_fleet = fleet.clone();
    let nodes_fleet = fleet.clone();
    let jobs = (fleet.clone(), ledger.clone());
    let job = jobs.clone();
    gyan::ops::ops_base(recorder, alerts)
        .route("/api/gpus", Arc::new(move |_req| Response::json(fleet_gpus_json(&gpus_fleet))))
        .route("/api/nodes", Arc::new(move |_req| Response::json(fleet_nodes_json(&nodes_fleet))))
        .route(
            "/api/jobs",
            gyan::ops::jobs_route(
                move || fleet_jobs_json(&jobs.0, &jobs.1),
                move |id| {
                    job.1.get(id).map(|snap| gyan::ops::job_object(&snap, &fleet_leases(&job.0)))
                },
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeClass;
    use crate::placement::PlacementRequest;
    use galaxy::queue::{JobSnapshot, SubmissionState};
    use obs::serve::http_get;

    fn small_fleet() -> Fleet {
        Fleet::builder()
            .nodes(NodeClass::k80(), 1)
            .nodes(NodeClass::a100(), 1)
            .recorder(Recorder::new())
            .build()
    }

    fn place(fleet: &Fleet, job_id: u64) {
        fleet
            .place(&PlacementRequest {
                job_id,
                user: "ada",
                tool_id: "racon_gpu",
                // Pin one minor: an empty request takes every free die.
                requested: &[0],
                memory_hint_mib: 256,
                excluded_nodes: &[],
            })
            .expect("fleet places");
    }

    #[test]
    fn gpus_json_concatenates_all_shards_with_node_labels() {
        let fleet = small_fleet();
        place(&fleet, 1);
        let doc = obs::json::parse(&fleet_gpus_json(&fleet)).expect("parses");
        let gpus = doc.get("gpus").and_then(|v| v.as_array()).expect("gpus");
        // 2 K80 dies + 8 A100 dies.
        assert_eq!(gpus.len(), 10);
        let nodes: Vec<&str> =
            gpus.iter().filter_map(|g| g.get("node").and_then(|v| v.as_str())).collect();
        assert_eq!(nodes.iter().filter(|n| **n == "k80-000").count(), 2);
        assert_eq!(nodes.iter().filter(|n| **n == "a100-001").count(), 8);
        // Job 1 landed on the k80 (tie → lowest node id): its lease shows
        // on a k80-000 device.
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
    fn nodes_json_summarizes_every_shard() {
        let fleet = small_fleet();
        place(&fleet, 1);
        let doc = obs::json::parse(&fleet_nodes_json(&fleet)).expect("parses");
        assert_eq!(doc.get("policy").and_then(|v| v.as_str()), Some("least_loaded"));
        let nodes = doc.get("nodes").and_then(|v| v.as_array()).expect("nodes");
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].get("node").and_then(|v| v.as_str()), Some("k80-000"));
        assert_eq!(nodes[0].get("active_leases").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(nodes[1].get("class").and_then(|v| v.as_str()), Some("a100"));
        assert_eq!(nodes[1].get("free_devices").and_then(|v| v.as_f64()), Some(8.0));
        assert_eq!(nodes[0].get("status").and_then(|v| v.as_str()), Some("ready"));
        assert_eq!(nodes[0].get("cordoned").and_then(|v| v.as_bool()), Some(false));
        // Cordon state flows straight into the view.
        fleet.drain("k80-000");
        let doc = obs::json::parse(&fleet_nodes_json(&fleet)).expect("parses");
        let nodes = doc.get("nodes").and_then(|v| v.as_array()).expect("nodes");
        assert_eq!(nodes[0].get("status").and_then(|v| v.as_str()), Some("cordoned"));
        assert_eq!(nodes[0].get("cordoned").and_then(|v| v.as_bool()), Some(true));
    }

    #[test]
    fn jobs_json_joins_leases_across_shards() {
        let fleet = small_fleet();
        place(&fleet, 7);
        let ledger = JobsLedger::new();
        ledger.upsert(JobSnapshot {
            job_id: 7,
            user: "ada".to_string(),
            tool: "racon_gpu".to_string(),
            state: SubmissionState::Queued,
            attempts: 1,
            destination: Some("fleet_gpu".to_string()),
            node: Some("k80-000".to_string()),
            priority: 1,
            submitted_at: 0.0,
            finished_at: None,
        });
        let doc = obs::json::parse(&fleet_jobs_json(&fleet, &ledger)).expect("parses");
        let jobs = doc.get("jobs").and_then(|v| v.as_array()).expect("jobs");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].get("node").and_then(|v| v.as_str()), Some("k80-000"));
        let leases = jobs[0].get("leases").and_then(|v| v.as_array()).expect("leases");
        assert!(!leases.is_empty());
    }

    #[test]
    fn fleet_ops_server_serves_labeled_views() {
        let recorder = Recorder::new();
        let fleet = Fleet::builder()
            .nodes(NodeClass::k80(), 1)
            .nodes(NodeClass::v100(), 1)
            .recorder(recorder.clone())
            .build();
        place(&fleet, 1);
        let ledger = JobsLedger::new();
        let alerts = AlertEngine::new(&recorder);
        let handle = fleet_ops_server(&recorder, &fleet, &ledger, &alerts)
            .start("127.0.0.1:0")
            .expect("bind");
        let addr = handle.addr();

        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("fleet_placements_total{node=\"k80-000\"} 1"),
            "per-node placement counter missing: {body}"
        );
        assert!(body.contains("fleet_leases_active{node=\"k80-000\"} 1"), "{body}");

        let (status, body) = http_get(addr, "/api/gpus").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"node\":\"k80-000\""));
        assert!(body.contains("\"node\":\"v100-001\""));

        let (status, body) = http_get(addr, "/api/nodes").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"class\":\"v100\""));

        let (status, body) = http_get(addr, "/api/jobs").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"jobs\":[]"));
        let (status, _) = http_get(addr, "/api/jobs/9").unwrap();
        assert_eq!(status, 404);

        let (status, _) = http_get(addr, "/api/alerts").unwrap();
        assert_eq!(status, 200);

        handle.shutdown();
    }
}
