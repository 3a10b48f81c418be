//! Fleet-level operations plane: `gyan::ops::ops_server` over the
//! fleet's shards, plus the one view only a fleet has.
//!
//! `gyan::ops::ops_server` serves `/metrics`, `/api/gpus`, `/api/jobs`,
//! `/api/alerts`, `/api/flightrec`, `/api/profile` and `/api/bench` over
//! a list of named nodes; here that list is the shards, in node-id order.
//! The fleet adds:
//!
//! | endpoint     | content                                                   |
//! |--------------|-----------------------------------------------------------|
//! | `/api/nodes` | placement policy, per-node class, cordon status and load  |

use crate::fleet::Fleet;
use galaxy::queue::JobsLedger;
use obs::json_escape;
use obs::serve::{OpsServer, Response};
use obs::slo::AlertEngine;
use obs::Recorder;
use std::sync::Arc;

/// JSON document for `/api/nodes`: one summary object per shard, its
/// load the one placement scores ([`Fleet::loads`]).
fn nodes_json(fleet: &Fleet) -> String {
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

/// Build the fleet operations server: `gyan::ops::ops_server` over the
/// shards plus `/api/nodes`. Not yet listening — call
/// `.start("127.0.0.1:0")`. All routes observe the live fleet through
/// handle clones.
pub fn fleet_ops_server(
    recorder: &Recorder,
    fleet: &Fleet,
    ledger: &JobsLedger,
    alerts: &AlertEngine,
) -> OpsServer {
    let nodes: Vec<_> =
        fleet.shards().iter().map(|s| (s.name.as_str(), &s.cluster, &s.table)).collect();
    let fleet = fleet.clone();
    gyan::ops::ops_server(recorder, &nodes, ledger, alerts)
        .route("/api/nodes", Arc::new(move |_req| Response::json(nodes_json(&fleet))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeClass;
    use crate::placement::PlacementRequest;
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
    fn nodes_json_summarizes_every_shard() {
        let fleet = small_fleet();
        place(&fleet, 1);
        let doc = obs::json::parse(&nodes_json(&fleet)).expect("parses");
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
        let doc = obs::json::parse(&nodes_json(&fleet)).expect("parses");
        let nodes = doc.get("nodes").and_then(|v| v.as_array()).expect("nodes");
        assert_eq!(nodes[0].get("status").and_then(|v| v.as_str()), Some("cordoned"));
        assert_eq!(nodes[0].get("cordoned").and_then(|v| v.as_bool()), Some(true));
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
        for node in ["k80-000", "v100-001"] {
            assert!(body.contains(&format!("gyan_node_info{{node=\"{node}\"}} 1")), "{body}");
        }

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
