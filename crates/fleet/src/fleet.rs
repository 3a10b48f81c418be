//! The [`Fleet`]: shard ownership, two-phase placement, and per-node
//! accounting.
//!
//! Placement is two-phase: the fleet filters candidate shards through
//! the destination rules (phase 1a), scores survivors with the
//! configured [`PlacementPolicy`] (phase 1b, ties broken by lowest node
//! id), and only then lets the chosen shard's
//! [`gyan::reservations::LeaseTable::allocate_and_lease`] pick the minor atomically (phase
//! 2). The fleet's own bookkeeping — the job→node map — is the state the
//! simtest invariants audit: every lease on shard S must belong to a job
//! the fleet booked on S, and no job may hold leases on two shards —
//! which is why placing a job that is already booked first releases that
//! booking as `superseded`.

use crate::node::{NodeClass, NodeShard, NodeStatus};
use crate::placement::{LeastLoaded, PlacementPolicy, PlacementRequest};
use crate::rules::DestinationRules;
use gpusim::VirtualClock;
use gyan::allocation::{Allocation, AllocationPolicy};
use obs::{Recorder, Value};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Counter: successful placements, labeled `{node="<name>"}`.
pub const FLEET_PLACEMENTS_COUNTER: &str = "fleet_placements_total";
/// Counter: requests no candidate node could host.
pub const FLEET_REJECTED_COUNTER: &str = "fleet_placement_rejected_total";
/// Gauge: active leases per node, labeled `{node="<name>"}`.
pub const FLEET_LEASES_GAUGE: &str = "fleet_leases_active";
/// Audit event emitted per placement decision.
pub const FLEET_DECISION_EVENT: &str = "fleet.placement.decision";
/// Audit event emitted per release.
pub const FLEET_RELEASE_EVENT: &str = "fleet.placement.release";
/// Gauge: 1 when a node is cordoned or dead, 0 when ready, labeled
/// `{node="<name>"}`.
pub const FLEET_CORDONED_GAUGE: &str = "fleet_node_cordoned";
/// Audit event emitted per node status transition (cordon, uncordon,
/// drain, fail).
pub const FLEET_NODE_EVENT: &str = "fleet.node.status";
/// Release reason recorded when a node dies with leases on it.
pub const NODE_LOST_REASON: &str = "node_lost";

/// A successful placement: the chosen node plus the shard-level grant.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The placed job.
    pub job_id: u64,
    /// Chosen node id.
    pub node: u32,
    /// Chosen node name (exported as `GALAXY_NODE`).
    pub node_name: String,
    /// Chosen node's class label.
    pub node_class: String,
    /// The minor-level grant from the shard's lease table.
    pub allocation: Allocation,
    /// Right-sized host cores (TPV-style).
    pub cores: u32,
    /// Right-sized host memory in MiB (TPV-style).
    pub mem_mib: u64,
}

/// Fleet-side record of an active placement.
#[derive(Debug, Clone)]
struct Booking {
    node: u32,
    user: String,
}

/// N per-node shards plus the placement layer above them. Clones share
/// state (shards, bookings, policy), so one handle can serve the
/// dispatch hook, the ops server, and the invariant checker at once.
#[derive(Clone)]
pub struct Fleet {
    shards: Arc<Vec<NodeShard>>,
    rules: Arc<DestinationRules>,
    policy: Arc<dyn PlacementPolicy>,
    alloc_policy: AllocationPolicy,
    bookings: Arc<Mutex<BTreeMap<u64, Booking>>>,
    clock: VirtualClock,
    recorder: Option<Recorder>,
}

/// Builder for [`Fleet`].
pub struct FleetBuilder {
    nodes: Vec<NodeClass>,
    rules: DestinationRules,
    policy: Arc<dyn PlacementPolicy>,
    alloc_policy: AllocationPolicy,
    clock: VirtualClock,
    recorder: Option<Recorder>,
}

impl FleetBuilder {
    /// Add `count` nodes of `class` (node ids assigned in call order).
    pub fn nodes(mut self, class: NodeClass, count: u32) -> Self {
        for _ in 0..count {
            self.nodes.push(class.clone());
        }
        self
    }

    /// Install TPV-style destination rules (default: none).
    pub fn rules(mut self, rules: DestinationRules) -> Self {
        self.rules = rules;
        self
    }

    /// Node-scoring strategy (default: [`LeastLoaded`]).
    pub fn policy(mut self, policy: Arc<dyn PlacementPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Minor-level allocation strategy within the chosen shard (default:
    /// [`AllocationPolicy::ProcessId`]).
    pub fn allocation_policy(mut self, policy: AllocationPolicy) -> Self {
        self.alloc_policy = policy;
        self
    }

    /// Drive all shards from `clock` instead of a fresh fleet clock.
    pub fn clock(mut self, clock: VirtualClock) -> Self {
        self.clock = clock;
        self
    }

    /// Emit decision audits and per-node metrics through `recorder`.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Materialize the shards and the fleet handle.
    pub fn build(self) -> Fleet {
        let shards: Vec<NodeShard> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(id, class)| NodeShard::new(id as u32, class, &self.clock))
            .collect();
        Fleet {
            shards: Arc::new(shards),
            rules: Arc::new(self.rules),
            policy: self.policy,
            alloc_policy: self.alloc_policy,
            bookings: Arc::new(Mutex::new(BTreeMap::new())),
            clock: self.clock,
            recorder: self.recorder,
        }
    }
}

impl Fleet {
    /// Start building a fleet.
    pub fn builder() -> FleetBuilder {
        FleetBuilder {
            nodes: Vec::new(),
            rules: DestinationRules::new(),
            policy: Arc::new(LeastLoaded),
            alloc_policy: AllocationPolicy::ProcessId,
            clock: VirtualClock::new(),
            recorder: None,
        }
    }

    /// The fleet-wide virtual clock all shards share.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The shards, in node-id order.
    pub fn shards(&self) -> &[NodeShard] {
        &self.shards
    }

    /// One shard by node id.
    pub fn shard(&self, node: u32) -> Option<&NodeShard> {
        self.shards.get(node as usize)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.shards.len()
    }

    /// The active placement policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The installed destination rules.
    pub fn rules(&self) -> &DestinationRules {
        &self.rules
    }

    /// Phase 1a: the shards that could host `tool_id` at
    /// `memory_hint_mib` — placeable, not in `excluded`, and admitted by
    /// the destination rules. [`Fleet::place`] scores these; the dynamic
    /// rule and the placement advisor route to the fleet only while one
    /// exists, so they never commit a job that placement must reject.
    pub fn candidates<'a>(
        &'a self,
        tool_id: &'a str,
        memory_hint_mib: u64,
        excluded: &'a [String],
    ) -> impl Iterator<Item = &'a NodeShard> {
        self.shards
            .iter()
            .filter(|s| s.is_placeable())
            .filter(move |s| !excluded.iter().any(|n| n == &s.name))
            .filter(move |s| self.rules.admits(tool_id, &s.class, memory_hint_mib))
    }

    /// Place a job: filter candidates by rules/arch/memory, score with
    /// the policy (ties → lowest node id), then lease minors on the
    /// chosen shard. `None` when no candidate admits the job or every
    /// candidate's shard refused (GPU-less fleet). A job that is already
    /// booked is released first (`why=superseded`), wherever it lands —
    /// also when it then lands nowhere.
    pub fn place(&self, req: &PlacementRequest<'_>) -> Option<Placement> {
        obs::profile_scope!("fleet.place");
        let (booked, user_nodes) = {
            let bookings = self.bookings.lock();
            // Where the user's other active placements are, gathered in
            // one pass over the bookings instead of one per candidate.
            let user_nodes: Vec<u32> = bookings
                .iter()
                .filter(|(job, b)| **job != req.job_id && b.user == req.user)
                .map(|(_, b)| b.node)
                .collect();
            (bookings.contains_key(&req.job_id), user_nodes)
        };
        // A job placed again gives up its first placement before any node
        // is scored: the shard's table supersedes a holder's leases only
        // on itself, so landing elsewhere would strand the old ones.
        if booked {
            self.release(req.job_id, "superseded");
        }
        // Sized once — and not at all for a request no node admits, which
        // is rejected without allocating.
        let mut admitted =
            self.candidates(req.tool_id, req.memory_hint_mib, req.excluded_nodes).peekable();
        let room = if admitted.peek().is_some() { self.shards.len() } else { 0 };
        let mut candidates: Vec<(f64, u32)> = Vec::with_capacity(room);
        candidates.extend(admitted.map(|s| {
            let mut load = s.load();
            load.user_active = user_nodes.iter().filter(|node| **node == s.id).count();
            (self.policy.score(&load, req), s.id)
        }));
        // Deterministic total order: score, then lowest node id. Node ids
        // are unique, so no two entries compare equal and an unstable sort
        // yields the one order there is.
        candidates.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        if candidates.is_empty() {
            if let Some(rec) = &self.recorder {
                rec.metrics().inc_counter(FLEET_REJECTED_COUNTER, 1);
                rec.event(
                    FLEET_DECISION_EVENT,
                    [
                        ("job_id", Value::from(req.job_id)),
                        ("tool", Value::from(req.tool_id)),
                        ("user", Value::from(req.user)),
                        ("policy", Value::from(self.policy.name())),
                        ("placed", Value::from(false)),
                        ("candidates", Value::from(0u64)),
                    ],
                );
            }
            return None;
        }

        let n_candidates = candidates.len();
        for (score, node) in candidates {
            let shard = &self.shards[node as usize];
            let Some(allocation) = shard.table.allocate_and_lease(
                &shard.cluster,
                req.requested,
                self.alloc_policy,
                req.job_id,
                req.memory_hint_mib,
                self.recorder.as_ref(),
            ) else {
                continue;
            };
            self.bookings.lock().insert(req.job_id, Booking { node, user: req.user.to_string() });
            let (cores, mem_mib) = self.rules.right_size(req.tool_id, &shard.class);
            if let Some(rec) = &self.recorder {
                let m = rec.metrics();
                m.inc_counter(&shard.placements_key, 1);
                m.set_gauge(&shard.leases_key, shard.table.lease_count() as f64);
                rec.event(
                    FLEET_DECISION_EVENT,
                    [
                        ("job_id", Value::from(req.job_id)),
                        ("tool", Value::from(req.tool_id)),
                        ("user", Value::from(req.user)),
                        ("policy", Value::from(self.policy.name())),
                        ("placed", Value::from(true)),
                        ("candidates", Value::from(n_candidates)),
                        ("node", Value::from(shard.name.as_str())),
                        ("node_class", Value::from(shard.class.name)),
                        ("score", Value::from(score)),
                        (
                            "cuda_visible_devices",
                            Value::from(allocation.cuda_visible_devices.as_str()),
                        ),
                        ("cores", Value::from(u64::from(cores))),
                        ("mem_mib", Value::from(mem_mib)),
                    ],
                );
            }
            return Some(Placement {
                job_id: req.job_id,
                node,
                node_name: shard.name.clone(),
                node_class: shard.class.name.to_string(),
                allocation,
                cores,
                mem_mib,
            });
        }
        None
    }

    /// Release a job's placement: drops its leases on the booked shard
    /// and forgets the booking. Returns the number of leases released
    /// (0 for unknown jobs — release is idempotent, like the lease
    /// table's).
    pub fn release(&self, job_id: u64, why: &str) -> usize {
        let Some(booking) = self.bookings.lock().remove(&job_id) else { return 0 };
        let shard = &self.shards[booking.node as usize];
        let released = shard.table.release(job_id, why, self.recorder.as_ref());
        if let Some(rec) = &self.recorder {
            rec.metrics().set_gauge(&shard.leases_key, shard.table.lease_count() as f64);
            rec.event(
                FLEET_RELEASE_EVENT,
                [
                    ("job_id", Value::from(job_id)),
                    ("node", Value::from(shard.name.as_str())),
                    ("why", Value::from(why)),
                    ("released", Value::from(released)),
                ],
            );
        }
        released
    }

    /// The node a job is currently booked on.
    pub fn node_of(&self, job_id: u64) -> Option<u32> {
        self.bookings.lock().get(&job_id).map(|b| b.node)
    }

    /// Snapshot of active bookings: (job id, node id), in job-id order.
    pub fn active_placements(&self) -> Vec<(u64, u32)> {
        self.bookings.lock().iter().map(|(job, b)| (*job, b.node)).collect()
    }

    /// Sum of lease counts across all shards.
    pub fn total_lease_count(&self) -> usize {
        self.shards.iter().map(|s| s.table.lease_count()).sum()
    }

    /// Per-shard lease holders, in node-id order — the raw material for
    /// the fleet-wide no-double-booking invariant.
    pub fn holders_by_node(&self) -> Vec<(u32, Vec<u64>)> {
        self.shards.iter().map(|s| (s.id, s.table.holders())).collect()
    }

    /// The decision-audit recorder, when the fleet was built with one
    /// (shared so hooks can audit through the same sink).
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// A shard by its stable node name (`k80-000`, ...).
    pub fn shard_named(&self, name: &str) -> Option<&NodeShard> {
        self.shards.iter().find(|s| s.name == name)
    }

    fn audit_node_status(&self, shard: &NodeShard, action: &str, leases: usize) {
        if let Some(rec) = &self.recorder {
            let cordoned = if shard.is_placeable() { 0.0 } else { 1.0 };
            rec.metrics().set_gauge(&shard.cordoned_key, cordoned);
            rec.event(
                FLEET_NODE_EVENT,
                [
                    ("node", Value::from(shard.name.as_str())),
                    ("action", Value::from(action)),
                    ("status", Value::from(shard.status().as_str())),
                    ("leases", Value::from(leases)),
                ],
            );
        }
    }

    /// Cordon a node: placement skips it from now on, but its leases keep
    /// draining through [`Fleet::release`]. Idempotent (re-cordoning a
    /// cordoned node is a no-op); returns false for unknown nodes and for
    /// dead ones (a dead node cannot come back as merely cordoned).
    pub fn cordon(&self, node: &str) -> bool {
        let Some(shard) = self.shard_named(node) else { return false };
        match shard.status() {
            NodeStatus::Dead => false,
            NodeStatus::Cordoned => true,
            NodeStatus::Ready => {
                shard.set_status(NodeStatus::Cordoned);
                self.audit_node_status(shard, "cordon", shard.table.lease_count());
                true
            }
        }
    }

    /// Lift a cordon (or resurrect a dead node, modeling a repaired host
    /// rejoining). Returns false for unknown nodes.
    pub fn uncordon(&self, node: &str) -> bool {
        let Some(shard) = self.shard_named(node) else { return false };
        if shard.status() != NodeStatus::Ready {
            shard.set_status(NodeStatus::Ready);
            self.audit_node_status(shard, "uncordon", shard.table.lease_count());
        }
        true
    }

    /// Begin draining a node: cordon it and report how many leases still
    /// have to release before the drain resolves (0 = already drained).
    /// `None` for unknown or dead nodes.
    pub fn drain(&self, node: &str) -> Option<usize> {
        let shard = self.shard_named(node)?;
        if shard.status() == NodeStatus::Dead {
            return None;
        }
        if shard.status() == NodeStatus::Ready {
            shard.set_status(NodeStatus::Cordoned);
        }
        let remaining = shard.table.lease_count();
        self.audit_node_status(shard, "drain", remaining);
        Some(remaining)
    }

    /// Whether a node's drain has resolved: it is cordoned (or dead) and
    /// holds no leases. `None` for unknown nodes; `Some(false)` while
    /// ready or still holding leases.
    pub fn is_drained(&self, node: &str) -> Option<bool> {
        let shard = self.shard_named(node)?;
        Some(!shard.is_placeable() && shard.table.lease_count() == 0)
    }

    /// Kill a node: mark it dead, force-release every booking on it as
    /// [`NODE_LOST_REASON`], and return the lost jobs' ids (the queue
    /// layer concludes them `failed_retryable` and resubmits elsewhere).
    /// `None` for unknown nodes; idempotent on an already-dead node
    /// (returns the now-empty lost set).
    pub fn fail_node(&self, node: &str) -> Option<Vec<u64>> {
        let shard = self.shard_named(node)?;
        shard.set_status(NodeStatus::Dead);
        let lost: Vec<u64> = self
            .bookings
            .lock()
            .iter()
            .filter(|(_, b)| b.node == shard.id)
            .map(|(job, _)| *job)
            .collect();
        for job_id in &lost {
            self.release(*job_id, NODE_LOST_REASON);
        }
        self.audit_node_status(shard, "fail", lost.len());
        Some(lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{BinPack, FairShare};
    use crate::rules::DestinationRule;

    // Pin one minor so each placement leases exactly one die (an empty
    // request takes every free die on the chosen node, per gyan).
    fn request(job_id: u64, user: &'static str, tool: &'static str) -> PlacementRequest<'static> {
        PlacementRequest {
            job_id,
            user,
            tool_id: tool,
            requested: &[0],
            memory_hint_mib: 256,
            excluded_nodes: &[],
        }
    }

    fn two_k80s() -> Fleet {
        Fleet::builder().nodes(NodeClass::k80(), 2).build()
    }

    #[test]
    fn ties_break_to_the_lowest_node_id() {
        let fleet = two_k80s();
        let p = fleet.place(&request(1, "ada", "racon_gpu")).expect("placed");
        assert_eq!((p.node, p.node_name.as_str()), (0, "k80-000"));
        // Node 0 now carries a lease, so the next job spreads to node 1.
        let p2 = fleet.place(&request(2, "ada", "racon_gpu")).expect("placed");
        assert_eq!(p2.node, 1);
    }

    #[test]
    fn release_is_idempotent_and_scoped_to_the_booked_shard() {
        let fleet = two_k80s();
        fleet.place(&request(1, "ada", "racon_gpu")).unwrap();
        assert_eq!(fleet.node_of(1), Some(0));
        assert_eq!(fleet.total_lease_count(), 1);
        assert!(fleet.release(1, "ok") > 0);
        assert_eq!(fleet.release(1, "ok"), 0);
        assert_eq!((fleet.total_lease_count(), fleet.node_of(1)), (0, None));
    }

    #[test]
    fn rules_exclude_classes_and_reject_when_nothing_fits() {
        let rules = DestinationRules::new()
            .with(DestinationRule::any("bonito*").on_classes(["a100"]))
            .with(DestinationRule::any("*"));
        let fleet = Fleet::builder()
            .nodes(NodeClass::k80(), 2)
            .nodes(NodeClass::a100(), 1)
            .rules(rules)
            .build();
        let p = fleet.place(&request(1, "ada", "bonito")).expect("a100 admits");
        assert_eq!(p.node_class, "a100");
        // A hint bigger than any die in the fleet: rejected.
        let huge = PlacementRequest {
            job_id: 2,
            user: "ada",
            tool_id: "racon_gpu",
            requested: &[0],
            memory_hint_mib: 1 << 20,
            excluded_nodes: &[],
        };
        assert!(fleet.place(&huge).is_none());
    }

    #[test]
    fn bin_pack_fills_a_node_before_spilling() {
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 2).policy(Arc::new(BinPack)).build();
        // A K80 shard has 2 dies: the first two jobs pack node 0.
        for job in 1..=2u64 {
            assert_eq!(fleet.place(&request(job, "ada", "racon_gpu")).unwrap().node, 0);
        }
        // Node 0 has no free die left; node 1 does, and wins.
        assert_eq!(fleet.place(&request(3, "ada", "racon_gpu")).unwrap().node, 1);
    }

    #[test]
    fn fair_share_spreads_one_users_burst() {
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 3).policy(Arc::new(FairShare)).build();
        let nodes: Vec<u32> = (1..=3u64)
            .map(|job| fleet.place(&request(job, "ada", "racon_gpu")).unwrap().node)
            .collect();
        assert_eq!(nodes, vec![0, 1, 2], "each placement avoids ada's nodes");
        // A different user starts from node 0 again (it is least loaded
        // among nodes where bob runs nothing — all of them — so lowest
        // utilization wins; all equal → lowest id).
        assert_eq!(fleet.place(&request(4, "bob", "racon_gpu")).unwrap().node, 0);
    }

    #[test]
    fn placement_records_right_sized_resources() {
        let rules =
            DestinationRules::new().with(DestinationRule::any("*").with_cores(4).with_mem(8192));
        let fleet = Fleet::builder().nodes(NodeClass::v100(), 1).rules(rules).build();
        let p = fleet.place(&request(1, "ada", "racon_gpu")).unwrap();
        assert_eq!((p.cores, p.mem_mib), (4, 8192));
    }

    #[test]
    fn excluded_nodes_are_filtered_before_scoring() {
        let fleet = two_k80s();
        let excluded = vec!["k80-000".to_string()];
        let req = PlacementRequest {
            job_id: 1,
            user: "ada",
            tool_id: "racon_gpu",
            requested: &[0],
            memory_hint_mib: 256,
            excluded_nodes: &excluded,
        };
        // Node 0 would win the tie-break; the exclusion forces node 1.
        assert_eq!(fleet.place(&req).expect("node 1 hosts").node, 1);
        // Excluding every node leaves no candidate at all.
        let all = vec!["k80-000".to_string(), "k80-001".to_string()];
        let req = PlacementRequest { job_id: 2, excluded_nodes: &all, ..req };
        assert!(fleet.place(&req).is_none());
    }

    #[test]
    fn cordoned_node_skips_placement_but_serves_releases() {
        let fleet = two_k80s();
        fleet.place(&request(1, "ada", "racon_gpu")).unwrap();
        assert_eq!(fleet.node_of(1), Some(0));
        assert!(fleet.cordon("k80-000"));
        // New placements avoid the cordoned node...
        assert_eq!(fleet.place(&request(2, "ada", "racon_gpu")).unwrap().node, 1);
        // ...but its existing lease still releases.
        assert!(fleet.release(1, "ok") > 0);
        assert_eq!(fleet.is_drained("k80-000"), Some(true));
        assert!(fleet.uncordon("k80-000"));
        assert_eq!(fleet.place(&request(3, "ada", "racon_gpu")).unwrap().node, 0);
        assert!(!fleet.cordon("ghost-042"), "unknown nodes are not cordonable");
    }

    #[test]
    fn drain_resolves_when_the_lease_count_hits_zero() {
        let fleet = two_k80s();
        fleet.place(&request(1, "ada", "racon_gpu")).unwrap();
        assert_eq!(fleet.drain("k80-000"), Some(1));
        assert_eq!(fleet.is_drained("k80-000"), Some(false));
        fleet.release(1, "ok");
        assert_eq!(fleet.is_drained("k80-000"), Some(true));
        // A ready node with no leases is not "drained" — it is serving.
        assert_eq!(fleet.is_drained("k80-001"), Some(false));
    }

    #[test]
    fn fail_node_force_releases_bookings_as_node_lost() {
        let recorder = Recorder::new();
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 2).recorder(recorder.clone()).build();
        fleet.place(&request(1, "ada", "racon_gpu")).unwrap();
        fleet.place(&request(2, "bob", "racon_gpu")).unwrap();
        let lost = fleet.fail_node("k80-000").expect("known node");
        assert_eq!(lost, vec![1]);
        assert_eq!(fleet.node_of(1), None, "booking gone");
        assert_eq!(fleet.shard_named("k80-000").unwrap().table.lease_count(), 0);
        // Job 2 on the surviving node is untouched.
        assert_eq!(fleet.node_of(2), Some(1));
        // The dead node takes no further placements and cannot be merely
        // cordoned; uncordon models a repaired host rejoining.
        assert_eq!(fleet.place(&request(3, "ada", "racon_gpu")).unwrap().node, 1);
        assert!(!fleet.cordon("k80-000"));
        assert_eq!(fleet.drain("k80-000"), None);
        let log = recorder.to_jsonl();
        assert!(log.contains(NODE_LOST_REASON), "{log}");
        assert!(log.contains("\"action\":\"fail\""), "{log}");
        let gauge = recorder.metrics().gauge_value("fleet_node_cordoned{node=\"k80-000\"}");
        assert_eq!(gauge, Some(1.0));
    }

    #[test]
    fn audits_and_labeled_metrics_flow_through_the_recorder() {
        let recorder = Recorder::new();
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 1).recorder(recorder.clone()).build();
        fleet.place(&request(1, "ada", "racon_gpu")).unwrap();
        fleet.release(1, "ok");
        let m = recorder.metrics();
        assert_eq!(m.counter_value("fleet_placements_total{node=\"k80-000\"}"), 1);
        assert_eq!(m.gauge_value("fleet_leases_active{node=\"k80-000\"}"), Some(0.0));
        let log = recorder.to_jsonl();
        assert!(log.contains(FLEET_DECISION_EVENT), "{log}");
        assert!(log.contains(FLEET_RELEASE_EVENT), "{log}");
        assert!(log.contains("\"node_class\":\"k80\""), "{log}");
    }
}
