//! The [`Fleet`]: shard ownership, two-phase placement, and the fleet's
//! books.
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
//!
//! Beside the bookings, under the same lock, the fleet keeps each node's
//! running sums — leases per device and pending declared MiB — and each
//! user's active placements per node. They change only where a booking
//! does (a grant, a release), so phase 1 builds every candidate's
//! [`NodeLoad`] from them in one pass under that one lock: no shard
//! table lock, no walk over the bookings. A device's SMI availability is
//! the one live input, read from the cluster's per-device atomic,
//! because lingering processes come and go without the fleet.

use crate::node::{NodeClass, NodeLoad, NodeShard, NodeStatus};
use crate::placement::{LeastLoaded, PlacementPolicy, PlacementRequest};
use crate::rules::{rule_admits, DestinationRules};
use gpusim::VirtualClock;
use gyan::allocation::{Allocation, AllocationPolicy};
use obs::{Recorder, Value};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
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
/// Audit event emitted per node status transition (drain, uncordon,
/// fail).
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

/// Fleet-side record of an active placement: where it landed and what
/// the shard granted, so a release can take it off the books again.
struct Booking {
    node: u32,
    /// Shared with the user's entry in [`Books::users`].
    user: Arc<str>,
    /// The granted minors (`Allocation::devices`): one lease each.
    devices: Vec<u32>,
    /// The declared hint every one of those leases carries.
    memory_hint_mib: u64,
}

/// One node's running sums: what its lease table holds, kept by the
/// fleet so scoring the node never asks the table.
struct NodeBook {
    /// Leases per device minor.
    leases: Vec<u32>,
    /// Sum of `leases`.
    active_leases: usize,
    /// Sum of the leases' declared hints (MiB).
    pending_mem_mib: u64,
}

/// The bookings and the sums derived from them, all behind the fleet's
/// one `Mutex` and changed together by [`Books::book`] and
/// [`Books::unbook`].
struct Books {
    bookings: BTreeMap<u64, Booking>,
    /// One per shard, by node id.
    nodes: Vec<NodeBook>,
    /// user → (node, active placements there), by ascending node; a user
    /// with none has no entry.
    users: HashMap<Arc<str>, Vec<(u32, usize)>>,
}

impl Books {
    fn new(shards: &[NodeShard]) -> Self {
        let nodes = shards
            .iter()
            .map(|s| NodeBook {
                leases: vec![0; s.cluster.device_count() as usize],
                active_leases: 0,
                pending_mem_mib: 0,
            })
            .collect();
        Books { bookings: BTreeMap::new(), nodes, users: HashMap::new() }
    }

    /// Book `job_id` on `node` with the shard's grant, exactly as the
    /// shard's table leased it: one lease per granted minor, each with
    /// the hint.
    fn book(&mut self, job_id: u64, node: u32, user: &str, devices: &[u32], memory_hint_mib: u64) {
        // Only a concurrent placement of the same job finds one; the
        // books follow the booking map either way.
        self.unbook(job_id);
        let user =
            self.users.get_key_value(user).map_or_else(|| Arc::from(user), |(k, _)| k.clone());
        let mine = self.users.entry(user.clone()).or_default();
        match mine.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(at) => mine[at].1 += 1,
            Err(at) => mine.insert(at, (node, 1)),
        }
        let book = &mut self.nodes[node as usize];
        for &minor in devices {
            book.leases[minor as usize] += 1;
        }
        book.active_leases += devices.len();
        book.pending_mem_mib += memory_hint_mib * devices.len() as u64;
        let devices = devices.to_vec();
        self.bookings.insert(job_id, Booking { node, user, devices, memory_hint_mib });
    }

    /// Take `job_id`'s booking off the books, if it has one.
    fn unbook(&mut self, job_id: u64) -> Option<Booking> {
        let booking = self.bookings.remove(&job_id)?;
        let book = &mut self.nodes[booking.node as usize];
        for &minor in &booking.devices {
            book.leases[minor as usize] -= 1;
        }
        book.active_leases -= booking.devices.len();
        book.pending_mem_mib -= booking.memory_hint_mib * booking.devices.len() as u64;
        if let Entry::Occupied(mut entry) = self.users.entry(booking.user.clone()) {
            let mine = entry.get_mut();
            if let Ok(at) = mine.binary_search_by_key(&booking.node, |&(n, _)| n) {
                mine[at].1 -= 1;
                if mine[at].1 == 0 {
                    mine.remove(at);
                }
            }
            if mine.is_empty() {
                entry.remove();
            }
        }
        Some(booking)
    }

    /// `(node, active placements)` of `user`, by ascending node.
    fn user_nodes(&self, user: Option<&str>) -> &[(u32, usize)] {
        match user.and_then(|u| self.users.get(u)) {
            Some(mine) => mine,
            None => &[],
        }
    }

    /// What placement scores `shard` by: the books' sums, the user's
    /// count from `mine` (its [`Books::user_nodes`]), and each unleased
    /// device's availability flag.
    fn load(&self, shard: &NodeShard, mine: &[(u32, usize)]) -> NodeLoad {
        let book = &self.nodes[shard.id as usize];
        let free_devices = (0u32..)
            .zip(&book.leases)
            .filter(|&(minor, leases)| *leases == 0 && shard.cluster.is_device_available(minor))
            .count();
        NodeLoad {
            node: shard.id,
            device_count: shard.cluster.device_count(),
            active_leases: book.active_leases,
            free_devices,
            pending_mem_mib: book.pending_mem_mib,
            user_active: mine
                .binary_search_by_key(&shard.id, |&(n, _)| n)
                .map_or(0, |at| mine[at].1),
        }
    }
}

/// N per-node shards plus the placement layer above them. Clones share
/// state (shards, books, policy), so one handle can serve the
/// dispatch hook, the ops server, and the invariant checker at once.
#[derive(Clone)]
pub struct Fleet {
    shards: Arc<Vec<NodeShard>>,
    rules: Arc<DestinationRules>,
    policy: Arc<dyn PlacementPolicy>,
    alloc_policy: AllocationPolicy,
    books: Arc<Mutex<Books>>,
    clock: VirtualClock,
    recorder: Option<Recorder>,
}

/// Builder for [`Fleet`].
pub struct FleetBuilder {
    nodes: Vec<NodeClass>,
    rules: DestinationRules,
    policy: Arc<dyn PlacementPolicy>,
    alloc_policy: AllocationPolicy,
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

    /// Emit decision audits and per-node metrics through `recorder`.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Materialize the shards and the fleet handle.
    pub fn build(self) -> Fleet {
        let clock = VirtualClock::new();
        let registry = self.recorder.as_ref().map(Recorder::metrics);
        let shards: Vec<NodeShard> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(id, class)| NodeShard::new(id as u32, class, &clock, registry))
            .collect();
        Fleet {
            books: Arc::new(Mutex::new(Books::new(&shards))),
            shards: Arc::new(shards),
            rules: Arc::new(self.rules),
            policy: self.policy,
            alloc_policy: self.alloc_policy,
            clock,
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
    /// the destination rules (the tool's rule is matched once, not once
    /// per shard). [`Fleet::place`] scores these; the dynamic rule and the
    /// placement-aware retry route to the fleet only while one exists, so
    /// they never commit a job that placement must reject.
    pub fn candidates<'a>(
        &'a self,
        tool_id: &'a str,
        memory_hint_mib: u64,
        excluded: &'a [String],
    ) -> impl Iterator<Item = &'a NodeShard> {
        let rule = self.rules.match_tool(tool_id);
        self.shards
            .iter()
            .filter(|s| s.is_placeable())
            .filter(move |s| !excluded.iter().any(|n| n == &s.name))
            .filter(move |s| rule_admits(rule, &s.class, memory_hint_mib))
    }

    /// Place a job: filter candidates by rules/arch/memory, score with
    /// the policy (ties → lowest node id), then lease minors on the
    /// chosen shard. `None` when no candidate admits the job or every
    /// candidate's shard refused (GPU-less fleet). A job that is already
    /// booked is released first (`why=superseded`), wherever it lands —
    /// also when it then lands nowhere.
    pub fn place(&self, req: &PlacementRequest<'_>) -> Option<Placement> {
        obs::profile_scope!("fleet.place");
        let mut books = self.books.lock();
        // A job placed again gives up its first placement before any node
        // is scored: the shard's table supersedes a holder's leases only
        // on itself, so landing elsewhere would strand the old ones.
        if let Some(stale) = books.unbook(req.job_id) {
            let leases = books.nodes[stale.node as usize].active_leases;
            drop(books);
            self.release_unbooked(req.job_id, stale.node, leases, "superseded");
            books = self.books.lock();
        }
        let (mut best, candidates) = self.pick(&books, req, &[]);
        drop(books);

        if best.is_none() {
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
        let mut refused = Vec::new();
        while let Some((score, node)) = best {
            if let Some(placement) = self.grant(req, node, score, candidates) {
                return Some(placement);
            }
            // The chosen shard refused (raced, or its node could not be
            // observed): the next in `(score, node id)` order.
            refused.push(node);
            best = self.pick(&self.books.lock(), req, &refused).0;
        }
        None
    }

    /// Phase 1: the candidate with the lowest `(score, node id)` outside
    /// `refused`, and how many candidates there are — one pass, scoring
    /// each node from `books`: no shard lock, no list, no sort.
    fn pick(
        &self,
        books: &Books,
        req: &PlacementRequest<'_>,
        refused: &[u32],
    ) -> (Option<(f64, u32)>, usize) {
        let mine = books.user_nodes(Some(req.user));
        let mut candidates = 0;
        let mut best: Option<(f64, u32)> = None;
        for shard in self.candidates(req.tool_id, req.memory_hint_mib, req.excluded_nodes) {
            candidates += 1;
            if refused.contains(&shard.id) {
                continue;
            }
            let score = self.policy.score(&books.load(shard, mine), req);
            // Ascending node ids: a tie keeps the lower one.
            if best.is_none_or(|(low, _)| score.total_cmp(&low).is_lt()) {
                best = Some((score, shard.id));
            }
        }
        (best, candidates)
    }

    /// Phase 2 on `node`: lease minors from its shard's table and, on a
    /// grant, book it and audit the decision.
    fn grant(
        &self,
        req: &PlacementRequest<'_>,
        node: u32,
        score: f64,
        candidates: usize,
    ) -> Option<Placement> {
        let shard = &self.shards[node as usize];
        let allocation = shard.table.allocate_and_lease(
            &shard.cluster,
            req.requested,
            self.alloc_policy,
            req.job_id,
            req.memory_hint_mib,
            self.recorder.as_ref(),
        )?;
        let leases = {
            let mut books = self.books.lock();
            books.book(req.job_id, node, req.user, &allocation.devices, req.memory_hint_mib);
            books.nodes[node as usize].active_leases
        };
        let (cores, mem_mib) = self.rules.right_size(req.tool_id, &shard.class);
        if let Some(m) = &shard.metrics {
            m.placements.inc(1);
            m.leases.set(leases as f64);
        }
        if let Some(rec) = &self.recorder {
            rec.event(
                FLEET_DECISION_EVENT,
                [
                    ("job_id", Value::from(req.job_id)),
                    ("tool", Value::from(req.tool_id)),
                    ("user", Value::from(req.user)),
                    ("policy", Value::from(self.policy.name())),
                    ("placed", Value::from(true)),
                    ("candidates", Value::from(candidates)),
                    ("node", Value::from(shard.name.as_str())),
                    ("node_class", Value::from(shard.class.name)),
                    ("score", Value::from(score)),
                    ("cuda_visible_devices", Value::from(allocation.cuda_visible_devices.as_str())),
                    ("cores", Value::from(u64::from(cores))),
                    ("mem_mib", Value::from(mem_mib)),
                ],
            );
        }
        Some(Placement {
            job_id: req.job_id,
            node,
            node_name: shard.name.clone(),
            node_class: shard.class.name.to_string(),
            allocation,
            cores,
            mem_mib,
        })
    }

    /// Release a job's placement: drops its leases on the booked shard
    /// and forgets the booking. Returns the number of leases released
    /// (0 for unknown jobs — release is idempotent, like the lease
    /// table's).
    pub fn release(&self, job_id: u64, why: &str) -> usize {
        let (node, leases) = {
            let mut books = self.books.lock();
            let Some(booking) = books.unbook(job_id) else { return 0 };
            (booking.node, books.nodes[booking.node as usize].active_leases)
        };
        self.release_unbooked(job_id, node, leases, why)
    }

    /// The shard half of a release, for a booking already off the books
    /// that left `leases` booked on `node`.
    fn release_unbooked(&self, job_id: u64, node: u32, leases: usize, why: &str) -> usize {
        let shard = &self.shards[node as usize];
        let released = shard.table.release(job_id, why, self.recorder.as_ref());
        if let Some(m) = &shard.metrics {
            m.leases.set(leases as f64);
        }
        if let Some(rec) = &self.recorder {
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

    /// A `QueueEngine` discard listener releasing the placements of plans
    /// a discarded wave skips, with reason `"discarded"` — the fleet
    /// analogue of `LeaseTable::discard_listener`. The release is audited
    /// through the fleet's own recorder, like every other.
    pub fn discard_listener(&self) -> Arc<dyn Fn(u64) + Send + Sync> {
        let fleet = self.clone();
        Arc::new(move |job_id| {
            fleet.release(job_id, "discarded");
        })
    }

    /// The node a job is currently booked on.
    pub fn node_of(&self, job_id: u64) -> Option<u32> {
        self.books.lock().bookings.get(&job_id).map(|b| b.node)
    }

    /// Snapshot of active bookings: (job id, node id), in job-id order.
    pub fn active_placements(&self) -> Vec<(u64, u32)> {
        self.books.lock().bookings.iter().map(|(job, b)| (*job, b.node)).collect()
    }

    /// Every node's load as placement scores it, in node-id order, from
    /// one hold of the books: the fleet's sums, the devices' availability
    /// flags, and `user`'s active placements on the node (0 everywhere
    /// for `None`). Placeability is not considered. The fleet's one
    /// definition of "node load", which `/api/nodes` serves.
    pub fn loads(&self, user: Option<&str>) -> Vec<NodeLoad> {
        let books = self.books.lock();
        let mine = books.user_nodes(user);
        self.shards.iter().map(|s| books.load(s, mine)).collect()
    }

    /// Leases per device minor of `node` as the fleet's books hold them
    /// (empty for an unknown node) — what the node's lease table must
    /// hold too.
    pub fn booked_leases(&self, node: u32) -> Vec<u32> {
        self.books.lock().nodes.get(node as usize).map_or_else(Vec::new, |b| b.leases.clone())
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
        if let Some(m) = &shard.metrics {
            m.cordoned.set(if shard.is_placeable() { 0.0 } else { 1.0 });
        }
        if let Some(rec) = &self.recorder {
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

    /// Begin draining a node: cordon it — placement skips it from now on,
    /// but its leases keep draining through [`Fleet::release`] — and report
    /// how many leases still have to release before the drain resolves
    /// (0 = already drained). `None` for unknown or dead nodes.
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

    /// Kill a node: mark it dead, force-release every booking on it as
    /// [`NODE_LOST_REASON`], and return the lost jobs' ids (the queue
    /// layer concludes them `failed_retryable` and resubmits elsewhere).
    /// `None` for unknown nodes; idempotent on an already-dead node
    /// (returns the now-empty lost set).
    pub fn fail_node(&self, node: &str) -> Option<Vec<u64>> {
        let shard = self.shard_named(node)?;
        shard.set_status(NodeStatus::Dead);
        let lost: Vec<u64> = self
            .books
            .lock()
            .bookings
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

    /// Whether a node's drain has resolved: it is cordoned (or dead) and
    /// holds no leases. `None` for unknown nodes.
    fn drained(fleet: &Fleet, node: &str) -> Option<bool> {
        let shard = fleet.shard_named(node)?;
        Some(!shard.is_placeable() && shard.table.lease_count() == 0)
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
    fn a_refusing_shard_hands_the_job_to_the_next_in_score_order() {
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 3).build();
        assert_eq!(fleet.place(&request(1, "ada", "racon_gpu")).unwrap().node, 0);
        // Node 1 scores best (idle, lowest id) but cannot be observed: the
        // rest are tried in order — node 2, idle, before node 0.
        fleet.shard(1).unwrap().cluster.inject_smi_query_failures(1);
        assert_eq!(fleet.place(&request(2, "ada", "racon_gpu")).unwrap().node, 2);
        // Every shard refusing places nothing and books nothing.
        for shard in fleet.shards() {
            shard.cluster.inject_smi_query_failures(1);
        }
        assert!(fleet.place(&request(3, "ada", "racon_gpu")).is_none());
        assert_eq!(fleet.active_placements(), vec![(1, 0), (2, 2)]);
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
        let rules = DestinationRules::parse("tool=bonito* classes=a100\ntool=*").unwrap();
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
        let rules = DestinationRules::parse("tool=* cores=4 mem_mib=8192").unwrap();
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
        assert_eq!(fleet.drain("k80-000"), Some(1));
        // New placements avoid the cordoned node...
        assert_eq!(fleet.place(&request(2, "ada", "racon_gpu")).unwrap().node, 1);
        // ...but its existing lease still releases.
        assert!(fleet.release(1, "ok") > 0);
        assert_eq!(drained(&fleet, "k80-000"), Some(true));
        assert!(fleet.uncordon("k80-000"));
        assert_eq!(fleet.place(&request(3, "ada", "racon_gpu")).unwrap().node, 0);
        assert_eq!(fleet.drain("ghost-042"), None, "unknown nodes are not drainable");
    }

    #[test]
    fn drain_resolves_when_the_lease_count_hits_zero() {
        let fleet = two_k80s();
        fleet.place(&request(1, "ada", "racon_gpu")).unwrap();
        assert_eq!(fleet.drain("k80-000"), Some(1));
        assert_eq!(drained(&fleet, "k80-000"), Some(false));
        fleet.release(1, "ok");
        assert_eq!(drained(&fleet, "k80-000"), Some(true));
        // A ready node with no leases is not "drained" — it is serving.
        assert_eq!(drained(&fleet, "k80-001"), Some(false));
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
        // The dead node takes no further placements and cannot be
        // drained; uncordon models a repaired host rejoining.
        assert_eq!(fleet.place(&request(3, "ada", "racon_gpu")).unwrap().node, 1);
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
