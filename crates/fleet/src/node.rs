//! Node classes and per-node shards.
//!
//! A *node class* describes one hardware flavour an operator runs
//! (architecture, GPU count, host cores/memory); a *shard* is one
//! concrete node of a class: its own [`GpuCluster`] and its own
//! [`LeaseTable`]. Shards never share a lock, and placement does not
//! read their tables: the fleet scores a node from its own books of what
//! it leased there ([`NodeLoad`], see [`crate::fleet`]) plus one atomic
//! availability read per unleased device, and only the chosen shard's
//! table serializes the minor-level grant.

use crate::fleet::{FLEET_CORDONED_GAUGE, FLEET_LEASES_GAUGE, FLEET_PLACEMENTS_COUNTER};
use gpusim::{GpuArch, GpuCluster, VirtualClock};
use gyan::reservations::LeaseTable;
use obs::metrics::{Counter, Gauge, Registry};
use std::sync::atomic::{AtomicU8, Ordering};

/// Operational status of one shard. `Ready` accepts placements;
/// `Cordoned` is skipped by placement but keeps serving releases (the
/// drain state); `Dead` is a failed node — placement skips it and its
/// leases have been force-released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Accepting placements.
    Ready,
    /// Skipped by placement; existing leases still drain through release.
    Cordoned,
    /// Failed: skipped by placement, leases force-released as lost.
    Dead,
}

impl NodeStatus {
    /// Lower-case status name for `/api/nodes` and audits.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeStatus::Ready => "ready",
            NodeStatus::Cordoned => "cordoned",
            NodeStatus::Dead => "dead",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => NodeStatus::Cordoned,
            2 => NodeStatus::Dead,
            _ => NodeStatus::Ready,
        }
    }
}

/// One hardware flavour of the fleet (all nodes of a class are identical;
/// heterogeneity lives *between* classes).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeClass {
    /// Class label used in destination rules and node names ("k80", ...).
    pub name: &'static str,
    /// Per-die architecture of the class's GPUs.
    pub arch: GpuArch,
    /// GPUs (dies) per node.
    pub gpus: u32,
    /// Host CPU cores per node (right-sizing ceiling for `cores=` rules).
    pub cores: u32,
    /// Host memory per node in MiB.
    pub host_mem_mib: u64,
}

impl NodeClass {
    /// The paper's evaluation flavour: one K80 board (2 dies) per node.
    pub fn k80() -> Self {
        NodeClass {
            name: "k80",
            arch: GpuArch::tesla_k80(),
            gpus: 2,
            cores: 32,
            host_mem_mib: 128 * 1024,
        }
    }

    /// Volta flavour: 4×V100 per node (DGX-1-style half-board).
    pub fn v100() -> Self {
        NodeClass {
            name: "v100",
            arch: GpuArch::tesla_v100(),
            gpus: 4,
            cores: 40,
            host_mem_mib: 256 * 1024,
        }
    }

    /// Ampere flavour: 8×A100 per node (DGX-A100-style board).
    pub fn a100() -> Self {
        NodeClass {
            name: "a100",
            arch: GpuArch::a100(),
            gpus: 8,
            cores: 64,
            host_mem_mib: 512 * 1024,
        }
    }

    /// GPU-less flavour for CPU-only work.
    pub fn cpu() -> Self {
        NodeClass {
            name: "cpu",
            arch: GpuArch::tesla_k80(),
            gpus: 0,
            cores: 96,
            host_mem_mib: 256 * 1024,
        }
    }

    /// Look a stock class up by its label.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "k80" => Some(Self::k80()),
            "v100" => Some(Self::v100()),
            "a100" => Some(Self::a100()),
            "cpu" => Some(Self::cpu()),
            _ => None,
        }
    }
}

/// One concrete node: its own simulated cluster and its own lease table.
pub struct NodeShard {
    /// Fleet-wide node id (index into the fleet's shard list).
    pub id: u32,
    /// Stable node name, `<class>-<id:03>` (e.g. `a100-017`).
    pub name: String,
    /// The class this node belongs to.
    pub class: NodeClass,
    /// The node's devices, clocked on the fleet-wide timeline.
    pub cluster: GpuCluster,
    /// The node's reservation layer (its only lock).
    pub table: LeaseTable,
    /// Operational status (shards are `Arc`-shared without a lock of
    /// their own, so the status is a lone atomic).
    status: AtomicU8,
    /// This node's series in the fleet's registry, when it has one.
    pub(crate) metrics: Option<NodeMetrics>,
}

/// A node's series of the fleet's three per-node metric families
/// (`<family>{node="<name>"}`), as handles taken when the shard is built.
pub(crate) struct NodeMetrics {
    pub(crate) placements: Counter,
    pub(crate) leases: Gauge,
    pub(crate) cordoned: Gauge,
}

impl NodeShard {
    /// Build shard `id` of `class` on the fleet's shared clock, writing
    /// its per-node series into `registry` when there is one.
    pub fn new(
        id: u32,
        class: NodeClass,
        clock: &VirtualClock,
        registry: Option<&Registry>,
    ) -> Self {
        let cluster = GpuCluster::node_on_clock(class.arch.clone(), class.gpus, clock);
        let name = format!("{}-{:03}", class.name, id);
        let metrics = registry.map(|registry| {
            let key = |family: &str| format!("{family}{{node=\"{name}\"}}");
            NodeMetrics {
                placements: registry.counter(&key(FLEET_PLACEMENTS_COUNTER)),
                leases: registry.gauge(&key(FLEET_LEASES_GAUGE)),
                cordoned: registry.gauge(&key(FLEET_CORDONED_GAUGE)),
            }
        });
        NodeShard {
            id,
            metrics,
            name,
            class,
            cluster,
            table: LeaseTable::new(),
            status: AtomicU8::new(0),
        }
    }

    /// Current operational status.
    pub fn status(&self) -> NodeStatus {
        NodeStatus::from_u8(self.status.load(Ordering::SeqCst))
    }

    /// Set the operational status (cordon/uncordon/fail transitions are
    /// owned by [`crate::fleet::Fleet`], which also audits them).
    pub fn set_status(&self, status: NodeStatus) {
        self.status.store(status as u8, Ordering::SeqCst);
    }

    /// Whether placement may choose this shard (only `Ready` shards are
    /// candidates; cordoned and dead shards keep serving releases).
    pub fn is_placeable(&self) -> bool {
        self.status() == NodeStatus::Ready
    }
}

/// What a placement policy sees of one candidate node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeLoad {
    /// Fleet-wide node id.
    pub node: u32,
    /// GPUs on the node.
    pub device_count: u32,
    /// Active leases across the node's devices.
    pub active_leases: usize,
    /// Devices that are SMI-available *and* unleased.
    pub free_devices: usize,
    /// Sum of pending declared memory across devices (MiB).
    pub pending_mem_mib: u64,
    /// Active fleet placements the requesting user already holds here.
    pub user_active: usize,
}

impl NodeLoad {
    /// Leases per device — the canonical load measure (0.0 = idle,
    /// 1.0 = every device leased once, >1.0 = oversubscribed).
    pub fn utilization(&self) -> f64 {
        self.active_leases as f64 / f64::from(self.device_count.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_classes_are_heterogeneous() {
        let k80 = NodeClass::k80();
        let v100 = NodeClass::v100();
        let a100 = NodeClass::a100();
        assert!(k80.arch.fb_total_mib < v100.arch.fb_total_mib);
        assert!(v100.arch.fb_total_mib < a100.arch.fb_total_mib);
        assert_eq!(NodeClass::by_name("a100"), Some(a100));
        assert_eq!(NodeClass::by_name("hopper"), None);
        assert_eq!(NodeClass::cpu().gpus, 0);
    }

    #[test]
    fn shard_names_embed_class_and_id() {
        let clock = VirtualClock::new();
        let shard = NodeShard::new(17, NodeClass::a100(), &clock, None);
        assert_eq!(shard.name, "a100-017");
        assert_eq!(shard.cluster.device_count(), 8);
        assert_eq!(shard.cluster.arch().unwrap().name, "A100-SXM4-40GB");
    }

    #[test]
    fn load_counts_leases_and_free_devices() {
        let fleet = crate::Fleet::builder().nodes(NodeClass::k80(), 1).build();
        let idle = fleet.loads(None).remove(0);
        assert_eq!((idle.active_leases, idle.free_devices), (0, 2));
        assert_eq!(idle.utilization(), 0.0);

        let request = crate::PlacementRequest {
            job_id: 7,
            user: "ada",
            tool_id: "racon_gpu",
            requested: &[0],
            memory_hint_mib: 512,
            excluded_nodes: &[],
        };
        fleet.place(&request).expect("k80 node allocates");
        let loaded = fleet.loads(Some("ada")).remove(0);
        assert_eq!(loaded.active_leases, 1);
        assert_eq!(loaded.free_devices, 1);
        assert_eq!(loaded.pending_mem_mib, 512);
        assert_eq!(loaded.user_active, 1);
        assert!(loaded.utilization() > 0.4);
        // A lingering process makes its unleased device busy.
        let shard = fleet.shard(0).unwrap();
        shard.cluster.attach_process(1, gpusim::GpuProcess::compute(9, "linger", 64)).unwrap();
        assert_eq!(fleet.loads(None)[0].free_devices, 0);
    }

    #[test]
    fn status_transitions_gate_placeability() {
        let clock = VirtualClock::new();
        let shard = NodeShard::new(0, NodeClass::k80(), &clock, None);
        assert_eq!(shard.status(), NodeStatus::Ready);
        assert!(shard.is_placeable());
        shard.set_status(NodeStatus::Cordoned);
        assert_eq!(shard.status().as_str(), "cordoned");
        assert!(!shard.is_placeable());
        shard.set_status(NodeStatus::Dead);
        assert!(!shard.is_placeable());
        shard.set_status(NodeStatus::Ready);
        assert!(shard.is_placeable());
    }

    #[test]
    fn shards_share_the_fleet_clock() {
        let clock = VirtualClock::new();
        let a = NodeShard::new(0, NodeClass::k80(), &clock, None);
        let b = NodeShard::new(1, NodeClass::v100(), &clock, None);
        clock.advance(5.0);
        assert_eq!(a.cluster.clock().now(), 5.0);
        assert_eq!(b.cluster.clock().now(), 5.0);
    }
}
