//! Sharded multi-node GPU placement over heterogeneous architectures.
//!
//! The paper maps Galaxy tools onto the GPUs of a single 2×K80 node;
//! everything below `fleet` still schedules through one
//! [`gpusim::GpuCluster`] and one [`gyan::reservations::LeaseTable`] lock.
//! This crate adds the layer above: a [`Fleet`] owning N per-node
//! *shards* — each shard its own cluster + lease table, no cross-node
//! lock — and a placement layer that picks a **node** before
//! `allocate_and_lease` picks a **minor**:
//!
//! ```text
//!            ┌───────────── Fleet ─────────────┐
//!  job ──►   │ 1. filter: destination rules    │   two-phase placement
//!            │    (tool → node class, memory)  │
//!            │ 2. score: PlacementPolicy       │   phase 1: pick the node
//!            │    (least-loaded / bin-pack /   │     (one pass under the
//!            │     fair-share), ties → lowest  │      fleet's own books, no
//!            │     node id                     │      shard lock)
//!            └────────────┬────────────────────┘
//!                         ▼
//!            ┌─ NodeShard k80-000 ─┐ ┌─ NodeShard a100-001 ─┐ …
//!            │ GpuCluster (2×K80)  │ │ GpuCluster (8×A100)  │   phase 2: that
//!            │ LeaseTable (own     │ │ LeaseTable (own      │   shard's lease
//!            │   lock)             │ │   lock)              │   table picks the
//!            └─────────────────────┘ └──────────────────────┘   minor atomically
//! ```
//!
//! Destination rules are Total-Perspective-Vortex style: declarative
//! `tool → node-class` constraints with cores/memory right-sizing (see
//! [`rules::DestinationRules::parse`] for the line syntax).
//!
//! [`install::install_fleet`] wires a fleet into a
//! [`galaxy::GalaxyApp`]/queue-engine stack through the same
//! `gyan::setup::install` that wires a single node: the one dynamic
//! destination rule and the one `gyan::GyanHook`, both over the
//! [`Fleet`] as placement seam (`gyan::Placer`) — so the hook places
//! across nodes, exports `CUDA_VISIBLE_DEVICES` *and* `GALAXY_NODE`, and
//! releases on conclusion. The fleet is also what the stock SLO rules
//! read (`gyan::default_alert_rules` over `gyan::LeaseView`), so a fleet
//! arms the same five rules as a single node.
//!
//! [`ops::fleet_ops_server`] is the single node's `gyan::ops::ops_server`
//! over the shards — node-labeled GPU/job views, one `gyan_node_info`
//! gauge per node — plus the fleet's own `/api/nodes`.

pub mod fleet;
pub mod install;
pub mod node;
pub mod ops;
pub mod placement;
pub mod rules;

pub use fleet::{Fleet, FleetBuilder, Placement};
pub use install::{install_fleet, FleetConfig};
pub use node::{NodeClass, NodeLoad, NodeShard, NodeStatus};
pub use ops::fleet_ops_server;
pub use placement::{
    policy_by_name, BinPack, FairShare, LeastLoaded, PlacementPolicy, PlacementRequest,
};
pub use rules::{DestinationRule, DestinationRules};
