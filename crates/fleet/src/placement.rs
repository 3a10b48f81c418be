//! Node-scoring strategies behind one [`PlacementPolicy`] trait.
//!
//! Policies only *score* — lower is better, and the fleet breaks ties by
//! lowest node id — so every strategy is deterministic by construction:
//! same fleet state, same request, same choice.

use crate::node::NodeLoad;
use std::sync::Arc;

/// What a policy knows about the job being placed.
#[derive(Debug, Clone)]
pub struct PlacementRequest<'a> {
    /// Job id (the lease holder on the chosen shard).
    pub job_id: u64,
    /// Submitting user (drives [`FairShare`]; empty when unknown).
    pub user: &'a str,
    /// Tool id (drives destination-rule filtering, not scoring).
    pub tool_id: &'a str,
    /// Device minors the tool pinned (passed through to the shard's
    /// minor-level allocation).
    pub requested: &'a [u32],
    /// Declared GPU memory (MiB) — a candidate node's dies must fit it.
    pub memory_hint_mib: u64,
    /// Node names excluded from candidacy (phase-1a filtering). Fed by
    /// placement-aware resubmission: every node a previous attempt of
    /// this job failed on.
    pub excluded_nodes: &'a [String],
}

/// A node-scoring strategy. Implementations must be pure functions of
/// `(load, request)`: the fleet picks the candidate with the lowest
/// `(score, node id)`, so a deterministic score yields a deterministic
/// placement.
pub trait PlacementPolicy: Send + Sync {
    /// Strategy name for audits and config (`least_loaded`, ...).
    fn name(&self) -> &'static str;
    /// Score a candidate node; **lower wins**.
    fn score(&self, load: &NodeLoad, req: &PlacementRequest<'_>) -> f64;
}

/// Spread: prefer the node with the fewest leases per device, then the
/// least pending declared memory.
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least_loaded"
    }

    fn score(&self, load: &NodeLoad, _req: &PlacementRequest<'_>) -> f64 {
        // Pending memory only breaks utilization ties (scaled far below
        // one lease's worth of utilization on any realistic node).
        load.utilization() + load.pending_mem_mib as f64 * 1e-12
    }
}

/// Consolidate: fill the busiest node that still has a free device, so
/// idle nodes stay idle (the power/packing strategy). Nodes with no free
/// device fall back to least-loaded oversubscription, always scoring
/// worse than any node with a free device.
pub struct BinPack;

impl PlacementPolicy for BinPack {
    fn name(&self) -> &'static str {
        "bin_pack"
    }

    fn score(&self, load: &NodeLoad, _req: &PlacementRequest<'_>) -> f64 {
        if load.free_devices > 0 {
            // utilization ∈ [0, 1) here; negate so fuller wins.
            -load.utilization()
        } else {
            1.0 + load.utilization()
        }
    }
}

/// Fair-share-aware spread: steer a user away from nodes already running
/// their jobs (one user's burst cannot monopolize a node), least-loaded
/// among equals.
pub struct FairShare;

impl PlacementPolicy for FairShare {
    fn name(&self) -> &'static str {
        "fair_share"
    }

    fn score(&self, load: &NodeLoad, _req: &PlacementRequest<'_>) -> f64 {
        load.user_active as f64 * 100.0 + load.utilization()
    }
}

/// Look a stock policy up by its config name.
pub fn policy_by_name(name: &str) -> Option<Arc<dyn PlacementPolicy>> {
    match name {
        "least_loaded" => Some(Arc::new(LeastLoaded)),
        "bin_pack" => Some(Arc::new(BinPack)),
        "fair_share" => Some(Arc::new(FairShare)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(node: u32, leases: usize, free: usize, user_active: usize) -> NodeLoad {
        NodeLoad {
            node,
            device_count: 4,
            active_leases: leases,
            free_devices: free,
            pending_mem_mib: 0,
            user_active,
        }
    }

    fn req() -> PlacementRequest<'static> {
        PlacementRequest {
            job_id: 1,
            user: "ada",
            tool_id: "racon_gpu",
            requested: &[],
            memory_hint_mib: 100,
            excluded_nodes: &[],
        }
    }

    #[test]
    fn least_loaded_prefers_emptier_nodes() {
        let p = LeastLoaded;
        assert!(p.score(&load(0, 1, 3, 0), &req()) < p.score(&load(1, 3, 1, 0), &req()));
    }

    #[test]
    fn bin_pack_prefers_fuller_nodes_with_room() {
        let p = BinPack;
        let fuller = load(0, 3, 1, 0);
        let emptier = load(1, 1, 3, 0);
        let saturated = load(2, 4, 0, 0);
        assert!(p.score(&fuller, &req()) < p.score(&emptier, &req()));
        // Any node with a free device beats every saturated node.
        assert!(p.score(&emptier, &req()) < p.score(&saturated, &req()));
    }

    #[test]
    fn fair_share_penalizes_the_users_own_nodes() {
        let p = FairShare;
        let mine = load(0, 1, 3, 1);
        let other = load(1, 3, 1, 0);
        assert!(p.score(&other, &req()) < p.score(&mine, &req()));
    }

    #[test]
    fn stock_policies_resolve_by_name() {
        for name in ["least_loaded", "bin_pack", "fair_share"] {
            assert_eq!(policy_by_name(name).unwrap().name(), name);
        }
        assert!(policy_by_name("random").is_none());
    }
}
