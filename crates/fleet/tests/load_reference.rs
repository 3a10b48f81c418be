//! The load the fleet scores — built from its own books — against the
//! derivation it replaced, which asked each shard's lease table.

use fleet::{policy_by_name, Fleet, NodeClass, NodeLoad, NodeShard, PlacementRequest};
use gpusim::GpuProcess;
use gyan::allocation::AllocationPolicy;
use std::collections::BTreeMap;

/// `NodeShard::load` as it stood at 0f6d93c, kept as the reference model:
/// the shard table's leases under one hold of its lock, every device read
/// under its own lock, and the lease count under a second hold. On one
/// thread the three snapshots are one instant, so the fleet's books must
/// agree with them field by field. `user_active` is the fleet's alone: 0
/// here.
fn reference_load(shard: &NodeShard) -> NodeLoad {
    let leases = shard.table.all_leases();
    let device_count = shard.cluster.device_count();
    let free_devices = (0..device_count)
        .filter(|minor| shard.cluster.with_device(*minor, |d| d.is_available()) == Ok(true))
        .filter(|minor| !leases.iter().any(|lease| lease.device == *minor))
        .count();
    NodeLoad {
        node: shard.id,
        device_count,
        active_leases: shard.table.lease_count(),
        free_devices,
        pending_mem_mib: leases.iter().map(|lease| lease.memory_hint_mib).sum(),
        user_active: 0,
    }
}

const USERS: [&str; 4] = ["ada", "bob", "cyd", "dee"];

/// Every node's scored load for every user equals [`reference_load`]
/// with `user_active` counted naively over `active_placements()`, and the
/// books' leases per device equal the shard table's.
fn assert_books_match(fleet: &Fleet, users: &BTreeMap<u64, &str>, at: &str) {
    let placements = fleet.active_placements();
    for user in USERS {
        let loads = fleet.loads(Some(user));
        assert_eq!(loads.len(), fleet.node_count(), "{at}");
        for (shard, load) in fleet.shards().iter().zip(&loads) {
            let user_active = placements
                .iter()
                .filter(|(job, node)| *node == shard.id && users[job] == user)
                .count();
            let want = NodeLoad { user_active, ..reference_load(shard) };
            assert_eq!(*load, want, "{at}: node {} for {user}", shard.name);
        }
    }
    for shard in fleet.shards() {
        let mut per_device = vec![0u32; shard.cluster.device_count() as usize];
        for lease in shard.table.all_leases() {
            per_device[lease.device as usize] += 1;
        }
        assert_eq!(fleet.booked_leases(shard.id), per_device, "{at}: node {}", shard.name);
    }
}

/// 400 seeded fleet steps per (policy, seed) on a fleet of every stock
/// class, under Process-ID (odd seeds) and Memory-Based (even seeds)
/// allocation: placements pinned to a minor (one the node may lack) or
/// asking for every free die, with hints from 0 up, releases,
/// re-placements of a booked job (the fleet supersedes it), lingering
/// processes attached and detached on any device (one in eight larger
/// than any die: refused), drains, node deaths and repairs — the books
/// checked after every step. Shared grants (every die leased), refusals
/// of a hint no die fits and jobs lost with their node all occur.
#[test]
fn load_equals_the_three_snapshot_derivation_field_by_field() {
    for (policy, seed) in ["least_loaded", "bin_pack", "fair_share"]
        .into_iter()
        .flat_map(|p| (1..=4u64).map(move |seed| (p, seed)))
    {
        let fleet = Fleet::builder()
            .nodes(NodeClass::k80(), 2)
            .nodes(NodeClass::v100(), 1)
            .nodes(NodeClass::a100(), 1)
            .nodes(NodeClass::cpu(), 1)
            .policy(policy_by_name(policy).expect("stock policy"))
            .allocation_policy(
                [AllocationPolicy::ProcessId, AllocationPolicy::MemoryBased][seed as usize % 2],
            )
            .build();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut users: BTreeMap<u64, &str> = BTreeMap::new();
        let mut live: Vec<u64> = Vec::new();
        let mut processes: Vec<(u32, u32, u32)> = Vec::new();
        let (mut busiest, mut superseded, mut lost, mut refused) = (0, 0, 0, 0);
        for step in 0..400u64 {
            let r = next();
            let pick = (r >> 8) as usize;
            let place = |job_id: u64, user: &'static str| {
                let pinned = [(r >> 16) as u32 % 9];
                let requested: &[u32] = if (r >> 24) % 3 == 0 { &[] } else { &pinned };
                let memory_hint_mib = match (r >> 32) % 6 {
                    0 => 0,
                    1 => (r >> 44) % 4_096,
                    i => [256, 2_048, 12_000, 50_000][i as usize - 2],
                };
                fleet.place(&PlacementRequest {
                    job_id,
                    user,
                    tool_id: "racon_gpu",
                    requested,
                    memory_hint_mib,
                    excluded_nodes: &[],
                })
            };
            match r % 16 {
                0..=5 => {
                    let user = USERS[pick % USERS.len()];
                    if place(step, user).is_some() {
                        users.insert(step, user);
                        live.push(step);
                    }
                }
                6..=8 if !live.is_empty() => {
                    let job = live.swap_remove(pick % live.len());
                    assert!(fleet.release(job, "ok") > 0);
                }
                9 | 10 if !live.is_empty() => {
                    let at = pick % live.len();
                    let job = live[at];
                    if place(job, users[&job]).is_none() {
                        live.swap_remove(at);
                    }
                    superseded += 1;
                }
                11 | 12 => {
                    let node = (r >> 40) as u32 % fleet.node_count() as u32;
                    let cluster = &fleet.shard(node).unwrap().cluster;
                    if cluster.device_count() > 0 {
                        let (minor, pid) =
                            (pick as u32 % cluster.device_count(), cluster.spawn_pid());
                        let mib = if (r >> 48) % 8 == 0 { 1 << 20 } else { (r >> 52) % 2_048 };
                        let process = GpuProcess::compute(pid, "linger", mib);
                        if cluster.attach_process(minor, process).is_ok() {
                            processes.push((node, minor, pid));
                        } else {
                            refused += 1;
                        }
                    }
                }
                13 if !processes.is_empty() => {
                    let (node, minor, pid) = processes.swap_remove(pick % processes.len());
                    fleet.shard(node).unwrap().cluster.detach_process(minor, pid).unwrap();
                }
                14 => {
                    // A drained node comes back at its next turn.
                    let shard = &fleet.shards()[pick % fleet.node_count()];
                    if shard.is_placeable() {
                        fleet.drain(&shard.name).expect("a ready node drains");
                    } else {
                        fleet.uncordon(&shard.name);
                    }
                }
                15 => {
                    let name = fleet.shards()[pick % fleet.node_count()].name.clone();
                    let dead = fleet.fail_node(&name).expect("known node");
                    lost += dead.len();
                    live.retain(|job| !dead.contains(job));
                    fleet.uncordon(&name);
                }
                _ => {}
            }
            users.retain(|job, _| live.contains(job));
            assert_books_match(&fleet, &users, &format!("{policy} seed {seed} step {step}"));
            let leases = fleet.loads(None).iter().map(|l| l.active_leases).max().unwrap_or(0);
            busiest = busiest.max(leases);
        }
        assert!(busiest > 8, "{policy} seed {seed} never oversubscribed a node: {busiest}");
        assert!(
            superseded > 0 && lost > 0 && refused > 0,
            "{policy} seed {seed}: {superseded} re-placed, {lost} lost, {refused} attaches refused"
        );
    }
}
