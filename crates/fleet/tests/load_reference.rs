//! `NodeShard::load` against the derivation it replaced.

use fleet::{NodeClass, NodeLoad, NodeShard};
use gpusim::{GpuProcess, VirtualClock};
use gyan::allocation::AllocationPolicy;

/// `NodeShard::load` as it stood at 0f6d93c, kept as the reference model:
/// a lease view under one hold of the table lock, every device read under
/// its own lock, and the lease count under a second hold. On one thread
/// the three snapshots are one instant, so the single-hold, lock-free
/// `load` must agree field by field.
fn reference_load(shard: &NodeShard) -> NodeLoad {
    let view = shard.table.view();
    let device_count = shard.cluster.device_count();
    let free_devices = (0..device_count)
        .filter(|minor| shard.cluster.with_device(*minor, |d| d.is_available()) == Ok(true))
        .filter(|minor| !view.is_leased(*minor))
        .count();
    NodeLoad {
        node: shard.id,
        device_count,
        active_leases: shard.table.lease_count(),
        free_devices,
        pending_mem_mib: (0..device_count).map(|minor| view.pending_mem(minor)).sum(),
        user_active: 0,
    }
}

/// 400 seeded steps per (class, seed) of acquire / release / re-acquire /
/// attach / detach: exclusive grants, shared grants once nothing is free
/// (the table oversubscribes, as the paper does), requests for a minor the
/// node does not have, attaches a full device refuses, and processes that
/// linger on devices no lease covers.
#[test]
fn load_equals_the_three_snapshot_derivation_field_by_field() {
    let clock = VirtualClock::new();
    let classes = [NodeClass::k80(), NodeClass::v100(), NodeClass::a100(), NodeClass::cpu()];
    for (class, seed) in classes.iter().flat_map(|c| (1..=8u64).map(move |seed| (c, seed))) {
        let shard = NodeShard::new(3, class.clone(), &clock);
        let count = shard.cluster.device_count();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut holders: Vec<u64> = Vec::new();
        let mut processes: Vec<(u32, u32)> = Vec::new();
        let mut busiest = 0;
        for step in 0..400u64 {
            let r = next();
            let pick = (r >> 8) as usize;
            let acquire = |holder: u64| {
                let pinned = [(r >> 16) as u32 % (count + 1)];
                let requested: &[u32] = if (r >> 24) % 3 == 0 { &[] } else { &pinned };
                let policy = [AllocationPolicy::ProcessId, AllocationPolicy::MemoryBased]
                    [(r >> 32) as usize % 2];
                let hint = (r >> 40) % 4_096;
                shard.table.allocate_and_lease(
                    &shard.cluster,
                    requested,
                    policy,
                    holder,
                    hint,
                    None,
                )
            };
            match r % 7 {
                0 | 1 => holders.extend(acquire(step).map(|_granted| step)),
                2 | 3 if !holders.is_empty() => {
                    let holder = holders.swap_remove(pick % holders.len());
                    assert!(shard.table.release(holder, "ok", None) > 0);
                }
                4 if count > 0 => {
                    let (minor, pid) = (pick as u32 % count, shard.cluster.spawn_pid());
                    // One in eight is larger than any die: refused.
                    let mib = if (r >> 48) % 8 == 0 { 1 << 20 } else { (r >> 40) % 2_048 };
                    let process = GpuProcess::compute(pid, "tool", mib);
                    if shard.cluster.attach_process(minor, process).is_ok() {
                        processes.push((minor, pid));
                    }
                }
                5 if !processes.is_empty() => {
                    let (minor, pid) = processes.swap_remove(pick % processes.len());
                    shard.cluster.detach_process(minor, pid).unwrap();
                }
                6 if !holders.is_empty() => {
                    // Re-preparation: the holder's leases are superseded.
                    acquire(holders[pick % holders.len()]).expect("a node with GPUs grants");
                }
                _ => {}
            }
            let load = shard.load();
            assert_eq!(load, reference_load(&shard), "{} seed {seed} step {step}", class.name);
            busiest = busiest.max(load.active_leases);
        }
        assert!(
            count == 0 || busiest > count as usize,
            "{} seed {seed} never oversubscribed: {busiest} leases on {count} devices",
            class.name
        );
    }
}
