//! GPU device allocation strategies — the paper's Pseudocode 2 plus the
//! Process Allocated Memory refinement (§IV-C1 and §IV-C2).
//!
//! Given a tool's requested GPU minor IDs (from the requirement's
//! `version` tag) and the live cluster state, compute the value to export
//! as `CUDA_VISIBLE_DEVICES`.
//!
//! The decision can additionally consult a [`ReservationView`] — a
//! snapshot of the [`crate::reservations::LeaseTable`] — so that devices
//! leased by not-yet-executing plans are treated as busy even though SMI
//! still reports them idle. This is what closes the observe→dispatch
//! TOCTOU window for same-wave placements.

use crate::gpu_usage::{get_gpu_usage, gpu_memory_usage};
use crate::reservations::ReservationView;
use gpusim::GpuCluster;
use obs::{Recorder, Value};
use std::collections::HashSet;

/// Which of GYAN's two device allocation strategies to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationPolicy {
    /// §IV-C1 *Process ID Approach*: a GPU is free iff it has no executing
    /// processes; when the requested GPU is busy fall back to all free
    /// GPUs, and when none are free expose **all** GPUs (scatter).
    #[default]
    ProcessId,
    /// §IV-C2 *Process Allocated Memory Approach*: when no GPU is free,
    /// place the job on the single GPU with the least allocated device
    /// memory instead of scattering — avoiding multi-GPU overhead for
    /// tools without multi-GPU support.
    MemoryBased,
}

/// Why the allocator exposed the devices it did (the audit trail the
/// telemetry records alongside the observed cluster state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationReason {
    /// Every requested device was free; the request was granted as-is.
    RequestedFree,
    /// The request was busy or leased (or there was no preference); the
    /// job got the currently free GPUs.
    FreeFallback,
    /// The request named at least one GPU minor ID that does not exist on
    /// this node (e.g. `[7]` on a 2-GPU node); the job got the free GPUs,
    /// but the audit records the bad request instead of silently treating
    /// it as "no preference".
    InvalidRequest,
    /// Nothing was free; the Process ID approach scattered the job across
    /// all GPUs.
    AllBusyScatter,
    /// Nothing was free; the Process Allocated Memory approach picked the
    /// GPU with the least allocated memory.
    AllBusyLeastMemory,
}

impl AllocationReason {
    /// Stable snake_case name used in audit events.
    pub fn as_str(self) -> &'static str {
        match self {
            AllocationReason::RequestedFree => "requested_free",
            AllocationReason::FreeFallback => "free_fallback",
            AllocationReason::InvalidRequest => "invalid_request",
            AllocationReason::AllBusyScatter => "all_busy_scatter",
            AllocationReason::AllBusyLeastMemory => "all_busy_least_memory",
        }
    }
}

/// The outcome of an allocation decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Value for `CUDA_VISIBLE_DEVICES` (comma-separated minor IDs).
    pub cuda_visible_devices: String,
    /// The parsed device list, in export order.
    pub devices: Vec<u32>,
    /// True when the requested device was free and granted as-is.
    pub granted_requested: bool,
    /// Why these devices were chosen.
    pub reason: AllocationReason,
}

/// Decide which GPUs to expose to a job.
///
/// `requested` is the tool's GPU minor ID list from the wrapper's
/// `version` tag (empty = no preference). Returns `None` when the node has
/// no GPUs at all.
///
/// This is the paper's lease-blind Pseudocode 2 over a fresh SMI poll;
/// dispatch goes through
/// [`crate::reservations::LeaseTable::allocate_and_lease`], which runs the
/// same decision with active leases folded in, audits it, and holds the
/// grant.
pub fn select_gpus(
    cluster: &GpuCluster,
    requested: &[u32],
    policy: AllocationPolicy,
) -> Option<Allocation> {
    decide(cluster, &get_gpu_usage(cluster), requested, policy, None)
}

/// The decision plus its `gyan.allocation.decision` audit event — the
/// inputs the allocator saw (per-device busy PIDs and allocated memory,
/// the free list, the request, what the leases contributed) and the
/// reason for its choice — computed from an already-taken SMI snapshot
/// (so the lease table can decide and reserve under one lock without
/// re-polling). Devices in `reservations` count as busy, and the Process
/// Allocated Memory policy adds each device's pending declared memory to
/// the SMI reading.
pub(crate) fn decide_traced(
    cluster: &GpuCluster,
    usage: &crate::gpu_usage::GpuUsage,
    requested: &[u32],
    policy: AllocationPolicy,
    reservations: Option<&ReservationView>,
    recorder: Option<&Recorder>,
) -> Option<Allocation> {
    let outcome = decide(cluster, usage, requested, policy, reservations);

    if let Some(rec) = recorder {
        let memory = gpu_memory_usage(cluster);
        let mut fields: Vec<(String, Value)> = vec![
            ("policy".into(), policy_name(policy).into()),
            ("requested".into(), join(requested).into()),
            ("all_gpus".into(), join(&usage.all_gpus).into()),
            ("avail_gpus".into(), join(&usage.avail_gpus).into()),
        ];
        let invalid = invalid_requested(usage, requested);
        if !invalid.is_empty() {
            fields.push(("invalid_requested".into(), join(&invalid).into()));
        }
        // The per-device state the decision was based on: busy PIDs and
        // allocated framebuffer memory.
        for (minor, pids) in &usage.proc_gpu_dict {
            fields.push((format!("gpu{minor}_pids"), join(pids).into()));
        }
        for (minor, used) in &memory {
            fields.push((format!("gpu{minor}_mem_mib"), (*used).into()));
        }
        // What the lease table contributed, when one was consulted.
        if let Some(view) = reservations {
            if !view.is_empty() {
                fields.push(("leased_gpus".into(), join(&view.leased_devices()).into()));
                fields.push((
                    "effective_avail".into(),
                    join(&effective_avail(usage, reservations)).into(),
                ));
                for minor in view.leased_devices() {
                    fields
                        .push((format!("gpu{minor}_pending_mib"), view.pending_mem(minor).into()));
                }
            }
        }
        match &outcome {
            Some(alloc) => {
                fields.push((
                    "cuda_visible_devices".into(),
                    alloc.cuda_visible_devices.as_str().into(),
                ));
                fields.push(("granted_requested".into(), alloc.granted_requested.into()));
                fields.push(("reason".into(), alloc.reason.as_str().into()));
            }
            None => fields.push(("reason".into(), "no_gpus_on_node".into())),
        }
        rec.event("gyan.allocation.decision", fields);
    }
    outcome
}

/// Requested minor IDs that do not exist on the node, in request order.
fn invalid_requested(usage: &crate::gpu_usage::GpuUsage, requested: &[u32]) -> Vec<u32> {
    let mut seen = HashSet::with_capacity(requested.len());
    requested
        .iter()
        .copied()
        .filter(|id| seen.insert(*id) && !usage.all_gpus.contains(id))
        .collect()
}

/// SMI-free devices minus leased ones.
fn effective_avail(
    usage: &crate::gpu_usage::GpuUsage,
    reservations: Option<&ReservationView>,
) -> Vec<u32> {
    usage
        .avail_gpus
        .iter()
        .copied()
        .filter(|id| reservations.is_none_or(|view| !view.is_leased(*id)))
        .collect()
}

pub(crate) fn decide(
    cluster: &GpuCluster,
    usage: &crate::gpu_usage::GpuUsage,
    requested: &[u32],
    policy: AllocationPolicy,
    reservations: Option<&ReservationView>,
) -> Option<Allocation> {
    if usage.all_gpus.is_empty() {
        return None;
    }

    // Deduplicate the request preserving order (a wrapper listing "0,0"
    // means device 0). A seen-set keeps this linear; the old
    // `contains`-scan was quadratic in the request length.
    let mut seen = HashSet::with_capacity(requested.len());
    let requested_dedup: Vec<u32> =
        requested.iter().copied().filter(|id| seen.insert(*id)).collect();
    let invalid_request = requested_dedup.iter().any(|id| !usage.all_gpus.contains(id));

    // A device is effectively free when SMI shows no processes *and* no
    // not-yet-executing plan holds a lease on it.
    let avail = effective_avail(usage, reservations);

    // Pseudocode 2: if gpu_id_to_query in avail_gps, grant it (all of the
    // requested ids must be free to grant the multi-GPU request). A
    // request naming a nonexistent device is never granted as-is.
    if !requested_dedup.is_empty() && !invalid_request {
        let all_free = requested_dedup.iter().all(|id| avail.contains(id));
        if all_free {
            return Some(make_allocation(requested_dedup, AllocationReason::RequestedFree));
        }
    }

    // Requested GPU busy/leased, request invalid, or no preference: fall
    // back to the effectively free GPUs. An invalid request is audited as
    // such instead of masquerading as "no preference".
    if !avail.is_empty() {
        let reason = if invalid_request {
            AllocationReason::InvalidRequest
        } else {
            AllocationReason::FreeFallback
        };
        return Some(make_allocation(avail, reason));
    }

    // Nothing effectively free: the two strategies diverge.
    let (devices, reason) = match policy {
        AllocationPolicy::ProcessId => {
            (usage.all_gpus.clone(), AllocationReason::AllBusyScatter) // scatter across all
        }
        AllocationPolicy::MemoryBased => {
            // Least *total* load: SMI-allocated memory plus the memory
            // pending leases declared they will allocate. Without the
            // pending term, a wave of placements would all pick the same
            // "least loaded" device.
            let mem = gpu_memory_usage(cluster);
            let min = mem
                .iter()
                .map(|(minor, used)| {
                    let pending = reservations.map_or(0, |view| view.pending_mem(*minor));
                    (*minor, *used + pending)
                })
                .min_by_key(|(minor, total)| (*total, *minor))
                .map(|(minor, _)| minor)
                .expect("non-empty gpu list");
            (vec![min], AllocationReason::AllBusyLeastMemory)
        }
    };
    Some(make_allocation(devices, reason))
}

fn make_allocation(devices: Vec<u32>, reason: AllocationReason) -> Allocation {
    let cuda_visible_devices = devices.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
    Allocation {
        cuda_visible_devices,
        devices,
        granted_requested: reason == AllocationReason::RequestedFree,
        reason,
    }
}

fn policy_name(policy: AllocationPolicy) -> &'static str {
    match policy {
        AllocationPolicy::ProcessId => "process_id",
        AllocationPolicy::MemoryBased => "memory_based",
    }
}

fn join<T: ToString>(items: &[T]) -> String {
    items.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservations::LeaseTable;
    use gpusim::GpuProcess;

    fn busy(cluster: &GpuCluster, minor: u32, pid: u32, mib: u64) {
        cluster.attach_process(minor, GpuProcess::compute(pid, "tool", mib)).unwrap();
    }

    /// The audited decision over a fresh SMI poll, as the lease table
    /// runs it: `reservations` folded in, `recorder` given the audit.
    fn select(
        cluster: &GpuCluster,
        requested: &[u32],
        policy: AllocationPolicy,
        reservations: Option<&ReservationView>,
        recorder: Option<&Recorder>,
    ) -> Option<Allocation> {
        decide_traced(cluster, &get_gpu_usage(cluster), requested, policy, reservations, recorder)
    }

    /// A view with leases held by the given holders on the given devices.
    fn leased_view(cluster: &GpuCluster, grants: &[(u64, u32, u64)]) -> ReservationView {
        let table = LeaseTable::new();
        for &(holder, device, hint) in grants {
            table.allocate_and_lease(
                cluster,
                &[device],
                AllocationPolicy::ProcessId,
                holder,
                hint,
                None,
            );
        }
        table.view()
    }

    #[test]
    fn requested_free_gpu_granted() {
        let c = GpuCluster::k80_node();
        let a = select_gpus(&c, &[1], AllocationPolicy::ProcessId).unwrap();
        assert_eq!(a.cuda_visible_devices, "1");
        assert!(a.granted_requested);
    }

    #[test]
    fn requested_busy_gpu_redirected_to_free_one() {
        // Paper Case 2: Bonito requests GPU 1 which is busy; it is
        // scheduled on the free GPU 0 instead.
        let c = GpuCluster::k80_node();
        busy(&c, 1, 100, 2700);
        let a = select_gpus(&c, &[1], AllocationPolicy::ProcessId).unwrap();
        assert_eq!(a.cuda_visible_devices, "0");
        assert!(!a.granted_requested);
    }

    #[test]
    fn no_preference_gets_all_free_gpus() {
        let c = GpuCluster::k80_node();
        let a = select_gpus(&c, &[], AllocationPolicy::ProcessId).unwrap();
        assert_eq!(a.cuda_visible_devices, "0,1");
        busy(&c, 0, 1, 10);
        let a = select_gpus(&c, &[], AllocationPolicy::ProcessId).unwrap();
        assert_eq!(a.cuda_visible_devices, "1");
    }

    #[test]
    fn all_busy_pid_policy_scatters() {
        // Paper Case 3: both GPUs busy → upcoming processes scattered to
        // both GPUs.
        let c = GpuCluster::k80_node();
        busy(&c, 0, 39953, 60);
        busy(&c, 1, 40534, 60);
        let a = select_gpus(&c, &[0], AllocationPolicy::ProcessId).unwrap();
        assert_eq!(a.cuda_visible_devices, "0,1");
        assert_eq!(a.devices, vec![0, 1]);
    }

    #[test]
    fn all_busy_memory_policy_picks_least_loaded() {
        // Paper Case 4: Racon (60 MiB) on GPU 0, Bonito (2.7 GB) on GPU 1;
        // a second Bonito goes to GPU 0 — "the GPU with minimum memory
        // usage was GPU 0 (with 60 MiB usage)".
        let c = GpuCluster::k80_node();
        busy(&c, 0, 43244, 60);
        busy(&c, 1, 45751, 2700);
        let a = select_gpus(&c, &[1], AllocationPolicy::MemoryBased).unwrap();
        assert_eq!(a.cuda_visible_devices, "0");
        assert_eq!(a.devices, vec![0]);
    }

    #[test]
    fn memory_policy_ties_break_by_minor_id() {
        let c = GpuCluster::k80_node();
        busy(&c, 0, 1, 100);
        busy(&c, 1, 2, 100);
        let a = select_gpus(&c, &[], AllocationPolicy::MemoryBased).unwrap();
        assert_eq!(a.cuda_visible_devices, "0");
    }

    #[test]
    fn multi_gpu_request_granted_when_all_free() {
        let c = GpuCluster::k80_node();
        let a = select_gpus(&c, &[0, 1], AllocationPolicy::ProcessId).unwrap();
        assert_eq!(a.cuda_visible_devices, "0,1");
        assert!(a.granted_requested);
    }

    #[test]
    fn multi_gpu_request_partially_busy_falls_back() {
        let c = GpuCluster::k80_node();
        busy(&c, 0, 7, 10);
        let a = select_gpus(&c, &[0, 1], AllocationPolicy::ProcessId).unwrap();
        assert!(!a.granted_requested);
        assert_eq!(a.cuda_visible_devices, "1");
    }

    #[test]
    fn duplicate_request_ids_collapse_preserving_order() {
        let c = GpuCluster::k80_node();
        let a = select_gpus(&c, &[1, 0, 1, 0], AllocationPolicy::ProcessId).unwrap();
        assert!(a.granted_requested);
        assert_eq!(a.cuda_visible_devices, "1,0");
    }

    #[test]
    fn nonexistent_requested_id_falls_back_to_free() {
        let c = GpuCluster::k80_node();
        let a = select_gpus(&c, &[7], AllocationPolicy::ProcessId).unwrap();
        assert!(!a.granted_requested);
        assert_eq!(a.cuda_visible_devices, "0,1");
        // The bad request is called out, not treated as "no preference".
        assert_eq!(a.reason, AllocationReason::InvalidRequest);
    }

    #[test]
    fn invalid_request_is_audited_in_the_decision_event() {
        let c = GpuCluster::k80_node();
        let rec = obs::Recorder::new();
        let a = select(&c, &[7, 0], AllocationPolicy::ProcessId, None, Some(&rec)).unwrap();
        // A partially-invalid request is never granted as-is.
        assert!(!a.granted_requested);
        assert_eq!(a.reason, AllocationReason::InvalidRequest);
        let e = &rec.events_named("gyan.allocation.decision")[0];
        assert_eq!(e.field("invalid_requested").and_then(|v| v.as_str()), Some("7"));
        assert_eq!(e.field("reason").and_then(|v| v.as_str()), Some("invalid_request"));
    }

    #[test]
    fn gpuless_node_returns_none() {
        let c = GpuCluster::cpu_only_node();
        assert!(select_gpus(&c, &[], AllocationPolicy::ProcessId).is_none());
        assert!(select_gpus(&c, &[0], AllocationPolicy::MemoryBased).is_none());
    }

    #[test]
    fn reason_tracks_decision_path() {
        let c = GpuCluster::k80_node();
        let a = select_gpus(&c, &[1], AllocationPolicy::ProcessId).unwrap();
        assert_eq!(a.reason, AllocationReason::RequestedFree);
        busy(&c, 1, 5, 10);
        let a = select_gpus(&c, &[1], AllocationPolicy::ProcessId).unwrap();
        assert_eq!(a.reason, AllocationReason::FreeFallback);
        busy(&c, 0, 6, 10);
        let a = select_gpus(&c, &[1], AllocationPolicy::ProcessId).unwrap();
        assert_eq!(a.reason, AllocationReason::AllBusyScatter);
        let a = select_gpus(&c, &[1], AllocationPolicy::MemoryBased).unwrap();
        assert_eq!(a.reason, AllocationReason::AllBusyLeastMemory);
    }

    #[test]
    fn leased_device_is_not_granted_even_when_smi_shows_it_free() {
        let c = GpuCluster::k80_node();
        let view = leased_view(&c, &[(1, 1, 100)]);
        // SMI sees both devices idle, but device 1 is leased.
        let a = select(&c, &[1], AllocationPolicy::ProcessId, Some(&view), None).unwrap();
        assert!(!a.granted_requested);
        assert_eq!(a.cuda_visible_devices, "0");
        assert_eq!(a.reason, AllocationReason::FreeFallback);
    }

    #[test]
    fn reserved_decision_audits_lease_inputs() {
        let c = GpuCluster::k80_node();
        let view = leased_view(&c, &[(1, 1, 640)]);
        let rec = obs::Recorder::new();
        select(&c, &[], AllocationPolicy::ProcessId, Some(&view), Some(&rec)).unwrap();
        let e = &rec.events_named("gyan.allocation.decision")[0];
        assert_eq!(e.field("leased_gpus").and_then(|v| v.as_str()), Some("1"));
        assert_eq!(e.field("effective_avail").and_then(|v| v.as_str()), Some("0"));
        assert_eq!(e.field("gpu1_pending_mib").and_then(|v| v.as_f64()), Some(640.0));
        // SMI still thinks both are available.
        assert_eq!(e.field("avail_gpus").and_then(|v| v.as_str()), Some("0,1"));
    }

    #[test]
    fn memory_policy_counts_pending_lease_memory_when_all_busy() {
        let c = GpuCluster::k80_node();
        // Lease while the device is still free (an exclusive grant), then
        // let both devices go busy: SMI memory ties at 100 MiB, and the
        // 2000 MiB pending lease on device 0 tips the least-memory choice
        // to device 1.
        let view = leased_view(&c, &[(9, 0, 2000)]);
        busy(&c, 0, 1, 100);
        busy(&c, 1, 2, 100);
        let a = select(&c, &[], AllocationPolicy::MemoryBased, Some(&view), None).unwrap();
        assert_eq!(a.reason, AllocationReason::AllBusyLeastMemory);
        assert_eq!(a.devices, vec![1]);
    }

    #[test]
    fn traced_selection_records_observed_inputs_and_reason() {
        let c = GpuCluster::k80_node();
        busy(&c, 0, 43244, 60);
        busy(&c, 1, 45751, 2700);
        let rec = obs::Recorder::new();
        let a = select(&c, &[1], AllocationPolicy::MemoryBased, None, Some(&rec)).unwrap();
        assert_eq!(a.cuda_visible_devices, "0");

        let events = rec.events_named("gyan.allocation.decision");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.field("policy").and_then(|v| v.as_str()), Some("memory_based"));
        assert_eq!(e.field("requested").and_then(|v| v.as_str()), Some("1"));
        assert_eq!(e.field("avail_gpus").and_then(|v| v.as_str()), Some(""));
        assert_eq!(e.field("gpu0_pids").and_then(|v| v.as_str()), Some("43244"));
        assert_eq!(e.field("gpu1_pids").and_then(|v| v.as_str()), Some("45751"));
        // Driver reservation (63 MiB) + process memory.
        assert_eq!(e.field("gpu0_mem_mib").and_then(|v| v.as_f64()), Some(123.0));
        assert_eq!(e.field("gpu1_mem_mib").and_then(|v| v.as_f64()), Some(2763.0));
        assert_eq!(e.field("reason").and_then(|v| v.as_str()), Some("all_busy_least_memory"));
        assert_eq!(e.field("cuda_visible_devices").and_then(|v| v.as_str()), Some("0"));
        // No lease table consulted → no lease fields.
        assert!(e.field("leased_gpus").is_none());
    }

    #[test]
    fn traced_selection_on_gpuless_node_records_why() {
        let c = GpuCluster::cpu_only_node();
        let rec = obs::Recorder::new();
        assert!(select(&c, &[], AllocationPolicy::ProcessId, None, Some(&rec)).is_none());
        let events = rec.events_named("gyan.allocation.decision");
        assert_eq!(events[0].field("reason").and_then(|v| v.as_str()), Some("no_gpus_on_node"));
    }
}
