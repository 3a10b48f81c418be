//! GPU device allocation strategies — the paper's Pseudocode 2 plus the
//! Process Allocated Memory refinement (§IV-C1 and §IV-C2).
//!
//! Given a tool's requested GPU minor IDs (from the requirement's
//! `version` tag) and one observation of the node, compute the value to
//! export as `CUDA_VISIBLE_DEVICES`.
//!
//! The decision is a **pure function** of `(usage, requested, policy,
//! lease view)`: `decide` never touches the cluster. Both strategies
//! read the same [`GpuUsage`] — the PID lists for §IV-C1, its
//! `fb_memory_usage.used` column for §IV-C2 — so there is one
//! observation per decision (the `nvidia-smi -q -x` XML is a rendering of
//! it, not a step of it), and the decision, the lease-blind baseline and
//! the `gyan.allocation.decision` audit all describe that one instant.
//!
//! The decision can additionally consult a [`ReservationView`] — a
//! snapshot of the [`crate::reservations::LeaseTable`] — so that devices
//! leased by not-yet-executing plans are treated as busy even though SMI
//! still reports them idle. This is what closes the observe→dispatch
//! TOCTOU window for same-wave placements.
//!
//! When the node could not be observed at all, the audit says so instead
//! of reporting a GPU-less node: `reason` is `smi_query_failed` (with the
//! error text in `error`) rather than `no_gpus_on_node`; the job degrades
//! to the CPU branch either way. `smi_output_malformed` is audited the
//! same way, but only an observation parsed from external text
//! ([`crate::gpu_usage::parse_gpu_usage`]) can carry it — the structured
//! query the lease table uses has no document to garble.

use crate::gpu_usage::{get_gpu_usage, GpuUsage, GpuUsageError};
use crate::reservations::ReservationView;
use gpusim::GpuCluster;
use obs::{Key, Recorder, Value};
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
    decide(&get_gpu_usage(cluster), requested, policy, None)
}

/// The decision plus its `gyan.allocation.decision` audit event — the
/// inputs the allocator saw (per-device busy PIDs and allocated memory,
/// the free list, the request, what the leases contributed) and the
/// reason for its choice — all read from the one observation the lease
/// table took under its lock. `observed` is that observation's outcome: on
/// `Err` nothing is granted and the audit names the failure. Devices in
/// `reservations` count as busy, and the Process Allocated Memory policy
/// adds each device's pending declared memory to the SMI reading.
pub(crate) fn decide_traced(
    observed: &Result<GpuUsage, GpuUsageError>,
    requested: &[u32],
    policy: AllocationPolicy,
    reservations: Option<&ReservationView>,
    recorder: Option<&Recorder>,
) -> Option<Allocation> {
    let no_gpus = GpuUsage::default();
    let usage = observed.as_ref().unwrap_or(&no_gpus);
    let outcome = decide(usage, requested, policy, reservations);

    if let Some(rec) = recorder {
        // Room for every field below (4 fixed, `invalid_requested`, up to
        // 3 of the outcome), so the list is allocated once.
        let leased = reservations.filter(|view| !view.is_empty());
        let capacity = 8 + 2 * usage.all_gpus.len() + leased.map_or(0, |view| 2 + view.len());
        let mut fields: Vec<(Key, Value)> = Vec::with_capacity(capacity);
        fields.extend([
            ("policy".into(), policy_name(policy).into()),
            ("requested".into(), join(requested).into()),
            ("all_gpus".into(), join(&usage.all_gpus).into()),
            ("avail_gpus".into(), join(&usage.avail_gpus).into()),
        ]);
        let invalid = invalid_requested(usage, requested);
        if !invalid.is_empty() {
            fields.push(("invalid_requested".into(), join(&invalid).into()));
        }
        // The per-device state the decision was based on: busy PIDs and
        // allocated framebuffer memory.
        for (minor, pids) in &usage.proc_gpu_dict {
            fields.push((device_key(*minor, "_pids"), join(pids).into()));
        }
        for (minor, used) in &usage.used_mib {
            fields.push((device_key(*minor, "_mem_mib"), (*used).into()));
        }
        // What the lease table contributed, when one was consulted.
        if let Some(view) = leased {
            fields.push(("leased_gpus".into(), join(&view.leased_devices()).into()));
            fields.push((
                "effective_avail".into(),
                join(&effective_avail(usage, reservations)).into(),
            ));
            for (minor, pending) in view.pending() {
                fields.push((device_key(minor, "_pending_mib"), pending.into()));
            }
        }
        match (&outcome, observed) {
            (Some(alloc), _) => {
                fields.push((
                    "cuda_visible_devices".into(),
                    alloc.cuda_visible_devices.as_str().into(),
                ));
                fields.push(("granted_requested".into(), alloc.granted_requested.into()));
                fields.push(("reason".into(), alloc.reason.as_str().into()));
            }
            (None, Ok(_)) => fields.push(("reason".into(), "no_gpus_on_node".into())),
            (None, Err(e)) => {
                fields.push(("reason".into(), e.reason().into()));
                fields.push(("error".into(), e.to_string().into()));
            }
        }
        rec.event("gyan.allocation.decision", fields);
    }
    outcome
}

/// Requested minor IDs that do not exist on the node, in request order.
fn invalid_requested(usage: &GpuUsage, requested: &[u32]) -> Vec<u32> {
    let mut seen = HashSet::with_capacity(requested.len());
    requested
        .iter()
        .copied()
        .filter(|id| seen.insert(*id) && !usage.all_gpus.contains(id))
        .collect()
}

/// SMI-free devices minus leased ones.
fn effective_avail(usage: &GpuUsage, reservations: Option<&ReservationView>) -> Vec<u32> {
    usage
        .avail_gpus
        .iter()
        .copied()
        .filter(|id| reservations.is_none_or(|view| !view.is_leased(*id)))
        .collect()
}

/// The paper's Case 1–4 table as a pure function of one observation: no
/// cluster handle, no second poll.
pub(crate) fn decide(
    usage: &GpuUsage,
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
            // "least loaded" device. `used_mib` has a row per device of
            // the non-empty `all_gpus` (one constructor builds both).
            let pending = |minor| reservations.map_or(0, |view| view.pending_mem(minor));
            let &(min, _) = usage
                .used_mib
                .iter()
                .min_by_key(|&&(minor, used)| (used.saturating_add(pending(minor)), minor))?;
            (vec![min], AllocationReason::AllBusyLeastMemory)
        }
    };
    Some(make_allocation(devices, reason))
}

fn make_allocation(devices: Vec<u32>, reason: AllocationReason) -> Allocation {
    Allocation {
        cuda_visible_devices: join(&devices),
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

/// Comma-joined id list — the one rendering of device and PID lists in
/// exports and audits — written into one exactly-sized buffer (an
/// `obs::Value` takes over a long list's allocation as it is).
pub(crate) fn join(ids: &[u32]) -> String {
    let width = |id: u32| id.checked_ilog10().map_or(1, |log| log as usize + 1);
    let len: usize = ids.iter().map(|&id| width(id) + 1).sum();
    let mut out = String::with_capacity(len.saturating_sub(1));
    let mut digits = [0; 10];
    for (i, &id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(decimal(id, &mut digits));
    }
    out
}

/// `gpu{minor}{suffix}`, the key of one device's column in the decision
/// audit, built in place (every one of them fits an `obs::Key`).
fn device_key(minor: u32, suffix: &str) -> Key {
    Key::concat(&["gpu", decimal(minor, &mut [0; 10]), suffix])
}

/// `n` in decimal, written into the tail of `digits`.
fn decimal(mut n: u32, digits: &mut [u8; 10]) -> &str {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&digits[at..]).expect("ASCII digits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_usage::{parse_gpu_usage, try_get_gpu_usage};
    use crate::reservations::LeaseTable;
    use gpusim::{GpuArch, GpuProcess};
    use proptest::prelude::*;

    fn busy(cluster: &GpuCluster, minor: u32, pid: u32, mib: u64) {
        cluster.attach_process(minor, GpuProcess::compute(pid, "tool", mib)).unwrap();
    }

    /// The audited decision over one fresh SMI poll, as the lease table
    /// runs it: `reservations` folded in, `recorder` given the audit.
    fn select(
        cluster: &GpuCluster,
        requested: &[u32],
        policy: AllocationPolicy,
        reservations: Option<&ReservationView>,
        recorder: Option<&Recorder>,
    ) -> Option<Allocation> {
        decide_traced(&try_get_gpu_usage(cluster), requested, policy, reservations, recorder)
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

    #[test]
    fn unobservable_node_grants_nothing_and_audits_the_failure_by_name() {
        let rec = obs::Recorder::new();
        let c = GpuCluster::k80_node();
        c.inject_smi_query_failures(1);
        assert!(select(&c, &[1], AllocationPolicy::ProcessId, None, Some(&rec)).is_none());
        let garbled = Err(parse_gpu_usage("<nvidia_smi_log><gpu>").unwrap_err());
        assert!(decide_traced(&garbled, &[1], AllocationPolicy::MemoryBased, None, Some(&rec))
            .is_none());

        let events = rec.events_named("gyan.allocation.decision");
        let field = |i: usize, name: &str| {
            events[i].field(name).and_then(|v| v.as_str()).map(str::to_string).unwrap_or_default()
        };
        assert_eq!(field(0, "reason"), "smi_query_failed");
        assert!(field(0, "error").contains("NVIDIA-SMI has failed"), "{}", field(0, "error"));
        assert_eq!(field(1, "reason"), "smi_output_malformed");
        assert!(field(1, "error").contains("malformed nvidia-smi output"), "{}", field(1, "error"));
        // The fields every decision audit carries are still there.
        for i in 0..2 {
            assert_eq!(field(i, "requested"), "1");
            assert_eq!(field(i, "all_gpus"), "");
        }
    }

    // ---- oracle: `decide` against the paper's Case 1–4 table ------------

    /// Synthetic per-device rows the simulator cannot produce: up to 8
    /// devices with non-contiguous, unordered minors and PID/memory
    /// columns that need not agree with each other. Memory comes in
    /// 500 MiB steps (as do the lease hints) so that ties, and pending
    /// memory that overturns the SMI ordering, are the common case.
    fn rows_strategy() -> impl Strategy<Value = Vec<(u32, Vec<u32>, u64)>> {
        prop::collection::vec(
            (0u32..12, prop::collection::vec(1u32..60_000, 0..3), (0u64..4).prop_map(|k| k * 500)),
            0..=8,
        )
        .prop_map(|mut rows| {
            let mut seen = HashSet::new();
            rows.retain(|(minor, _, _)| seen.insert(*minor));
            rows
        })
    }

    /// A lease view holding `hint` MiB on each listed device, taken from a
    /// real table over an idle 16-GPU node (where every request is free).
    fn view_of(leases: &[(u32, u64)]) -> ReservationView {
        let node = GpuCluster::node(GpuArch::tesla_k80(), 16);
        let table = LeaseTable::new();
        for (holder, &(device, hint)) in leases.iter().enumerate() {
            let policy = AllocationPolicy::ProcessId;
            table.allocate_and_lease(&node, &[device], policy, holder as u64, hint, None);
        }
        table.view()
    }

    /// The paper's table, transcribed row by row with no code shared with
    /// `decide`.
    fn paper_table(
        rows: &[(u32, Vec<u32>, u64)],
        requested: &[u32],
        policy: AllocationPolicy,
        view: &ReservationView,
    ) -> Option<(Vec<u32>, AllocationReason)> {
        if rows.is_empty() {
            return None;
        }
        let exists = |id: u32| rows.iter().any(|(minor, _, _)| *minor == id);
        let mut free = Vec::new();
        for (minor, pids, _) in rows {
            if pids.is_empty() && !view.is_leased(*minor) {
                free.push(*minor);
            }
        }
        let mut wanted: Vec<u32> = Vec::new();
        for id in requested {
            if !wanted.contains(id) {
                wanted.push(*id);
            }
        }
        // Cases 1 and 2, first half: every requested device exists and is free.
        if !wanted.is_empty() && wanted.iter().all(|id| exists(*id) && free.contains(id)) {
            return Some((wanted, AllocationReason::RequestedFree));
        }
        // Case 2: requested busy (or no/invalid preference) -> the free devices.
        if !free.is_empty() {
            let reason = if wanted.iter().all(|id| exists(*id)) {
                AllocationReason::FreeFallback
            } else {
                AllocationReason::InvalidRequest
            };
            return Some((free, reason));
        }
        match policy {
            // Case 3: all busy, Process-ID approach -> scatter over every device.
            AllocationPolicy::ProcessId => Some((
                rows.iter().map(|(minor, _, _)| *minor).collect(),
                AllocationReason::AllBusyScatter,
            )),
            // Case 4: all busy, Memory approach -> least (used + pending), ties to
            // the lower minor.
            AllocationPolicy::MemoryBased => {
                let mut best: Option<(u64, u32)> = None;
                for (minor, _, used) in rows {
                    let key = (*used + view.pending_mem(*minor), *minor);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                best.map(|(_, minor)| (vec![minor], AllocationReason::AllBusyLeastMemory))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decide_matches_the_papers_case_table(
            rows in rows_strategy(),
            all_busy in any::<bool>(),
            requested in prop::collection::vec(0u32..14, 0..4),
            leases in prop::collection::vec((0u32..12, (0u64..4).prop_map(|k| k * 500)), 0..6),
            memory_policy in any::<bool>(),
        ) {
            // Half the cases force Cases 3/4, which random rows rarely reach.
            let rows: Vec<_> = rows
                .into_iter()
                .map(|(minor, pids, used)| {
                    (minor, if all_busy && pids.is_empty() { vec![minor + 1] } else { pids }, used)
                })
                .collect();
            let policy = if memory_policy {
                AllocationPolicy::MemoryBased
            } else {
                AllocationPolicy::ProcessId
            };
            let mut leased = HashSet::new();
            let leases: Vec<_> = leases.into_iter().filter(|(d, _)| leased.insert(*d)).collect();
            let view = view_of(&leases);
            for (device, hint) in &leases {
                prop_assert!(view.is_leased(*device));
                prop_assert_eq!(view.pending_mem(*device), *hint);
            }

            let usage = GpuUsage::from_devices(rows.clone());
            let got = decide(&usage, &requested, policy, Some(&view));
            let want = paper_table(&rows, &requested, policy, &view);
            prop_assert_eq!(got.as_ref().map(|a| (a.devices.clone(), a.reason)), want);
            if let Some(alloc) = got {
                prop_assert_eq!(alloc.granted_requested, alloc.reason == AllocationReason::RequestedFree);
                let mask: Vec<String> = alloc.devices.iter().map(u32::to_string).collect();
                prop_assert_eq!(alloc.cuda_visible_devices, mask.join(","));
            }
            // An empty view and no view are the same lease-blind decision.
            prop_assert_eq!(
                decide(&usage, &requested, policy, None),
                decide(&usage, &requested, policy, Some(&ReservationView::default()))
            );
        }
    }
}
