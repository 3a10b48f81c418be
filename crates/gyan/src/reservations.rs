//! Device reservations: closing the observe→dispatch TOCTOU window.
//!
//! The paper's allocation scheme polls `nvidia-smi`, then launches the
//! job — a classic time-of-check/time-of-use race. Our substrate
//! reproduces it faithfully: the queue engine prepares **all** plans of a
//! dispatch wave against the pre-wave cluster state, so two same-wave
//! jobs can both observe GPU 1 free, both export
//! `CUDA_VISIBLE_DEVICES=1`, and the paper's Case 1–4 placement
//! guarantees silently break under concurrency.
//!
//! [`LeaseTable`] closes the window. It is a shared table of *leases*
//! keyed by GPU minor ID that the allocator consults **in addition to**
//! live SMI state: a device leased by a not-yet-executing plan is no
//! longer "free" to the next plan in the same wave. The check and the
//! reservation happen atomically under one lock
//! ([`LeaseTable::allocate_and_lease`]), so no interleaving of
//! preparations can double-book a device.
//!
//! Under that lock the node is observed **once** — one observation per
//! decision, taken as structured per-device rows; the `nvidia-smi -q -x`
//! XML is a rendering of it that no decision renders or parses. The
//! lease-aware decision, the lease-blind baseline of the conflict audit
//! and the `gyan.allocation.decision` record all read the same
//! [`crate::gpu_usage::GpuUsage`], so they describe one instant. A node
//! that could not be observed grants nothing and is audited as
//! `reason=smi_query_failed` (never as `no_gpus_on_node`); the job runs
//! on the CPU branch.
//!
//! Lease lifecycle:
//!
//! * **acquired** at plan-preparation time (the GYAN hook's
//!   `before_dispatch`), carrying the holder job id, acquisition time,
//!   and a declared memory hint;
//! * **released** on job finish, terminal failure, preparation failure,
//!   retryable failure (*before* the resubmitted attempt re-prepares),
//!   and discard shutdown (via [`LeaseTable::discard_listener`]);
//! * re-preparation re-acquires: a holder's stale leases are superseded
//!   when it allocates again.
//!
//! Grants taken from the free path are **exclusive** — at most one
//! exclusive lease may exist per device. Grants taken when nothing is
//! effectively free (the Process-ID scatter and least-memory placements)
//! are **shared**: the paper deliberately oversubscribes busy devices,
//! and the lease table preserves that while still recording who is
//! co-located where. The Process-Allocated-Memory policy counts pending
//! leases' declared memory hints on top of the SMI reading, so a wave of
//! placements spreads by *future* memory load, not just current.
//!
//! Everything is audited: `gyan.reservation.acquire` / `.release` /
//! `.conflict` events (the conflict event records what the allocator
//! *would* have done without leases, and which holders blocked that),
//! plus active-lease gauge and acquire/release/conflict counters.

use crate::allocation::{
    decide, decide_traced, join, Allocation, AllocationPolicy, AllocationReason,
};
use crate::gpu_usage::try_get_gpu_usage;
use gpusim::GpuCluster;
use obs::{Key, Recorder, Value};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Gauge: leases currently held across all devices.
pub const RESERVATIONS_ACTIVE_GAUGE: &str = "gyan_reservations_active";
/// Counter: leases acquired (one per device per grant).
pub const RESERVATIONS_ACQUIRED_COUNTER: &str = "gyan_reservations_acquired_total";
/// Counter: leases released.
pub const RESERVATIONS_RELEASED_COUNTER: &str = "gyan_reservations_released_total";
/// Counter: allocations redirected because a lease made the unleased
/// choice unavailable.
pub const RESERVATION_CONFLICTS_COUNTER: &str = "gyan_reservation_conflicts_total";

/// One active device reservation.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// GPU minor ID the lease covers.
    pub device: u32,
    /// Job id holding the lease.
    pub holder: u64,
    /// Recorder-clock time the lease was acquired.
    pub acquired_at: f64,
    /// Device memory the holder declared it will allocate (MiB); counted
    /// by the Process-Allocated-Memory policy as pending load.
    pub memory_hint_mib: u64,
    /// Exclusive leases come from free-path grants (at most one per
    /// device); shared leases from the all-busy placements.
    pub exclusive: bool,
}

/// Immutable snapshot of the lease state, consumed by the allocator: the
/// leased devices and the pending declared memory on each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReservationView {
    /// `(minor, sum of memory hints in MiB)` of every device with at
    /// least one lease, by ascending minor.
    leased: Vec<(u32, u64)>,
}

impl ReservationView {
    fn find(&self, minor: u32) -> Option<u64> {
        let at = self.leased.binary_search_by_key(&minor, |&(device, _)| device).ok()?;
        Some(self.leased[at].1)
    }

    /// Whether any lease covers `minor`.
    pub fn is_leased(&self, minor: u32) -> bool {
        self.find(minor).is_some()
    }

    /// Sum of memory hints of leases on `minor` (MiB).
    pub fn pending_mem(&self, minor: u32) -> u64 {
        self.find(minor).unwrap_or(0)
    }

    /// Sorted minor IDs with at least one lease.
    pub fn leased_devices(&self) -> Vec<u32> {
        self.leased.iter().map(|&(minor, _)| minor).collect()
    }

    /// `(minor, pending MiB)` of every leased device, by ascending minor.
    pub(crate) fn pending(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.leased.iter().copied()
    }

    /// Number of leased devices.
    pub(crate) fn len(&self) -> usize {
        self.leased.len()
    }

    /// True when no lease is active.
    pub fn is_empty(&self) -> bool {
        self.leased.is_empty()
    }
}

/// What a node-level scheduler scores a node by, taken under one hold of
/// the table's lock ([`LeaseTable::summary`]): the three numbers describe
/// one instant of the table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseSummary {
    /// Active leases across all devices.
    pub active_leases: usize,
    /// Sum of the active leases' declared memory hints (MiB).
    pub pending_mem_mib: u64,
    /// Devices that are effectively free — no resident process and no
    /// lease — which is the allocator's own notion of free.
    pub free_devices: usize,
}

#[derive(Default)]
struct Inner {
    /// Leases per device, in acquisition order. A device's list stays
    /// here once it empties (the map is bounded by the node's device
    /// count), so its next grant pushes into the capacity it kept instead
    /// of allocating a list and a map node; every reader skips empty
    /// lists.
    leases: BTreeMap<u32, Vec<Lease>>,
}

impl Inner {
    fn view(&self) -> ReservationView {
        let leased_devices = self.leases.values().filter(|leases| !leases.is_empty()).count();
        let mut leased = Vec::with_capacity(leased_devices);
        for (minor, leases) in &self.leases {
            if !leases.is_empty() {
                leased.push((*minor, leases.iter().map(|l| l.memory_hint_mib).sum()));
            }
        }
        ReservationView { leased }
    }

    fn count(&self) -> usize {
        self.leases.values().map(Vec::len).sum()
    }
}

/// The shared lease table. Clones share state; the table is thread-safe
/// (the queue engine prepares plans on one thread, but the discard
/// listener runs on pool worker threads).
#[derive(Clone, Default)]
pub struct LeaseTable {
    inner: Arc<Mutex<Inner>>,
}

impl LeaseTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically: observe the node **once** (one structured SMI query),
    /// run the allocation policy with the current leases folded in,
    /// record the decision audit, detect and audit conflicts (where the
    /// lease-blind decision would have differed), and insert leases for
    /// the granted devices — all under one lock and all from that one
    /// `GpuUsage`, so concurrent preparations cannot double-book and the
    /// decision, the baseline and the audit describe the same instant.
    ///
    /// Any stale leases `holder` already held are superseded first
    /// (re-preparation re-acquires). Returns the allocation, or `None` on
    /// a GPU-less node or one whose query failed (audited as
    /// `reason=smi_query_failed`, not as `no_gpus_on_node`); either way
    /// the job degrades to the CPU branch.
    pub fn allocate_and_lease(
        &self,
        cluster: &GpuCluster,
        requested: &[u32],
        policy: AllocationPolicy,
        holder: u64,
        memory_hint_mib: u64,
        recorder: Option<&Recorder>,
    ) -> Option<Allocation> {
        obs::profile_scope!("gyan.allocate");
        let mut inner = self.inner.lock();
        {
            obs::profile_scope!("alloc.supersede");
            release_locked(&mut inner, holder, "superseded", recorder);
        }
        let observed = {
            obs::profile_scope!("alloc.observe");
            try_get_gpu_usage(cluster)
        };
        let view = inner.view();
        let _place = obs::profile::global().scope("alloc.place");
        let alloc = decide_traced(&observed, requested, policy, Some(&view), recorder)?;

        // Conflict: the same observation without leases would have granted
        // a different device set — record what blocked the baseline choice.
        if !view.is_empty() {
            let baseline =
                observed.as_ref().ok().and_then(|usage| decide(usage, requested, policy, None));
            if let Some(baseline) = baseline.filter(|b| b.devices != alloc.devices) {
                self.audit_conflict(&inner, holder, requested, &baseline, &alloc, recorder);
            }
        }
        drop(_place);

        obs::profile_scope!("alloc.lease");
        let exclusive = matches!(
            alloc.reason,
            AllocationReason::RequestedFree
                | AllocationReason::FreeFallback
                | AllocationReason::InvalidRequest
        );
        let now = recorder.map_or(0.0, Recorder::now);
        for &device in &alloc.devices {
            debug_assert!(
                !exclusive || inner.leases.get(&device).is_none_or(|l| l.is_empty()),
                "exclusive grant on an already-leased device"
            );
            inner.leases.entry(device).or_default().push(Lease {
                device,
                holder,
                acquired_at: now,
                memory_hint_mib,
                exclusive,
            });
        }
        if let Some(rec) = recorder {
            let reason = Key::from(alloc.reason.as_str());
            rec.event_rows(
                "gyan.reservation.acquire",
                alloc.devices.iter().map(|&device| {
                    [
                        ("job_id", Value::from(holder)),
                        ("device", Value::from(u64::from(device))),
                        ("exclusive", Value::from(exclusive)),
                        ("memory_hint_mib", Value::from(memory_hint_mib)),
                        ("reason", Value::from(reason.clone())),
                    ]
                }),
            );
            let m = rec.metrics();
            m.inc_counter(RESERVATIONS_ACQUIRED_COUNTER, alloc.devices.len() as u64);
            m.set_gauge(RESERVATIONS_ACTIVE_GAUGE, inner.count() as f64);
        }
        Some(alloc)
    }

    fn audit_conflict(
        &self,
        inner: &Inner,
        holder: u64,
        requested: &[u32],
        baseline: &Allocation,
        actual: &Allocation,
        recorder: Option<&Recorder>,
    ) {
        let Some(rec) = recorder else { return };
        rec.metrics().inc_counter(RESERVATION_CONFLICTS_COUNTER, 1);
        // Which holders stood in the way of the lease-blind choice.
        let blocked_by: Vec<String> = baseline
            .devices
            .iter()
            .filter(|d| !actual.devices.contains(d))
            .flat_map(|d| {
                inner
                    .leases
                    .get(d)
                    .into_iter()
                    .flatten()
                    .map(|l| format!("{}:job{}", l.device, l.holder))
            })
            .collect();
        rec.event(
            "gyan.reservation.conflict",
            [
                ("job_id", Value::from(holder)),
                ("requested", Value::from(join(requested))),
                ("baseline_devices", Value::from(join(&baseline.devices))),
                ("granted_devices", Value::from(join(&actual.devices))),
                ("baseline_reason", Value::from(baseline.reason.as_str())),
                ("granted_reason", Value::from(actual.reason.as_str())),
                ("blocked_by", Value::from(blocked_by.join(","))),
            ],
        );
    }

    /// Release every lease `holder` holds, auditing each as
    /// `gyan.reservation.release` with `why` (e.g. `ok`,
    /// `failed_retryable`, `discarded`). Returns the number released
    /// (0 when the holder had none — releasing is idempotent).
    pub fn release(&self, holder: u64, why: &str, recorder: Option<&Recorder>) -> usize {
        obs::profile_scope!("alloc.release");
        let mut inner = self.inner.lock();
        release_locked(&mut inner, holder, why, recorder)
    }

    /// Snapshot the current lease state for a lease-aware allocation
    /// outside the table (e.g. the destination rule's observation).
    pub fn view(&self) -> ReservationView {
        self.inner.lock().view()
    }

    /// Summarize the load on `cluster` — the node this table leases —
    /// under one hold of the lock, without allocating and without a
    /// device lock (availability is [`GpuCluster::is_device_available`]).
    pub fn summary(&self, cluster: &GpuCluster) -> LeaseSummary {
        let inner = self.inner.lock();
        let mut summary = LeaseSummary::default();
        for lease in inner.leases.values().flatten() {
            summary.active_leases += 1;
            summary.pending_mem_mib += lease.memory_hint_mib;
        }
        // Each device's flag is read once, so a concurrent device write
        // moves the count by at most that device.
        summary.free_devices = (0..cluster.device_count())
            .filter(|minor| {
                cluster.is_device_available(*minor)
                    && inner.leases.get(minor).is_none_or(|leases| leases.is_empty())
            })
            .count();
        summary
    }

    /// Total active leases.
    pub fn lease_count(&self) -> usize {
        self.inner.lock().count()
    }

    /// Active leases on `minor`, in acquisition order.
    pub fn leases_on(&self, minor: u32) -> Vec<Lease> {
        self.inner.lock().leases.get(&minor).cloned().unwrap_or_default()
    }

    /// Every active lease across all devices, ordered by device minor
    /// then acquisition — one consistent snapshot for invariant checkers.
    pub fn all_leases(&self) -> Vec<Lease> {
        self.inner.lock().leases.values().flatten().cloned().collect()
    }

    /// The largest number of simultaneous leases on any one device — the
    /// oversubscription degree the SLO alert rules watch (1 is healthy;
    /// above 1 means all-busy shared placements are piling up).
    pub fn max_leases_per_device(&self) -> usize {
        self.inner.lock().leases.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Sorted, deduplicated job ids currently holding at least one lease.
    pub fn holders(&self) -> Vec<u64> {
        let inner = self.inner.lock();
        let set: BTreeSet<u64> = inner.leases.values().flatten().map(|l| l.holder).collect();
        set.into_iter().collect()
    }

    /// A [`galaxy::scheduler::HandlerPool`] discard listener releasing
    /// the leases of plans skipped by a discard shutdown. Runs on pool
    /// worker threads, hence the owned recorder clone.
    pub fn discard_listener(&self, recorder: Option<Recorder>) -> Arc<dyn Fn(u64) + Send + Sync> {
        let table = self.clone();
        Arc::new(move |job_id| {
            table.release(job_id, "discarded", recorder.as_ref());
        })
    }
}

fn release_locked(inner: &mut Inner, holder: u64, why: &str, recorder: Option<&Recorder>) -> usize {
    // The audits first, as one batch in device order; then the leases go.
    // Most releases find nothing held (every CPU job's, every first
    // preparation's supersede) and read no clock.
    let mut held =
        inner.leases.values().flatten().filter(|lease| lease.holder == holder).peekable();
    if let (Some(rec), Some(_)) = (recorder, held.peek()) {
        let now = rec.now();
        let why = Key::concat(&[why]);
        rec.event_rows(
            "gyan.reservation.release",
            held.map(|lease| {
                [
                    ("job_id", Value::from(holder)),
                    ("device", Value::from(u64::from(lease.device))),
                    ("reason", Value::from(why.clone())),
                    ("held_seconds", Value::from((now - lease.acquired_at).max(0.0))),
                ]
            }),
        );
    }
    let mut released = 0usize;
    for leases in inner.leases.values_mut() {
        let held = leases.len();
        leases.retain(|lease| lease.holder != holder);
        released += held - leases.len();
    }
    if released > 0 {
        if let Some(rec) = recorder {
            let m = rec.metrics();
            m.inc_counter(RESERVATIONS_RELEASED_COUNTER, released as u64);
            m.set_gauge(RESERVATIONS_ACTIVE_GAUGE, inner.count() as f64);
        }
    }
    released
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::GpuProcess;

    fn table() -> (GpuCluster, LeaseTable, Recorder) {
        (GpuCluster::k80_node(), LeaseTable::new(), Recorder::new())
    }

    #[test]
    fn leased_device_is_not_free_to_the_next_plan() {
        let (c, t, rec) = table();
        // Job 1 requests device 1 on an idle node: granted, leased.
        let a1 = t.allocate_and_lease(&c, &[1], AllocationPolicy::ProcessId, 1, 100, Some(&rec));
        assert_eq!(a1.unwrap().cuda_visible_devices, "1");
        // Job 2 requests the same device in the same wave (SMI still shows
        // it free): redirected to device 0 — the race the table closes.
        let a2 = t.allocate_and_lease(&c, &[1], AllocationPolicy::ProcessId, 2, 100, Some(&rec));
        let a2 = a2.unwrap();
        assert_eq!(a2.cuda_visible_devices, "0");
        assert!(!a2.granted_requested);
        assert_eq!(t.lease_count(), 2);
        assert_eq!(t.holders(), vec![1, 2]);
    }

    #[test]
    fn conflict_event_records_what_was_blocked_and_by_whom() {
        let (c, t, rec) = table();
        t.allocate_and_lease(&c, &[1], AllocationPolicy::ProcessId, 1, 100, Some(&rec));
        t.allocate_and_lease(&c, &[1], AllocationPolicy::ProcessId, 2, 100, Some(&rec));
        let conflicts = rec.events_named("gyan.reservation.conflict");
        assert_eq!(conflicts.len(), 1);
        let e = &conflicts[0];
        assert_eq!(e.field("job_id").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(e.field("baseline_devices").and_then(|v| v.as_str()), Some("1"));
        assert_eq!(e.field("granted_devices").and_then(|v| v.as_str()), Some("0"));
        assert_eq!(e.field("blocked_by").and_then(|v| v.as_str()), Some("1:job1"));
        assert_eq!(rec.metrics().counter_value(RESERVATION_CONFLICTS_COUNTER), 1);
    }

    #[test]
    fn release_frees_the_device_and_settles_metrics() {
        let (c, t, rec) = table();
        t.allocate_and_lease(&c, &[1], AllocationPolicy::ProcessId, 1, 100, Some(&rec));
        assert_eq!(t.release(1, "ok", Some(&rec)), 1);
        assert_eq!(t.lease_count(), 0);
        // The device is immediately grantable again.
        let a = t.allocate_and_lease(&c, &[1], AllocationPolicy::ProcessId, 2, 100, Some(&rec));
        assert!(a.unwrap().granted_requested);
        let m = rec.metrics();
        assert_eq!(m.counter_value(RESERVATIONS_ACQUIRED_COUNTER), 2);
        assert_eq!(m.counter_value(RESERVATIONS_RELEASED_COUNTER), 1);
        let release = &rec.events_named("gyan.reservation.release")[0];
        assert_eq!(release.field("reason").and_then(|v| v.as_str()), Some("ok"));
        // Releasing again is a no-op.
        assert_eq!(t.release(1, "ok", Some(&rec)), 0);
    }

    #[test]
    fn reacquire_supersedes_stale_leases() {
        let (c, t, rec) = table();
        t.allocate_and_lease(&c, &[0], AllocationPolicy::ProcessId, 7, 100, Some(&rec));
        // The same holder re-prepares (resubmission): old lease replaced,
        // not stacked.
        t.allocate_and_lease(&c, &[1], AllocationPolicy::ProcessId, 7, 100, Some(&rec));
        assert_eq!(t.lease_count(), 1);
        assert_eq!(t.leases_on(1).len(), 1);
        assert!(t.leases_on(0).is_empty());
        let superseded: Vec<_> = rec
            .events_named("gyan.reservation.release")
            .into_iter()
            .filter(|e| e.field("reason").and_then(|v| v.as_str()) == Some("superseded"))
            .collect();
        assert_eq!(superseded.len(), 1);
    }

    #[test]
    fn all_leased_falls_through_to_shared_placement() {
        let (c, t, rec) = table();
        // One holder leases both devices exclusively (no preference on an
        // idle node grants all free GPUs).
        let a1 =
            t.allocate_and_lease(&c, &[], AllocationPolicy::ProcessId, 1, 100, Some(&rec)).unwrap();
        assert_eq!(a1.cuda_visible_devices, "0,1");
        assert!(t.leases_on(0)[0].exclusive);
        // Everything leased: the PID policy scatters (shared lease), as
        // the paper does when everything is busy.
        let a2 =
            t.allocate_and_lease(&c, &[], AllocationPolicy::ProcessId, 2, 100, Some(&rec)).unwrap();
        assert_eq!(a2.reason, AllocationReason::AllBusyScatter);
        assert!(!t.leases_on(0)[1].exclusive);
        assert_eq!(t.lease_count(), 4);
    }

    #[test]
    fn memory_policy_counts_pending_lease_hints() {
        let (c, t, rec) = table();
        // Two leases with very different declared memory; SMI sees both
        // devices idle (nothing is executing yet).
        t.allocate_and_lease(&c, &[0], AllocationPolicy::MemoryBased, 1, 2000, Some(&rec));
        t.allocate_and_lease(&c, &[1], AllocationPolicy::MemoryBased, 2, 100, Some(&rec));
        // Third job: nothing effectively free; least *pending* memory is
        // device 1 (100 MiB hint vs 2000), even though SMI memory ties.
        let a = t
            .allocate_and_lease(&c, &[], AllocationPolicy::MemoryBased, 3, 500, Some(&rec))
            .unwrap();
        assert_eq!(a.reason, AllocationReason::AllBusyLeastMemory);
        assert_eq!(a.devices, vec![1]);
    }

    #[test]
    fn smi_busy_and_leases_compose() {
        let (c, t, rec) = table();
        // Device 0 busy for real; device 1 leased: nothing is free.
        c.attach_process(0, GpuProcess::compute(9, "other", 60)).unwrap();
        t.allocate_and_lease(&c, &[1], AllocationPolicy::ProcessId, 1, 100, Some(&rec));
        let a =
            t.allocate_and_lease(&c, &[], AllocationPolicy::ProcessId, 2, 100, Some(&rec)).unwrap();
        assert_eq!(a.reason, AllocationReason::AllBusyScatter);
    }

    #[test]
    fn view_reports_leased_devices_and_pending_memory() {
        let (c, t, rec) = table();
        t.allocate_and_lease(&c, &[1], AllocationPolicy::ProcessId, 1, 640, Some(&rec));
        let view = t.view();
        assert!(view.is_leased(1));
        assert!(!view.is_leased(0));
        assert_eq!(view.pending_mem(1), 640);
        assert_eq!(view.leased_devices(), vec![1]);
        t.release(1, "ok", Some(&rec));
        assert!(t.view().is_empty());
    }

    #[test]
    fn discard_listener_releases_on_worker_threads() {
        let (c, t, rec) = table();
        t.allocate_and_lease(&c, &[0], AllocationPolicy::ProcessId, 42, 100, Some(&rec));
        let listener = t.discard_listener(Some(rec.clone()));
        std::thread::spawn(move || listener(42)).join().unwrap();
        assert_eq!(t.lease_count(), 0);
        let release = &rec.events_named("gyan.reservation.release")[0];
        assert_eq!(release.field("reason").and_then(|v| v.as_str()), Some("discarded"));
    }

    #[test]
    fn gpuless_node_allocates_nothing_and_leases_nothing() {
        let c = GpuCluster::cpu_only_node();
        let t = LeaseTable::new();
        assert!(t.allocate_and_lease(&c, &[], AllocationPolicy::ProcessId, 1, 0, None).is_none());
        assert_eq!(t.lease_count(), 0);
    }
}
