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
//!   and a discarded wave (via [`LeaseTable::discard_listener`]);
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
//! plus active-lease gauge and acquire/release/conflict counters. A grant
//! is one acquire and one release record naming its `devices`, however
//! many it leases; the gauge and the counters count device leases.

use crate::allocation::{
    decide, decide_traced, join, join_ids, Allocation, AllocationPolicy, AllocationReason,
};
use crate::gpu_usage::try_get_gpu_usage;
use gpusim::GpuCluster;
use obs::metrics::{Counter, Gauge, Registry};
use obs::{Key, Recorder, Value};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// `(minor, pending MiB)` of every leased device, by ascending minor.
    pub(crate) fn pending(&self) -> impl Iterator<Item = (u32, u64)> + Clone + '_ {
        self.leased.iter().copied()
    }

    /// True when no lease is active.
    pub fn is_empty(&self) -> bool {
        self.leased.is_empty()
    }
}

/// A grant's devices in ascending order: minors below 128 as bits of
/// `low`, any others sorted in `high` (no simulated node has that many
/// devices, so `high` stays empty and a grant allocates nothing).
#[derive(Default)]
struct Minors {
    low: u128,
    high: Vec<u32>,
}

impl Minors {
    fn of(devices: &[u32]) -> Self {
        let mut minors = Minors::default();
        for &minor in devices {
            if minor < u128::BITS {
                minors.low |= 1 << minor;
            } else if let Err(at) = minors.high.binary_search(&minor) {
                minors.high.insert(at, minor);
            }
        }
        minors
    }

    fn len(&self) -> usize {
        self.low.count_ones() as usize + self.high.len()
    }

    fn iter(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        let mut low = self.low;
        let low = std::iter::from_fn(move || {
            let minor = (low != 0).then(|| low.trailing_zeros())?;
            low &= low - 1;
            Some(minor)
        });
        low.chain(self.high.iter().copied())
    }
}

/// What one holder leased: every device of one grant, leased with one
/// acquisition time, hint and kind. `allocate_and_lease` supersedes a
/// holder's grant before it leases again, so a holder has at most one.
struct Grant {
    holder: u64,
    devices: Minors,
    acquired_at: f64,
    memory_hint_mib: u64,
    exclusive: bool,
}

impl Grant {
    fn lease_on(&self, device: u32) -> Lease {
        Lease {
            device,
            holder: self.holder,
            acquired_at: self.acquired_at,
            memory_hint_mib: self.memory_hint_mib,
            exclusive: self.exclusive,
        }
    }
}

/// One device's leases.
#[derive(Default)]
struct Device {
    /// Holders leasing the device, in acquisition order.
    holders: Vec<u64>,
    /// The sum of their memory hints (MiB).
    pending_mib: u64,
}

/// The acquire/release series of the registry last written, as handles.
struct LeaseMetrics {
    registry: Registry,
    acquired: Counter,
    released: Counter,
    active: Gauge,
}

/// The lease book, keyed by grant. Each list keeps its capacity when it
/// empties, so a grant and its release allocate nothing once the node's
/// devices and the in-flight grants have been seen.
#[derive(Default)]
struct Book {
    /// Every grant, sorted by holder.
    grants: Vec<Grant>,
    /// Per device, indexed by minor.
    devices: Vec<Device>,
    metrics: Option<LeaseMetrics>,
}

impl Book {
    fn grant(&self, holder: u64) -> Result<usize, usize> {
        self.grants.binary_search_by_key(&holder, |grant| grant.holder)
    }

    /// The leases on device `minor`, in acquisition order.
    fn leases_on(&self, minor: u32) -> impl Iterator<Item = Lease> + '_ {
        let holders = self.devices.get(minor as usize).map_or(&[][..], |d| &d.holders);
        holders.iter().filter_map(move |&holder| {
            self.grant(holder).ok().map(|at| self.grants[at].lease_on(minor))
        })
    }

    fn leased(&self) -> impl Iterator<Item = (u32, &Device)> {
        (0u32..).zip(&self.devices).filter(|(_, device)| !device.holders.is_empty())
    }

    fn view(&self) -> ReservationView {
        let mut leased = Vec::with_capacity(self.leased().count());
        leased.extend(self.leased().map(|(minor, device)| (minor, device.pending_mib)));
        ReservationView { leased }
    }

    /// Handles on `recorder`'s lease series, resolved once per registry.
    fn metrics(&mut self, recorder: &Recorder) -> &LeaseMetrics {
        let registry = recorder.metrics();
        if !self.metrics.as_ref().is_some_and(|metrics| metrics.registry.same_as(registry)) {
            self.metrics = None;
        }
        self.metrics.get_or_insert_with(|| LeaseMetrics {
            registry: registry.clone(),
            acquired: registry.counter(RESERVATIONS_ACQUIRED_COUNTER),
            released: registry.counter(RESERVATIONS_RELEASED_COUNTER),
            active: registry.gauge(RESERVATIONS_ACTIVE_GAUGE),
        })
    }
}

#[derive(Default)]
struct Shared {
    book: Mutex<Book>,
    /// Device leases held — the holders over all devices — written under
    /// the book's lock and read without it (`Relaxed`: the count
    /// publishes nothing but itself).
    leases: AtomicUsize,
}

/// The shared lease table. Clones share state; the table is thread-safe
/// (the queue engine prepares and concludes plans on one thread, but ops
/// readers and concurrent tests reach it from others).
#[derive(Clone, Default)]
pub struct LeaseTable {
    shared: Arc<Shared>,
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
        let mut book = self.shared.book.lock();
        {
            obs::profile_scope!("alloc.supersede");
            self.release_locked(&mut book, holder, "superseded", recorder);
        }
        let observed = {
            obs::profile_scope!("alloc.observe");
            try_get_gpu_usage(cluster)
        };
        let view = book.view();
        let _place = obs::profile::global().scope("alloc.place");
        let alloc = decide_traced(&observed, requested, policy, Some(&view), recorder)?;

        // Conflict: the same observation without leases would have granted
        // a different device set — record what blocked the baseline choice.
        if !view.is_empty() {
            let baseline =
                observed.as_ref().ok().and_then(|usage| decide(usage, requested, policy, None));
            if let Some(baseline) = baseline.filter(|b| b.devices != alloc.devices) {
                audit_conflict(&book, holder, requested, &baseline, &alloc, recorder);
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
        // A grant of no devices is never booked: its release would audit
        // a grant of nothing.
        if !alloc.devices.is_empty() {
            for &minor in &alloc.devices {
                let minor = minor as usize;
                if book.devices.len() <= minor {
                    book.devices.resize_with(minor + 1, Device::default);
                }
                let device = &mut book.devices[minor];
                debug_assert!(
                    !exclusive || device.holders.is_empty(),
                    "exclusive grant on an already-leased device"
                );
                device.holders.push(holder);
                device.pending_mib += memory_hint_mib;
            }
            let grant = Grant {
                holder,
                devices: Minors::of(&alloc.devices),
                acquired_at: now,
                memory_hint_mib,
                exclusive,
            };
            // Superseded above, so the holder has no grant.
            let at = book.grant(holder).unwrap_or_else(|at| at);
            book.grants.insert(at, grant);
            self.shared.leases.fetch_add(alloc.devices.len(), Ordering::Relaxed);
        }
        if let Some(rec) = recorder {
            // One record per grant: its devices are the exported mask, and
            // the hint is what each of them was leased with.
            rec.event(
                "gyan.reservation.acquire",
                [
                    ("job_id", Value::from(holder)),
                    ("devices", Value::from(alloc.cuda_visible_devices.as_str())),
                    ("exclusive", Value::from(exclusive)),
                    ("memory_hint_mib", Value::from(memory_hint_mib)),
                    ("reason", Value::from(Key::from(alloc.reason.as_str()))),
                ],
            );
            let metrics = book.metrics(rec);
            metrics.acquired.inc(alloc.devices.len() as u64);
            metrics.active.set(self.lease_count() as f64);
        }
        Some(alloc)
    }

    /// Release every lease `holder` holds, auditing them as one
    /// `gyan.reservation.release` with `why` (e.g. `ok`,
    /// `failed_retryable`, `discarded`). Returns the number released
    /// (0 when the holder had none — releasing is idempotent).
    pub fn release(&self, holder: u64, why: &str, recorder: Option<&Recorder>) -> usize {
        obs::profile_scope!("alloc.release");
        let mut book = self.shared.book.lock();
        self.release_locked(&mut book, holder, why, recorder)
    }

    fn release_locked(
        &self,
        book: &mut Book,
        holder: u64,
        why: &str,
        recorder: Option<&Recorder>,
    ) -> usize {
        // Most releases find no grant (every CPU job's, every first
        // preparation's supersede): one lookup, and no clock is read.
        let Ok(at) = book.grant(holder) else { return 0 };
        let grant = book.grants.remove(at);
        if let Some(rec) = recorder {
            rec.event(
                "gyan.reservation.release",
                [
                    ("job_id", Value::from(holder)),
                    ("devices", Value::from(join_ids(grant.devices.iter()))),
                    ("reason", Value::from(why)),
                    ("held_seconds", Value::from((rec.now() - grant.acquired_at).max(0.0))),
                ],
            );
        }
        for minor in grant.devices.iter() {
            let device = &mut book.devices[minor as usize];
            if let Some(at) = device.holders.iter().position(|&h| h == holder) {
                device.holders.remove(at);
            }
            device.pending_mib -= grant.memory_hint_mib;
        }
        let released = grant.devices.len();
        self.shared.leases.fetch_sub(released, Ordering::Relaxed);
        if let Some(rec) = recorder {
            let metrics = book.metrics(rec);
            metrics.released.inc(released as u64);
            metrics.active.set(self.lease_count() as f64);
        }
        released
    }

    /// Total active leases. Reads no lock: the count is published by the
    /// acquire or release that changed it.
    pub fn lease_count(&self) -> usize {
        self.shared.leases.load(Ordering::Relaxed)
    }

    /// Active leases on `minor`, in acquisition order.
    pub fn leases_on(&self, minor: u32) -> Vec<Lease> {
        self.shared.book.lock().leases_on(minor).collect()
    }

    /// Every active lease across all devices, ordered by device minor
    /// then acquisition — one consistent snapshot for invariant checkers.
    pub fn all_leases(&self) -> Vec<Lease> {
        let book = self.shared.book.lock();
        let mut leases = Vec::with_capacity(self.lease_count());
        for (minor, _) in book.leased() {
            leases.extend(book.leases_on(minor));
        }
        leases
    }

    /// Sorted, deduplicated job ids currently holding at least one lease.
    pub fn holders(&self) -> Vec<u64> {
        self.shared.book.lock().grants.iter().map(|grant| grant.holder).collect()
    }

    /// A `QueueEngine` discard listener releasing the leases of plans a
    /// discarded wave skips. It outlives this borrow, hence the owned
    /// recorder clone.
    pub fn discard_listener(&self, recorder: Option<Recorder>) -> Arc<dyn Fn(u64) + Send + Sync> {
        let table = self.clone();
        Arc::new(move |job_id| {
            table.release(job_id, "discarded", recorder.as_ref());
        })
    }
}

fn audit_conflict(
    book: &Book,
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
        .flat_map(|&d| book.leases_on(d).map(|l| format!("{}:job{}", l.device, l.holder)))
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

/// What the stock SLO rules ([`crate::ops::default_alert_rules`]) read
/// of whatever holds a deployment's leases: one node's [`LeaseTable`], or
/// a fleet of them.
pub trait LeaseView: Clone + Send + Sync + 'static {
    /// The largest number of simultaneous leases on any one device — the
    /// oversubscription degree the SLO alert rules watch (1 is healthy;
    /// above 1 means all-busy shared placements are piling up).
    fn max_leases_per_device(&self) -> usize;
}

impl LeaseView for LeaseTable {
    fn max_leases_per_device(&self) -> usize {
        let book = self.shared.book.lock();
        book.devices.iter().map(|device| device.holders.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
impl LeaseTable {
    /// Snapshot the current lease state, as a decision under the lock
    /// sees it.
    pub(crate) fn view(&self) -> ReservationView {
        self.shared.book.lock().view()
    }
}

#[cfg(test)]
impl ReservationView {
    /// The view of exactly these `(minor, pending MiB)` rows, ascending
    /// by minor, as a decision record lists them.
    pub(crate) fn from_rows(leased: Vec<(u32, u64)>) -> Self {
        assert!(leased.windows(2).all(|pair| pair[0].0 < pair[1].0));
        ReservationView { leased }
    }
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
        // Each grant is one acquire record and each release one release
        // record, naming every device; the counters count device leases.
        assert_eq!(t.release(1, "ok", Some(&rec)), 2);
        let field = |e: &obs::EventData, key: &str| e.field(key).cloned();
        let acquires = rec.events_named("gyan.reservation.acquire");
        let releases = rec.events_named("gyan.reservation.release");
        assert_eq!((acquires.len(), releases.len()), (2, 1));
        for (acquire, exclusive) in acquires.iter().zip([true, false]) {
            assert_eq!(field(acquire, "devices"), Some(Value::from("0,1")));
            assert_eq!(field(acquire, "exclusive"), Some(Value::from(exclusive)));
        }
        assert_eq!(field(&releases[0], "job_id"), Some(Value::from(1u64)));
        assert_eq!(field(&releases[0], "devices"), Some(Value::from("0,1")));
        assert_eq!(rec.metrics().counter_value(RESERVATIONS_ACQUIRED_COUNTER), 4);
        assert_eq!(rec.metrics().counter_value(RESERVATIONS_RELEASED_COUNTER), 2);
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
        assert_eq!(view.pending().collect::<Vec<_>>(), vec![(1, 640)]);
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

    #[test]
    fn a_grant_releases_its_devices_in_ascending_order_past_minor_127() {
        let c = GpuCluster::node(gpusim::GpuArch::tesla_k80(), 130);
        let (t, rec) = (LeaseTable::new(), Recorder::new());
        let policy = AllocationPolicy::ProcessId;
        let a = t.allocate_and_lease(&c, &[129, 3, 128], policy, 1, 64, Some(&rec)).unwrap();
        assert_eq!(a.cuda_visible_devices.as_str(), "129,3,128");
        assert_eq!(a.reason, AllocationReason::RequestedFree);
        assert_eq!(t.leases_on(128)[0].holder, 1);
        assert_eq!(t.view().pending().collect::<Vec<_>>(), vec![(3, 64), (128, 64), (129, 64)]);
        assert_eq!(t.release(1, "ok", Some(&rec)), 3);
        let release = &rec.events_named("gyan.reservation.release")[0];
        assert_eq!(release.field("devices"), Some(&Value::from("3,128,129")));
        assert!(t.view().is_empty());
    }
}

/// [`LeaseTable`] against a naive model that keeps the table's former
/// layout — every device's leases in one `BTreeMap`, every reader walking
/// it — and its former acquire and release, metrics written by name.
#[cfg(test)]
mod reference {
    use super::*;
    use gpusim::{GpuArch, GpuProcess};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::atomic::AtomicU64;

    #[derive(Default)]
    struct Naive {
        leases: BTreeMap<u32, Vec<Lease>>,
    }

    impl Naive {
        fn view(&self) -> ReservationView {
            let leased = self
                .leases
                .iter()
                .filter(|(_, leases)| !leases.is_empty())
                .map(|(&minor, leases)| (minor, leases.iter().map(|l| l.memory_hint_mib).sum()))
                .collect();
            ReservationView::from_rows(leased)
        }

        fn allocate_and_lease(
            &mut self,
            cluster: &GpuCluster,
            requested: &[u32],
            policy: AllocationPolicy,
            holder: u64,
            memory_hint_mib: u64,
            rec: &Recorder,
        ) -> Option<Allocation> {
            self.release(holder, "superseded", rec);
            let observed = try_get_gpu_usage(cluster);
            let view = self.view();
            let alloc = decide_traced(&observed, requested, policy, Some(&view), Some(rec))?;
            let baseline = observed.as_ref().ok().and_then(|u| decide(u, requested, policy, None));
            if let Some(baseline) =
                baseline.filter(|b| !view.is_empty() && b.devices != alloc.devices)
            {
                rec.metrics().inc_counter(RESERVATION_CONFLICTS_COUNTER, 1);
                let mut blocked_by = Vec::new();
                for d in baseline.devices.iter().filter(|d| !alloc.devices.contains(d)) {
                    for l in self.leases.get(d).into_iter().flatten() {
                        blocked_by.push(format!("{}:job{}", l.device, l.holder));
                    }
                }
                rec.event(
                    "gyan.reservation.conflict",
                    [
                        ("job_id", Value::from(holder)),
                        ("requested", Value::from(join(requested))),
                        ("baseline_devices", Value::from(join(&baseline.devices))),
                        ("granted_devices", Value::from(join(&alloc.devices))),
                        ("baseline_reason", Value::from(baseline.reason.as_str())),
                        ("granted_reason", Value::from(alloc.reason.as_str())),
                        ("blocked_by", Value::from(blocked_by.join(","))),
                    ],
                );
            }
            let exclusive = matches!(
                alloc.reason,
                AllocationReason::RequestedFree
                    | AllocationReason::FreeFallback
                    | AllocationReason::InvalidRequest
            );
            let acquired_at = rec.now();
            for &device in &alloc.devices {
                let lease = Lease { device, holder, acquired_at, memory_hint_mib, exclusive };
                self.leases.entry(device).or_default().push(lease);
            }
            rec.event(
                "gyan.reservation.acquire",
                [
                    ("job_id", Value::from(holder)),
                    ("devices", Value::from(alloc.cuda_visible_devices.as_str())),
                    ("exclusive", Value::from(exclusive)),
                    ("memory_hint_mib", Value::from(memory_hint_mib)),
                    ("reason", Value::from(Key::from(alloc.reason.as_str()))),
                ],
            );
            rec.metrics().inc_counter(RESERVATIONS_ACQUIRED_COUNTER, alloc.devices.len() as u64);
            rec.metrics().set_gauge(RESERVATIONS_ACTIVE_GAUGE, self.all_leases().len() as f64);
            Some(alloc)
        }

        fn release(&mut self, holder: u64, why: &str, rec: &Recorder) -> usize {
            let held: Vec<Lease> =
                self.all_leases().into_iter().filter(|l| l.holder == holder).collect();
            let Some(first) = held.first() else { return 0 };
            let devices: BTreeSet<u32> = held.iter().map(|l| l.device).collect();
            rec.event(
                "gyan.reservation.release",
                [
                    ("job_id", Value::from(holder)),
                    ("devices", Value::from(join(&devices))),
                    ("reason", Value::from(why)),
                    ("held_seconds", Value::from((rec.now() - first.acquired_at).max(0.0))),
                ],
            );
            for leases in self.leases.values_mut() {
                leases.retain(|l| l.holder != holder);
            }
            rec.metrics().inc_counter(RESERVATIONS_RELEASED_COUNTER, held.len() as u64);
            rec.metrics().set_gauge(RESERVATIONS_ACTIVE_GAUGE, self.all_leases().len() as f64);
            held.len()
        }

        fn all_leases(&self) -> Vec<Lease> {
            self.leases.values().flatten().cloned().collect()
        }

        fn leases_on(&self, minor: u32) -> Vec<Lease> {
            self.leases.get(&minor).cloned().unwrap_or_default()
        }

        fn holders(&self) -> Vec<u64> {
            let set: BTreeSet<u64> = self.leases.values().flatten().map(|l| l.holder).collect();
            set.into_iter().collect()
        }

        fn max_leases_per_device(&self) -> usize {
            self.leases.values().map(Vec::len).max().unwrap_or(0)
        }
    }

    fn recorder(tick: &Arc<AtomicU64>) -> Recorder {
        let rec = Recorder::new();
        let tick = Arc::clone(tick);
        rec.set_clock(move || tick.load(Ordering::SeqCst) as f64 / 4.0);
        rec
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random acquire (both policies; requested minors valid,
        /// duplicated or past the node; a holder that already holds a
        /// grant supersedes it), release, discard, SMI busy-state and
        /// SMI-failure steps on nodes of 0 to 6 devices: after every step
        /// the table and the model return the same values, read the same
        /// leases on every minor, and their recorders hold the same log
        /// and the same exposition.
        #[test]
        fn the_lease_book_matches_the_naive_map(
            devices in 0u32..7,
            ops in prop::collection::vec(
                (0u8..10, 1u64..7, prop::collection::vec(0u32..9, 0..4), any::<u32>()),
                1..40,
            ),
        ) {
            let node = GpuCluster::node(GpuArch::tesla_k80(), devices);
            let tick = Arc::new(AtomicU64::new(0));
            let (rec, naive_rec) = (recorder(&tick), recorder(&tick));
            let (table, mut naive) = (LeaseTable::new(), Naive::default());
            let discard = table.discard_listener(Some(rec.clone()));
            let mut pids = Vec::new();
            for (op, holder, requested, r) in ops {
                tick.fetch_add(u64::from(r % 3), Ordering::SeqCst);
                let minor = r % devices.max(1);
                match op {
                    0..=3 => {
                        let policy = if r % 2 == 0 {
                            AllocationPolicy::ProcessId
                        } else {
                            AllocationPolicy::MemoryBased
                        };
                        let hint = u64::from(r % 4096);
                        let got = table
                            .allocate_and_lease(&node, &requested, policy, holder, hint, Some(&rec));
                        let want = naive
                            .allocate_and_lease(&node, &requested, policy, holder, hint, &naive_rec);
                        prop_assert_eq!(got, want);
                    }
                    4 | 5 => {
                        let why = if op == 4 { "ok" } else { "failed_retryable" };
                        let got = table.release(holder, why, Some(&rec));
                        prop_assert_eq!(got, naive.release(holder, why, &naive_rec));
                    }
                    6 => {
                        discard(holder);
                        naive.release(holder, "discarded", &naive_rec);
                    }
                    7 if devices > 0 => {
                        let pid = 40_000 + r % 1000;
                        let process = GpuProcess::compute(pid, "busy", u64::from(r % 3000));
                        if node.attach_process(minor, process).is_ok() {
                            pids.push((minor, pid));
                        }
                    }
                    8 if !pids.is_empty() => {
                        let (minor, pid) = pids.swap_remove(r as usize % pids.len());
                        node.detach_process(minor, pid).unwrap();
                    }
                    9 => node.inject_smi_query_failures(2),
                    _ => {}
                }
                prop_assert_eq!(table.all_leases(), naive.all_leases());
                for minor in 0..devices + 2 {
                    prop_assert_eq!(table.leases_on(minor), naive.leases_on(minor));
                }
                prop_assert_eq!(table.lease_count(), naive.all_leases().len());
                prop_assert_eq!(table.holders(), naive.holders());
                prop_assert_eq!(table.max_leases_per_device(), naive.max_leases_per_device());
                prop_assert_eq!(table.view(), naive.view());
                prop_assert_eq!(rec.to_jsonl(), naive_rec.to_jsonl());
                prop_assert_eq!(
                    rec.metrics().render_prometheus(),
                    naive_rec.metrics().render_prometheus()
                );
            }
        }
    }
}
