//! Global invariants checked against the real stack's own state and
//! audit trail.
//!
//! Each check returns a [`Violation`] naming the broken invariant plus
//! enough detail to debug without re-running. The harness turns a
//! violation into a [`crate::Failure`] carrying the reproducing seed.
//!
//! The `fleet_*` checks are the multi-node generalization of the
//! single-node ones: a lease must be backed by a booking on *its* shard,
//! no job may hold leases on two shards, and nothing may point at a node
//! the fault plan has killed.

use fleet::Fleet;
use galaxy::queue::{QueueEngine, SubmissionState};
use galaxy::JobState;
use gpusim::DeviceState;
use gyan::LeaseTable;
use obs::{EventData, Recorder};
use std::collections::{BTreeMap, BTreeSet};

/// One broken invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable invariant name (used by the shrinker and failure reports).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    /// `invariant` broken, with `detail`.
    pub fn new(invariant: &'static str, detail: impl Into<String>) -> Self {
        Violation { invariant, detail: detail.into() }
    }
}

/// Between waves the engine's barrier guarantees every attempt concluded,
/// and every conclusion releases its leases — so any lease still active
/// here has leaked.
pub fn no_leaked_leases(table: &LeaseTable, wave: usize) -> Result<(), Violation> {
    let leases = table.all_leases();
    if leases.is_empty() {
        return Ok(());
    }
    let holders: Vec<String> =
        leases.iter().map(|l| format!("job {} on gpu {}", l.holder, l.device)).collect();
    Err(Violation::new(
        "no_leaked_leases",
        format!(
            "{} lease(s) active after wave {} barrier: {}",
            leases.len(),
            wave,
            holders.join(", ")
        ),
    ))
}

/// Replay the `gyan.reservation.{acquire,release}` audit trail and assert
/// exclusive grants are honest: an exclusive lease is only granted on a
/// device with no active leases (which also bounds exclusives at one per
/// minor). Shared grants may legitimately pile onto a busy device — the
/// paper's all-busy placements oversubscribe by design — so they are
/// never a conflict.
pub fn exclusive_isolation(events: &[EventData]) -> Result<(), Violation> {
    // device → active (holder, exclusive) leases, in audit order.
    let mut active: BTreeMap<u64, Vec<(u64, bool)>> = BTreeMap::new();
    for ev in events {
        let device = ev.field("device").and_then(|v| v.as_f64()).map(|d| d as u64);
        let holder = ev.field("job_id").and_then(|v| v.as_f64()).map(|j| j as u64);
        let (Some(device), Some(holder)) = (device, holder) else { continue };
        match &*ev.name {
            "gyan.reservation.acquire" => {
                let exclusive = ev.field("exclusive").and_then(|v| v.as_bool()).unwrap_or(false);
                let slot = active.entry(device).or_default();
                if exclusive && !slot.is_empty() {
                    return Err(Violation::new(
                        "exclusive_isolation",
                        format!(
                            "job {holder} acquired gpu {device} (exclusive={exclusive}) while \
                             held by {:?}",
                            slot
                        ),
                    ));
                }
                slot.push((holder, exclusive));
            }
            "gyan.reservation.release" => {
                if let Some(slot) = active.get_mut(&device) {
                    if let Some(i) = slot.iter().position(|(h, _)| *h == holder) {
                        slot.remove(i);
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Jobs whose `audit` event carries a true `flag` must be exactly the
/// jobs with `gyan.reservation.acquire` audits.
fn audit_matches_acquire(
    events: &[EventData],
    invariant: &'static str,
    audit: &str,
    flag: &str,
    what: &str,
) -> Result<(), Violation> {
    let job_of = |ev: &EventData| ev.field("job_id").and_then(|v| v.as_f64()).map(|j| j as u64);
    let audited: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.name == audit && e.field(flag).and_then(|v| v.as_bool()) == Some(true))
        .filter_map(job_of)
        .collect();
    let acquired: BTreeSet<u64> =
        events.iter().filter(|e| e.name == "gyan.reservation.acquire").filter_map(job_of).collect();
    if audited != acquired {
        let unbacked: Vec<u64> = audited.difference(&acquired).copied().collect();
        let silent: Vec<u64> = acquired.difference(&audited).copied().collect();
        return Err(Violation::new(
            invariant,
            format!(
                "{what} without reservations: {unbacked:?}; reservations without {what}: \
                 {silent:?}"
            ),
        ));
    }
    Ok(())
}

/// Every job exported with `GALAXY_GPU_ENABLED=true` must hold an audited
/// reservation, and every audited reservation must belong to a job that
/// was exported GPU-enabled — the observe→dispatch pipeline may not skip
/// either half.
pub fn export_matches_acquire(events: &[EventData]) -> Result<(), Violation> {
    audit_matches_acquire(
        events,
        "export_matches_acquire",
        "gyan.hook.export",
        "gpu_enabled",
        "GPU-enabled exports",
    )
}

/// The fleet form of [`export_matches_acquire`]: jobs with a successful
/// `fleet.placement.decision` audit must equal jobs with reservation
/// acquires — a placement without a lease, or a lease without a
/// placement, means the two phases disagreed.
pub fn fleet_export_matches_acquire(events: &[EventData]) -> Result<(), Violation> {
    audit_matches_acquire(
        events,
        "fleet_export_matches_acquire",
        fleet::fleet::FLEET_DECISION_EVENT,
        "placed",
        "placements",
    )
}

/// The fleet form of [`no_leaked_leases`]: at a wave barrier every
/// placement must have been released.
pub fn fleet_lease_leak(fleet: &Fleet, wave: usize) -> Result<(), Violation> {
    match fleet.total_lease_count() {
        0 => Ok(()),
        leases => Err(Violation::new(
            "fleet_lease_leak",
            format!("{leases} fleet lease(s) survived the wave {wave} barrier"),
        )),
    }
}

/// Per-shard conservation (every lease on a shard belongs to a job the
/// fleet has booked *on that shard*) and fleet-wide no-double-booking (no
/// job holds leases on two shards), from the fleet's live state.
pub fn fleet_lease_conservation(fleet: &Fleet) -> Result<(), Violation> {
    let mut seen_on: BTreeMap<u64, u32> = BTreeMap::new();
    for (node, holders) in fleet.holders_by_node() {
        for holder in holders {
            if let Some(previous) = seen_on.insert(holder, node) {
                return Err(Violation::new(
                    "fleet_no_double_booking",
                    format!("job {holder} holds leases on node {previous} and node {node}"),
                ));
            }
            let detail = match fleet.node_of(holder) {
                Some(booked) if booked == node => continue,
                Some(booked) => format!(
                    "job {holder} leases on node {node} but is booked on node {booked} (leaked by \
                     a re-placement?)"
                ),
                None => format!("job {holder} leases on node {node} with no fleet booking"),
            };
            return Err(Violation::new("fleet_lease_conservation", detail));
        }
    }
    Ok(())
}

/// No booking or lease may point at a node the fault plan has killed.
/// Correct wiring marks the shard dead (so placement filters it); the
/// stale wiring leaves it placeable and this check trips on the first
/// job booked onto the corpse.
pub fn fleet_no_dead_node_booking(fleet: &Fleet, dead: &BTreeSet<u32>) -> Result<(), Violation> {
    if dead.is_empty() {
        return Ok(());
    }
    for (job, node) in fleet.active_placements() {
        if dead.contains(&node) {
            return Err(Violation::new(
                "fleet_no_dead_node_booking",
                format!("job {job} is booked on dead node {node}"),
            ));
        }
    }
    for (node, holders) in fleet.holders_by_node() {
        if dead.contains(&node) && !holders.is_empty() {
            return Err(Violation::new(
                "fleet_no_dead_node_booking",
                format!("dead node {node} still holds leases for jobs {holders:?}"),
            ));
        }
    }
    Ok(())
}

/// Every shard's lock-free device availability — what placement scores
/// nodes by — must equal a recomputation under the device locks. Only a
/// write path to a device that does not republish can break it; there is
/// one path today, and this is what catches a second.
pub fn fleet_availability_flags_honest(fleet: &Fleet) -> Result<(), Violation> {
    for shard in fleet.shards() {
        let cluster = &shard.cluster;
        let locked: Vec<u32> = cluster
            .all_devices()
            .into_iter()
            .filter(|minor| cluster.with_device(*minor, DeviceState::is_available) == Ok(true))
            .collect();
        let lock_free = cluster.available_devices();
        if lock_free != locked {
            return Err(Violation::new(
                "fleet_availability_flags_honest",
                format!(
                    "node {} ({}) publishes devices {lock_free:?} as available; under the device \
                     locks {locked:?} are",
                    shard.id, shard.name
                ),
            ));
        }
    }
    Ok(())
}

/// Job-count conservation: the engine's submission ledger and the app's
/// job table must agree entry for entry, and terminal states must be
/// consistent between the two layers.
pub fn conservation(engine: &QueueEngine) -> Result<(), Violation> {
    let states = engine.submission_states();
    let jobs = engine.app().jobs();
    if states.len() != jobs.len() {
        return Err(Violation::new(
            "conservation",
            format!("engine tracks {} submissions but app has {} jobs", states.len(), jobs.len()),
        ));
    }
    for (job_id, state) in states {
        let Some(job) = engine.app().job(job_id) else {
            return Err(Violation::new(
                "conservation",
                format!("engine tracks job {job_id} missing from the app"),
            ));
        };
        let consistent = match state {
            SubmissionState::Ok => job.state() == JobState::Ok,
            SubmissionState::Error => job.state() == JobState::Error,
            // A cancelled/discarded submission never finished.
            SubmissionState::Cancelled => job.state() != JobState::Ok,
            // Nothing may still be queued once the engine reports idle.
            SubmissionState::Queued => false,
        };
        if !consistent {
            return Err(Violation::new(
                "conservation",
                format!(
                    "job {job_id}: engine state {state:?} inconsistent with app state {:?}",
                    job.state()
                ),
            ));
        }
    }
    Ok(())
}

/// Every opened span must be closed once the system quiesces.
pub fn spans_balanced(recorder: &Recorder) -> Result<(), Violation> {
    let open = recorder.open_spans();
    if open.is_empty() {
        return Ok(());
    }
    let names: Vec<&str> = open.iter().map(|s| &*s.name).collect();
    Err(Violation::new("spans_balanced", format!("{} span(s) never closed: {names:?}", open.len())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Value;

    fn event(name: &'static str, fields: Vec<(&'static str, Value)>) -> EventData {
        let rec = Recorder::new();
        rec.event(name, fields);
        rec.events().pop().unwrap()
    }

    #[test]
    fn exclusive_overlap_is_flagged() {
        let acquire = |job: u64, dev: u64, excl: bool| {
            event(
                "gyan.reservation.acquire",
                vec![
                    ("job_id", Value::from(job)),
                    ("device", Value::from(dev)),
                    ("exclusive", Value::from(excl)),
                ],
            )
        };
        let release = |job: u64, dev: u64| {
            event(
                "gyan.reservation.release",
                vec![("job_id", Value::from(job)), ("device", Value::from(dev))],
            )
        };

        // Shared leases may pile up — even onto an exclusively-held
        // device (the all-busy placements oversubscribe by design).
        let ok = vec![acquire(1, 0, false), acquire(2, 0, false), release(1, 0), release(2, 0)];
        assert!(exclusive_isolation(&ok).is_ok());
        let oversubscribed = vec![acquire(1, 0, true), acquire(2, 0, false)];
        assert!(exclusive_isolation(&oversubscribed).is_ok());

        // An exclusive grant on an already-leased device is dishonest.
        let bad = vec![acquire(1, 0, false), acquire(2, 0, true)];
        let violation = exclusive_isolation(&bad).unwrap_err();
        assert_eq!(violation.invariant, "exclusive_isolation");

        // Release in between clears the conflict.
        let healed = vec![acquire(1, 0, true), release(1, 0), acquire(2, 0, true)];
        assert!(exclusive_isolation(&healed).is_ok());
    }

    #[test]
    fn export_acquire_mismatch_is_flagged() {
        let export = event(
            "gyan.hook.export",
            vec![("job_id", Value::from(5u64)), ("gpu_enabled", Value::from(true))],
        );
        let violation = export_matches_acquire(std::slice::from_ref(&export)).unwrap_err();
        assert!(violation.detail.contains("[5]"), "{}", violation.detail);

        let acquire = event(
            "gyan.reservation.acquire",
            vec![("job_id", Value::from(5u64)), ("device", Value::from(0u64))],
        );
        assert!(export_matches_acquire(&[export, acquire]).is_ok());
    }

    #[test]
    fn cpu_disabled_exports_need_no_reservation() {
        let export = event(
            "gyan.hook.export",
            vec![("job_id", Value::from(9u64)), ("gpu_enabled", Value::from(false))],
        );
        assert!(export_matches_acquire(&[export]).is_ok());
    }
}
