//! Run one [`FleetScenario`] against a real [`fleet::Fleet`], checking
//! shard-level and fleet-wide invariants at every wave barrier.
//!
//! The invariants (the `fleet_*` functions of [`crate::invariants`]) are
//! the multi-node generalization of the single-node checks:
//!
//! * **per-shard conservation** — every lease on shard S belongs to a
//!   job the fleet has booked *on S* (a lease whose holder is booked
//!   elsewhere, or not at all, has leaked);
//! * **fleet-wide no-double-booking** — no job holds leases on two
//!   shards at once;
//! * **books match shards** — each node's leases per device and pending
//!   declared MiB in the fleet's books, which placement scores the node
//!   by, equal what the node's lease table holds;
//! * **export↔acquire equality** — the set of jobs with a successful
//!   `fleet.placement.decision` audit equals the set of jobs with
//!   `gyan.reservation.acquire` audits (checked fleet-wide at the end:
//!   a placement without a lease, or a lease without a placement, means
//!   the two phases disagreed);
//! * **no dead-node bookings** — once the scenario's
//!   [`NodeFault`] has killed a node,
//!   no booking or lease may ever point at it again, and every job the
//!   death orphaned either resubmits onto a surviving node (with the
//!   dead node in its exclusion set, mirroring the queue engine's
//!   placement-aware resubmission) or fails finally;
//! * **honest availability flags** — every shard's lock-free device
//!   availability (what placement scores nodes by) equals a recomputation
//!   under the device locks. Each placed job runs a process on the
//!   devices it was granted for as long as it holds them, so the flags
//!   move with every wave;
//! * **drained** — after the last wave every shard's lease table and the
//!   fleet's booking map are empty.
//!
//! [`FleetSimOptions::double_place`] is the canonical known-bad wiring:
//! a job that already holds leases is granted a second node's devices
//! behind the fleet's back, straight from that shard's lease table (as a
//! dispatch layer that kept its own idea of where a retry goes would).
//! The booking map knows one node, the other shard's leases belong to
//! nobody, and the per-shard conservation check trips — reproducibly,
//! from the seed. (It runs first; the books check, which the same leases
//! break, would trip at the same barrier.) (Re-placing *through* [`Fleet::place`] is not a bug: the
//! fleet supersedes the first booking itself.)
//!
//! [`FleetSimOptions::ignore_node_death`] is the shard-failure sibling:
//! the harness releases the dead node's leases (as the lost-job cleanup
//! would) but never marks the shard dead, so the placement layer keeps
//! seeing a freshly emptied — and therefore attractive — node. The next
//! wave books a job onto the corpse and `fleet_no_dead_node_booking`
//! trips with a reproducing seed.
//!
//! [`FleetSimOptions::unpublished_device_writes`] is the known-bad wiring
//! of the availability flags: the jobs' processes attach through a write
//! path that skips the republish, placement keeps scoring busy devices as
//! free, and `fleet_availability_flags_honest` trips at the first barrier
//! a job is held across.

use crate::driver::Repro;
use crate::fleet_scenario::{FleetScenario, NodeFault, FLEET_RULES};
use crate::invariants::{self, Violation};
use crate::{Failure, SimReport, SEED_ENV};
use fleet::{policy_by_name, DestinationRules, Fleet, NodeClass, Placement, PlacementRequest};
use gpusim::{DeviceState, GpuProcess};
use gyan::allocation::AllocationPolicy;
use obs::Recorder;
use std::collections::{BTreeMap, BTreeSet};

/// Fleet-harness knobs. Defaults model the correct system; tests flip
/// options to prove the checker catches known-bad wirings.
#[derive(Debug, Clone, Default)]
pub struct FleetSimOptions {
    /// Grant every Nth placed job a second node's devices in its submit
    /// wave, from that shard's table and not through the fleet — the
    /// double-placement bug. `None` is the correct wiring.
    pub double_place: Option<usize>,
    /// On the scenario's node fault, release the dying node's leases but
    /// skip `Fleet::fail_node` — the stale-wiring bug where placement
    /// keeps treating a dead node as a candidate. `false` is the correct
    /// wiring.
    pub ignore_node_death: bool,
    /// Attach the jobs' processes through
    /// `GpuCluster::with_device_mut_unpublished` — a device write path
    /// that forgets to republish the lock-free availability. `false` is
    /// the correct wiring.
    pub unpublished_device_writes: bool,
}

/// Build the scenario's fleet (shared so tests can inspect the same
/// topology the harness ran).
pub fn build_fleet(scenario: &FleetScenario, recorder: &Recorder) -> Fleet {
    let mut builder = Fleet::builder()
        .rules(DestinationRules::parse(FLEET_RULES).expect("stock rules parse"))
        .policy(policy_by_name(scenario.policy).expect("stock policy"))
        .recorder(recorder.clone());
    for (class, count) in &scenario.nodes {
        builder = builder.nodes(NodeClass::by_name(class).expect("stock class"), *count);
    }
    builder.build()
}

/// A placed job's hold: when it ends, and where its process runs.
struct Held {
    release_wave: usize,
    node: u32,
    devices: Vec<u32>,
}

/// One run's books: the fleet, and which jobs hold leases until when.
/// This harness steps on its own rather than through
/// [`crate::driver::Stack::pump`] because its schedules hold leases
/// *across* waves, which the queue engine's wave barrier cannot express.
struct FleetRun<'a> {
    scenario: &'a FleetScenario,
    fleet: Fleet,
    /// job id → its hold. Job ids are 1-based schedule indices so audits
    /// map straight back to the schedule.
    active: BTreeMap<u64, Held>,
    unpublished_device_writes: bool,
    /// Nodes the fault plan has killed.
    dead: BTreeSet<u32>,
    placed: usize,
    rejected: usize,
    /// Jobs a node death orphaned that no surviving node would take.
    lost_failed: usize,
}

impl<'a> FleetRun<'a> {
    fn new(scenario: &'a FleetScenario, recorder: &Recorder, options: &FleetSimOptions) -> Self {
        FleetRun {
            scenario,
            fleet: build_fleet(scenario, recorder),
            active: BTreeMap::new(),
            unpublished_device_writes: options.unpublished_device_writes,
            dead: BTreeSet::new(),
            placed: 0,
            rejected: 0,
            lost_failed: 0,
        }
    }

    /// Ask the fleet to place schedule entry `job_id`, holding it for the
    /// job's `hold_waves` from `wave` on success. While it is held, a
    /// process of the job's declared size runs on every device it was
    /// granted (pid = job id); a device too full to take it refuses, as a
    /// real one would, and the job holds that device's lease alone.
    fn place(&mut self, job_id: u64, wave: usize, excluded_nodes: &[String]) -> Option<Placement> {
        let job = &self.scenario.jobs[(job_id - 1) as usize];
        let placement = self.fleet.place(&PlacementRequest {
            job_id,
            user: &format!("user-{}", job.user),
            tool_id: job.tool,
            requested: &[0],
            memory_hint_mib: job.memory_hint_mib,
            excluded_nodes,
        })?;
        let cluster = &self.fleet.shards()[placement.node as usize].cluster;
        for &minor in &placement.allocation.devices {
            let process = GpuProcess::compute(job_id as u32, job.tool, job.memory_hint_mib);
            let attach = |device: &mut DeviceState| device.attach_process(process);
            let _refused = if self.unpublished_device_writes {
                cluster.with_device_mut_unpublished(minor, attach)
            } else {
                cluster.with_device_mut(minor, attach)
            };
        }
        let held = Held {
            release_wave: wave + job.hold_waves,
            node: placement.node,
            devices: placement.allocation.devices.clone(),
        };
        self.active.insert(job_id, held);
        Some(placement)
    }

    /// A hold is over — released, or lost with its node: the job's
    /// process exits wherever it was running.
    fn forget(&mut self, job_id: u64) {
        let Some(held) = self.active.remove(&job_id) else { return };
        let cluster = &self.fleet.shards()[held.node as usize].cluster;
        for minor in held.devices {
            let _never_attached = cluster.detach_process(minor, job_id as u32);
        }
    }

    /// The double-placement bug: grant `job_id` the devices of the first
    /// placeable node it is *not* booked on, from that shard's own table.
    fn grant_behind_the_fleets_back(&self, job_id: u64) {
        let booked = self.fleet.node_of(job_id);
        let other = self.fleet.shards().iter().find(|s| s.is_placeable() && Some(s.id) != booked);
        if let Some(shard) = other {
            let hint = self.scenario.jobs[(job_id - 1) as usize].memory_hint_mib;
            let policy = AllocationPolicy::ProcessId;
            let recorder = self.fleet.recorder();
            shard.table.allocate_and_lease(&shard.cluster, &[0], policy, job_id, hint, recorder);
        }
    }

    /// The placement half of a wave: release the jobs whose hold expired,
    /// then place the wave's submissions. Under the `double_place`
    /// known-bad wiring every Nth placed job is also granted a second
    /// node's devices while it still holds the first's.
    fn step(&mut self, wave: usize, double_place: Option<usize>) {
        let due: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, held)| held.release_wave <= wave)
            .map(|(id, _)| *id)
            .collect();
        for id in due {
            self.fleet.release(id, "ok");
            self.forget(id);
        }
        let scenario = self.scenario;
        for (index, _) in scenario.jobs.iter().enumerate().filter(|(_, j)| j.submit_wave == wave) {
            let job_id = index as u64 + 1;
            if self.place(job_id, wave, &[]).is_none() {
                self.rejected += 1;
                continue;
            }
            self.placed += 1;
            if double_place.is_some_and(|every| every > 0 && self.placed.is_multiple_of(every)) {
                self.grant_behind_the_fleets_back(job_id);
            }
        }
    }

    /// Mid-wave shard failure: `fault`'s node dies after this wave's
    /// placements land, before the barrier check. Every orphaned job was
    /// concluded failed-retryable: retry it with the dead node excluded
    /// (the queue engine's placement-aware resubmission), or fail it
    /// finally.
    fn kill_node(
        &mut self,
        fault: NodeFault,
        wave: usize,
        ignore_node_death: bool,
    ) -> Result<(), Violation> {
        let name = self
            .fleet
            .shard(fault.node)
            .unwrap_or_else(|| panic!("fault targets unknown node {}", fault.node))
            .name
            .clone();
        let lost: Vec<u64> = if ignore_node_death {
            // Known-bad wiring: clean up the leases (the lost-job
            // conclusion path does that much) but never mark the shard
            // dead — placement keeps scoring the corpse.
            let placements = self.fleet.active_placements();
            let lost: Vec<u64> = placements
                .iter()
                .filter(|(_, node)| *node == fault.node)
                .map(|(j, _)| *j)
                .collect();
            for id in &lost {
                self.fleet.release(*id, "node_lost");
            }
            lost
        } else {
            self.fleet.fail_node(&name).expect("fault targets a known node")
        };
        self.dead.insert(fault.node);
        let excluded = [name];
        for job_id in lost {
            self.forget(job_id);
            match self.place(job_id, wave, &excluded) {
                Some(placement) if self.dead.contains(&placement.node) => {
                    return Err(Violation::new(
                        "fleet_no_dead_node_booking",
                        format!("lost job {job_id} resubmitted onto dead node {}", placement.node),
                    ));
                }
                Some(_) => {}
                None => self.lost_failed += 1,
            }
        }
        Ok(())
    }

    /// The barrier checks, from the fleet's live state.
    fn check(&self) -> Result<(), Violation> {
        invariants::fleet_lease_conservation(&self.fleet)?;
        invariants::fleet_books_match_shards(&self.fleet)?;
        invariants::fleet_no_dead_node_booking(&self.fleet, &self.dead)?;
        invariants::fleet_availability_flags_honest(&self.fleet)
    }

    /// One full wave: placements, the scenario's node fault if it is due,
    /// the barrier checks.
    fn wave(&mut self, wave: usize, options: &FleetSimOptions) -> Result<(), Violation> {
        self.step(wave, options.double_place);
        if let Some(fault) = self.scenario.node_fault.filter(|f| f.wave == wave) {
            self.kill_node(fault, wave, options.ignore_node_death)?;
        }
        self.check()
    }

    /// Release everything still held and re-check: nothing may survive.
    fn drain(&mut self) -> Result<(), Violation> {
        while let Some(id) = self.active.keys().next().copied() {
            self.fleet.release(id, "ok");
            self.forget(id);
        }
        self.check()?;
        match (self.fleet.total_lease_count(), self.fleet.active_placements().len()) {
            (0, 0) => Ok(()),
            (leases, bookings) => Err(Violation::new(
                "fleet_drained",
                format!("{leases} lease(s) and {bookings} booking(s) survive the drain"),
            )),
        }
    }
}

/// Execute `scenario` under `options`, checking invariants at every wave
/// barrier and once more after the fleet drains.
#[allow(clippy::result_large_err)]
pub fn run_fleet_scenario(
    scenario: &FleetScenario,
    options: &FleetSimOptions,
) -> Result<SimReport, Failure> {
    let repro = Repro { seed: scenario.seed, seed_env: SEED_ENV, scenario: scenario.describe() };
    let recorder = Recorder::new();
    // A failure carries the flight-recorder dump of its moment.
    let fail = |wave: Option<usize>, v: Violation| Failure {
        flight_jsonl: Some(recorder.flight_snapshot().to_jsonl()),
        ..repro.failure(wave, v)
    };
    let mut run = FleetRun::new(scenario, &recorder, options);
    for wave in 0..scenario.waves {
        run.wave(wave, options).map_err(|v| fail(Some(wave), v))?;
    }
    run.drain()
        .and_then(|()| invariants::fleet_export_matches_acquire(&recorder.events()))
        .map_err(|v| fail(None, v))?;

    Ok(SimReport {
        seed: scenario.seed,
        waves: scenario.waves,
        submitted: scenario.jobs.len(),
        rejected: run.rejected,
        ok: run.placed,
        error: run.lost_failed,
        cancelled: 0,
    })
}

/// Run the fleet scenario generated by `seed`.
#[allow(clippy::result_large_err)]
pub fn run_fleet_seed(seed: u64, options: &FleetSimOptions) -> Result<SimReport, Failure> {
    run_fleet_scenario(&FleetScenario::generate(seed), options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_wiring_passes_a_seed_sweep() {
        let options = FleetSimOptions::default();
        for seed in 0..10 {
            let report = run_fleet_seed(seed, &options)
                .unwrap_or_else(|f| panic!("seed {seed} failed:\n{f}"));
            assert_eq!(report.seed, seed);
        }
    }

    /// `run_fleet_seed(s, &FleetSimOptions::default())` for seeds 0..10,
    /// captured at the parent commit 8ba17c1 (before the wave step and the
    /// three checks were factored out): bit-identical since.
    #[test]
    fn seed_sweep_reports_are_pinned() {
        let r = |seed, waves, submitted, rejected, ok, error| SimReport {
            seed,
            waves,
            submitted,
            rejected,
            ok,
            error,
            cancelled: 0,
        };
        let pinned = [
            r(0, 8, 13, 0, 13, 0),
            r(1, 10, 19, 0, 19, 0),
            r(2, 6, 33, 7, 26, 0),
            r(3, 5, 19, 0, 19, 0),
            r(4, 8, 40, 0, 40, 0),
            r(5, 10, 40, 26, 14, 0),
            r(6, 6, 23, 0, 23, 0),
            r(7, 9, 21, 6, 15, 0),
            r(8, 10, 22, 1, 21, 0),
            r(9, 8, 40, 0, 40, 0),
        ];
        for want in pinned {
            let got = run_fleet_seed(want.seed, &FleetSimOptions::default())
                .unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let options = FleetSimOptions::default();
        let a = run_fleet_seed(4, &options).expect("seed 4 passes");
        let b = run_fleet_seed(4, &options).expect("seed 4 passes");
        assert_eq!(a, b);
    }

    #[test]
    fn double_placement_is_caught_with_a_reproducing_seed() {
        let options = FleetSimOptions { double_place: Some(2), ..Default::default() };
        let failure = (0..20)
            .find_map(|seed| run_fleet_seed(seed, &options).err())
            .expect("some seed must trip the checker");
        assert!(
            failure.reason == "fleet_lease_conservation"
                || failure.reason == "fleet_no_double_booking",
            "unexpected invariant: {}",
            failure.reason
        );
        // The report reproduces from the seed alone.
        let again = run_fleet_seed(failure.seed, &options).expect_err("same seed re-fails");
        assert_eq!(again.reason, failure.reason);
        assert!(failure.to_string().contains(&format!("SIMTEST_SEED={}", failure.seed)));
        // ... and carries its black box: the placements leading up to it.
        let dump = failure.flight_jsonl.as_deref().expect("a fleet failure carries a flight dump");
        assert!(
            dump.lines().any(|line| line.contains(fleet::fleet::FLEET_DECISION_EVENT)),
            "no placement decision in the flight dump:\n{dump}"
        );
    }

    #[test]
    fn unpublished_device_writes_are_caught_with_a_reproducing_seed() {
        let options = FleetSimOptions { unpublished_device_writes: true, ..Default::default() };
        let failure = (0..20)
            .find_map(|seed| run_fleet_seed(seed, &options).err())
            .expect("some seed must hold a job across a barrier");
        assert_eq!(failure.reason, "fleet_availability_flags_honest", "{failure}");
        // The report reproduces from the seed alone.
        let again = run_fleet_seed(failure.seed, &options).expect_err("same seed re-fails");
        assert_eq!(again.reason, failure.reason);
        assert!(failure.to_string().contains(&format!("SIMTEST_SEED={}", failure.seed)));
    }

    #[test]
    fn node_death_survives_under_correct_wiring() {
        // Some swept seed must actually lose in-flight work to its fault
        // (a fault on an idle node proves nothing) and still pass every
        // barrier — deterministically.
        let options = FleetSimOptions::default();
        let seed = (0..50)
            .find(|&seed| fault_loses_jobs(&FleetScenario::generate(seed)))
            .expect("some seed must kill a loaded node");
        let a = run_fleet_seed(seed, &options).expect("correct wiring passes");
        let b = run_fleet_seed(seed, &options).expect("correct wiring passes");
        assert_eq!(a, b);
    }

    /// Does the scenario's fault catch at least one job in flight?
    fn fault_loses_jobs(scenario: &FleetScenario) -> bool {
        let Some(fault) = scenario.node_fault else { return false };
        let mut run = FleetRun::new(scenario, &Recorder::new(), &FleetSimOptions::default());
        for wave in 0..=fault.wave {
            run.step(wave, None);
        }
        run.fleet.active_placements().iter().any(|(_, node)| *node == fault.node)
    }

    #[test]
    fn ignoring_node_death_is_caught_with_a_reproducing_seed() {
        let options = FleetSimOptions { ignore_node_death: true, ..Default::default() };
        let failure = (0..50)
            .find_map(|seed| run_fleet_seed(seed, &options).err())
            .expect("some seed must book onto the corpse");
        assert_eq!(failure.reason, "fleet_no_dead_node_booking", "{failure}");
        // The report reproduces from the seed alone.
        let again = run_fleet_seed(failure.seed, &options).expect_err("same seed re-fails");
        assert_eq!(again.reason, failure.reason);
        assert!(failure.to_string().contains(&format!("SIMTEST_SEED={}", failure.seed)));
        assert!(failure.scenario.contains("fault=node"), "{}", failure.scenario);
    }

    #[test]
    fn large_scenario_holds_invariants() {
        let scenario = FleetScenario::large(11);
        assert!(scenario.node_fault.is_some(), "the gate scale always loses a node");
        let report =
            run_fleet_scenario(&scenario, &FleetSimOptions::default()).expect("large fleet passes");
        assert!(report.ok > 0, "some placements must land: {report:?}");
    }
}
