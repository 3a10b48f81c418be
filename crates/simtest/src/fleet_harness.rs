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
//! * **drained** — after the last wave every shard's lease table and the
//!   fleet's booking map are empty.
//!
//! [`FleetSimOptions::double_place`] is the canonical known-bad wiring:
//! it re-runs placement for a job that already holds leases (as a buggy
//! dispatch layer would after a spurious retry). The fleet's booking map
//! forgets the first node, the first shard's leases leak, and the
//! per-shard conservation check trips — reproducibly, from the seed.
//!
//! [`FleetSimOptions::ignore_node_death`] is the shard-failure sibling:
//! the harness releases the dead node's leases (as the lost-job cleanup
//! would) but never marks the shard dead, so the placement layer keeps
//! seeing a freshly emptied — and therefore attractive — node. The next
//! wave books a job onto the corpse and `fleet_no_dead_node_booking`
//! trips with a reproducing seed.

use crate::driver::Repro;
use crate::fleet_scenario::{FleetScenario, NodeFault, FLEET_RULES};
use crate::invariants::{self, Violation};
use crate::{Failure, SimReport, SEED_ENV};
use fleet::{policy_by_name, DestinationRules, Fleet, NodeClass, Placement, PlacementRequest};
use obs::Recorder;
use std::collections::{BTreeMap, BTreeSet};

/// Fleet-harness knobs. Defaults model the correct system; tests flip
/// options to prove the checker catches known-bad wirings.
#[derive(Debug, Clone, Default)]
pub struct FleetSimOptions {
    /// Re-place every Nth placed job in its submit wave *without*
    /// releasing it first — the double-placement bug. `None` is the
    /// correct wiring.
    pub double_place: Option<usize>,
    /// On the scenario's node fault, release the dying node's leases but
    /// skip `Fleet::fail_node` — the stale-wiring bug where placement
    /// keeps treating a dead node as a candidate. `false` is the correct
    /// wiring.
    pub ignore_node_death: bool,
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

/// One run's books: the fleet, and which jobs hold leases until when.
/// This harness steps on its own rather than through
/// [`crate::driver::Stack::pump`] because its schedules hold leases
/// *across* waves, which the queue engine's wave barrier cannot express.
struct FleetRun<'a> {
    scenario: &'a FleetScenario,
    fleet: Fleet,
    /// job id → release wave. Job ids are 1-based schedule indices so
    /// audits map straight back to the schedule.
    active: BTreeMap<u64, usize>,
    /// Nodes the fault plan has killed.
    dead: BTreeSet<u32>,
    placed: usize,
    rejected: usize,
    /// Jobs a node death orphaned that no surviving node would take.
    lost_failed: usize,
}

impl<'a> FleetRun<'a> {
    fn new(scenario: &'a FleetScenario, recorder: &Recorder) -> Self {
        FleetRun {
            scenario,
            fleet: build_fleet(scenario, recorder),
            active: BTreeMap::new(),
            dead: BTreeSet::new(),
            placed: 0,
            rejected: 0,
            lost_failed: 0,
        }
    }

    /// Ask the fleet to place schedule entry `job_id`, holding it for the
    /// job's `hold_waves` from `wave` on success.
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
        self.active.insert(job_id, wave + job.hold_waves);
        Some(placement)
    }

    /// The placement half of a wave: release the jobs whose hold expired,
    /// then place the wave's submissions. Under the `double_place`
    /// known-bad wiring a buggy retry path hands every Nth placed job to
    /// placement again while it still holds leases.
    fn step(&mut self, wave: usize, double_place: Option<usize>) {
        let due: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, release)| **release <= wave)
            .map(|(id, _)| *id)
            .collect();
        for id in due {
            self.fleet.release(id, "ok");
            self.active.remove(&id);
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
                self.place(job_id, wave, &[]);
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
            self.active.remove(&job_id);
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
        invariants::fleet_no_dead_node_booking(&self.fleet, &self.dead)
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
        for id in std::mem::take(&mut self.active).into_keys() {
            self.fleet.release(id, "ok");
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
    let mut run = FleetRun::new(scenario, &recorder);
    for wave in 0..scenario.waves {
        run.wave(wave, options).map_err(|v| repro.failure(Some(wave), v))?;
    }
    run.drain()
        .and_then(|()| invariants::fleet_export_matches_acquire(&recorder.events()))
        .map_err(|v| repro.failure(None, v))?;

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
        let mut run = FleetRun::new(scenario, &Recorder::new());
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
