//! Deterministic simulation suite: seeded whole-stack scenarios with
//! fault injection and invariant checking (see `crates/simtest`).
//!
//! Knobs (also honored by `scripts/verify.sh`):
//!
//! * `SIMTEST_CASES=<n>` — number of seeded scenarios to run (default 25).
//! * `SIMTEST_SEED=<n>` — reproduce exactly that seed instead of the
//!   sweep. This is the string a failure report prints.

use simtest::harness::run_scenario_recorded;
use simtest::invariants::exclusive_isolation;
use simtest::{cases_from_env, check_seed, run_seed, seed_from_env, Scenario, SimOptions};

/// Sweep seeds 0..N (or replay `SIMTEST_SEED`) under the production
/// wiring: every scenario — whatever faults it injects — must hold all
/// invariants at every wave barrier.
#[test]
fn seeded_scenarios_hold_invariants() {
    let options = SimOptions::default();
    if let Some(seed) = seed_from_env() {
        match check_seed(seed, &options) {
            Ok(report) => println!("SIMTEST_SEED={seed} passed: {report:?}"),
            Err(failure) => panic!("{failure}"),
        }
        return;
    }
    let cases = cases_from_env(25) as u64;
    let mut faulted = 0usize;
    for seed in 0..cases {
        match check_seed(seed, &options) {
            Ok(report) => {
                if report.error > 0 || report.cancelled > 0 {
                    faulted += 1;
                }
            }
            Err(failure) => panic!("{failure}"),
        }
    }
    // The sweep must actually exercise the fault paths, not just happy
    // runs; the generator's fault probabilities guarantee this for any
    // reasonable case count.
    assert!(faulted > 0, "no scenario out of {cases} exercised a fault path");
}

/// The canonical known-bad fault plan: dropping the discard listener
/// leaks the discarded wave's GPU leases. The checker must catch it and
/// print a single reproducing seed.
#[test]
fn unreleased_discard_leases_are_caught_with_a_reproducing_seed() {
    let bad = SimOptions {
        release_on_discard: false,
        force_wave_discard: Some(0),
        ..SimOptions::default()
    };
    let failure = (0..200)
        .find_map(|seed| check_seed(seed, &bad).err())
        .expect("a discarded GPU wave with no release listener must trip an invariant");
    assert_eq!(failure.reason, "no_leaked_leases", "{failure}");
    let text = failure.to_string();
    assert!(text.contains(&format!("SIMTEST_SEED={}", failure.seed)), "{text}");
    assert!(text.contains("shrunk"), "shrinker did not run: {text}");

    // The operations plane must page on the same condition: the harness
    // evaluates its leaked-lease SLO rule at every wave barrier, so the
    // invariant failure arrives with the alert already firing — and with
    // a flight-recorder dump of the moments leading up to it.
    assert!(
        failure.fired_alerts.iter().any(|a| a == "leaked-lease"),
        "leaked-lease alert did not fire alongside the invariant: {text}"
    );
    assert!(text.contains("fired alerts: leaked-lease"), "{text}");
    let flight = failure.flight_jsonl.as_deref().expect("flight recorder dump captured");
    assert!(flight.starts_with("{\"type\":\"flightrec\""), "{flight}");

    // Reproduction contract: the printed seed alone re-creates the
    // failure, same invariant, no scenario serialization needed.
    let again = run_seed(failure.seed, &bad).expect_err("seed must reproduce the failure");
    assert_eq!(again.reason, failure.reason);
    assert!(again.fired_alerts.iter().any(|a| a == "leaked-lease"), "{again}");
}

/// `exclusive_isolation` reads the lease records the stack really writes:
/// on the sweep's first seeds it replays every acquire record the log
/// holds, and there are some.
#[test]
fn exclusive_isolation_replays_the_real_acquire_records() {
    let mut replayed = 0;
    for seed in 0..8 {
        let (_, recorder) =
            run_scenario_recorded(&Scenario::generate(seed), &SimOptions::default())
                .unwrap_or_else(|f| panic!("{f}"));
        let events = recorder.events();
        let acquires = events.iter().filter(|e| e.name == "gyan.reservation.acquire").count();
        assert_eq!(exclusive_isolation(&events).map_err(|v| v.detail), Ok(acquires), "seed {seed}");
        replayed += acquires;
    }
    assert!(replayed > 0, "no seed of 0..8 leased a device");
}

/// A double exclusive grant — a second lease table over the node, leasing
/// every idle device before each wave — is caught on the real records,
/// with a seed that reproduces it.
#[test]
fn a_double_exclusive_grant_is_caught_with_a_reproducing_seed() {
    let bad = SimOptions { second_lease_table: true, ..SimOptions::default() };
    let failure = (0..50)
        .find_map(|seed| check_seed(seed, &bad).err())
        .expect("two tables granting one device exclusively must trip an invariant");
    assert_eq!(failure.reason, "exclusive_isolation", "{failure}");
    assert!(failure.detail.contains("(exclusive=true) while held by"), "{failure}");
    let text = failure.to_string();
    assert!(text.contains(&format!("SIMTEST_SEED={}", failure.seed)), "{text}");
    let again = run_seed(failure.seed, &bad).expect_err("seed must reproduce the failure");
    assert_eq!(again.reason, failure.reason);
}

/// Fleet-layer sweep: seeded multi-node scenarios must hold the
/// per-shard conservation, fleet-wide no-double-booking, and
/// placement↔acquire invariants at every wave barrier.
#[test]
fn fleet_seeded_scenarios_hold_invariants() {
    use simtest::{run_fleet_seed, FleetSimOptions};
    let options = FleetSimOptions::default();
    if let Some(seed) = seed_from_env() {
        match run_fleet_seed(seed, &options) {
            Ok(report) => println!("SIMTEST_SEED={seed} passed: {report:?}"),
            Err(failure) => panic!("{failure}"),
        }
        return;
    }
    let cases = cases_from_env(25) as u64;
    let mut saw_rejection = false;
    for seed in 0..cases {
        match run_fleet_seed(seed, &options) {
            Ok(report) => saw_rejection |= report.rejected > 0,
            Err(failure) => panic!("{failure}"),
        }
    }
    // The rule/memory filters must actually bite somewhere in the sweep.
    assert!(saw_rejection, "no scenario out of {cases} exercised a placement rejection");
}

/// The verify-gate scale: a 100-node heterogeneous fleet with a
/// 10,000-user population holds every invariant, per shard and
/// fleet-wide. `SIMTEST_CASES` caps the sweep (default 3 at this size).
#[test]
fn fleet_100_node_10k_user_scenario_holds_invariants() {
    use simtest::{run_fleet_scenario, FleetScenario, FleetSimOptions};
    let options = FleetSimOptions::default();
    let cases = cases_from_env(3).min(25) as u64;
    for seed in 0..cases {
        let scenario = FleetScenario::large(seed);
        assert_eq!(scenario.node_count(), 100);
        assert_eq!(scenario.users, 10_000);
        let report =
            run_fleet_scenario(&scenario, &options).unwrap_or_else(|failure| panic!("{failure}"));
        assert!(report.ok > 0, "large fleet placed nothing: {report:?}");
    }
}

/// The fleet's canonical known-bad wiring: a job that still holds leases
/// is granted a second shard's devices behind the fleet's back, which
/// strands them there. The checker must catch it and print a single
/// reproducing seed.
#[test]
fn fleet_double_placement_is_caught_with_a_reproducing_seed() {
    use simtest::{run_fleet_seed, FleetSimOptions};
    let bad = FleetSimOptions { double_place: Some(2), ..Default::default() };
    let failure = (0..100)
        .find_map(|seed| run_fleet_seed(seed, &bad).err())
        .expect("a double-placed job must trip a fleet invariant");
    assert!(
        failure.reason == "fleet_lease_conservation" || failure.reason == "fleet_no_double_booking",
        "{failure}"
    );
    let text = failure.to_string();
    assert!(text.contains(&format!("SIMTEST_SEED={}", failure.seed)), "{text}");

    // Reproduction contract: the printed seed alone re-creates the
    // failure with the same invariant.
    let again = run_fleet_seed(failure.seed, &bad).expect_err("seed must reproduce");
    assert_eq!(again.reason, failure.reason);
}

/// Shard-failure sweep: scenarios whose fault plan kills a node mid-wave
/// must keep every invariant under the correct wiring — leases
/// force-released as `node_lost`, lost jobs resubmitted with the dead
/// node excluded (or failed finally), and no booking ever pointing at
/// the corpse.
#[test]
fn fleet_node_death_holds_invariants_across_the_sweep() {
    use simtest::{run_fleet_seed, FleetScenario, FleetSimOptions};
    let options = FleetSimOptions::default();
    let cases = cases_from_env(25) as u64;
    let mut killed = 0usize;
    for seed in 0..cases {
        if FleetScenario::generate(seed).node_fault.is_some() {
            killed += 1;
        }
        if let Err(failure) = run_fleet_seed(seed, &options) {
            panic!("{failure}");
        }
    }
    assert!(killed > 0, "no scenario out of {cases} killed a node");
}

/// The shard-failure known-bad wiring: a fleet that keeps placing onto a
/// dead node (the node's leases were cleaned up, but the shard was never
/// marked dead) must be caught with a single reproducing seed.
#[test]
fn fleet_stale_dead_node_placement_is_caught_with_a_reproducing_seed() {
    use simtest::{run_fleet_seed, FleetSimOptions};
    let bad = FleetSimOptions { ignore_node_death: true, ..Default::default() };
    let failure = (0..100)
        .find_map(|seed| run_fleet_seed(seed, &bad).err())
        .expect("a job booked onto a dead node must trip a fleet invariant");
    assert_eq!(failure.reason, "fleet_no_dead_node_booking", "{failure}");
    let text = failure.to_string();
    assert!(text.contains(&format!("SIMTEST_SEED={}", failure.seed)), "{text}");
    assert!(failure.scenario.contains("fault=node"), "{}", failure.scenario);

    let again = run_fleet_seed(failure.seed, &bad).expect_err("seed must reproduce");
    assert_eq!(again.reason, failure.reason);
}

/// The availability flags' known-bad wiring: a device write path that
/// does not republish the lock-free availability placement scores nodes
/// by. `fleet_availability_flags_honest` — checked at every barrier of
/// the sweeps above — must catch it with a single reproducing seed.
#[test]
fn fleet_unpublished_device_write_is_caught_with_a_reproducing_seed() {
    use simtest::{run_fleet_seed, FleetSimOptions};
    let bad = FleetSimOptions { unpublished_device_writes: true, ..Default::default() };
    let failure = (0..100)
        .find_map(|seed| run_fleet_seed(seed, &bad).err())
        .expect("a busy device published as available must trip a fleet invariant");
    assert_eq!(failure.reason, "fleet_availability_flags_honest", "{failure}");
    let text = failure.to_string();
    assert!(text.contains(&format!("SIMTEST_SEED={}", failure.seed)), "{text}");

    let again = run_fleet_seed(failure.seed, &bad).expect_err("seed must reproduce");
    assert_eq!(again.reason, failure.reason);
}
