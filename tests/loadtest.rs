//! Load-harness soak suite: seed-swept realistic arrival processes
//! driven through the real queue stack, with the stock SLO alert rules
//! asserted at every wave barrier.
//!
//! Knobs: `LOADTEST_USERS` (population, default 10^4),
//! `LOADTEST_SEED` (pin one reproducing seed), `LOADTEST_CASES`
//! (seeds swept per scenario shape, default 1 — raise for deep soaks).

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{QueueConfig, QueueEngine};
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::{GpuArch, GpuCluster};
use gyan::ops::{ops_server, DEFAULT_NODE_NAME};
use gyan::setup::{install_gyan, GyanConfig};
use loadgen::{
    env_cases, env_seed, env_users, run_scenario, ArrivalProcess, BoundedPareto, LoadOptions,
    LoadProfile, LoadScenario, DEFAULT_SLO_RULES,
};
use obs::serve::http_get;
use obs::slo::AlertEngine;
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;

const DEFAULT_USERS: usize = 10_000;

fn quiet_options() -> LoadOptions {
    LoadOptions {
        fail_on: DEFAULT_SLO_RULES.iter().map(|s| s.to_string()).collect(),
        ..Default::default()
    }
}

/// A healthy diurnal day at 10^4 users must complete with every stock
/// SLO rule quiet — across a sweep of seeds, each reproducing exactly.
#[test]
fn diurnal_soak_keeps_all_slos_quiet() {
    let users = env_users(DEFAULT_USERS);
    for seed in sweep_seeds(0xD1A8) {
        let scenario = LoadScenario::diurnal(seed, users);
        let report = run_scenario(&scenario, &quiet_options()).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.rejected, 0, "seed {seed}: admission rejected load");
        assert_eq!(report.ok, report.submitted, "seed {seed}: not every job finished OK");
        assert!(report.fired.is_empty(), "seed {seed}: fired {:?}", report.fired);
        assert!(
            report.queue_wait_p99 < 30.0,
            "seed {seed}: p99 {} breaches the SLO",
            report.queue_wait_p99
        );
    }
}

/// Burst windows (two 15-minute 4× spikes) absorb into short waves
/// without breaching the wait SLO.
#[test]
fn burst_soak_keeps_all_slos_quiet() {
    let users = env_users(DEFAULT_USERS);
    for seed in sweep_seeds(0xB057) {
        let scenario = LoadScenario::burst(seed, users);
        let report = run_scenario(&scenario, &quiet_options()).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.ok, report.submitted, "seed {seed}");
        assert!(report.fired.is_empty(), "seed {seed}: fired {:?}", report.fired);
    }
}

/// An under-provisioned fleet (one worker against a stream that
/// outpaces it) must page `queue-wait-p99`, and the failure form must
/// carry a flight dump plus the reproducing seed.
#[test]
fn under_provisioned_fleet_fires_queue_wait_p99() {
    let users = env_users(DEFAULT_USERS).div_ceil(5);
    let seed = env_seed().unwrap_or(0xBAD5EED);
    let scenario = LoadScenario::under_provisioned(seed, users);

    // As data: the run completes and records the firing.
    let report = run_scenario(&scenario, &LoadOptions::default()).unwrap_or_else(|f| panic!("{f}"));
    assert!(report.fired.iter().any(|r| r == "queue-wait-p99"), "fired only {:?}", report.fired);
    assert!(report.queue_wait_p99 > 30.0, "p99 {}", report.queue_wait_p99);

    // As an assertion: the same scenario converts into a reproducible
    // failure carrying the operator-facing black box.
    let failure = run_scenario(
        &scenario,
        &LoadOptions { fail_on: vec!["queue-wait-p99".to_string()], ..Default::default() },
    )
    .expect_err("SLO breach must fail the run");
    assert_eq!(failure.reason, "slo");
    assert!(failure.fired_alerts.iter().any(|a| a == "queue-wait-p99"));
    assert!(failure.flight_jsonl.is_some(), "no flight dump captured");
    let text = failure.to_string();
    assert!(text.contains(&format!("LOADTEST_SEED={seed}")), "{text}");
}

/// A cluster whose GPU attempts mostly fail pages `resubmission-burn`
/// (every failed GPU attempt resubmits down the ladder to CPU).
#[test]
fn gpu_flaky_fleet_fires_resubmission_burn() {
    let users = env_users(DEFAULT_USERS).div_ceil(5);
    let seed = env_seed().unwrap_or(0xF1AC);
    let report = run_scenario(&LoadScenario::gpu_flaky(seed, users), &LoadOptions::default())
        .unwrap_or_else(|f| panic!("{f}"));
    assert!(report.fired.iter().any(|r| r == "resubmission-burn"), "fired only {:?}", report.fired);
    // The ladder lands every failed GPU attempt on CPU: no terminal errors.
    assert_eq!(report.error, 0);
    assert_eq!(report.ok, report.submitted);
}

/// The same harness drives the multi-node fleet stack (`install_fleet`)
/// with placements released at every barrier, and the fleet keeps the
/// same stock SLO rules quiet as a single node.
#[test]
fn fleet_topology_soak_runs_clean() {
    let users = env_users(DEFAULT_USERS).div_ceil(5);
    let seed = env_seed().unwrap_or(0xF1EE7);
    let report = run_scenario(&LoadScenario::fleet(seed, users), &quiet_options())
        .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(report.ok, report.submitted);
    assert!(report.fired.is_empty(), "fired {:?}", report.fired);
}

// --- Job conservation on the wire under the event-driven dispatch loop -

const LOAD_ECHO: &str = r#"<tool id="load_echo" name="Echo">
  <command>echo tick</command>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

/// Value of `name` in a `/metrics` body. Untouched counters are not
/// rendered at all, so absence reads as zero.
fn scrape(body: &str, name: &str) -> f64 {
    body.lines()
        .find_map(|line| line.strip_prefix(name).and_then(|rest| rest.trim().parse::<f64>().ok()))
        .unwrap_or(0.0)
}

/// An operator scraping `/metrics` mid-burst must see every job
/// accounted for: at every wave barrier `submitted == queued + ok +
/// error` (a wave runs inline in the engine, so no job is in flight
/// between pumps).
#[test]
fn metrics_scrape_mid_burst_conserves_jobs() {
    let cluster = GpuCluster::node(GpuArch::tesla_k80(), 4);
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    app.install_tool_xml(LOAD_ECHO, &MacroLibrary::new()).unwrap();
    let table = install_gyan(&mut app, &cluster, GyanConfig::default());
    let recorder = app.recorder().clone();
    app.set_executor(Box::new(loadgen::LoadExecutor));
    let config = QueueConfig { workers: 4, capacity: 4_096, ..QueueConfig::default() };
    let mut engine = QueueEngine::new(app, Arc::new(loadgen::LoadExecutor), config);
    let alerts = AlertEngine::new(&recorder);
    let nodes = [(DEFAULT_NODE_NAME, &cluster, &table)];
    let handle = ops_server(&recorder, &nodes, &engine.ledger(), &alerts)
        .start("127.0.0.1:0")
        .expect("bind ops server");

    for i in 0..120u32 {
        engine.submit_async(&format!("u{}", i % 7), "load_echo", &ParamDict::new()).unwrap();
    }

    let mut waves = 0usize;
    let mut scraped_with_backlog = 0usize;
    loop {
        let dispatched = engine.pump_wave();
        let (status, body) = http_get(handle.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        let submitted = scrape(&body, "galaxy_jobs_submitted_total");
        let queued = scrape(&body, "galaxy_queue_depth");
        let ok = scrape(&body, "galaxy_jobs_ok_total");
        let error = scrape(&body, "galaxy_jobs_error_total");
        assert_eq!(
            queued + ok + error,
            submitted,
            "jobs unaccounted for at wave {waves}: {queued} + {ok} + {error} != {submitted}"
        );
        // "Mid-burst": the engine still holds a fair-share backlog while
        // we scrape.
        if queued > 0.0 {
            scraped_with_backlog += 1;
        }
        if dispatched == 0 {
            break;
        }
        waves += 1;
        assert!(waves < 500, "livelock");
    }
    assert!(scraped_with_backlog > 0, "never scraped mid-burst (queue always drained)");
    handle.shutdown();
    engine.shutdown();
}

// --- Arrival-process and mix properties --------------------------------

proptest! {
    /// The same seed always yields the identical submission schedule.
    #[test]
    fn same_seed_reproduces_the_schedule(seed in any::<u64>()) {
        let scenario = LoadScenario::burst(seed, 500);
        prop_assert_eq!(scenario.generate(), scenario.generate());
    }

    /// Empirical inter-arrival mean tracks the configured rate on a
    /// constant profile (within sampling tolerance).
    #[test]
    fn inter_arrival_mean_matches_rate(rate_milli in 200u64..5_000, seed in any::<u64>()) {
        let rate = rate_milli as f64 / 1_000.0;
        let horizon = 4_000.0 / rate; // ≈ 4000 expected arrivals
        let flat =
            LoadProfile { base_rate: rate, diurnal_amplitude: 0.0, period_s: 0.0, bursts: vec![] };
        let arrivals: Vec<f64> = ArrivalProcess::new(flat, horizon, seed).collect();
        prop_assert!(arrivals.len() > 3_000, "only {} arrivals", arrivals.len());
        let mean_gap = arrivals.last().unwrap() / arrivals.len() as f64;
        let expected = 1.0 / rate;
        prop_assert!(
            (mean_gap - expected).abs() / expected < 0.10,
            "mean gap {mean_gap} vs 1/λ {expected}"
        );
    }

    /// Heavy-tailed sizes are never zero, negative, or above the cap.
    #[test]
    fn heavy_tail_sizes_stay_positive_and_bounded(
        xm_milli in 100u64..2_000,
        cap_mult in 2u64..50,
        alpha_deci in 8u64..30,
        seed in any::<u64>(),
    ) {
        let dist = BoundedPareto {
            xm: xm_milli as f64 / 1_000.0,
            cap: (xm_milli * cap_mult) as f64 / 1_000.0,
            alpha: alpha_deci as f64 / 10.0,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..2_000 {
            let x = dist.sample(&mut rng);
            prop_assert!(x > 0.0, "non-positive size {x}");
            prop_assert!(x >= dist.xm && x <= dist.cap, "{x} outside [{}, {}]", dist.xm, dist.cap);
        }
    }

    /// Thinning never emits arrivals outside the horizon or out of order.
    #[test]
    fn arrivals_are_ordered_and_in_horizon(seed in any::<u64>()) {
        let profile = LoadProfile {
            base_rate: 2.0,
            diurnal_amplitude: 0.5,
            period_s: 500.0,
            bursts: vec![loadgen::Burst { start_s: 100.0, duration_s: 50.0, multiplier: 3.0 }],
        };
        let arrivals: Vec<f64> = ArrivalProcess::new(profile, 1_000.0, seed).collect();
        prop_assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(arrivals.iter().all(|t| (0.0..1_000.0).contains(t)));
    }
}

/// Seed sweep helper: `LOADTEST_SEED` pins one seed, otherwise
/// `LOADTEST_CASES` seeds derived from a per-shape offset.
fn sweep_seeds(offset: u64) -> Vec<u64> {
    if let Some(seed) = env_seed() {
        return vec![seed];
    }
    (0..env_cases(1)).map(|i| offset + i as u64 * 7_919).collect()
}
