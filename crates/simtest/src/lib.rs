//! Deterministic whole-stack simulation testing (FoundationDB style).
//!
//! The harness generates a random — but fully seed-determined —
//! [`Scenario`]: cluster topology, a mix of
//! CPU/GPU/racon/bonito jobs, DAG workflow shapes, per-user submission
//! schedules, and a fault plan (SMI query errors, stale SMI snapshots,
//! container launch failures, OOM kills, crashes, mid-wave discards).
//! It runs the scenario through the *real*
//! `QueueEngine`/`install_gyan` stack and checks global
//! invariants at every wave barrier:
//!
//! * no two exclusive leases on one GPU minor (an exclusive grant only
//!   lands on an unleased device; shared grants may oversubscribe);
//! * no leases survive a wave barrier (conclusion releases them);
//! * job-count conservation between the engine ledger and the app;
//! * every GPU-enabled export is backed by a `gyan.reservation.acquire`
//!   audit, and vice versa;
//! * every opened obs span is closed once the system quiesces.
//!
//! Failures reproduce from `SIMTEST_SEED=<n>` alone; [`check_seed`]
//! additionally shrinks the scenario (fewer jobs, fewer faults) before
//! reporting, so the printed repro is close to minimal.
//!
//! The fleet layer has its own seeded sweep ([`fleet_scenario`] +
//! [`fleet_harness`]): multi-node topologies up to 100 heterogeneous
//! nodes and 10k users, with per-shard lease conservation, fleet-wide
//! no-double-booking, and placement↔acquire equality checked at every
//! wave barrier.
//!
//! The stack builder, the pump loop and the failure report are not
//! simtest's own: [`driver`] holds the one copy that [`harness`] and
//! `loadgen::driver` are both thin scenario adapters over.

pub mod driver;
pub mod fleet_harness;
pub mod fleet_scenario;
pub mod harness;
pub mod invariants;
pub mod scenario;
pub mod shrink;

pub use fleet_harness::{run_fleet_scenario, run_fleet_seed, FleetSimOptions};
pub use fleet_scenario::{FleetScenario, NodeFault};
pub use harness::run_scenario;
pub use scenario::Scenario;

/// Harness knobs. The defaults model the *correct* system; tests flip
/// individual options to prove the checker catches known-bad
/// configurations.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Register the lease table's discard listener on the engine (the
    /// production wiring). Disabling this is the canonical known-bad
    /// fault plan: discarded plans leak their leases and the
    /// `no_leaked_leases` invariant trips.
    pub release_on_discard: bool,
    /// Force a mid-wave discard at this wave, overriding the scenario's
    /// own fault plan.
    pub force_wave_discard: Option<usize>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { release_on_discard: true, force_wave_discard: None }
    }
}

/// Summary of one passing scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimReport {
    /// Generating seed.
    pub seed: u64,
    /// Waves pumped before the queue idled.
    pub waves: usize,
    /// Submissions the queue admitted (jobs + workflows).
    pub submitted: usize,
    /// Submissions rejected by admission control.
    pub rejected: usize,
    /// Jobs that finished OK.
    pub ok: usize,
    /// Jobs that failed terminally.
    pub error: usize,
    /// Jobs cancelled (discards, failed upstream steps).
    pub cancelled: usize,
}

/// Name of the variable [`seed_from_env`] replays a seed from, as
/// simtest failures print it.
pub(crate) const SEED_ENV: &str = "SIMTEST_SEED";

/// A failed scenario run — simtest's or the load harness's —
/// reproducible from the seed alone.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Seed that reproduces the failure (`<seed_env>=<seed>`).
    pub seed: u64,
    /// Environment variable the owning suite reads the seed back from
    /// (`SIMTEST_SEED`, `LOADTEST_SEED`).
    pub seed_env: &'static str,
    /// Waves dispatched when the run failed (None = setup or a
    /// whole-run check).
    pub wave: Option<usize>,
    /// What failed: the violated invariant's name, `"slo"`, `"setup"`, …
    pub reason: &'static str,
    /// Failure specifics.
    pub detail: String,
    /// Description of the (possibly shrunk) failing scenario.
    pub scenario: String,
    /// SLO alert rules firing when the run failed — the live operations
    /// plane should page *before* a postmortem invariant checker does,
    /// so a violation without a fired alert is itself an observability
    /// gap worth investigating.
    pub fired_alerts: Vec<String>,
    /// Flight-recorder JSONL dump captured at failure time (None when
    /// the recorder had no ring enabled).
    pub flight_jsonl: Option<String>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "scenario run failed: {}", self.reason)?;
        match self.wave {
            Some(w) => writeln!(f, "  at wave {w}: {}", self.detail)?,
            None => writeln!(f, "  {}", self.detail)?,
        }
        writeln!(f, "  scenario: {}", self.scenario)?;
        if !self.fired_alerts.is_empty() {
            writeln!(f, "  fired alerts: {}", self.fired_alerts.join(", "))?;
        }
        if let Some(dump) = &self.flight_jsonl {
            writeln!(f, "  flight recorder: {} line(s) captured", dump.lines().count())?;
        }
        write!(f, "  reproduce with {}={}", self.seed_env, self.seed)
    }
}

impl std::error::Error for Failure {}

/// Run the scenario generated by `seed`.
#[allow(clippy::result_large_err)]
pub fn run_seed(seed: u64, options: &SimOptions) -> Result<SimReport, Failure> {
    run_scenario(&Scenario::generate(seed), options)
}

/// Run `seed`; on failure, shrink the scenario to a (locally) minimal
/// still-failing form and report that, keeping the original seed as the
/// reproduction handle.
#[allow(clippy::result_large_err)]
pub fn check_seed(seed: u64, options: &SimOptions) -> Result<SimReport, Failure> {
    match run_seed(seed, options) {
        Ok(report) => Ok(report),
        Err(original) => {
            let minimized = shrink::shrink(&Scenario::generate(seed), options);
            let failure = run_scenario(&minimized, options).err().unwrap_or(original);
            Err(Failure {
                seed,
                scenario: format!("{} (shrunk from seed {seed})", minimized.describe()),
                ..failure
            })
        }
    }
}

/// `SIMTEST_CASES` override, else `default`.
pub fn cases_from_env(default: usize) -> usize {
    parse_cases(std::env::var("SIMTEST_CASES").ok().as_deref(), default)
}

/// `SIMTEST_SEED` override: when set, run exactly that seed.
pub fn seed_from_env() -> Option<u64> {
    parse_seed(std::env::var(SEED_ENV).ok().as_deref())
}

/// Parse a `SIMTEST_CASES`-style value (testable without touching the
/// process environment).
pub fn parse_cases(value: Option<&str>, default: usize) -> usize {
    value.and_then(|v| v.trim().parse().ok()).filter(|n| *n > 0).unwrap_or(default)
}

/// Parse a `SIMTEST_SEED`-style value.
pub fn parse_seed(value: Option<&str>) -> Option<u64> {
    value.and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knob_parsing() {
        assert_eq!(parse_cases(None, 25), 25);
        assert_eq!(parse_cases(Some("100"), 25), 100);
        assert_eq!(parse_cases(Some(" 7 "), 25), 7);
        assert_eq!(parse_cases(Some("0"), 25), 25, "zero cases is meaningless");
        assert_eq!(parse_cases(Some("nope"), 25), 25);
        assert_eq!(parse_seed(None), None);
        assert_eq!(parse_seed(Some("42")), Some(42));
        assert_eq!(parse_seed(Some("banana")), None);
    }

    #[test]
    fn failure_display_carries_the_seed() {
        for seed_env in [SEED_ENV, "LOADTEST_SEED"] {
            let failure = Failure {
                seed: 1234,
                seed_env,
                wave: Some(2),
                reason: "no_leaked_leases",
                detail: "1 lease(s) active".to_string(),
                scenario: "gpus=2 jobs=3".to_string(),
                fired_alerts: vec!["leaked-lease".to_string()],
                flight_jsonl: Some("{\"type\":\"flightrec\"}\n{\"t\":0}".to_string()),
            };
            let text = failure.to_string();
            assert!(text.ends_with(&format!("reproduce with {seed_env}=1234")), "{text}");
            assert!(text.contains("no_leaked_leases"), "{text}");
            assert!(text.contains("wave 2"), "{text}");
            assert!(text.contains("fired alerts: leaked-lease"), "{text}");
            assert!(text.contains("flight recorder: 2 line(s)"), "{text}");
        }
    }

    /// `run_seed(s, &SimOptions::default())` for seeds 0..25, captured at
    /// the parent commit 8ba17c1 (before `harness::run_scenario` moved
    /// onto `driver::Stack`): the seed sweep must stay bit-identical.
    #[test]
    fn seed_sweep_reports_are_pinned() {
        let r = |seed, waves, submitted, rejected, ok, error, cancelled| SimReport {
            seed,
            waves,
            submitted,
            rejected,
            ok,
            error,
            cancelled,
        };
        let pinned = [
            r(0, 1, 3, 9, 1, 2, 0),
            r(1, 6, 11, 0, 13, 0, 3),
            r(2, 2, 3, 1, 3, 0, 0),
            r(3, 2, 3, 6, 3, 0, 0),
            r(4, 9, 7, 0, 7, 0, 0),
            r(5, 15, 10, 0, 13, 0, 0),
            r(6, 1, 2, 0, 0, 0, 2),
            r(7, 2, 4, 0, 1, 2, 1),
            r(8, 6, 7, 0, 12, 0, 0),
            r(9, 1, 2, 9, 2, 0, 0),
            r(10, 2, 4, 0, 7, 0, 0),
            r(11, 2, 2, 1, 2, 0, 0),
            r(12, 6, 8, 0, 7, 0, 2),
            r(13, 3, 8, 3, 8, 0, 0),
            r(14, 11, 8, 0, 8, 0, 0),
            r(15, 5, 8, 2, 11, 0, 0),
            r(16, 3, 6, 3, 4, 2, 0),
            r(17, 9, 11, 0, 14, 3, 0),
            r(18, 15, 10, 0, 10, 0, 0),
            r(19, 1, 2, 0, 0, 0, 2),
            r(20, 2, 4, 0, 3, 0, 1),
            r(21, 2, 3, 0, 4, 0, 0),
            r(22, 6, 4, 0, 7, 0, 3),
            r(23, 2, 4, 0, 4, 2, 0),
            r(24, 6, 5, 0, 11, 0, 0),
        ];
        for want in pinned {
            let got = run_seed(want.seed, &SimOptions::default()).unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn same_seed_same_report() {
        let options = SimOptions::default();
        let a = run_seed(3, &options).expect("seed 3 passes");
        let b = run_seed(3, &options).expect("seed 3 passes");
        assert_eq!(a, b, "whole-stack run is deterministic");
    }
}
