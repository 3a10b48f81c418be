//! Million-user load generation for the GYAN stack.
//!
//! This crate turns one `u64` seed into a full soak test: a
//! non-homogeneous Poisson arrival process (diurnal sinusoid, burst
//! windows) assigns heavy-tailed jobs to a skewed population of up to
//! 10^6 registered users, and the [`driver`] pushes that schedule
//! through the *real* `GalaxyApp`/`QueueEngine`/`install_gyan` (or
//! `install_fleet`) stack on the shared virtual clock — with the stock
//! SLO alert rules evaluated at every wave barrier and the simtest
//! structural invariants checked alongside. The stack builder, the pump
//! loop and the failure report are `simtest::driver`'s — the one copy
//! this crate shares with the simulation harness; [`driver`] adds what is
//! the load harness's own.
//!
//! Three properties make it a load *harness* rather than a benchmark:
//!
//! * **replayable** — every report and failure reproduces from
//!   `LOADTEST_SEED=<n>` alone;
//! * **asserting** — a healthy scenario must keep
//!   [`DEFAULT_SLO_RULES`] quiet, and a failure ([`simtest::Failure`])
//!   carries the fired-alert list plus a flight-recorder dump;
//! * **scalable** — the queue engine runs each wave inline, so 10^5
//!   in-flight jobs need a queue entry each, not an OS thread each,
//!   and the recorder's retention cap keeps observability
//!   memory bounded.
//!
//! Environment knobs (all optional):
//!
//! * `LOADTEST_USERS` — user population for the soak tests;
//! * `LOADTEST_SEED` — pin one reproducing seed;
//! * `LOADTEST_CASES` — seeds swept per scenario shape.

pub mod arrival;
pub mod driver;
pub mod mix;
pub mod scenario;

pub use arrival::{ArrivalProcess, Burst, LoadProfile};
pub use driver::{
    run_scenario, run_scenario_recorded, LoadExecutor, LoadOptions, LoadReport, CPU_TOOL,
    DEFAULT_RUNTIME_S, DEFAULT_SLO_RULES, FAIL_GPU_ENV, GPU_TOOL, LOG_RETENTION, RUNTIME_ENV,
};
pub use mix::{BoundedPareto, UserMix};
pub use scenario::{LoadJob, LoadScenario, MemoryModel, Topology, CPU_TOOL_ID, GPU_TOOL_ID};

// The knob grammar is shared with simtest (`SIMTEST_*` ↔ `LOADTEST_*`).
pub use simtest::{parse_cases, parse_seed};

/// User population from `LOADTEST_USERS`, else `default`.
pub fn env_users(default: usize) -> usize {
    parse_cases(std::env::var("LOADTEST_USERS").ok().as_deref(), default)
}

/// Pinned seed from `LOADTEST_SEED`, if set.
pub fn env_seed() -> Option<u64> {
    parse_seed(std::env::var(driver::SEED_ENV).ok().as_deref())
}

/// Seed-sweep width from `LOADTEST_CASES`, else `default`.
pub fn env_cases(default: usize) -> usize {
    parse_cases(std::env::var("LOADTEST_CASES").ok().as_deref(), default)
}

#[cfg(test)]
mod tests {
    #[test]
    fn knob_parsing_reuses_the_simtest_grammar() {
        assert_eq!(super::parse_cases(Some("250"), 10), 250);
        assert_eq!(super::parse_cases(Some("0"), 10), 10, "zero users is meaningless");
        assert_eq!(super::parse_cases(None, 10_000), 10_000);
        assert_eq!(super::parse_seed(Some("99")), Some(99));
        assert_eq!(super::parse_seed(Some("bogus")), None);
    }
}
