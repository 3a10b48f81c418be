//! # gyan
//!
//! GYAN — *GPU-aware computation mapping and orchestration for Galaxy* —
//! the contribution of the paper, reimplemented over the `galaxy` framework
//! substrate and the `gpusim` GPU cluster simulator.
//!
//! The paper's four challenges map onto these modules:
//!
//! * **Challenge-I** (a GPU compute requirement in tool XML): parsing lives
//!   in `galaxy::tool` (`Requirement::is_gpu`, `Tool::requested_gpu_ids`);
//!   this crate consumes it everywhere.
//! * **Challenge-II** (exposing GPU availability to the runner):
//!   [`rules`] implements the `gpu_dynamic_destination` job rule that maps
//!   jobs to GPU or CPU destinations from live `pynvml` queries, and
//!   [`orchestrator`] exports `GALAXY_GPU_ENABLED` and bridges
//!   `__galaxy_gpu_enabled__` into the tool's parameter dictionary.
//! * **Challenge-III** (GPU support for containerized tools):
//!   [`container_gpu`] injects `--gpus all` into Docker launches and
//!   `--nv` into Singularity launches (stripping the `rw`/`ro` bind flags
//!   Singularity ≥3.1 rejects).
//! * **Challenge-IV** (multi-GPU computation mapping): [`gpu_usage`] is
//!   the paper's Pseudocode 1 (`get_gpu_usage`: one structured
//!   observation per decision, with `parse_gpu_usage` for real
//!   `nvidia-smi -q -x` XML), and [`allocation`] implements Pseudocode 2
//!   with both device allocation strategies — the *Process ID* approach
//!   and the *Process Allocated Memory* approach — producing the
//!   `CUDA_VISIBLE_DEVICES` export.
//!
//! Beyond the paper: [`reservations`] closes the observe→dispatch TOCTOU
//! window of the SMI-polling allocator with a lease table — a device
//! granted to a not-yet-executing plan is no longer "free" to the next
//! plan prepared in the same dispatch wave.
//!
//! [`monitor`] is the paper's §V-C GPU hardware usage script (1 Hz
//! utilization/memory/PCIe sampling with post-processed statistics and CSV
//! output), [`telemetry`] merges job spans, decision audits, kernel/DMA
//! timelines, and monitor samples into one Chrome trace, [`ops`] exposes
//! the running stack over an embedded HTTP introspection server with SLO
//! alert rules and a flight recorder, and [`setup`] wires everything into
//! a `GalaxyApp` in one call.

pub mod allocation;
pub mod container_gpu;
pub mod footprint;
pub mod gpu_usage;
pub mod monitor;
pub mod ops;
pub mod orchestrator;
pub mod reservations;
pub mod rules;
pub mod setup;
pub mod telemetry;

pub use allocation::{select_gpus, AllocationPolicy, AllocationReason};
pub use footprint::{EstimateSource, FootprintRegistry, MemoryHint, ProfileSnapshot};
pub use gpu_usage::{get_gpu_usage, parse_gpu_usage, try_get_gpu_usage, GpuUsageError};
pub use monitor::UsageMonitor;
pub use ops::{
    default_alert_rules, galaxy_alert_rules, ops_server, profiles_route, DEFAULT_FLIGHT_CAPACITY,
};
pub use orchestrator::{GyanHook, NodePlacer, Placed, Placer};
pub use reservations::{Lease, LeaseSummary, LeaseTable, ReservationView};
pub use rules::GpuDestinationRule;
pub use setup::{footprint_advisor, install_gyan, install_gyan_with_footprint, install_hook};
pub use telemetry::{export_run, merged_chrome_trace, TelemetryExport};

/// The boolean environment variable GYAN introduces to Galaxy: `"true"`
/// when the job was mapped to a GPU destination.
pub const GALAXY_GPU_ENABLED: &str = "GALAXY_GPU_ENABLED";

/// The CUDA device mask GYAN exports to constrain the tool process.
pub const CUDA_VISIBLE_DEVICES: &str = "CUDA_VISIBLE_DEVICES";

/// The parameter-dictionary key exposed to tool wrappers (paper Code 3:
/// `$__galaxy_gpu_enabled__`).
pub const GPU_ENABLED_PARAM: &str = "__galaxy_gpu_enabled__";
