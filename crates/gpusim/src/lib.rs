//! # gpusim
//!
//! A GPU cluster simulator standing in for the NVIDIA hardware + driver
//! stack that the GYAN paper runs on (2× Tesla K80 on a Chameleon Cloud
//! node). GYAN itself never launches CUDA kernels — it *queries* GPU state
//! (`nvidia-smi -q -x`) and *constrains* tools
//! (`CUDA_VISIBLE_DEVICES`, `docker --gpus`, `singularity --nv`). This crate
//! therefore provides:
//!
//! * [`cluster::GpuCluster`] — shared mutable state for a node's GPUs, with
//!   process placement and memory accounting;
//! * [`arch`] — architecture descriptors (Tesla K80/GK210, V100, A100) with
//!   the microarchitectural parameters the cost model needs;
//! * [`smi`] — an `nvidia-smi` emulator producing the `-q -x` XML document
//!   and the human-readable console table shown in the paper's Figs. 10/11;
//! * [`cuda`] — a CUDA-runtime-like facade (malloc/memcpy/launch/sync) whose
//!   calls advance a **virtual clock** according to an occupancy + roofline
//!   cost model ([`kernel`], [`occupancy`], [`transfer`]);
//! * [`profiler`] — an NVProf-like profiler accumulating per-API time and a
//!   stall analysis, used to regenerate the paper's Figs. 4 and 6;
//! * [`host`] — a CPU host cost model (Xeon E5-2670 class) so CPU-only tool
//!   executions are expressed in the same virtual time base.
//!
//! All time in this crate is *virtual*: deterministic seconds derived from
//! work descriptions, never wall-clock measurements.

pub mod arch;
pub mod clock;
pub mod cluster;
pub mod cuda;
pub mod device;
pub mod error;
pub mod host;
pub mod kernel;
pub mod occupancy;
pub mod process;
pub mod profiler;
pub mod smi;
pub mod trace;
pub mod transfer;

pub use arch::GpuArch;
pub use clock::{ObserverId, VirtualClock};
pub use cluster::GpuCluster;
pub use cuda::CudaContext;
pub use device::DeviceState;
pub use error::GpuError;
pub use host::HostSpec;
pub use kernel::KernelSpec;
pub use process::{GpuProcess, ProcessType};
pub use profiler::{ApiKind, Profiler, StallAnalysis};
pub use trace::{Trace, TraceEvent};
pub use transfer::{CopyKind, TransferSpec};
