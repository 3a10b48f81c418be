//! Cost-model calibration constants for the Racon reproduction.
//!
//! These convert *real, measured work counts* (DP cells, bytes) into
//! virtual seconds through `gpusim`'s host and device models. They were
//! calibrated once against the paper's §VI-A headline numbers for the
//! 17 GB Alzheimers NFL dataset on the Xeon E5-2670 + Tesla K80 testbed:
//! polishing 117 s (CPU, 4 threads) → 15 s (GPU: ~2 s allocation + ~13 s
//! kernels); end-to-end ~410 s → ~200 s; ~40 s of CUDA API overhead;
//! ~70% memory-dependency stalls.

/// Host-model "operations" per POA DP cell on the CPU path. Racon's CPU
/// POA is SIMD-vectorized (16-lane), so the per-cell cost in scalar
/// flop-equivalents is well below 1.
pub const CPU_OPS_PER_CELL: f64 = 0.107;

/// Fraction of CPU polishing work that parallelizes across `-t` threads.
pub const POLISH_PARALLEL_FRAC: f64 = 0.97;

/// Host-model operations per input byte for the non-polish phases
/// (parsing, overlap computation, windowing, serialization).
pub const OTHER_OPS_PER_BYTE: f64 = 108.0;

/// Parallel fraction of the non-polish phases in the CPU build.
pub const OTHER_PARALLEL_FRAC_CPU: f64 = 0.50;

/// Parallel fraction of the non-polish phases in the racon-gpu build,
/// which overlaps chunked I/O with device compute.
pub const OTHER_PARALLEL_FRAC_GPU: f64 = 0.71;

/// Device FLOPs per POA DP cell in `generatePOAKernel` (the GPU pays
/// padding and divergence overheads the SIMD CPU code does not).
pub const GPU_OPS_PER_CELL: f64 = 1.6;

/// DRAM bytes per POA DP cell (most DP traffic stays in shared
/// memory/registers; DRAM carries sequences, graph topology spills and
/// results). Chosen so the kernels sit memory-bound, matching the paper's
/// ~70% memory-dependency stall measurement.
pub const GPU_BYTES_PER_CELL: f64 = 0.162;

/// FLOPs per graph node in `generateConsensusKernel` (topological sweep +
/// traceback).
pub const GPU_CONSENSUS_OPS_PER_NODE: f64 = 40.0;

/// Device working-set fraction of the (scaled) input bytes resident on
/// the GPU at once.
pub const DEVICE_WORKING_SET_FRAC: f64 = 0.45;

/// H2D padding factor: cudapoa pads every window to the batch maximum.
pub const H2D_PAD_FACTOR: f64 = 2.5;

/// Fraction of input bytes returned as results (D2H).
pub const D2H_FRAC: f64 = 0.12;

/// Threads per block of `generatePOAKernel` (one block per window, as in
/// ClaraGenomics cudapoa).
pub const POA_BLOCK_THREADS: u32 = 128;

/// Host-side per-batch setup cost of cudapoa (stream + memory-pool
/// initialization), seconds. Together with copy/compute overlap this
/// creates the batch-count sweet spot of the paper's Fig. 7.
pub const BATCH_SETUP_S: f64 = 0.25;

/// Host-thread contention factor on the GPU path: CPU worker threads
/// beyond 2 compete with the driver's polling threads, inflating the
/// non-polish phases slightly (the paper's Fig. 7 finds 2 threads best).
pub const GPU_THREAD_CONTENTION: f64 = 0.03;

/// Extra I/O helper threads the racon-gpu build runs alongside `-t`.
pub const GPU_IO_EXTRA_THREADS: u32 = 6;

/// Band half-width of the banded POA DP. Sized to absorb fragment slack
/// (±25) plus interpolation drift while still cutting computed cells by
/// >2× on 500-base windows.
pub const BAND_WIDTH: usize = 100;
