//! A Bonito-style basecaller.
//!
//! Bonito (Oxford Nanopore's PyTorch basecaller, "inspired by the usage of
//! convolutional neural networks in speech recognition") converts raw pore
//! current into nucleotide sequence. This module reproduces its
//! `bonito basecaller` pipeline: chunk the signal, run a stack of 1-D
//! convolutions, CTC-decode, and emit FASTA. The CPU path runs real
//! rayon-parallel GEMMs; the GPU path issues the equivalent GEMM kernels
//! to the simulated device (the paper's Fig. 6 hotspots: kernel launcher,
//! kernel sync, and "GEneral Matrix to Matrix Multiplication (GEMM)
//! functions").

pub mod basecall;
pub mod commands;
pub mod model;
pub mod train;

pub use basecall::{basecall_cpu, basecall_gpu, BonitoInput, BonitoOpts, BonitoReport};
pub use commands::convert_training_data;
pub use model::BonitoModel;
pub use train::{train_head, TrainOpts, TrainReport};

/// Cost-model constants for the Bonito reproduction, calibrated against
/// the paper's Fig. 5 (CPU >210 h on the 1.5 GB Acinetobacter dataset,
/// >50× GPU speedup).
pub mod costs {
    /// Ratio of the real Bonito network's per-sample FLOPs to our
    /// surrogate's. Production Bonito (QuartzNet-style CTC model) runs
    /// ~4 orders of magnitude more arithmetic per sample than the small
    /// stack we execute for real; the cost model scales accordingly.
    pub const MODEL_SCALE: f64 = 15_000.0;

    /// Parallel fraction PyTorch CPU inference achieves across the host's
    /// 48 logical CPUs (intra-op parallelism is far from perfect).
    pub const CPU_PARALLEL_FRAC: f64 = 0.85;

    /// Framework overhead multiplier for CPU inference (dispatch,
    /// memory traffic, Python glue).
    pub const CPU_OVERHEAD: f64 = 1.0;

    /// Threads per block of the GEMM kernels.
    pub const GEMM_BLOCK_THREADS: u32 = 256;

    /// DRAM bytes per FLOP for the GEMM kernels (well-blocked GEMM is
    /// compute-bound; this keeps intensity ~8 FLOP/byte).
    pub const GEMM_BYTES_PER_FLOP: f64 = 0.125;
}
