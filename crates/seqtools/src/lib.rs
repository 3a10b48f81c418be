//! # seqtools
//!
//! The bioinformatics tools the GYAN paper evaluates, rebuilt as real
//! algorithms with two execution paths each:
//!
//! * **Racon** ([`racon`]) — consensus polishing: minimizer-based read
//!   mapping ([`mapper`]), windowing, partial-order-alignment graphs
//!   ([`poa`]), and heaviest-path consensus. The CPU path parallelizes
//!   windows with rayon; the GPU path batches windows through the
//!   simulated CUDA runtime (`generatePOAKernel` /
//!   `generateConsensusKernel`, the ClaraGenomics kernels the paper's
//!   Fig. 4 profiles).
//! * **Bonito** ([`bonito`]) — basecalling: a 1-D convolutional network
//!   ([`nn`]) over simulated nanopore squiggles ([`sim::squiggle`]) with
//!   greedy CTC decoding. The CPU path uses blocked, rayon-parallel GEMM;
//!   the GPU path issues GEMM kernels to the simulator (Fig. 6's
//!   hotspots).
//!
//! Supporting substrates: FASTA output ([`fasta`]), the FASTQ read record
//! ([`fastq`]), synthetic genomes and error-modelled long reads ([`sim`]),
//! banded edit distance for identity evaluation ([`align`]), named dataset
//! descriptors with paper-scale work factors ([`datasets`]), and a
//! [`galaxy::runners::JobExecutor`] implementation ([`executor`]) that
//! lets these tools run as Galaxy jobs end-to-end.
//!
//! ## Timing model
//!
//! Every tool *actually computes* its result (consensus sequences,
//! basecalls) on real data at laptop scale. Reported runtimes are
//! **virtual seconds**: work counts (DP cells, FLOPs, bytes) are fed
//! through `gpusim`'s host/kernel/transfer cost models, scaled by the
//! dataset descriptor's `work_scale` so paper-scale numbers can be
//! regenerated deterministically.

pub mod align;
pub mod bonito;
pub mod datasets;
pub mod executor;
pub mod fasta;
pub mod fastq;
pub mod mapper;
pub mod nn;
pub mod poa;
pub mod racon;
pub mod sim;

pub use datasets::DatasetSpec;
pub use executor::ToolExecutor;
