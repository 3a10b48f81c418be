//! The `bonito basecaller` pipeline: chunk → network → CTC → FASTA.

use crate::bonito::costs;
use crate::bonito::model::BonitoModel;
use crate::datasets::DatasetSpec;
use crate::fasta::{write_fasta, FastaRecord};
use crate::nn::ctc_greedy_decode;
use crate::sim::genome::random_genome;
use crate::sim::reads::{sample_reads, ErrorModel};
use crate::sim::squiggle::{simulate_squiggle, PoreModel};
use gpusim::{CudaContext, GpuCluster, HostSpec, KernelSpec, TransferSpec, VirtualClock};
use rayon::prelude::*;

/// Basecaller options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BonitoOpts {
    /// Samples per network chunk.
    pub chunk: usize,
    /// Chunks per GPU batch.
    pub batch: usize,
    /// CPU threads (CPU path).
    pub threads: u32,
}

impl Default for BonitoOpts {
    fn default() -> Self {
        BonitoOpts { chunk: 2_000, batch: 32, threads: 48 }
    }
}

/// A prepared basecalling problem: one raw signal per read.
#[derive(Debug, Clone)]
pub struct BonitoInput {
    /// Raw signals (simulated fast5 contents).
    pub signals: Vec<Vec<f32>>,
    /// Virtual-work multiplier to paper scale.
    pub work_scale: f64,
    /// True sequences the signals were simulated from.
    pub truth: Vec<String>,
}

impl BonitoInput {
    /// Generate the laptop-scale instance of a fast5 dataset.
    pub fn from_dataset(spec: &DatasetSpec) -> Self {
        let genome = random_genome(spec.genome_len, spec.seed);
        let reads = sample_reads(
            &genome,
            spec.n_reads,
            spec.read_len,
            &ErrorModel::perfect(),
            spec.seed ^ 0xf457,
        );
        let pore = PoreModel::default();
        let signals: Vec<Vec<f32>> = reads
            .iter()
            .enumerate()
            .map(|(i, r)| simulate_squiggle(&r.seq, &pore, spec.seed ^ (i as u64)))
            .collect();
        let truth = reads.into_iter().map(|r| r.seq).collect();
        // Scale from the actual simulated signal bytes.
        let synthetic: f64 = signals.iter().map(|s| s.len() as f64 * 4.0).sum();
        let work_scale = spec.paper_bytes / synthetic;
        BonitoInput { signals, work_scale, truth }
    }

    /// Total raw samples.
    pub fn total_samples(&self) -> usize {
        self.signals.iter().map(Vec::len).sum()
    }

    /// Bytes of the laptop-scale signal data.
    pub fn synthetic_bytes(&self) -> f64 {
        self.total_samples() as f64 * 4.0
    }
}

/// Result of one basecalling run.
#[derive(Debug, Clone)]
pub struct BonitoReport {
    /// FASTA output of the basecalled reads.
    pub fasta: String,
    /// The individual basecalls.
    pub calls: Vec<String>,
    /// Virtual seconds total.
    pub total_s: f64,
    /// Of which network inference.
    pub nn_s: f64,
    /// Of which I/O + decode.
    pub io_s: f64,
    /// Real FLOPs executed (unscaled).
    pub flops: f64,
    /// Total bases emitted.
    pub bases: usize,
}

/// Split a signal into fixed-size chunks (last chunk may be short).
fn chunk_signal(signal: &[f32], chunk: usize) -> Vec<&[f32]> {
    signal.chunks(chunk.max(1)).filter(|c| c.len() >= 16).collect()
}

/// Run the real network over every chunk and decode. Returns
/// (per-read basecalls, real flops).
fn infer_all(input: &BonitoInput, model: &BonitoModel, opts: &BonitoOpts) -> (Vec<String>, f64) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(opts.threads.max(1) as usize)
        .build()
        .expect("rayon pool");
    let calls: Vec<(String, f64)> = pool.install(|| {
        input
            .signals
            .par_iter()
            .map(|signal| {
                let mut seq = String::new();
                let mut flops = 0.0;
                for chunk in chunk_signal(signal, opts.chunk) {
                    let logits = model.forward(chunk);
                    seq.push_str(&ctc_greedy_decode(&logits));
                    flops += model.flops(chunk.len());
                }
                (seq, flops)
            })
            .collect()
    });
    let flops: f64 = calls.iter().map(|(_, f)| f).sum();
    (calls.into_iter().map(|(s, _)| s).collect(), flops)
}

fn to_fasta(calls: &[String]) -> String {
    let records: Vec<FastaRecord> = calls
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, s)| FastaRecord::new(format!("basecall_{i}"), s.clone()))
        .collect();
    write_fasta(&records, 80)
}

/// CPU path (`bonito basecaller --device cpu`).
pub fn basecall_cpu(
    input: &BonitoInput,
    model: &BonitoModel,
    opts: &BonitoOpts,
    host: &HostSpec,
    clock: &VirtualClock,
) -> BonitoReport {
    let (calls, flops) = infer_all(input, model, opts);
    let scaled_flops = flops * input.work_scale * costs::MODEL_SCALE * costs::CPU_OVERHEAD;
    let nn_s = host.time_for(scaled_flops, costs::CPU_PARALLEL_FRAC, opts.threads);
    let io_s = host.stream_time(input.synthetic_bytes() * input.work_scale);
    clock.advance(nn_s + io_s);
    let bases = calls.iter().map(String::len).sum();
    BonitoReport { fasta: to_fasta(&calls), calls, total_s: nn_s + io_s, nn_s, io_s, flops, bases }
}

/// GPU path (`bonito basecaller --device cuda`): the same real compute,
/// with inference time modeled as batched GEMM kernels on the device.
pub fn basecall_gpu(
    input: &BonitoInput,
    model: &BonitoModel,
    opts: &BonitoOpts,
    cluster: &GpuCluster,
    ctx: &mut CudaContext,
) -> Result<BonitoReport, gpusim::GpuError> {
    // Model weights + activation workspace, allocated at startup: the
    // process is resident on the device throughout the run.
    let t_alloc = cluster.clock().now();
    ctx.malloc(512 << 20)?;
    let alloc_s = cluster.clock().now() - t_alloc;

    let (calls, flops) = infer_all(input, model, opts);
    let host = cluster.host();

    // I/O and CTC decode remain host-side.
    let io_s = host.stream_time(input.synthetic_bytes() * input.work_scale);
    cluster.clock().advance(io_s);

    let t0 = cluster.clock().now() - alloc_s;

    // Chunks are grouped into batches; each batch is one H2D copy plus a
    // GEMM kernel per layer (what NVProf shows as the GEMM hotspots).
    let total_chunks: usize = input.signals.iter().map(|s| chunk_signal(s, opts.chunk).len()).sum();
    let batches = total_chunks.div_ceil(opts.batch.max(1)).max(1);
    let scale = input.work_scale * costs::MODEL_SCALE;
    let flops_per_batch = flops * scale / batches as f64;
    let bytes_per_batch = input.synthetic_bytes() * input.work_scale / batches as f64;
    let shapes = model.gemm_shapes(opts.chunk);
    let layer_flops_total: f64 = model.flops(opts.chunk);
    for _ in 0..batches {
        ctx.memcpy(TransferSpec::h2d(bytes_per_batch).pinned())?;
        for (li, &(m, k, n)) in shapes.iter().enumerate() {
            let frac = crate::nn::Matrix::matmul_flops(m, k, n) / layer_flops_total.max(1.0);
            let kf = flops_per_batch * frac;
            // Production-scale GEMMs tile the whole device; the grid is
            // sized for the paper-scale model, not the surrogate.
            ctx.launch(&KernelSpec::fp32(
                format!("sgemm_{m}x{k}"),
                4096,
                costs::GEMM_BLOCK_THREADS,
                kf,
                kf * costs::GEMM_BYTES_PER_FLOP,
            ))?;
            let _ = li;
        }
        ctx.synchronize()?;
        ctx.memcpy(TransferSpec::d2h(bytes_per_batch * 0.02).pinned())?;
    }
    ctx.free(512 << 20)?;
    let nn_s = cluster.clock().now() - t0;

    let bases = calls.iter().map(String::len).sum();
    Ok(BonitoReport {
        fasta: to_fasta(&calls),
        calls,
        total_s: io_s + nn_s,
        nn_s,
        io_s,
        flops,
        bases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_input() -> BonitoInput {
        let spec = DatasetSpec {
            name: "tiny-fast5",
            genome_len: 2_000,
            n_reads: 3,
            read_len: 400,
            ..DatasetSpec::acinetobacter_pittii()
        };
        BonitoInput::from_dataset(&spec)
    }

    fn tiny_opts() -> BonitoOpts {
        BonitoOpts { chunk: 500, batch: 4, threads: 4 }
    }

    #[test]
    fn basecalls_are_deterministic_and_plausible() {
        let input = tiny_input();
        let model = BonitoModel::tiny(3);
        let a = basecall_cpu(
            &input,
            &model,
            &tiny_opts(),
            &HostSpec::xeon_e5_2670(),
            &VirtualClock::new(),
        );
        let b = basecall_cpu(
            &input,
            &model,
            &tiny_opts(),
            &HostSpec::xeon_e5_2670(),
            &VirtualClock::new(),
        );
        assert_eq!(a.fasta, b.fasta);
        assert!(a.flops > 0.0);
        // Output length should be within an order of magnitude of the
        // input bases (untrained network, but CTC output scales with
        // timesteps).
        assert!(a.bases > 0, "no bases called");
        let in_bases: usize = input.truth.iter().map(String::len).sum();
        assert!(a.bases < in_bases * 4, "{} vs {in_bases}", a.bases);
    }

    #[test]
    fn gpu_and_cpu_calls_match() {
        let input = tiny_input();
        let model = BonitoModel::tiny(3);
        let cpu = basecall_cpu(
            &input,
            &model,
            &tiny_opts(),
            &HostSpec::xeon_e5_2670(),
            &VirtualClock::new(),
        );
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 9, "bonito").unwrap();
        let gpu = basecall_gpu(&input, &model, &tiny_opts(), &cluster, &mut ctx).unwrap();
        ctx.destroy();
        assert_eq!(cpu.calls, gpu.calls);
    }

    #[test]
    fn gpu_is_dramatically_faster() {
        let input = tiny_input();
        let model = BonitoModel::tiny(3);
        let cpu = basecall_cpu(
            &input,
            &model,
            &tiny_opts(),
            &HostSpec::xeon_e5_2670(),
            &VirtualClock::new(),
        );
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 9, "bonito").unwrap();
        let gpu = basecall_gpu(&input, &model, &tiny_opts(), &cluster, &mut ctx).unwrap();
        ctx.destroy();
        let speedup = cpu.nn_s / gpu.nn_s;
        assert!(speedup > 20.0, "nn speedup only {speedup:.1}×");
    }

    #[test]
    fn gpu_profiler_shows_gemm_hotspots() {
        let input = tiny_input();
        let model = BonitoModel::tiny(3);
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 9, "bonito").unwrap();
        basecall_gpu(&input, &model, &tiny_opts(), &cluster, &mut ctx).unwrap();
        let prof = ctx.destroy();
        let gpu_report = prof.gpu_report();
        assert!(
            gpu_report.iter().any(|(name, _)| name.starts_with("sgemm_")),
            "no GEMM kernels in {gpu_report:?}"
        );
        let apis: Vec<String> = prof.api_report().into_iter().map(|(name, _)| name).collect();
        assert!(apis.iter().any(|n| n == "cudaLaunchKernel"), "{apis:?}");
        assert!(apis.iter().any(|n| n == "cudaStreamSynchronize"), "{apis:?}");
    }

    #[test]
    fn fasta_output_parses() {
        let input = tiny_input();
        let model = BonitoModel::tiny(3);
        let report = basecall_cpu(
            &input,
            &model,
            &tiny_opts(),
            &HostSpec::xeon_e5_2670(),
            &VirtualClock::new(),
        );
        let records = crate::fasta::tests::parse_fasta(&report.fasta).unwrap();
        assert_eq!(records.len(), report.calls.iter().filter(|c| !c.is_empty()).count());
    }

    #[test]
    fn chunking_drops_only_tiny_tails() {
        let signal = vec![0.0f32; 1050];
        let chunks = chunk_signal(&signal, 500);
        assert_eq!(chunks.len(), 3); // 500 + 500 + 50
        let tiny = vec![0.0f32; 10];
        assert!(chunk_signal(&tiny, 500).is_empty());
    }
}
