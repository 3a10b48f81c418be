//! The Racon polishing pipeline: real POA compute + virtual-time cost
//! accounting for the CPU and GPU execution paths.

use crate::datasets::DatasetSpec;
use crate::mapper::{MapperConfig, Overlap, TargetIndex};
use crate::poa::PoaGraph;
use crate::racon::model;
use crate::racon::windows::{build_windows, WindowTask};
use crate::sim::genome::random_genome;
use crate::sim::reads::{mutate_sequence, sample_reads, ErrorModel};
use gpusim::{CudaContext, GpuCluster, HostSpec, KernelSpec, TransferSpec, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Racon command-line options (the parameters the paper sweeps in
/// Figs. 3 and 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaconOpts {
    /// `-t`: CPU threads.
    pub threads: u32,
    /// `--cudapoa-batches`: number of GPU batches.
    pub batches: u32,
    /// Banding approximation on/off.
    pub banded: bool,
    /// Window length.
    pub window_len: usize,
}

impl Default for RaconOpts {
    fn default() -> Self {
        RaconOpts { threads: 4, batches: 1, banded: false, window_len: 500 }
    }
}

/// A prepared polishing problem.
#[derive(Debug, Clone)]
pub struct RaconInput {
    /// The draft assembly to polish.
    pub draft: String,
    /// Reads.
    pub reads: Vec<String>,
    /// Read→draft overlaps.
    pub overlaps: Vec<Overlap>,
    /// Virtual-work multiplier (paper bytes / synthetic bytes).
    pub work_scale: f64,
    /// The true reference the synthetic data was generated from (for
    /// quality evaluation); empty for real inputs.
    pub truth: String,
}

impl RaconInput {
    /// Generate the laptop-scale instance of a dataset: a reference
    /// genome, an error-heavy draft, error-modelled reads, and overlaps
    /// from the minimizer mapper.
    pub fn from_dataset(spec: &DatasetSpec) -> Self {
        let truth = random_genome(spec.genome_len, spec.seed);
        // The draft carries read-level error (a raw miniasm-style
        // assembly before polishing has roughly read identity).
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xd4af7);
        let draft = mutate_sequence(&truth, &ErrorModel::pacbio(), &mut rng);
        let reads: Vec<String> = sample_reads(
            &truth,
            spec.n_reads,
            spec.read_len,
            &ErrorModel::pacbio(),
            spec.seed ^ 0x4ead5,
        )
        .into_iter()
        .map(|r| r.seq)
        .collect();
        let index = TargetIndex::build(&draft, MapperConfig::default());
        let overlaps = index.map_all(&reads);
        // Work scale from the *actual* generated bytes so the virtual-time
        // accounting extrapolates to exactly the paper's dataset size.
        let synthetic = (draft.len() + reads.iter().map(String::len).sum::<usize>()) as f64;
        let work_scale = spec.paper_bytes / synthetic;
        RaconInput { draft, reads, overlaps, work_scale, truth }
    }

    /// Total input bytes of the laptop-scale instance.
    pub fn synthetic_bytes(&self) -> f64 {
        (self.draft.len() + self.reads.iter().map(String::len).sum::<usize>()) as f64
    }

    /// Input bytes at paper scale (what the cost model charges).
    pub fn scaled_bytes(&self) -> f64 {
        self.synthetic_bytes() * self.work_scale
    }
}

/// Which execution path produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// CPU-only (`racon`).
    Cpu,
    /// GPU-accelerated (`racon_gpu`).
    Gpu,
}

/// Result of one polishing run.
#[derive(Debug, Clone)]
pub struct RaconReport {
    /// The polished assembly.
    pub consensus: String,
    /// Which path ran.
    pub path: ExecPath,
    /// Virtual seconds in the non-polish phases (load/map/write).
    pub other_s: f64,
    /// Virtual seconds in the polishing phase.
    pub polish_s: f64,
    /// Of which: GPU memory allocation (GPU path only).
    pub alloc_s: f64,
    /// Of which: kernel execution (GPU path only).
    pub kernel_s: f64,
    /// Of which: host↔device transfers (GPU path only).
    pub transfer_s: f64,
    /// Total virtual seconds.
    pub total_s: f64,
    /// Real DP cells computed (unscaled).
    pub cells: u64,
    /// Number of windows polished.
    pub windows: usize,
    /// Number of band fallbacks (banded mode only).
    pub band_fallbacks: usize,
}

/// Polish every window (the real computation, shared by both paths).
/// Returns per-window consensus plus per-window `(cells, nodes)` work
/// counts.
fn polish_windows(
    windows: &[WindowTask],
    banded: bool,
    threads: u32,
) -> (Vec<String>, Vec<(u64, u64)>, usize) {
    let band = if banded { Some(model::BAND_WIDTH) } else { None };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1) as usize)
        .build()
        .expect("rayon pool");
    let results: Vec<(String, u64, u64, usize)> = pool.install(|| {
        windows
            .par_iter()
            .map(|w| {
                if w.fragments.is_empty() {
                    // Uncovered window: keep the backbone untouched.
                    return (w.backbone.clone(), 0, w.backbone.len() as u64, 0);
                }
                let mut graph = PoaGraph::from_sequence(w.backbone.as_bytes());
                let mut cells = 0u64;
                let mut fallbacks = 0usize;
                for frag in &w.fragments {
                    let stats = graph.add_sequence(frag.as_bytes(), band);
                    cells += stats.cells;
                    fallbacks += usize::from(stats.band_fallback);
                }
                (graph.consensus_anchored(), cells, graph.node_count() as u64, fallbacks)
            })
            .collect()
    });
    let mut consensuses = Vec::with_capacity(results.len());
    let mut work = Vec::with_capacity(results.len());
    let mut fallbacks = 0;
    for (c, cells, nodes, fb) in results {
        consensuses.push(c);
        work.push((cells, nodes));
        fallbacks += fb;
    }
    (consensuses, work, fallbacks)
}

/// Run the CPU-only path (`racon -t <threads>`): real compute, with
/// virtual time charged to `clock` via the host model.
pub fn polish_cpu(
    input: &RaconInput,
    opts: &RaconOpts,
    host: &HostSpec,
    clock: &VirtualClock,
) -> RaconReport {
    let windows = build_windows(&input.draft, &input.reads, &input.overlaps, opts.window_len);
    let (consensuses, work, band_fallbacks) = polish_windows(&windows, opts.banded, opts.threads);
    let cells: u64 = work.iter().map(|(c, _)| c).sum();

    let other_flops = input.scaled_bytes() * model::OTHER_OPS_PER_BYTE;
    let other_s = host.time_for(other_flops, model::OTHER_PARALLEL_FRAC_CPU, opts.threads);
    let polish_flops = cells as f64 * input.work_scale * model::CPU_OPS_PER_CELL;
    let polish_s = host.time_for(polish_flops, model::POLISH_PARALLEL_FRAC, opts.threads);
    clock.advance(other_s + polish_s);

    RaconReport {
        consensus: consensuses.concat(),
        path: ExecPath::Cpu,
        other_s,
        polish_s,
        alloc_s: 0.0,
        kernel_s: 0.0,
        transfer_s: 0.0,
        total_s: other_s + polish_s,
        cells,
        windows: windows.len(),
        band_fallbacks,
    }
}

/// Run the GPU path (`racon_gpu --cudapoa-batches <batches>`): the same
/// real compute, with the polishing phase executed as batched kernels on
/// the simulated device through `ctx`.
pub fn polish_gpu(
    input: &RaconInput,
    opts: &RaconOpts,
    cluster: &GpuCluster,
    ctx: &mut CudaContext,
) -> Result<RaconReport, gpusim::GpuError> {
    let windows = build_windows(&input.draft, &input.reads, &input.overlaps, opts.window_len);

    // Register the context and allocate the device working set up front
    // ("2 s for GPU memory allocation") — the real racon-gpu grabs its
    // cudapoa memory pools at startup and holds them for the whole run,
    // which is what concurrent `nvidia-smi` queries observe.
    let free_bytes = cluster
        .with_device(ctx.current_minor(), |d| d.fb_free_mib())
        .unwrap_or(0)
        .saturating_mul(1 << 20) as f64;
    let working_set = (input.scaled_bytes() * model::DEVICE_WORKING_SET_FRAC).min(free_bytes * 0.8);
    let t_gpu_start = cluster.clock().now();
    ctx.malloc(working_set as u64)?;
    let alloc_s = cluster.clock().now() - t_gpu_start;

    // The real computation (the process is resident on its devices now).
    let (consensuses, work, band_fallbacks) = polish_windows(&windows, opts.banded, opts.threads);
    let cells: u64 = work.iter().map(|(c, _)| c).sum();
    let host = cluster.host();

    // Non-polish phases: the racon-gpu build overlaps chunked I/O with
    // device work using its own reader pool (`-t` workers plus I/O
    // helpers), with mild contention from extra CPU threads competing
    // with the driver's polling threads.
    let other_flops = input.scaled_bytes() * model::OTHER_OPS_PER_BYTE;
    let contention = 1.0 + model::GPU_THREAD_CONTENTION * f64::from(opts.threads.saturating_sub(1));
    let other_s = host.time_for(
        other_flops,
        model::OTHER_PARALLEL_FRAC_GPU,
        opts.threads + model::GPU_IO_EXTRA_THREADS,
    ) * contention;
    cluster.clock().advance(other_s);

    // Split windows into batches and pipeline them: each batch's H2D copy
    // runs on the copy engine while the previous batch's kernels execute,
    // so more batches amortize transfer time behind compute — at the cost
    // of per-batch setup overhead. This is the trade the paper's Fig. 7
    // sweeps.
    let batches = (opts.batches.max(1) as usize).min(windows.len().max(1));
    let chunk = windows.len().div_ceil(batches);
    let bytes_per_window = input.scaled_bytes() / windows.len().max(1) as f64;
    let kernels_before = gpu_time(ctx, &["generatePOAKernel", "generateConsensusKernel"]);
    let copies_before = gpu_time(ctx, &["cudaMemcpyHtoD", "cudaMemcpyDtoH"]);
    for batch in work.chunks(chunk.max(1)) {
        let batch_windows = batch.len() as u32;
        let batch_cells: u64 = batch.iter().map(|(c, _)| c).sum();
        let batch_nodes: u64 = batch.iter().map(|(_, n)| n).sum();
        let scaled_cells = batch_cells as f64 * input.work_scale;
        let scaled_nodes = batch_nodes as f64 * input.work_scale;
        let batch_bytes = bytes_per_window * batch_windows as f64;

        // Host-side batch setup (stream + memory pool).
        cluster.clock().advance(model::BATCH_SETUP_S);
        ctx.memcpy_async(TransferSpec::h2d(batch_bytes * model::H2D_PAD_FACTOR))?;

        // One block per window *at paper scale*: the 17 GB dataset has
        // hundreds of thousands of windows, which is what fills the
        // device; the laptop-scale window count is scaled accordingly.
        let scaled_grid = ((batch_windows as f64 * input.work_scale).min(1e6) as u32).max(1);
        ctx.launch(&KernelSpec::fp32(
            "generatePOAKernel",
            scaled_grid,
            model::POA_BLOCK_THREADS,
            scaled_cells * model::GPU_OPS_PER_CELL,
            scaled_cells * model::GPU_BYTES_PER_CELL,
        ))?;
        ctx.launch(&KernelSpec::fp32(
            "generateConsensusKernel",
            scaled_grid,
            model::POA_BLOCK_THREADS,
            scaled_nodes * model::GPU_CONSENSUS_OPS_PER_NODE,
            scaled_nodes * 8.0,
        ))?;
        ctx.memcpy_async(TransferSpec::d2h(batch_bytes * model::D2H_FRAC))?;
    }
    ctx.synchronize()?;
    let kernel_s =
        gpu_time(ctx, &["generatePOAKernel", "generateConsensusKernel"]) - kernels_before;
    let transfer_s = gpu_time(ctx, &["cudaMemcpyHtoD", "cudaMemcpyDtoH"]) - copies_before;
    ctx.free(working_set as u64)?;

    // Polishing time = allocation + the batched device phase (everything
    // since the GPU section began, minus the interleaved host phases).
    let polish_s = cluster.clock().now() - t_gpu_start - other_s;
    Ok(RaconReport {
        consensus: consensuses.concat(),
        path: ExecPath::Gpu,
        other_s,
        polish_s,
        alloc_s,
        kernel_s,
        transfer_s,
        total_s: other_s + polish_s,
        cells,
        windows: windows.len(),
        band_fallbacks,
    })
}

/// Total device time attributed to the named GPU activities so far.
fn gpu_time(ctx: &CudaContext, names: &[&str]) -> f64 {
    names.iter().filter_map(|n| ctx.profiler.gpu_entry(n)).map(|e| e.seconds).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::identity;

    fn tiny_dataset() -> DatasetSpec {
        // Shape-preserving shrink of the Alzheimers instance: same read
        // length, window size, and ~16× coverage, so the compute density
        // (DP cells per input byte) matches the calibration instance.
        DatasetSpec {
            name: "tiny",
            genome_len: 2_500,
            n_reads: 20,
            read_len: 2_000,
            ..DatasetSpec::alzheimers_nfl()
        }
    }

    #[test]
    fn cpu_polishing_improves_draft_identity() {
        let input = RaconInput::from_dataset(&tiny_dataset());
        let clock = VirtualClock::new();
        let report = polish_cpu(&input, &RaconOpts::default(), &HostSpec::xeon_e5_2670(), &clock);
        let before = identity(&input.draft, &input.truth);
        let after = identity(&report.consensus, &input.truth);
        assert!(after > before, "polishing must improve identity: {before:.4} → {after:.4}");
        assert!(after > 0.93, "polished identity {after:.4}");
        assert!(report.cells > 0);
        assert_eq!(clock.now(), report.total_s);
    }

    #[test]
    fn gpu_and_cpu_produce_identical_consensus() {
        let input = RaconInput::from_dataset(&tiny_dataset());
        let clock = VirtualClock::new();
        let cpu = polish_cpu(&input, &RaconOpts::default(), &HostSpec::xeon_e5_2670(), &clock);
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 1, "racon_gpu").unwrap();
        let gpu = polish_gpu(&input, &RaconOpts::default(), &cluster, &mut ctx).unwrap();
        ctx.destroy();
        assert_eq!(cpu.consensus, gpu.consensus);
        assert_eq!(cpu.cells, gpu.cells);
    }

    #[test]
    fn gpu_polish_phase_is_faster_than_cpu() {
        let input = RaconInput::from_dataset(&tiny_dataset());
        let clock = VirtualClock::new();
        let cpu = polish_cpu(&input, &RaconOpts::default(), &HostSpec::xeon_e5_2670(), &clock);
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 1, "racon_gpu").unwrap();
        let gpu = polish_gpu(&input, &RaconOpts::default(), &cluster, &mut ctx).unwrap();
        ctx.destroy();
        assert!(
            gpu.polish_s < cpu.polish_s,
            "gpu polish {} vs cpu polish {}",
            gpu.polish_s,
            cpu.polish_s
        );
        assert!(gpu.total_s < cpu.total_s);
        assert!(gpu.alloc_s > 0.0);
        assert!(gpu.kernel_s > 0.0);
    }

    #[test]
    fn more_threads_speed_up_cpu_path() {
        let input = RaconInput::from_dataset(&tiny_dataset());
        let host = HostSpec::xeon_e5_2670();
        let t1 = polish_cpu(
            &input,
            &RaconOpts { threads: 1, ..Default::default() },
            &host,
            &VirtualClock::new(),
        );
        let t8 = polish_cpu(
            &input,
            &RaconOpts { threads: 8, ..Default::default() },
            &host,
            &VirtualClock::new(),
        );
        assert!(t8.total_s < t1.total_s);
        assert_eq!(t1.consensus, t8.consensus);
    }

    /// Banding cuts computed cells roughly by this factor at racon's
    /// default band (observed from the real banded DP).
    const EXPECTED_BAND_SPEEDUP_MIN: f64 = 1.5;

    #[test]
    fn banding_reduces_cells() {
        let input = RaconInput::from_dataset(&tiny_dataset());
        let host = HostSpec::xeon_e5_2670();
        let full = polish_cpu(&input, &RaconOpts::default(), &host, &VirtualClock::new());
        let banded = polish_cpu(
            &input,
            &RaconOpts { banded: true, ..Default::default() },
            &host,
            &VirtualClock::new(),
        );
        assert!(
            (banded.cells as f64) < full.cells as f64 / EXPECTED_BAND_SPEEDUP_MIN,
            "banded {} vs full {}",
            banded.cells,
            full.cells
        );
        // Banded consensus is still a good polish.
        let after = identity(&banded.consensus, &input.truth);
        assert!(after > 0.9, "{after}");
    }

    #[test]
    fn gpu_path_respects_device_mask() {
        let input = RaconInput::from_dataset(&tiny_dataset());
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, Some("1"), 77, "racon_gpu").unwrap();
        polish_gpu(&input, &RaconOpts::default(), &cluster, &mut ctx).unwrap();
        // While running (before destroy), the process sits on device 1.
        assert_eq!(cluster.available_devices(), vec![0]);
        ctx.destroy();
        assert_eq!(cluster.available_devices(), vec![0, 1]);
    }

    #[test]
    fn batch_count_changes_kernel_structure_not_results() {
        let input = RaconInput::from_dataset(&tiny_dataset());
        let cluster1 = GpuCluster::k80_node();
        let mut ctx1 = CudaContext::new(&cluster1, None, 1, "racon_gpu").unwrap();
        let one = polish_gpu(
            &input,
            &RaconOpts { batches: 1, ..Default::default() },
            &cluster1,
            &mut ctx1,
        )
        .unwrap();
        let p1 = ctx1.destroy();
        let cluster2 = GpuCluster::k80_node();
        let mut ctx2 = CudaContext::new(&cluster2, None, 1, "racon_gpu").unwrap();
        let many = polish_gpu(
            &input,
            &RaconOpts { batches: 8, ..Default::default() },
            &cluster2,
            &mut ctx2,
        )
        .unwrap();
        let p8 = ctx2.destroy();
        assert_eq!(one.consensus, many.consensus);
        assert_eq!(p1.gpu_entry("generatePOAKernel").unwrap().calls, 1);
        // Requested batches are capped by the window count and chunked
        // evenly; recompute the expected launch count.
        let requested = 8usize.min(many.windows);
        let chunk = many.windows.div_ceil(requested).max(1);
        let expected = many.windows.div_ceil(chunk) as u64;
        assert_eq!(p8.gpu_entry("generatePOAKernel").unwrap().calls, expected);
    }
}
