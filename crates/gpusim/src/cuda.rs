//! A CUDA-runtime-like facade for simulated tools.
//!
//! A [`CudaContext`] is what a GPU-enabled tool (the Racon/Bonito
//! reimplementations in `seqtools`) holds while executing. It:
//!
//! * honours `CUDA_VISIBLE_DEVICES` masking — logical device ordinals are
//!   remapped onto the physical minors GYAN exposed, exactly as the real
//!   driver does;
//! * registers the tool's process on each device it touches, so
//!   `nvidia-smi` queries made concurrently by GYAN's allocator and
//!   monitor observe it;
//! * advances the cluster's virtual clock for every malloc, memcpy,
//!   kernel wait, and synchronize according to the cost models;
//! * feeds the [`Profiler`] so NVProf-style hotspot figures can be
//!   regenerated.

use crate::cluster::GpuCluster;
use crate::error::GpuError;
use crate::kernel::{KernelSpec, LAUNCH_OVERHEAD_S};
use crate::process::GpuProcess;
use crate::profiler::{ApiKind, Profiler};
use crate::trace::Trace;
use crate::transfer::TransferSpec;
use std::collections::HashMap;

/// Per-call host overhead of `cudaMalloc`, seconds.
const MALLOC_BASE_S: f64 = 60e-6;
/// Additional `cudaMalloc` cost per byte (page table + zeroing), s/B.
/// Calibrated so multi-GiB working sets cost seconds, matching the paper's
/// "2 s for GPU memory allocation" for Racon's polishing batches.
const MALLOC_PER_BYTE_S: f64 = 0.25e-9;

/// Memory the bare context itself pins on a device (CUDA context overhead).
/// 60 MiB matches the per-process usage in the paper's Fig. 11.
const CONTEXT_MIB: u64 = 60;

/// Parse a `CUDA_VISIBLE_DEVICES`-style string into physical minors.
///
/// `None` means the variable is unset → all devices visible. An empty or
/// unparsable string yields an empty list (the real driver hides all
/// devices on malformed entries from the first bad token onward).
pub fn parse_visible_devices(value: Option<&str>, device_count: u32) -> Vec<u32> {
    match value {
        None => (0..device_count).collect(),
        Some(s) => {
            let mut out = Vec::new();
            for token in s.split(',') {
                let token = token.trim();
                match token.parse::<u32>() {
                    Ok(minor) if minor < device_count && !out.contains(&minor) => out.push(minor),
                    _ => break, // driver semantics: stop at first invalid id
                }
            }
            out
        }
    }
}

/// A simulated CUDA context held by one tool process.
pub struct CudaContext {
    cluster: GpuCluster,
    /// Logical ordinal → physical minor.
    visible: Vec<u32>,
    /// Currently selected logical device.
    current: usize,
    /// Host pid of the owning process.
    pid: u32,
    /// Process name shown in smi output.
    proc_name: String,
    /// Devices where our process has been registered.
    registered: Vec<u32>,
    /// Bytes currently allocated per physical minor (beyond context).
    allocated_bytes: HashMap<u32, u64>,
    /// Profiler for this context.
    pub profiler: Profiler,
    /// Event-level timeline of this context's activity.
    pub trace: Trace,
}

impl CudaContext {
    /// Create a context for process `pid` named `proc_name`, honouring the
    /// `CUDA_VISIBLE_DEVICES` value GYAN exported (or `None` if unset).
    pub fn new(
        cluster: &GpuCluster,
        visible_devices: Option<&str>,
        pid: u32,
        proc_name: impl Into<String>,
    ) -> Result<Self, GpuError> {
        let visible = parse_visible_devices(visible_devices, cluster.device_count());
        if visible.is_empty() {
            return Err(GpuError::NoVisibleDevices);
        }
        Ok(CudaContext {
            cluster: cluster.clone(),
            visible,
            current: 0,
            pid,
            proc_name: proc_name.into(),
            registered: Vec::new(),
            allocated_bytes: HashMap::new(),
            profiler: Profiler::new(),
            trace: Trace::new(),
        })
    }

    /// Number of devices this context can see (`cudaGetDeviceCount`).
    pub fn device_count(&self) -> u32 {
        self.visible.len() as u32
    }

    /// Select the active logical device (`cudaSetDevice`).
    pub fn set_device(&mut self, logical: u32) -> Result<(), GpuError> {
        if (logical as usize) < self.visible.len() {
            self.current = logical as usize;
            Ok(())
        } else {
            Err(GpuError::InvalidDevice(logical))
        }
    }

    /// Physical minor of the active device.
    pub fn current_minor(&self) -> u32 {
        self.visible[self.current]
    }

    /// Physical minors of all visible devices, in logical order.
    pub fn visible_minors(&self) -> &[u32] {
        &self.visible
    }

    fn ensure_registered(&mut self, minor: u32) -> Result<(), GpuError> {
        if !self.registered.contains(&minor) {
            self.cluster.attach_process(
                minor,
                GpuProcess::compute(self.pid, self.proc_name.clone(), CONTEXT_MIB),
            )?;
            self.registered.push(minor);
        }
        Ok(())
    }

    /// `cudaMalloc`: charge `bytes` on the active device and advance time.
    pub fn malloc(&mut self, bytes: u64) -> Result<(), GpuError> {
        let minor = self.current_minor();
        self.ensure_registered(minor)?;
        let mib = bytes.div_ceil(1 << 20) as i64;
        self.cluster.with_device_mut(minor, |d| d.resize_process(self.pid, mib))??;
        *self.allocated_bytes.entry(minor).or_default() += bytes;
        let cost = MALLOC_BASE_S + bytes as f64 * MALLOC_PER_BYTE_S;
        let start = self.cluster.clock().now();
        self.cluster.clock().advance(cost);
        self.profiler.record(ApiKind::ApiCall, "cudaMalloc", cost);
        self.trace.record("cudaMalloc", "host", "host", start, cost);
        Ok(())
    }

    /// `cudaFree`: release `bytes` on the active device.
    pub fn free(&mut self, bytes: u64) -> Result<(), GpuError> {
        let minor = self.current_minor();
        let mib = bytes.div_ceil(1 << 20) as i64;
        self.cluster.with_device_mut(minor, |d| d.resize_process(self.pid, -mib))??;
        let held = self.allocated_bytes.entry(minor).or_default();
        *held = held.saturating_sub(bytes);
        let cost = MALLOC_BASE_S / 2.0;
        self.cluster.clock().advance(cost);
        self.profiler.record(ApiKind::ApiCall, "cudaFree", cost);
        Ok(())
    }

    /// `cudaMemcpy` (synchronous): blocks until outstanding work on the
    /// active device finishes, then performs the transfer.
    pub fn memcpy(&mut self, spec: TransferSpec) -> Result<(), GpuError> {
        let minor = self.current_minor();
        self.ensure_registered(minor)?;
        self.wait_device(minor, "cudaMemcpy");
        let arch = self.cluster.with_device(minor, |d| d.arch.clone())?;
        let dur = spec.duration(&arch);
        let start = self.cluster.clock().now();
        self.cluster.clock().advance(dur);
        self.profiler.record(ApiKind::ApiCall, spec.kind.api_name(), dur);
        self.profiler.record(ApiKind::GpuActivity, spec.kind.api_name(), dur);
        let track = match spec.kind {
            crate::transfer::CopyKind::DeviceToHost => format!("gpu{minor}/d2h"),
            _ => format!("gpu{minor}/h2d"),
        };
        self.trace.record(spec.kind.api_name(), "dma", track, start, dur);
        Ok(())
    }

    /// `cudaMemcpyAsync`: enqueue the transfer on the device's copy engine
    /// and return immediately. Host→device copies overlap with kernel
    /// execution; device→host copies additionally wait for queued kernels
    /// (they read kernel output).
    pub fn memcpy_async(&mut self, spec: TransferSpec) -> Result<(), GpuError> {
        let minor = self.current_minor();
        self.ensure_registered(minor)?;
        let arch = self.cluster.with_device(minor, |d| d.arch.clone())?;
        let dur = spec.duration(&arch);

        let now = self.cluster.clock().advance(crate::transfer::MEMCPY_LATENCY_S);
        self.profiler.record(
            ApiKind::ApiCall,
            "cudaMemcpyAsync",
            crate::transfer::MEMCPY_LATENCY_S,
        );

        // Engine-busy state lives on the (shared) device: concurrent
        // contexts contend for the same DMA engines.
        let is_d2h = matches!(spec.kind, crate::transfer::CopyKind::DeviceToHost);
        let start = self.cluster.with_device_mut(minor, |d| {
            // Result copies (D2H) read kernel output, so they also wait
            // for the compute engine.
            let compute_gate = if is_d2h { d.compute_busy_until } else { 0.0 };
            let engine = if is_d2h { &mut d.d2h_busy_until } else { &mut d.h2d_busy_until };
            let start = engine.max(now).max(compute_gate);
            *engine = start + dur;
            start
        })?;
        self.profiler.record(ApiKind::GpuActivity, spec.kind.api_name(), dur);
        let track = match spec.kind {
            crate::transfer::CopyKind::DeviceToHost => format!("gpu{minor}/d2h"),
            _ => format!("gpu{minor}/h2d"),
        };
        self.trace.record(spec.kind.api_name(), "dma", track, start, dur);
        Ok(())
    }

    /// Launch a kernel asynchronously on the active device
    /// (`cudaLaunchKernel`): the host pays only launch overhead; device
    /// busy time is tracked until the next sync.
    pub fn launch(&mut self, kernel: &KernelSpec) -> Result<(), GpuError> {
        let minor = self.current_minor();
        self.ensure_registered(minor)?;
        let arch = self.cluster.with_device(minor, |d| d.arch.clone())?;
        let timing = kernel.duration(&arch)?;

        let now = self.cluster.clock().advance(LAUNCH_OVERHEAD_S);
        self.profiler.record(ApiKind::ApiCall, "cudaLaunchKernel", LAUNCH_OVERHEAD_S);

        // Stream semantics: the kernel waits for prior kernels (the
        // compute engine is shared device-wide, so other contexts'
        // kernels count too) and for the latest enqueued input copy.
        let start = self.cluster.with_device_mut(minor, |d| {
            let start = d.compute_busy_until.max(d.h2d_busy_until).max(now);
            d.compute_busy_until = start + timing.total_s;
            start
        })?;
        let done = start + timing.total_s;
        let _ = done;

        self.profiler.record(ApiKind::GpuActivity, &kernel.name, timing.total_s);
        self.trace.record(
            kernel.name.clone(),
            "kernel",
            format!("gpu{minor}/compute"),
            start,
            timing.total_s,
        );
        self.profiler.record_stalls(&timing);

        // Reflect the launch in device utilization so concurrent monitor
        // samples see a busy device.
        let sm = timing.efficiency * 100.0;
        let mem = timing.memory_stall_fraction() * 100.0;
        self.cluster.with_device_mut(minor, |d| d.set_utilization(sm, mem))?;
        Ok(())
    }

    /// `cudaStreamSynchronize` on the active device: the host blocks until
    /// queued kernels complete; the wait is attributed to the sync API
    /// (which is why sync dominates NVProf's API-call section in Fig. 4).
    pub fn synchronize(&mut self) -> Result<(), GpuError> {
        let minor = self.current_minor();
        self.wait_device(minor, "cudaStreamSynchronize");
        Ok(())
    }

    fn wait_device(&mut self, minor: u32, api: &str) {
        let now = self.cluster.clock().now();
        let done = self.cluster.with_device(minor, |d| d.engines_busy_until()).unwrap_or(0.0);
        if done > now {
            let wait = done - now;
            self.cluster.clock().advance_to(done);
            self.profiler.record(ApiKind::ApiCall, api, wait);
        }
    }

    /// Tear down the context: sync every device, drop utilization, detach
    /// the process everywhere (`cudaDeviceReset` + process exit).
    pub fn destroy(mut self) -> Profiler {
        let minors: Vec<u32> = self.registered.clone();
        for minor in &minors {
            self.wait_device(*minor, "cudaStreamSynchronize");
        }
        for minor in minors {
            let _ = self.cluster.with_device_mut(minor, |d| d.set_utilization(0.0, 0.0));
            let _ = self.cluster.detach_process(minor, self.pid);
        }
        std::mem::take(&mut self.profiler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::GpuCluster;

    #[test]
    fn visible_device_parsing() {
        assert_eq!(parse_visible_devices(None, 2), vec![0, 1]);
        assert_eq!(parse_visible_devices(Some("1"), 2), vec![1]);
        assert_eq!(parse_visible_devices(Some("1,0"), 2), vec![1, 0]);
        assert_eq!(parse_visible_devices(Some(""), 2), Vec::<u32>::new());
        assert_eq!(parse_visible_devices(Some("0,junk,1"), 2), vec![0]);
        assert_eq!(parse_visible_devices(Some("7"), 2), Vec::<u32>::new());
        assert_eq!(parse_visible_devices(Some("0,0"), 2), vec![0]);
    }

    #[test]
    fn masking_remaps_logical_ordinals() {
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, Some("1"), 100, "tool").unwrap();
        assert_eq!(ctx.device_count(), 1);
        assert_eq!(ctx.current_minor(), 1);
        ctx.malloc(1 << 20).unwrap();
        // The process must appear on physical device 1, not 0.
        assert_eq!(cluster.available_devices(), vec![0]);
        ctx.destroy();
        assert_eq!(cluster.available_devices(), vec![0, 1]);
    }

    #[test]
    fn empty_mask_fails() {
        let cluster = GpuCluster::k80_node();
        assert!(matches!(
            CudaContext::new(&cluster, Some(""), 1, "t"),
            Err(GpuError::NoVisibleDevices)
        ));
    }

    #[test]
    fn malloc_registers_context_memory() {
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 55, "racon_gpu").unwrap();
        ctx.malloc(512 << 20).unwrap();
        let used = cluster.with_device(0, |d| d.fb_used_mib()).unwrap();
        assert_eq!(used, 63 + 60 + 512); // driver + context + allocation
        ctx.destroy();
    }

    #[test]
    fn async_launch_then_sync_advances_clock() {
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 1, "t").unwrap();
        let k = KernelSpec::fp32("bigk", 4096, 256, 1e12, 1e9);
        ctx.launch(&k).unwrap();
        let t_after_launch = cluster.clock().now();
        assert!(t_after_launch < 0.001); // launch is async
        ctx.synchronize().unwrap();
        let t_after_sync = cluster.clock().now();
        assert!(t_after_sync > 0.05, "{t_after_sync}");
        // Wait time attributed to the sync API.
        let sync = ctx.profiler.api_entry("cudaStreamSynchronize").unwrap();
        assert!(sync.seconds > 0.05);
        ctx.destroy();
    }

    #[test]
    fn memcpy_blocks_on_pending_kernels() {
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 1, "t").unwrap();
        ctx.launch(&KernelSpec::fp32("k", 4096, 256, 1e12, 1e9)).unwrap();
        ctx.memcpy(TransferSpec::d2h(1e6)).unwrap();
        // The memcpy API time itself is small; the kernel wait went to
        // cudaMemcpy (synchronous copy semantics).
        assert!(ctx.profiler.api_entry("cudaMemcpy").unwrap().seconds > 0.05);
        assert!(ctx.profiler.api_entry("cudaMemcpyDtoH").is_some());
        ctx.destroy();
    }

    #[test]
    fn utilization_visible_during_run_and_cleared_after() {
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 1, "t").unwrap();
        ctx.launch(&KernelSpec::fp32("k", 4096, 256, 1e12, 1e9)).unwrap();
        let util = cluster.with_device(0, |d| d.sm_utilization).unwrap();
        assert!(util > 50.0);
        ctx.destroy();
        let util = cluster.with_device(0, |d| d.sm_utilization).unwrap();
        assert_eq!(util, 0.0);
    }

    #[test]
    fn oom_malloc_errors() {
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 1, "hog").unwrap();
        let too_big = (cluster.with_device(0, |d| d.fb_total_mib()).unwrap() + 1) << 20;
        assert!(matches!(ctx.malloc(too_big), Err(GpuError::OutOfMemory { .. })));
        ctx.destroy();
    }

    #[test]
    fn set_device_switches_and_validates() {
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 1, "t").unwrap();
        ctx.set_device(1).unwrap();
        assert_eq!(ctx.current_minor(), 1);
        assert!(ctx.set_device(2).is_err());
        ctx.destroy();
    }

    #[test]
    fn destroy_returns_merged_profiler() {
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 1, "t").unwrap();
        ctx.malloc(1 << 20).unwrap();
        let prof = ctx.destroy();
        assert_eq!(prof.api_entry("cudaMalloc").unwrap().calls, 1);
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use crate::cluster::GpuCluster;

    /// Async H2D copies must overlap with kernel execution: a pipelined
    /// copy+kernel sequence finishes in roughly max(copies, kernels), not
    /// their sum.
    #[test]
    fn async_copies_overlap_kernels() {
        let mk = |pipelined: bool| -> f64 {
            let cluster = GpuCluster::k80_node();
            let mut ctx = CudaContext::new(&cluster, None, 1, "t").unwrap();
            for _ in 0..4 {
                let copy = TransferSpec::h2d(7e9); // ~1.2 s, comparable to the kernel
                if pipelined {
                    ctx.memcpy_async(copy).unwrap();
                } else {
                    ctx.memcpy(copy).unwrap();
                }
                ctx.launch(&KernelSpec::fp32("k", 4096, 256, 5e12, 1e8)).unwrap();
            }
            ctx.synchronize().unwrap();
            let t = cluster.clock().now();
            ctx.destroy();
            t
        };
        let serial = mk(false);
        let pipelined = mk(true);
        assert!(pipelined < serial * 0.75, "pipelined {pipelined:.3} vs serial {serial:.3}");
    }

    /// D2H copies wait for queued kernels (they read their output), and
    /// the two DMA directions use independent engines.
    #[test]
    fn d2h_waits_for_compute_but_not_h2d_queue() {
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 1, "t").unwrap();
        ctx.launch(&KernelSpec::fp32("k", 4096, 256, 5e12, 1e8)).unwrap();
        // D2H result copy: must land after the kernel.
        ctx.memcpy_async(TransferSpec::d2h(1e6)).unwrap();
        // Next batch's H2D: free to start immediately on its own engine.
        ctx.memcpy_async(TransferSpec::h2d(1e6)).unwrap();
        let (h2d_end, d2h_end, kernel_end) = cluster
            .with_device(0, |d| (d.h2d_busy_until, d.d2h_busy_until, d.compute_busy_until))
            .unwrap();
        assert!(h2d_end < kernel_end, "h2d should not wait for the kernel");
        assert!(d2h_end > kernel_end, "d2h must wait for the kernel");
        ctx.destroy();
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::cluster::GpuCluster;

    #[test]
    fn trace_shows_copy_compute_overlap() {
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 1, "t").unwrap();
        for _ in 0..3 {
            ctx.memcpy_async(TransferSpec::h2d(6e9)).unwrap();
            ctx.launch(&KernelSpec::fp32("k", 4096, 256, 5e12, 1e8)).unwrap();
        }
        ctx.synchronize().unwrap();
        // Pipelined: later H2D copies run while earlier kernels execute.
        let compute = ctx.trace.track("gpu0/compute");
        assert!(ctx.trace.track("gpu0/h2d").iter().any(|c| compute.iter().any(|k| c.overlaps(k))));
        // Events within one engine never overlap each other.
        for track in ["gpu0/h2d", "gpu0/compute"] {
            let events = ctx.trace.track(track);
            for pair in events.windows(2) {
                assert!(
                    pair[0].end_s() <= pair[1].start_s + 1e-12,
                    "overlap within {track}: {pair:?}"
                );
            }
        }
        // The kernels landed on the compute track.
        assert_eq!(ctx.trace.track("gpu0/compute").len(), 3);
        ctx.destroy();
    }

    #[test]
    fn trace_tracks_are_device_specific() {
        let cluster = GpuCluster::k80_node();
        let mut ctx = CudaContext::new(&cluster, None, 1, "t").unwrap();
        ctx.launch(&KernelSpec::fp32("k0", 64, 128, 1e9, 1e6)).unwrap();
        ctx.set_device(1).unwrap();
        ctx.launch(&KernelSpec::fp32("k1", 64, 128, 1e9, 1e6)).unwrap();
        ctx.synchronize().unwrap();
        assert_eq!(ctx.trace.track("gpu0/compute").len(), 1);
        assert_eq!(ctx.trace.track("gpu1/compute").len(), 1);
        ctx.destroy();
    }
}

#[cfg(test)]
mod contention_tests {
    use super::*;
    use crate::cluster::GpuCluster;

    /// Two contexts (processes) on the same device must serialize on the
    /// compute engine: the second process's kernel starts after the
    /// first's finishes.
    #[test]
    fn contexts_contend_for_the_same_device() {
        let cluster = GpuCluster::k80_node();
        let kernel = KernelSpec::fp32("k", 4096, 256, 5e12, 1e8); // ~1.2 s

        let mut a = CudaContext::new(&cluster, Some("0"), 1, "a").unwrap();
        let mut b = CudaContext::new(&cluster, Some("0"), 2, "b").unwrap();
        a.launch(&kernel).unwrap();
        b.launch(&kernel).unwrap();
        b.synchronize().unwrap();
        let t_shared = cluster.clock().now();
        a.destroy();
        b.destroy();

        // Same two kernels on *different* devices: no contention.
        let cluster2 = GpuCluster::k80_node();
        let mut a = CudaContext::new(&cluster2, Some("0"), 1, "a").unwrap();
        let mut b = CudaContext::new(&cluster2, Some("1"), 2, "b").unwrap();
        a.launch(&kernel).unwrap();
        b.launch(&kernel).unwrap();
        a.synchronize().unwrap();
        b.synchronize().unwrap();
        let t_parallel = cluster2.clock().now();
        a.destroy();
        b.destroy();

        assert!(
            t_shared > t_parallel * 1.8,
            "shared-device run {t_shared:.3}s should be ~2x the dual-device {t_parallel:.3}s"
        );
    }
}
