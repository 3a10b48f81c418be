//! A `pynvml`-like query API.
//!
//! GYAN's dynamic destination rule "obtains the system GPU availability and
//! the number of GPUs using the `pynvml` Python library". This module is
//! the equivalent surface over the simulated cluster, with method names
//! kept close to NVML's so the GYAN code reads like the paper's.

use crate::cluster::GpuCluster;
use crate::error::GpuError;

/// Memory info in bytes, mirroring `nvmlDeviceGetMemoryInfo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryInfo {
    /// Total framebuffer bytes.
    pub total: u64,
    /// Bytes in use.
    pub used: u64,
    /// Bytes free.
    pub free: u64,
}

/// A running compute process, mirroring
/// `nvmlDeviceGetComputeRunningProcesses`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunningProcess {
    /// Host pid.
    pub pid: u32,
    /// Bytes of device memory used.
    pub used_gpu_memory: u64,
}

/// Handle to the simulated NVML library.
#[derive(Clone)]
pub struct Nvml {
    cluster: GpuCluster,
}

impl Nvml {
    /// `nvmlInit` — bind to a cluster.
    pub fn init(cluster: &GpuCluster) -> Self {
        Nvml { cluster: cluster.clone() }
    }

    /// `nvmlDeviceGetCount`.
    pub fn device_count(&self) -> u32 {
        self.cluster.device_count()
    }

    /// `nvmlDeviceGetMemoryInfo` for device `index`.
    pub fn memory_info(&self, index: u32) -> Result<MemoryInfo, GpuError> {
        self.cluster.with_device(index, |d| MemoryInfo {
            total: d.fb_total_mib() << 20,
            used: d.fb_used_mib() << 20,
            free: d.fb_free_mib() << 20,
        })
    }

    /// `nvmlDeviceGetComputeRunningProcesses` for device `index`.
    pub fn compute_running_processes(&self, index: u32) -> Result<Vec<RunningProcess>, GpuError> {
        self.cluster.with_device(index, |d| {
            d.processes()
                .iter()
                .map(|p| RunningProcess { pid: p.pid, used_gpu_memory: p.used_mib << 20 })
                .collect()
        })
    }

    /// `nvmlDeviceGetComputeRunningProcesses` called with `infoCount = 0`:
    /// only the number of running compute processes, nothing allocated.
    pub fn compute_running_process_count(&self, index: u32) -> Result<usize, GpuError> {
        self.cluster.with_device(index, |d| d.processes().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::GpuProcess;

    #[test]
    fn counts_devices() {
        let c = GpuCluster::k80_node();
        assert_eq!(Nvml::init(&c).device_count(), 2);
    }

    #[test]
    fn memory_info_tracks_processes() {
        let c = GpuCluster::k80_node();
        let nvml = Nvml::init(&c);
        let before = nvml.memory_info(0).unwrap();
        c.attach_process(0, GpuProcess::compute(9, "t", 100)).unwrap();
        let after = nvml.memory_info(0).unwrap();
        assert_eq!(after.used - before.used, 100 << 20);
        assert_eq!(after.total, before.total);
        assert_eq!(after.free + after.used, after.total);
    }

    #[test]
    fn running_processes_reported() {
        let c = GpuCluster::k80_node();
        c.attach_process(1, GpuProcess::compute(42, "bonito", 2700)).unwrap();
        let nvml = Nvml::init(&c);
        let procs = nvml.compute_running_processes(1).unwrap();
        assert_eq!(procs, vec![RunningProcess { pid: 42, used_gpu_memory: 2700 << 20 }]);
        assert!(nvml.compute_running_processes(0).unwrap().is_empty());
        assert_eq!(nvml.compute_running_process_count(1).unwrap(), 1);
        assert_eq!(nvml.compute_running_process_count(0).unwrap(), 0);
        assert!(nvml.compute_running_process_count(2).is_err());
    }
}
