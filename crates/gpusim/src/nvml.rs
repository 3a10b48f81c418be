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

/// Utilization rates in percent, mirroring `nvmlDeviceGetUtilizationRates`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationRates {
    /// SM utilization percentage.
    pub gpu: f64,
    /// Memory controller utilization percentage.
    pub memory: f64,
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

    /// `nvmlDeviceGetName` for device `index`.
    pub fn device_name(&self, index: u32) -> Result<String, GpuError> {
        self.cluster.with_device(index, |d| d.arch.name.to_string())
    }

    /// `nvmlDeviceGetMemoryInfo` for device `index`.
    pub fn memory_info(&self, index: u32) -> Result<MemoryInfo, GpuError> {
        self.cluster.with_device(index, |d| MemoryInfo {
            total: d.fb_total_mib() << 20,
            used: d.fb_used_mib() << 20,
            free: d.fb_free_mib() << 20,
        })
    }

    /// `nvmlDeviceGetUtilizationRates` for device `index`.
    pub fn utilization_rates(&self, index: u32) -> Result<UtilizationRates, GpuError> {
        self.cluster.with_device(index, |d| UtilizationRates {
            gpu: d.sm_utilization,
            memory: d.mem_utilization,
        })
    }

    /// `nvmlDeviceGetTemperature` (GPU sensor) for device `index`, °C.
    pub fn temperature(&self, index: u32) -> Result<f64, GpuError> {
        self.cluster.with_device(index, |d| d.temperature_c)
    }

    /// `nvmlDeviceGetPowerUsage` for device `index`, milliwatts (NVML's
    /// unit).
    pub fn power_usage_mw(&self, index: u32) -> Result<u64, GpuError> {
        self.cluster.with_device(index, |d| (d.power_draw_w() * 1000.0) as u64)
    }

    /// `nvmlDeviceGetEnforcedPowerLimit` for device `index`, milliwatts.
    pub fn power_limit_mw(&self, index: u32) -> Result<u64, GpuError> {
        self.cluster.with_device(index, |d| (d.arch.power_limit_w * 1000.0) as u64)
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
    fn counts_and_names() {
        let c = GpuCluster::k80_node();
        let nvml = Nvml::init(&c);
        assert_eq!(nvml.device_count(), 2);
        assert_eq!(nvml.device_name(0).unwrap(), "Tesla K80");
        assert!(nvml.device_name(3).is_err());
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

    #[test]
    fn temperature_and_power_reported() {
        let c = GpuCluster::k80_node();
        c.with_device_mut(0, |d| d.set_utilization(100.0, 50.0)).unwrap();
        let nvml = Nvml::init(&c);
        assert!(nvml.temperature(0).unwrap() > nvml.temperature(1).unwrap());
        assert_eq!(nvml.power_usage_mw(0).unwrap(), 149_000); // at limit
        assert_eq!(nvml.power_limit_mw(0).unwrap(), 149_000);
        assert_eq!(nvml.power_usage_mw(1).unwrap(), 60_000); // idle
        assert!(nvml.temperature(9).is_err());
    }

    #[test]
    fn utilization_defaults_to_idle() {
        let c = GpuCluster::k80_node();
        let nvml = Nvml::init(&c);
        let u = nvml.utilization_rates(0).unwrap();
        assert_eq!(u.gpu, 0.0);
        assert_eq!(u.memory, 0.0);
    }
}
