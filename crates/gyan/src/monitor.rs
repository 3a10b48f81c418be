//! The GPU hardware usage script (paper §V-C).
//!
//! "This script obtains the GPU utilization, GPU memory utilization, and
//! PCIe link generation information for every second, including minima,
//! maxima, and average. It is executed when a job is submitted and stopped
//! when a job is either killed or stops. Whenever it stops, a
//! post-processing function is executed, and it generates .csv files and
//! other log and statistic files."
//!
//! The monitor registers itself as an observer on the cluster's virtual
//! clock and takes one sample per elapsed virtual second, so tools that
//! advance virtual time automatically generate a chronological usage
//! trace.

use gpusim::{GpuCluster, ObserverId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One per-device observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSample {
    /// Device minor number.
    pub minor: u32,
    /// SM utilization %.
    pub sm_util: f64,
    /// Memory controller utilization %.
    pub mem_util: f64,
    /// Framebuffer MiB in use.
    pub fb_used_mib: u64,
    /// Current PCIe link generation.
    pub pcie_gen: u8,
}

/// One timestamped sample covering every device.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Virtual time of the sample.
    pub t: f64,
    /// Per-device observations.
    pub devices: Vec<DeviceSample>,
}

/// Post-processed statistics for one device over a monitoring run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageStats {
    /// Device minor number.
    pub minor: u32,
    /// Minimum SM utilization %.
    pub sm_min: f64,
    /// Maximum SM utilization %.
    pub sm_max: f64,
    /// Average SM utilization %.
    pub sm_avg: f64,
    /// Minimum framebuffer MiB used.
    pub mem_min: u64,
    /// Maximum framebuffer MiB used.
    pub mem_max: u64,
    /// Average framebuffer MiB used.
    pub mem_avg: f64,
    /// Samples observed.
    pub samples: usize,
}

struct MonitorState {
    samples: Vec<Sample>,
    last_sample_t: f64,
}

/// The hardware usage monitor. Create with [`UsageMonitor::start`]; samples
/// accumulate automatically as virtual time advances; call
/// [`UsageMonitor::stop`] to cease sampling and post-process.
pub struct UsageMonitor {
    cluster: GpuCluster,
    state: Arc<Mutex<MonitorState>>,
    active: Arc<AtomicBool>,
    observer: Mutex<Option<ObserverId>>,
}

impl UsageMonitor {
    /// Start monitoring `cluster` at 1 Hz virtual time.
    pub fn start(cluster: &GpuCluster) -> Self {
        Self::start_with_interval(cluster, 1.0)
    }

    /// Start monitoring with a custom sampling interval (seconds).
    pub fn start_with_interval(cluster: &GpuCluster, interval: f64) -> Self {
        assert!(interval > 0.0, "sampling interval must be positive");
        let start_t = cluster.clock().now();
        let state =
            Arc::new(Mutex::new(MonitorState { samples: Vec::new(), last_sample_t: start_t }));
        let active = Arc::new(AtomicBool::new(true));

        let observer_cluster = cluster.clone();
        let observer_state = state.clone();
        let observer_active = active.clone();
        let observer = cluster.clock().on_advance(Box::new(move |now| {
            if !observer_active.load(Ordering::Relaxed) {
                return;
            }
            let mut st = observer_state.lock();
            // Take one sample per elapsed interval, stamped at the
            // interval boundaries (the script's chronological 1 Hz log).
            while st.last_sample_t + interval <= now {
                st.last_sample_t += interval;
                let t = st.last_sample_t;
                let devices = snapshot_devices(&observer_cluster);
                st.samples.push(Sample { t, devices });
            }
        }));
        UsageMonitor {
            cluster: cluster.clone(),
            state,
            active,
            observer: Mutex::new(Some(observer)),
        }
    }

    /// Stop sampling (the job ended). Deregisters the clock observer, so
    /// a stopped monitor costs the clock nothing. Returns the collected
    /// samples.
    pub fn stop(&self) -> Vec<Sample> {
        self.active.store(false, Ordering::Relaxed);
        if let Some(id) = self.observer.lock().take() {
            self.cluster.clock().remove_observer(id);
        }
        self.state.lock().samples.clone()
    }

    /// Post-process into per-device min/max/avg statistics.
    pub fn stats(&self) -> Vec<UsageStats> {
        let samples = self.state.lock();
        let mut out: Vec<UsageStats> = Vec::new();
        for sample in &samples.samples {
            for dev in &sample.devices {
                let slot = match out.iter_mut().find(|s| s.minor == dev.minor) {
                    Some(s) => s,
                    None => {
                        out.push(UsageStats {
                            minor: dev.minor,
                            sm_min: f64::INFINITY,
                            sm_max: f64::NEG_INFINITY,
                            sm_avg: 0.0,
                            mem_min: u64::MAX,
                            mem_max: 0,
                            mem_avg: 0.0,
                            samples: 0,
                        });
                        out.last_mut().expect("just pushed")
                    }
                };
                slot.sm_min = slot.sm_min.min(dev.sm_util);
                slot.sm_max = slot.sm_max.max(dev.sm_util);
                slot.sm_avg += dev.sm_util;
                slot.mem_min = slot.mem_min.min(dev.fb_used_mib);
                slot.mem_max = slot.mem_max.max(dev.fb_used_mib);
                slot.mem_avg += dev.fb_used_mib as f64;
                slot.samples += 1;
            }
        }
        for s in &mut out {
            if s.samples > 0 {
                s.sm_avg /= s.samples as f64;
                s.mem_avg /= s.samples as f64;
            }
        }
        out.sort_by_key(|s| s.minor);
        out
    }

    /// Render the chronological trace as CSV
    /// (`t,gpu,sm_util,mem_util,fb_used_mib,pcie_gen`).
    pub fn to_csv(&self) -> String {
        let mut csv = String::from("t,gpu,sm_util,mem_util,fb_used_mib,pcie_gen\n");
        for sample in self.state.lock().samples.iter() {
            for dev in &sample.devices {
                csv.push_str(&format!(
                    "{:.3},{},{:.1},{:.1},{},{}\n",
                    sample.t, dev.minor, dev.sm_util, dev.mem_util, dev.fb_used_mib, dev.pcie_gen
                ));
            }
        }
        csv
    }
}

impl Drop for UsageMonitor {
    // A monitor that is merely dropped (job killed, panic unwind) must not
    // leave its observer behind on the long-lived cluster clock.
    fn drop(&mut self) {
        if let Some(id) = self.observer.lock().take() {
            self.cluster.clock().remove_observer(id);
        }
    }
}

fn snapshot_devices(cluster: &GpuCluster) -> Vec<DeviceSample> {
    let mut samples = Vec::with_capacity(cluster.device_count() as usize);
    cluster.for_each_smi_device(|d| {
        samples.push(DeviceSample {
            minor: d.minor_number,
            sm_util: d.sm_utilization,
            mem_util: d.mem_utilization,
            fb_used_mib: d.fb_used_mib(),
            pcie_gen: d.pcie_link_gen,
        })
    });
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::GpuProcess;

    impl UsageMonitor {
        /// All samples collected so far.
        fn samples(&self) -> Vec<Sample> {
            self.state.lock().samples.clone()
        }
    }

    #[test]
    fn samples_once_per_virtual_second() {
        let c = GpuCluster::k80_node();
        let mon = UsageMonitor::start(&c);
        c.clock().advance(0.4); // below interval: no sample
        assert!(mon.samples().is_empty());
        c.clock().advance(0.7); // crosses 1.0
        assert_eq!(mon.samples().len(), 1);
        c.clock().advance(3.0); // crosses 2, 3, 4
        assert_eq!(mon.samples().len(), 4);
        let ts: Vec<f64> = mon.samples().iter().map(|s| s.t).collect();
        assert_eq!(ts, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn stop_freezes_sampling() {
        let c = GpuCluster::k80_node();
        let mon = UsageMonitor::start(&c);
        c.clock().advance(2.0);
        let collected = mon.stop();
        assert_eq!(collected.len(), 2);
        c.clock().advance(5.0);
        assert_eq!(mon.samples().len(), 2);
    }

    #[test]
    fn stats_track_memory_growth() {
        let c = GpuCluster::k80_node();
        let mon = UsageMonitor::start(&c);
        c.clock().advance(1.0); // idle sample: 63 MiB
        c.attach_process(0, GpuProcess::compute(1, "racon", 500)).unwrap();
        c.with_device_mut(0, |d| d.set_utilization(90.0, 40.0)).unwrap();
        c.clock().advance(1.0); // busy sample: 563 MiB
        let stats = mon.stats();
        let gpu0 = stats.iter().find(|s| s.minor == 0).unwrap();
        assert_eq!(gpu0.mem_min, 63);
        assert_eq!(gpu0.mem_max, 563);
        assert_eq!(gpu0.sm_max, 90.0);
        assert_eq!(gpu0.sm_min, 0.0);
        assert_eq!(gpu0.samples, 2);
        assert!((gpu0.sm_avg - 45.0).abs() < 1e-9);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let c = GpuCluster::k80_node();
        let mon = UsageMonitor::start(&c);
        c.clock().advance(1.0);
        let csv = mon.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,gpu,sm_util,mem_util,fb_used_mib,pcie_gen");
        assert_eq!(lines.len(), 3); // header + 2 devices
        assert!(lines[1].starts_with("1.000,0,"));
    }

    #[test]
    fn custom_interval() {
        let c = GpuCluster::k80_node();
        let mon = UsageMonitor::start_with_interval(&c, 0.5);
        c.clock().advance(2.0);
        assert_eq!(mon.samples().len(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let c = GpuCluster::k80_node();
        let _ = UsageMonitor::start_with_interval(&c, 0.0);
    }

    #[test]
    fn stop_deregisters_clock_observer() {
        let c = GpuCluster::k80_node();
        let baseline = c.clock().observer_count();
        let mon = UsageMonitor::start(&c);
        assert_eq!(c.clock().observer_count(), baseline + 1);
        mon.stop();
        assert_eq!(c.clock().observer_count(), baseline);
        // Stopping again (or dropping) must not underflow / double-remove.
        mon.stop();
        drop(mon);
        assert_eq!(c.clock().observer_count(), baseline);
    }

    #[test]
    fn drop_deregisters_clock_observer() {
        let c = GpuCluster::k80_node();
        let baseline = c.clock().observer_count();
        // Repeated start/drop cycles — the pattern that used to leak one
        // observer per monitored job — leave the clock unchanged.
        for _ in 0..10 {
            let mon = UsageMonitor::start(&c);
            c.clock().advance(1.0);
            drop(mon);
        }
        assert_eq!(c.clock().observer_count(), baseline);
    }
}
