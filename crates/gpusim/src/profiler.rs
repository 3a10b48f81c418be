//! An NVProf-like profiler.
//!
//! NVProf reports two sections: *GPU activities* (time the device spent in
//! each kernel / copy) and *API calls* (time the host spent inside each CUDA
//! runtime call, where `cudaStreamSynchronize` absorbs the waiting-for-GPU
//! time). The paper's Figs. 4 and 6 plot exactly these hotspots, and its
//! stall analysis ("~70% memory dependency stall and ~20% execution
//! dependency stall") comes from NVProf's stall-reason counters, which we
//! derive from the kernel roofline breakdown.

use crate::kernel::KernelTiming;
use std::collections::HashMap;

/// Category of a profiled entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApiKind {
    /// Host-side CUDA runtime call (cudaMalloc, cudaMemcpy, sync, launch).
    ApiCall,
    /// Device-side activity (kernel execution, DMA transfer).
    GpuActivity,
}

/// Accumulated time and call count for one named entry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Entry {
    /// Total seconds attributed to this name.
    pub seconds: f64,
    /// Number of calls/launches.
    pub calls: u64,
}

/// NVProf-style aggregate stall analysis across all profiled kernels,
/// weighted by kernel busy time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StallAnalysis {
    /// Fraction of stalls from memory dependencies (0–1).
    pub memory_dependency: f64,
    /// Fraction from execution (pipeline) dependencies.
    pub execution_dependency: f64,
    /// Everything else (instruction fetch, sync, not-selected, ...).
    pub other: f64,
}

/// Accumulates profiling data for one tool execution.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    api_calls: HashMap<String, Entry>,
    gpu_activities: HashMap<String, Entry>,
    // Stall accumulation: busy-time-weighted memory stall fraction.
    stall_weight: f64,
    stall_memory: f64,
}

impl Profiler {
    /// A fresh, empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `seconds` under `name` in the given section.
    pub fn record(&mut self, kind: ApiKind, name: &str, seconds: f64) {
        let map = match kind {
            ApiKind::ApiCall => &mut self.api_calls,
            ApiKind::GpuActivity => &mut self.gpu_activities,
        };
        let entry = map.entry(name.to_string()).or_default();
        entry.seconds += seconds;
        entry.calls += 1;
    }

    /// Record a kernel's stall profile (called once per launch with the
    /// modeled timing breakdown).
    pub fn record_stalls(&mut self, timing: &KernelTiming) {
        let busy = timing.compute_s.max(timing.memory_s);
        self.stall_weight += busy;
        self.stall_memory += busy * timing.memory_stall_fraction();
    }

    /// All API-call entries sorted by descending time.
    pub fn api_report(&self) -> Vec<(String, Entry)> {
        sorted(&self.api_calls)
    }

    /// All GPU-activity entries sorted by descending time.
    pub fn gpu_report(&self) -> Vec<(String, Entry)> {
        sorted(&self.gpu_activities)
    }

    /// Total time across API calls, added up in [`Self::api_report`]'s
    /// order — so it is bit-stable, whatever order the entries arrived or
    /// the map iterates in.
    pub fn total_api_seconds(&self) -> f64 {
        report_order(&self.api_calls).iter().map(|(_, e)| e.seconds).sum()
    }

    /// Total device busy time, added up in [`Self::gpu_report`]'s order.
    pub fn total_gpu_seconds(&self) -> f64 {
        report_order(&self.gpu_activities).iter().map(|(_, e)| e.seconds).sum()
    }

    /// Look up one API entry by name.
    pub fn api_entry(&self, name: &str) -> Option<Entry> {
        self.api_calls.get(name).copied()
    }

    /// Look up one GPU-activity entry by name.
    pub fn gpu_entry(&self, name: &str) -> Option<Entry> {
        self.gpu_activities.get(name).copied()
    }

    /// Aggregate stall analysis over all recorded kernels.
    ///
    /// Memory-dependency stalls come from the roofline memory fraction; the
    /// remainder is split between execution dependencies and other reasons
    /// in the ~2.5:1 ratio NVProf typically shows for dependency-limited
    /// bio kernels.
    pub fn stall_analysis(&self) -> StallAnalysis {
        if self.stall_weight == 0.0 {
            return StallAnalysis::default();
        }
        let memory = self.stall_memory / self.stall_weight;
        let rest = 1.0 - memory;
        StallAnalysis {
            memory_dependency: memory,
            execution_dependency: rest * 0.72,
            other: rest * 0.28,
        }
    }

    /// Merge another profiler's data into this one (used when a tool run
    /// spans multiple contexts/devices).
    pub fn merge(&mut self, other: &Profiler) {
        for (name, e) in &other.api_calls {
            let slot = self.api_calls.entry(name.clone()).or_default();
            slot.seconds += e.seconds;
            slot.calls += e.calls;
        }
        for (name, e) in &other.gpu_activities {
            let slot = self.gpu_activities.entry(name.clone()).or_default();
            slot.seconds += e.seconds;
            slot.calls += e.calls;
        }
        self.stall_weight += other.stall_weight;
        self.stall_memory += other.stall_memory;
    }
}

/// A section's entries by descending time, then name: the one
/// deterministic order reports list and totals add up in.
fn report_order(map: &HashMap<String, Entry>) -> Vec<(&String, &Entry)> {
    let mut v: Vec<(&String, &Entry)> = map.iter().collect();
    v.sort_by(|a, b| b.1.seconds.total_cmp(&a.1.seconds).then_with(|| a.0.cmp(b.0)));
    v
}

fn sorted(map: &HashMap<String, Entry>) -> Vec<(String, Entry)> {
    report_order(map).into_iter().map(|(name, e)| (name.clone(), *e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut p = Profiler::new();
        p.record(ApiKind::ApiCall, "cudaMemcpyHtoD", 0.5);
        p.record(ApiKind::ApiCall, "cudaMemcpyHtoD", 0.25);
        p.record(ApiKind::GpuActivity, "generatePOAKernel", 1.0);
        let e = p.api_entry("cudaMemcpyHtoD").unwrap();
        assert_eq!(e.calls, 2);
        assert!((e.seconds - 0.75).abs() < 1e-12);
        assert_eq!(p.gpu_entry("generatePOAKernel").unwrap().calls, 1);
    }

    #[test]
    fn report_sorted_descending() {
        let mut p = Profiler::new();
        p.record(ApiKind::ApiCall, "a", 0.1);
        p.record(ApiKind::ApiCall, "b", 0.9);
        p.record(ApiKind::ApiCall, "c", 0.5);
        let names: Vec<String> = p.api_report().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b", "c", "a"]);
    }

    #[test]
    fn totals_are_bit_identical_whatever_order_the_entries_arrived_in() {
        // Forty terms whose sum depends on the order of addition, and two
        // maps that hash (so iterate) differently.
        let entries: Vec<(String, f64)> =
            (1..=40u32).map(|i| (format!("kernel_{i}"), 0.1 * f64::from(i) + 1e-9)).collect();
        let fed = |order: &mut dyn Iterator<Item = &(String, f64)>| {
            let mut p = Profiler::new();
            for (name, seconds) in order {
                p.record(ApiKind::ApiCall, name, *seconds);
                p.record(ApiKind::GpuActivity, name, *seconds / 3.0);
            }
            p
        };
        let (a, b) = (fed(&mut entries.iter()), fed(&mut entries.iter().rev()));
        assert_eq!(a.total_api_seconds().to_bits(), b.total_api_seconds().to_bits());
        assert_eq!(a.total_gpu_seconds().to_bits(), b.total_gpu_seconds().to_bits());
        // The order is the report's: summing it by hand gives the same bits.
        let by_hand: f64 = a.gpu_report().iter().map(|(_, e)| e.seconds).sum();
        assert_eq!(a.total_gpu_seconds().to_bits(), by_hand.to_bits());
    }

    #[test]
    fn stall_analysis_weighted_by_busy_time() {
        let mut p = Profiler::new();
        // A memory-bound kernel (fraction 0.8) that ran 9× longer than a
        // compute-bound one (fraction 0.2).
        p.record_stalls(&KernelTiming {
            total_s: 9.0,
            compute_s: 2.25,
            memory_s: 9.0,
            occupancy: 1.0,
            efficiency: 1.0,
        });
        p.record_stalls(&KernelTiming {
            total_s: 1.0,
            compute_s: 1.0,
            memory_s: 0.25,
            occupancy: 1.0,
            efficiency: 1.0,
        });
        let s = p.stall_analysis();
        assert!(s.memory_dependency > 0.7, "{s:?}");
        let sum = s.memory_dependency + s.execution_dependency + s.other;
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stall_analysis_is_zero() {
        assert_eq!(Profiler::new().stall_analysis(), StallAnalysis::default());
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Profiler::new();
        a.record(ApiKind::ApiCall, "x", 1.0);
        let mut b = Profiler::new();
        b.record(ApiKind::ApiCall, "x", 2.0);
        b.record(ApiKind::GpuActivity, "k", 3.0);
        a.merge(&b);
        assert_eq!(a.api_entry("x").unwrap().calls, 2);
        assert!((a.total_api_seconds() - 3.0).abs() < 1e-12);
        assert!((a.total_gpu_seconds() - 3.0).abs() < 1e-12);
    }
}
