//! Ablation: Process-ID vs Process-Allocated-Memory device allocation
//! (DESIGN.md ablation #1, the paper's Case 3 vs Case 4 argument).
//!
//! Benchmarks the decision cost of each policy across cluster load
//! states. (The placements themselves — the memory policy not scattering
//! Case 4's second Bonito — are `gates paper`'s `case4_*` rows.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpusim::{GpuCluster, GpuProcess};
use gyan::{select_gpus, AllocationPolicy};

fn cluster_with_load(per_device: &[u64]) -> GpuCluster {
    let cluster = GpuCluster::k80_node();
    let mut pid = 50_000;
    for (minor, &mib) in per_device.iter().enumerate() {
        if mib > 0 {
            pid += 1;
            cluster.attach_process(minor as u32, GpuProcess::compute(pid, "tool", mib)).unwrap();
        }
    }
    cluster
}

fn bench_policies(c: &mut Criterion) {
    let scenarios: [(&str, Vec<u64>); 3] =
        [("idle", vec![0, 0]), ("half", vec![60, 0]), ("full", vec![60, 2700])];
    let mut group = c.benchmark_group("allocation_policy");
    for (name, load) in &scenarios {
        let cluster = cluster_with_load(load);
        group.bench_with_input(BenchmarkId::new("pid", name), name, |b, _| {
            b.iter(|| select_gpus(&cluster, &[1], AllocationPolicy::ProcessId))
        });
        group.bench_with_input(BenchmarkId::new("memory", name), name, |b, _| {
            b.iter(|| select_gpus(&cluster, &[1], AllocationPolicy::MemoryBased))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
