//! Criterion microbenchmark of the text path of GYAN's Pseudocode 1:
//! what a deployment shelling out to `nvidia-smi -q -x` pays per poll.
//! (Tool-wrapper and SMI parse/emit costs, and the structured
//! observation allocation decisions are made from, are measured by the
//! canonical benchmark's `xmlparse.*`, `gpusim.smi_render_us` and
//! `gyan.gpu_usage_us`.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpusim::{smi, GpuCluster, GpuProcess};
use gyan::gpu_usage::parse_gpu_usage;

fn busy_cluster() -> GpuCluster {
    let cluster = GpuCluster::k80_node();
    for (minor, pid) in [(0u32, 39953u32), (0, 41105), (1, 40534), (1, 41872)] {
        cluster.attach_process(minor, GpuProcess::compute(pid, "/usr/bin/racon_gpu", 60)).unwrap();
    }
    cluster
}

fn bench_smi_query(c: &mut Criterion) {
    let cluster = busy_cluster();
    let mut group = c.benchmark_group("nvidia_smi");
    group.throughput(Throughput::Bytes(smi::query_xml(&cluster).len() as u64));
    // Emit + parse + build the proc_gpu_dict.
    group.bench_function("parse_gpu_usage_of_query_xml", |b| {
        b.iter(|| parse_gpu_usage(&smi::query_xml(&cluster)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_smi_query);
criterion_main!(benches);
