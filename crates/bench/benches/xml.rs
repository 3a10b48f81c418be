//! Criterion microbenchmarks of the XML substrate: parsing tool wrappers
//! and nvidia-smi query documents (the text path of GYAN's Pseudocode 1),
//! beside the structured observation allocation decisions are made from.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpusim::{smi, GpuCluster, GpuProcess};
use gyan::gpu_usage::{get_gpu_usage, parse_gpu_usage};
use xmlparse::parse;

const RACON_WRAPPER: &str = r#"<tool id="racon_gpu" name="Racon" version="1.4.3">
  <requirements>
    <requirement type="package" version="1.4.3">racon</requirement>
    <requirement type="compute">gpu</requirement>
    <container type="docker">gulsumgudukbay/racon_dockerfile</container>
  </requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
racon_gpu -t $threads --cudapoa-batches $batches $reads $overlaps $target > $consensus
#else
racon -t $threads $reads $overlaps $target > $consensus
#end if
]]></command>
  <inputs>
    <param name="reads" type="data"/>
    <param name="overlaps" type="data"/>
    <param name="target" type="data"/>
    <param name="threads" type="integer" value="4"/>
    <param name="batches" type="integer" value="1"/>
  </inputs>
  <outputs><data name="consensus" format="fasta"/></outputs>
</tool>"#;

fn busy_cluster() -> GpuCluster {
    let cluster = GpuCluster::k80_node();
    for (minor, pid) in [(0u32, 39953u32), (0, 41105), (1, 40534), (1, 41872)] {
        cluster.attach_process(minor, GpuProcess::compute(pid, "/usr/bin/racon_gpu", 60)).unwrap();
    }
    cluster
}

fn bench_parse_wrapper(c: &mut Criterion) {
    let mut group = c.benchmark_group("xml");
    group.throughput(Throughput::Bytes(RACON_WRAPPER.len() as u64));
    group.bench_function("parse_tool_wrapper", |b| b.iter(|| parse(RACON_WRAPPER).unwrap()));
    group.finish();
}

fn bench_smi_query(c: &mut Criterion) {
    let cluster = busy_cluster();
    let xml = smi::query_xml(&cluster);
    let mut group = c.benchmark_group("nvidia_smi");
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function("emit_query_xml", |b| b.iter(|| smi::query_xml(&cluster)));
    group.bench_function("parse_query_xml", |b| b.iter(|| parse(&xml).unwrap()));
    // The whole Pseudocode-1 text path: emit + parse + build the
    // proc_gpu_dict — what a deployment shelling out to nvidia-smi pays.
    group.bench_function("parse_gpu_usage_of_query_xml", |b| {
        b.iter(|| parse_gpu_usage(&smi::query_xml(&cluster)).unwrap())
    });
    group.finish();
    // What every GYAN allocation decision pays instead: the same rows,
    // read structured (no bytes, so no throughput).
    let mut group = c.benchmark_group("nvidia_smi");
    group.bench_function("get_gpu_usage_structured", |b| b.iter(|| get_gpu_usage(&cluster)));
    group.finish();
}

criterion_group!(benches, bench_parse_wrapper, bench_smi_query);
criterion_main!(benches);
