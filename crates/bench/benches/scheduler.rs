//! Criterion microbenchmarks of GYAN's orchestration overhead: the
//! dynamic destination rule vs a static mapping (DESIGN.md ablation #5).
//! The paper claims GYAN "does not introduce any extra overhead"; this
//! bench quantifies the rule's actual cost. (The allocation decision and
//! the SMI observation under it are the canonical benchmark's
//! `gyan.decision_us` / `gyan.gpu_usage_us` and `gates scheduler`'s
//! `decisions_per_sec`.)

use criterion::{criterion_group, criterion_main, Criterion};
use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::tool::macros::MacroLibrary;
use galaxy::tool::wrapper::parse_tool;
use galaxy::GalaxyApp;
use gpusim::{GpuCluster, GpuProcess};
use gyan::rules::GpuDestinationRule;

const GPU_TOOL: &str = r#"<tool id="racon_gpu"><requirements>
  <requirement type="compute">gpu</requirement>
</requirements><command>racon_gpu</command></tool>"#;

fn bench_dynamic_rule(c: &mut Criterion) {
    let cluster = GpuCluster::k80_node();
    cluster.attach_process(0, GpuProcess::compute(1, "t", 60)).unwrap();
    let tool = parse_tool(GPU_TOOL, &MacroLibrary::new()).unwrap();
    let config = JobConfig::from_xml(GYAN_JOB_CONF).unwrap();
    let job = galaxy::job::Job::new(1, "racon_gpu", ParamDict::new());
    let rule = GpuDestinationRule::new(&cluster, "local_gpu", "local_cpu");

    let mut group = c.benchmark_group("scheduler");
    group.bench_function("gyan_dynamic_rule", |b| {
        b.iter(|| rule.decide(&tool, &job, &config).unwrap())
    });
    group.bench_function("static_lookup_baseline", |b| {
        b.iter(|| config.destination_for_tool("racon_gpu").unwrap())
    });
    group.finish();
}

fn bench_full_mapping_pipeline(c: &mut Criterion) {
    // The complete per-job orchestration: destination resolution through
    // a registered rule inside a GalaxyApp.
    let cluster = GpuCluster::k80_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    app.register_rule(
        "gpu_dynamic_destination",
        GpuDestinationRule::new(&cluster, "local_gpu", "local_cpu").into_rule(),
    );
    let tool = parse_tool(GPU_TOOL, &MacroLibrary::new()).unwrap();
    let job = galaxy::job::Job::new(1, "racon_gpu", ParamDict::new());

    let mut group = c.benchmark_group("scheduler");
    group.bench_function("app_map_destination", |b| {
        b.iter(|| app.map_destination(&tool, &job).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_dynamic_rule, bench_full_mapping_pipeline);
criterion_main!(benches);
