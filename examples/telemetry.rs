//! One instrumented GYAN run, three telemetry artifacts: the span/event
//! log as JSONL, the metrics registry as Prometheus text, and the merged
//! Chrome trace (job spans + decision audits + GPU kernel/DMA intervals +
//! usage-monitor counters) ready for `chrome://tracing` / Perfetto.
//!
//! Everything is timestamped from the cluster's virtual clock, so the
//! output of this example is deterministic run to run.
//!
//! Run with: `cargo run --release --example telemetry`

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::GpuCluster;
use gyan::setup::{install_gyan, GyanConfig};
use gyan::UsageMonitor;
use seqtools::{DatasetSpec, ToolExecutor};
use std::sync::Arc;

const GPU_TOOL: &str = r#"<tool id="racon_gpu" name="Racon">
  <requirements><requirement type="compute">gpu</requirement></requirements>
  <command>racon_gpu -t 2 telemetry_reads > consensus.fa</command>
</tool>"#;

const CPU_TOOL: &str =
    r#"<tool id="count_reads" name="count"><command>echo counted > out</command></tool>"#;

fn main() {
    let cluster = GpuCluster::k80_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let executor = Arc::new(ToolExecutor::new(&cluster));
    executor.register_dataset(DatasetSpec {
        name: "telemetry_reads",
        genome_len: 1_500,
        n_reads: 10,
        read_len: 1_200,
        ..DatasetSpec::alzheimers_nfl()
    });
    app.set_executor(Box::new(executor.clone()));
    install_gyan(&mut app, &cluster, GyanConfig::default());
    let lib = MacroLibrary::new();
    app.install_tool_xml(GPU_TOOL, &lib).unwrap();
    app.install_tool_xml(CPU_TOOL, &lib).unwrap();

    // One GPU job and one CPU job, sampled by the usage monitor.
    let monitor = UsageMonitor::start(&cluster);
    let gpu_job = app.submit("racon_gpu", &ParamDict::new()).unwrap();
    let cpu_job = app.submit("count_reads", &ParamDict::new()).unwrap();
    let samples = monitor.stop();

    let gpu_traces: Vec<_> = [gpu_job, cpu_job]
        .iter()
        .filter_map(|&id| Some((id, executor.trace_for_job(id)?)))
        .collect();
    let export = gyan::export_run(app.recorder(), &gpu_traces, &samples);

    println!("=== span/event log (JSONL, first 12 lines) ===");
    for line in export.jsonl.lines().take(12) {
        println!("{line}");
    }
    println!("... {} lines total\n", export.jsonl.lines().count());

    println!("=== Prometheus exposition ===");
    print!("{}", export.prometheus);

    let doc = obs::json::parse(&export.chrome_trace).expect("trace parses");
    let n_events = doc.get("traceEvents").and_then(|v| v.as_array()).map_or(0, |a| a.len());
    println!("\n=== merged Chrome trace ===");
    println!(
        "{n_events} events, {} bytes — save to a file and load in Perfetto:",
        export.chrome_trace.len()
    );
    for event in app.recorder().events_named("gyan.rule.decision") {
        // `memory_hint_mib` is recorded for GPU tools only.
        let hint = event.field("memory_hint_mib").and_then(|v| v.as_f64());
        println!(
            "  rule decision: job {} {} -> {} ({}{})",
            event.field("job_id").and_then(|v| v.as_f64()).unwrap_or(-1.0),
            event.field("tool").and_then(|v| v.as_str()).unwrap_or("?"),
            event.field("destination").and_then(|v| v.as_str()).unwrap_or("?"),
            event.field("reason").and_then(|v| v.as_str()).unwrap_or("?"),
            hint.map(|mib| format!(", hint {mib} MiB")).unwrap_or_default(),
        );
    }
}
