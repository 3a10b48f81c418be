//! Execution-trace integration: a batched GPU Racon job produces a
//! Chrome-format timeline whose copy and compute tracks genuinely
//! overlap (the cudapoa pipelining), retrievable per job from the
//! executor.

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::{GpuCluster, Trace, TraceEvent};
use gyan::setup::{install_gyan, GyanConfig};
use obs::Recorder;
use seqtools::{DatasetSpec, ToolExecutor};
use std::sync::Arc;

const RACON: &str = r#"<tool id="racon_gpu">
  <requirements><requirement type="compute">gpu</requirement></requirements>
  <command>racon_gpu -t 2 --cudapoa-batches $batches trace_racon > out</command>
  <inputs><param name="batches" type="integer" value="4"/></inputs>
</tool>"#;

/// End of an interval.
fn end_s(e: &TraceEvent) -> f64 {
    e.start_s + e.dur_s
}

/// Events on one track, sorted by start time.
fn track<'a>(trace: &'a Trace, name: &str) -> Vec<&'a TraceEvent> {
    let mut events: Vec<&TraceEvent> = trace.events().iter().filter(|e| e.track == name).collect();
    events.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    events
}

/// Do any two events on the two tracks overlap? (The signature of
/// copy/compute pipelining.)
fn has_cross_track_overlap(trace: &Trace, track_a: &str, track_b: &str) -> bool {
    let b = track(trace, track_b);
    track(trace, track_a)
        .iter()
        .any(|ea| b.iter().any(|eb| ea.start_s < end_s(eb) && eb.start_s < end_s(ea)))
}

#[test]
fn cross_track_overlap() {
    let mut t = Trace::new();
    t.record("k", "kernel", "gpu0/compute", 1.0, 2.0);
    t.record("c", "h2d", "gpu0/h2d", 2.0, 2.0);
    assert!(has_cross_track_overlap(&t, "gpu0/compute", "gpu0/h2d"));
    assert!(!has_cross_track_overlap(&t, "gpu0/compute", "gpu1/h2d"));
}

fn run_job(batches: u32) -> (Arc<ToolExecutor>, u64) {
    let cluster = GpuCluster::k80_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let executor = Arc::new(ToolExecutor::new(&cluster));
    executor.register_dataset(DatasetSpec {
        name: "trace_racon",
        genome_len: 2_500,
        n_reads: 20,
        read_len: 2_000,
        ..DatasetSpec::alzheimers_nfl()
    });
    app.set_executor(Box::new(executor.clone()));
    install_gyan(&mut app, &cluster, GyanConfig::default());
    app.install_tool_xml(RACON, &MacroLibrary::new()).unwrap();
    let mut params = ParamDict::new();
    params.set("batches", batches.to_string());
    let id = app.submit("racon_gpu", &params).unwrap();
    (executor, id)
}

#[test]
fn batched_job_trace_shows_copy_compute_overlap() {
    let (executor, id) = run_job(4);
    let trace = executor.trace_for_job(id).expect("GPU job recorded a trace");
    // One H2D + two kernels + one D2H per batch; requesting 4 batches on
    // a handful of windows yields at least 2 and at most 4 actual batches
    // (windows are chunked evenly).
    let batches = track(&trace, "gpu0/h2d").len();
    assert!((2..=4).contains(&batches), "batches = {batches}");
    assert_eq!(track(&trace, "gpu0/compute").len(), 2 * batches);
    assert_eq!(track(&trace, "gpu0/d2h").len(), batches);
    // Pipelining: a later batch's H2D overlaps an earlier batch's kernel.
    assert!(
        has_cross_track_overlap(&trace, "gpu0/h2d", "gpu0/compute"),
        "expected copy/compute overlap in\n{:?}",
        trace.events()
    );
    // Within each engine, intervals are serial.
    for name in ["gpu0/h2d", "gpu0/compute", "gpu0/d2h"] {
        let events = track(&trace, name);
        for pair in events.windows(2) {
            assert!(end_s(pair[0]) <= pair[1].start_s + 1e-9, "{name}: {pair:?}");
        }
    }
    // The Chrome export loads as one JSON object.
    let json = gyan::merged_chrome_trace(&Recorder::new(), &[(id, trace)], &[]).to_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("generatePOAKernel"));
}

#[test]
fn single_batch_trace_is_serial() {
    let (executor, id) = run_job(1);
    let trace = executor.trace_for_job(id).expect("trace recorded");
    assert_eq!(track(&trace, "gpu0/h2d").len(), 1);
    // One batch: the kernel strictly follows its input copy.
    let h2d = &track(&trace, "gpu0/h2d")[0].clone();
    let kernel = &track(&trace, "gpu0/compute")[0].clone();
    assert!(kernel.start_s >= end_s(h2d) - 1e-9);
}
