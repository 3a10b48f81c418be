//! Per-layer probes of the traced run: direct, repeated calls into one
//! layer's public function against a fresh node (and fleet) of the
//! workload's shape, before the first repeat churns the heap. They give
//! each layer a unit cost that the in-run counts (`*_per_job`) can be
//! multiplied with.

use crate::common::{mix_seed, ProbeTargets};
use crate::queue_day::{GPU_TOOL, LOG_RETENTION};
use galaxy::job::conf::GYAN_JOB_CONF;
use galaxy::params::ParamDict;
use galaxy::runners::local::LocalRunner;
use galaxy::tool::macros::MacroLibrary;
use galaxy::tool::wrapper::parse_tool;
use galaxy::Job;
use gpusim::smi;
use gyan::allocation::AllocationPolicy;
use gyan::LeaseTable;
use obs::Recorder;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median µs per call of `f`: at least 25 calls, then as many as fit a
/// 30 ms box (at most 2000).
fn median_us(mut f: impl FnMut()) -> f64 {
    f();
    let deadline = Instant::now() + Duration::from_millis(30);
    let mut samples = Vec::new();
    while samples.len() < 25 || (samples.len() < 2_000 && Instant::now() < deadline) {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::percentile(&mut samples, 0.5)
}

/// Probe the layers against a node of the workload's shape and, on the
/// fleet workload, against its fleet.
pub fn run(targets: &ProbeTargets, seed: u64) -> Vec<(&'static str, f64)> {
    let ProbeTargets { cluster, fleet } = targets;
    let mut out = Vec::new();

    let smi_xml = smi::query_xml(cluster);
    out.push(("xmlparse.parse_smi_us", median_us(|| drop(black_box(xmlparse::parse(&smi_xml))))));
    out.push(("xmlparse.parse_tool_us", median_us(|| drop(black_box(xmlparse::parse(GPU_TOOL))))));
    out.push((
        "xmlparse.parse_job_conf_us",
        median_us(|| drop(black_box(xmlparse::parse(GYAN_JOB_CONF)))),
    ));
    out.push(("gpusim.smi_render_us", median_us(|| drop(black_box(smi::query_xml(cluster))))));
    out.push(("gyan.gpu_usage_us", median_us(|| drop(black_box(gyan::get_gpu_usage(cluster))))));

    // One allocation decision + release, against live leases whose number
    // and holders come from the seed — as the hook pays it, audits and all.
    let recorder = Recorder::new();
    recorder.set_log_retention(Some(LOG_RETENTION / 10));
    let table = LeaseTable::new();
    let preload = 1 + mix_seed(seed, 20) % u64::from(cluster.device_count().max(2) / 2);
    for holder in 1..=preload {
        table.allocate_and_lease(cluster, &[], AllocationPolicy::ProcessId, holder, 1_024, None);
    }
    let probe_holder = preload + 1;
    out.push((
        "gyan.decision_us",
        median_us(|| {
            black_box(table.allocate_and_lease(
                cluster,
                &[],
                AllocationPolicy::ProcessId,
                probe_holder,
                1_024,
                Some(&recorder),
            ));
            table.release(probe_holder, "probe", Some(&recorder));
        }),
    ));

    if let Some(fleet) = fleet {
        let request = |job_id: u64, memory_hint_mib: u64| fleet::PlacementRequest {
            job_id,
            user: "probe",
            tool_id: "load_gpu",
            requested: &[],
            memory_hint_mib,
            excluded_nodes: &[],
        };
        let mut place_us = Vec::new();
        let mut release_us = Vec::new();
        for i in 0..200u64 {
            let job_id = u64::MAX - i;
            let start = Instant::now();
            let placed = black_box(fleet.place(&request(job_id, 1_024)));
            place_us.push(start.elapsed().as_secs_f64() * 1e6);
            assert!(placed.is_some(), "an idle fleet hosts a 1 GiB job");
            let start = Instant::now();
            fleet.release(job_id, "probe");
            release_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        out.push(("fleet.place_us", crate::stats::percentile(&mut place_us, 0.5)));
        out.push(("fleet.release_us", crate::stats::percentile(&mut release_us, 0.5)));
        // A hint no die can hold: every shard is scanned, none admits.
        out.push((
            "fleet.reject_us",
            median_us(|| drop(black_box(fleet.place(&request(u64::MAX, u64::MAX))))),
        ));
    }

    let tool = parse_tool(GPU_TOOL, &MacroLibrary::new()).expect("load tool parses");
    let mut params = ParamDict::new();
    params.set("__galaxy_gpu_enabled__", "true");
    let job = Job::new(1, "load_gpu", params);
    out.push((
        "galaxy.template_render_us",
        median_us(|| drop(black_box(LocalRunner.render_command(&tool, &job)))),
    ));

    out.push(("obs.span_record_us", median_us(|| recorder.span("probe.span").end())));
    out
}
