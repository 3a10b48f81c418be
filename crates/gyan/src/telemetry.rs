//! Merged observability export: one Chrome trace combining the Galaxy job
//! spans, the simulator's GPU kernel/DMA timeline, and the hardware usage
//! monitor's samples — all on the cluster's virtual time base, so the
//! output is byte-for-byte deterministic for a given run.
//!
//! Layout of the merged trace:
//!
//! * each Galaxy job span and its phase children share one
//!   `galaxy/job N` track, so phases nest visually inside the job;
//! * GYAN's decision audit events appear as zero-duration markers on
//!   `gyan/decisions`; queue-engine scheduling audits (`galaxy.queue.*`:
//!   enqueue, fair-share picks, dispatches, resubmissions) get their own
//!   `galaxy/queue` track so scheduler activity reads separately from
//!   allocation decisions; reservation lifecycle audits
//!   (`gyan.reservation.*`: acquire, release, conflict) get a
//!   `gyan/reservations` track;
//! * kernel/DMA intervals keep their engine tracks (`gpu0/compute`,
//!   `gpu0/h2d`, …) and are tagged with the owning job id, which places
//!   them — in time — inside the job's span;
//! * monitor samples become counter series on the `usage` track.

use crate::monitor::Sample;
use gpusim::Trace;
use obs::chrome::TraceBuilder;
use obs::{Recorder, Value};
use std::collections::HashMap;

/// The three artifacts one instrumented run exports.
#[derive(Debug, Clone)]
pub struct TelemetryExport {
    /// Span/event log, one JSON object per line.
    pub jsonl: String,
    /// Prometheus text exposition of the metrics registry.
    pub prometheus: String,
    /// The merged Chrome trace document.
    pub chrome_trace: String,
}

/// Export everything a run recorded: the JSONL log, the Prometheus text,
/// and the merged Chrome trace.
pub fn export_run(
    recorder: &Recorder,
    gpu_traces: &[(u64, Trace)],
    samples: &[Sample],
) -> TelemetryExport {
    TelemetryExport {
        jsonl: recorder.to_jsonl(),
        prometheus: recorder.metrics().render_prometheus(),
        chrome_trace: merged_chrome_trace(recorder, gpu_traces, samples).to_json(),
    }
}

/// Merge job spans, audit events, per-job GPU traces, and monitor samples
/// into one [`TraceBuilder`]. `gpu_traces` pairs each job id with the
/// kernel/DMA trace its tool execution produced (e.g. from
/// `ToolExecutor::trace_for_job`).
pub fn merged_chrome_trace(
    recorder: &Recorder,
    gpu_traces: &[(u64, Trace)],
    samples: &[Sample],
) -> TraceBuilder {
    let mut builder = TraceBuilder::new();

    // Job spans and their phases, one track per job. A child span inherits
    // its parent's track (spans() returns open order, so parents precede
    // children).
    let mut track_of: HashMap<u64, String> = HashMap::new();
    for span in recorder.spans() {
        let track = match span.parent.and_then(|p| track_of.get(&p).cloned()) {
            Some(parent_track) => parent_track,
            None => match span.field("job_id").and_then(|v| v.as_f64()) {
                Some(id) => format!("galaxy/job {}", id as u64),
                None => "galaxy".to_string(),
            },
        };
        track_of.insert(span.id, track.clone());
        let dur = span.end.unwrap_or(span.start) - span.start;
        builder.add_complete(span.name, "galaxy", track, span.start, dur, span.fields);
    }

    // Decision audits as zero-duration markers. Queue-engine scheduling
    // events and reservation lifecycle events land on their own tracks so
    // a trace of a DAG run shows the scheduler's picks and the lease
    // acquire/release/conflict churn as separate lanes.
    for event in recorder.events() {
        let track = if event.name.starts_with("galaxy.queue") {
            "galaxy/queue"
        } else if event.name.starts_with("gyan.reservation") {
            "gyan/reservations"
        } else if event.name.starts_with("obs.alert") {
            "obs/alerts"
        } else if event.name.starts_with("footprint.") {
            "gyan/footprint"
        } else {
            "gyan/decisions"
        };
        builder.add_complete(event.name, "audit", track, event.t, 0.0, event.fields);
    }

    // Kernel/DMA intervals on their engine tracks, tagged with the job.
    for (job_id, trace) in gpu_traces {
        for ev in trace.events() {
            let args = vec![("job_id".into(), Value::from(*job_id))];
            builder.add_complete(
                ev.name.clone(),
                ev.category,
                ev.track.clone(),
                ev.start_s,
                ev.dur_s,
                args,
            );
        }
    }

    // Monitor samples as counters.
    for sample in samples {
        for dev in &sample.devices {
            builder.add_counter(
                format!("gpu{} sm_util", dev.minor),
                "usage",
                sample.t,
                vec![("percent".to_string(), dev.sm_util)],
            );
            builder.add_counter(
                format!("gpu{} fb_used_mib", dev.minor),
                "usage",
                sample.t,
                vec![("mib".to_string(), dev.fb_used_mib as f64)],
            );
        }
    }

    builder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::DeviceSample;

    fn sample(t: f64, sm: f64, mib: u64) -> Sample {
        Sample {
            t,
            devices: vec![DeviceSample {
                minor: 0,
                sm_util: sm,
                mem_util: sm / 2.0,
                fb_used_mib: mib,
                pcie_gen: 3,
            }],
        }
    }

    fn recorder_with_job() -> Recorder {
        let rec = Recorder::new();
        let t = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let tc = t.clone();
        rec.set_clock(move || tc.load(std::sync::atomic::Ordering::SeqCst) as f64);
        let job = rec.span("galaxy.job");
        job.field("job_id", 1u64);
        let phase = job.child("galaxy.dispatch");
        rec.event("gyan.allocation.decision", [("reason", "requested_free")]);
        t.store(5, std::sync::atomic::Ordering::SeqCst);
        phase.end();
        job.end();
        rec
    }

    #[test]
    fn phases_share_the_job_track_and_kernels_keep_theirs() {
        let rec = recorder_with_job();
        let mut trace = Trace::new();
        trace.record("poa_kernel", "kernel", "gpu0/compute", 1.0, 2.0);

        let merged = merged_chrome_trace(&rec, &[(1, trace)], &[sample(1.0, 80.0, 500)]);
        let tracks = merged.tracks();
        assert!(tracks.contains(&"galaxy/job 1".to_string()));
        assert!(tracks.contains(&"gyan/decisions".to_string()));
        assert!(tracks.contains(&"gpu0/compute".to_string()));
        assert!(tracks.contains(&"usage".to_string()));

        let on_job_track: Vec<&str> = merged
            .complete_events()
            .iter()
            .filter(|e| e.track == "galaxy/job 1")
            .map(|e| &*e.name)
            .collect();
        assert_eq!(on_job_track, vec!["galaxy.job", "galaxy.dispatch"]);

        // The kernel interval falls inside the job span (enclosure).
        let job = merged.complete_events().iter().find(|e| e.name == "galaxy.job").unwrap();
        let kernel = merged.complete_events().iter().find(|e| e.name == "poa_kernel").unwrap();
        assert!(job.start_s <= kernel.start_s);
        assert!(kernel.start_s + kernel.dur_s <= job.start_s + job.dur_s);
    }

    #[test]
    fn queue_events_route_to_their_own_track() {
        let rec = Recorder::new();
        rec.event("gyan.allocation.decision", [("reason", "requested_free")]);
        rec.event("galaxy.queue.dispatch", [("job_id", 1u64)]);
        rec.event("galaxy.queue.resubmit", [("job_id", 1u64)]);
        rec.event("gyan.reservation.acquire", [("job_id", 1u64)]);
        rec.event("gyan.reservation.conflict", [("job_id", 2u64)]);
        rec.event("obs.alert.transition", [("rule", "gpu-conflict-rate")]);
        rec.event("footprint.estimate", [("job_id", 1u64)]);

        let merged = merged_chrome_trace(&rec, &[], &[]);
        let track_for = |name: &str| {
            merged
                .complete_events()
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.track.clone())
                .unwrap()
        };
        assert_eq!(track_for("gyan.allocation.decision"), "gyan/decisions");
        assert_eq!(track_for("galaxy.queue.dispatch"), "galaxy/queue");
        assert_eq!(track_for("galaxy.queue.resubmit"), "galaxy/queue");
        assert_eq!(track_for("gyan.reservation.acquire"), "gyan/reservations");
        assert_eq!(track_for("gyan.reservation.conflict"), "gyan/reservations");
        assert_eq!(track_for("obs.alert.transition"), "obs/alerts");
        assert_eq!(track_for("footprint.estimate"), "gyan/footprint");
    }

    #[test]
    fn export_is_deterministic() {
        let make = || {
            let rec = recorder_with_job();
            let mut trace = Trace::new();
            trace.record("dma", "h2d", "gpu0/h2d", 0.5, 0.25);
            let export = export_run(&rec, &[(1, trace)], &[sample(1.0, 50.0, 100)]);
            (export.jsonl, export.prometheus, export.chrome_trace)
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn chrome_document_parses() {
        let rec = recorder_with_job();
        let export = export_run(&rec, &[], &[sample(2.0, 10.0, 63)]);
        let doc = obs::json::parse(&export.chrome_trace).expect("chrome trace parses");
        assert!(doc.get("traceEvents").and_then(|v| v.as_array()).is_some());
        for line in export.jsonl.lines() {
            obs::json::parse(line).expect("jsonl line parses");
        }
    }
}
