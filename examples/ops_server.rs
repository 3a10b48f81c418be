//! The live operations plane, end to end: run a mixed GPU/CPU workload
//! through the real `QueueEngine`/`install_gyan` stack, boot the embedded
//! introspection server on an ephemeral port, and read every endpoint
//! back over plain HTTP — the curl-able view an operator would scrape.
//!
//! Run with: `cargo run --release --example ops_server`
//!
//! With `--check` the example runs the same flow silently and asserts the
//! acceptance surface (`/metrics` parses through the obs Prometheus
//! parser, `/healthz` is 200, every API document is valid JSON), exiting
//! non-zero on any failure — `scripts/verify.sh` uses this as the
//! ops-server smoke gate.

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{QueueConfig, QueueEngine};
use galaxy::runners::NullExecutor;
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::GpuCluster;
use gyan::allocation::AllocationPolicy;
use gyan::ops::{default_alert_rules, ops_server, DEFAULT_NODE_NAME};
use gyan::setup::{install_gyan, GyanConfig};
use obs::metrics::parse_prometheus;
use obs::serve::http_get;
use obs::slo::AlertEngine;
use std::sync::Arc;

const GPU_TOOL: &str = r#"<tool id="racon_gpu" name="Racon">
  <requirements><requirement type="compute">gpu</requirement></requirements>
  <command>racon_gpu reads</command>
  <outputs><data name="out" format="fasta"/></outputs>
</tool>"#;

const CPU_TOOL: &str = r#"<tool id="echo" name="Echo">
  <command>echo $text</command>
  <inputs><param name="text" type="text" value="tick"/></inputs>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let say = |line: &str| {
        if !check {
            println!("{line}");
        }
    };

    // --- The production stack -------------------------------------------
    let cluster = GpuCluster::k80_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let table = install_gyan(&mut app, &cluster, GyanConfig::default());
    let lib = MacroLibrary::new();
    app.install_tool_xml(GPU_TOOL, &lib).unwrap();
    app.install_tool_xml(CPU_TOOL, &lib).unwrap();
    let recorder = app.recorder().clone();
    let alerts = AlertEngine::new(&recorder);
    for rule in default_alert_rules(&table) {
        alerts.add_rule(rule);
    }

    // --- A mixed GPU/CPU workload ---------------------------------------
    let mut engine = QueueEngine::new(app, Arc::new(NullExecutor), QueueConfig::default());
    for (user, tool) in
        [("alice", "racon_gpu"), ("bob", "echo"), ("alice", "echo"), ("carol", "racon_gpu")]
    {
        engine.submit_async(user, tool, &ParamDict::new()).unwrap();
    }
    engine.run_until_idle();

    // A camper plus redirected probes: a synthetic conflict storm so the
    // alert surface has something to show.
    table
        .allocate_and_lease(&cluster, &[0], AllocationPolicy::ProcessId, 9001, 256, Some(&recorder))
        .expect("camper grant");
    for i in 0..5u64 {
        table
            .allocate_and_lease(
                &cluster,
                &[0],
                AllocationPolicy::ProcessId,
                9100 + i,
                64,
                Some(&recorder),
            )
            .expect("probe grant");
        table.release(9100 + i, "probe_done", Some(&recorder));
        cluster.clock().advance(1.0);
        alerts.evaluate();
    }

    // --- Serve and scrape -----------------------------------------------
    let server =
        ops_server(&recorder, &[(DEFAULT_NODE_NAME, &cluster, &table)], &engine.ledger(), &alerts);
    let handle = server.start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();
    say(&format!("ops server listening on http://{addr}"));

    let get = |path: &str, want: u16| -> String {
        let (status, body) = http_get(addr, path).unwrap_or_else(|e| panic!("GET {path}: {e}"));
        assert_eq!(status, want, "GET {path} returned {status}, want {want}");
        body
    };

    // /healthz must be 200 with a liveness status.
    let health = get("/healthz", 200);
    let doc = obs::json::parse(&health).expect("healthz is JSON");
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));
    say(&format!("\nGET /healthz\n{health}"));

    // /metrics must parse with the crate's own Prometheus parser.
    let scrape = get("/metrics", 200);
    let samples = parse_prometheus(&scrape).expect("scrape parses");
    assert!(
        samples.iter().any(|s| s.name == "galaxy_jobs_submitted_total"),
        "scrape misses the job counters"
    );
    say(&format!("\nGET /metrics — {} samples, first 6:", samples.len()));
    for line in scrape.lines().filter(|l| !l.starts_with('#')).take(6) {
        say(&format!("  {line}"));
    }

    // The API documents must all be valid JSON.
    for path in ["/api/jobs", "/api/gpus", "/api/alerts"] {
        let body = get(path, 200);
        obs::json::parse(&body).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"));
        say(&format!("\nGET {path}\n{body}"));
    }
    let flight = get("/api/flightrec", 200);
    for line in flight.lines() {
        obs::json::parse(line).expect("flight record line parses");
    }
    say(&format!(
        "\nGET /api/flightrec — {} JSONL line(s), header:\n  {}",
        flight.lines().count(),
        flight.lines().next().unwrap_or("")
    ));

    // Unknown paths 404; non-GET methods 405 (not probed here — covered
    // by the obs::serve unit tests).
    get("/api/nope", 404);

    assert!(
        alerts.firing().contains(&"gpu-conflict-rate".to_string()),
        "the conflict storm should leave gpu-conflict-rate firing"
    );
    say("\nalert summary:");
    for line in alerts.summary().lines() {
        say(&format!("  {line}"));
    }

    handle.shutdown();
    if check {
        println!("ops_server --check: all endpoints OK");
    }
}
