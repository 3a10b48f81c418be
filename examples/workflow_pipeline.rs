//! Workflows: run a multi-step analysis pipeline through GYAN — a
//! basecalling step (GPU-mapped Bonito) followed by two rounds of
//! polishing (GPU-mapped Racon), the way Galaxy users chain tools. The
//! chain is a DAG whose steps each wait on the previous one, run by the
//! asynchronous queue engine.
//!
//! Run with: `cargo run --release --example workflow_pipeline`

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::queue::{DagStep, DagWorkflow, QueueConfig, QueueEngine};
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::GpuCluster;
use gyan::setup::{install_gyan, GyanConfig};
use seqtools::{DatasetSpec, ToolExecutor};
use std::sync::Arc;

fn main() {
    let cluster = GpuCluster::k80_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let executor = Arc::new(ToolExecutor::new(&cluster));
    executor.register_dataset(DatasetSpec {
        name: "wf_fast5",
        genome_len: 2_000,
        n_reads: 3,
        read_len: 400,
        ..DatasetSpec::acinetobacter_pittii()
    });
    executor.register_dataset(DatasetSpec {
        name: "wf_pacbio",
        genome_len: 2_500,
        n_reads: 20,
        read_len: 2_000,
        ..DatasetSpec::alzheimers_nfl()
    });
    app.set_executor(Box::new(executor.clone()));
    install_gyan(&mut app, &cluster, GyanConfig::default());

    let lib = MacroLibrary::new();
    app.install_tool_xml(
        r#"<tool id="bonito" name="Bonito">
          <requirements><requirement type="compute">gpu</requirement></requirements>
          <command>bonito basecaller dna_r9.4.1 $dataset > calls.fa</command>
          <inputs><param name="dataset" type="data" value="wf_fast5"/></inputs>
          <outputs><data name="basecalls" format="fasta"/></outputs>
        </tool>"#,
        &lib,
    )
    .unwrap();
    app.install_tool_xml(
        r#"<tool id="racon_round" name="Racon">
          <requirements><requirement type="compute">gpu</requirement></requirements>
          <command>racon_gpu -t 4 $dataset > polished.fa</command>
          <inputs><param name="dataset" type="data" value="wf_pacbio"/></inputs>
          <outputs><data name="consensus" format="fasta"/></outputs>
        </tool>"#,
        &lib,
    )
    .unwrap();

    // A three-step pipeline: each step waits on the one before it.
    // (Polishing rounds both reference the named dataset; in a full
    // deployment the dataset references would be history items, which
    // steps model with `with_input_from` bindings.)
    let wf = DagWorkflow::new("basecall-then-polish")
        .step(DagStep::new("bonito"))
        .step(DagStep::new("racon_round").after(0))
        .step(DagStep::new("racon_round").after(1));

    let mut engine = QueueEngine::new(app, executor, QueueConfig::default());
    let handle = engine.submit_dag("alice", wf.clone()).unwrap();
    engine.run_until_idle();
    let run = engine.workflow_report(handle).unwrap();
    let app = engine.app();
    println!("workflow '{}' -> {}", wf.name, if run.ok() { "ok" } else { "FAILED" });
    for (i, id) in run.job_ids.iter().flatten().enumerate() {
        let job = app.job(*id).unwrap();
        println!(
            "  step {i}: tool {:<12} dest {:<10} gpu={} mask={} runtime {:.0}s",
            job.tool_id,
            job.destination_id.as_deref().unwrap_or("-"),
            job.env_var("GALAXY_GPU_ENABLED").unwrap_or("-"),
            job.env_var("CUDA_VISIBLE_DEVICES").unwrap_or("-"),
            job.runtime().unwrap_or(0.0),
        );
    }
    println!(
        "\nhistory now holds {} datasets; total virtual time {:.0} s",
        app.history().len(),
        cluster.clock().now()
    );
}
