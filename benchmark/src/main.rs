//! The repository's benchmark: one command runs one named workload from
//! a seed, checks its outputs, and prints every metric by name and unit.
//!
//! ```text
//! gyan-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats the workload until `--seconds` have passed, at least
//! three times (`trip`: five); each repeat rebuilds the stack from
//! scratch. Wall-clock metrics are computed over each timed segment's
//! fastest repeat (see `quietest_segments`; the median, min and max over
//! the repeats are printed beside them), `setup_s` is the median of the
//! repeats' set-ups, virtual-time metrics are exact. `--trace 0`
//! prints the end-to-end metrics, measured with tracing off. `--trace 1`
//! prints the per-layer metrics: repeats alternate between untraced (the
//! overhead baseline) and traced, with benchmark-side spans around every
//! call into a layer and the program's `obs::profile` scopes switched on;
//! the last traced repeat's spans go to
//! `benchmark/out/<workload>.trace.json`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed correctness
//! check prints the reason to standard error and exits non-zero without
//! a result. README.md explains the workloads and the metrics.

mod common;
mod paper_cases;
mod probes;
mod profile;
mod queue_day;
mod stats;
mod trace;
mod trip;

use common::{check, CheckFailed, ProbeTargets, Repeat};
use profile::ScopeTable;
use queue_day::Day;
use stats::{median, summarize};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{layer_of, Tracer};

const WORKLOADS: &[&str] = &["trip", "day_single_node", "day_fleet", "retry_storm", "paper_cases"];

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("trip_p50_us", "us"),
    ("trip_p99_us", "us"),
    ("slowdown_p50", "x"),
    ("slowdown_p99", "x"),
    ("turnaround_p99_vs", "vs"),
    ("makespan_vs", "vs"),
    ("gpu_served_pct", "%"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. A layer that does no
/// work on a workload reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("xmlparse.parse_smi_us", "us"),
    ("xmlparse.parse_tool_us", "us"),
    ("xmlparse.parse_job_conf_us", "us"),
    ("gpusim.smi_render_us", "us"),
    ("gpusim.smi_queries_per_job", "count"),
    ("gyan.gpu_usage_us", "us"),
    ("gyan.decision_us", "us"),
    ("gyan.decisions_per_job", "count"),
    ("gyan.lease_conflicts_per_k", "count"),
    ("gyan.cases_covered", "count"),
    ("fleet.place_us", "us"),
    ("fleet.reject_us", "us"),
    ("fleet.release_us", "us"),
    ("fleet.placements_per_job", "count"),
    ("galaxy.create_job_us", "us"),
    ("galaxy.prepare_plan_us", "us"),
    ("galaxy.execute_us", "us"),
    ("galaxy.finish_job_us", "us"),
    ("galaxy.template_render_us", "us"),
    ("galaxy.trip_drift_ratio", "x"),
    ("galaxy.submit_us", "us"),
    ("galaxy.pump_wave_p50_us", "us"),
    ("galaxy.pump_wave_p99_us", "us"),
    ("galaxy.jobs_per_wave", "count"),
    ("galaxy.peak_queue_depth", "count"),
    ("galaxy.attempts_per_job", "count"),
    ("galaxy.resubmits", "count"),
    ("galaxy.queue_wait_p50_vs", "vs"),
    ("galaxy.queue_wait_p99_vs", "vs"),
    ("obs.alerts_evaluate_us", "us"),
    ("obs.span_record_us", "us"),
    ("obs.metrics_render_us", "us"),
    ("obs.dropped_records", "count"),
    ("loadgen.generate_s", "s"),
    ("simtest.invariants_us", "us"),
    ("seqtools.racon_execute_s", "s"),
    ("seqtools.bonito_execute_s", "s"),
    ("seqtools.execute_share_pct", "%"),
    ("driver.submit_late_p99_vs", "vs"),
    ("driver.self_s", "s"),
    ("trace.attributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false };
    let mut seen = [false; 4];
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}; one of {WORKLOADS:?}"));
                }
                args.workload = value;
                seen[0] = true;
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("a whole number"))?;
                seen[1] = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                seen[2] = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                seen[3] = true;
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if seen.contains(&false) {
        return Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>".to_string());
    }
    Ok(args)
}

/// An idle node (and fleet) of the workload's shape for the probes: both
/// closed loops run on the paper's 2×K80 node.
fn probe_targets(workload: &str) -> ProbeTargets {
    match workload {
        "day_single_node" => queue_day::probe_targets(Day::SingleNode),
        "day_fleet" => queue_day::probe_targets(Day::Fleet),
        "retry_storm" => queue_day::probe_targets(Day::RetryStorm),
        _ => ProbeTargets { cluster: gpusim::GpuCluster::k80_node(), fleet: None },
    }
}

fn run_repeat(
    workload: &str,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Repeat, ScopeTable), CheckFailed> {
    match workload {
        "trip" => trip::repeat(seed, tracer),
        "day_single_node" => queue_day::repeat(Day::SingleNode, seed, tracer),
        "day_fleet" => queue_day::repeat(Day::Fleet, seed, tracer),
        "retry_storm" => queue_day::repeat(Day::RetryStorm, seed, tracer),
        "paper_cases" => paper_cases::repeat(seed, tracer),
        other => unreachable!("workload {other} was validated"),
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Self time per layer of one traced repeat: benchmark spans by name
/// prefix, with the time inside the program's own profile scopes moved
/// from the enclosing `galaxy` span to the layer each scope names.
fn layer_self_s(tracer: &Tracer, scopes: &ScopeTable) -> BTreeMap<String, f64> {
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    for (name, stats) in tracer.by_name() {
        *layers.entry(layer_of(name).to_string()).or_insert(0.0) += stats.self_ns as f64 / 1e9;
    }
    *layers.entry("galaxy".to_string()).or_insert(0.0) -= scopes.root_total_s();
    for (layer, self_s) in scopes.self_by_layer() {
        *layers.entry(layer).or_insert(0.0) += self_s;
    }
    layers
}

/// Each segment's fastest repeat. Every repeat of a seed does the same
/// work segment by segment, while the machine's noise — a stolen core, a
/// neighbour's cache traffic — only ever slows a segment down and rarely
/// hits the same one in every repeat; so the per-segment minimum keeps
/// what the program costs (its own slow trips included: they recur in
/// every repeat) and drops what the machine added. README.md has the
/// study that chose it over the median of the repeats.
fn quietest_segments(repeats: &[Repeat]) -> Result<Vec<(f64, u64)>, CheckFailed> {
    let mut quiet = repeats[0].segments.clone();
    for r in &repeats[1..] {
        let same_work = r.segments.len() == quiet.len()
            && r.segments.iter().zip(&quiet).all(|(a, b)| a.1 == b.1);
        check(same_work, || "repeats of one seed cut the timed section differently".to_string())?;
        for (q, s) in quiet.iter_mut().zip(&r.segments) {
            q.0 = q.0.min(s.0);
        }
    }
    Ok(quiet)
}

/// Jobs per second over `segments`, which carry `jobs` jobs in all.
fn jobs_per_s(jobs: u64, segments: &[(f64, u64)]) -> f64 {
    jobs as f64 * 1e6 / segments.iter().map(|s| s.0).sum::<f64>()
}

/// Percentile of wall µs per job, each segment counted once per job it
/// carried.
fn per_job_percentile(segments: &[(f64, u64)], q: f64) -> f64 {
    let mut per_job: Vec<(f64, u64)> =
        segments.iter().map(|(us, jobs)| (us / (*jobs).max(1) as f64, *jobs)).collect();
    stats::weighted_percentile(&mut per_job, q)
}

/// Every repeat of one run, and the spans and scope table of the last
/// traced one for the trace file.
struct Measured {
    untraced: Vec<Repeat>,
    traced: Vec<Repeat>,
    last_traced: Option<(Tracer, ScopeTable)>,
    /// Taken before the first repeat (traced runs only).
    probes: Vec<(&'static str, f64)>,
}

fn measure(args: &Args) -> Result<Measured, CheckFailed> {
    let started = Instant::now();
    let min_repeats = if args.workload == "trip" { 5 } else { 3 };
    let probes = if args.trace {
        probes::run(&probe_targets(&args.workload), args.seed)
    } else {
        Vec::new()
    };
    let mut m = Measured { untraced: Vec::new(), traced: Vec::new(), last_traced: None, probes };
    loop {
        let done = m.untraced.len() + m.traced.len();
        let elapsed_s = started.elapsed().as_secs_f64();
        // Stop at the repeat count whose total lies nearest `--seconds`. A
        // traced run compares as many traced repeats as untraced ones.
        if done >= min_repeats
            && (!args.trace || m.untraced.len() == m.traced.len())
            && elapsed_s + elapsed_s / done as f64 / 2.0 >= args.seconds
        {
            break;
        }
        let trace_this = args.trace && m.untraced.len() > m.traced.len();
        let mut tracer = Tracer::new(trace_this);
        let (mut repeat, scopes) = run_repeat(&args.workload, args.seed, &mut tracer)?;
        if trace_this {
            let driver_self_s =
                layer_self_s(&tracer, &scopes).get("driver").copied().unwrap_or(0.0);
            repeat.layer.extend([
                ("driver.self_s", driver_self_s),
                ("trace.attributed_pct", 100.0 * (1.0 - driver_self_s / repeat.wall_s)),
            ]);
            m.traced.push(repeat);
            m.last_traced = Some((tracer, scopes));
        } else {
            m.untraced.push(repeat);
        }
    }

    // The free determinism oracle: virtual-time results depend on the
    // seed alone, so every repeat must reproduce them bit for bit.
    let first = &m.untraced[0];
    for r in m.untraced.iter().chain(&m.traced) {
        check(r.virt == first.virt && r.jobs == first.jobs, || {
            format!("repeats of one seed disagree: {:?} vs {:?}", first.virt, r.virt)
        })?;
    }
    Ok(m)
}

/// `--trace 0`: every end-to-end metric, from the untraced repeats.
fn end_to_end(repeats: &[Repeat]) -> Result<BTreeMap<&'static str, f64>, CheckFailed> {
    let per_repeat = |f: &dyn Fn(&Repeat) -> f64| repeats.iter().map(f).collect::<Vec<f64>>();
    let setups: Vec<f64> = repeats.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    // What each repeat read on its own, beside the reported values.
    for (name, samples) in [
        ("setup_s", setups.clone()),
        ("jobs_per_s", per_repeat(&|r| r.jobs as f64 / r.wall_s)),
        ("trip_p50_us", per_repeat(&|r| per_job_percentile(&r.segments, 0.5))),
        ("trip_p99_us", per_repeat(&|r| per_job_percentile(&r.segments, 0.99))),
    ] {
        let s = summarize(&samples);
        println!(
            "  over repeats {name:<12} median {:>12.4}  min {:>12.4}  max {:>12.4}  n {}",
            s.median, s.min, s.max, s.n
        );
    }
    let quiet = quietest_segments(repeats)?;
    let virt = repeats[0].virt;
    Ok(BTreeMap::from([
        ("setup_s", median(&setups)),
        ("jobs_per_s", jobs_per_s(repeats[0].jobs, &quiet)),
        ("trip_p50_us", per_job_percentile(&quiet, 0.5)),
        ("trip_p99_us", per_job_percentile(&quiet, 0.99)),
        ("slowdown_p50", virt.slowdown_p50),
        ("slowdown_p99", virt.slowdown_p99),
        ("turnaround_p99_vs", virt.turnaround_p99_vs),
        ("makespan_vs", virt.makespan_vs),
        ("gpu_served_pct", virt.gpu_served_pct),
        ("peak_rss_mib", peak_rss_mib()),
    ]))
}

/// `--trace 1`: every per-layer metric — medians over the traced
/// repeats, the probes, and the traced-vs-untraced comparison — plus the
/// self-time table and the trace file of the last traced repeat.
fn per_layer(args: &Args, m: &Measured) -> Result<BTreeMap<&'static str, f64>, CheckFailed> {
    let (tracer, scopes) = m.last_traced.as_ref().expect("a traced run traces a repeat");
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, value) in m.traced.iter().flat_map(|r| &r.layer) {
        samples.entry(name).or_default().push(*value);
    }
    let mut values: BTreeMap<&'static str, f64> =
        samples.into_iter().map(|(name, v)| (name, median(&v))).collect();

    values.extend(m.probes.iter().copied());

    // As many traced repeats as untraced ones (`measure` sees to it): the
    // per-segment minimum reads lower the more repeats it is taken over.
    let jobs = m.untraced[0].jobs;
    let untraced_rate = jobs_per_s(jobs, &quietest_segments(&m.untraced)?);
    let traced_rate = jobs_per_s(jobs, &quietest_segments(&m.traced)?);
    values.insert("trace.overhead_pct", 100.0 * (untraced_rate / traced_rate - 1.0));

    let timed_s = m.traced.last().map_or(0.0, |r| r.wall_s);
    println!("self time per layer (last traced repeat, {timed_s:.3} s timed):");
    for (layer, self_s) in layer_self_s(tracer, scopes) {
        println!("  {layer:<10} {self_s:>10.4} s");
    }
    write_trace(&args.workload, args.seed, tracer, scopes)?;
    Ok(values)
}

fn run(args: &Args) -> Result<(), CheckFailed> {
    let m = measure(args)?;
    println!(
        "workload {} seed {} repeats {} ({} traced) jobs/repeat {} threads 1 of {}",
        args.workload,
        args.seed,
        m.untraced.len() + m.traced.len(),
        m.traced.len(),
        m.untraced[0].jobs,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (names, values) = if args.trace {
        (PER_LAYER, per_layer(args, &m)?)
    } else {
        (END_TO_END, end_to_end(&m.untraced)?)
    };
    // A layer that did no work on this workload measured nothing: 0.
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            println!("{name:<30} {value:>18.6} {unit}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let all = m.untraced.iter().chain(&m.traced);
    let (attempted, failed) = all.fold((0, 0), |(a, f), r| (a + r.jobs, f + r.failed));
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(())
}

/// Write the last traced repeat's spans and scope table under
/// `benchmark/out/` of the checkout the command runs from.
fn write_trace(
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    scopes: &ScopeTable,
) -> Result<(), CheckFailed> {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("{workload}.trace.json"));
    let body = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{},\n\"profile_scopes\":{}}}\n",
        tracer.spans_json(),
        scopes.to_json()
    );
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| CheckFailed(format!("writing {}: {e}", path.display())))?;
    println!("trace written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CheckFailed(why)) => {
            eprintln!("check failed on {} seed {}: {why}", args.workload, args.seed);
            ExitCode::FAILURE
        }
    }
}
