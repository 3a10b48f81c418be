//! The hot-path profiler in action: enable the global `obs::profile`
//! profiler, drive real allocation decisions through the lease table,
//! and print the two exports — the per-scope summary (what
//! `/api/profile` serves) and the collapsed stacks (flamegraph input).
//! The breakdown shows where an allocation decision's time actually
//! goes now that the node is observed as structured rows instead of an
//! `nvidia-smi -q -x` render + parse: observe, place and lease are each
//! a fraction of a microsecond, and no `smi.render_xml` /
//! `smi.parse_xml` scope appears.
//!
//! Run with: `cargo run --release --example profiling`

use gpusim::GpuCluster;
use gyan::allocation::AllocationPolicy;
use gyan::reservations::LeaseTable;

fn main() {
    let cluster = GpuCluster::k80_node();
    let table = LeaseTable::new();

    // Instrumented library code costs one relaxed atomic load per call
    // site until the global profiler is switched on.
    let profiler = obs::profile::global();
    profiler.enable_real_clock();
    profiler.reset();
    profiler.enable();

    // 512 allocate→release round trips under a common root scope, the
    // same loop the dispatch hook runs per wave member.
    for i in 0..512u64 {
        let holder = i % 7 + 1;
        let _root = profiler.scope("alloc.decision");
        let alloc = table.allocate_and_lease(
            &cluster,
            &[(i % 2) as u32],
            AllocationPolicy::ProcessId,
            holder,
            100,
            None,
        );
        assert!(alloc.is_some(), "K80 node always allocates");
        table.release(holder, "done", None);
    }
    profiler.disable();

    println!("per-scope summary (count / total / self, ms):");
    for entry in profiler.snapshot() {
        let indent = "  ".repeat(entry.depth());
        println!(
            "  {indent}{:<24} {:>5}x  total {:>8.2}  self {:>8.2}",
            entry.name(),
            entry.stats.count,
            entry.stats.total_s * 1e3,
            entry.stats.self_s * 1e3,
        );
    }

    let attributed = profiler.attributed_pct("alloc.decision").unwrap_or(0.0);
    println!("\nattribution: {attributed:.1}% of allocation wall time in named scopes");

    println!("\ncollapsed stacks (pipe to inferno-flamegraph / flamegraph.pl):");
    for line in profiler.collapsed().lines() {
        println!("  {line}");
    }

    println!("\nJSON export (served live at /api/profile):");
    println!("{}", profiler.summary_json());
}
