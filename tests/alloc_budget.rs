//! Heap-allocation budget of the telemetry recorder and of one job's
//! trip through the stack — the guard that keeps the next audit event
//! from silently costing fifteen allocations again.
//!
//! One `#[test]` in its own binary: the counting `#[global_allocator]`
//! is process-wide, so nothing else may allocate while a budget is
//! being counted.

use fleet::{Fleet, NodeClass, PlacementRequest};
use gyan::allocation::AllocationPolicy;
use gyan::LeaseTable;
use loadgen::{run_scenario, LoadOptions, LoadScenario, Topology};
use obs::{Key, Recorder};
use simtest::driver::Hardware;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Calls to `alloc`, `alloc_zeroed` and `realloc` since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    work();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const RECORDS: u64 = 10_000;

/// A production-shaped recorder: flight ring on, retention capped.
fn production_recorder() -> Recorder {
    let rec = Recorder::new();
    rec.enable_flight(1_024);
    rec.set_log_retention(Some(1_000));
    rec
}

/// Allocations per call of `record`, averaged over [`RECORDS`] calls on
/// `rec` once it is at steady state (the ring wrapping, the log
/// evicting).
fn per_record_on(rec: &Recorder, record: impl Fn(&Recorder, u64)) -> f64 {
    for i in 0..RECORDS {
        record(rec, i);
    }
    let counted = allocations_during(|| (0..RECORDS).for_each(|i| record(rec, i)));
    counted as f64 / RECORDS as f64
}

/// [`per_record_on`] a [`production_recorder`] of its own.
fn per_record(record: impl Fn(&Recorder, u64)) -> f64 {
    per_record_on(&production_recorder(), record)
}

/// Allocations per `Fleet::place` + `Fleet::release` of a one-die job on
/// an otherwise idle audited fleet of `k80` K80 and `a100` A100 nodes:
/// every node is a candidate and is scored.
fn per_placement(k80: u32, a100: u32) -> f64 {
    let rec = production_recorder();
    let fleet = Fleet::builder()
        .nodes(NodeClass::k80(), k80)
        .nodes(NodeClass::a100(), a100)
        .recorder(rec.clone())
        .build();
    per_record_on(&rec, |_, job| {
        let placed = fleet.place(&PlacementRequest {
            job_id: job,
            user: "u000042",
            tool_id: "racon_gpu",
            requested: &[0],
            memory_hint_mib: 512,
            excluded_nodes: &[],
        });
        assert_eq!(placed.map(|p| p.node), Some(0));
        assert_eq!(fleet.release(job, "ok"), 1);
    })
}

/// Allocations per job of the 2 000-job day below: 349.7 at 8faed09
/// (where the event above cost 16 and the span 8), 144.7 at b774b45,
/// 105.5 at 0f6d93c, 104.4 now (the fair-share queue keeps one entry per
/// user); the ceiling is the measured value plus 10 %.
const ALLOCS_PER_JOB_CEILING: f64 = 114.8;

/// Allocations per GPU job's audit trail on 32 devices — one decision,
/// 32 lease acquires, 32 releases: 425.0 at b774b45 (this same probe run
/// there), 143.0 now, of which 128 are the 64 lease records; the ceiling
/// is the measured value plus 10 %.
const ALLOCS_PER_32_DEVICE_GRANT_CEILING: f64 = 157.0;

/// Allocations per placement + release on the benchmark's `day_fleet`
/// shape (60 K80 + 20 A100 nodes): 132.0 at 0f6d93c (this same probe run
/// there; 38.0 on 8 nodes), where scoring a node cost one to two (a
/// lease view, an availability list) and the candidate list grew by
/// doubling; 27.0 now on 80 nodes and on 8, none of them per node; the
/// ceiling is the measured value plus 10 %.
const ALLOCS_PER_PLACEMENT_CEILING: f64 = 29.7;

#[test]
fn telemetry_records_and_jobs_stay_inside_their_allocation_budget() {
    // The shape of a lease audit (Case 1 emits 32 of them per job): six
    // numeric fields under literal keys. One `Vec` of fields, one record
    // shared by the log and the ring.
    let event = per_record(|rec, i| {
        rec.event(
            "gyan.reservation.acquire",
            [("job_id", i), ("gpu", 1), ("mem_mib", 512), ("leases", 2), ("wave", 7), ("pid", i)],
        );
    });
    assert!(event <= 2.0, "{event} allocations per six-field event");

    // A string built at run time costs nothing more while it fits in
    // place — as key (`gpu31_pids`) or as value (a PID list of 22 bytes) —
    // and one allocation once it does not.
    let minors: Vec<String> = (0..32).map(|minor| minor.to_string()).collect();
    let pids = "39953,41105,41872,4310x";
    let text_event = |pids: &'static str| {
        per_record(|rec, i| {
            let key = Key::concat(&["gpu", &minors[i as usize % 32], "_pids"]);
            rec.event("gyan.allocation.decision", [(key, pids)]);
        })
    };
    let (in_place, spilled) = (text_event(&pids[..22]), text_event(pids));
    assert!(in_place <= 2.0, "{in_place} allocations per event with a 22-byte string value");
    assert!(
        spilled > in_place && spilled <= 3.0,
        "{spilled} allocations per event with a 23-byte string value"
    );

    let span = per_record(|rec, i| {
        let span = rec.span("galaxy.dispatch");
        span.field("job_id", i);
        span.field("exit_code", 0i64);
        span.end();
    });
    assert!(span <= 3.0, "{span} allocations per span open + two fields + close");

    // One GPU job's audit trail on the 32-device node: no preference on an
    // idle node is granted, and leases, every device.
    let Hardware::Node(node) = (Topology::SingleNode { gpus: 32 }).hardware() else {
        unreachable!("a single node is a node")
    };
    let table = LeaseTable::new();
    let grant = per_record(|rec, job| {
        let policy = AllocationPolicy::ProcessId;
        let granted = table.allocate_and_lease(&node, &[], policy, job, 512, Some(rec));
        assert_eq!(granted.map(|g| g.devices.len()), Some(32));
        assert_eq!(table.release(job, "ok", Some(rec)), 32);
    });
    assert!(
        grant <= ALLOCS_PER_32_DEVICE_GRANT_CEILING,
        "{grant:.1} allocations per 32-device grant"
    );

    // One placement and its release on the benchmark's 80-node fleet, and
    // on a tenth of it: scoring a node allocates nothing, so the two may
    // differ by the candidate list's one allocation at most.
    let (placement, small_fleet) = (per_placement(60, 20), per_placement(6, 2));
    assert!(
        placement <= ALLOCS_PER_PLACEMENT_CEILING,
        "{placement:.1} allocations per placement + release on 80 nodes"
    );
    assert!(
        (placement - small_fleet).abs() <= 1.0,
        "{placement:.1} allocations per placement on 80 nodes, {small_fleet:.1} on 8"
    );

    // A 2 000-job day through the real `QueueEngine` over `install_gyan`
    // on the paper's K80 node (two devices, as `GpuCluster::k80_node()`).
    let scenario = LoadScenario {
        topology: Topology::SingleNode { gpus: 2 },
        ..LoadScenario::diurnal(1, 2_000)
    };
    let mut jobs = 0;
    let counted = allocations_during(|| {
        let report =
            run_scenario(&scenario, &LoadOptions::default()).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.ok, report.submitted);
        jobs = report.arrivals;
    });
    let per_job = counted as f64 / jobs as f64;
    println!(
        "allocations: event {event:.2}  span {span:.2}  32-device grant {grant:.1}  \
         placement {placement:.1}  job {per_job:.1}"
    );
    assert!(per_job <= ALLOCS_PER_JOB_CEILING, "{per_job:.1} allocations per job of {jobs}");
}
