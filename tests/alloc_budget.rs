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

/// A production-shaped recorder: retention capped.
fn production_recorder() -> Recorder {
    let rec = Recorder::new();
    rec.set_log_retention(Some(1_000));
    rec
}

/// Allocations per call of `record`, averaged over [`RECORDS`] calls on
/// `rec` once it is at steady state (the log evicting).
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
/// an audited fleet of `k80` K80 and `a100` A100 nodes that holds
/// `others` one-die bookings of as many other users: every node is a
/// candidate and is scored, and the books keep every other user's counts
/// beside the placed user's.
fn per_placement(k80: u32, a100: u32, others: u32) -> f64 {
    let rec = production_recorder();
    let fleet = Fleet::builder()
        .nodes(NodeClass::k80(), k80)
        .nodes(NodeClass::a100(), a100)
        .recorder(rec.clone())
        .build();
    fn request(job_id: u64, user: &str) -> PlacementRequest<'_> {
        PlacementRequest {
            job_id,
            user,
            tool_id: "racon_gpu",
            requested: &[0],
            memory_hint_mib: 512,
            excluded_nodes: &[],
        }
    }
    // The others' hint fits only an A100 die, so the probe's one-die
    // grant is on the same K80 node as on an idle fleet.
    for other in 0..others {
        let user = format!("other{other:03}");
        let booked = PlacementRequest {
            memory_hint_mib: 20_000,
            ..request(u64::from(other) + 1_000_000, &user)
        };
        assert!(fleet.place(&booked).is_some_and(|p| p.node >= k80));
    }
    per_record_on(&rec, |_, job| {
        let placed = fleet.place(&request(job, "u000042"));
        assert_eq!(placed.map(|p| p.node), Some(0));
        assert_eq!(fleet.release(job, "ok"), 1);
    })
}

/// Allocations per job of the 2 000-job day below: 349.7 at 8faed09
/// (where the event above cost 16 and the span 8), 144.7 at b774b45,
/// 105.5 at 0f6d93c, 104.4 at c22b3c8 (the fair-share queue keeps one
/// entry per user), 98.3 at e151b45 (the app keeps no second, string
/// event log), 96.3 at 83e239d (a wave runs inline in the queue engine:
/// no boxed plan, no results map), 83.1 at fedd730 (a record is kept by
/// value in the log, with no `Arc` and no second handle in a flight
/// ring), 80.1 at a3b9e33 (the queue engine keeps a job's user and
/// state only in its ledger), 77.5 at 235ac37 (a grant is one record in
/// each audit stream, and a short id list or column is written in place),
/// 73.3 at 4ffcab2 (the queue engine hands the hook the submitting user
/// as a typed job field, not an env pair on the job and again in every
/// plan), 72.3 at 346065d (the destination rule asks the placer instead
/// of scanning for free devices: no free list and no lease snapshot per
/// job), 41.0 at 8fbc47e (an attempt shares the strings the job already
/// holds: the plan takes a handle on the job's env instead of a copy, env
/// keys and values are `obs::Text`s, the tool id, destination id, command
/// line, user name and output names are shared `Arc<str>`s, a
/// destination is borrowed, not cloned, `ParamDict` is one ordered list,
/// a wave reuses the last one's buffer, and the GPU exports are built in
/// place), 35.1 now (the harness reads only the footprint events it
/// folds instead of a copy of the whole log, and a span's field list is
/// written with its open or close, sized once); the ceiling is the
/// measured value plus 10 %.
const ALLOCS_PER_JOB_CEILING: f64 = 38.6;

/// Allocations per job of the 2 000-user `LoadScenario::fleet` hour
/// below (`install_fleet` on two K80 and two A100 nodes): 77.6 at
/// 346065d (this same scenario run there), 44.9 at 8fbc47e and 38.2 now,
/// for the reasons the single-node figure above fell; the ceiling is the
/// measured value plus 10 %.
const ALLOCS_PER_FLEET_JOB_CEILING: f64 = 42.0;

/// Allocations per GPU job's grant and audit trail on 32 devices — the
/// decision, the leases and their release: 425.0 at b774b45 (this same
/// probe run there), 143.0 at 83e239d, of which 128 were the 64 per-device
/// lease records (an `Arc` and a field list each), 78.0 at a3b9e33, of
/// which 64 were those records' field lists, 20.0 at 235ac37, where the
/// grant writes one decision, one acquire and one release record, and
/// 20.0 now that the table books a grant once (its devices are bits of
/// the grant, not a list); the ceiling is the measured value plus 10 %.
const ALLOCS_PER_32_DEVICE_GRANT_CEILING: f64 = 22.0;

/// Allocations per placement + release on the benchmark's `day_fleet`
/// shape (60 K80 + 20 A100 nodes): 132.0 at 0f6d93c (this same probe run
/// there; 38.0 on 8 nodes), where scoring a node cost one to two (a
/// lease view, an availability list) and the candidate list grew by
/// doubling; 27.0 at 83e239d on 80 nodes and on 8, none of them per
/// node; 22.0 at a3b9e33 (the placement's and release's audit records
/// lost their `Arc`s); 19.0 at 1c837c1 (short id lists and the
/// decision's columns are written in place); 20.0 at 346065d, also with
/// 64 other users' bookings on the fleet (the fleet's books keep a
/// booking's granted minors and the user's per-node counts, and phase 1
/// keeps no candidate list); 19.0 now (the granted mask is an `obs::Text`,
/// held in place); the ceiling is 10 % over 19.0.
const ALLOCS_PER_PLACEMENT_CEILING: f64 = 20.9;

#[test]
fn telemetry_records_and_jobs_stay_inside_their_allocation_budget() {
    // An audit record of six numeric fields under literal keys. One `Vec`
    // of fields; the record itself is kept by value in the log.
    let event = per_record(|rec, i| {
        rec.event(
            "gyan.reservation.acquire",
            [("job_id", i), ("gpu", 1), ("mem_mib", 512), ("leases", 2), ("wave", 7), ("pid", i)],
        );
    });
    assert!(event <= 1.0, "{event} allocations per six-field event");

    // A string built at run time costs nothing more while it fits in
    // place — as key (`gpu31_pids`) or as value (a PID column of 22
    // bytes) — and one allocation once it does not.
    let minors: Vec<String> = (0..32).map(|minor| minor.to_string()).collect();
    let pids = "39953,41105,41872,4310x";
    let text_event = |pids: &'static str| {
        per_record(|rec, i| {
            let key = Key::concat(&["gpu", &minors[i as usize % 32], "_pids"]);
            rec.event("gyan.allocation.decision", [(key, pids)]);
        })
    };
    let (in_place, spilled) = (text_event(&pids[..22]), text_event(pids));
    assert!(in_place <= 1.0, "{in_place} allocations per event with a 22-byte string value");
    assert!(
        spilled > in_place && spilled <= 2.0,
        "{spilled} allocations per event with a 23-byte string value"
    );

    let span = per_record(|rec, i| {
        let span = rec.span("galaxy.dispatch");
        span.field("job_id", i);
        span.field("exit_code", 0i64);
        span.end();
    });
    assert!(span <= 2.0, "{span} allocations per span open + two fields + close");

    // One GPU job's grant on the 32-device node: no preference on an idle
    // node is granted, and leases, every device — audited as one decision,
    // one acquire and one release.
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
    // A release by a job that holds nothing — every CPU job's conclusion —
    // on that table while another job holds all 32 devices: one lookup,
    // no record, no allocation.
    table.allocate_and_lease(&node, &[], AllocationPolicy::ProcessId, u64::MAX, 512, None);
    let idle_release = per_record(|rec, job| assert_eq!(table.release(job, "ok", Some(rec)), 0));
    assert_eq!(idle_release, 0.0, "{idle_release:.2} allocations per release of nothing");

    // One placement and its release on the benchmark's 80-node fleet, and
    // on a tenth of it: scoring a node allocates nothing, so the two may
    // differ by one allocation at most. The same on the 80 nodes while 64
    // other users hold a booking each.
    let (placement, small_fleet) = (per_placement(60, 20, 0), per_placement(6, 2, 0));
    let busy_fleet = per_placement(60, 20, 64);
    for (cost, what) in [(placement, "an idle fleet"), (busy_fleet, "64 other users' bookings")] {
        assert!(
            cost <= ALLOCS_PER_PLACEMENT_CEILING,
            "{cost:.1} allocations per placement + release on 80 nodes with {what}"
        );
    }
    assert!(
        (placement - small_fleet).abs() <= 1.0,
        "{placement:.1} allocations per placement on 80 nodes, {small_fleet:.1} on 8"
    );

    // A 2 000-job day through the real `QueueEngine` over `install_gyan`
    // on the paper's K80 node (two devices, as `GpuCluster::k80_node()`),
    // and a 2 000-user fleet hour over `install_fleet` on two K80 and two
    // A100 nodes.
    let per_job = per_arrival(&LoadScenario {
        topology: Topology::SingleNode { gpus: 2 },
        ..LoadScenario::diurnal(1, 2_000)
    });
    let fleet_job = per_arrival(&LoadScenario::fleet(1, 2_000));
    println!(
        "allocations: event {event:.2}  span {span:.2}  32-device grant {grant:.1}  \
         idle release {idle_release:.1}  placement {placement:.1} (busy fleet {busy_fleet:.1})  job {per_job:.1}  \
         fleet job {fleet_job:.1}"
    );
    assert!(per_job <= ALLOCS_PER_JOB_CEILING, "{per_job:.1} allocations per job");
    assert!(fleet_job <= ALLOCS_PER_FLEET_JOB_CEILING, "{fleet_job:.1} allocations per fleet job");
}

/// Allocations per arrival of `scenario` run through `loadgen`, the
/// harness's own reading of the log included; every job must succeed.
fn per_arrival(scenario: &LoadScenario) -> f64 {
    let mut jobs = 0;
    let counted = allocations_during(|| {
        let report =
            run_scenario(scenario, &LoadOptions::default()).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.ok, report.submitted);
        jobs = report.arrivals;
    });
    counted as f64 / jobs as f64
}
