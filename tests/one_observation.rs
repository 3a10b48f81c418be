//! One structured SMI observation per allocation decision — and no XML
//! on the way to it — pinned.
//!
//! A single `#[test]`, so this binary's process-global `obs::profile`
//! registry sees nothing but the decisions made here. It drives
//! `LeaseTable::allocate_and_lease` — directly on a K80 node and through a
//! one-node `Fleet` — into all five `AllocationReason`s under both
//! policies, with and without leases in the table (the conflict audit's
//! lease-blind baseline) and with and without a recorder (the decision
//! audit), then requires exactly one `smi.query` per decision and not one
//! `nvidia-smi -q -x` document rendered or parsed. Before `GpuUsage`
//! carried the memory readings, the audit, the Memory-Based tie-break and
//! the baseline each polled again and the query ratio read 2–4×; until the
//! observation became structured, each query was an XML render + parse.

use fleet::{Fleet, NodeClass, PlacementRequest};
use gpusim::{GpuCluster, GpuProcess};
use gyan::allocation::{AllocationPolicy, AllocationReason};
use gyan::reservations::LeaseTable;
use obs::Recorder;
use std::collections::BTreeSet;

const POLICIES: [AllocationPolicy; 2] =
    [AllocationPolicy::ProcessId, AllocationPolicy::MemoryBased];

/// The two ways a decision reaches `allocate_and_lease`.
enum Seam {
    Node {
        cluster: GpuCluster,
        table: LeaseTable,
        policy: AllocationPolicy,
        recorder: Option<Recorder>,
    },
    Fleet(Fleet),
}

impl Seam {
    fn new(through_fleet: bool, policy: AllocationPolicy, audited: bool) -> Seam {
        let recorder = audited.then(Recorder::new);
        if !through_fleet {
            return Seam::Node {
                cluster: GpuCluster::k80_node(),
                table: LeaseTable::new(),
                policy,
                recorder,
            };
        }
        let builder = Fleet::builder().nodes(NodeClass::k80(), 1).allocation_policy(policy);
        Seam::Fleet(match recorder {
            Some(rec) => builder.recorder(rec).build(),
            None => builder.build(),
        })
    }

    fn cluster(&self) -> &GpuCluster {
        match self {
            Seam::Node { cluster, .. } => cluster,
            Seam::Fleet(fleet) => &fleet.shards()[0].cluster,
        }
    }

    /// One decision for `holder`; the reason it was granted for, if any.
    fn decide(&self, holder: u64, requested: &[u32]) -> Option<AllocationReason> {
        match self {
            Seam::Node { cluster, table, policy, recorder } => table
                .allocate_and_lease(cluster, requested, *policy, holder, 512, recorder.as_ref())
                .map(|a| a.reason),
            Seam::Fleet(fleet) => fleet
                .place(&PlacementRequest {
                    job_id: holder,
                    user: "alice",
                    tool_id: "racon",
                    requested,
                    memory_hint_mib: 512,
                    excluded_nodes: &[],
                })
                .map(|p| p.allocation.reason),
        }
    }
}

/// Devices holding a lingering process, then the requests made in order
/// with the reason each must be granted for. The first request meets an
/// empty table; every later one meets the leases of the ones before it.
type Case<'a> = (&'a [u32], &'a [(&'a [u32], AllocationReason)]);

/// Total entries of every scope whose leaf frame is `name`.
fn count(name: &str) -> u64 {
    obs::profile::global()
        .snapshot()
        .iter()
        .filter(|e| e.name() == name)
        .map(|e| e.stats.count)
        .sum()
}

#[test]
fn every_decision_observes_the_node_exactly_once_and_never_through_xml() {
    use AllocationReason::*;
    let profiler = obs::profile::global();
    profiler.reset();
    profiler.enable();

    let mut decisions = 0u64;
    let mut seen = BTreeSet::new();
    for through_fleet in [false, true] {
        for audited in [false, true] {
            for policy in POLICIES {
                let all_busy = match policy {
                    AllocationPolicy::ProcessId => AllBusyScatter,
                    AllocationPolicy::MemoryBased => AllBusyLeastMemory,
                };
                let cases: [Case; 7] = [
                    // Idle node: granted, then redirected by that lease
                    // (a conflict), then nothing is left.
                    (&[], &[(&[1], RequestedFree), (&[1], FreeFallback), (&[0], all_busy)]),
                    (&[], &[(&[1], RequestedFree), (&[0], RequestedFree)]),
                    // A nonexistent minor gets what is free, if anything.
                    (&[], &[(&[7], InvalidRequest), (&[7], all_busy)]),
                    (&[], &[(&[1], RequestedFree), (&[7], InvalidRequest), (&[], all_busy)]),
                    // Requested device busy: the free one, then none.
                    (&[1], &[(&[1], FreeFallback), (&[0], all_busy)]),
                    // Both busy, no leases, then stacked shared leases.
                    (&[0, 1], &[(&[0], all_busy), (&[1], all_busy), (&[], all_busy)]),
                    (&[0], &[(&[], FreeFallback), (&[0, 1], all_busy)]),
                ];
                for (busy, requests) in cases {
                    let seam = Seam::new(through_fleet, policy, audited);
                    for (pid, &minor) in busy.iter().enumerate() {
                        let linger = GpuProcess::compute(
                            4000 + pid as u32,
                            "linger",
                            60 + 40 * minor as u64,
                        );
                        seam.cluster().attach_process(minor, linger).unwrap();
                    }
                    for (holder, (requested, want)) in requests.iter().enumerate() {
                        let got = seam.decide(holder as u64 + 1, requested);
                        assert_eq!(
                            got,
                            Some(*want),
                            "fleet={through_fleet} audited={audited} {policy:?} busy={busy:?} \
                             request #{holder} {requested:?}"
                        );
                        decisions += 1;
                        seen.insert((through_fleet, audited, holder > 0, want.as_str()));
                    }
                }
            }
        }
    }
    // A GPU-less node is observed once too (no rows).
    let table = LeaseTable::new();
    let cpu_only = GpuCluster::cpu_only_node();
    assert!(table
        .allocate_and_lease(&cpu_only, &[0], AllocationPolicy::MemoryBased, 1, 0, None)
        .is_none());
    decisions += 1;
    profiler.disable();

    // Every reason was reached on both seams, audited and not, against an
    // empty table and against leases.
    for through_fleet in [false, true] {
        for audited in [false, true] {
            for leases in [false, true] {
                for reason in [
                    RequestedFree,
                    FreeFallback,
                    InvalidRequest,
                    AllBusyScatter,
                    AllBusyLeastMemory,
                ] {
                    assert!(
                        seen.contains(&(through_fleet, audited, leases, reason.as_str())),
                        "never reached {reason:?} with fleet={through_fleet} audited={audited} \
                         leases={leases}"
                    );
                }
            }
        }
    }

    assert_eq!(count("gyan.allocate"), decisions);
    assert_eq!(count("smi.query"), decisions, "one observation per decision");
    assert_eq!(count("smi.render_xml"), 0, "no decision renders the SMI document");
    assert_eq!(count("smi.parse_xml"), 0, "no decision parses one");
}
