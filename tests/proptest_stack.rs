//! Property-based tests across the stack: allocation invariants under
//! arbitrary cluster states, device-mask parsing, window tiling, and POA
//! consensus sanity under random inputs.

use gpusim::cuda::parse_visible_devices;
use gpusim::nvml::Nvml;
use gpusim::{smi, GpuArch, GpuCluster, GpuProcess};
use gyan::allocation::{select_gpus, AllocationPolicy};
use gyan::gpu_usage::{get_gpu_usage, parse_gpu_usage, try_get_gpu_usage, GpuUsage};
use gyan::{GpuDestinationRule, LeaseTable};
use proptest::prelude::*;
use seqtools::poa::PoaGraph;
use seqtools::racon::build_windows;
use seqtools::sim::genome::random_genome;

/// An arbitrary occupancy pattern for a 2-GPU node: per-device process
/// memory sizes (empty vec = idle device).
fn occupancy_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(1u64..2000, 0..4), 2..=2)
}

fn cluster_with(occupancy: &[Vec<u64>]) -> GpuCluster {
    let cluster = GpuCluster::k80_node();
    let mut pid = 1000;
    for (minor, procs) in occupancy.iter().enumerate() {
        for &mib in procs {
            pid += 1;
            cluster.attach_process(minor as u32, GpuProcess::compute(pid, "tool", mib)).unwrap();
        }
    }
    cluster
}

/// One step of a node's history: `(kind, selector, MiB)` — kind 0/1
/// attaches a process of that size to device `selector % count`, kind 2
/// detaches and kind 3 resizes (by `MiB - 1000`) the live process
/// `selector % live`.
type NodeOp = (u8, u32, u64);

/// A node of `count` devices of the `arch`-th architecture after `ops`,
/// with the SMI view frozen before op number `freeze_at` (so every later
/// op is invisible to SMI). Refused ops (out of memory, shrinking below
/// zero) are part of the history: they leave the state as it was.
fn node_after(arch: u8, count: u32, ops: &[NodeOp], freeze_at: Option<usize>) -> GpuCluster {
    node_after_each(arch, count, ops, freeze_at, |_| {})
}

/// [`node_after`], calling `after_step` on the node after every op.
fn node_after_each(
    arch: u8,
    count: u32,
    ops: &[NodeOp],
    freeze_at: Option<usize>,
    mut after_step: impl FnMut(&GpuCluster),
) -> GpuCluster {
    let arch =
        [GpuArch::tesla_k80(), GpuArch::tesla_v100(), GpuArch::a100()][arch as usize % 3].clone();
    let cluster = GpuCluster::node(arch, count);
    let mut live: Vec<(u32, u32)> = Vec::new();
    for (step, &(kind, selector, mib)) in ops.iter().enumerate() {
        if freeze_at == Some(step) {
            cluster.freeze_smi_snapshot();
        }
        if count == 0 {
            continue;
        }
        match kind {
            0 | 1 => {
                let (minor, pid) = (selector % count, cluster.spawn_pid());
                if cluster.attach_process(minor, GpuProcess::compute(pid, "tool", mib)).is_ok() {
                    live.push((minor, pid));
                }
            }
            _ if live.is_empty() => {}
            2 => {
                let (minor, pid) = live.swap_remove(selector as usize % live.len());
                cluster.detach_process(minor, pid).unwrap();
            }
            _ => {
                let (minor, pid) = live[selector as usize % live.len()];
                let _ = cluster
                    .with_device_mut(minor, |d| d.resize_process(pid, mib as i64 - 1000))
                    .unwrap();
            }
        }
        after_step(&cluster);
    }
    cluster
}

/// "Which devices are available", recomputed under each device's lock.
fn available_under_the_locks(cluster: &GpuCluster) -> Vec<u32> {
    cluster
        .all_devices()
        .into_iter()
        .filter(|minor| cluster.with_device(*minor, |d| d.is_available()) == Ok(true))
        .collect()
}

proptest! {
    /// The differential pin behind "the XML is a rendering of the
    /// observation": over nodes of 0–32 K80/V100/A100 devices left idle,
    /// single- and multi-process by random attach/detach/resize histories,
    /// with the SMI view live or frozen mid-history, Pseudocode 1 over the
    /// rendered `nvidia-smi -q -x` text and the structured query yield the
    /// same `GpuUsage`, field by field.
    #[test]
    fn xml_rendering_and_structured_observation_agree(
        arch in 0u8..3,
        count in 0u32..=32,
        ops in prop::collection::vec((0u8..4, any::<u32>(), 1u64..2000), 0..48),
        freeze_at in prop::option::of(0usize..48),
    ) {
        let cluster = node_after(arch, count, &ops, freeze_at);
        let from_text = parse_gpu_usage(&smi::query_xml(&cluster)).unwrap();
        let structured = try_get_gpu_usage(&cluster).unwrap();
        prop_assert_eq!(&structured.all_gpus, &(0..count).collect::<Vec<u32>>());
        prop_assert_eq!(&from_text.all_gpus, &structured.all_gpus);
        prop_assert_eq!(&from_text.avail_gpus, &structured.avail_gpus);
        prop_assert_eq!(&from_text.proc_gpu_dict, &structured.proc_gpu_dict);
        prop_assert_eq!(&from_text.used_mib, &structured.used_mib);
    }

    /// The lock-free availability is the locked one: over the same
    /// histories (refused ops included), `available_devices()` — served
    /// from the per-device flags `with_device_mut` republishes — equals a
    /// recomputation through `with_device(.., is_available)` after every
    /// step, and after a write whose closure panics once its attach or
    /// detach has landed. The destination rule reads the same flags: after
    /// every step, the `free_gpus` its audit records for a GPU tool are
    /// the devices NVML counts no running process on, minus the one device
    /// a lease holds.
    #[test]
    fn lock_free_availability_equals_the_locked_recomputation(
        arch in 0u8..3,
        count in 0u32..=32,
        ops in prop::collection::vec((0u8..4, any::<u32>(), 1u64..2000), 0..48),
        unwind_on in any::<u32>(),
    ) {
        // A table is not tied to a node: leasing on an idle twin grants
        // exactly the requested device, whatever the history does.
        let (table, leased) = (LeaseTable::new(), unwind_on % count.max(1));
        if count > 0 {
            let twin = GpuCluster::node(GpuArch::tesla_k80(), count);
            let granted =
                table.allocate_and_lease(&twin, &[leased], AllocationPolicy::ProcessId, 1, 0, None);
            prop_assert_eq!(granted.map(|a| a.devices), Some(vec![leased]));
        }
        let recorder = obs::Recorder::new();
        let tool = galaxy::tool::wrapper::parse_tool(
            r#"<tool id="racon_gpu"><requirements>
                 <requirement type="compute">gpu</requirement>
               </requirements><command>racon_gpu</command></tool>"#,
            &galaxy::tool::macros::MacroLibrary::new(),
        )
        .unwrap();
        let config = galaxy::job::conf::JobConfig::from_xml(galaxy::job::conf::GYAN_JOB_CONF).unwrap();
        let job = galaxy::Job::new(1, "t", galaxy::ParamDict::new());
        let mut steps = 0;
        let cluster = node_after_each(arch, count, &ops, None, |cluster| {
            steps += 1;
            let locked = available_under_the_locks(cluster);
            assert_eq!(cluster.available_devices(), locked, "step {steps}");

            GpuDestinationRule::new(cluster, "local_gpu", "local_cpu")
                .with_recorder(recorder.clone())
                .with_reservations(table.clone())
                .decide(&tool, &job, &config)
                .unwrap();
            let audit = recorder.events_named("gyan.rule.decision").pop().unwrap();
            let nvml = Nvml::init(cluster);
            let free: Vec<String> = (0..count)
                .filter(|minor| nvml.compute_running_process_count(*minor) == Ok(0))
                .filter(|minor| *minor != leased)
                .map(|minor| minor.to_string())
                .collect();
            assert_eq!(
                audit.field("free_gpus").and_then(|v| v.as_str()),
                Some(free.join(",").as_str()),
                "step {steps}"
            );
        });
        prop_assert_eq!(steps, if count == 0 { 0 } else { ops.len() });
        if count > 0 {
            let minor = unwind_on % count;
            let before = cluster.is_device_available(minor);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cluster.with_device_mut(minor, |d| {
                    // Flip the device's availability, then unwind.
                    let resident: Vec<u32> = d.processes().iter().map(|p| p.pid).collect();
                    if resident.is_empty() {
                        d.attach_process(GpuProcess::compute(7, "tool", 1)).unwrap();
                    }
                    for pid in resident {
                        d.detach_process(pid).unwrap();
                    }
                    panic!("unwinding out of a device write");
                })
            }));
            prop_assert!(unwound.is_err());
            prop_assert_eq!(cluster.is_device_available(minor), !before);
            prop_assert_eq!(cluster.available_devices(), available_under_the_locks(&cluster));
        }
    }

    /// Fault parity: an injected budget of `n` fails exactly `n`
    /// structured observations, each as `smi_query_failed`, and the next
    /// one succeeds with what the rendered document says; a GPU-less node
    /// observes as the empty view, not as an error.
    #[test]
    fn injected_budget_fails_exactly_that_many_structured_observations(
        n in 0u32..6,
        count in 0u32..=8,
        ops in prop::collection::vec((0u8..4, any::<u32>(), 1u64..2000), 0..12),
    ) {
        let cluster = node_after(0, count, &ops, None);
        cluster.inject_smi_query_failures(n);
        for _ in 0..n {
            let err = try_get_gpu_usage(&cluster).unwrap_err();
            prop_assert_eq!(err.reason(), "smi_query_failed");
        }
        let observed = try_get_gpu_usage(&cluster).unwrap();
        prop_assert_eq!(&observed, &parse_gpu_usage(&smi::query_xml(&cluster)).unwrap());
        if count == 0 {
            prop_assert_eq!(observed, GpuUsage::default());
        }
    }

    /// Whatever the cluster state and request, the allocator must return
    /// a non-empty set of *existing* devices, and must grant a requested
    /// free device exactly.
    #[test]
    fn allocation_always_returns_valid_devices(
        occupancy in occupancy_strategy(),
        requested in prop::collection::vec(0u32..4, 0..3),
        memory_policy in any::<bool>(),
    ) {
        let cluster = cluster_with(&occupancy);
        let policy = if memory_policy {
            AllocationPolicy::MemoryBased
        } else {
            AllocationPolicy::ProcessId
        };
        let alloc = select_gpus(&cluster, &requested, policy).expect("node has GPUs");
        prop_assert!(!alloc.devices.is_empty());
        for d in &alloc.devices {
            prop_assert!(*d < 2, "nonexistent device {d}");
        }
        // No duplicates in the mask.
        let mut sorted = alloc.devices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), alloc.devices.len());
        // The exported string parses back to the same devices.
        let parsed = parse_visible_devices(Some(&alloc.cuda_visible_devices), 2);
        prop_assert_eq!(&parsed, &alloc.devices);
        // A requested, existing, free device set must be granted as-is
        // (after deduplication).
        let mut requested_dedup: Vec<u32> = Vec::new();
        for id in &requested {
            if !requested_dedup.contains(id) {
                requested_dedup.push(*id);
            }
        }
        let usage = get_gpu_usage(&cluster);
        let all_free = !requested_dedup.is_empty()
            && requested_dedup.iter().all(|id| usage.avail_gpus.contains(id));
        if all_free {
            prop_assert!(alloc.granted_requested);
            prop_assert_eq!(&alloc.devices, &requested_dedup);
        }
    }

    /// Free devices are always preferred over busy ones.
    #[test]
    fn allocator_prefers_free_devices(occupancy in occupancy_strategy()) {
        let cluster = cluster_with(&occupancy);
        let usage = get_gpu_usage(&cluster);
        let alloc = select_gpus(&cluster, &[], AllocationPolicy::ProcessId).unwrap();
        if !usage.avail_gpus.is_empty() {
            prop_assert_eq!(&alloc.devices, &usage.avail_gpus);
        } else {
            prop_assert_eq!(&alloc.devices, &usage.all_gpus);
        }
    }

    /// The memory policy picks a device of minimal framebuffer usage when
    /// nothing is free.
    #[test]
    fn memory_policy_is_argmin(occupancy in occupancy_strategy()) {
        prop_assume!(occupancy.iter().all(|p| !p.is_empty())); // all busy
        let cluster = cluster_with(&occupancy);
        let alloc = select_gpus(&cluster, &[], AllocationPolicy::MemoryBased).unwrap();
        prop_assert_eq!(alloc.devices.len(), 1);
        let chosen = alloc.devices[0];
        // The oracle reads NVML, a path that shares no code with the SMI
        // query the allocator decided from.
        let nvml = Nvml::init(&cluster);
        let used = |minor: u32| nvml.memory_info(minor).unwrap().used >> 20;
        let min = (0..nvml.device_count()).map(used).min().unwrap();
        prop_assert_eq!(used(chosen), min);
    }

    /// The one SMI observation agrees with NVML, device by device, on who
    /// is running and how much memory is allocated.
    #[test]
    fn gpu_usage_agrees_with_nvml(occupancy in occupancy_strategy()) {
        let cluster = cluster_with(&occupancy);
        let usage = get_gpu_usage(&cluster);
        let nvml = Nvml::init(&cluster);
        prop_assert_eq!(usage.all_gpus.len() as u32, nvml.device_count());
        for (i, &minor) in usage.all_gpus.iter().enumerate() {
            let pids: Vec<u32> =
                nvml.compute_running_processes(minor).unwrap().iter().map(|p| p.pid).collect();
            prop_assert_eq!(&usage.proc_gpu_dict[i], &(minor, pids.clone()));
            let used_mib = nvml.memory_info(minor).unwrap().used >> 20;
            prop_assert_eq!(usage.used_mib[i], (minor, used_mib));
            prop_assert_eq!(usage.avail_gpus.contains(&minor), pids.is_empty());
        }
    }

    /// CUDA_VISIBLE_DEVICES parsing: never panics, never returns
    /// out-of-range or duplicate ordinals.
    #[test]
    fn visible_devices_parsing_is_safe(s in "[0-9, a-z]{0,16}", count in 0u32..8) {
        let parsed = parse_visible_devices(Some(&s), count);
        for d in &parsed {
            prop_assert!(*d < count);
        }
        let mut dedup = parsed.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), parsed.len());
    }

    /// Window tiling covers the draft exactly, regardless of sizes.
    #[test]
    fn windows_tile_exactly(len in 1usize..5000, window in 1usize..1000) {
        let draft = random_genome(len, 42);
        let windows = build_windows(&draft, &[], &[], window);
        prop_assert_eq!(windows.iter().map(|w| w.backbone.len()).sum::<usize>(), len);
        let mut expected_start = 0;
        for w in &windows {
            prop_assert_eq!(w.start, expected_start);
            prop_assert_eq!(w.end - w.start, w.backbone.len());
            expected_start = w.end;
        }
    }

    /// POA: adding the same sequence N times always yields that sequence
    /// as consensus, and edge weights grow linearly.
    #[test]
    fn poa_consensus_of_repeats_is_identity(seq in "[ACGT]{10,60}", n in 1usize..5) {
        let mut g = PoaGraph::from_sequence(seq.as_bytes());
        for _ in 0..n {
            g.add_sequence(seq.as_bytes(), None);
        }
        prop_assert_eq!(g.consensus(), seq.clone());
        prop_assert_eq!(g.consensus_anchored(), seq.clone());
        prop_assert_eq!(g.node_count(), seq.len());
        prop_assert_eq!(g.total_edge_weight() as usize, (n + 1) * (seq.len() - 1));
    }

    /// The nvidia-smi XML stays parseable for arbitrary cluster states
    /// and round-trips the process placement.
    #[test]
    fn smi_xml_roundtrips_processes(occupancy in occupancy_strategy()) {
        let cluster = cluster_with(&occupancy);
        let usage = parse_gpu_usage(&smi::query_xml(&cluster)).unwrap();
        for (minor, procs) in occupancy.iter().enumerate() {
            prop_assert_eq!(usage.proc_gpu_dict[minor].1.len(), procs.len());
        }
    }
}

proptest! {
    /// The template engine never panics, whatever the source looks like —
    /// it either parses or returns a structured error.
    #[test]
    fn template_parse_never_panics(src in "[ -~\\n#$]{0,200}") {
        let _ = galaxy::template::Template::parse(&src);
    }

    /// A parsed template renders without panicking when every referenced
    /// variable is defined.
    #[test]
    fn template_render_never_panics_with_full_params(
        cond_val in "[a-z]{0,6}",
        body in "[a-zA-Z ]{0,20}",
    ) {
        let src = format!("#if $flag == \"yes\"\n{body} $x\n#else\nno\n#end if\n");
        let t = galaxy::template::Template::parse(&src).unwrap();
        let mut params = galaxy::ParamDict::new();
        params.set("flag", cond_val);
        params.set("x", "v");
        let rendered = t.render(&params).unwrap();
        prop_assert!(rendered == "no\n" || rendered.contains("v"));
    }

    /// FASTA round-trips arbitrary valid records at any wrap width.
    #[test]
    fn fasta_roundtrip(
        seqs in prop::collection::vec("[ACGTN]{1,80}", 1..5),
        width in 0usize..50,
    ) {
        let records: Vec<seqtools::fasta::FastaRecord> = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| seqtools::fasta::FastaRecord::new(format!("r{i}"), s.clone()))
            .collect();
        let text = seqtools::fasta::write_fasta(&records, width);
        let parsed = seqtools::fasta::parse_fasta(&text).unwrap();
        prop_assert_eq!(parsed, records);
    }

    /// Banded and full POA both produce consensus close to the truth when
    /// reads are low-error full-length copies; banding never corrupts the
    /// backbone anchoring.
    #[test]
    fn banded_poa_stays_close_to_full(seed in 0u64..50) {
        use seqtools::sim::reads::{mutate_sequence, ErrorModel};
        use rand::SeedableRng;
        let truth = random_genome(250, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabc);
        let build = |band: Option<usize>, rng: &mut rand::rngs::StdRng| {
            let mut g = PoaGraph::from_sequence(truth.as_bytes());
            for _ in 0..8 {
                let read = mutate_sequence(&truth, &ErrorModel::pacbio().scaled(0.5), rng);
                g.add_sequence(read.as_bytes(), band);
            }
            g.consensus_anchored()
        };
        let full = build(None, &mut rng);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabc);
        let banded = build(Some(100), &mut rng);
        let id_full = seqtools::align::identity(&full, &truth);
        let id_banded = seqtools::align::identity(&banded, &truth);
        prop_assert!(id_full > 0.95, "full {id_full}");
        prop_assert!(id_banded > id_full - 0.05, "banded {id_banded} vs full {id_full}");
    }

    /// The job state machine never reaches Ok without passing Running.
    #[test]
    fn job_state_machine_is_sound(transitions in prop::collection::vec(0u8..6, 0..12)) {
        use galaxy::JobState::*;
        let states = [New, Queued, Running, Ok, Error, Deleted];
        let mut job = galaxy::Job::new(1, "t", galaxy::ParamDict::new());
        let mut ran = false;
        for t in transitions {
            let target = states[t as usize];
            let before = job.state();
            if job.transition(target).is_ok() {
                // Legal edges only.
                prop_assert!(before != target);
                if target == Ok {
                    prop_assert_eq!(before, Running);
                    ran = true;
                }
                if target == Running {
                    prop_assert_eq!(before, Queued);
                }
            } else {
                prop_assert_eq!(job.state(), before, "failed transition must not change state");
            }
        }
        if job.state() == Ok {
            prop_assert!(ran);
        }
    }
}

/// Map a uniform draw in `1..=1_000_000` to a Pareto-tailed sample —
/// the shape of real footprint streams (many small peaks, a heavy
/// tail), and the worst case for fixed-width histogram designs.
fn pareto(u: u64) -> f64 {
    let uniform = u as f64 / 1_000_001.0;
    let xm = 8.0;
    let alpha = 1.3;
    (xm / (1.0 - uniform).powf(1.0 / alpha)).min(1e9)
}

proptest! {
    /// The sketch merge is exactly commutative, and associative up to
    /// float-summation order in the exact `sum` carry-along: shard
    /// sketches merged in any order give identical quantiles — the
    /// property the footprint registry's per-bucket aggregation relies
    /// on for replica-identical profiles.
    #[test]
    fn sketch_merge_is_commutative_and_associative(
        a in prop::collection::vec(1u64..1_000_000, 0..120),
        b in prop::collection::vec(1u64..1_000_000, 0..120),
        c in prop::collection::vec(1u64..1_000_000, 0..120),
    ) {
        let fill = |vals: &[u64]| {
            let mut s = obs::sketch::QuantileSketch::default();
            for &v in vals {
                s.observe(pareto(v));
            }
            s
        };
        let (sa, sb, sc) = (fill(&a), fill(&b), fill(&c));

        // Commutative: bucket counts, min/max, and the f64 sum all
        // commute, so the merged sketches are bitwise-equal structs.
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);

        // Associative: bucket counts add exactly in any grouping, so
        // every quantile matches; only the float sum may differ in the
        // last ulp.
        let mut ab_c = ab.clone();
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.count(), a_bc.count());
        prop_assert_eq!(ab_c.min(), a_bc.min());
        prop_assert_eq!(ab_c.max(), a_bc.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(ab_c.quantile(q), a_bc.quantile(q), "q={}", q);
        }
        let (s1, s2) = (ab_c.sum(), a_bc.sum());
        prop_assert!((s1 - s2).abs() <= 1e-9 * s1.abs().max(1.0), "{} vs {}", s1, s2);
    }

    /// Two sketches fed the same stream are bitwise-identical — no
    /// hidden randomness, no insertion-order sensitivity beyond the
    /// stream itself.
    #[test]
    fn sketch_is_deterministic(values in prop::collection::vec(1u64..1_000_000, 0..200)) {
        let fill = || {
            let mut s = obs::sketch::QuantileSketch::default();
            for &v in &values {
                s.observe(pareto(v));
            }
            s
        };
        prop_assert_eq!(fill(), fill());
    }

    /// Every quantile estimate is within the promised `2·alpha`
    /// relative error of the exact same-rank sample, even over a
    /// heavy-tailed stream.
    #[test]
    fn sketch_quantiles_respect_the_relative_error_bound(
        values in prop::collection::vec(1u64..1_000_000, 1..300),
    ) {
        let mut sketch = obs::sketch::QuantileSketch::default();
        let mut exact: Vec<f64> = Vec::with_capacity(values.len());
        for &v in &values {
            let x = pareto(v);
            sketch.observe(x);
            exact.push(x);
        }
        exact.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let n = exact.len();
        for q in [0.0, 0.1, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            // The sketch's rank convention: 1-based ceil(q·n), clamped.
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let truth = exact[rank - 1];
            let est = sketch.quantile(q).unwrap();
            let bound = 2.0 * sketch.alpha() * truth + 1e-9;
            prop_assert!(
                (est - truth).abs() <= bound,
                "q={} est={} truth={} bound={}", q, est, truth, bound
            );
        }
    }
}

// --- A single-node GYAN is a one-node fleet ----------------------------

/// Wrappers for the differential run: unpinned, and pinned to each
/// subset of a K80 node's two dies.
const DIFF_TOOLS: [(&str, &str); 4] = [
    ("gpu_any", ""),
    ("gpu_0", " version=\"0\""),
    ("gpu_1", " version=\"1\""),
    ("gpu_01", " version=\"0,1\""),
];

fn diff_app() -> galaxy::GalaxyApp {
    use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
    let mut app = galaxy::GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    for (id, version) in DIFF_TOOLS {
        let xml = format!(
            r#"<tool id="{id}"><requirements>
                 <requirement type="compute"{version}>gpu</requirement>
               </requirements><command>{id}</command></tool>"#
        );
        app.install_tool_xml(&xml, &galaxy::tool::macros::MacroLibrary::new()).unwrap();
    }
    app
}

proptest! {
    /// `install_gyan` on a K80 node and `install_fleet` on a fleet of one
    /// K80 node run the same hook over two placement seams; with the
    /// same allocation policy the seams must be indistinguishable. For
    /// any interleaving of GPU submissions (prepared, holding their
    /// leases), conclusions and lingering processes, every job gets the
    /// same `GALAXY_GPU_ENABLED` and `CUDA_VISIBLE_DEVICES` from both,
    /// and both hold the same number of leases after every step.
    #[test]
    fn one_node_fleet_places_like_single_node_gyan(
        steps in prop::collection::vec((0u8..4, 0usize..4, 1u64..400, any::<bool>()), 1..24),
        memory_policy in any::<bool>(),
    ) {
        use galaxy::runners::ExecutionResult;
        use gyan::setup::{install_gyan, GyanConfig};

        let policy = if memory_policy {
            AllocationPolicy::MemoryBased
        } else {
            AllocationPolicy::ProcessId
        };
        let cluster = GpuCluster::k80_node();
        let mut single = diff_app();
        let table = install_gyan(&mut single, &cluster, GyanConfig { policy, ..GyanConfig::default() });

        let mut fleeted = diff_app();
        let the_fleet = fleet::Fleet::builder()
            .nodes(fleet::NodeClass::k80(), 1)
            .allocation_policy(policy)
            .recorder(fleeted.recorder().clone())
            .build();
        fleet::install_fleet(
            &mut fleeted,
            &the_fleet,
            fleet::FleetConfig {
                gpu_destination: "local_gpu".to_string(),
                gpu_destinations: vec!["local_gpu".to_string()],
                ..fleet::FleetConfig::default()
            },
        );
        let shard = &the_fleet.shards()[0].cluster;

        let mut open: Vec<u64> = Vec::new();
        let mut pid = 5000;
        for (kind, pick, mib, ok) in steps {
            match kind {
                // Prepare a submission: mapped, placed and leased, but
                // not concluded — later steps see its leases.
                0 | 1 => {
                    let tool = DIFF_TOOLS[pick].0;
                    let id = single.create_job(tool, &galaxy::ParamDict::new()).unwrap();
                    prop_assert_eq!(fleeted.create_job(tool, &galaxy::ParamDict::new()).unwrap(), id);
                    single.prepare_plan(id, None).unwrap();
                    fleeted.prepare_plan(id, None).unwrap();
                    let (a, b) = (single.job(id).unwrap(), fleeted.job(id).unwrap());
                    for var in [gyan::GALAXY_GPU_ENABLED, gyan::CUDA_VISIBLE_DEVICES] {
                        prop_assert_eq!(a.env_var(var), b.env_var(var), "{} of job {}", var, id);
                    }
                    prop_assert_eq!(a.env_var(gyan::GALAXY_GPU_ENABLED), Some("true"));
                    open.push(id);
                }
                2 if !open.is_empty() => {
                    let id = open.remove(pick % open.len());
                    let result =
                        if ok { ExecutionResult::ok("") } else { ExecutionResult::fail(1, "boom") };
                    // A failed final attempt reports `ToolFailed`; either
                    // way the conclusion releases the job's leases.
                    prop_assert_eq!(single.finish_job(id, &result, true).is_ok(), ok);
                    prop_assert_eq!(fleeted.finish_job(id, &result, true).is_ok(), ok);
                }
                // A process outside any lease appears on a die (the
                // paper's lingering tools, Figs. 9-11); 24 of them at
                // under 400 MiB cannot fill a K80 die.
                _ => {
                    pid += 1;
                    let minor = pick as u32 % 2;
                    cluster.attach_process(minor, GpuProcess::compute(pid, "linger", mib)).unwrap();
                    shard.attach_process(minor, GpuProcess::compute(pid, "linger", mib)).unwrap();
                }
            }
            prop_assert_eq!(table.lease_count(), the_fleet.total_lease_count());
        }
        for id in open {
            single.finish_job(id, &galaxy::runners::ExecutionResult::ok(""), true).unwrap();
            fleeted.finish_job(id, &galaxy::runners::ExecutionResult::ok(""), true).unwrap();
        }
        prop_assert_eq!((table.lease_count(), the_fleet.total_lease_count()), (0, 0));
    }
}

/// The fleet path runs the same hook, so its audit trail satisfies the
/// single-node invariant too: over a queue run with GPU attempts that
/// fail and fall back to CPU, the jobs exported `GALAXY_GPU_ENABLED=true`
/// are exactly the jobs holding an audited reservation.
#[test]
fn fleet_queue_run_exports_exactly_what_it_acquired() {
    use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
    use galaxy::queue::{QueueConfig, QueueEngine, ResubmitPolicy};
    use std::sync::Arc;

    // GPU attempts of `flaky` die (exit 127), its CPU retry and `steady` run.
    let tool = |id: &str, gpu_command: &str| {
        format!(
            r#"<tool id="{id}"><requirements><requirement type="compute">gpu</requirement>
               </requirements><command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
{gpu_command}
#else
echo cpu
#end if
]]></command><outputs><data name="out" format="txt"/></outputs></tool>"#
        )
    };
    let mut app = galaxy::GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let lib = galaxy::tool::macros::MacroLibrary::new();
    app.install_tool_xml(&tool("steady", "echo gpu"), &lib).unwrap();
    app.install_tool_xml(&tool("flaky", "no_such_binary"), &lib).unwrap();
    let recorder = app.recorder().clone();
    let the_fleet = fleet::Fleet::builder()
        .nodes(fleet::NodeClass::k80(), 2)
        .recorder(recorder.clone())
        .build();
    fleet::install_fleet(
        &mut app,
        &the_fleet,
        fleet::FleetConfig {
            gpu_destination: "local_gpu".to_string(),
            gpu_destinations: vec!["local_gpu".to_string()],
            ..fleet::FleetConfig::default()
        },
    );
    let executor = Arc::new(seqtools::ToolExecutor::new(&GpuCluster::cpu_only_node()));
    let config =
        QueueConfig { resubmit: ResubmitPolicy::gpu_to_cpu("local_cpu"), ..QueueConfig::default() };
    let mut engine = QueueEngine::new(app, executor, config);
    for i in 0..12 {
        let tool = if i % 3 == 0 { "flaky" } else { "steady" };
        engine.submit_async("ada", tool, &galaxy::ParamDict::new()).unwrap();
    }
    engine.run_until_idle();

    let events = recorder.events();
    let exports = events.iter().filter(|e| e.name == "gyan.hook.export").count();
    assert!(exports > 12, "every attempt, GPU or CPU retry, audits its export: {exports}");
    simtest::invariants::export_matches_acquire(&events).expect("fleet exports match acquires");
    assert_eq!(the_fleet.total_lease_count(), 0);
}
