//! `get_gpu_usage` — the paper's Pseudocode 1, and the **single
//! observation** every allocation decision is made from.
//!
//! Pseudocode 1 runs `nvidia-smi -q -x`, parses the XML with BeautifulSoup
//! and reads three facts out of each `<gpu>`: the minor ID, the PIDs
//! executing on it (`proc_gpu_dict`, §IV-C1) and `fb_memory_usage.used`
//! (§IV-C2, "from the same query"). Those per-device rows are the
//! observation; the XML is only what carries them across a subprocess
//! boundary. [`GpuUsage`] is built from the rows by one constructor, so the
//! available/all lists, the PID dictionary and the memory readings
//! describe the same instant and cannot disagree.
//!
//! * [`try_get_gpu_usage`] / [`get_gpu_usage`] take the rows straight from
//!   the simulated driver ([`gpusim::smi::try_query_devices`]) — no text is
//!   rendered or parsed. This is the path every decision takes.
//! * [`parse_gpu_usage`] is the port of Pseudocode 1 proper, for
//!   `nvidia-smi -q -x` text that really did come from a subprocess.
//!   [`gpusim::smi::query_xml`] renders the same view the structured query
//!   reads, and a differential property test
//!   (`tests/proptest_stack.rs`) holds the two to the same [`GpuUsage`].
//!
//! Invariant: **one observation per decision; the XML is a rendering of
//! it** — the decision, the lease-blind baseline and the audit record all
//! read the same [`GpuUsage`]; nothing downstream polls again.
//!
//! Nothing here panics on what it is handed: a failed query is
//! [`GpuUsageError::QueryFailed`] and an unparseable document
//! [`GpuUsageError::Malformed`]; [`get_gpu_usage`] degrades the former to
//! the empty view (CPU fallback) and the lease table audits it by name.

use gpusim::{smi, GpuCluster};
use std::fmt;

/// Result of one GPU usage query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GpuUsage {
    /// Minor IDs of GPUs with no executing processes (`avail_gpus`).
    pub avail_gpus: Vec<u32>,
    /// All minor IDs on the host (`all_gpus`).
    pub all_gpus: Vec<u32>,
    /// The full dictionary: minor ID → PIDs of executing processes.
    pub proc_gpu_dict: Vec<(u32, Vec<u32>)>,
    /// Minor ID → `fb_memory_usage.used` in MiB — the input to the
    /// *Process Allocated Memory* approach (paper §IV-C2).
    pub used_mib: Vec<(u32, u64)>,
}

impl GpuUsage {
    /// The one constructor: per-device `(minor, pids, used MiB)` rows in
    /// document order.
    pub(crate) fn from_devices(devices: impl IntoIterator<Item = smi::DeviceRow>) -> Self {
        let devices = devices.into_iter();
        // Every caller hands in an exactly-sized iterator (a `Vec` of
        // rows): each list is allocated once.
        let count = devices.size_hint().0;
        let mut usage = GpuUsage {
            avail_gpus: Vec::with_capacity(count),
            all_gpus: Vec::with_capacity(count),
            proc_gpu_dict: Vec::with_capacity(count),
            used_mib: Vec::with_capacity(count),
        };
        // for (x, y) in proc_gpu_dict: all.append(x); if y empty: avail.append(x)
        for (minor, pids, used) in devices {
            usage.all_gpus.push(minor);
            if pids.is_empty() {
                usage.avail_gpus.push(minor);
            }
            usage.proc_gpu_dict.push((minor, pids));
            usage.used_mib.push((minor, used));
        }
        usage
    }
}

/// Why a node could not be observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuUsageError {
    /// The `nvidia-smi` invocation itself failed.
    QueryFailed(smi::SmiError),
    /// `nvidia-smi` answered, but not with a document this parser accepts.
    Malformed(String),
}

impl GpuUsageError {
    /// Stable `reason` of the `gyan.allocation.decision` audit.
    pub fn reason(&self) -> &'static str {
        match self {
            GpuUsageError::QueryFailed(_) => "smi_query_failed",
            GpuUsageError::Malformed(_) => "smi_output_malformed",
        }
    }
}

impl fmt::Display for GpuUsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuUsageError::QueryFailed(e) => e.fmt(f),
            GpuUsageError::Malformed(why) => write!(f, "malformed nvidia-smi output: {why}"),
        }
    }
}

impl std::error::Error for GpuUsageError {}

/// Query GPU usage — the observation of the paper's Pseudocode 1.
///
/// A failed query degrades the way the Python original does when the
/// subprocess dies: every list comes back empty and downstream mapping
/// falls through to the CPU path.
pub fn get_gpu_usage(cluster: &GpuCluster) -> GpuUsage {
    try_get_gpu_usage(cluster).unwrap_or_default()
}

/// Fallible [`get_gpu_usage`]: surfaces a failed query instead of
/// degrading to an empty view.
pub fn try_get_gpu_usage(cluster: &GpuCluster) -> Result<GpuUsage, GpuUsageError> {
    obs::profile_scope!("smi.query");
    smi::try_query_devices(cluster).map(GpuUsage::from_devices).map_err(GpuUsageError::QueryFailed)
}

/// Pseudocode 1 over `nvidia-smi -q -x` text: the walker for a document
/// that came from a subprocess rather than from [`try_get_gpu_usage`]'s
/// structured query. A `<gpu>` without `<processes>` has no PIDs and one
/// whose `used` is not `<n> MiB` (e.g. `N/A`) reads 0 MiB; an unparseable
/// document or a `<gpu>` without a numeric `minor_number` is an error.
pub fn parse_gpu_usage(xml: &str) -> Result<GpuUsage, GpuUsageError> {
    // soup = bs(out, "lxml")
    let doc = {
        obs::profile_scope!("smi.parse_xml");
        xmlparse::parse(xml).map_err(|e| GpuUsageError::Malformed(e.to_string()))?
    };
    // gpu_find = soup.find("nvidia_smi_log").find_all("gpu")
    let mut devices = Vec::new();
    for gpu in doc.root().find_all("gpu") {
        let minor: u32 =
            gpu.find_text("minor_number").and_then(|t| t.parse().ok()).ok_or_else(|| {
                GpuUsageError::Malformed("gpu element without a numeric minor_number".into())
            })?;
        // process_find = p.find("processes").find_all("process_info")
        let mut pids = Vec::new();
        if let Some(processes) = gpu.find("processes") {
            for proc_info in processes.find_all("process_info") {
                if let Some(pid) = proc_info.find_text("pid").and_then(|t| t.parse().ok()) {
                    pids.push(pid);
                }
            }
        }
        let used = gpu
            .find("fb_memory_usage")
            .and_then(|fb| fb.find_text("used"))
            .and_then(|t| t.trim_end_matches(" MiB").parse().ok())
            .unwrap_or(0);
        devices.push((minor, pids, used));
    }
    Ok(GpuUsage::from_devices(devices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::GpuProcess;

    #[test]
    fn idle_cluster_all_available() {
        let c = GpuCluster::k80_node();
        let usage = get_gpu_usage(&c);
        assert_eq!(usage.all_gpus, vec![0, 1]);
        assert_eq!(usage.avail_gpus, vec![0, 1]);
        assert_eq!(usage.proc_gpu_dict, vec![(0, vec![]), (1, vec![])]);
    }

    #[test]
    fn busy_gpu_excluded_from_available() {
        let c = GpuCluster::k80_node();
        c.attach_process(1, GpuProcess::compute(40534, "/usr/bin/racon_gpu", 60)).unwrap();
        let usage = get_gpu_usage(&c);
        assert_eq!(usage.all_gpus, vec![0, 1]);
        assert_eq!(usage.avail_gpus, vec![0]);
        assert_eq!(usage.proc_gpu_dict[1], (1, vec![40534]));
    }

    #[test]
    fn multiple_pids_collected_per_gpu() {
        let c = GpuCluster::k80_node();
        for pid in [39953, 41105, 41872] {
            c.attach_process(0, GpuProcess::compute(pid, "/usr/bin/racon_gpu", 60)).unwrap();
        }
        let usage = get_gpu_usage(&c);
        assert_eq!(usage.proc_gpu_dict[0].1, vec![39953, 41105, 41872]);
        assert_eq!(usage.avail_gpus, vec![1]);
    }

    #[test]
    fn memory_usage_reflects_allocations() {
        let c = GpuCluster::k80_node();
        c.attach_process(0, GpuProcess::compute(1, "racon", 60)).unwrap();
        c.attach_process(1, GpuProcess::compute(2, "bonito", 2734 - 63)).unwrap();
        // Driver reservation (63 MiB) + process memory, from the same
        // observation as the PID lists.
        let usage = get_gpu_usage(&c);
        assert_eq!(usage.used_mib, vec![(0, 123), (1, 2734)]);
        assert_eq!(usage.proc_gpu_dict, vec![(0, vec![1]), (1, vec![2])]);
    }

    #[test]
    fn no_gpu_node_yields_empty_lists() {
        let c = GpuCluster::cpu_only_node();
        assert_eq!(get_gpu_usage(&c), GpuUsage::default());
    }

    #[test]
    fn injected_smi_failure_degrades_to_empty_usage() {
        let c = GpuCluster::k80_node();
        c.inject_smi_query_failures(2);
        let err = try_get_gpu_usage(&c).unwrap_err();
        assert_eq!(err.reason(), "smi_query_failed");
        assert!(err.to_string().contains("NVIDIA-SMI has failed"), "{err}");
        // The infallible entry point swallows the fault and reports no
        // GPUs — the same shape as a CPU-only node.
        assert_eq!(get_gpu_usage(&c), GpuUsage::default());
        // Budget spent: the next query sees the real devices again.
        assert_eq!(get_gpu_usage(&c).all_gpus, vec![0, 1]);
    }

    #[test]
    fn frozen_snapshot_reports_stale_availability() {
        let c = GpuCluster::k80_node();
        c.freeze_smi_snapshot();
        c.attach_process(0, GpuProcess::compute(9, "sneaky", 100)).unwrap();
        assert_eq!(get_gpu_usage(&c).avail_gpus, vec![0, 1], "stale view misses the attach");
        c.thaw_smi_snapshot();
        assert_eq!(get_gpu_usage(&c).avail_gpus, vec![1]);
    }

    // ---- the parser, fed text directly ----------------------------------

    /// One `<gpu>` the way `nvidia-smi -q -x` writes it (abridged to the
    /// tags around the ones the walker reads).
    fn gpu_xml(minor: &str, used: &str, processes: Option<&[u32]>) -> String {
        let processes = processes.map_or(String::new(), |pids| {
            let infos: String = pids
                .iter()
                .map(|pid| {
                    format!(
                        "<process_info><pid>{pid}</pid><type>C</type>\
                         <used_memory>60 MiB</used_memory></process_info>"
                    )
                })
                .collect();
            format!("<processes>{infos}</processes>")
        });
        format!(
            "<gpu id=\"00000000:05:00.0\"><product_name>Tesla K80</product_name>\
             <minor_number>{minor}</minor_number>\
             <fb_memory_usage><total>11441 MiB</total><used>{used}</used>\
             <free>0 MiB</free></fb_memory_usage>{processes}</gpu>"
        )
    }

    fn smi_log(gpus: &[String]) -> String {
        format!(
            "<?xml version=\"1.0\" ?>\n<nvidia_smi_log><attached_gpus>{}</attached_gpus>{}</nvidia_smi_log>",
            gpus.len(),
            gpus.concat()
        )
    }

    fn malformed(xml: &str) -> String {
        let err = parse_gpu_usage(xml).unwrap_err();
        assert_eq!(err.reason(), "smi_output_malformed", "{err}");
        err.to_string()
    }

    #[test]
    fn hand_written_two_gpu_k80_document() {
        // The paper's Case 4 node: Racon on GPU 0, Bonito on GPU 1.
        let xml = r#"<?xml version="1.0" ?>
<!DOCTYPE nvidia_smi_log SYSTEM "nvsmi_device_v11.dtd">
<nvidia_smi_log>
  <timestamp>Mon Mar  1 12:00:00 2021</timestamp>
  <driver_version>455.45.01</driver_version>
  <cuda_version>11.1</cuda_version>
  <attached_gpus>2</attached_gpus>
  <gpu id="00000000:05:00.0">
    <product_name>Tesla K80</product_name>
    <minor_number>0</minor_number>
    <fb_memory_usage>
      <total>11441 MiB</total>
      <used>123 MiB</used>
      <free>11318 MiB</free>
    </fb_memory_usage>
    <processes>
      <process_info>
        <pid>43244</pid>
        <type>C</type>
        <process_name>/usr/bin/racon_gpu</process_name>
        <used_memory>60 MiB</used_memory>
      </process_info>
    </processes>
  </gpu>
  <gpu id="00000000:06:00.0">
    <product_name>Tesla K80</product_name>
    <minor_number>1</minor_number>
    <fb_memory_usage>
      <total>11441 MiB</total>
      <used>2763 MiB</used>
      <free>8678 MiB</free>
    </fb_memory_usage>
    <processes>
      <process_info>
        <pid>45751</pid>
        <type>C</type>
        <process_name>/usr/bin/bonito</process_name>
        <used_memory>2700 MiB</used_memory>
      </process_info>
      <process_info>
        <pid>45752</pid>
        <type>C</type>
        <process_name>/usr/bin/bonito</process_name>
        <used_memory>0 MiB</used_memory>
      </process_info>
    </processes>
  </gpu>
</nvidia_smi_log>
"#;
        assert_eq!(
            parse_gpu_usage(xml).unwrap(),
            GpuUsage {
                avail_gpus: vec![],
                all_gpus: vec![0, 1],
                proc_gpu_dict: vec![(0, vec![43244]), (1, vec![45751, 45752])],
                used_mib: vec![(0, 123), (1, 2763)],
            }
        );
    }

    #[test]
    fn simulator_output_parses_to_what_the_cluster_holds() {
        let c = GpuCluster::k80_node();
        c.attach_process(1, GpuProcess::compute(7, "tool", 500)).unwrap();
        assert_eq!(parse_gpu_usage(&smi::query_xml(&c)).unwrap(), get_gpu_usage(&c));
    }

    #[test]
    fn truncated_document_is_an_error_not_a_panic() {
        let full = smi::query_xml(&GpuCluster::k80_node());
        let full = full.trim_end();
        // Every proper prefix leaves a tag or the root open.
        for (cut, _) in full.char_indices().filter(|(i, _)| i % 97 == 0) {
            malformed(&full[..cut]);
        }
        assert!(malformed(&full[..full.len() / 2]).contains("malformed nvidia-smi output"));
        assert!(malformed("").contains("malformed"));
    }

    #[test]
    fn garbled_tag_is_an_error() {
        let good = smi_log(&[gpu_xml("0", "63 MiB", Some(&[]))]);
        assert!(parse_gpu_usage(&good).is_ok());
        malformed(&good.replace("</minor_number>", "</minor_numbre>"));
        malformed(&good.replace("<fb_memory_usage>", "<fb_memory_usage"));
        malformed("NVIDIA-SMI has failed because it couldn't communicate with the NVIDIA driver.");
    }

    #[test]
    fn gpu_without_a_numeric_minor_number_is_an_error() {
        assert!(
            malformed(&smi_log(&[gpu_xml("N/A", "63 MiB", Some(&[]))])).contains("minor_number")
        );
        let missing = smi_log(&[gpu_xml("0", "63 MiB", Some(&[]))])
            .replace("<minor_number>0</minor_number>", "");
        assert!(malformed(&missing).contains("minor_number"));
    }

    #[test]
    fn missing_processes_section_reads_as_no_pids() {
        let usage = parse_gpu_usage(&smi_log(&[gpu_xml("0", "63 MiB", None)])).unwrap();
        assert_eq!(usage, GpuUsage::from_devices([(0, vec![], 63)]));
        assert_eq!(usage.avail_gpus, vec![0]);
    }

    #[test]
    fn used_memory_not_available_reads_zero() {
        let xml = smi_log(&[gpu_xml("0", "N/A", Some(&[11])), gpu_xml("1", "70 MiB", Some(&[]))]);
        let usage = parse_gpu_usage(&xml).unwrap();
        assert_eq!(usage.used_mib, vec![(0, 0), (1, 70)]);
        assert_eq!(usage.avail_gpus, vec![1]);
    }

    #[test]
    fn non_contiguous_minors_keep_document_order() {
        let xml = smi_log(&[
            gpu_xml("0", "63 MiB", Some(&[])),
            gpu_xml("2", "900 MiB", Some(&[5, 6])),
            gpu_xml("5", "64 MiB", Some(&[])),
        ]);
        assert_eq!(
            parse_gpu_usage(&xml).unwrap(),
            GpuUsage {
                avail_gpus: vec![0, 5],
                all_gpus: vec![0, 2, 5],
                proc_gpu_dict: vec![(0, vec![]), (2, vec![5, 6]), (5, vec![])],
                used_mib: vec![(0, 63), (2, 900), (5, 64)],
            }
        );
    }

    #[test]
    fn document_without_gpus_is_the_empty_view() {
        let usage = parse_gpu_usage(&smi_log(&[])).unwrap();
        assert_eq!(usage, GpuUsage::default());
    }
}
