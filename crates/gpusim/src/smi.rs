//! `nvidia-smi` emulator.
//!
//! Every emitter here reads one thing: the *effective* SMI view, walked by
//! reference through [`GpuCluster::for_each_smi_device`] (the frozen
//! snapshot while a stale-view fault is armed, live devices otherwise).
//!
//! * [`try_query_devices`] — the structured observation: one
//!   `(minor_number, pids, fb_used_mib)` row per device. This is what an
//!   allocation decision is made from — one observation per decision; the
//!   XML is a rendering of it.
//! * [`query_xml`] — the same view rendered as the `nvidia-smi -q -x` XML
//!   document that GYAN's `get_gpu_usage` (Pseudocode 1) parses with
//!   BeautifulSoup. Tag names (`nvidia_smi_log`, `gpu`, `minor_number`,
//!   `fb_memory_usage`, `processes`, `process_info`, `pid`,
//!   `used_memory`) match the real tool so the GYAN-side parser is a
//!   faithful port, and the text is pinned byte for byte by a golden test.
//! * [`query_plain`] / [`render_table`] — the human-readable renderings,
//!   the latter the console table of the paper's Figs. 10 and 11.

use crate::cluster::GpuCluster;
use crate::device::DeviceState;
use xmlparse::{write_document, Document, Element, WriteOptions};

/// A failed `nvidia-smi` invocation — the simulated equivalent of the
/// subprocess dying or the driver refusing the query. Only produced when
/// a scenario arms failures via
/// [`GpuCluster::inject_smi_query_failures`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmiError {
    message: String,
}

impl SmiError {
    fn query_failed() -> Self {
        SmiError { message: "NVIDIA-SMI has failed: injected query fault".to_string() }
    }
}

impl std::fmt::Display for SmiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SmiError {}

/// One device of a structured SMI observation, in the order
/// `(minor_number, pids, fb_used_mib)`: what Pseudocode 1 reads out of a
/// `<gpu>` element — `minor_number`, the `pid` of every `process_info`,
/// and `fb_memory_usage.used`.
pub type DeviceRow = (u32, Vec<u32>, u64);

/// The structured SMI query: one [`DeviceRow`] per device of the effective
/// (possibly frozen) view, in minor order. Consumes one armed query
/// failure if any is pending, exactly as [`try_query_xml`] does.
pub fn try_query_devices(cluster: &GpuCluster) -> Result<Vec<DeviceRow>, SmiError> {
    if cluster.take_smi_query_failure() {
        return Err(SmiError::query_failed());
    }
    let mut rows = Vec::with_capacity(cluster.device_count() as usize);
    cluster.for_each_smi_device(|dev| {
        let pids = dev.processes().iter().map(|p| p.pid).collect();
        rows.push((dev.minor_number, pids, dev.fb_used_mib()));
    });
    Ok(rows)
}

/// Fallible variant of [`query_xml`]: consumes one armed query failure if
/// any is pending, otherwise renders the effective (possibly frozen)
/// view.
pub fn try_query_xml(cluster: &GpuCluster) -> Result<String, SmiError> {
    if cluster.take_smi_query_failure() {
        return Err(SmiError::query_failed());
    }
    Ok(query_xml(cluster))
}

/// Render the effective SMI view as the `nvidia-smi -q -x` XML document.
pub fn query_xml(cluster: &GpuCluster) -> String {
    obs::profile_scope!("smi.render_xml");
    let mut log = Element::new("nvidia_smi_log");
    log.push_element(
        Element::new("timestamp").with_text(format!("t={:.3}s", cluster.clock().now())),
    );
    log.push_element(Element::new("driver_version").with_text(cluster.driver_version()));
    log.push_element(Element::new("cuda_version").with_text(cluster.cuda_version()));
    // The frozen view is a copy of every device, so the count is the node's.
    log.push_element(Element::new("attached_gpus").with_text(cluster.device_count().to_string()));
    cluster.for_each_smi_device(|dev| log.push_element(gpu_element(dev)));
    let mut doc = Document::new(log);
    doc.prolog.push("xml version=\"1.0\" encoding=\"UTF-8\"".to_string());
    write_document(&doc, &WriteOptions::pretty())
}

fn gpu_element(dev: &DeviceState) -> Element {
    let mut gpu = Element::new("gpu").with_attr("id", dev.bus_id.clone());
    gpu.push_element(Element::new("product_name").with_text(dev.arch.name));
    gpu.push_element(Element::new("uuid").with_text(dev.uuid.clone()));
    gpu.push_element(Element::new("minor_number").with_text(dev.minor_number.to_string()));
    gpu.push_element(Element::new("performance_state").with_text(dev.perf_state()));

    let fb = Element::new("fb_memory_usage")
        .with_child(Element::new("total").with_text(format!("{} MiB", dev.fb_total_mib())))
        .with_child(Element::new("used").with_text(format!("{} MiB", dev.fb_used_mib())))
        .with_child(Element::new("free").with_text(format!("{} MiB", dev.fb_free_mib())));
    gpu.push_element(fb);

    let util = Element::new("utilization")
        .with_child(Element::new("gpu_util").with_text(format!("{:.0} %", dev.sm_utilization)))
        .with_child(Element::new("memory_util").with_text(format!("{:.0} %", dev.mem_utilization)));
    gpu.push_element(util);

    let temp = Element::new("temperature")
        .with_child(Element::new("gpu_temp").with_text(format!("{:.0} C", dev.temperature_c)));
    gpu.push_element(temp);

    let power = Element::new("power_readings")
        .with_child(Element::new("power_draw").with_text(format!("{:.2} W", dev.power_draw_w())))
        .with_child(
            Element::new("power_limit").with_text(format!("{:.2} W", dev.arch.power_limit_w)),
        );
    gpu.push_element(power);

    let pcie = Element::new("pci").with_child(
        Element::new("pci_gpu_link_info").with_child(
            Element::new("pcie_gen")
                .with_child(
                    Element::new("current_link_gen").with_text(dev.pcie_link_gen.to_string()),
                )
                .with_child(Element::new("max_link_gen").with_text(dev.arch.pcie_gen.to_string())),
        ),
    );
    gpu.push_element(pcie);

    let mut processes = Element::new("processes");
    for p in dev.processes() {
        processes.push_element(
            Element::new("process_info")
                .with_child(Element::new("pid").with_text(p.pid.to_string()))
                .with_child(Element::new("type").with_text(p.ptype.code()))
                .with_child(Element::new("process_name").with_text(p.name.clone()))
                .with_child(Element::new("used_memory").with_text(format!("{} MiB", p.used_mib))),
        );
    }
    gpu.push_element(processes);
    gpu
}

/// Render the verbose per-device report of `nvidia-smi -q` (plain text,
/// no `-x`): the human-readable sibling of [`query_xml`].
pub fn query_plain(cluster: &GpuCluster) -> String {
    let mut out = String::new();
    out.push_str(
        "==============NVSMI LOG==============

",
    );
    out.push_str(&format!(
        "Timestamp                                 : t={:.3}s
",
        cluster.clock().now()
    ));
    out.push_str(&format!(
        "Driver Version                            : {}
",
        cluster.driver_version()
    ));
    out.push_str(&format!(
        "CUDA Version                              : {}

",
        cluster.cuda_version()
    ));
    out.push_str(&format!(
        "Attached GPUs                             : {}
",
        cluster.device_count()
    ));
    cluster.for_each_smi_device(|dev| {
        out.push_str(&format!(
            "GPU {}
",
            dev.bus_id
        ));
        out.push_str(&format!(
            "    Product Name                          : {}
",
            dev.arch.name
        ));
        out.push_str(&format!(
            "    Minor Number                          : {}
",
            dev.minor_number
        ));
        out.push_str(&format!(
            "    GPU UUID                              : {}
",
            dev.uuid
        ));
        out.push_str(&format!(
            "    Performance State                     : {}
",
            dev.perf_state()
        ));
        out.push_str(
            "    FB Memory Usage
",
        );
        out.push_str(&format!(
            "        Total                             : {} MiB
",
            dev.fb_total_mib()
        ));
        out.push_str(&format!(
            "        Used                              : {} MiB
",
            dev.fb_used_mib()
        ));
        out.push_str(&format!(
            "        Free                              : {} MiB
",
            dev.fb_free_mib()
        ));
        out.push_str(
            "    Utilization
",
        );
        out.push_str(&format!(
            "        Gpu                               : {:.0} %
",
            dev.sm_utilization
        ));
        out.push_str(&format!(
            "        Memory                            : {:.0} %
",
            dev.mem_utilization
        ));
        out.push_str(
            "    Processes
",
        );
        if dev.processes().is_empty() {
            out.push_str(
                "        None
",
            );
        }
        for p in dev.processes() {
            out.push_str(&format!(
                "        Process ID                        : {}
            Type                          : {}
            Name                          : {}
            Used GPU Memory               : {} MiB
",
                p.pid,
                p.ptype.code(),
                p.name,
                p.used_mib
            ));
        }
    });
    out
}

/// Render the console table shown by plain `nvidia-smi` (the format the
/// paper's Figs. 10 and 11 screenshot).
pub fn render_table(cluster: &GpuCluster) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "+-----------------------------------------------------------------------------+\n\
         | NVIDIA-SMI {:<11} Driver Version: {:<11} CUDA Version: {:<8}    |\n\
         |-------------------------------+----------------------+----------------------+\n\
         | GPU  Name        Persistence-M| Bus-Id        Disp.A | Volatile Uncorr. ECC |\n\
         | Fan  Temp  Perf  Pwr:Usage/Cap|         Memory-Usage | GPU-Util  Compute M. |\n\
         |===============================+======================+======================|\n",
        cluster.driver_version(),
        cluster.driver_version(),
        cluster.cuda_version()
    ));
    // One walk fills both blocks, so they describe the same instant.
    let mut processes = String::new();
    cluster.for_each_smi_device(|dev| {
        out.push_str(&format!(
            "| {:>3}  {:<12}     Off  | {} Off |                    0 |\n",
            dev.minor_number, dev.arch.name, dev.bus_id
        ));
        out.push_str(&format!(
            "| N/A  {:>3.0}C  {:<4} {:>3.0}W / {:>3.0}W | {:>9} / {:>8} | {:>6.0}%      Default |\n",
            dev.temperature_c,
            dev.perf_state(),
            dev.power_draw_w(),
            dev.arch.power_limit_w,
            format!("{}MiB", dev.fb_used_mib()),
            format!("{}MiB", dev.fb_total_mib()),
            dev.sm_utilization
        ));
        out.push_str(
            "+-------------------------------+----------------------+----------------------+\n",
        );
        for p in dev.processes() {
            processes.push_str(&format!(
                "| {:>4}   N/A  N/A  {:>9}    {:>3}   {:<29} {:>7}MiB |\n",
                dev.minor_number,
                p.pid,
                p.ptype.code(),
                p.name,
                p.used_mib
            ));
        }
    });
    out.push('\n');
    out.push_str(
        "+-----------------------------------------------------------------------------+\n\
         | Processes:                                                                  |\n\
         |  GPU   GI   CI        PID   Type   Process name                  GPU Memory |\n\
         |        ID   ID                                                   Usage      |\n\
         |=============================================================================|\n",
    );
    if processes.is_empty() {
        processes.push_str(
            "|  No running processes found                                                 |\n",
        );
    }
    out.push_str(&processes);
    out.push_str(
        "+-----------------------------------------------------------------------------+\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::GpuProcess;
    use xmlparse::parse;

    /// `query_xml` of a K80 node at clock 0 with one process on minor 1,
    /// captured before the renderer moved onto the by-reference walk:
    /// every byte the paper's parser could see.
    const GOLDEN_QUERY_XML: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<nvidia_smi_log>
  <timestamp>t=0.000s</timestamp>
  <driver_version>455.45.01</driver_version>
  <cuda_version>11.1</cuda_version>
  <attached_gpus>2</attached_gpus>
  <gpu id="00000000:05:00.0">
    <product_name>Tesla K80</product_name>
    <uuid>GPU-00006b80-sim-0000</uuid>
    <minor_number>0</minor_number>
    <performance_state>P8</performance_state>
    <fb_memory_usage>
      <total>11441 MiB</total>
      <used>63 MiB</used>
      <free>11378 MiB</free>
    </fb_memory_usage>
    <utilization>
      <gpu_util>0 %</gpu_util>
      <memory_util>0 %</memory_util>
    </utilization>
    <temperature>
      <gpu_temp>36 C</gpu_temp>
    </temperature>
    <power_readings>
      <power_draw>60.00 W</power_draw>
      <power_limit>149.00 W</power_limit>
    </power_readings>
    <pci>
      <pci_gpu_link_info>
        <pcie_gen>
          <current_link_gen>1</current_link_gen>
          <max_link_gen>3</max_link_gen>
        </pcie_gen>
      </pci_gpu_link_info>
    </pci>
    <processes/>
  </gpu>
  <gpu id="00000000:06:00.0">
    <product_name>Tesla K80</product_name>
    <uuid>GPU-00006b81-sim-0001</uuid>
    <minor_number>1</minor_number>
    <performance_state>P0</performance_state>
    <fb_memory_usage>
      <total>11441 MiB</total>
      <used>123 MiB</used>
      <free>11318 MiB</free>
    </fb_memory_usage>
    <utilization>
      <gpu_util>0 %</gpu_util>
      <memory_util>0 %</memory_util>
    </utilization>
    <temperature>
      <gpu_temp>36 C</gpu_temp>
    </temperature>
    <power_readings>
      <power_draw>60.00 W</power_draw>
      <power_limit>149.00 W</power_limit>
    </power_readings>
    <pci>
      <pci_gpu_link_info>
        <pcie_gen>
          <current_link_gen>3</current_link_gen>
          <max_link_gen>3</max_link_gen>
        </pcie_gen>
      </pci_gpu_link_info>
    </pci>
    <processes>
      <process_info>
        <pid>40534</pid>
        <type>C</type>
        <process_name>/usr/bin/racon_gpu</process_name>
        <used_memory>60 MiB</used_memory>
      </process_info>
    </processes>
  </gpu>
</nvidia_smi_log>
"#;

    /// `render_table` of the paper's Fig. 10 state: Racon on GPU 0, Bonito
    /// on GPU 1 (123 MiB and 2734 MiB used).
    const GOLDEN_FIG10_TABLE: &str = r#"+-----------------------------------------------------------------------------+
| NVIDIA-SMI 455.45.01   Driver Version: 455.45.01   CUDA Version: 11.1        |
|-------------------------------+----------------------+----------------------+
| GPU  Name        Persistence-M| Bus-Id        Disp.A | Volatile Uncorr. ECC |
| Fan  Temp  Perf  Pwr:Usage/Cap|         Memory-Usage | GPU-Util  Compute M. |
|===============================+======================+======================|
|   0  Tesla K80        Off  | 00000000:05:00.0 Off |                    0 |
| N/A   36C  P0    60W / 149W |    123MiB / 11441MiB |      0%      Default |
+-------------------------------+----------------------+----------------------+
|   1  Tesla K80        Off  | 00000000:06:00.0 Off |                    0 |
| N/A   36C  P0    60W / 149W |   2734MiB / 11441MiB |      0%      Default |
+-------------------------------+----------------------+----------------------+

+-----------------------------------------------------------------------------+
| Processes:                                                                  |
|  GPU   GI   CI        PID   Type   Process name                  GPU Memory |
|        ID   ID                                                   Usage      |
|=============================================================================|
|    0   N/A  N/A      43244      C   /usr/bin/racon_gpu                 60MiB |
|    1   N/A  N/A      45751      C   /usr/bin/bonito                  2671MiB |
+-----------------------------------------------------------------------------+
"#;

    #[test]
    fn query_xml_is_byte_identical_to_the_golden_document() {
        let c = GpuCluster::k80_node();
        c.attach_process(1, GpuProcess::compute(40534, "/usr/bin/racon_gpu", 60)).unwrap();
        assert_eq!(query_xml(&c), GOLDEN_QUERY_XML);
    }

    #[test]
    fn render_table_is_byte_identical_to_the_fig10_golden() {
        let c = GpuCluster::k80_node();
        c.attach_process(0, GpuProcess::compute(43244, "/usr/bin/racon_gpu", 60)).unwrap();
        c.attach_process(1, GpuProcess::compute(45751, "/usr/bin/bonito", 2671)).unwrap();
        assert_eq!(render_table(&c), GOLDEN_FIG10_TABLE);
    }

    #[test]
    fn structured_query_yields_one_row_per_device_of_the_effective_view() {
        let c = GpuCluster::k80_node();
        c.attach_process(1, GpuProcess::compute(40534, "/usr/bin/racon_gpu", 60)).unwrap();
        assert_eq!(try_query_devices(&c).unwrap(), [(0, vec![], 63), (1, vec![40534], 123)]);
        c.freeze_smi_snapshot();
        c.attach_process(0, GpuProcess::compute(99, "late_proc", 500)).unwrap();
        assert_eq!(try_query_devices(&c).unwrap()[0], (0, vec![], 63), "stale view");
        c.thaw_smi_snapshot();
        assert_eq!(try_query_devices(&c).unwrap()[0], (0, vec![99], 563));
        assert!(try_query_devices(&GpuCluster::cpu_only_node()).unwrap().is_empty());
    }

    #[test]
    fn structured_and_xml_queries_draw_on_one_failure_budget() {
        let c = GpuCluster::k80_node();
        c.inject_smi_query_failures(2);
        assert_eq!(try_query_devices(&c).unwrap_err(), try_query_xml(&c).unwrap_err());
        assert!(try_query_devices(&c).is_ok() && try_query_xml(&c).is_ok(), "budget spent");
    }

    #[test]
    fn xml_parses_and_has_expected_structure() {
        let c = GpuCluster::k80_node();
        c.attach_process(0, GpuProcess::compute(39953, "/usr/bin/racon_gpu", 60)).unwrap();
        let xml = query_xml(&c);
        let doc = parse(&xml).unwrap();
        let root = doc.root();
        assert_eq!(root.name(), "nvidia_smi_log");
        let gpus = root.find_all("gpu");
        assert_eq!(gpus.len(), 2);
        assert_eq!(gpus[0].find_text("minor_number").unwrap(), "0");
        assert_eq!(gpus[1].find_text("minor_number").unwrap(), "1");
        // Device 0 has one process, device 1 none.
        assert_eq!(gpus[0].find_all("process_info").len(), 1);
        assert!(gpus[1].find_all("process_info").is_empty());
        let pid = gpus[0].find("process_info").unwrap().find_text("pid").unwrap();
        assert_eq!(pid, "39953");
    }

    #[test]
    fn xml_memory_fields_use_mib_suffix() {
        let c = GpuCluster::k80_node();
        let xml = query_xml(&c);
        let doc = parse(&xml).unwrap();
        let fb = doc.root().find("fb_memory_usage").unwrap();
        assert_eq!(fb.find_text("total").unwrap(), "11441 MiB");
        assert_eq!(fb.find_text("used").unwrap(), "63 MiB");
    }

    #[test]
    fn xml_is_parseable_via_find_all_like_pseudocode1() {
        // Re-enact the paper's Pseudocode 1 parsing loop directly.
        let c = GpuCluster::k80_node();
        c.attach_process(1, GpuProcess::compute(40534, "/usr/bin/racon_gpu", 60)).unwrap();
        let doc = parse(&query_xml(&c)).unwrap();
        let mut avail = Vec::new();
        let mut all = Vec::new();
        for gpu in doc.root().find_all("gpu") {
            let minor: u32 = gpu.find_text("minor_number").unwrap().parse().unwrap();
            all.push(minor);
            if gpu.find_all("process_info").is_empty() {
                avail.push(minor);
            }
        }
        assert_eq!(all, vec![0, 1]);
        assert_eq!(avail, vec![0]);
    }

    #[test]
    fn table_contains_header_and_processes() {
        let c = GpuCluster::k80_node();
        c.attach_process(0, GpuProcess::compute(39953, "/usr/bin/racon_gpu", 60)).unwrap();
        let t = render_table(&c);
        assert!(t.contains("NVIDIA-SMI 455.45.01"));
        assert!(t.contains("CUDA Version: 11.1"));
        assert!(t.contains("Tesla K80"));
        assert!(t.contains("39953"));
        assert!(t.contains("/usr/bin/racon_gpu"));
        assert!(t.contains("11441MiB"));
    }

    #[test]
    fn table_reports_no_processes_when_idle() {
        let c = GpuCluster::k80_node();
        assert!(render_table(&c).contains("No running processes found"));
    }

    #[test]
    fn injected_failure_errors_once_then_recovers() {
        let c = GpuCluster::k80_node();
        c.inject_smi_query_failures(1);
        let err = try_query_xml(&c).unwrap_err();
        assert!(err.to_string().contains("NVIDIA-SMI has failed"), "{err}");
        // The budget is spent: the next query succeeds and parses.
        let xml = try_query_xml(&c).unwrap();
        assert!(parse(&xml).is_ok());
    }

    #[test]
    fn frozen_snapshot_serves_stale_but_well_formed_xml() {
        let c = GpuCluster::k80_node();
        c.freeze_smi_snapshot();
        c.attach_process(0, GpuProcess::compute(99, "late_proc", 500)).unwrap();
        let doc = parse(&query_xml(&c)).unwrap();
        let gpus = doc.root().find_all("gpu");
        assert!(gpus[0].find_all("process_info").is_empty(), "stale view predates attach");
        c.thaw_smi_snapshot();
        let doc = parse(&query_xml(&c)).unwrap();
        assert_eq!(doc.root().find_all("gpu")[0].find_all("process_info").len(), 1);
    }

    #[test]
    fn plain_query_lists_devices_and_processes() {
        let c = GpuCluster::k80_node();
        c.attach_process(1, GpuProcess::compute(40534, "/usr/bin/racon_gpu", 60)).unwrap();
        let q = query_plain(&c);
        assert!(q.contains("NVSMI LOG"));
        assert!(q.contains("Attached GPUs                             : 2"));
        assert!(q.contains("Minor Number                          : 0"));
        assert!(q.contains("Minor Number                          : 1"));
        assert!(q.contains("Process ID                        : 40534"));
        assert!(q.contains("Used GPU Memory               : 60 MiB"));
        // Idle device 0 shows no processes.
        assert!(q.contains("None"));
    }
}
