//! A fully wired GYAN testbed: the simulated K80 node, a Galaxy app with
//! the GYAN rule/hook/mutators installed, the tool executor, and the
//! canonical Racon/Bonito tool wrappers.

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::runners::container_cmd::VolumeBind;
use galaxy::tool::macros::MacroLibrary;
use galaxy::{GalaxyApp, GalaxyError};
use gpusim::GpuCluster;
use gyan::allocation::AllocationPolicy;
use gyan::setup::{install_gyan, GyanConfig};
use seqtools::ToolExecutor;
use std::sync::Arc;

/// The Racon wrapper in the shape of the paper's Code 3, parameterized by
/// an optional pinned GPU id (`<requirement type="compute" version=...>`).
pub fn racon_tool_xml(id: &str, pinned_gpu: Option<&str>) -> String {
    let version = pinned_gpu.map(|v| format!(" version=\"{v}\"")).unwrap_or_default();
    format!(
        r#"<tool id="{id}" name="Racon" version="1.4.3">
  <description>Consensus module for raw de novo DNA assembly</description>
  <requirements>
    <requirement type="package" version="1.4.3">racon</requirement>
    <requirement type="compute"{version}>gpu</requirement>
    <container type="docker">gulsumgudukbay/racon_dockerfile</container>
  </requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
racon_gpu -t $threads --cudapoa-batches $batches $banding $dataset > $consensus
#else
racon -t $threads $dataset > $consensus
#end if
]]></command>
  <inputs>
    <param name="dataset" type="data" value="Alzheimers_NFL_IsoSeq"/>
    <param name="threads" type="integer" value="4"/>
    <param name="batches" type="integer" value="1"/>
    <param name="banding" type="text" value=""/>
    <param name="consensus" type="text" value="consensus.fa"/>
  </inputs>
  <outputs><data name="consensus_out" format="fasta"/></outputs>
  <tests>
    <test>
      <param name="dataset" value="bench_tiny_racon"/>
      <param name="threads" value="2"/>
      <output name="consensus_out">
        <assert_contents>
          <has_text text="&gt;consensus"/>
          <has_n_lines min="2"/>
        </assert_contents>
      </output>
    </test>
  </tests>
</tool>"#
    )
}

/// The Bonito wrapper, parameterized by a pinned GPU id.
pub fn bonito_tool_xml(id: &str, pinned_gpu: Option<&str>) -> String {
    let version = pinned_gpu.map(|v| format!(" version=\"{v}\"")).unwrap_or_default();
    format!(
        r#"<tool id="{id}" name="Bonito" version="0.3.2">
  <description>A PyTorch basecaller for Oxford Nanopore reads</description>
  <requirements>
    <requirement type="package" version="0.3.2">bonito</requirement>
    <requirement type="compute"{version}>gpu</requirement>
    <container type="docker">nanoporetech/bonito</container>
  </requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
bonito basecaller $model $dataset > $output
#else
bonito basecaller --device=cpu $model $dataset > $output
#end if
]]></command>
  <inputs>
    <param name="dataset" type="data" value="Acinetobacter_pittii"/>
    <param name="model" type="text" value="dna_r9.4.1"/>
    <param name="output" type="text" value="basecalls.fasta"/>
  </inputs>
  <outputs><data name="basecalls" format="fasta"/></outputs>
</tool>"#
    )
}

/// A complete, GYAN-enabled Galaxy deployment over a simulated GPU node.
pub struct Testbed {
    /// The simulated node.
    pub cluster: GpuCluster,
    /// The Galaxy application with GYAN installed.
    pub app: GalaxyApp,
    /// Handle to the tool executor (profilers, lingering processes).
    pub executor: Arc<ToolExecutor>,
}

impl Testbed {
    /// Build a testbed over a 2× K80 node with the default (bare-metal)
    /// GYAN configuration and the Racon/Bonito tools installed.
    pub fn k80() -> Self {
        Self::with(GpuCluster::k80_node(), GyanConfig::default(), false)
    }

    /// Testbed routing GPU jobs to the Docker destination.
    pub fn k80_docker() -> Self {
        Self::with(GpuCluster::k80_node(), GyanConfig::containerized(), false)
    }

    /// Testbed with lingering GPU processes (multi-GPU case studies) and
    /// the given allocation policy.
    pub fn k80_linger(policy: AllocationPolicy) -> Self {
        let config = GyanConfig { policy, ..GyanConfig::default() };
        Self::with(GpuCluster::k80_node(), config, true)
    }

    fn with(cluster: GpuCluster, config: GyanConfig, linger: bool) -> Self {
        let mut app =
            GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).expect("canonical job_conf parses"));
        app.set_registry(galaxy::containers::ImageRegistry::with_paper_images());
        app.add_volume(VolumeBind::rw("/galaxy/data"));
        let mut executor = ToolExecutor::new(&cluster);
        if linger {
            executor = executor.with_linger();
        }
        let executor = Arc::new(executor);
        app.set_executor(Box::new(executor.clone()));
        install_gyan(&mut app, &cluster, config);

        let lib = MacroLibrary::new();
        app.install_tool_xml(&racon_tool_xml("racon_gpu", None), &lib)
            .expect("racon wrapper parses");
        app.install_tool_xml(&bonito_tool_xml("bonito", None), &lib)
            .expect("bonito wrapper parses");
        Testbed { cluster, app, executor }
    }

    /// Install an extra tool (e.g. a device-pinned variant).
    pub fn install_tool(&mut self, xml: &str) -> Result<(), GalaxyError> {
        self.app.install_tool_xml(xml, &MacroLibrary::new()).map(|_| ())
    }

    /// Submit a Racon job with the given parameters; returns the job id.
    pub fn submit_racon(
        &mut self,
        threads: u32,
        batches: u32,
        banded: bool,
        dataset: &str,
    ) -> Result<u64, GalaxyError> {
        let mut params = ParamDict::new();
        params.set("threads", threads.to_string());
        params.set("batches", batches.to_string());
        params.set("banding", if banded { "--cudapoa-banded" } else { "" });
        params.set("dataset", dataset);
        self.app.submit("racon_gpu", &params)
    }

    /// The runtime of a finished job, virtual seconds.
    ///
    /// # Panics
    /// When the job never ran to an end: a harness that reads a runtime
    /// off an unfinished job has a bug, and a NaN would hide it in a table.
    pub fn runtime(&self, job_id: u64) -> f64 {
        let job = self.app.job(job_id).unwrap_or_else(|| panic!("no job {job_id}"));
        job.runtime().unwrap_or_else(|| panic!("job {job_id} has no runtime: {:?}", job.state()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_runs_gpu_racon_end_to_end() {
        let mut tb = Testbed::k80();
        tb.executor.register_dataset(tiny_racon());
        let id = tb.submit_racon(4, 1, false, "bench_tiny_racon").unwrap();
        let job = tb.app.job(id).unwrap();
        assert_eq!(job.destination_id.as_deref(), Some("local_gpu"));
        assert_eq!(job.env_var("GALAXY_GPU_ENABLED"), Some("true"));
        assert!(tb.runtime(id) > 0.0);
        assert!(job.stdout.starts_with(">consensus"));
    }

    #[test]
    fn docker_testbed_wraps_with_gpus_flag() {
        let mut tb = Testbed::k80_docker();
        tb.executor.register_dataset(tiny_racon());
        let id = tb.submit_racon(2, 4, true, "bench_tiny_racon").unwrap();
        let job = tb.app.job(id).unwrap();
        assert_eq!(job.destination_id.as_deref(), Some("docker_gpu"));
        // The events log captured the mutated docker command.
        let launched = tb
            .app
            .events()
            .iter()
            .find(|e| e.message.contains("docker run"))
            .expect("docker launch logged");
        assert!(launched.message.contains("--gpus all"), "{}", launched.message);
        assert!(launched.message.contains("--cudapoa-banded"));
    }

    #[test]
    fn embedded_tool_tests_pass_planemo_style() {
        // The wrapper ships its own <tests> section; run it the way
        // `planemo test` would against a live GYAN deployment.
        let mut tb = Testbed::k80();
        tb.executor.register_dataset(tiny_racon());
        let results = tb.app.run_tool_tests("racon_gpu").unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].passed(), "{:?}", results[0].failures);
    }

    fn tiny_racon() -> seqtools::DatasetSpec {
        seqtools::DatasetSpec {
            name: "bench_tiny_racon",
            genome_len: 2_000,
            n_reads: 16,
            read_len: 1_500,
            ..seqtools::DatasetSpec::alzheimers_nfl()
        }
    }
}
