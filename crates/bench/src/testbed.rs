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

/// The paper's Code 1: the Racon tool directory's `macros.xml`, holding
/// the requirements (the GYAN `compute`/`gpu` one among them) that the
/// shipped wrapper ([`racon_imported_xml`]) imports.
const RACON_MACROS: &str = r#"<macros>
  <token name="@TOOL_VERSION@">1.4.3</token>
  <xml name="requirements">
    <requirements>
      <requirement type="package" version="@TOOL_VERSION@">racon</requirement>
      <requirement type="compute">gpu</requirement>
      <container type="docker">gulsumgudukbay/racon_dockerfile</container>
    </requirements>
  </xml>
</macros>"#;

/// The Racon wrapper in the shape of the paper's Code 3, parameterized by
/// an optional pinned GPU id (`<requirement type="compute" version=...>`),
/// with its requirements inline.
pub fn racon_tool_xml(id: &str, pinned_gpu: Option<&str>) -> String {
    let version = pinned_gpu.map(|v| format!(" version=\"{v}\"")).unwrap_or_default();
    let requirements = format!(
        r#"<requirements>
    <requirement type="package" version="1.4.3">racon</requirement>
    <requirement type="compute"{version}>gpu</requirement>
    <container type="docker">gulsumgudukbay/racon_dockerfile</container>
  </requirements>"#
    );
    racon_wrapper(id, "1.4.3", &requirements)
}

/// The unpinned `racon_gpu` wrapper as the paper ships it: its version
/// and requirements come from [`RACON_MACROS`], imported as `macros.xml`.
fn racon_imported_xml() -> String {
    let requirements = r#"<macros><import>macros.xml</import></macros>
  <expand macro="requirements"/>"#;
    racon_wrapper("racon_gpu", "@TOOL_VERSION@", requirements)
}

/// Code 3 around `requirements`: the GPU/CPU command branches, inputs,
/// output and the planemo test.
fn racon_wrapper(id: &str, version: &str, requirements: &str) -> String {
    format!(
        r#"<tool id="{id}" name="Racon" version="{version}">
  <description>Consensus module for raw de novo DNA assembly</description>
  {requirements}
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

        let lib = MacroLibrary::from_files([("macros.xml", RACON_MACROS)]);
        app.install_tool_xml(&racon_imported_xml(), &lib).expect("racon wrapper parses");
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
    use galaxy::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
    use std::sync::Mutex;

    /// The argv of every plan the app handed its executor, joined by spaces.
    type Launches = Arc<Mutex<Vec<String>>>;

    /// Records each plan's argv, then runs it on `inner`.
    struct Recording<E> {
        inner: E,
        launches: Launches,
    }

    impl<E: JobExecutor> JobExecutor for Recording<E> {
        fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
            self.launches.lock().unwrap().push(plan.command_parts.join(" "));
            self.inner.execute(plan)
        }
    }

    #[test]
    fn imported_racon_wrapper_parses_like_the_inline_one() {
        use galaxy::tool::wrapper::parse_tool;
        let lib = MacroLibrary::from_files([("macros.xml", RACON_MACROS)]);
        let imported = parse_tool(&racon_imported_xml(), &lib).unwrap();
        let inline = parse_tool(&racon_tool_xml("racon_gpu", None), &MacroLibrary::new()).unwrap();
        assert_eq!(format!("{imported:?}"), format!("{inline:?}"));
        assert!(imported.requires_gpu() && imported.requested_gpu_ids().is_empty());
        // Without its macros.xml the shipped wrapper does not install.
        assert!(matches!(
            parse_tool(&racon_imported_xml(), &MacroLibrary::new()),
            Err(GalaxyError::UnknownMacro(_))
        ));
    }

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
        let launches = Launches::default();
        tb.app.set_executor(Box::new(Recording {
            inner: tb.executor.clone(),
            launches: launches.clone(),
        }));
        let id = tb.submit_racon(2, 4, true, "bench_tiny_racon").unwrap();
        let job = tb.app.job(id).unwrap();
        assert_eq!(job.destination_id.as_deref(), Some("docker_gpu"));
        // The executor was handed the mutated docker command.
        let launched = launches.lock().unwrap();
        let launched = launched
            .iter()
            .find(|argv| argv.contains("docker run"))
            .expect("docker launch recorded");
        assert!(launched.contains("--gpus all"), "{launched}");
        assert!(launched.contains("--cudapoa-banded"));
    }

    #[test]
    fn embedded_tool_tests_pass_planemo_style() {
        // The wrapper ships its own <tests> section; run it the way
        // `planemo test` would against a live GYAN deployment.
        let mut tb = Testbed::k80();
        tb.executor.register_dataset(tiny_racon());
        let results = planemo::run_tool_tests(&mut tb.app, &racon_tool_xml("racon_gpu", None));
        assert_eq!(results.len(), 1);
        assert!(results[0].is_empty(), "{:?}", results[0]);
    }

    /// `planemo test`: run the functional tests a wrapper embeds in its
    /// `<tests>` section through a live app and check each output dataset.
    mod planemo {
        use galaxy::params::ParamDict;
        use galaxy::GalaxyApp;
        use xmlparse::Element;

        /// Submit each `<test>` of the wrapper `xml` (installed in `app`)
        /// with its `<param>` values and check the assertions of each
        /// `<output>`; one list of failure messages per test (empty =
        /// pass).
        pub(super) fn run_tool_tests(app: &mut GalaxyApp, xml: &str) -> Vec<Vec<String>> {
            let doc = xmlparse::parse(xml).expect("wrapper parses");
            let tool_id = doc.root().attr("id").expect("tool id");
            let Some(tests) = doc.root().find("tests") else { return Vec::new() };
            tests.children_named("test").map(|test| run_test(app, tool_id, test)).collect()
        }

        fn run_test(app: &mut GalaxyApp, tool_id: &str, test: &Element) -> Vec<String> {
            let mut params = ParamDict::new();
            for param in test.children_named("param") {
                params.set(
                    param.attr("name").expect("test param name"),
                    param.attr("value").unwrap_or(""),
                );
            }
            let job_id = match app.submit(tool_id, &params) {
                Ok(id) => id,
                Err(e) => return vec![format!("job failed: {e}")],
            };
            let mut failures = Vec::new();
            for output in test.children_named("output") {
                let name = output.attr("name").expect("test output name");
                let history = app.history();
                let Some(dataset) =
                    history.datasets_for_job(job_id).into_iter().find(|d| &*d.name == name)
                else {
                    failures.push(format!("output {name:?} was not produced"));
                    continue;
                };
                for assertion in
                    output.find("assert_contents").into_iter().flat_map(Element::child_elements)
                {
                    if let Err(msg) = check(assertion, &dataset.content) {
                        failures.push(format!("output {name:?}: {msg}"));
                    }
                }
            }
            failures
        }

        /// One `<assert_contents>` child against dataset content.
        pub(super) fn check(assertion: &Element, content: &str) -> Result<(), String> {
            let num = |key: &str| assertion.attr(key).and_then(|v| v.parse::<usize>().ok());
            let text =
                || assertion.attr("text").ok_or(format!("<{}> without text", assertion.name()));
            match assertion.name() {
                "has_text" => {
                    let text = text()?;
                    if content.contains(text) {
                        Ok(())
                    } else {
                        Err(format!("expected text {text:?} not found"))
                    }
                }
                "not_has_text" => {
                    let text = text()?;
                    if content.contains(text) {
                        Err(format!("forbidden text {text:?} present"))
                    } else {
                        Ok(())
                    }
                }
                "has_n_lines" => {
                    let lines = content.lines().count();
                    if num("n").is_some_and(|n| lines != n) {
                        return Err(format!("expected {:?} lines, found {lines}", num("n")));
                    }
                    if num("min").is_some_and(|min| lines < min)
                        || num("max").is_some_and(|max| lines > max)
                    {
                        return Err(format!(
                            "expected {:?}..={:?} lines, found {lines}",
                            num("min"),
                            num("max")
                        ));
                    }
                    Ok(())
                }
                "has_size" => {
                    let value = num("value").ok_or("<has_size> without value")?;
                    let delta = num("delta").unwrap_or(0);
                    let size = content.len();
                    if size.abs_diff(value) <= delta {
                        Ok(())
                    } else {
                        Err(format!("expected size {value}±{delta}, found {size}"))
                    }
                }
                other => Err(format!("unknown assertion <{other}>")),
            }
        }

        mod tests {
            use super::*;
            use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
            use galaxy::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
            use galaxy::tool::macros::MacroLibrary;

            const TOOL_WITH_TESTS: &str = r#"<tool id="echo" name="Echo">
      <command>echo $text</command>
      <inputs><param name="text" type="text" value="default"/></inputs>
      <outputs><data name="out" format="txt"/></outputs>
      <tests>
        <test>
          <param name="text" value="hello world"/>
          <output name="out">
            <assert_contents>
              <has_text text="hello"/>
              <not_has_text text="goodbye"/>
              <has_n_lines n="1"/>
              <has_size value="11" delta="2"/>
            </assert_contents>
          </output>
        </test>
        <test>
          <param name="text" value="two"/>
          <output name="out">
            <assert_contents><has_text text="THIS WILL FAIL"/></assert_contents>
          </output>
        </test>
      </tests>
    </tool>"#;

            struct EchoExecutor;
            impl JobExecutor for EchoExecutor {
                fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
                    ExecutionResult::ok(plan.command_line.strip_prefix("echo ").unwrap_or(""))
                }
            }

            #[test]
            fn passing_and_failing_tests_reported() {
                let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
                app.install_tool_xml(TOOL_WITH_TESTS, &MacroLibrary::new()).unwrap();
                app.set_executor(Box::new(EchoExecutor));
                app.register_rule(
                    "gpu_dynamic_destination",
                    Box::new(|_t, _j, _c| Ok("local_cpu".into())),
                );
                let results = run_tool_tests(&mut app, TOOL_WITH_TESTS);
                assert_eq!(results.len(), 2);
                assert!(results[0].is_empty(), "{:?}", results[0]);
                assert_eq!(results[1].len(), 1);
                assert!(results[1][0].contains("THIS WILL FAIL"));
            }

            fn checks(assertion: &str, content: &str) -> bool {
                check(xmlparse::parse(assertion).unwrap().root(), content).is_ok()
            }

            #[test]
            fn assertions_check_correctly() {
                assert!(checks(r#"<has_text text="abc"/>"#, "xxabcxx"));
                assert!(!checks(r#"<has_text text="abc"/>"#, "nope"));
                assert!(checks(r#"<not_has_text text="abc"/>"#, "nope"));
                let lines = r#"<has_n_lines min="2" max="3"/>"#;
                assert!(checks(lines, "a\nb\n"));
                assert!(!checks(lines, "a\n"));
                assert!(!checks(lines, "a\nb\nc\nd\n"));
                let size = r#"<has_size value="10" delta="1"/>"#;
                assert!(checks(size, "0123456789"));
                assert!(checks(size, "01234567891"));
                assert!(!checks(size, "0123"));
            }

            #[test]
            fn unknown_assertion_rejected() {
                assert!(!checks("<has_magic/>", "anything"));
            }
        }
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
