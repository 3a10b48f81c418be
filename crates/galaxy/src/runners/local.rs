//! The local runner: the equivalent of Galaxy's `local.py`.
//!
//! Builds the final argv for a job on a `local`-runner destination:
//! renders the tool's command template against the job's parameter
//! dictionary (the `__command_line` step of the paper's Pseudocode 2),
//! wraps it in a Docker/Singularity launch when the destination enables
//! containers, and applies registered command mutators.

use crate::containers::ImageRegistry;
use crate::error::GalaxyError;
use crate::job::conf::Destination;
use crate::job::Job;
use crate::runners::container_cmd::{docker_command, singularity_command, VolumeBind};
use crate::runners::{CommandMutator, ContainerEngine, ContainerInvocation, ExecutionPlan};
use crate::tool::{ContainerType, Tool};
use obs::{Span, Value};
use std::sync::Arc;

/// Stateless command assembler for local (and local-containerized)
/// execution.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalRunner;

impl LocalRunner {
    /// Render the tool command for a job (template × param dict), its
    /// line structure collapsed into one shell command.
    pub fn render_command(&self, tool: &Tool, job: &Job) -> Result<String, GalaxyError> {
        let cmd = collapse_whitespace(&tool.command.render(&job.params)?);
        if cmd.is_empty() {
            return Err(GalaxyError::Template(format!("tool {} rendered empty command", tool.id)));
        }
        Ok(cmd)
    }

    /// Build the full execution plan for `job` on `destination`.
    ///
    /// `mutators` are applied to the assembled command parts, and — for
    /// container destinations — the image is pulled through `registry` to
    /// account for pull + cold-start overhead. With a `parent` span, the
    /// template-render and container-assembly phases each get a child
    /// span under it.
    #[allow(clippy::too_many_arguments)]
    pub fn build_plan(
        &self,
        tool: &Tool,
        job: &Job,
        destination: &Destination,
        registry: &ImageRegistry,
        mutators: &[Box<dyn CommandMutator>],
        volumes: &[VolumeBind],
        parent: Option<&Span>,
    ) -> Result<ExecutionPlan, GalaxyError> {
        let render_span = parent.map(|p| p.child("galaxy.template_render"));
        let command_line: Arc<str> = self.render_command(tool, job)?.into();
        if let Some(s) = render_span {
            s.end_with([("command", &*command_line)]);
        }
        // Only a container launch names a working directory.
        let workdir = || format!("/galaxy/jobs/{}", job.id);

        let assembly_span = parent.map(|p| p.child("galaxy.container_assembly"));
        let container = if destination.docker_enabled() {
            let image = tool
                .container(ContainerType::Docker)
                .ok_or_else(|| {
                    GalaxyError::Container(format!(
                        "destination {} requires docker but tool {} declares no docker container",
                        destination.id, tool.id
                    ))
                })?
                .image
                .clone();
            let first_start = !registry.is_cached(&image);
            let pull_s = registry.pull(&image)?;
            let overhead_s = pull_s + registry.start_overhead(&image, first_start)?;
            let mut parts = docker_command(&image, &command_line, &job.env, volumes, &workdir());
            for m in mutators {
                m.mutate(&mut parts, job, destination);
            }
            Some(ContainerInvocation {
                engine: ContainerEngine::Docker,
                image,
                command_parts: parts,
                overhead_s,
            })
        } else if destination.singularity_enabled() {
            let image = tool
                .container(ContainerType::Singularity)
                .or_else(|| tool.container(ContainerType::Docker))
                .ok_or_else(|| {
                    GalaxyError::Container(format!(
                        "destination {} requires singularity but tool {} declares no container",
                        destination.id, tool.id
                    ))
                })?
                .image
                .clone();
            let first_start = !registry.is_cached(&image);
            let pull_s = registry.pull(&image)?;
            let overhead_s = pull_s + registry.start_overhead(&image, first_start)?;
            let mut parts =
                singularity_command(&image, &command_line, &job.env, volumes, &workdir());
            for m in mutators {
                m.mutate(&mut parts, job, destination);
            }
            Some(ContainerInvocation {
                engine: ContainerEngine::Singularity,
                image,
                command_parts: parts,
                overhead_s,
            })
        } else {
            None
        };

        let command_parts = match &container {
            Some(c) => c.command_parts.clone(),
            None => {
                let mut parts =
                    vec!["/bin/bash".to_string(), "-c".to_string(), command_line.to_string()];
                for m in mutators {
                    m.mutate(&mut parts, job, destination);
                }
                parts
            }
        };

        if let Some(s) = assembly_span {
            let mutators = ("mutators", Value::from(mutators.len()));
            match &container {
                Some(c) => s.end_with([
                    ("engine", Value::from(format!("{:?}", c.engine).to_lowercase())),
                    ("image", Value::from(c.image.as_str())),
                    ("overhead_s", Value::from(c.overhead_s)),
                    mutators,
                ]),
                None => s.end_with([("engine", Value::from("bare")), mutators]),
            }
        }

        Ok(ExecutionPlan {
            job_id: job.id,
            tool_id: job.tool_id.clone(),
            destination_id: destination.id.clone(),
            command_line,
            env: Arc::clone(&job.env),
            container,
            command_parts,
        })
    }
}

/// `text`'s words joined by single spaces, built in one pass into one
/// allocation of `text`'s length.
fn collapse_whitespace(text: &str) -> String {
    let mut collapsed = String::with_capacity(text.len());
    for word in text.split_whitespace() {
        if !collapsed.is_empty() {
            collapsed.push(' ');
        }
        collapsed.push_str(word);
    }
    collapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containers::ImageMeta;
    use crate::params::ParamDict;
    use crate::tool::macros::MacroLibrary;
    use crate::tool::wrapper::parse_tool;
    use proptest::prelude::*;

    fn tool_with_container() -> Tool {
        parse_tool(
            r#"<tool id="racon_gpu" name="Racon">
              <requirements>
                <requirement type="compute">gpu</requirement>
                <container type="docker">test/racon</container>
              </requirements>
              <command>racon -t $threads $input</command>
            </tool>"#,
            &MacroLibrary::new(),
        )
        .unwrap()
    }

    fn job() -> Job {
        let mut params = ParamDict::new();
        params.set("threads", "4");
        params.set("input", "reads.fq");
        let mut j = Job::new(7, "racon_gpu", params);
        j.set_env("GALAXY_GPU_ENABLED", "true");
        j
    }

    fn dest(id: &str, params: &[(&str, &str)]) -> Destination {
        let mut p = ParamDict::new();
        for (k, v) in params {
            p.set(*k, *v);
        }
        Destination { id: id.into(), runner: "local".into(), params: p }
    }

    fn registry() -> ImageRegistry {
        let reg = ImageRegistry::new();
        reg.publish("test/racon", ImageMeta { size_mb: 500.0, gpu_capable: true });
        reg
    }

    #[test]
    fn renders_flat_command() {
        let tool = tool_with_container();
        let cmd = LocalRunner.render_command(&tool, &job()).unwrap();
        assert_eq!(cmd, "racon -t 4 reads.fq");
    }

    #[test]
    fn bare_metal_plan_uses_bash() {
        let plan = LocalRunner
            .build_plan(
                &tool_with_container(),
                &job(),
                &dest("local_gpu", &[]),
                &registry(),
                &[],
                &[],
                None,
            )
            .unwrap();
        assert!(plan.container.is_none());
        assert_eq!(plan.command_parts[0], "/bin/bash");
        assert_eq!(plan.command_parts[2], "racon -t 4 reads.fq");
    }

    #[test]
    fn docker_plan_wraps_and_charges_overhead() {
        let reg = registry();
        let plan = LocalRunner
            .build_plan(
                &tool_with_container(),
                &job(),
                &dest("docker_gpu", &[("docker_enabled", "true")]),
                &reg,
                &[],
                &[VolumeBind::rw("/data")],
                None,
            )
            .unwrap();
        let c = plan.container.as_ref().unwrap();
        assert_eq!(c.engine, ContainerEngine::Docker);
        assert!(c.overhead_s > 3.0); // pull 500MB + first start
        assert_eq!(plan.command_parts[0], "docker");
        // Second job: image cached, much cheaper.
        let plan2 = LocalRunner
            .build_plan(
                &tool_with_container(),
                &job(),
                &dest("docker_gpu", &[("docker_enabled", "true")]),
                &reg,
                &[],
                &[],
                None,
            )
            .unwrap();
        assert!(plan2.container.unwrap().overhead_s < 1.0);
    }

    #[test]
    fn singularity_falls_back_to_docker_image() {
        let plan = LocalRunner
            .build_plan(
                &tool_with_container(),
                &job(),
                &dest("sing", &[("singularity_enabled", "true")]),
                &registry(),
                &[],
                &[],
                None,
            )
            .unwrap();
        let c = plan.container.unwrap();
        assert_eq!(c.engine, ContainerEngine::Singularity);
        assert_eq!(c.image, "test/racon");
        assert!(plan.command_parts.iter().any(|p| p == "exec"));
    }

    #[test]
    fn docker_destination_without_container_errors() {
        let tool = parse_tool(
            r#"<tool id="plain"><command>echo $x</command></tool>"#,
            &MacroLibrary::new(),
        )
        .unwrap();
        let mut params = ParamDict::new();
        params.set("x", "1");
        let j = Job::new(1, "plain", params);
        let result = LocalRunner.build_plan(
            &tool,
            &j,
            &dest("docker", &[("docker_enabled", "true")]),
            &registry(),
            &[],
            &[],
            None,
        );
        assert!(matches!(result, Err(GalaxyError::Container(_))));
    }

    #[test]
    fn mutators_applied_to_parts() {
        struct AppendFlag;
        impl CommandMutator for AppendFlag {
            fn mutate(&self, parts: &mut Vec<String>, job: &Job, _d: &Destination) {
                if job.env_var("GALAXY_GPU_ENABLED") == Some("true") {
                    let run_pos = parts.iter().position(|p| p == "run").map(|i| i + 1);
                    if let Some(pos) = run_pos {
                        parts.insert(pos, "--gpus all".into());
                    }
                }
            }
        }
        let mutators: Vec<Box<dyn CommandMutator>> = vec![Box::new(AppendFlag)];
        let plan = LocalRunner
            .build_plan(
                &tool_with_container(),
                &job(),
                &dest("docker_gpu", &[("docker_enabled", "true")]),
                &registry(),
                &mutators,
                &[],
                None,
            )
            .unwrap();
        assert_eq!(plan.command_parts[2], "--gpus all");
    }

    #[test]
    fn empty_rendered_command_rejected() {
        let tool = parse_tool(
            "<tool id=\"t\"><command>#if $x == \"1\"\nrun\n#end if\n</command></tool>",
            &MacroLibrary::new(),
        )
        .unwrap();
        let mut params = ParamDict::new();
        params.set("x", "0");
        let j = Job::new(1, "t", params);
        assert!(LocalRunner.render_command(&tool, &j).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_one_pass_collapse_joins_the_words_with_single_spaces(
            // Words, runs of spaces, tabs, newlines, and Unicode white
            // space (no-break space, NEL, em space, line separator,
            // ideographic space) next to non-space multi-byte text.
            text in "[ab é\t\n\r\u{a0}\u{85}\u{2003}\u{2028}\u{3000}]{0,40}",
        ) {
            let reference = text.split_whitespace().collect::<Vec<_>>().join(" ");
            prop_assert_eq!(collapse_whitespace(&text), reference);
        }
    }

    #[test]
    fn a_render_of_only_white_space_is_a_template_error() {
        let tool = parse_tool(r#"<tool id="t"><command>$x</command></tool>"#, &MacroLibrary::new())
            .unwrap();
        for blank in ["", " ", "\t\n  \r\n", "\u{a0}\u{3000}\u{2028} "] {
            let j = Job::new(1, "t", [("x", blank)].into_iter().collect());
            let rendered = LocalRunner.render_command(&tool, &j);
            assert!(matches!(rendered, Err(GalaxyError::Template(_))), "{blank:?}: {rendered:?}");
        }
    }

    /// A retry's hook rewrites the job's exports after the failed
    /// attempt's plan was built: the plan keeps the environment it was
    /// built with.
    #[test]
    fn a_plan_keeps_its_env_when_the_job_is_written_later() {
        let mut j = job();
        j.set_env("CUDA_VISIBLE_DEVICES", "0,1");
        j.set_env("GALAXY_NODE", "k80-000");
        let plan = LocalRunner
            .build_plan(
                &tool_with_container(),
                &j,
                &dest("local_gpu", &[]),
                &registry(),
                &[],
                &[],
                None,
            )
            .unwrap();
        assert!(Arc::ptr_eq(&plan.env, &j.env), "building a plan shares the job's env");
        let built: Vec<(String, String)> =
            plan.env.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();

        j.set_env("GALAXY_GPU_ENABLED", "false");
        assert!(j.remove_env("CUDA_VISIBLE_DEVICES"));
        assert!(j.remove_env("GALAXY_NODE"));
        let after: Vec<(String, String)> =
            plan.env.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        assert_eq!(after, built);
        assert_eq!(plan.env_var("GALAXY_GPU_ENABLED"), Some("true"));
        assert_eq!(plan.env_var("CUDA_VISIBLE_DEVICES"), Some("0,1"));
        assert_eq!(j.env_var("GALAXY_GPU_ENABLED"), Some("false"));
        assert_eq!(j.env_var("CUDA_VISIBLE_DEVICES"), None);
        assert_eq!(j.env.len(), 1);
    }

    /// Scrubbing an export the job does not have copies nothing: a plan
    /// sharing the list still shares it.
    #[test]
    fn removing_an_absent_export_keeps_the_list_shared() {
        let mut j = job();
        let plan = LocalRunner
            .build_plan(
                &tool_with_container(),
                &j,
                &dest("local_cpu", &[]),
                &registry(),
                &[],
                &[],
                None,
            )
            .unwrap();
        assert!(!j.remove_env("CUDA_VISIBLE_DEVICES"));
        assert!(Arc::ptr_eq(&plan.env, &j.env));
        // A write copies it, once: the copy is the job's alone.
        j.set_env("GALAXY_GPU_ENABLED", "false");
        assert!(!Arc::ptr_eq(&plan.env, &j.env));
        let before = Arc::as_ptr(&j.env);
        j.set_env("GALAXY_GPU_ENABLED", "true");
        assert_eq!(Arc::as_ptr(&j.env), before, "an unshared list is written in place");
    }
}
