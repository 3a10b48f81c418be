//! Parsing tool wrapper XML into [`Tool`] values.
//!
//! This is the *parser* the paper's Challenge-I refers to: it interprets
//! `<requirements>` — including GYAN's new `compute`/`gpu` requirement —
//! plus the command template, inputs, outputs, and container references.

use crate::error::GalaxyError;
use crate::template::Template;
use crate::tool::macros::{expand_macros, MacroLibrary};
use crate::tool::{
    ContainerRef, ContainerType, OutputDecl, ParamDecl, Requirement, RequirementType, Tool,
};
use xmlparse::{parse, Element};

/// Parse a tool wrapper from XML source, resolving macro imports against
/// `library`.
pub fn parse_tool(src: &str, library: &MacroLibrary) -> Result<Tool, GalaxyError> {
    let doc = parse(src)?;
    if doc.root().name() != "tool" {
        return Err(GalaxyError::BadWrapper(format!(
            "root element must be <tool>, found <{}>",
            doc.root().name()
        )));
    }
    let root = expand_macros(doc.root(), library)?;

    let id = root
        .attr("id")
        .filter(|s| !s.is_empty())
        .ok_or_else(|| GalaxyError::BadWrapper("tool is missing an id".into()))?
        .to_string();
    let name = root.attr("name").unwrap_or(&id).to_string();
    let version = root.attr("version").unwrap_or("1.0").to_string();
    let description = root.find_text("description").unwrap_or_default();

    let command_source = root
        .find_text("command")
        .ok_or_else(|| GalaxyError::BadWrapper(format!("tool {id} has no <command>")))?;
    let command = Template::parse(&command_source)?;

    let mut requirements = Vec::new();
    let mut containers = Vec::new();
    if let Some(reqs_el) = root.find("requirements") {
        for req_el in reqs_el.children_named("requirement") {
            requirements.push(parse_requirement(req_el)?);
        }
        for cont_el in reqs_el.children_named("container") {
            containers.push(parse_container(cont_el)?);
        }
    }

    let inputs = match root.find("inputs") {
        Some(inputs_el) => inputs_el
            .find_all("param")
            .into_iter()
            .map(parse_param)
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };

    let outputs = match root.find("outputs") {
        Some(outputs_el) => outputs_el
            .find_all("data")
            .into_iter()
            .map(parse_output)
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };

    Ok(Tool {
        id: id.into(),
        name,
        version,
        description,
        requirements,
        containers,
        command_source,
        command,
        inputs,
        outputs,
    })
}

fn parse_requirement(el: &Element) -> Result<Requirement, GalaxyError> {
    let rtype = RequirementType::from_attr(
        el.attr("type")
            .ok_or_else(|| GalaxyError::BadWrapper("<requirement> without type".into()))?,
    );
    let name = el.text();
    if name.is_empty() {
        return Err(GalaxyError::BadWrapper("<requirement> without a name".into()));
    }
    Ok(Requirement { rtype, name, version: el.attr("version").map(str::to_string) })
}

fn parse_container(el: &Element) -> Result<ContainerRef, GalaxyError> {
    let ctype = match el.attr("type") {
        Some("docker") => ContainerType::Docker,
        Some("singularity") => ContainerType::Singularity,
        other => {
            return Err(GalaxyError::BadWrapper(format!("bad container type {other:?}")));
        }
    };
    let image = el.text();
    if image.is_empty() {
        return Err(GalaxyError::BadWrapper("<container> without an image".into()));
    }
    Ok(ContainerRef { ctype, image })
}

fn parse_param(el: &Element) -> Result<ParamDecl, GalaxyError> {
    let name = el
        .attr("name")
        .ok_or_else(|| GalaxyError::BadWrapper("<param> without name".into()))?
        .to_string();
    Ok(ParamDecl {
        name,
        ptype: el.attr("type").unwrap_or("text").to_string(),
        default: el.attr("value").map(str::to_string),
        label: el.attr("label").map(str::to_string),
    })
}

fn parse_output(el: &Element) -> Result<OutputDecl, GalaxyError> {
    let name = el
        .attr("name")
        .ok_or_else(|| GalaxyError::BadWrapper("<data> output without name".into()))?
        .into();
    Ok(OutputDecl { name, format: el.attr("format").unwrap_or("data").into() })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wrapper in the shape of the paper's Code 3 (`racon.xml`), using
    /// the paper's Code 1 macros file.
    pub const RACON_WRAPPER: &str = r#"<tool id="racon_gpu" name="Racon" version="@TOOL_VERSION@">
  <description>Consensus module for raw de novo DNA assembly</description>
  <macros><import>macros.xml</import></macros>
  <expand macro="requirements"/>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
racon_gpu -t $threads --cudapoa-batches $batches $reads $overlaps $target > $consensus
#else
racon -t $threads $reads $overlaps $target > $consensus
#end if
]]></command>
  <inputs>
    <param name="reads" type="data" label="Reads"/>
    <param name="overlaps" type="data" label="Overlaps"/>
    <param name="target" type="data" label="Target assembly"/>
    <param name="threads" type="integer" value="4" label="CPU threads"/>
    <param name="batches" type="integer" value="1" label="CUDA POA batches"/>
  </inputs>
  <outputs>
    <data name="consensus" format="fasta"/>
  </outputs>
</tool>"#;

    pub const RACON_MACROS: &str = r#"<macros>
  <token name="@TOOL_VERSION@">1.4.3</token>
  <xml name="requirements">
    <requirements>
      <requirement type="package" version="@TOOL_VERSION@">racon</requirement>
      <requirement type="compute">gpu</requirement>
      <container type="docker">gulsumgudukbay/racon_dockerfile</container>
    </requirements>
  </xml>
</macros>"#;

    fn library() -> MacroLibrary {
        MacroLibrary::from_files([("macros.xml", RACON_MACROS)])
    }

    #[test]
    fn parses_paper_racon_wrapper() {
        let tool = parse_tool(RACON_WRAPPER, &library()).unwrap();
        assert_eq!(&*tool.id, "racon_gpu");
        assert_eq!(tool.version, "1.4.3"); // token-substituted
        assert!(tool.requires_gpu());
        assert!(tool.requested_gpu_ids().is_empty()); // unpinned
        assert_eq!(tool.requirements.len(), 2);
        assert_eq!(
            tool.container(ContainerType::Docker).unwrap().image,
            "gulsumgudukbay/racon_dockerfile"
        );
        assert_eq!(tool.inputs.len(), 5);
        assert_eq!(tool.inputs[3].default.as_deref(), Some("4"));
        assert_eq!(&*tool.outputs[0].format, "fasta");
        assert!(tool.command_source.contains("__galaxy_gpu_enabled__"));
    }

    #[test]
    fn gpu_requirement_with_pinned_devices() {
        let src = r#"<tool id="bonito" name="Bonito">
          <requirements><requirement type="compute" version="1">gpu</requirement></requirements>
          <command>bonito basecaller $model $reads</command>
        </tool>"#;
        let tool = parse_tool(src, &MacroLibrary::new()).unwrap();
        assert_eq!(tool.requested_gpu_ids(), vec![1]);
        let src_multi = src.replace("version=\"1\"", "version=\"0,1\"");
        let tool = parse_tool(&src_multi, &MacroLibrary::new()).unwrap();
        assert_eq!(tool.requested_gpu_ids(), vec![0, 1]);
    }

    #[test]
    fn cpu_only_tool_has_no_gpu_requirement() {
        let src = r#"<tool id="sort" name="Sort">
          <requirements><requirement type="package" version="8.25">coreutils</requirement></requirements>
          <command>sort $input > $output</command>
        </tool>"#;
        let tool = parse_tool(src, &MacroLibrary::new()).unwrap();
        assert!(!tool.requires_gpu());
        assert!(tool.gpu_requirement().is_none());
    }

    #[test]
    fn missing_id_rejected() {
        let src = "<tool name=\"x\"><command>x</command></tool>";
        assert!(matches!(parse_tool(src, &MacroLibrary::new()), Err(GalaxyError::BadWrapper(_))));
    }

    #[test]
    fn missing_command_rejected() {
        let src = "<tool id=\"x\"/>";
        assert!(matches!(parse_tool(src, &MacroLibrary::new()), Err(GalaxyError::BadWrapper(_))));
    }

    #[test]
    fn non_tool_root_rejected() {
        assert!(parse_tool("<nottool id=\"x\"/>", &MacroLibrary::new()).is_err());
    }

    #[test]
    fn bad_container_type_rejected() {
        let src = r#"<tool id="x"><requirements><container type="lxc">img</container></requirements>
          <command>x</command></tool>"#;
        assert!(parse_tool(src, &MacroLibrary::new()).is_err());
    }

    #[test]
    fn command_template_is_parsed_and_renderable() {
        let tool = parse_tool(RACON_WRAPPER, &library()).unwrap();
        let mut params = crate::params::ParamDict::new();
        for (k, v) in [
            ("__galaxy_gpu_enabled__", "true"),
            ("threads", "4"),
            ("batches", "16"),
            ("reads", "reads.fq"),
            ("overlaps", "ovl.paf"),
            ("target", "draft.fa"),
            ("consensus", "out.fa"),
        ] {
            params.set(k, v);
        }
        let cmd = tool.command.render(&params).unwrap();
        assert!(cmd.contains("racon_gpu -t 4 --cudapoa-batches 16"));
        assert!(!cmd.contains("#if"));
    }
}
