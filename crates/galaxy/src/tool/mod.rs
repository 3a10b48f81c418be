//! Tools and their XML wrapper files.
//!
//! A Galaxy *tool* is described by an XML wrapper ("tool configuration
//! file") that names the executable, its requirements, its parameters, and
//! its outputs. GYAN's Challenge-I adds a new requirement *type* —
//! `compute` with name `gpu` — to this format (paper Code 1), and reuses
//! the requirement's `version` attribute to carry requested GPU minor IDs
//! (paper §IV-C).

pub mod macros;
pub mod wrapper;

use crate::template::Template;
use std::sync::Arc;

/// The `type=` attribute of a `<requirement>` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequirementType {
    /// A software package (resolved via conda in real Galaxy).
    Package,
    /// A raw binary on `$PATH`.
    Binary,
    /// An environment set.
    Set,
    /// GYAN's new hardware requirement type (paper Code 1, line 5).
    Compute,
    /// Anything else, preserved verbatim.
    Other(String),
}

impl RequirementType {
    /// Parse from the XML attribute value.
    pub fn from_attr(s: &str) -> Self {
        match s {
            "package" => RequirementType::Package,
            "binary" => RequirementType::Binary,
            "set" => RequirementType::Set,
            "compute" => RequirementType::Compute,
            other => RequirementType::Other(other.to_string()),
        }
    }
}

/// One `<requirement>` of a tool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requirement {
    /// Requirement type (`package`, `compute`, ...).
    pub rtype: RequirementType,
    /// The element's text content — the package name, or `gpu` for GYAN's
    /// compute requirement.
    pub name: String,
    /// The `version` attribute. For packages this is a semver; for GYAN's
    /// `compute`/`gpu` requirement it carries the requested GPU minor
    /// ID(s), e.g. `"1"` or `"0,1"` (paper §IV-C: "the 'version' tag
    /// corresponds to the GPU minor ID(s) in our design").
    pub version: Option<String>,
}

impl Requirement {
    /// True when this is the `compute`/`gpu` requirement GYAN looks for.
    pub fn is_gpu(&self) -> bool {
        self.rtype == RequirementType::Compute && self.name == "gpu"
    }
}

/// Container binding type of a `<container>` element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerType {
    /// Docker image.
    Docker,
    /// Singularity image.
    Singularity,
}

/// A `<container>` reference inside `<requirements>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerRef {
    /// Docker or Singularity.
    pub ctype: ContainerType,
    /// Image identifier, e.g. `gulsumgudukbay/racon_dockerfile`.
    pub image: String,
}

/// A declared `<param>` input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Parameter name (template variable).
    pub name: String,
    /// Galaxy param type string (`integer`, `text`, `data`, `boolean`, ...).
    pub ptype: String,
    /// Default value, if declared.
    pub default: Option<String>,
    /// UI label.
    pub label: Option<String>,
}

/// A declared `<data>` output. Its name and format are shared with the
/// dataset each job of the tool declares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputDecl {
    /// Output name (template variable).
    pub name: Arc<str>,
    /// Datatype extension (`fasta`, `fastq`, `txt`, ...).
    pub format: Arc<str>,
}

/// A fully parsed tool.
#[derive(Debug, Clone)]
pub struct Tool {
    /// Unique tool id (`racon_gpu`), shared with every job of the tool.
    pub id: Arc<str>,
    /// Display name.
    pub name: String,
    /// Tool version string.
    pub version: String,
    /// Help/description text.
    pub description: String,
    /// Requirements, including any GYAN GPU requirement.
    pub requirements: Vec<Requirement>,
    /// Container references, in declaration order.
    pub containers: Vec<ContainerRef>,
    /// The raw command template source.
    pub command_source: String,
    /// Parsed command template.
    pub command: Template,
    /// Declared inputs.
    pub inputs: Vec<ParamDecl>,
    /// Declared outputs.
    pub outputs: Vec<OutputDecl>,
}

impl Tool {
    /// The tool's GPU requirement, if it declares one.
    pub fn gpu_requirement(&self) -> Option<&Requirement> {
        self.requirements.iter().find(|r| r.is_gpu())
    }

    /// Whether the tool declares the GYAN GPU requirement.
    pub fn requires_gpu(&self) -> bool {
        self.gpu_requirement().is_some()
    }

    /// Requested GPU minor IDs from the requirement's version tag, parsed
    /// into numbers; empty when unpinned.
    pub fn requested_gpu_ids(&self) -> Vec<u32> {
        self.gpu_requirement()
            .and_then(|r| r.version.as_deref())
            .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
            .unwrap_or_default()
    }

    /// First container reference of the given type.
    pub fn container(&self, ctype: ContainerType) -> Option<&ContainerRef> {
        self.containers.iter().find(|c| c.ctype == ctype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Requirement {
        /// A package requirement.
        fn package(name: impl Into<String>, version: impl Into<String>) -> Self {
            Requirement {
                rtype: RequirementType::Package,
                name: name.into(),
                version: Some(version.into()),
            }
        }

        /// GYAN's GPU compute requirement, optionally pinned to device IDs.
        fn gpu(device_ids: Option<&str>) -> Self {
            Requirement {
                rtype: RequirementType::Compute,
                name: "gpu".to_string(),
                version: device_ids.map(str::to_string),
            }
        }
    }

    #[test]
    fn requirement_type_parses() {
        assert_eq!(RequirementType::from_attr("package"), RequirementType::Package);
        assert_eq!(RequirementType::from_attr("binary"), RequirementType::Binary);
        assert_eq!(RequirementType::from_attr("set"), RequirementType::Set);
        assert_eq!(RequirementType::from_attr("compute"), RequirementType::Compute);
        assert_eq!(RequirementType::from_attr("weird"), RequirementType::Other("weird".into()));
    }

    #[test]
    fn gpu_requirement_detection() {
        let r = Requirement::gpu(Some("0,1"));
        assert!(r.is_gpu());
        let pkg = Requirement::package("racon", "1.4.3");
        assert!(!pkg.is_gpu());
        // compute-typed requirement with a different name is not a GPU req
        let other =
            Requirement { rtype: RequirementType::Compute, name: "fpga".into(), version: None };
        assert!(!other.is_gpu());
    }
}
