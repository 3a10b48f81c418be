//! Error type for the Galaxy framework substrate.

use std::fmt;

/// Failures raised while parsing configuration, mapping, or running jobs.
#[derive(Debug, Clone, PartialEq)]
pub enum GalaxyError {
    /// Underlying XML was malformed.
    Xml(String),
    /// A tool wrapper was structurally invalid (missing id, command, ...).
    BadWrapper(String),
    /// A referenced macro or macro file was not found.
    UnknownMacro(String),
    /// Template evaluation failed.
    Template(String),
    /// `job_conf.xml` was structurally invalid.
    BadJobConf(String),
    /// A job referenced an unknown tool id.
    UnknownTool(String),
    /// A job was mapped to an unknown destination id.
    UnknownDestination(String),
    /// A dynamic destination referenced an unregistered rule function.
    UnknownRule(String),
    /// A destination referenced an unknown runner plugin.
    UnknownRunner(String),
    /// Illegal job state transition.
    BadTransition { from: &'static str, to: &'static str },
    /// A container image could not be resolved or pulled.
    Container(String),
    /// The executor reported a tool failure.
    ToolFailed(String),
    /// A workflow step's dependency (a `StepOutput` binding or an `after`
    /// edge) points at itself or at an index outside the workflow.
    InvalidStepReference {
        /// Workflow display name.
        workflow: String,
        /// Index of the step holding the bad reference.
        step: usize,
        /// The referenced step index.
        reference: usize,
        /// Why the reference is invalid (`self_reference`,
        /// `out_of_range`).
        reason: &'static str,
    },
    /// A DAG workflow's dependency edges form a cycle.
    WorkflowCycle(String),
    /// The job queue refused a submission (admission control).
    QueueRejected(String),
    /// An operation referenced a job id the app has no record of.
    UnknownJob(u64),
}

impl fmt::Display for GalaxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GalaxyError::Xml(m) => write!(f, "XML error: {m}"),
            GalaxyError::BadWrapper(m) => write!(f, "invalid tool wrapper: {m}"),
            GalaxyError::UnknownMacro(m) => write!(f, "unknown macro: {m}"),
            GalaxyError::Template(m) => write!(f, "template error: {m}"),
            GalaxyError::BadJobConf(m) => write!(f, "invalid job_conf: {m}"),
            GalaxyError::UnknownTool(m) => write!(f, "unknown tool: {m}"),
            GalaxyError::UnknownDestination(m) => write!(f, "unknown destination: {m}"),
            GalaxyError::UnknownRule(m) => write!(f, "unknown dynamic rule: {m}"),
            GalaxyError::UnknownRunner(m) => write!(f, "unknown runner plugin: {m}"),
            GalaxyError::BadTransition { from, to } => {
                write!(f, "illegal job state transition {from} -> {to}")
            }
            GalaxyError::Container(m) => write!(f, "container error: {m}"),
            GalaxyError::ToolFailed(m) => write!(f, "tool execution failed: {m}"),
            GalaxyError::InvalidStepReference { workflow, step, reference, reason } => {
                write!(
                    f,
                    "workflow {workflow:?} step {step}: invalid reference to step {reference} \
                     ({reason})"
                )
            }
            GalaxyError::WorkflowCycle(m) => write!(f, "workflow dependency cycle: {m}"),
            GalaxyError::QueueRejected(m) => write!(f, "queue rejected submission: {m}"),
            GalaxyError::UnknownJob(id) => write!(f, "unknown job id: {id}"),
        }
    }
}

impl std::error::Error for GalaxyError {}

impl From<xmlparse::ParseError> for GalaxyError {
    fn from(e: xmlparse::ParseError) -> Self {
        GalaxyError::Xml(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xml_error_converts() {
        let parse_err = xmlparse::parse("<a>").unwrap_err();
        let g: GalaxyError = parse_err.into();
        assert!(matches!(g, GalaxyError::Xml(_)));
    }

    #[test]
    fn display_is_informative() {
        let e = GalaxyError::BadTransition { from: "ok", to: "running" };
        assert!(e.to_string().contains("ok -> running"));
    }
}
