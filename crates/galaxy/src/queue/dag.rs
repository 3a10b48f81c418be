//! DAG workflows: explicit step dependencies with fan-out/fan-in.
//!
//! The paper's background: "A single job can be a single tool instance or
//! a workflow consisting of a sequence of multiple tools." A
//! [`DagWorkflow`] declares *dependencies*: a step may run as soon as
//! every step it depends on has completed, so independent branches
//! dispatch concurrently through the handler pool. Dependencies come from
//! two sources:
//!
//! - **data edges** — a parameter bound with
//!   [`DagStep::with_input_from`] (the upstream step's first output
//!   dataset feeds the parameter), and
//! - **ordering edges** — [`DagStep::after`], which sequences steps
//!   without passing data.
//!
//! A sequential pipeline is the chain whose step *i* is `.after(i - 1)`:
//! a failed step cancels every later one before it is materialized.
//!
//! Validation rejects self/out-of-range references with
//! [`GalaxyError::InvalidStepReference`] and cycles with
//! [`GalaxyError::WorkflowCycle`]. *Forward* references are legal — the
//! topology, not the list order, decides execution order.

use crate::app::GalaxyApp;
use crate::error::GalaxyError;
use std::collections::BTreeSet;

/// Where a step's parameter value comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSource {
    /// A literal value.
    Literal(String),
    /// The content of the first output dataset of another step
    /// (0-based step index).
    StepOutput(usize),
}

/// One step of a DAG workflow.
#[derive(Debug, Clone)]
pub struct DagStep {
    /// Tool to run.
    pub tool_id: String,
    /// Parameter bindings (literals or upstream outputs).
    pub params: Vec<(String, ValueSource)>,
    /// Ordering-only dependencies (step indices that must complete first).
    pub after: Vec<usize>,
}

impl DagStep {
    /// A step with no parameters and no dependencies.
    pub fn new(tool_id: impl Into<String>) -> Self {
        DagStep { tool_id: tool_id.into(), params: Vec::new(), after: Vec::new() }
    }

    /// Bind a literal parameter.
    pub fn with_param(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.push((name.into(), ValueSource::Literal(value.into())));
        self
    }

    /// Bind a parameter to `step`'s first output (adds a data edge).
    pub fn with_input_from(mut self, name: impl Into<String>, step: usize) -> Self {
        self.params.push((name.into(), ValueSource::StepOutput(step)));
        self
    }

    /// Add an ordering edge: this step waits for `step` to complete.
    pub fn after(mut self, step: usize) -> Self {
        self.after.push(step);
        self
    }
}

/// A workflow whose steps form a directed acyclic dependency graph.
#[derive(Debug, Clone)]
pub struct DagWorkflow {
    /// Display name.
    pub name: String,
    /// Steps; indices are the dependency vocabulary.
    pub steps: Vec<DagStep>,
}

impl DagWorkflow {
    /// An empty DAG workflow.
    pub fn new(name: impl Into<String>) -> Self {
        DagWorkflow { name: name.into(), steps: Vec::new() }
    }

    /// Append a step, returning `self` for chaining.
    pub fn step(mut self, step: DagStep) -> Self {
        self.steps.push(step);
        self
    }

    /// All dependencies of step `i` (data + ordering edges, deduplicated).
    pub fn deps_of(&self, i: usize) -> BTreeSet<usize> {
        let mut deps = BTreeSet::new();
        if let Some(step) = self.steps.get(i) {
            for (_, source) in &step.params {
                if let ValueSource::StepOutput(from) = source {
                    deps.insert(*from);
                }
            }
            deps.extend(step.after.iter().copied());
        }
        deps
    }

    /// Steps with no dependencies (the initial dispatch frontier).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.steps.len()).filter(|i| self.deps_of(*i).is_empty()).collect()
    }

    /// Steps that depend (directly) on step `i`.
    pub fn dependents_of(&self, i: usize) -> Vec<usize> {
        (0..self.steps.len()).filter(|j| self.deps_of(*j).contains(&i)).collect()
    }

    /// Validate tools, references, and acyclicity.
    pub fn validate(&self, app: &GalaxyApp) -> Result<(), GalaxyError> {
        for (i, step) in self.steps.iter().enumerate() {
            if app.tool(&step.tool_id).is_none() {
                return Err(GalaxyError::UnknownTool(step.tool_id.clone()));
            }
            for dep in self.deps_of(i) {
                let reason = if dep == i {
                    "self_reference"
                } else if dep >= self.steps.len() {
                    "out_of_range"
                } else {
                    continue;
                };
                return Err(GalaxyError::InvalidStepReference {
                    workflow: self.name.clone(),
                    step: i,
                    reference: dep,
                    reason,
                });
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Kahn topological order, or [`GalaxyError::WorkflowCycle`] naming
    /// the steps stuck on the cycle.
    pub fn topo_order(&self) -> Result<Vec<usize>, GalaxyError> {
        let n = self.steps.len();
        let mut indegree: Vec<usize> = (0..n).map(|i| self.deps_of(i).len()).collect();
        let mut frontier: Vec<usize> = (0..n).filter(|i| indegree[*i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = frontier.pop() {
            order.push(i);
            for j in self.dependents_of(i) {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    frontier.push(j);
                }
            }
        }
        if order.len() < n {
            let stuck: Vec<String> = (0..n)
                .filter(|i| !order.contains(i))
                .map(|i| format!("step {i} ({})", self.steps[i].tool_id))
                .collect();
            return Err(GalaxyError::WorkflowCycle(format!(
                "workflow {:?}: {}",
                self.name,
                stuck.join(", ")
            )));
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DagWorkflow {
        DagWorkflow::new("diamond")
            .step(DagStep::new("prep"))
            .step(DagStep::new("left").after(0))
            .step(DagStep::new("right").after(0))
            .step(DagStep::new("join").after(1).after(2))
    }

    #[test]
    fn diamond_topology() {
        let dag = diamond();
        assert_eq!(dag.roots(), vec![0]);
        assert_eq!(dag.dependents_of(0), vec![1, 2]);
        assert_eq!(dag.deps_of(3), BTreeSet::from([1, 2]));
        let order = dag.topo_order().unwrap();
        assert_eq!(order.len(), 4);
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(1) < pos(3) && pos(2) < pos(3));
    }

    #[test]
    fn data_edges_count_as_dependencies() {
        let dag = DagWorkflow::new("data")
            .step(DagStep::new("a"))
            .step(DagStep::new("b").with_input_from("x", 0));
        assert_eq!(dag.deps_of(1), BTreeSet::from([0]));
        assert_eq!(dag.roots(), vec![0]);
    }

    #[test]
    fn cycle_detected_and_named() {
        let dag = DagWorkflow::new("loopy")
            .step(DagStep::new("a").after(1))
            .step(DagStep::new("b").after(0));
        match dag.topo_order() {
            Err(GalaxyError::WorkflowCycle(m)) => {
                assert!(m.contains("step 0") && m.contains("step 1"), "{m}");
            }
            other => panic!("expected WorkflowCycle, got {other:?}"),
        }
    }

    #[test]
    fn forward_data_reference_is_legal_when_acyclic() {
        // Step 0 consumes step 1's output: fine in a DAG.
        let dag = DagWorkflow::new("fwd")
            .step(DagStep::new("a").with_input_from("x", 1))
            .step(DagStep::new("b"));
        let order = dag.topo_order().unwrap();
        assert_eq!(order, vec![1, 0]);
    }

    fn app() -> GalaxyApp {
        use crate::job::conf::{JobConfig, GYAN_JOB_CONF};
        let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
        let upper = r#"<tool id="upper"><command>echo $text</command></tool>"#;
        app.install_tool_xml(upper, &crate::tool::macros::MacroLibrary::new()).unwrap();
        app
    }

    fn rejection(dag: &DagWorkflow) -> (usize, usize, &'static str, String) {
        match dag.validate(&app()) {
            Err(GalaxyError::InvalidStepReference { step, reference, reason, workflow }) => {
                (step, reference, reason, workflow)
            }
            other => panic!("expected InvalidStepReference, got {other:?}"),
        }
    }

    #[test]
    fn self_reference_rejected() {
        let dag = DagWorkflow::new("bad").step(DagStep::new("upper").with_input_from("text", 0));
        assert_eq!(rejection(&dag), (0, 0, "self_reference", "bad".to_string()));
    }

    #[test]
    fn out_of_range_reference_rejected() {
        let dag = DagWorkflow::new("bad")
            .step(DagStep::new("upper"))
            .step(DagStep::new("upper").with_input_from("text", 9));
        assert_eq!(rejection(&dag), (1, 9, "out_of_range", "bad".to_string()));
    }
}
