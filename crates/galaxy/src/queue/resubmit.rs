//! Failure resubmission policy — Galaxy's `<resubmit>` semantics.
//!
//! Real Galaxy lets a destination declare `<resubmit>` children that send
//! a failed job to another destination (the canonical use: a GPU
//! destination falling back to CPU when the device errors or runs out of
//! memory). [`ResubmitPolicy`] models that: a total attempt budget plus an
//! ordered fallback destination list. Attempt 1 runs on the mapped
//! destination; attempt `n + 1` runs on `fallbacks[n - 1]` (the last
//! fallback repeats if the list is shorter than the budget).
//!
//! Destinations can carry their own policy through `job_conf` params
//! (`resubmit_destination`, `resubmit_attempts`), which overrides the
//! engine-wide default for jobs first mapped there.
//!
//! Ordering note: when an attempt fails retryably, the engine concludes
//! the attempt (`JobConclusion::FailedRetryable`, releasing any
//! hook-held resources such as GPU leases) **before** the resubmitted
//! attempt is re-prepared — so a GPU→CPU fallback never re-prepares
//! while the failed attempt still holds its devices.

use crate::job::conf::Destination;

/// Configurable retry/resubmission policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResubmitPolicy {
    /// Total attempts allowed, including the first (1 = never resubmit).
    pub max_attempts: u32,
    /// Fallback destination ids for attempts 2, 3, ...; the last entry
    /// repeats when the attempt budget exceeds the list.
    pub fallbacks: Vec<String>,
    /// Placement-aware retries: before walking the fallback ladder, retry
    /// up to this many times on the *same* destination with the failed
    /// node added to the job's exclusion set. Only effective when a hook
    /// confirms a node outside that set still hosts the tool (see
    /// [`crate::runners::JobHook::hosts_outside`]); node retries count
    /// against `max_attempts` but do not consume the fallback ladder.
    pub node_retries: u32,
    /// Footprint-revised retries: before walking the fallback ladder,
    /// retry up to this many times on the *same* destination with a
    /// revised GPU memory budget from a hook (see
    /// [`crate::runners::JobHook::revised_gpu_budget`]) — a job that died
    /// under a too-small learned budget gets a bigger one instead of
    /// blindly falling to CPU. Only effective when a hook revises
    /// budgets; like node retries, these count against
    /// `max_attempts` but do not consume the fallback ladder.
    pub footprint_retries: u32,
}

impl Default for ResubmitPolicy {
    fn default() -> Self {
        ResubmitPolicy::none()
    }
}

impl ResubmitPolicy {
    /// Never resubmit (a failure is final on the first attempt).
    pub fn none() -> Self {
        ResubmitPolicy {
            max_attempts: 1,
            fallbacks: Vec::new(),
            node_retries: 0,
            footprint_retries: 0,
        }
    }

    /// The paper's canonical fallback: one retry on a CPU destination
    /// after a GPU failure.
    pub fn gpu_to_cpu(cpu_destination: impl Into<String>) -> Self {
        ResubmitPolicy {
            max_attempts: 2,
            fallbacks: vec![cpu_destination.into()],
            node_retries: 0,
            footprint_retries: 0,
        }
    }

    /// Allow up to `retries` same-destination resubmissions with a
    /// revised memory budget (from a hook) before the ladder,
    /// growing `max_attempts` to keep the existing ladder reachable.
    pub fn with_footprint_retries(mut self, retries: u32) -> Self {
        self.max_attempts += retries.saturating_sub(self.footprint_retries);
        self.footprint_retries = retries;
        self
    }

    /// Destination for the attempt after `completed_attempts` failures, or
    /// `None` when the budget is exhausted or no fallback is configured.
    pub fn fallback_for(&self, completed_attempts: u32) -> Option<&str> {
        if completed_attempts >= self.max_attempts || self.fallbacks.is_empty() {
            return None;
        }
        let idx = (completed_attempts as usize - 1).min(self.fallbacks.len() - 1);
        Some(self.fallbacks[idx].as_str())
    }

    /// Parse a destination-level policy from `job_conf` params:
    /// `resubmit_destination` (comma-separated fallback ids), optional
    /// `resubmit_node_retries` (placement-aware same-destination retries
    /// with the failed node excluded), and optional `resubmit_attempts`
    /// (total attempts; defaults to one per fallback plus one per node
    /// retry plus the initial attempt). A destination with node retries
    /// but no fallback list fails finally once its node-retry budget is
    /// spent.
    pub fn from_destination(dest: &Destination) -> Option<Self> {
        let fallbacks: Vec<String> = dest
            .params
            .get("resubmit_destination")
            .map(|raw| {
                raw.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect()
            })
            .unwrap_or_default();
        let node_retries = dest
            .params
            .get("resubmit_node_retries")
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(0);
        let footprint_retries = dest
            .params
            .get("resubmit_footprint_retries")
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(0);
        if fallbacks.is_empty() && node_retries == 0 && footprint_retries == 0 {
            return None;
        }
        let max_attempts = dest
            .params
            .get("resubmit_attempts")
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(fallbacks.len() as u32 + node_retries + footprint_retries + 1)
            .max(1);
        Some(ResubmitPolicy { max_attempts, fallbacks, node_retries, footprint_retries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::conf::JobConfig;

    #[test]
    fn none_never_offers_a_fallback() {
        let p = ResubmitPolicy::none();
        assert_eq!(p.fallback_for(1), None);
    }

    #[test]
    fn gpu_to_cpu_offers_exactly_one_retry() {
        let p = ResubmitPolicy::gpu_to_cpu("local_cpu");
        assert_eq!(p.fallback_for(1), Some("local_cpu"));
        assert_eq!(p.fallback_for(2), None, "budget exhausted");
    }

    #[test]
    fn last_fallback_repeats_up_to_budget() {
        let p = ResubmitPolicy {
            max_attempts: 4,
            fallbacks: vec!["docker_cpu".into(), "local_cpu".into()],
            node_retries: 0,
            footprint_retries: 0,
        };
        assert_eq!(p.fallback_for(1), Some("docker_cpu"));
        assert_eq!(p.fallback_for(2), Some("local_cpu"));
        assert_eq!(p.fallback_for(3), Some("local_cpu"));
        assert_eq!(p.fallback_for(4), None);
    }

    #[test]
    fn placement_aware_budgets_node_retries_before_cpu() {
        let conf = r#"<job_conf>
          <plugins><plugin id="local" type="runner" load="x"/></plugins>
          <destinations default="fleet_gpu">
            <destination id="fleet_gpu" runner="local">
              <param id="resubmit_destination">local_cpu</param>
              <param id="resubmit_node_retries">2</param>
            </destination>
          </destinations>
        </job_conf>"#;
        let config = JobConfig::from_xml(conf).unwrap();
        let p = ResubmitPolicy::from_destination(config.destination("fleet_gpu").unwrap()).unwrap();
        assert_eq!(p.max_attempts, 4, "1 initial + 2 node retries + 1 CPU");
        assert_eq!(p.node_retries, 2);
        assert_eq!(p.fallbacks, vec!["local_cpu".to_string()]);
    }

    #[test]
    fn node_retries_parsed_from_destination_params() {
        let conf = r#"<job_conf>
          <plugins><plugin id="local" type="runner" load="x"/></plugins>
          <destinations default="fleet_gpu">
            <destination id="fleet_gpu" runner="local">
              <param id="resubmit_destination">local_cpu</param>
              <param id="resubmit_node_retries">2</param>
            </destination>
            <destination id="nodes_only" runner="local">
              <param id="resubmit_node_retries">1</param>
            </destination>
          </destinations>
        </job_conf>"#;
        let config = JobConfig::from_xml(conf).unwrap();
        let p = ResubmitPolicy::from_destination(config.destination("fleet_gpu").unwrap()).unwrap();
        assert_eq!((p.max_attempts, p.node_retries), (4, 2));
        assert_eq!(p.fallbacks, vec!["local_cpu".to_string()]);
        // Node retries alone are a valid policy: no ladder, finite budget.
        let p =
            ResubmitPolicy::from_destination(config.destination("nodes_only").unwrap()).unwrap();
        assert_eq!((p.max_attempts, p.node_retries), (2, 1));
        assert!(p.fallbacks.is_empty());
        assert_eq!(p.fallback_for(1), None);
    }

    #[test]
    fn parsed_from_destination_params() {
        let conf = r#"<job_conf>
          <plugins><plugin id="local" type="runner" load="x"/></plugins>
          <destinations default="gpu">
            <destination id="gpu" runner="local">
              <param id="resubmit_destination">cpu_a, cpu_b</param>
              <param id="resubmit_attempts">3</param>
            </destination>
            <destination id="plain" runner="local"/>
          </destinations>
        </job_conf>"#;
        let config = JobConfig::from_xml(conf).unwrap();
        let p = ResubmitPolicy::from_destination(config.destination("gpu").unwrap()).unwrap();
        assert_eq!(p.max_attempts, 3);
        assert_eq!(p.fallbacks, vec!["cpu_a".to_string(), "cpu_b".to_string()]);
        assert!(ResubmitPolicy::from_destination(config.destination("plain").unwrap()).is_none());
    }
}
