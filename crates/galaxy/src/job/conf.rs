//! `job_conf.xml` parsing: runner plugins, destinations, and tool mapping.
//!
//! Galaxy administrators configure job execution through this file. GYAN's
//! paper (Code 2) adds a *dynamic* destination whose `function` parameter
//! names a rule — `gpu_dynamic_destination` — that decides between GPU and
//! CPU destinations at submit time. This module parses that structure; the
//! rule functions themselves are registered on [`crate::app::GalaxyApp`].

use crate::error::GalaxyError;
use crate::params::ParamDict;
use std::collections::HashMap;
use std::sync::Arc;
use xmlparse::parse;

/// A `<plugin>` runner declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Plugin {
    /// Plugin id referenced by destinations (`local`, `dynamic`, ...).
    pub id: String,
    /// The `type` attribute (always `runner` here).
    pub ptype: String,
    /// Python load path in real Galaxy; informational here.
    pub load: String,
    /// Worker thread count.
    pub workers: u32,
}

/// A `<destination>` — a place jobs can be sent.
#[derive(Debug, Clone, PartialEq)]
pub struct Destination {
    /// Destination id (`local_gpu`, `docker_dest`, ...), shared with every
    /// job and plan mapped here.
    pub id: Arc<str>,
    /// Runner plugin id, or `dynamic` for rule-based destinations.
    pub runner: String,
    /// `<param id="...">value</param>` entries.
    pub params: ParamDict,
}

impl Destination {
    /// Whether this destination defers to a dynamic rule.
    pub fn is_dynamic(&self) -> bool {
        self.runner == "dynamic"
    }

    /// The dynamic rule function name (paper Code 2:
    /// `<param id="function">gpu_dynamic_destination</param>`).
    pub fn rule_function(&self) -> Option<&str> {
        self.params.get("function")
    }

    /// Whether Docker execution is enabled on this destination.
    pub fn docker_enabled(&self) -> bool {
        self.params.get("docker_enabled") == Some("true")
    }

    /// Whether Singularity execution is enabled on this destination.
    pub fn singularity_enabled(&self) -> bool {
        self.params.get("singularity_enabled") == Some("true")
    }
}

/// Parsed `job_conf.xml`.
#[derive(Debug, Clone, Default)]
pub struct JobConfig {
    /// Runner plugins.
    pub plugins: Vec<Plugin>,
    /// Destinations in declaration order.
    pub destinations: Vec<Destination>,
    /// The `default=` attribute of `<destinations>`.
    pub default_destination: Option<String>,
    /// `<tool id=... destination=...>` static mappings.
    pub tool_destinations: HashMap<String, String>,
}

impl JobConfig {
    /// Parse from XML source.
    pub fn from_xml(src: &str) -> Result<JobConfig, GalaxyError> {
        let doc = parse(src)?;
        let root = doc.root();
        if root.name() != "job_conf" {
            return Err(GalaxyError::BadJobConf(format!(
                "root must be <job_conf>, found <{}>",
                root.name()
            )));
        }

        let mut config = JobConfig::default();

        if let Some(plugins_el) = root.find("plugins") {
            for p in plugins_el.children_named("plugin") {
                config.plugins.push(Plugin {
                    id: require_attr(p, "id", "plugin")?,
                    ptype: p.attr("type").unwrap_or("runner").to_string(),
                    load: p.attr("load").unwrap_or_default().to_string(),
                    workers: p.attr("workers").and_then(|w| w.parse().ok()).unwrap_or(4),
                });
            }
        }

        if let Some(dests_el) = root.find("destinations") {
            config.default_destination = dests_el.attr("default").map(str::to_string);
            for d in dests_el.children_named("destination") {
                let mut params = ParamDict::new();
                for param_el in d.children_named("param") {
                    let key = require_attr(param_el, "id", "param")?;
                    params.set(key, param_el.text());
                }
                config.destinations.push(Destination {
                    id: require_attr(d, "id", "destination")?.into(),
                    runner: require_attr(d, "runner", "destination")?,
                    params,
                });
            }
        }

        if let Some(tools_el) = root.find("tools") {
            for t in tools_el.children_named("tool") {
                let id = require_attr(t, "id", "tool")?;
                let dest = require_attr(t, "destination", "tool")?;
                config.tool_destinations.insert(id, dest);
            }
        }

        config.validate()?;
        Ok(config)
    }

    fn validate(&self) -> Result<(), GalaxyError> {
        let dest_ids: Vec<&str> = self.destinations.iter().map(|d| &*d.id).collect();
        if let Some(default) = &self.default_destination {
            if !dest_ids.contains(&default.as_str()) {
                return Err(GalaxyError::BadJobConf(format!(
                    "default destination {default:?} is not declared"
                )));
            }
        }
        for (tool, dest) in &self.tool_destinations {
            if !dest_ids.contains(&dest.as_str()) {
                return Err(GalaxyError::BadJobConf(format!(
                    "tool {tool:?} maps to undeclared destination {dest:?}"
                )));
            }
        }
        for dest in &self.destinations {
            let known_runner =
                dest.runner == "dynamic" || self.plugins.iter().any(|p| p.id == dest.runner);
            if !known_runner {
                return Err(GalaxyError::BadJobConf(format!(
                    "destination {:?} references unknown runner {:?}",
                    dest.id, dest.runner
                )));
            }
        }
        Ok(())
    }

    /// Look up a destination by id.
    pub fn destination(&self, id: &str) -> Option<&Destination> {
        self.destinations.iter().find(|d| &*d.id == id)
    }

    /// The destination id configured for a tool: the static `<tools>`
    /// mapping if present, otherwise the default.
    pub fn destination_for_tool(&self, tool_id: &str) -> Option<&str> {
        self.tool_destinations
            .get(tool_id)
            .map(String::as_str)
            .or(self.default_destination.as_deref())
    }
}

fn require_attr(el: &xmlparse::Element, attr: &str, what: &str) -> Result<String, GalaxyError> {
    el.attr(attr)
        .map(str::to_string)
        .ok_or_else(|| GalaxyError::BadJobConf(format!("<{what}> missing {attr}=")))
}

/// The GYAN `job_conf.xml` from the paper's Code 2, extended with the
/// destinations the evaluation uses. Provided here so examples, tests, and
/// benches share one canonical configuration.
pub const GYAN_JOB_CONF: &str = r#"<job_conf>
  <plugins>
    <plugin id="local" type="runner" load="galaxy.jobs.runners.local:LocalJobRunner" workers="4"/>
  </plugins>
  <destinations default="dynamic_dest">
    <destination id="dynamic_dest" runner="dynamic">
      <param id="type">python</param>
      <param id="function">gpu_dynamic_destination</param>
      <param id="rules_module">dynamic_destination</param>
    </destination>
    <destination id="local_gpu" runner="local"/>
    <destination id="local_cpu" runner="local"/>
    <destination id="docker_gpu" runner="local">
      <param id="docker_enabled">true</param>
    </destination>
    <destination id="docker_cpu" runner="local">
      <param id="docker_enabled">true</param>
    </destination>
    <destination id="singularity_gpu" runner="local">
      <param id="singularity_enabled">true</param>
    </destination>
  </destinations>
  <tools>
  </tools>
</job_conf>"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_code2_shape() {
        let conf = JobConfig::from_xml(GYAN_JOB_CONF).unwrap();
        assert_eq!(conf.plugins.len(), 1);
        assert_eq!(conf.plugins[0].id, "local");
        assert_eq!(conf.default_destination.as_deref(), Some("dynamic_dest"));
        let dyn_dest = conf.destination("dynamic_dest").unwrap();
        assert!(dyn_dest.is_dynamic());
        assert_eq!(dyn_dest.rule_function(), Some("gpu_dynamic_destination"));
        assert!(conf.destination("docker_gpu").unwrap().docker_enabled());
        assert!(!conf.destination("local_gpu").unwrap().docker_enabled());
        assert!(conf.destination("singularity_gpu").unwrap().singularity_enabled());
    }

    #[test]
    fn tool_mapping_overrides_default() {
        let src = r#"<job_conf>
          <plugins><plugin id="local" type="runner" load="x"/></plugins>
          <destinations default="a">
            <destination id="a" runner="local"/>
            <destination id="b" runner="local"/>
          </destinations>
          <tools><tool id="bonito" destination="b"/></tools>
        </job_conf>"#;
        let conf = JobConfig::from_xml(src).unwrap();
        assert_eq!(conf.destination_for_tool("bonito"), Some("b"));
        assert_eq!(conf.destination_for_tool("anything_else"), Some("a"));
    }

    #[test]
    fn undeclared_default_rejected() {
        let src = r#"<job_conf><destinations default="ghost">
          <destination id="a" runner="dynamic"/>
        </destinations></job_conf>"#;
        assert!(matches!(JobConfig::from_xml(src), Err(GalaxyError::BadJobConf(_))));
    }

    #[test]
    fn undeclared_tool_destination_rejected() {
        let src = r#"<job_conf>
          <plugins><plugin id="local" type="runner" load="x"/></plugins>
          <destinations default="a"><destination id="a" runner="local"/></destinations>
          <tools><tool id="t" destination="ghost"/></tools>
        </job_conf>"#;
        assert!(JobConfig::from_xml(src).is_err());
    }

    #[test]
    fn unknown_runner_rejected() {
        let src = r#"<job_conf><destinations>
          <destination id="a" runner="slurm"/>
        </destinations></job_conf>"#;
        assert!(JobConfig::from_xml(src).is_err());
    }

    #[test]
    fn wrong_root_rejected() {
        assert!(JobConfig::from_xml("<conf/>").is_err());
    }

    #[test]
    fn workers_default_when_missing() {
        let src = r#"<job_conf>
          <plugins><plugin id="local" type="runner" load="x"/></plugins>
        </job_conf>"#;
        let conf = JobConfig::from_xml(src).unwrap();
        assert_eq!(conf.plugins[0].workers, 4);
    }
}
