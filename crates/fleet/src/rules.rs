//! TPV-style destination rules: declarative `tool → node-class`
//! constraints with cores/memory right-sizing.
//!
//! Total Perspective Vortex routes Galaxy tools to destinations by
//! matching tool ids against operator-written rules that also right-size
//! the job's resource ask. This module is the fleet-level equivalent, and
//! part of the fleet's answer to `gyan::rules::dynamic_destination`'s
//! "does a node admit this tool": the *first matching* rule constrains
//! which node classes may host the tool and what cores/memory the
//! placement records.
//!
//! Line syntax (one rule per line, `#` comments, first match wins):
//!
//! ```text
//! tool=bonito*  classes=v100,a100  min_gpu_mem_mib=12000  cores=8  mem_mib=65536
//! tool=racon_gpu classes=any
//! tool=*
//! ```
//!
//! * `tool=` — exact tool id, or a prefix glob with a trailing `*`
//!   (`bonito*` matches `bonito` and `bonito_gpu`); `*` matches any.
//! * `classes=` — comma-separated node-class labels, or `any`.
//! * `min_gpu_mem_mib=` — per-die memory floor a class must satisfy.
//! * `cores=` / `mem_mib=` — host-side right-sizing recorded on the
//!   placement (capped at the class's hardware by the fleet).

use crate::node::NodeClass;

/// One `tool → node-class` constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct DestinationRule {
    /// Tool pattern: exact id, trailing-`*` prefix glob, or `*`.
    pub tool: String,
    /// Allowed node-class labels; empty = any class.
    pub classes: Vec<String>,
    /// Per-die GPU memory floor in MiB (0 = no floor).
    pub min_gpu_mem_mib: u64,
    /// Host cores to right-size the job to, when set.
    pub cores: Option<u32>,
    /// Host memory (MiB) to right-size the job to, when set.
    pub mem_mib: Option<u64>,
}

impl DestinationRule {
    /// A rule admitting `tool` (pattern) on any class with no floors.
    pub fn any(tool: impl Into<String>) -> Self {
        DestinationRule {
            tool: tool.into(),
            classes: Vec::new(),
            min_gpu_mem_mib: 0,
            cores: None,
            mem_mib: None,
        }
    }

    /// Whether this rule's pattern matches `tool_id`.
    pub fn matches_tool(&self, tool_id: &str) -> bool {
        match self.tool.strip_suffix('*') {
            Some(prefix) => tool_id.starts_with(prefix),
            None => self.tool == tool_id,
        }
    }

    /// Whether `class` satisfies this rule's class list and memory floor.
    pub fn admits_class(&self, class: &NodeClass) -> bool {
        let class_ok = self.classes.is_empty() || self.classes.iter().any(|c| c == class.name);
        class_ok && class.arch.fb_total_mib >= self.min_gpu_mem_mib
    }

    /// Parse one rule line (see the module docs for the syntax).
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut rule: Option<DestinationRule> = None;
        let mut fields: Vec<(&str, &str)> = Vec::new();
        for token in line.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("rule token '{token}' is not key=value"))?;
            if key == "tool" {
                rule = Some(DestinationRule::any(value));
            } else {
                fields.push((key, value));
            }
        }
        let mut rule = rule.ok_or_else(|| format!("rule '{line}' has no tool= pattern"))?;
        for (key, value) in fields {
            match key {
                "classes" => {
                    if value != "any" {
                        rule.classes = value.split(',').map(str::to_string).collect();
                    }
                }
                "min_gpu_mem_mib" => {
                    rule.min_gpu_mem_mib =
                        value.parse().map_err(|_| format!("bad min_gpu_mem_mib '{value}'"))?;
                }
                "cores" => {
                    rule.cores = Some(value.parse().map_err(|_| format!("bad cores '{value}'"))?);
                }
                "mem_mib" => {
                    rule.mem_mib =
                        Some(value.parse().map_err(|_| format!("bad mem_mib '{value}'"))?);
                }
                other => return Err(format!("unknown rule key '{other}'")),
            }
        }
        Ok(rule)
    }
}

/// An ordered rule set; the first rule whose pattern matches decides.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DestinationRules {
    rules: Vec<DestinationRule>,
}

impl DestinationRules {
    /// An empty set (every tool admitted on every class).
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse a rule file: one rule per line, blank lines and `#` comments
    /// skipped.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = Self::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            out.rules.push(DestinationRule::parse(line)?);
        }
        Ok(out)
    }

    /// Append a rule (lowest priority so far).
    pub fn push(&mut self, rule: DestinationRule) {
        self.rules.push(rule);
    }

    /// Builder-style [`DestinationRules::push`].
    pub fn with(mut self, rule: DestinationRule) -> Self {
        self.push(rule);
        self
    }

    /// The first rule matching `tool_id`, if any.
    pub fn match_tool(&self, tool_id: &str) -> Option<&DestinationRule> {
        self.rules.iter().find(|r| r.matches_tool(tool_id))
    }

    /// Right-sized (cores, host mem MiB) for `tool_id` on `class`: the
    /// matching rule's ask capped at the class's hardware, or the full
    /// node when no rule asks.
    pub fn right_size(&self, tool_id: &str, class: &NodeClass) -> (u32, u64) {
        match self.match_tool(tool_id) {
            Some(rule) => (
                rule.cores.unwrap_or(class.cores).min(class.cores),
                rule.mem_mib.unwrap_or(class.host_mem_mib).min(class.host_mem_mib),
            ),
            None => (class.cores, class.host_mem_mib),
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Whether a node of `class` may host a job at the given per-job memory
/// hint under `rule`, the first rule matching its tool
/// ([`DestinationRules::match_tool`], matched once for all the classes
/// one request is asked about). `None` — no rule matches — means no
/// constraint; the node must always admit the hint the way a single node
/// does ([`gyan::node_admits`]: it has a GPU, and the hint fits one die).
pub(crate) fn rule_admits(
    rule: Option<&DestinationRule>,
    class: &NodeClass,
    memory_hint_mib: u64,
) -> bool {
    gyan::node_admits(&class.arch, class.gpus, memory_hint_mib)
        && rule.is_none_or(|r| r.admits_class(class))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &str = "\
# basecallers need big dies
tool=bonito* classes=v100,a100 min_gpu_mem_mib=12000 cores=8 mem_mib=65536
tool=racon_gpu classes=any cores=4
tool=*
";

    #[test]
    fn parses_the_documented_syntax() {
        let rules = DestinationRules::parse(RULES).unwrap();
        assert_eq!(rules.len(), 3);
        let bonito = rules.match_tool("bonito_gpu").unwrap();
        assert_eq!(bonito.classes, vec!["v100", "a100"]);
        assert_eq!(bonito.min_gpu_mem_mib, 12_000);
        assert_eq!((bonito.cores, bonito.mem_mib), (Some(8), Some(65_536)));
        // First match wins: racon_gpu hits its own rule, not the catch-all.
        assert_eq!(rules.match_tool("racon_gpu").unwrap().cores, Some(4));
        assert!(rules.match_tool("sort").unwrap().classes.is_empty());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(DestinationRule::parse("classes=v100").is_err(), "no tool=");
        assert!(DestinationRule::parse("tool=x nonsense").is_err(), "bare token");
        assert!(DestinationRule::parse("tool=x flavor=mint").is_err(), "unknown key");
        assert!(DestinationRule::parse("tool=x cores=lots").is_err(), "bad number");
    }

    fn admits(rules: &DestinationRules, tool_id: &str, class: &NodeClass, hint: u64) -> bool {
        rule_admits(rules.match_tool(tool_id), class, hint)
    }

    #[test]
    fn class_admission_honours_lists_and_memory_floors() {
        let rules = DestinationRules::parse(RULES).unwrap();
        // K80 dies (11,441 MiB) are both off-list and under the floor.
        assert!(!admits(&rules, "bonito", &NodeClass::k80(), 1024));
        assert!(admits(&rules, "bonito", &NodeClass::v100(), 1024));
        assert!(admits(&rules, "bonito", &NodeClass::a100(), 1024));
        // Unmatched tools are unconstrained (but never fit a cpu node).
        assert!(admits(&rules, "racon_gpu", &NodeClass::k80(), 1024));
        assert!(!admits(&rules, "racon_gpu", &NodeClass::cpu(), 1024));
        // The per-job hint must fit one die regardless of rules.
        assert!(!admits(&rules, "racon_gpu", &NodeClass::k80(), 20_000));
        assert!(admits(&rules, "racon_gpu", &NodeClass::a100(), 20_000));
    }

    #[test]
    fn right_sizing_caps_at_the_class_hardware() {
        let rules = DestinationRules::parse(RULES).unwrap();
        assert_eq!(rules.right_size("bonito", &NodeClass::a100()), (8, 65_536));
        // cores=8 asked, but the rule's mem cap exceeds nothing on a100;
        // on the smaller k80 host the ask is clamped.
        let rules2 = DestinationRules::parse("tool=* cores=512 mem_mib=1073741824").unwrap();
        assert_eq!(rules2.right_size("x", &NodeClass::k80()), (32, 128 * 1024));
        // No rules: the whole node.
        assert_eq!(DestinationRules::new().right_size("x", &NodeClass::v100()), (40, 256 * 1024));
    }

    #[test]
    fn min_gpu_mem_floor_without_class_list() {
        let rule = DestinationRule { min_gpu_mem_mib: 30_000, ..DestinationRule::any("deep*") };
        let rules = DestinationRules::new().with(rule);
        assert!(!admits(&rules, "deepvariant", &NodeClass::v100(), 100));
        assert!(admits(&rules, "deepvariant", &NodeClass::a100(), 100));
    }
}
