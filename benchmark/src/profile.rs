//! The program's own `obs::profile` scopes, switched on for traced
//! repeats only. No scope is added by the benchmark: this module just
//! reads the table the program already keeps.

use crate::trace::layer_of;
use std::collections::BTreeMap;

/// Aggregate of every scope path ending in one leaf name.
#[derive(Default, Clone, Copy)]
pub struct Leaf {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// One timed section's scope table.
#[derive(Default, Clone)]
pub struct ScopeTable {
    pub entries: Vec<obs::profile::ScopeEntry>,
}

/// Run `timed`; when `on`, with the program's scopes aggregating from an
/// empty table, which is returned (empty when off).
pub fn during<T>(on: bool, timed: impl FnOnce() -> T) -> (T, ScopeTable) {
    if !on {
        return (timed(), ScopeTable::default());
    }
    let p = obs::profile::global();
    p.reset();
    p.enable();
    let out = timed();
    p.disable();
    (out, ScopeTable { entries: p.snapshot() })
}

impl ScopeTable {
    pub fn leaf(&self, name: &str) -> Leaf {
        let mut out = Leaf::default();
        for e in self.entries.iter().filter(|e| e.name() == name) {
            out.count += e.stats.count;
            out.total_s += e.stats.total_s;
            out.self_s += e.stats.self_s;
        }
        out
    }

    /// Calls of scopes whose leaf name starts with `prefix`.
    pub fn count_prefixed(&self, prefix: &str) -> u64 {
        self.entries.iter().filter(|e| e.name().starts_with(prefix)).map(|e| e.stats.count).sum()
    }

    /// Time inside outermost scopes: what the benchmark span enclosing
    /// them must give up to the layers the scopes name.
    pub fn root_total_s(&self) -> f64 {
        self.entries.iter().filter(|e| e.depth() == 0).map(|e| e.stats.total_s).sum()
    }

    /// Scope self time summed per layer.
    pub fn self_by_layer(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for e in &self.entries {
            *out.entry(layer_of(e.name()).to_string()).or_insert(0.0) += e.stats.self_s;
        }
        out
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "\n{{\"path\":\"{}\",\"count\":{},\"total_s\":{:.9},\"self_s\":{:.9}}}",
                    e.path, e.stats.count, e.stats.total_s, e.stats.self_s
                )
            })
            .collect();
        format!("[{}\n]", rows.join(","))
    }
}
