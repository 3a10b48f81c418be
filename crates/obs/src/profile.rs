//! Hierarchical hot-path profiler.
//!
//! Where the [`crate::Recorder`] keeps *every* span for audit and trace
//! export, the profiler keeps *aggregates*: per-scope call counts,
//! total/self wall time, and min/max, keyed by the collapsed call stack
//! (`"alloc.decision;gyan.allocate;alloc.observe"`). That makes it cheap
//! enough to instrument code that runs hundreds of thousands of times —
//! the allocation hot path — where recording one span per call would
//! swamp the measurement.
//!
//! Usage: drop a [`crate::profile_scope!`] at the top of each stage. The macro
//! hits the process-wide [`global`] profiler, which starts **disabled** —
//! one relaxed atomic load per call site — so instrumented code pays
//! nothing until a benchmark, test, or the live ops plane turns it on.
//!
//! ```
//! obs::profile_scope!("my.stage");          // guard ends at scope exit
//! ```
//!
//! Two exports:
//!
//! * [`Profiler::collapsed`] — inferno-compatible collapsed-stack text
//!   (`path self_time_us` per line), ready for `flamegraph.pl` /
//!   `inferno-flamegraph`;
//! * [`Profiler::summary_json`] — a JSON summary served by the ops
//!   plane's `/api/profile` and embedded in `BENCH_scheduler.json`.
//!
//! Clock: by default the profiler reads the **real** monotonic clock
//! ([`std::time::Instant`]) because its job is measuring actual CPU cost;
//! [`Profiler::set_clock`] injects a virtual clock for deterministic
//! tests.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Aggregated statistics for one collapsed-stack scope path.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeStats {
    /// Times the scope was entered.
    pub count: u64,
    /// Total seconds spent inside the scope (including children).
    pub total_s: f64,
    /// Seconds spent in the scope itself, excluding profiled children.
    pub self_s: f64,
    /// Shortest single call (seconds, including children).
    pub min_s: f64,
    /// Longest single call (seconds, including children).
    pub max_s: f64,
}

impl ScopeStats {
    fn record(&mut self, elapsed: f64, self_time: f64) {
        self.count += 1;
        self.total_s += elapsed;
        self.self_s += self_time;
        self.min_s = if self.count == 1 { elapsed } else { self.min_s.min(elapsed) };
        self.max_s = self.max_s.max(elapsed);
    }
}

/// One exported scope: its collapsed path plus aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeEntry {
    /// Collapsed call-stack path, frames joined by `;` (leaf last).
    pub path: String,
    /// Aggregated statistics.
    pub stats: ScopeStats,
}

impl ScopeEntry {
    /// The leaf frame name (last `;`-separated segment).
    pub fn name(&self) -> &str {
        self.path.rsplit(';').next().unwrap_or(&self.path)
    }

    /// Nesting depth (0 for a root scope).
    pub fn depth(&self) -> usize {
        self.path.matches(';').count()
    }
}

type ClockFn = dyn Fn() -> f64 + Send + Sync;

struct ProfilerInner {
    enabled: AtomicBool,
    scopes: Mutex<BTreeMap<String, ScopeStats>>,
    clock: Mutex<Arc<ClockFn>>,
}

/// Thread-safe aggregating profiler; clone freely — clones share one
/// registry, one clock, one enabled flag.
#[derive(Clone)]
pub struct Profiler {
    inner: Arc<ProfilerInner>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Per-thread stack of open profile frames: (collapsed path, seconds
    /// attributed to profiled children so far). Scope nesting is a
    /// per-thread property, so pool workers each build their own stacks.
    static FRAMES: RefCell<Vec<(String, f64)>> = const { RefCell::new(Vec::new()) };
}

fn real_clock() -> Arc<ClockFn> {
    let base = Instant::now();
    Arc::new(move || base.elapsed().as_secs_f64())
}

impl Profiler {
    /// A disabled profiler on the real monotonic clock.
    pub fn new() -> Self {
        Profiler {
            inner: Arc::new(ProfilerInner {
                enabled: AtomicBool::new(false),
                scopes: Mutex::new(BTreeMap::new()),
                clock: Mutex::new(real_clock()),
            }),
        }
    }

    /// Start aggregating (idempotent).
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop aggregating; already-aggregated stats are kept. Scopes still
    /// open finish recording (their guards hold real start times).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether scopes are currently being aggregated.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Replace the timestamp source (e.g. a virtual clock for
    /// deterministic tests).
    pub fn set_clock(&self, clock: impl Fn() -> f64 + Send + Sync + 'static) {
        *self.inner.clock.lock().unwrap_or_else(|e| e.into_inner()) = Arc::new(clock);
    }

    /// Back to the real monotonic clock (the default).
    pub fn enable_real_clock(&self) {
        *self.inner.clock.lock().unwrap_or_else(|e| e.into_inner()) = real_clock();
    }

    fn now(&self) -> f64 {
        let clock = self.inner.clock.lock().unwrap_or_else(|e| e.into_inner()).clone();
        clock()
    }

    /// Enter a profiled scope: pushes a frame on this thread's stack and
    /// returns a guard that records on drop. Returns `None` (for ~one
    /// atomic load) while disabled — the whole cost of dormant
    /// instrumentation.
    pub fn scope(&self, name: &str) -> Option<ScopeGuard> {
        if !self.is_enabled() {
            return None;
        }
        // Read the clock before building the frame (and, on exit, after
        // finding the registry entry), so a scope's own bookkeeping lands
        // in its self time instead of inflating its parent's.
        let start = self.now();
        let path = FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            let path = match frames.last() {
                Some((parent, _)) => format!("{parent};{name}"),
                None => name.to_string(),
            };
            frames.push((path.clone(), 0.0));
            path
        });
        Some(ScopeGuard { profiler: self.clone(), path, start })
    }

    fn record(&self, path: &str, start: f64) {
        // Pop this frame, fold the aggregates into the registry, and
        // charge the elapsed time to the parent frame's child accumulator.
        // Guards drop LIFO (they are scope-bound), so the top frame is
        // ours; tolerate a mismatched pop rather than panicking inside a
        // Drop impl.
        let child_time = FRAMES.with(|frames| match frames.borrow_mut().pop() {
            Some((top, child_time)) if top == path => child_time,
            _ => 0.0,
        });
        let elapsed = {
            let mut scopes = self.inner.scopes.lock().unwrap_or_else(|e| e.into_inner());
            let stats = scopes.entry(path.to_string()).or_insert(ScopeStats {
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
                min_s: 0.0,
                max_s: 0.0,
            });
            let elapsed = (self.now() - start).max(0.0);
            stats.record(elapsed, (elapsed - child_time).max(0.0));
            elapsed
        };
        FRAMES.with(|frames| {
            if let Some((_, parent_children)) = frames.borrow_mut().last_mut() {
                *parent_children += elapsed;
            }
        });
    }

    /// Drop all aggregated scopes (the enabled flag and clock are kept).
    pub fn reset(&self) {
        self.inner.scopes.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Snapshot every aggregated scope, sorted by collapsed path.
    pub fn snapshot(&self) -> Vec<ScopeEntry> {
        self.inner
            .scopes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(path, stats)| ScopeEntry { path: path.clone(), stats: stats.clone() })
            .collect()
    }

    /// Inferno-compatible collapsed-stack text: one `path self_time_us`
    /// line per scope (self time in integer microseconds, the "sample
    /// count" a flamegraph renders). Feed it straight to
    /// `inferno-flamegraph` / `flamegraph.pl`.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for entry in self.snapshot() {
            let us = (entry.stats.self_s * 1e6).round() as u64;
            out.push_str(&format!("{} {}\n", entry.path, us));
        }
        out
    }

    /// JSON summary of every scope:
    /// `{"type":"profile","scopes":[{"path":…,"count":…,"total_s":…,
    /// "self_s":…,"min_s":…,"max_s":…},…]}`.
    pub fn summary_json(&self) -> String {
        let scopes: Vec<String> = self
            .snapshot()
            .iter()
            .map(|e| {
                format!(
                    "{{\"path\":\"{}\",\"count\":{},\"total_s\":{},\"self_s\":{},\
                     \"min_s\":{},\"max_s\":{}}}",
                    crate::json_escape(&e.path),
                    e.stats.count,
                    crate::format_f64(e.stats.total_s),
                    crate::format_f64(e.stats.self_s),
                    crate::format_f64(e.stats.min_s),
                    crate::format_f64(e.stats.max_s),
                )
            })
            .collect();
        format!("{{\"type\":\"profile\",\"scopes\":[{}]}}", scopes.join(","))
    }

    /// How much of root scope `root`'s wall time its profiled children
    /// account for, in percent (`None` when the root was never recorded
    /// or has zero total). 100 means every second inside the root was
    /// inside some named child scope — the attribution guarantee the
    /// perf gate checks.
    pub fn attributed_pct(&self, root: &str) -> Option<f64> {
        let scopes = self.inner.scopes.lock().unwrap_or_else(|e| e.into_inner());
        let stats = scopes.get(root)?;
        if stats.total_s <= 0.0 {
            return None;
        }
        Some(100.0 * (stats.total_s - stats.self_s) / stats.total_s)
    }
}

/// Guard for one open scope; records aggregates when dropped.
pub struct ScopeGuard {
    profiler: Profiler,
    path: String,
    start: f64,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        self.profiler.record(&self.path, self.start);
    }
}

/// The process-wide profiler [`crate::profile_scope!`] records into. Starts
/// disabled; benchmarks, tests, and the ops plane enable it on demand.
pub fn global() -> &'static Profiler {
    static GLOBAL: OnceLock<Profiler> = OnceLock::new();
    GLOBAL.get_or_init(Profiler::new)
}

/// Open a scope on the [`global`] profiler for the rest of the enclosing
/// block. Costs one relaxed atomic load while the profiler is disabled.
#[macro_export]
macro_rules! profile_scope {
    ($name:expr) => {
        let _obs_profile_scope_guard = $crate::profile::global().scope($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A profiler on a stepped (millisecond-cell) clock, enabled.
    fn stepped() -> (Profiler, Arc<AtomicU64>) {
        let cell = Arc::new(AtomicU64::new(0));
        let c = cell.clone();
        let p = Profiler::new();
        p.set_clock(move || c.load(Ordering::SeqCst) as f64 / 1000.0);
        p.enable();
        (p, cell)
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::new();
        assert!(!p.is_enabled());
        assert!(p.scope("noop").is_none());
        assert!(p.snapshot().is_empty());
        assert!(p.collapsed().is_empty());
    }

    #[test]
    fn nested_scopes_build_collapsed_paths_with_self_time() {
        let (p, clock) = stepped();
        {
            let _outer = p.scope("outer");
            clock.store(100, Ordering::SeqCst);
            {
                let _inner = p.scope("inner");
                clock.store(400, Ordering::SeqCst);
            }
            clock.store(500, Ordering::SeqCst);
        }
        let snap = p.snapshot();
        assert_eq!(snap.len(), 2);
        let outer = snap.iter().find(|e| e.path == "outer").unwrap();
        let inner = snap.iter().find(|e| e.path == "outer;inner").unwrap();
        assert_eq!(inner.name(), "inner");
        assert_eq!(inner.depth(), 1);
        assert_eq!(outer.stats.count, 1);
        assert!((outer.stats.total_s - 0.5).abs() < 1e-9);
        // outer self = 0.5 total - 0.3 spent in inner.
        assert!((outer.stats.self_s - 0.2).abs() < 1e-9);
        assert!((inner.stats.total_s - 0.3).abs() < 1e-9);
        assert!((inner.stats.self_s - 0.3).abs() < 1e-9);
    }

    #[test]
    fn repeated_calls_aggregate_count_min_max() {
        let (p, clock) = stepped();
        for (i, ms) in [100u64, 300, 200].iter().enumerate() {
            let t0 = i as u64 * 1000;
            clock.store(t0, Ordering::SeqCst);
            let _g = p.scope("work");
            clock.store(t0 + ms, Ordering::SeqCst);
        }
        let snap = p.snapshot();
        let work = &snap[0].stats;
        assert_eq!(work.count, 3);
        assert!((work.total_s - 0.6).abs() < 1e-9);
        assert!((work.min_s - 0.1).abs() < 1e-9);
        assert!((work.max_s - 0.3).abs() < 1e-9);
    }

    #[test]
    fn collapsed_output_is_inferno_shaped() {
        let (p, clock) = stepped();
        {
            let _a = p.scope("alloc");
            clock.store(1000, Ordering::SeqCst);
            let _b = p.scope("observe");
            clock.store(3000, Ordering::SeqCst);
        }
        let collapsed = p.collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(lines.len(), 2);
        // `path value` with a semicolon-joined path and integer µs value.
        assert_eq!(lines[0], "alloc 1000000");
        assert_eq!(lines[1], "alloc;observe 2000000");
        for line in lines {
            let (path, value) = line.rsplit_once(' ').unwrap();
            assert!(!path.is_empty());
            value.parse::<u64>().expect("integer sample value");
        }
    }

    #[test]
    fn summary_json_parses_and_carries_all_fields() {
        let (p, clock) = stepped();
        {
            let _g = p.scope("stage");
            clock.store(250, Ordering::SeqCst);
        }
        let doc = crate::json::parse(&p.summary_json()).expect("summary parses");
        assert_eq!(doc.get("type").and_then(|v| v.as_str()), Some("profile"));
        let scopes = doc.get("scopes").and_then(|v| v.as_array()).unwrap();
        assert_eq!(scopes.len(), 1);
        let s = &scopes[0];
        assert_eq!(s.get("path").and_then(|v| v.as_str()), Some("stage"));
        assert_eq!(s.get("count").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(s.get("total_s").and_then(|v| v.as_f64()), Some(0.25));
        assert_eq!(s.get("self_s").and_then(|v| v.as_f64()), Some(0.25));
        assert_eq!(s.get("min_s").and_then(|v| v.as_f64()), Some(0.25));
        assert_eq!(s.get("max_s").and_then(|v| v.as_f64()), Some(0.25));
    }

    #[test]
    fn attribution_measures_child_coverage_of_a_root() {
        let (p, clock) = stepped();
        {
            let _root = p.scope("root");
            {
                let _child = p.scope("child");
                clock.store(900, Ordering::SeqCst);
            }
            clock.store(1000, Ordering::SeqCst);
        }
        // 0.9 of 1.0 seconds inside the named child.
        assert!((p.attributed_pct("root").unwrap() - 90.0).abs() < 1e-6);
        assert!(p.attributed_pct("missing").is_none());
    }

    #[test]
    fn threads_aggregate_into_one_registry_with_per_thread_stacks() {
        let p = Profiler::new();
        p.enable();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let _outer = p.scope("job");
                    let _inner = p.scope("phase");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = p.snapshot();
        let paths: Vec<&str> = snap.iter().map(|e| e.path.as_str()).collect();
        // Per-thread stacks never interleave: exactly two paths, each
        // counted once per thread.
        assert_eq!(paths, vec!["job", "job;phase"]);
        assert!(snap.iter().all(|e| e.stats.count == 4));
    }

    #[test]
    fn reset_clears_scopes_but_keeps_enablement() {
        let (p, clock) = stepped();
        {
            let _g = p.scope("gone");
            clock.store(10, Ordering::SeqCst);
        }
        assert_eq!(p.snapshot().len(), 1);
        p.reset();
        assert!(p.snapshot().is_empty());
        assert!(p.is_enabled());
    }

    #[test]
    fn global_profile_scope_macro_is_dormant_by_default() {
        // The global profiler must not aggregate unless explicitly
        // enabled — instrumented library code stays free.
        {
            profile_scope!("dormant.scope");
        }
        assert!(global()
            .snapshot()
            .iter()
            .all(|e| !e.path.contains("dormant.scope") || global().is_enabled()));
    }

    #[test]
    fn real_clock_measures_forward_time() {
        let p = Profiler::new();
        p.enable();
        {
            let _g = p.scope("sleepy");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let snap = p.snapshot();
        let e = snap.iter().find(|e| e.path == "sleepy").unwrap();
        assert!(e.stats.total_s >= 0.004, "slept ≥5ms, measured {}", e.stats.total_s);
    }
}
