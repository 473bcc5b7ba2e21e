//! [`MetricsRegistry`]: the server's structured metric store.
//!
//! Replaces ad-hoc aggregation over raw [`InvocationReport`]
//! (crate::InvocationReport) lists with three first-class metric kinds:
//!
//! * **counters** — monotone event counts (invocations, cold starts,
//!   errors),
//! * **gauges** — instantaneous levels (queue depth, in-flight work,
//!   per-device utilization),
//! * **histograms** — log-bucketed latency distributions with exact
//!   mean and p50/p95/p99 estimates ([`Histogram`]).
//!
//! All maps are ordered (`BTreeMap`) and all state is deterministic, so
//! [`MetricsRegistry::render`] output is byte-identical across
//! identical runs.
//!
//! Updates to an existing series are in place and allocate nothing: a
//! series' key is allocated once, when it is created. Names built from
//! parts go through the `*_fmt` methods, which render a
//! `format_args!` name into a registry-owned scratch buffer instead of
//! a fresh `String` per update.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::rc::Rc;

use super::histogram::{Histogram, HistogramSummary};

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// Where the `*_fmt` methods render names; reused across updates.
    scratch: String,
}

impl RegistryInner {
    fn add(&mut self, name: &str, delta: u64) {
        update(&mut self.counters, name, |v| *v += delta);
    }

    fn set_gauge(&mut self, name: &str, value: f64) {
        update(&mut self.gauges, name, |v| *v = value);
    }

    fn observe(&mut self, name: &str, value: f64) {
        update(&mut self.histograms, name, |h| h.observe(value));
    }
}

/// Applies `f` to series `name` in place, creating it at its default
/// first: the key is allocated only when the series is new.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

/// A shared, clonable registry of counters, gauges, and histograms.
///
/// # Examples
///
/// ```
/// use kaas_core::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// reg.inc("invocations");
/// reg.set_gauge("in_flight", 3.0);
/// reg.observe("latency.server", 0.042);
/// assert_eq!(reg.counter("invocations"), 1);
/// let s = reg.summary("latency.server").unwrap();
/// assert_eq!(s.count, 1);
/// assert_eq!(s.p99, 0.042);
/// ```
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by one (creating it at zero).
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increments counter `name` by `delta`.
    pub fn add(&self, name: &str, delta: u64) {
        self.inner.borrow_mut().add(name, delta);
    }

    /// [`inc`](Self::inc) with a formatted name, e.g.
    /// `reg.inc_fmt(format_args!("invocations.{k}"))`.
    pub fn inc_fmt(&self, name: fmt::Arguments<'_>) {
        self.add_fmt(name, 1);
    }

    /// [`add`](Self::add) with a formatted name.
    pub fn add_fmt(&self, name: fmt::Arguments<'_>, delta: u64) {
        self.with_name(name, |inner, name| inner.add(name, delta));
    }

    /// [`set_gauge`](Self::set_gauge) with a formatted name.
    pub fn set_gauge_fmt(&self, name: fmt::Arguments<'_>, value: f64) {
        self.with_name(name, |inner, name| inner.set_gauge(name, value));
    }

    /// [`observe`](Self::observe) with a formatted name.
    pub fn observe_fmt(&self, name: fmt::Arguments<'_>, value: f64) {
        self.with_name(name, |inner, name| inner.observe(name, value));
    }

    /// Renders `name` into the scratch buffer and runs `f` on it. The
    /// name's arguments are formatted while the registry is borrowed,
    /// so they must not read this registry.
    fn with_name(&self, name: fmt::Arguments<'_>, f: impl FnOnce(&mut RegistryInner, &str)) {
        let mut inner = self.inner.borrow_mut();
        let mut scratch = std::mem::take(&mut inner.scratch);
        scratch.clear();
        scratch
            .write_fmt(name)
            .expect("formatting a metric name into a String cannot fail");
        f(&mut inner, &scratch);
        inner.scratch = scratch;
    }

    /// Current value of counter `name` (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.inner.borrow_mut().set_gauge(name, value);
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    /// Records `value` (seconds, for latencies) into histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        self.inner.borrow_mut().observe(name, value);
    }

    /// A snapshot of histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.borrow().histograms.get(name).cloned()
    }

    /// Count/mean/p50/p95/p99 summary of histogram `name` (`None` if
    /// the histogram is missing or empty).
    pub fn summary(&self, name: &str) -> Option<HistogramSummary> {
        self.inner
            .borrow()
            .histograms
            .get(name)
            .and_then(Histogram::summary)
    }

    /// Names of all registered counters, gauges, and histograms, each
    /// sorted alphabetically.
    pub fn names(&self) -> (Vec<String>, Vec<String>, Vec<String>) {
        let inner = self.inner.borrow();
        (
            inner.counters.keys().cloned().collect(),
            inner.gauges.keys().cloned().collect(),
            inner.histograms.keys().cloned().collect(),
        )
    }

    /// Renders every metric in a Prometheus-style text format, sorted by
    /// name — counters as `name <n>`, gauges as `name <v>`, histograms
    /// as `name{stat="..."} <v>` lines for count/mean/p50/p95/p99.
    /// Deterministic: identical runs render identical text.
    pub fn render(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        for (name, v) in &inner.counters {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &inner.gauges {
            let _ = writeln!(out, "{name} {v:.9}");
        }
        for (name, h) in &inner.histograms {
            if let Some(s) = h.summary() {
                let _ = writeln!(out, "{name}{{stat=\"count\"}} {}", s.count);
                for (stat, v) in [
                    ("mean", s.mean),
                    ("p50", s.p50),
                    ("p95", s.p95),
                    ("p99", s.p99),
                ] {
                    let _ = writeln!(out, "{name}{{stat=\"{stat}\"}} {v:.9}");
                }
            }
        }
        out
    }

    /// Drops every metric.
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.counter("x"), 0);
        reg.inc("x");
        reg.add("x", 4);
        assert_eq!(reg.counter("x"), 5);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.gauge("depth"), None);
        reg.set_gauge("depth", 2.0);
        reg.set_gauge("depth", 7.0);
        assert_eq!(reg.gauge("depth"), Some(7.0));
    }

    #[test]
    fn clones_share_state() {
        let reg = MetricsRegistry::new();
        let other = reg.clone();
        other.inc("shared");
        other.observe("h", 1.0);
        assert_eq!(reg.counter("shared"), 1);
        assert_eq!(reg.summary("h").unwrap().count, 1);
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.inc("b.count");
            reg.inc("a.count");
            reg.set_gauge("z.gauge", 1.5);
            for i in 1..=10 {
                reg.observe("lat", i as f64 * 0.01);
            }
            reg.render()
        };
        let text = build();
        assert_eq!(text, build());
        let a = text.find("a.count").unwrap();
        let b = text.find("b.count").unwrap();
        assert!(a < b, "metrics must render in sorted order:\n{text}");
        assert!(text.contains("lat{stat=\"count\"} 10"));
        assert!(text.contains("lat{stat=\"p95\"}"));
    }

    #[test]
    fn formatted_names_update_the_same_series() {
        let reg = MetricsRegistry::new();
        for k in ["a", "b", "a"] {
            reg.inc_fmt(format_args!("invocations.{k}"));
            reg.add_fmt(format_args!("bytes.{k}"), 2);
            reg.set_gauge_fmt(format_args!("{k}.utilization"), 0.5);
            reg.observe_fmt(format_args!("latency.{k}"), 1.0);
        }
        reg.inc("invocations.a");
        assert_eq!(reg.counter("invocations.a"), 3);
        assert_eq!(reg.counter("invocations.b"), 1);
        assert_eq!(reg.counter("bytes.a"), 4);
        assert_eq!(reg.gauge("b.utilization"), Some(0.5));
        assert_eq!(reg.summary("latency.a").unwrap().count, 2);
        let (counters, gauges, histograms) = reg.names();
        assert_eq!(counters.len(), 4);
        assert_eq!(gauges.len(), 2);
        assert_eq!(histograms.len(), 2);
    }

    #[test]
    fn missing_histograms_have_no_summary() {
        let reg = MetricsRegistry::new();
        assert!(reg.summary("nope").is_none());
        assert!(reg.histogram("nope").is_none());
    }
}
