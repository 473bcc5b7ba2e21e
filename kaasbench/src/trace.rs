//! Span-tree analysis for the traced pass: per-hop self times and the
//! client-side tiling invariant.

use std::collections::BTreeMap;
use std::time::Duration;

use kaas_core::{Span, SpanId};
use kaas_simtime::SimTime;

use crate::stats::quantile;

/// Self time (µs) of every span that started at or after `t0`, grouped
/// by span name: the span's duration minus the part of it that its
/// children cover.
pub fn hop_self_times(spans: &[Span], t0: SimTime) -> BTreeMap<String, Vec<f64>> {
    let mut children: BTreeMap<SpanId, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.start >= t0) {
        let covered = children
            .get_mut(&s.id)
            .map_or(Duration::ZERO, |iv| covered(iv, s.start, s.end));
        let own = s.duration().saturating_sub(covered);
        out.entry(s.name.clone())
            .or_default()
            .push(own.as_secs_f64() * 1e6);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(SimTime, SimTime)], lo: SimTime, hi: SimTime) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b.saturating_since(a);
            cursor = b;
        }
    }
    total
}

/// The `q`-quantile of the durations (µs) of spans named `name` that
/// started at or after `t0`.
pub fn duration_quantile(spans: &[Span], t0: SimTime, name: &str, q: f64) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.start >= t0 && s.name == name)
        .map(|s| s.duration().as_secs_f64() * 1e6)
        .collect();
    quantile(&d, q)
}

/// Checks the tiling invariant of the client span tree: the client-side
/// children of every `invoke` root sum exactly to the root, and every
/// traced success's `Invocation::latency` is the length of one such
/// root (roots of failed attempts have no latency to match).
pub fn check_tiling(spans: &[Span], latencies: &[Duration]) -> Result<(), String> {
    let mut child_sum: BTreeMap<SpanId, Duration> = BTreeMap::new();
    let roots: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "invoke" && s.parent.is_none())
        .collect();
    let root_track: BTreeMap<SpanId, &str> =
        roots.iter().map(|r| (r.id, r.track.as_str())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if root_track.get(&p) == Some(&s.track.as_str()) {
                *child_sum.entry(p).or_default() += s.duration();
            }
        }
    }
    for r in &roots {
        let sum = child_sum.get(&r.id).copied().unwrap_or_default();
        if sum != r.duration() {
            return Err(format!(
                "invoke span {} on {}: children sum {:?} != root {:?}",
                r.id,
                r.track,
                sum,
                r.duration()
            ));
        }
    }
    let mut have: Vec<Duration> = roots.iter().map(|r| r.duration()).collect();
    let mut want = latencies.to_vec();
    have.sort();
    want.sort();
    let mut it = have.iter().peekable();
    for w in &want {
        while it.peek().is_some_and(|h| *h < w) {
            it.next();
        }
        if it.next() != Some(w) {
            return Err(format!("traced latency {w:?} matches no invoke root span"));
        }
    }
    Ok(())
}
