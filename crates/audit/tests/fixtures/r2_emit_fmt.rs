//! Fixture: rule R2 fires exactly once — `hitz.{k}` is a typo'd metric
//! name, emitted through a `_fmt` method with a `format_args!` name, and
//! not declared in the inventory. (Not compiled; scanned by
//! `kaas-audit --r2`.)

pub fn record(m: &Registry, k: &str) {
    m.inc("hits");
    m.inc_fmt(format_args!("hitz.{k}"));
}
