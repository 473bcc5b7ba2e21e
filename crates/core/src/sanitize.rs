//! The runtime invariant sanitizer (`sim-sanitizer` feature): an
//! [`Auditor`] attached to every [`KaasServer`](crate::KaasServer),
//! re-checked after each executor step and at server drop.
//!
//! The static pass in `kaas-audit` proves the *code* cannot observe
//! nondeterminism; this module proves the *run* kept its resource
//! accounting honest. Every check is an equality between two
//! independently maintained views of the same state, so a single-sided
//! bookkeeping bug (a missed decrement, a leaked guard, a stale cache)
//! shows up as a divergence:
//!
//! * **Claim balance** — the per-device claim ledger (moved only by
//!   [`InFlightGuard`](crate::pool::InFlightGuard)) equals the sum of
//!   per-slot claim counts on that device, and is never negative.
//! * **Memory accounting** — each device's
//!   [`MemoryManager`](kaas_accel::MemoryManager) passes
//!   [`validate`](kaas_accel::MemoryManager::validate): the running
//!   `bytes_resident` total equals the sum of resident object sizes,
//!   residency never exceeds capacity, LRU recency stamps are unique,
//!   and no refcount underflow was ever observed.
//! * **Ejection accounting** — every request the overloaded dispatcher
//!   sheds or ejects is counted identically in two independent views
//!   (the per-shard cells and the `dispatch.ejected` counter): no
//!   silent shedding.
//! * **Admission control** — the adaptive concurrency limit never
//!   escapes its configured `[min, max]` band, and the permit ledger
//!   conserves (`issued - released == admitted`, and zero at
//!   shutdown).
//! * **Metric names** — every name that appears in the live
//!   [`MetricsRegistry`](crate::MetricsRegistry) matches a pattern
//!   declared in `metrics/INVENTORY` (the same file rule R2 of the
//!   static pass enforces at emission sites).
//! * **Span geometry** — a recorded span whose parent is recorded on
//!   the *same track* lies inside its parent's interval, and same-track
//!   siblings never overlap (the tiling contract the tracing tests
//!   assert end-to-end, upheld continuously).
//! * **Shutdown leaks** — when the server's last reference drops, no
//!   dispatch job is still queued and no in-flight claim or
//!   device-memory reference survives.
//!
//! Violations are reported as panics naming the invariant, so a failing
//! run points at the broken contract rather than at a downstream
//! symptom.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Weak;

use kaas_simtime::{SimTime, Span, SpanId, SpanSink};

use crate::server::ServerInner;

/// The metric-name inventory, shared verbatim with the static pass.
const INVENTORY: &str = include_str!("metrics/INVENTORY");

/// A recorded span's geometry: `(track, start, end)`.
type SpanGeometry = (String, SimTime, SimTime);
/// Sibling intervals under one `(parent, track)` key.
type SiblingIndex = BTreeMap<(SpanId, String), Vec<(SimTime, SimTime, SpanId)>>;

/// Runtime invariant checker for one server. Holds only a weak
/// reference: a dropped server silently retires its auditor.
pub(crate) struct Auditor {
    inner: Weak<ServerInner>,
    /// Metric names already validated against the INVENTORY.
    seen_metrics: RefCell<BTreeSet<String>>,
    /// How many sink spans have been ingested so far.
    span_cursor: Cell<usize>,
    /// Recorded spans by id: `(track, start, end)`.
    span_index: RefCell<BTreeMap<SpanId, SpanGeometry>>,
    /// Same-track sibling intervals per `(parent, track)`.
    siblings: RefCell<SiblingIndex>,
    /// Spans whose parent has not been recorded yet (open spans hand
    /// out ids before their interval exists).
    pending: RefCell<Vec<Span>>,
}

fn violation(invariant: &str, detail: &str) -> ! {
    panic!("sim-sanitizer invariant violated [{invariant}]: {detail}");
}

impl Auditor {
    pub(crate) fn new(inner: Weak<ServerInner>) -> Self {
        Auditor {
            inner,
            seen_metrics: RefCell::new(BTreeSet::new()),
            span_cursor: Cell::new(0),
            span_index: RefCell::new(BTreeMap::new()),
            siblings: RefCell::new(BTreeMap::new()),
            pending: RefCell::new(Vec::new()),
        }
    }

    /// One full invariant sweep; installed as an executor step hook.
    pub(crate) fn check_step(&self) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        check_claim_balance(&inner);
        check_memory(&inner);
        check_ejection_accounting(&inner);
        check_admission(&inner);
        self.check_metric_names(&inner);
        if let Some(tracer) = &inner.config.tracer {
            self.check_spans(tracer);
        }
    }

    /// Validates any metric names that appeared since the last sweep.
    fn check_metric_names(&self, inner: &ServerInner) {
        let (counters, gauges, histograms) = inner.metrics_registry.names();
        let mut seen = self.seen_metrics.borrow_mut();
        for name in counters.iter().chain(&gauges).chain(&histograms) {
            if seen.contains(name) {
                continue;
            }
            if !kaas_audit::inventory_matches(INVENTORY, name) {
                violation(
                    "metric-inventory",
                    &format!("live metric `{name}` matches no pattern in metrics/INVENTORY"),
                );
            }
            seen.insert(name.clone());
        }
    }

    /// Ingests spans recorded since the last sweep and checks the
    /// same-track containment/tiling contract.
    fn check_spans(&self, tracer: &SpanSink) {
        let len = tracer.len();
        let cursor = self.span_cursor.get();
        if len < cursor {
            // The sink was cleared; history (by-id intervals) stays
            // valid because ids are never reused.
            self.span_cursor.set(len);
            return;
        }
        if len == cursor {
            return;
        }
        let spans = tracer.spans();
        for span in &spans[cursor..] {
            self.ingest(span);
        }
        self.span_cursor.set(len);
        // Children recorded before their (open) parent: retry now that
        // more parents are known.
        let mut still_pending = Vec::new();
        for span in self.pending.borrow_mut().drain(..) {
            if self
                .span_index
                .borrow()
                .contains_key(&span.parent.expect("only parented spans are pended"))
            {
                self.check_against_parent(&span);
            } else {
                still_pending.push(span);
            }
        }
        *self.pending.borrow_mut() = still_pending;
    }

    fn ingest(&self, span: &Span) {
        self.span_index
            .borrow_mut()
            .insert(span.id, (span.track.clone(), span.start, span.end));
        match span.parent {
            Some(p) if self.span_index.borrow().contains_key(&p) => {
                self.check_against_parent(span);
            }
            Some(_) => self.pending.borrow_mut().push(span.clone()),
            None => {}
        }
    }

    fn check_against_parent(&self, span: &Span) {
        let parent_id = span.parent.expect("checked by caller");
        let index = self.span_index.borrow();
        let (ptrack, pstart, pend) = &index[&parent_id];
        if *ptrack != span.track {
            // Cross-track parenting (client → server → runner) crosses
            // clock domains on purpose: a reply can outlive a timed-out
            // roundtrip. Only same-track nesting promises containment.
            return;
        }
        if span.start < *pstart || span.end > *pend {
            violation(
                "span-containment",
                &format!(
                    "span `{}` [{:?}, {:?}] escapes its same-track parent `{parent_id}` \
                     [{pstart:?}, {pend:?}] on track `{}`",
                    span.name, span.start, span.end, span.track
                ),
            );
        }
        drop(index);
        let key = (parent_id, span.track.clone());
        let mut siblings = self.siblings.borrow_mut();
        let list = siblings.entry(key).or_default();
        for (start, end, id) in list.iter() {
            if span.start < *end && *start < span.end {
                violation(
                    "span-tiling",
                    &format!(
                        "span `{}` [{:?}, {:?}] overlaps same-track sibling `{id}` \
                         [{start:?}, {end:?}] under parent `{parent_id}`",
                        span.name, span.start, span.end
                    ),
                );
            }
        }
        list.push((span.start, span.end, span.id));
    }
}

/// Per-device claim ledger vs per-slot claim counts.
fn check_claim_balance(inner: &ServerInner) {
    for (device, ledger, counted) in inner.pool.claim_balances() {
        if ledger < 0 {
            violation(
                "claim-balance",
                &format!("device {device} claim ledger is negative ({ledger})"),
            );
        }
        if ledger != counted {
            violation(
                "claim-balance",
                &format!(
                    "device {device} claim ledger ({ledger}) != sum of per-slot claims \
                     ({counted})"
                ),
            );
        }
    }
}

/// Honest shedding: every ejected request is counted twice — in its
/// shard's cell and in the `dispatch.ejected` metric — and both views
/// must agree at every step. A shed that bumps one view but not the
/// other is a silent drop.
fn check_ejection_accounting(inner: &ServerInner) {
    let total = inner.dispatch.ejected();
    let counter = inner.metrics_registry.counter("dispatch.ejected");
    if total != counter {
        violation(
            "ejection-accounting",
            &format!(
                "ejection views diverge: per-shard total {total}, `dispatch.ejected` \
                 counter {counter}"
            ),
        );
    }
}

/// Admission-control sanity: the adaptive limit stays inside its
/// configured `[min, max]` band, and the permit ledger conserves —
/// permits issued minus permits released equals the in-flight count.
fn check_admission(inner: &ServerInner) {
    use crate::admission::AdmissionPolicy;
    if let Some(AdmissionPolicy::Adaptive(aimd)) = inner.admission.policy() {
        let limit = inner
            .admission
            .current_limit()
            .expect("an adaptive policy always has a limit");
        if limit < aimd.min_limit || limit > aimd.max_limit {
            violation(
                "admission-limit",
                &format!(
                    "adaptive admission limit {limit} escaped its configured band \
                     [{}, {}]",
                    aimd.min_limit, aimd.max_limit
                ),
            );
        }
    }
    let issued = inner.admission.issued();
    let released = inner.admission.released();
    let admitted = inner.admission.admitted() as u64;
    if issued - released != admitted {
        violation(
            "admission-conservation",
            &format!(
                "admission permit ledger diverged: issued {issued} - released {released} \
                 != admitted {admitted}"
            ),
        );
    }
}

/// Every device memory manager's internal accounting.
fn check_memory(inner: &ServerInner) {
    for device in inner.pool.devices() {
        let Some(mgr) = inner.dataplane.manager(device.id()) else {
            continue;
        };
        if let Err(e) = mgr.validate() {
            violation(
                "device-memory",
                &format!("device {} memory accounting broken: {e}", device.id()),
            );
        }
    }
}

/// Shutdown leak detection, run from `ServerInner`'s drop: nothing may
/// still be claimed or referenced when the server's last handle goes.
pub(crate) fn check_shutdown(inner: &ServerInner) {
    let queued = inner.dispatch.queued();
    if queued != 0 {
        violation(
            "shutdown-leak",
            &format!("{queued} dispatch job(s) still queued at server drop"),
        );
    }
    for (device, ledger, counted) in inner.pool.claim_balances() {
        if ledger != 0 || counted != 0 {
            violation(
                "shutdown-leak",
                &format!(
                    "device {device} still has in-flight claims at server drop \
                     (ledger {ledger}, per-slot {counted})"
                ),
            );
        }
    }
    let admitted = inner.admission.admitted();
    if admitted != 0 {
        violation(
            "shutdown-leak",
            &format!("{admitted} admission permit(s) never released at server drop"),
        );
    }
    for device in inner.pool.devices() {
        let Some(mgr) = inner.dataplane.manager(device.id()) else {
            continue;
        };
        if let Err(e) = mgr.validate() {
            violation(
                "shutdown-leak",
                &format!(
                    "device {} memory accounting broken at drop: {e}",
                    device.id()
                ),
            );
        }
        let refs = mgr.refs_in_flight();
        if refs != 0 {
            violation(
                "shutdown-leak",
                &format!(
                    "device {} still holds {refs} in-flight object reference(s) at \
                     server drop",
                    device.id()
                ),
            );
        }
    }
    // Completed flows must release every intermediate: no run still
    // active, no flow-lifetime pin outstanding.
    let active = inner.flows.active();
    if active != 0 {
        violation(
            "shutdown-leak",
            &format!("{active} workflow run(s) still active at server drop"),
        );
    }
    let pins = inner.flows.intermediates_live();
    if pins != 0 {
        violation(
            "shutdown-leak",
            &format!("{pins} flow intermediate pin(s) never released at server drop"),
        );
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;
    use std::time::Duration;

    use kaas_accel::{Device, DeviceId, GpuDevice, GpuProfile};
    use kaas_kernels::MonteCarlo;
    use kaas_net::SharedMemory;
    use kaas_simtime::{sleep, Simulation};

    use crate::config::ServerConfig;
    use crate::pool::InFlightGuard;
    use crate::registry::KernelRegistry;
    use crate::runner::RunnerConfig;
    use crate::server::KaasServer;

    fn server() -> KaasServer {
        let registry = KernelRegistry::new();
        registry.register(MonteCarlo::default()).unwrap();
        let gpu: Device = GpuDevice::new(DeviceId(0), GpuProfile::p100()).into();
        KaasServer::new(
            vec![gpu],
            registry,
            SharedMemory::host(),
            ServerConfig::default(),
        )
    }

    /// A forgotten in-flight guard never releases its claim: the
    /// shutdown sweep must name the leak.
    #[test]
    #[should_panic(expected = "shutdown-leak")]
    fn leaked_claim_is_caught_at_shutdown() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let server = server();
            let k: Rc<dyn kaas_kernels::Kernel> = Rc::new(MonteCarlo::default());
            let slot = server
                .pool()
                .spawn_runner("mci", &k, RunnerConfig::default())
                .unwrap();
            std::mem::forget(InFlightGuard::claim(&slot));
            // The server drops here with the claim still open.
        });
    }

    /// An unmatched release on a resident object is a refcount
    /// underflow: the next executor step must fail the run.
    #[test]
    #[should_panic(expected = "device-memory")]
    fn refcount_underflow_is_caught_at_next_step() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let server = server();
            let mgr = Rc::clone(server.dataplane().manager(DeviceId(0)).unwrap());
            mgr.insert(42, 10).unwrap();
            mgr.release(42); // no matching retain
            sleep(Duration::from_millis(1)).await; // let a step hook run
            drop(server);
        });
    }
}
