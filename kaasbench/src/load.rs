//! What every workload records while it runs, and the end-to-end and
//! per-layer metrics derived from it afterwards.
//!
//! A workload owns one [`Tally`] per repeat. Requests issued while
//! [`Tally::measuring`] is set count toward the metrics; warm-up
//! requests only have their outputs checked. Everything in a tally is
//! a function of virtual time and the seed, so two repeats of one seed
//! must produce bit-identical [`Outcome::fingerprint`]s.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Duration;

use kaas_core::{InvocationReport, InvokeError, KaasServer, MetricsRegistry, Span};
use kaas_simtime::{now, Handle, SimTime};

use crate::stats::{quantile, ratio};
use crate::trace;

/// Per-repeat request accounting and samples, shared by the tasks of
/// one simulation.
#[derive(Debug)]
pub struct Tally {
    /// Whether requests issued now count toward the metrics.
    pub measuring: Cell<bool>,
    /// Whether this repeat runs with span sinks attached (enables the
    /// per-layer samplers, which cost host time).
    pub traced: bool,
    /// The workload's latency limit.
    pub slo: Duration,
    sent: Cell<u64>,
    succeeded: Cell<u64>,
    failed: Cell<u64>,
    slo_ok: Cell<u64>,
    window: Cell<Option<(SimTime, SimTime)>>,
    lat_us: RefCell<Vec<f64>>,
    /// Client-observed `Invocation::latency` of traced successes, for
    /// the span-tiling check.
    traced_latency: RefCell<Vec<Duration>>,
    copy_in_us: RefCell<Vec<f64>>,
    kernel_exec_us: RefCell<Vec<f64>>,
    copy_out_us: RefCell<Vec<f64>>,
    gen_late_us: RefCell<Vec<f64>>,
    flow_lat_us: RefCell<Vec<f64>>,
    upload_bytes: Cell<u64>,
    retries: Cell<u64>,
    peak_live_tasks: Cell<usize>,
    peak_shard_depth: Cell<usize>,
    limit_samples: RefCell<Vec<f64>>,
    violations: RefCell<Vec<String>>,
}

impl Tally {
    /// An empty tally for one repeat.
    pub fn new(slo: Duration, traced: bool) -> Self {
        Tally {
            measuring: Cell::new(false),
            traced,
            slo,
            sent: Cell::new(0),
            succeeded: Cell::new(0),
            failed: Cell::new(0),
            slo_ok: Cell::new(0),
            window: Cell::new(None),
            lat_us: RefCell::default(),
            traced_latency: RefCell::default(),
            copy_in_us: RefCell::default(),
            kernel_exec_us: RefCell::default(),
            copy_out_us: RefCell::default(),
            gen_late_us: RefCell::default(),
            flow_lat_us: RefCell::default(),
            upload_bytes: Cell::new(0),
            retries: Cell::new(0),
            peak_live_tasks: Cell::new(0),
            peak_shard_depth: Cell::new(0),
            limit_samples: RefCell::default(),
            violations: RefCell::default(),
        }
    }

    /// Records a failed output or accounting check.
    pub fn violation(&self, msg: String) {
        let mut v = self.violations.borrow_mut();
        if v.len() < 20 {
            v.push(msg);
        } else if v.len() == 20 {
            v.push("… further violations suppressed".to_owned());
        }
    }

    /// Counts `n` measured requests as sent at `issued`.
    pub fn sent(&self, n: u64, issued: SimTime) {
        self.sent.set(self.sent.get() + n);
        let (start, end) = self.window.get().unwrap_or((issued, issued));
        self.window.set(Some((start.min(issued), end)));
    }

    fn done(&self) {
        let t = now();
        if let Some((start, end)) = self.window.get() {
            self.window.set(Some((start, end.max(t))));
        }
    }

    /// A measured request issued (or due) at `from` succeeded now.
    /// `report` is the server breakdown where the request had one.
    pub fn ok(&self, from: SimTime, report: Option<&InvocationReport>) {
        let lat = now().saturating_since(from);
        self.succeeded.set(self.succeeded.get() + 1);
        if lat <= self.slo {
            self.slo_ok.set(self.slo_ok.get() + 1);
        }
        self.lat_us.borrow_mut().push(us(lat));
        if let Some(r) = report {
            self.copy_in_us.borrow_mut().push(us(r.copy_in));
            self.kernel_exec_us.borrow_mut().push(us(r.kernel_exec));
            self.copy_out_us.borrow_mut().push(us(r.copy_out));
        }
        self.done();
    }

    /// A request ended in `err`. `allowed` errors of measured requests
    /// count as failed requests; any other error is a violation.
    pub fn err(&self, measured: bool, err: &InvokeError, allowed: bool) {
        if !allowed {
            self.violation(format!("unexpected error: {err:?}"));
        }
        if measured {
            self.failed.set(self.failed.get() + 1);
            self.done();
        }
    }

    /// Notes the client-observed latency of a traced success.
    pub fn traced_latency(&self, latency: Duration) {
        self.traced_latency.borrow_mut().push(latency);
    }

    /// Open-loop lateness: how long a due request waited for a client.
    pub fn gen_late(&self, late: Duration) {
        self.gen_late_us.borrow_mut().push(us(late));
    }

    /// End-to-end latency of a flow trigger.
    pub fn flow_latency(&self, lat: Duration) {
        self.flow_lat_us.borrow_mut().push(us(lat));
    }

    /// Bytes of a benchmark object uploaded to a device (a cache miss).
    pub fn uploaded(&self, bytes: u64) {
        self.upload_bytes.set(self.upload_bytes.get() + bytes);
    }

    /// Client-side retries one request needed.
    pub fn retried(&self, n: u64) {
        self.retries.set(self.retries.get() + n);
    }

    /// Checks that the server ended with nothing in flight and nothing
    /// queued.
    pub fn check_drained(&self, server: &KaasServer) {
        let snap = server.snapshot();
        if snap.total_in_flight() != 0 || snap.dispatch_queued != 0 {
            self.violation(format!(
                "server not drained: {} in flight, {} queued",
                snap.total_in_flight(),
                snap.dispatch_queued
            ));
        }
    }

    /// Samples executor and control-plane levels (traced repeats only:
    /// the snapshot costs host time the untraced pass must not pay).
    pub fn sample(&self, server: &KaasServer) {
        if !self.traced {
            return;
        }
        let live = Handle::current().live_tasks();
        self.peak_live_tasks
            .set(self.peak_live_tasks.get().max(live));
        let snap = server.snapshot();
        let depth = snap.shard_depths.iter().copied().max().unwrap_or(0);
        self.peak_shard_depth
            .set(self.peak_shard_depth.get().max(depth));
        if let Some(limit) = snap.admission_limit {
            self.limit_samples.borrow_mut().push(limit as f64);
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Counter values and histogram sample counts of a set of registries,
/// summed by name.
#[derive(Debug, Clone, Default)]
pub struct RegSnap {
    counters: BTreeMap<String, u64>,
    samples: BTreeMap<String, u64>,
}

impl RegSnap {
    /// Captures `regs` now.
    pub fn capture<'a>(regs: impl IntoIterator<Item = &'a MetricsRegistry>) -> Self {
        let mut snap = RegSnap::default();
        for reg in regs {
            let (counters, _, histograms) = reg.names();
            for name in counters {
                let v = reg.counter(&name);
                *snap.counters.entry(name).or_default() += v;
            }
            for name in histograms {
                let n = reg.histogram(&name).map_or(0, |h| h.count());
                *snap.samples.entry(name).or_default() += n;
            }
        }
        snap
    }

    /// Captures the server registry and the client registries (summed).
    pub fn pair(server: &MetricsRegistry, clients: &[MetricsRegistry]) -> (Self, Self) {
        (RegSnap::capture([server]), RegSnap::capture(clients))
    }

    /// Growth of counter `name` since `before`.
    pub fn counter_delta(&self, before: &RegSnap, name: &str) -> f64 {
        let get = |s: &RegSnap| s.counters.get(name).copied().unwrap_or(0);
        get(self).saturating_sub(get(before)) as f64
    }

    /// Growth of histogram `name`'s sample count since `before`.
    pub fn samples_delta(&self, before: &RegSnap, name: &str) -> f64 {
        let get = |s: &RegSnap| s.samples.get(name).copied().unwrap_or(0);
        get(self).saturating_sub(get(before)) as f64
    }

    /// Registry updates since `before`: histogram samples plus counter
    /// growth. Counters that meter amounts (fuel, bytes) grow by far
    /// more than one per update and are left out.
    pub fn updates_since(&self, before: &RegSnap) -> f64 {
        let counted = |name: &str| {
            !(name.ends_with("fuel") || name.ends_with("fuel_used") || name.ends_with("bytes"))
        };
        let c: f64 = self
            .counters
            .keys()
            .filter(|k| counted(k))
            .map(|k| self.counter_delta(before, k))
            .sum();
        let s: f64 = self
            .samples
            .keys()
            .map(|k| self.samples_delta(before, k))
            .sum();
        c + s
    }
}

/// How far one repeat goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Stop after set-up (extra set-up samples for `setup_s`).
    Setup,
    /// The full load without tracing (end-to-end metrics).
    Plain,
    /// The full load with span sinks on server and clients (per-layer
    /// metrics and probe inputs).
    Traced,
}

/// What the measured phase of one repeat left behind, handed to
/// [`Outcome::new`] by each workload.
#[derive(Debug)]
pub struct Measured {
    /// Host wall seconds from the start of the repeat to the first
    /// load request.
    pub setup_s: f64,
    /// On-CPU ns of the simulation thread over the measured phase.
    pub cpu_ns: u64,
    /// Virtual time the measured phase started.
    pub t0: SimTime,
    /// GPUs in the deployment (for the busy share).
    pub gpus: usize,
    /// Server registry at the start and end of the measured phase.
    pub server: (RegSnap, RegSnap),
    /// Client registries (summed) at the start and end.
    pub clients: (RegSnap, RegSnap),
    /// Every span of a traced repeat (empty when untraced).
    pub spans: Vec<Span>,
}

/// The result of one repeat of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Measured requests sent.
    pub sent: u64,
    /// Correctness violations (empty on a correct run).
    pub violations: Vec<String>,
    /// Host wall seconds of set-up.
    pub setup_s: f64,
    /// Host on-CPU µs per measured request.
    pub host_us_per_req: f64,
    /// Virtual end-to-end metrics, by name.
    pub virt: BTreeMap<&'static str, f64>,
    /// Per-layer virtual-time and count metrics (traced repeats only).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Derives the metrics of one repeat and runs the accounting checks.
    pub fn new(tally: &Tally, m: Measured) -> Outcome {
        let sent = tally.sent.get();
        let (ok, failed) = (tally.succeeded.get(), tally.failed.get());
        if sent != ok + failed {
            tally.violation(format!(
                "accounting: {sent} sent != {ok} succeeded + {failed} failed"
            ));
        }
        if sent == 0 {
            tally.violation("no measured requests".to_owned());
        }
        if tally.traced {
            if let Err(e) = trace::check_tiling(&m.spans, &tally.traced_latency.borrow()) {
                tally.violation(format!("span tiling: {e}"));
            }
        }
        let lat = tally.lat_us.borrow();
        let window_s = tally
            .window
            .get()
            .map_or(0.0, |(a, b)| b.saturating_since(a).as_secs_f64());
        let pct = |n: u64| 100.0 * ratio(n as f64, sent as f64);
        let virt = BTreeMap::from([
            ("lat_p50_us", quantile(&lat, 0.50)),
            ("lat_p99_us", quantile(&lat, 0.99)),
            ("slo_ok_pct", pct(tally.slo_ok.get())),
            ("goodput_rps", ratio(ok as f64, window_s)),
            ("succeeded_pct", pct(ok)),
            ("failed_pct", pct(failed)),
            ("sent", sent as f64),
        ]);
        let layer = if tally.traced {
            layer_metrics(tally, &m, sent as f64, window_s)
        } else {
            BTreeMap::new()
        };
        Outcome {
            sent,
            violations: tally.violations.borrow().clone(),
            setup_s: m.setup_s,
            host_us_per_req: m.cpu_ns as f64 / 1e3 / sent.max(1) as f64,
            virt,
            layer,
        }
    }

    /// The outcome of a set-up-only repeat.
    pub fn setup_only(setup_s: f64) -> Outcome {
        Outcome {
            sent: 0,
            violations: Vec::new(),
            setup_s,
            host_us_per_req: 0.0,
            virt: BTreeMap::new(),
            layer: BTreeMap::new(),
        }
    }

    /// Every virtual-time and count metric, as bit patterns: two
    /// repeats of one seed must agree exactly.
    pub fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        self.virt
            .iter()
            .chain(&self.layer)
            .map(|(k, v)| (*k, v.to_bits()))
            .collect()
    }
}

/// The per-layer virtual-time (`*_us`) and count metrics of a traced
/// repeat; every name is reported on every workload (0 where the
/// workload never enters that layer).
fn layer_metrics(
    tally: &Tally,
    m: &Measured,
    sent: f64,
    window_s: f64,
) -> BTreeMap<&'static str, f64> {
    let (s0, s1) = (&m.server.0, &m.server.1);
    let (c0, c1) = (&m.clients.0, &m.clients.1);
    let sd = |name: &str| s1.counter_delta(s0, name);
    let cd = |name: &str| c1.counter_delta(c0, name);
    let server_attempts = sd("invocations") + sd("errors");
    let hops = trace::hop_self_times(&m.spans, m.t0);
    let hop = |name: &str, q: f64| quantile(hops.get(name).map_or(&[][..], Vec::as_slice), q);
    let spans_in_window = m.spans.iter().filter(|s| s.start >= m.t0).count() as f64;
    let kexec: f64 = tally.kernel_exec_us.borrow().iter().sum();
    let cold_full = s1.samples_delta(s0, "guest.cold_start.full");
    let cold_restore = s1.samples_delta(s0, "guest.cold_start.restore");
    let limits = tally.limit_samples.borrow();
    BTreeMap::from([
        (
            "simtime.peak_live_tasks",
            tally.peak_live_tasks.get() as f64,
        ),
        ("net.send_us.p50", hop("net_send", 0.5)),
        ("client.serialize_us.p50", hop("serialize", 0.5)),
        (
            "client.retries_per_req",
            ratio(tally.retries.get() as f64, sent),
        ),
        (
            "client.budget_denied_ratio",
            ratio(cd("retries.budget_exhausted"), sent),
        ),
        (
            "client.hedge_win_ratio",
            ratio(cd("hedges.won"), cd("hedges.sent")),
        ),
        (
            "client.gen_late_us.p99",
            quantile(&tally.gen_late_us.borrow(), 0.99),
        ),
        (
            "admission.shed_ratio",
            ratio(sd("errors.overloaded"), server_attempts),
        ),
        (
            "admission.limit_mean",
            ratio(limits.iter().sum(), limits.len() as f64),
        ),
        ("admission.wait_us.p99", hop("admission", 0.99)),
        ("dispatch.front_door_us.p50", hop("dispatch", 0.5)),
        ("dispatch.queue_wait_us.p50", hop("queue_wait", 0.5)),
        ("dispatch.queue_wait_us.p99", hop("queue_wait", 0.99)),
        (
            "dispatch.ejected_ratio",
            ratio(sd("dispatch.ejected"), server_attempts),
        ),
        (
            "dispatch.peak_shard_depth",
            tally.peak_shard_depth.get() as f64,
        ),
        (
            "dispatch.members_per_frame",
            ratio(sd("dispatch.batch_members"), sd("dispatch.batches")),
        ),
        ("pool.cold_starts", sd("cold_starts")),
        (
            "pool.cold_start_us.p50",
            trace::duration_quantile(&m.spans, m.t0, "cold_start", 0.5),
        ),
        (
            "pool.restore_share",
            ratio(cold_restore, cold_full + cold_restore),
        ),
        (
            "runner.copy_in_us.p50",
            quantile(&tally.copy_in_us.borrow(), 0.5),
        ),
        (
            "runner.kernel_exec_us.p50",
            quantile(&tally.kernel_exec_us.borrow(), 0.5),
        ),
        (
            "runner.copy_out_us.p50",
            quantile(&tally.copy_out_us.borrow(), 0.5),
        ),
        (
            "runner.busy_share",
            ratio(kexec / 1e6, m.gpus as f64 * window_s),
        ),
        (
            "dataplane.hit_ratio",
            ratio(
                sd("dataplane.hits"),
                sd("dataplane.hits") + sd("dataplane.misses"),
            ),
        ),
        (
            "dataplane.evictions_per_req",
            ratio(sd("dataplane.evictions"), sent),
        ),
        (
            "dataplane.upload_kib_per_req",
            ratio(tally.upload_bytes.get() as f64 / 1024.0, sent),
        ),
        (
            "flow.steps_per_run",
            ratio(sd("workflow.steps"), sd("workflow.runs")),
        ),
        (
            "flow.chained_hit_ratio",
            ratio(sd("workflow.chained_hits"), sd("workflow.steps")),
        ),
        (
            "flow.step_us.p50",
            trace::duration_quantile(&m.spans, m.t0, "step", 0.5),
        ),
        (
            "flow.latency_us.p99",
            quantile(&tally.flow_lat_us.borrow(), 0.99),
        ),
        (
            "guest.fuel_per_inv",
            ratio(sd("guest.fuel_used"), sd("guest.invocations")),
        ),
        (
            "metrics.updates_per_req",
            ratio(s1.updates_since(s0) + c1.updates_since(c0), sent),
        ),
        ("trace.spans_per_req", ratio(spans_in_window, sent)),
    ])
}
