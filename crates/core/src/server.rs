//! [`KaasServer`]: the thin orchestrator tying the control-plane
//! modules together (§4.1 and §5.5 of the paper).
//!
//! Per invocation the server (1) applies [admission](crate::admission)
//! control, (2) passes the dispatch engine (a thin front door feeding
//! per-shard worker queues — see [`DispatchMode`](crate::DispatchMode);
//! the paper's single-lock router is its one-shard configuration),
//! (3) asks the [`Scheduler`](crate::Scheduler) to place the request on
//! a slot from the [`RunnerPool`](crate::RunnerPool), consulting the
//! [`AutoscalePolicy`](crate::AutoscalePolicy) when the fleet is cold
//! or saturated, and (4) runs the kernel, retrying on runner failure.
//! The data path itself lives in the `dispatch` module; this module
//! holds construction, lifecycle, and the accept loop.

use std::collections::BTreeMap;
use std::rc::Rc;

use kaas_accel::{Device, DeviceClass, DeviceId};
use kaas_net::{Frame, Listener, SharedMemory};
use kaas_simtime::{join_all, spawn};

use crate::admission::AdmissionController;
use crate::config::ServerConfig;
use crate::dataplane::DataPlane;
use crate::dispatch::DispatchState;
use crate::flow::FlowState;
use crate::guest::GuestState;
use crate::metrics::registry::MetricsRegistry;
use crate::metrics::MetricsSink;
use crate::pool::RunnerPool;
use crate::protocol::{InvokeError, RequestFrame, ResponseFrame};
use crate::registry::KernelRegistry;
use crate::resilience::{BreakerBank, BreakerState, RetryBudget};

/// Reserved kernel name answering with the site's registered kernel
/// list (used by federated clients for discovery).
pub const DISCOVERY_KERNEL: &str = "_kaas/list";

pub(crate) struct ServerInner {
    pub(crate) registry: KernelRegistry,
    pub(crate) config: ServerConfig,
    pub(crate) shm: SharedMemory,
    pub(crate) pool: Rc<RunnerPool>,
    pub(crate) admission: AdmissionController,
    pub(crate) metrics: MetricsSink,
    pub(crate) metrics_registry: MetricsRegistry,
    /// The dispatch engine: a front door feeding per-shard worker
    /// queues, each paying the Fig. 12b weak-scaling offset of ≈35 µs
    /// per invocation.
    pub(crate) dispatch: DispatchState,
    /// Per-device circuit breakers (disabled unless
    /// [`ServerConfig::breaker`] is set).
    pub(crate) breakers: BreakerBank,
    /// The device-resident data plane: content-addressed object store +
    /// per-device memory managers.
    pub(crate) dataplane: Rc<DataPlane>,
    /// Registered workflow DAGs plus live-run accounting for the
    /// server-side dataflow executor.
    pub(crate) flows: FlowState,
    /// Tenant-registered guest kernels (versioned bytecode programs
    /// behind the `_kaas/code/*` control plane) with usage accounting.
    pub(crate) guests: GuestState,
    /// Token bucket metering the server's own retry loops (the flow
    /// executor's step retries); `None` keeps them unmetered.
    pub(crate) retry_budget: Option<Rc<RetryBudget>>,
}

/// The KaaS server (Fig. 3: registration target and invocation router).
///
/// # Examples
///
/// ```
/// use kaas_core::{KaasServer, KaasClient, KernelRegistry, ServerConfig};
/// use kaas_kernels::{MonteCarlo, Value};
/// use kaas_accel::{Device, GpuDevice, GpuProfile, DeviceId};
/// use kaas_net::{LinkProfile, Network, SharedMemory};
/// use kaas_simtime::{spawn, Simulation};
///
/// let mut sim = Simulation::new();
/// let out = sim.block_on(async {
///     let registry = KernelRegistry::new();
///     registry.register(MonteCarlo::default()).unwrap();
///     let gpu: Device = GpuDevice::new(DeviceId(0), GpuProfile::p100()).into();
///     let shm = SharedMemory::host();
///     let server = KaasServer::new(vec![gpu], registry, shm, ServerConfig::default());
///     let net = Network::new();
///     let listener = net.listen("kaas").unwrap();
///     spawn({ let server = server.clone(); async move { server.serve(listener).await } });
///     let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
///         .await
///         .unwrap();
///     client.call("mci").arg(Value::U64(10_000)).send().await.unwrap().output
/// });
/// assert!(matches!(out, kaas_kernels::Value::F64(_)));
/// ```
#[derive(Clone)]
pub struct KaasServer {
    inner: Rc<ServerInner>,
}

impl std::fmt::Debug for KaasServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KaasServer")
            .field("devices", &self.inner.pool.devices().len())
            .field("kernels", &self.inner.registry.names())
            .finish()
    }
}

impl KaasServer {
    /// Creates a server managing `devices` with the given registry and
    /// (host-local) shared memory region.
    pub fn new(
        devices: Vec<Device>,
        registry: KernelRegistry,
        shm: SharedMemory,
        config: ServerConfig,
    ) -> Self {
        let dataplane = Rc::new(DataPlane::new(&devices));
        // Built before the pool consumes `devices`: shard count 0 means
        // one dispatch shard per device.
        let dispatch = DispatchState::new(&config, devices.len());
        let metrics_registry = MetricsRegistry::new();
        let mut pool = RunnerPool::new(devices);
        if let Some(tracer) = &config.tracer {
            pool.set_tracer(tracer.clone());
        }
        // The pool bills guest warm-init phases (full instantiate vs
        // snapshot restore) into the shared registry at cold-start time.
        pool.set_metrics(metrics_registry.clone());
        // Device memory dies with the runner process that owns it: any
        // runner death (crash, kill, idle reap) drops that device's
        // residency so retries re-upload instead of reading stale
        // pointers.
        pool.set_residency_invalidator({
            let dataplane = Rc::clone(&dataplane);
            move |device| {
                dataplane.invalidate_device(device);
            }
        });
        let inner = Rc::new(ServerInner {
            registry,
            shm,
            pool: Rc::new(pool),
            dataplane,
            admission: AdmissionController::new(config.admission),
            metrics: MetricsSink::new(),
            metrics_registry,
            dispatch,
            breakers: config
                .breaker
                .map(BreakerBank::new)
                .unwrap_or_else(BreakerBank::disabled),
            flows: FlowState::new(),
            guests: GuestState::new(),
            retry_budget: config.retry_budget.map(|c| Rc::new(RetryBudget::new(c))),
            config,
        });
        // Under the sanitizer, re-check this server's cross-module
        // invariants after every executor step. The auditor holds a weak
        // reference, so a dropped server retires its hook.
        #[cfg(feature = "sim-sanitizer")]
        if let Some(handle) = kaas_simtime::Handle::try_current() {
            let auditor = Rc::new(crate::sanitize::Auditor::new(Rc::downgrade(&inner)));
            handle.add_step_hook(Rc::new(move || auditor.check_step()));
        }
        KaasServer { inner }
    }

    pub(crate) fn inner(&self) -> &ServerInner {
        &self.inner
    }

    /// The server's metric sink (raw per-invocation reports).
    pub fn metrics(&self) -> MetricsSink {
        self.inner.metrics.clone()
    }

    /// The server's structured metric store: counters (`invocations`,
    /// `cold_starts`, `errors.*`), gauges (`in_flight`, `runners`,
    /// `device{N}.utilization`), and latency histograms
    /// (`latency.server`, `latency.queue`, `copy_in`, `kernel_exec`,
    /// `copy_out`, each also per-kernel as `<name>.<kernel>`).
    pub fn metrics_registry(&self) -> MetricsRegistry {
        self.inner.metrics_registry.clone()
    }

    /// A consistent point-in-time view of the control plane: per-kernel
    /// runner/in-flight counts, reap totals, and device classes.
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            kernels: self.inner.pool.per_kernel_stats(),
            reaped: self.inner.pool.reaped(),
            device_classes: self.inner.pool.device_classes(),
            quarantined: self.inner.pool.quarantined(),
            breakers: self.inner.breakers.states(),
            shard_depths: self.inner.dispatch.shard_depths(),
            dispatch_queued: self.inner.dispatch.queued(),
            shard_ejected: self.inner.dispatch.shard_ejected(),
            dispatch_ejected: self.inner.dispatch.ejected(),
            admission_limit: self.inner.admission.current_limit(),
        }
    }

    /// The managed devices.
    pub fn devices(&self) -> &[Device] {
        self.inner.pool.devices()
    }

    /// The kernel registry (register kernels through this).
    pub fn registry(&self) -> &KernelRegistry {
        &self.inner.registry
    }

    /// The runner pool (lifecycle state: counts, reaps, kills).
    pub fn pool(&self) -> &RunnerPool {
        &self.inner.pool
    }

    /// The data plane: the content-addressed object store and per-device
    /// residency state (hit/miss/eviction inspection for tests and
    /// experiments).
    pub fn dataplane(&self) -> &DataPlane {
        &self.inner.dataplane
    }

    /// Kills the runner currently serving `kernel` on `device` (failure
    /// injection for tests).
    pub fn kill_runner(&self, kernel: &str, device: DeviceId) -> bool {
        self.inner.pool.kill_runner(kernel, device)
    }

    /// Pre-starts `count` runners for `kernel` and waits until they are
    /// warm — how the "warm start" experiments begin.
    ///
    /// # Errors
    ///
    /// [`InvokeError::UnknownKernel`] / [`InvokeError::NoDevice`] when the
    /// kernel or a suitable device is missing.
    pub async fn prewarm(&self, kernel: &str, count: usize) -> Result<(), InvokeError> {
        let k = self
            .inner
            .registry
            .lookup(kernel)
            .ok_or_else(|| InvokeError::UnknownKernel(kernel.to_owned()))?;
        let mut slots = Vec::new();
        for _ in 0..count {
            slots.push(
                self.inner
                    .pool
                    .spawn_runner(kernel, &k, self.inner.config.runner)?,
            );
        }
        for slot in slots {
            slot.wait_ready().await;
        }
        Ok(())
    }

    /// Accept loop: serves every connection until the listener closes.
    ///
    /// Single requests ([`RequestFrame::One`]) walk the historical
    /// per-frame path. Batched frames ([`RequestFrame::Batch`]) fan out
    /// into concurrent [`handle`](KaasServer::handle) calls — so the
    /// resilience machinery (retry, breakers, eviction) treats each
    /// member individually — and the replies coalesce symmetrically
    /// into one [`ResponseFrame::Batch`] in request order.
    pub async fn serve(self, mut listener: Listener<RequestFrame, ResponseFrame>) {
        while let Some(conn) = listener.accept().await {
            let server = self.clone();
            spawn(async move {
                let (tx, mut rx) = conn.split();
                while let Some(frame) = rx.recv().await {
                    let server = server.clone();
                    let tx = tx.clone();
                    spawn(async move {
                        match frame.body {
                            RequestFrame::One(req) => {
                                let parent = req.span;
                                let resp = server.handle(req).await;
                                let out = ResponseFrame::One(resp);
                                let bytes = out.wire_bytes();
                                let t0 = kaas_simtime::now();
                                let sent = tx.send(Frame::new(out, bytes)).await;
                                if let (Some(tracer), Ok(())) = (&server.inner.config.tracer, sent)
                                {
                                    // The reply transmission, parented under
                                    // the client's roundtrip span.
                                    tracer.record(
                                        "server",
                                        "net_send",
                                        t0,
                                        kaas_simtime::now(),
                                        parent,
                                        vec![("bytes".into(), bytes.to_string())],
                                    );
                                }
                            }
                            RequestFrame::Batch(reqs) => {
                                {
                                    let m = &server.inner.metrics_registry;
                                    m.inc("dispatch.batches");
                                    m.add("dispatch.batch_members", reqs.len() as u64);
                                }
                                // Members run concurrently and fail
                                // independently; `join_all` preserves
                                // request order for the coalesced reply.
                                let members = reqs.into_iter().map(|req| {
                                    let server = server.clone();
                                    async move { server.handle(req).await }
                                });
                                let resps = join_all(members).await;
                                let out = ResponseFrame::Batch(resps);
                                let bytes = out.wire_bytes();
                                let _ = tx.send(Frame::new(out, bytes)).await;
                            }
                        }
                    });
                }
            });
        }
    }
}

#[cfg(feature = "sim-sanitizer")]
impl Drop for ServerInner {
    fn drop(&mut self) {
        // Only check leaks on a clean shutdown: during an unwind the
        // invariants are expected to be mid-violation already, and a
        // panic-in-panic would abort and mask the original report.
        // audit:allow(ambient): unwind detection only, no time or threads
        if std::thread::panicking() {
            return;
        }
        crate::sanitize::check_shutdown(self);
    }
}

/// Point-in-time control-plane statistics for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Usable runner slots (starting or ready).
    pub runners: usize,
    /// In-flight (claimed) invocations.
    pub in_flight: usize,
}

/// A consistent point-in-time view of a server's control plane, taken
/// with [`KaasServer::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerSnapshot {
    /// Per-kernel stats, keyed by kernel name (sorted).
    pub kernels: BTreeMap<String, KernelStats>,
    /// Runners reaped by the idle timeout so far.
    pub reaped: usize,
    /// Device classes present in the deployment (sorted, deduplicated).
    pub device_classes: Vec<DeviceClass>,
    /// Runner slots quarantined for persistent failure so far.
    pub quarantined: usize,
    /// Current circuit-breaker state per device (empty when breakers are
    /// disabled or no device has been placed on yet).
    pub breakers: BTreeMap<DeviceId, BreakerState>,
    /// Per-shard dispatch queue depths; their sum is
    /// [`dispatch_queued`](ServerSnapshot::dispatch_queued).
    pub shard_depths: Vec<usize>,
    /// Dispatch jobs queued across all shards right now.
    pub dispatch_queued: usize,
    /// Requests each shard has shed (over-cap at enqueue) or ejected
    /// (deadline passed while queued) so far — honest accounting for
    /// the bounded queues; their sum is
    /// [`dispatch_ejected`](ServerSnapshot::dispatch_ejected).
    pub shard_ejected: Vec<u64>,
    /// Requests shed or ejected across all shards so far.
    pub dispatch_ejected: u64,
    /// The admission limiter's current concurrency ceiling (`None`
    /// when no limiter is configured; moves over time under
    /// [`AdmissionPolicy::Adaptive`](crate::AdmissionPolicy)).
    pub admission_limit: Option<usize>,
}

impl ServerSnapshot {
    /// Usable runner slots for `kernel` (0 if never started).
    pub fn runners(&self, kernel: &str) -> usize {
        self.kernels.get(kernel).map_or(0, |k| k.runners)
    }

    /// In-flight invocations for `kernel` (0 if never started).
    pub fn in_flight(&self, kernel: &str) -> usize {
        self.kernels.get(kernel).map_or(0, |k| k.in_flight)
    }

    /// Runner slots across every kernel.
    pub fn total_runners(&self) -> usize {
        self.kernels.values().map(|k| k.runners).sum()
    }

    /// In-flight invocations across every kernel.
    pub fn total_in_flight(&self) -> usize {
        self.kernels.values().map(|k| k.in_flight).sum()
    }
}
