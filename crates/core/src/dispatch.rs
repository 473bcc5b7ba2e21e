//! The per-invocation data path: admission → dispatch (front door +
//! shard queues) → placement (scheduler + autoscaler) → execution with
//! retry.
//!
//! Split from [`server`](crate::server) so the orchestration skeleton
//! (lifecycle, accept loop, accessors) stays separate from the hot
//! path every request walks.
//!
//! ## The dispatch engine
//!
//! The front door only admits, parses, and enqueues — a short
//! serialized section of [`ShardConfig::front_door_overhead`] — then
//! hands the job to the next per-shard worker task in round-robin
//! order. Each worker serializes the full
//! [`dispatch_overhead`](crate::ServerConfig::dispatch_overhead) for
//! its own queue but overlaps it with every other shard, so aggregate
//! dispatch throughput scales with the shard count. Workers are
//! ordinary simtime tasks and the shard rule is a plain cursor, so
//! same-seed replay stays byte-identical. The paper's historical
//! single-lock router is the one-shard, zero-cost-front-door
//! configuration of this engine (the `cluster` bench reproduces the
//! router-contention knee with it).
//!
//! When a tracer is configured ([`ServerConfig::with_tracer`]
//! (crate::ServerConfig::with_tracer)) the hot path records a span per
//! stage — `admission`, `dispatch`, `deserialize`/`shm_take`,
//! `queue_wait`, then `copy_in`/`kernel_exec`/`copy_out` on the
//! serving runner's track, and finally `reply` — all parented under the
//! client's `roundtrip` span carried in [`Request::span`]. Every
//! invocation also feeds the [`MetricsRegistry`]
//! (crate::MetricsRegistry): counters (`invocations`, `cold_starts`,
//! `errors.*`), latency histograms, and level gauges.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use kaas_accel::{DeviceClass, DeviceId};
use kaas_kernels::{Kernel, Value};
use kaas_simtime::channel::{self, OneshotSender, Receiver};
use kaas_simtime::sync::Semaphore;
use kaas_simtime::{now, sleep, spawn, SimTime};

use crate::admission::AdmissionPermit;
use crate::autoscaler::{ScaleCtx, ScaleDecision};
use crate::config::{DispatchMode, ServerConfig, ShardConfig};
use crate::dataplane::{ObjectRef, DATA_KERNEL_PREFIX};
use crate::guest::CODE_KERNEL_PREFIX;
use crate::metrics::{InvocationReport, RunnerId};
use crate::pool::{InFlightGuard, RunnerPool, RunnerSlot};
use crate::protocol::{DataRef, InvokeError, Request, Response};
use crate::resilience::BreakerState;
use crate::scheduler::SchedCtx;
use crate::server::{KaasServer, DISCOVERY_KERNEL};

/// An admitted, parsed invocation: everything the execution pipeline
/// needs, carried from the front door to the shard worker that runs it.
pub(crate) struct ExecJob {
    req: Request,
    kernel: Rc<dyn Kernel>,
    /// RAII admission permit — rides with the job so the admission slot
    /// is held until execution finishes, on every exit path.
    permit: AdmissionPermit,
    submitted: SimTime,
}

/// One enqueued dispatch: the job plus what the shard worker needs to
/// finish the request and wake the front door's waiter. Carries a
/// strong server handle (a bounded `Rc` cycle while queued: the job
/// keeps the server alive, never the reverse — workers hold only the
/// receiving half, so they exit when the server drops its senders).
struct DispatchJob {
    server: KaasServer,
    job: ExecJob,
    /// When the request reached the dispatch layer (span start).
    t_dispatch: SimTime,
    /// When the front door enqueued it (the `dispatch.shard_ns` origin).
    enqueued: SimTime,
    reply: OneshotSender<Result<(DataRef, InvocationReport), InvokeError>>,
}

/// One shard's queue: the sending half plus its depth counter (the
/// worker task owns the receiving half).
pub(crate) struct ShardQueue {
    tx: channel::Sender<DispatchJob>,
    depth: Rc<Cell<usize>>,
    /// Requests this shard shed (over-cap at enqueue) or ejected
    /// (deadline passed while queued). Shared with the worker task; the
    /// sanitizer checks the sum over shards equals the
    /// `dispatch.ejected` counter — shedding is never silent.
    ejected: Rc<Cell<u64>>,
}

/// The server's dispatch engine — a thin front door plus per-shard
/// worker queues — built from
/// [`ServerConfig::dispatch`](crate::ServerConfig) at construction.
/// Queue and ejection totals are sums over the shard cells, so they
/// agree with the per-shard views by construction.
pub(crate) struct DispatchState {
    front_lock: Semaphore,
    config: ShardConfig,
    shards: Vec<ShardQueue>,
    /// Round-robin cursor: the shard the next request lands on.
    rr: Cell<usize>,
}

impl DispatchState {
    /// Builds the engine for a fleet of `devices` devices. Shard
    /// workers are ordinary simtime tasks, spawned only when an
    /// executor is running (the same guard as the sanitizer hook in
    /// [`KaasServer::new`]); outside a simulation the queues exist but
    /// nothing drains them.
    pub(crate) fn new(config: &ServerConfig, devices: usize) -> Self {
        let DispatchMode::Sharded(sc) = &config.dispatch;
        let n = if sc.shards == 0 {
            devices.max(1)
        } else {
            sc.shards
        };
        let shards = (0..n)
            .map(|shard| {
                let (tx, rx) = channel::unbounded();
                let depth = Rc::new(Cell::new(0usize));
                let ejected = Rc::new(Cell::new(0u64));
                if kaas_simtime::Handle::try_current().is_some() {
                    spawn(shard_worker(
                        shard,
                        rx,
                        Rc::clone(&depth),
                        Rc::clone(&ejected),
                        config.dispatch_overhead,
                        sc.queue_cap.is_some(),
                    ));
                }
                ShardQueue { tx, depth, ejected }
            })
            .collect();
        DispatchState {
            front_lock: Semaphore::new(1),
            config: sc.clone(),
            shards,
            rr: Cell::new(0),
        }
    }

    /// Current queue depth of every shard.
    pub(crate) fn shard_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.depth.get()).collect()
    }

    /// Total dispatch jobs queued across all shards.
    pub(crate) fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.depth.get()).sum()
    }

    /// Requests each shard has shed or ejected.
    pub(crate) fn shard_ejected(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.ejected.get()).collect()
    }

    /// Total requests shed or ejected across all shards.
    pub(crate) fn ejected(&self) -> u64 {
        self.shards.iter().map(|s| s.ejected.get()).sum()
    }
}

/// One shard's drain loop: dequeue, pay the shard's serialized routing
/// cost, then hand execution to a fresh task so long-running kernels
/// never block the queue behind them. Exits when the server drops its
/// sending halves.
async fn shard_worker(
    shard: usize,
    mut rx: Receiver<DispatchJob>,
    depth: Rc<Cell<usize>>,
    ejected: Rc<Cell<u64>>,
    overhead: Duration,
    eject_expired: bool,
) {
    while let Some(DispatchJob {
        server,
        job,
        t_dispatch,
        enqueued,
        reply,
    }) = rx.recv().await
    {
        depth.set(depth.get() - 1);
        server.inner().metrics_registry.set_gauge_fmt(
            format_args!("dispatch.shard.{shard}.depth"),
            depth.get() as f64,
        );
        {
            let inner = server.inner();
            let m = &inner.metrics_registry;
            // Lazy deadline ejection (bounded-queue mode only): the
            // deadline passed while the job sat in the queue, so it is
            // dead on arrival — reply now and never pay the routing
            // cost (or reach placement) for it. Unbounded queues keep
            // the historic behaviour: dead work still burns a full
            // dispatch slot before `execute` sheds it, which is exactly
            // the waste that sustains a metastable failure.
            if eject_expired && job.req.deadline.is_some_and(|d| now() > d) {
                ejected.set(ejected.get() + 1);
                m.inc("dispatch.ejected");
                m.inc_fmt(format_args!("dispatch.shard.{shard}.ejected"));
                let _ = reply.send(Err(InvokeError::DeadlineExceeded));
                continue;
            }
            // The observed queue wait is the adaptive admission
            // limiter's control signal.
            inner.admission.observe_queue_wait(now() - enqueued);
            if let Some(limit) = inner.admission.current_limit() {
                m.set_gauge("admission.limit", limit as f64);
            }
        }
        // This worker is one task, so jobs on one shard pay the routing
        // cost back to back while other shards overlap theirs.
        sleep(overhead).await;
        let inner = server.inner();
        inner
            .metrics_registry
            .observe("dispatch.shard_ns", (now() - enqueued).as_nanos() as f64);
        if let Some(t) = &inner.config.tracer {
            t.record(
                "server",
                "dispatch",
                t_dispatch,
                now(),
                job.req.span,
                vec![],
            );
        }
        spawn(async move {
            let out = server.execute(job).await;
            // A dropped receiver means the front-door waiter is gone;
            // the work still completed, so the result is simply unread.
            let _ = reply.send(out);
        });
    }
}

impl KaasServer {
    /// Handles one request end to end (public for in-process use and
    /// tests; network callers go through [`KaasServer::serve`]).
    pub async fn handle(&self, req: Request) -> Response {
        // Reserved flow endpoints: register a workflow DAG / trigger a
        // server-side dataflow run. These shape their own response
        // (they carry a per-step report alongside the result).
        if req.kernel.starts_with(crate::flow::FLOW_KERNEL_PREFIX) {
            return self.flow_frame(req).await;
        }
        let id = req.id;
        let kernel = req.kernel.clone();
        match self.handle_inner(req).await {
            Ok((data, report)) => Response {
                id,
                result: Ok(data),
                report: Some(report),
                flow: None,
            },
            Err(e) => {
                if kernel != DISCOVERY_KERNEL {
                    let m = &self.inner().metrics_registry;
                    m.inc("errors");
                    m.inc_fmt(format_args!("errors.{}", e.kind()));
                }
                Response {
                    id,
                    result: Err(e),
                    report: None,
                    flow: None,
                }
            }
        }
    }

    pub(crate) async fn handle_inner(
        &self,
        req: Request,
    ) -> Result<(DataRef, InvocationReport), InvokeError> {
        // Reserved discovery endpoint: federated clients list the
        // kernels a site serves before routing work to it.
        if req.kernel == DISCOVERY_KERNEL {
            return Ok(self.discovery_response());
        }
        // Reserved data-plane endpoints: put/get/seal/pin against the
        // content-addressed object store.
        if req.kernel.starts_with(DATA_KERNEL_PREFIX) {
            return self.dataplane_op(req).await;
        }
        // Reserved guest-code endpoints: register/list/remove against
        // the tenant kernel registry.
        if req.kernel.starts_with(CODE_KERNEL_PREFIX) {
            return self.code_op(req).await;
        }
        let inner = self.inner();
        let tracer = inner.config.tracer.clone();
        let parent = req.span;
        let span = |name: &str, start: SimTime, end: SimTime| {
            if let Some(t) = &tracer {
                t.record("server", name, start, end, parent, vec![]);
            }
        };
        let submitted = now();
        let permit = match inner.admission.admit(req.tenant.as_deref()).await {
            Ok(permit) => permit,
            Err(InvokeError::Overloaded { retry_after: None }) => {
                // Cooperative backpressure: attach a deterministic
                // estimate of when the backlog will have drained, so
                // well-behaved clients retry after it instead of
                // hammering a saturated server.
                let backlog = inner.dispatch.queued() / inner.dispatch.shards.len();
                return Err(InvokeError::Overloaded {
                    retry_after: Some(self.retry_after_hint(backlog)),
                });
            }
            Err(e) => return Err(e),
        };
        if let Some(limit) = inner.admission.current_limit() {
            inner
                .metrics_registry
                .set_gauge("admission.limit", limit as f64);
        }
        span("admission", submitted, now());
        // Request parsing stays on the front door: resolve the kernel
        // before any dispatch cost so unknown names never consume
        // router capacity.
        let kernel = match inner.registry.lookup(&req.kernel) {
            Some(k) => k,
            // Guest kernels resolve alongside compiled-in ones: a bare
            // `tenant/name` means latest live version, `@vN` pins one.
            None => match inner.guests.resolve(&req.kernel) {
                Some(g) => {
                    // The verifier's worst-case fuel bound is the
                    // predicted cost of this invocation — recorded so
                    // admission policy can be tuned against it.
                    if let Some(fuel) = g.predicted_fuel() {
                        inner
                            .metrics_registry
                            .observe("guest.predicted_fuel", fuel as f64);
                    }
                    g as Rc<dyn Kernel>
                }
                None if crate::guest::is_guest_name(&req.kernel) => {
                    return Err(InvokeError::UnknownGuestKernel(req.kernel.clone()));
                }
                None => return Err(InvokeError::UnknownKernel(req.kernel.clone())),
            },
        };
        let job = ExecJob {
            req,
            kernel,
            permit,
            submitted,
        };
        let t_dispatch = now();
        // The front door only classifies + enqueues; placement, the
        // cache step, retry, and the runner handoff all happen on the
        // chosen shard's worker task.
        let d = &inner.dispatch;
        {
            let _front = d.front_lock.acquire(1).await;
            sleep(d.config.front_door_overhead).await;
        }
        let m = &inner.metrics_registry;
        m.observe(
            "dispatch.front_door_ns",
            (now() - t_dispatch).as_nanos() as f64,
        );
        let shard = d.rr.get();
        d.rr.set((shard + 1) % d.shards.len());
        let q = &d.shards[shard];
        // Enqueue-time shedding: dead or over-cap work never enters the
        // queue, so it cannot crowd out live requests or consume a
        // worker's routing cost. Every shed is counted — never silent.
        let eject = |err: InvokeError| {
            q.ejected.set(q.ejected.get() + 1);
            m.inc("dispatch.ejected");
            m.inc_fmt(format_args!("dispatch.shard.{shard}.ejected"));
            err
        };
        if job.req.deadline.is_some_and(|d| now() > d) {
            return Err(eject(InvokeError::DeadlineExceeded));
        }
        if d.config.queue_cap.is_some_and(|cap| q.depth.get() >= cap) {
            let hint = self.retry_after_hint(q.depth.get());
            return Err(eject(InvokeError::Overloaded {
                retry_after: Some(hint),
            }));
        }
        q.depth.set(q.depth.get() + 1);
        m.set_gauge_fmt(
            format_args!("dispatch.shard.{shard}.depth"),
            q.depth.get() as f64,
        );
        let (reply_tx, reply_rx) = channel::oneshot();
        let dj = DispatchJob {
            server: self.clone(),
            job,
            t_dispatch,
            enqueued: now(),
            reply: reply_tx,
        };
        if q.tx.send(dj).await.is_err() {
            // No worker drains this queue (the server was built outside
            // a running simulation): undo the enqueue and report the
            // path unavailable.
            q.depth.set(q.depth.get() - 1);
            return Err(InvokeError::Disconnected);
        }
        reply_rx.await.map_err(|_| InvokeError::Disconnected)?
    }

    /// The deterministic drain-time estimate attached to `Overloaded`
    /// sheds: how long a backlog of `backlog` jobs ahead of the caller
    /// takes one shard worker to route, capped at one second. A pure
    /// function of observable queue state, so same-seed replays emit
    /// identical hints.
    pub(crate) fn retry_after_hint(&self, backlog: usize) -> Duration {
        let overhead = self.inner().config.dispatch_overhead;
        overhead
            .saturating_mul(backlog.min(1_000_000) as u32 + 1)
            .min(Duration::from_secs(1))
    }

    /// The execution pipeline one admitted job walks — input
    /// materialization, deadline shedding, placement + cache step +
    /// retry, report/metrics recording, and reply shaping. Runs on a
    /// spawned task per job, handed off by the shard worker.
    pub(crate) async fn execute(
        &self,
        job: ExecJob,
    ) -> Result<(DataRef, InvocationReport), InvokeError> {
        let ExecJob {
            req,
            kernel,
            permit: _permit,
            submitted,
        } = job;
        let inner = self.inner();
        let tracer = inner.config.tracer.clone();
        let parent = req.span;
        let span = |name: &str, start: SimTime, end: SimTime| {
            if let Some(t) = &tracer {
                t.record("server", name, start, end, parent, vec![]);
            }
        };

        // Materialize the input.
        let oob = req.replies_out_of_band();
        let object = match &req.data {
            DataRef::Object(r) => Some(*r),
            _ => None,
        };
        let t_input = now();
        let (input, hop) = self.take_input(req.data).await?;
        span(hop, t_input, now());
        let enveloped = matches!(input, Value::Sized { .. });
        // Only sealed (immutable) objects may be cached in device
        // memory; an unsealed ref still resolves but re-uploads every
        // time.
        let cacheable = object.filter(|r| inner.dataplane.store().is_sealed(r.hash));

        // The deadline bounds time-to-start: shed rather than dispatch
        // work the client has already given up on.
        if req.deadline.is_some_and(|d| now() > d) {
            return Err(InvokeError::DeadlineExceeded);
        }

        // Dispatch with retries if the chosen runner died. Attempt
        // count, backoff, and budget come from the retry policy
        // (`ServerConfig::retry`); failures feed the per-device circuit
        // breaker and the slot's eviction accounting.
        let retry = &inner.config.retry;
        let m = &inner.metrics_registry;
        let mut attempts = 0u32;
        let mut backoff_spent = Duration::ZERO;
        let (output, timings, runner_id, device_id, started, degraded) = loop {
            attempts += 1;
            if attempts > 1 {
                m.inc("retries.attempted");
            }
            let t_wait = now();
            // Runners are keyed by the *resolved* kernel identity, not
            // the requested name: a guest bare name re-resolves over
            // time, and a warm runner must never serve a superseded
            // version.
            let (slot, degraded) = self.place(kernel.name(), &kernel, cacheable.as_ref())?;
            // Data-plane cache step: a sealed operand either already
            // sits in the chosen device's memory (hit — the host→device
            // copy is skipped) or is admitted now (miss — this
            // invocation's copy_in is the upload, evicting LRU objects
            // under pressure).
            let mut hit = false;
            let mut admitted = false;
            let mut guard_object = None;
            if let Some(r) = &cacheable {
                let t_cache = now();
                if let Some(mgr) = inner.dataplane.manager(slot.device()) {
                    hit = mgr.touch(r.hash);
                    if hit {
                        m.inc("dataplane.hits");
                    } else {
                        m.inc("dataplane.misses");
                        match inner.dataplane.admit(slot.device(), r) {
                            Ok(evicted) => {
                                admitted = true;
                                m.add("dataplane.evictions", evicted.len() as u64);
                                if let Some(t) = &tracer {
                                    for h in evicted {
                                        t.record(
                                            "server",
                                            "evict",
                                            t_cache,
                                            now(),
                                            parent,
                                            vec![
                                                ("object".into(), format!("{h:016x}")),
                                                ("device".into(), slot.device().to_string()),
                                            ],
                                        );
                                    }
                                }
                            }
                            Err(e) => {
                                return Err(InvokeError::DeviceOom(format!(
                                    "{} cannot hold {r}: {e}",
                                    slot.device()
                                )));
                            }
                        }
                    }
                    guard_object = Some((Rc::clone(mgr), r.hash));
                }
                if let Some(t) = &tracer {
                    t.record(
                        "server",
                        "cache_lookup",
                        t_cache,
                        now(),
                        parent,
                        vec![("outcome".into(), if hit { "hit" } else { "miss" }.into())],
                    );
                }
            }
            // RAII claim: released on every exit path below, including
            // kernel errors and retries. Also holds the operand's
            // in-flight reference so it cannot be evicted mid-read.
            let claim = InFlightGuard::claim_with_object(&slot, guard_object);
            let runner = slot.runner().await;
            let started = now();
            let result = if hit {
                runner.invoke_cached(&input).await
            } else {
                runner.invoke(&input).await
            };
            drop(claim);
            slot.touch();
            if let Some(timeout) = inner.config.idle_timeout {
                inner.pool.arm_reaper(&slot, timeout);
            }
            match result {
                Ok((output, timings)) => {
                    slot.record_success();
                    self.note_breaker(slot.device(), true);
                    if let Some(t) = &tracer {
                        // Device phases ran back to back ending now;
                        // tile them backwards from the finish time and
                        // charge everything before them to queueing.
                        let t_done = now();
                        let device_start = t_done.saturating_sub(
                            timings.copy_in + timings.kernel_exec + timings.copy_out,
                        );
                        t.record("server", "queue_wait", t_wait, device_start, parent, vec![]);
                        if admitted {
                            // The host→device copy doubled as the object
                            // upload into the device cache.
                            t.record(
                                "server",
                                "upload",
                                device_start,
                                device_start + timings.copy_in,
                                parent,
                                vec![("device".into(), slot.device().to_string())],
                            );
                        }
                        let track = runner.id().to_string();
                        let mut at = device_start;
                        for (name, d) in [
                            ("copy_in", timings.copy_in),
                            ("kernel_exec", timings.kernel_exec),
                            ("copy_out", timings.copy_out),
                        ] {
                            t.record(track.clone(), name, at, at + d, parent, vec![]);
                            at += d;
                        }
                    }
                    break (
                        output,
                        timings,
                        runner.id(),
                        runner.device_id(),
                        started,
                        degraded,
                    );
                }
                Err(InvokeError::RunnerFailed(reason)) => {
                    if admitted {
                        if let Some(r) = &cacheable {
                            // The upload never completed (it died with
                            // the runner): do not claim residency.
                            inner.dataplane.unmark(slot.device(), r.hash);
                        }
                    }
                    self.note_breaker(slot.device(), false);
                    if slot.record_failure(inner.config.eviction.failure_threshold) {
                        inner.pool.quarantine(&slot);
                        m.inc("evictions");
                    }
                    if let Some(t) = &tracer {
                        t.record(
                            "server",
                            "attempt_failed",
                            t_wait,
                            now(),
                            parent,
                            vec![("runner".into(), runner.id().to_string())],
                        );
                    }
                    if attempts >= retry.max_attempts {
                        return Err(InvokeError::RunnerFailed(reason));
                    }
                    let mut wait = retry.backoff.backoff(attempts, req.id);
                    if let Some(budget) = retry.budget {
                        let remaining = budget.saturating_sub(backoff_spent);
                        if remaining.is_zero() && !wait.is_zero() {
                            // Budget exhausted: give up rather than
                            // retry hot with no wait.
                            return Err(InvokeError::RunnerFailed(reason));
                        }
                        wait = wait.min(remaining);
                    }
                    if !wait.is_zero() {
                        sleep(wait).await;
                        backoff_spent += wait;
                    }
                }
                Err(e) => {
                    if admitted {
                        if let Some(r) = &cacheable {
                            inner.dataplane.unmark(slot.device(), r.hash);
                        }
                    }
                    return Err(e);
                }
            }
        };

        let completed = now();
        let report = InvocationReport {
            kernel: req.kernel.clone(),
            runner: runner_id,
            device: device_id,
            cold_start: timings.first_invocation,
            submitted,
            started,
            completed,
            copy_in: timings.copy_in,
            kernel_exec: timings.kernel_exec,
            copy_out: timings.copy_out,
            degraded,
        };
        inner.metrics.record(report.clone());
        self.record_registry(&report);
        // Guest usage accounting: bill whatever this kernel metered
        // since the last bill into the per-tenant `guest.*` counters.
        // The resolved name (`tenant/name@vN`) is the billing key even
        // when the request used a bare latest-version name.
        if crate::guest::is_guest_name(kernel.name()) {
            inner.guests.account(kernel.name(), m);
        }
        if object.is_some() {
            m.set_gauge(
                "dataplane.bytes_resident",
                inner.dataplane.bytes_resident() as f64,
            );
            for (dev, bytes) in inner.dataplane.residency() {
                m.set_gauge_fmt(format_args!("dataplane.{dev}.bytes_resident"), bytes as f64);
            }
        }

        // Descriptor-mode requests get descriptor-sized responses: the
        // logical result size is the kernel's device→host volume.
        let output = if enveloped {
            let bytes_out = kernel
                .work(input.payload())
                .map(|w| w.bytes_out)
                .unwrap_or(0)
                .max(output.wire_bytes());
            Value::sized(bytes_out, output)
        } else {
            output
        };
        // Internal flow-executor handoff: the output goes straight to
        // the object store, so skip reply shaping — no serialization,
        // no shm hop, nothing crosses the wire.
        if req.reply_to_store {
            return Ok((DataRef::InBand(output), report));
        }
        let t_reply = now();
        let data = self.shape_reply(output, oob).await;
        span("reply", t_reply, now());
        Ok((data, report))
    }

    /// The server half of every request's input transport: turns the
    /// request's data into a value by deserializing an in-band payload,
    /// taking an out-of-band one from shared memory, or resolving a
    /// content address against the object store (no deserialization at
    /// all). A handle or ref that does not resolve is
    /// [`InvokeError::BadHandle`]. Also returns the name of the hop, for
    /// callers that record it as a span.
    pub(crate) async fn take_input(
        &self,
        data: DataRef,
    ) -> Result<(Value, &'static str), InvokeError> {
        let inner = self.inner();
        match data {
            DataRef::InBand(v) => {
                sleep(inner.config.serialization.time(v.wire_bytes())).await;
                Ok((v, "deserialize"))
            }
            DataRef::OutOfBand(h) => {
                let v = inner.shm.take(h).await.ok_or(InvokeError::BadHandle)?;
                Ok((v, "shm_take"))
            }
            DataRef::Object(r) => {
                let v = inner.dataplane.resolve(&r).ok_or(InvokeError::BadHandle)?;
                Ok((v, "ref_resolve"))
            }
        }
    }

    /// The server half of every reply's transport: a memcpy through
    /// shared memory when `oob` (see [`Request::replies_out_of_band`]),
    /// serialization in-band otherwise.
    pub(crate) async fn shape_reply(&self, output: Value, oob: bool) -> DataRef {
        let inner = self.inner();
        if oob {
            let bytes = output.wire_bytes();
            DataRef::OutOfBand(inner.shm.put(output, bytes).await)
        } else {
            sleep(inner.config.serialization.time(output.wire_bytes())).await;
            DataRef::InBand(output)
        }
    }

    /// Feeds one successful invocation into the structured registry:
    /// event counters, stage-latency histograms (global and per-kernel),
    /// and current-level gauges.
    fn record_registry(&self, report: &InvocationReport) {
        let inner = self.inner();
        let m = &inner.metrics_registry;
        let k = &report.kernel;
        m.inc("invocations");
        m.inc_fmt(format_args!("invocations.{k}"));
        if report.cold_start {
            m.inc("cold_starts");
        }
        if report.degraded {
            m.inc("degraded.served");
        }
        for (name, v) in [
            ("latency.server", report.server_latency()),
            ("latency.queue", report.queue_time()),
            ("copy_in", report.copy_in),
            ("kernel_exec", report.kernel_exec),
            ("copy_out", report.copy_out),
        ] {
            m.observe(name, v.as_secs_f64());
            m.observe_fmt(format_args!("{name}.{k}"), v.as_secs_f64());
        }
        m.set_gauge("in_flight", inner.pool.total_in_flight() as f64);
        m.set_gauge("runners", inner.pool.total_runners() as f64);
        let elapsed = now().as_secs_f64();
        if elapsed > 0.0 {
            for d in inner.pool.devices() {
                m.set_gauge_fmt(
                    format_args!("{}.utilization", d.id()),
                    (d.busy_seconds() / elapsed).min(1.0),
                );
            }
        }
    }

    /// Feeds one invocation outcome into the device's circuit breaker
    /// (no-op when breakers are disabled) and publishes the resulting
    /// state as a `breaker.<device>.state` gauge (0 closed, 1 half-open,
    /// 2 open).
    fn note_breaker(&self, device: DeviceId, success: bool) {
        let inner = self.inner();
        if let Some(breaker) = inner.breakers.for_device(device) {
            if success {
                breaker.record_success();
            } else {
                breaker.record_failure();
            }
            let level = match breaker.state() {
                BreakerState::Closed => 0.0,
                BreakerState::HalfOpen => 1.0,
                BreakerState::Open => 2.0,
            };
            inner
                .metrics_registry
                .set_gauge_fmt(format_args!("breaker.{device}.state"), level);
        }
    }

    /// Chooses (or starts) a runner slot for `kernel` on its preferred
    /// device class, degrading to a configured fallback class when the
    /// preferred one has no usable device. `operand` is the request's
    /// sealed object ref, if any — the data-plane residency hint passed
    /// through to the scheduler. Returns the slot and whether the
    /// placement was degraded.
    fn place(
        &self,
        name: &str,
        kernel: &Rc<dyn Kernel>,
        operand: Option<&ObjectRef>,
    ) -> Result<(Rc<RunnerSlot>, bool), InvokeError> {
        let preferred = kernel.device_class();
        match self.place_on(name, kernel, preferred, operand) {
            Ok(slot) => Ok((slot, false)),
            Err(e @ (InvokeError::NoDevice(_) | InvokeError::CircuitOpen(_))) => {
                if let Some(fallback) = self.inner().config.fallback.next(preferred) {
                    if let Ok(slot) = self.place_on(name, kernel, fallback, operand) {
                        return Ok((slot, true));
                    }
                }
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Chooses (or starts) a runner slot for `kernel` on `class`:
    /// scheduler first, autoscaler on cold/saturated fleets, queueing as
    /// the fallback. Only slots on online devices of `class` whose
    /// circuit breaker allows placements are eligible. Claims nothing —
    /// the caller takes the in-flight guard.
    fn place_on(
        &self,
        name: &str,
        kernel: &Rc<dyn Kernel>,
        class: DeviceClass,
        operand: Option<&ObjectRef>,
    ) -> Result<Rc<RunnerSlot>, InvokeError> {
        let inner = self.inner();
        let pool = &inner.pool;
        let config = &inner.config;
        let breakers = &inner.breakers;
        let slot_ok = |s: &RunnerSlot| {
            pool.device(s.device())
                .is_some_and(|d| d.class() == class && d.is_online())
                && breakers.allows(s.device())
        };
        let dev_ok = |d: &kaas_accel::Device| breakers.allows(d.id());
        let scale_ctx = |pool: &RunnerPool| ScaleCtx {
            kernel: name,
            runners: pool.runner_count(name),
            in_flight: pool.in_flight(name),
            cap_per_runner: config.runner.max_inflight,
            device_capacity: pool.class_capacity(class),
        };
        if pool.runner_count(name) == 0 {
            // Bootstrap: a cold deployment always starts its first
            // runner, whatever the policy says.
            if let Ok(slot) = pool.spawn_runner_where(name, kernel, config.runner, class, dev_ok) {
                return Ok(slot);
            }
        } else {
            // Proactive policies may grow the fleet before placement.
            if config.autoscaler.on_invocation(&scale_ctx(pool)) == ScaleDecision::ScaleUp {
                let _ = pool.spawn_runner_where(name, kernel, config.runner, class, dev_ok);
            }
            let (slots, mut views) = pool.usable_slots_where(name, slot_ok);
            if !slots.is_empty() {
                // Overlay the data-plane residency hint so cache-aware
                // schedulers ([`WarmFirst`](crate::WarmFirst)) can route
                // to the device that already holds the operand.
                if let Some(r) = operand {
                    for v in &mut views {
                        v.resident = inner.dataplane.is_resident(v.device, r.hash);
                    }
                }
                let ctx = SchedCtx {
                    kernel: name,
                    slots: &views,
                    cap: config.runner.max_inflight,
                };
                if let Some(choice) = config.scheduler.pick(&ctx) {
                    return Ok(Rc::clone(&slots[choice.index]));
                }
                // Every eligible runner is saturated: ask the autoscaler.
                if config.autoscaler.on_saturated(&scale_ctx(pool)) == ScaleDecision::ScaleUp {
                    if let Ok(slot) =
                        pool.spawn_runner_where(name, kernel, config.runner, class, dev_ok)
                    {
                        return Ok(slot);
                    }
                }
            } else {
                // The kernel has runners, but none on an eligible device
                // of this class (offline / breaker-open / fallback class
                // not yet started): try starting one.
                if let Ok(slot) =
                    pool.spawn_runner_where(name, kernel, config.runner, class, dev_ok)
                {
                    return Ok(slot);
                }
            }
        }
        // Fall back to queueing on the least-claimed eligible slot.
        pool.least_claimed_where(name, slot_ok)
            .ok_or_else(|| self.placement_error(class))
    }

    /// The error reported when no placement on `class` was possible:
    /// [`InvokeError::CircuitOpen`] when online devices of the class
    /// exist but every breaker is open, [`InvokeError::NoDevice`]
    /// otherwise (none deployed, or all offline).
    fn placement_error(&self, class: DeviceClass) -> InvokeError {
        let inner = self.inner();
        let online: Vec<DeviceId> = inner
            .pool
            .devices()
            .iter()
            .filter(|d| d.class() == class && d.is_online())
            .map(|d| d.id())
            .collect();
        if !online.is_empty() && online.iter().all(|id| !inner.breakers.allows(*id)) {
            InvokeError::CircuitOpen(class.to_string())
        } else {
            InvokeError::NoDevice(class.to_string())
        }
    }

    fn discovery_response(&self) -> (DataRef, InvocationReport) {
        let names = self
            .inner()
            .registry
            .names()
            .into_iter()
            .map(Value::Text)
            .collect();
        (
            DataRef::InBand(Value::List(names)),
            self.control_report(DISCOVERY_KERNEL),
        )
    }

    /// The synthetic report attached to control-kernel responses
    /// (discovery, data-plane ops): no runner or device was involved.
    pub(crate) fn control_report(&self, kernel: &str) -> InvocationReport {
        InvocationReport {
            kernel: kernel.to_owned(),
            runner: RunnerId(u32::MAX),
            device: DeviceId(u32::MAX),
            cold_start: false,
            submitted: now(),
            started: now(),
            completed: now(),
            copy_in: Duration::ZERO,
            kernel_exec: Duration::ZERO,
            copy_out: Duration::ZERO,
            degraded: false,
        }
    }

    /// Serves one `_kaas/data/*` control operation (put/get/seal/pin)
    /// against the object store. Control operations bypass placement —
    /// no device work happens — but pay the same transport costs as any
    /// request (serialization in-band, a memcpy through shared memory
    /// out-of-band: the fast path for large objects).
    async fn dataplane_op(&self, req: Request) -> Result<(DataRef, InvocationReport), InvokeError> {
        let inner = self.inner();
        let oob = req.replies_out_of_band();
        let (input, _) = self.take_input(req.data).await?;
        let dp = &inner.dataplane;
        let m = &inner.metrics_registry;
        let parse_ref = |v: &Value| {
            ObjectRef::from_value(v)
                .ok_or_else(|| InvokeError::BadInput("expected an object ref".into()))
        };
        let op = req.kernel.strip_prefix(DATA_KERNEL_PREFIX).unwrap_or("");
        let output = match op {
            "put" => {
                let r = dp.put(input);
                m.inc("dataplane.puts");
                m.set_gauge("dataplane.objects", dp.store().len() as f64);
                m.set_gauge("dataplane.bytes_stored", dp.store().bytes_stored() as f64);
                r.to_value()
            }
            "get" => {
                let r = parse_ref(&input)?;
                dp.resolve(&r).ok_or(InvokeError::BadHandle)?
            }
            "seal" => {
                let r = parse_ref(&input)?;
                if !dp.seal(r.hash) {
                    return Err(InvokeError::BadHandle);
                }
                Value::Unit
            }
            "pin" => {
                let r = parse_ref(&input)?;
                if !dp.pin(r.hash) {
                    return Err(InvokeError::BadHandle);
                }
                Value::Unit
            }
            _ => return Err(InvokeError::UnknownKernel(req.kernel.clone())),
        };
        let report = self.control_report(&req.kernel);
        Ok((self.shape_reply(output, oob).await, report))
    }
}
