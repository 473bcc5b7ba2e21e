//! [`KaasClient`]: the thin client API (§4.1). A KaaS client carries no
//! accelerator libraries — it serializes inputs (in-band) or drops them
//! into shared memory (out-of-band) and speaks the request/response
//! protocol over the network.
//!
//! Invocations are built fluently: [`KaasClient::call`] returns an
//! [`InvokeBuilder`] that collects the input, per-call tenant/deadline
//! overrides, transfer mode, and tracing choice before
//! [`send`](InvokeBuilder::send) runs the round trip:
//!
//! ```no_run
//! # async fn demo(client: &mut kaas_core::KaasClient) {
//! use kaas_kernels::Value;
//! use std::time::Duration;
//!
//! let inv = client
//!     .call("matmul")
//!     .arg(Value::U64(512))
//!     .tenant("t0")
//!     .deadline(Duration::from_millis(50))
//!     .send()
//!     .await
//!     .unwrap();
//! # let _ = inv;
//! # }
//! ```

use std::rc::Rc;
use std::time::Duration;

use kaas_guest::GuestProgram;
use kaas_kernels::Value;
use kaas_net::{
    Connection, LinkFault, LinkProfile, NetError, Network, SerializationProfile, SharedMemory,
};
use kaas_simtime::{now, sleep, timeout, OpenSpan, SimTime, SpanId, SpanSink};

use crate::dataplane::{
    ObjectRef, DATA_GET_KERNEL, DATA_PIN_KERNEL, DATA_PUT_KERNEL, DATA_SEAL_KERNEL,
};
use crate::flow::{encode_trigger, FLOW_REGISTER_KERNEL, FLOW_REPLY_REF, FLOW_RUN_KERNEL};
use crate::guest::{CODE_LIST_KERNEL, CODE_REGISTER_KERNEL, CODE_REMOVE_KERNEL};
use crate::metrics::registry::MetricsRegistry;
use crate::metrics::InvocationReport;
use crate::protocol::{DataRef, InvokeError, Request, RequestFrame, Response, ResponseFrame};
use crate::resilience::{NoBackoff, RetryBudget, RetryGate, RetryPolicy};
use crate::workflow::{FlowError, Workflow, WorkflowHandle, WorkflowReport, WorkflowRun};

/// Result of a successful invocation, as observed by the client.
#[derive(Debug)]
pub struct Invocation {
    /// Kernel output.
    pub output: Value,
    /// Server-side timing breakdown.
    pub report: InvocationReport,
    /// Client-observed latency (request serialization to response
    /// deserialization).
    pub latency: Duration,
}

/// Client-side retry behaviour for [`InvokeBuilder::send`].
///
/// Without a config the client is fire-once: every error surfaces to
/// the caller immediately. With one, transient overload-shaped errors
/// ([`InvokeError::Overloaded`], [`InvokeError::TimedOut`],
/// [`InvokeError::DeadlineExceeded`]) are retried up to `max_attempts`
/// total attempts. Each retry waits the [`RetryPolicy`] backoff or the
/// server's `retry_after` hint, **whichever is longer** — cooperative
/// backpressure: an overloaded server names its price and compliant
/// clients pay it.
///
/// Attach a shared [`RetryBudget`] to cap the retry-to-fresh ratio
/// across every call (and every client holding the same [`Rc`]): when
/// the bucket is dry the retry is abandoned instead, counted under the
/// client's `retries.budget_exhausted` metric. This is the client-side
/// half of the metastability defence — without it, synchronized retries
/// can hold effective load above capacity long after the trigger
/// clears.
#[derive(Debug, Clone)]
pub struct ClientRetryConfig {
    max_attempts: u32,
    backoff: Box<dyn RetryPolicy>,
    budget: Option<Rc<RetryBudget>>,
}

impl ClientRetryConfig {
    /// Creates a policy with `max_attempts` total attempts (clamped to
    /// at least 1), no backoff beyond server hints, and no budget.
    pub fn new(max_attempts: u32) -> Self {
        ClientRetryConfig {
            max_attempts: max_attempts.max(1),
            backoff: Box::new(NoBackoff),
            budget: None,
        }
    }

    /// Sets the wait policy between attempts (the server's `retry_after`
    /// hint still wins when it is longer).
    pub fn with_backoff(mut self, policy: impl RetryPolicy + 'static) -> Self {
        self.backoff = Box::new(policy);
        self
    }

    /// Gates every retry on `budget`; share one [`Rc`] across clients to
    /// cap a whole fleet's retry amplification.
    pub fn with_budget(mut self, budget: Rc<RetryBudget>) -> Self {
        self.budget = Some(budget);
        self
    }

    fn retryable(err: &InvokeError) -> bool {
        matches!(
            err,
            InvokeError::Overloaded { .. } | InvokeError::TimedOut | InvokeError::DeadlineExceeded
        )
    }
}

/// A connected KaaS client.
pub struct KaasClient {
    conn: Connection<RequestFrame, ResponseFrame>,
    serialization: SerializationProfile,
    shm: Option<SharedMemory>,
    tenant: Option<String>,
    id: u64,
    /// The `client{N}` trace track, built once.
    track: String,
    next_seq: u64,
    tracer: Option<SpanSink>,
    retry: Option<ClientRetryConfig>,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for KaasClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KaasClient")
            .field("id", &self.id)
            .field("next_seq", &self.next_seq)
            .field("out_of_band", &self.shm.is_some())
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

impl KaasClient {
    /// Connects to a KaaS server over a link with `profile` timing.
    ///
    /// The client draws a network-unique identity
    /// ([`Network::alloc_client_id`]) that namespaces its request and
    /// span ids, so several clients of one simulation never collide.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] when nothing listens at `addr`.
    pub async fn connect(
        net: &Network<RequestFrame, ResponseFrame>,
        addr: &str,
        profile: LinkProfile,
    ) -> Result<KaasClient, NetError> {
        let id = net.alloc_client_id();
        let conn = net.connect(addr, profile).await?;
        Ok(KaasClient {
            conn,
            serialization: SerializationProfile::python_pickle(),
            shm: None,
            tenant: None,
            id,
            track: format!("client{id}"),
            next_seq: 0,
            tracer: None,
            retry: None,
            metrics: MetricsRegistry::new(),
        })
    }

    /// This client's network-unique identity (the high half of its
    /// request ids and the number in its `client{N}` trace track).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests this client has sent so far (each batch member counts
    /// once). Useful in tests and benchmarks to demonstrate round-trip
    /// collapse: an N-step registered flow costs 1, not N.
    pub fn requests_sent(&self) -> u64 {
        self.next_seq
    }

    /// The fault-injection handle of this client's **sending** wire
    /// direction (request frames). Dropping frames here loses requests
    /// past the NIC; pair with [`InvokeBuilder::timeout`] so lost
    /// requests resolve as [`InvokeError::TimedOut`].
    pub fn link_fault(&self) -> LinkFault {
        self.conn.fault()
    }

    /// Uses `shm` for out-of-band transfer (same-host deployments only).
    pub fn with_shared_memory(mut self, shm: SharedMemory) -> Self {
        self.shm = Some(shm);
        self
    }

    /// Overrides the serializer model.
    pub fn with_serialization(mut self, serialization: SerializationProfile) -> Self {
        self.serialization = serialization;
        self
    }

    /// Tags every request with a tenant identity (enables per-tenant
    /// fairness quotas on the server).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Attaches a span sink: every traced invocation records a span tree
    /// (root `invoke` with `serialize`/`shm_put` → `roundtrip` →
    /// `deserialize`/`shm_take` children) on the `client{N}` track.
    /// Attach the same sink to the server config to see one invocation
    /// across every hop.
    pub fn with_tracer(mut self, tracer: SpanSink) -> Self {
        self.conn.set_tracer(tracer.clone(), self.track.clone());
        self.tracer = Some(tracer);
        self
    }

    /// Retries transient failures of every [`call`](KaasClient::call)
    /// under `retry` (see [`ClientRetryConfig`] for the semantics:
    /// `retry_after` hints honored, optional shared [`RetryBudget`]).
    pub fn with_retry(mut self, retry: ClientRetryConfig) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Client-local metrics: `retries.budget_exhausted` (a retry was
    /// abandoned because the [`RetryBudget`] ran dry), `hedges.sent`
    /// and `hedges.won` (see [`InvokeBuilder::hedge`]).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Starts building an invocation of `kernel`; finish with
    /// [`InvokeBuilder::send`].
    pub fn call(&mut self, kernel: &str) -> InvokeBuilder<'_> {
        InvokeBuilder {
            kernel: kernel.to_owned(),
            input: Input::Value(Value::Unit),
            opts: CallOpts::default(),
            hedge: None,
            client: self,
        }
    }

    /// Stores `value` in the server's object store and returns its
    /// content address, to be passed to later invocations with
    /// [`InvokeBuilder::arg_ref`]. The payload travels through shared
    /// memory when attached (the fast path), in-band otherwise;
    /// identical content deduplicates to the same ref server-side.
    ///
    /// # Errors
    ///
    /// Any transport-level [`InvokeError`].
    pub async fn put(&mut self, value: Value) -> Result<ObjectRef, InvokeError> {
        let oob = self.shm.is_some();
        let mut call = self.call(DATA_PUT_KERNEL).arg(value);
        if oob {
            call = call.out_of_band();
        }
        let inv = call.send().await?;
        ObjectRef::from_value(&inv.output).ok_or(InvokeError::BadHandle)
    }

    /// Fetches a stored object back from the server.
    ///
    /// # Errors
    ///
    /// [`InvokeError::BadHandle`] when `r` does not resolve.
    pub async fn get(&mut self, r: ObjectRef) -> Result<Value, InvokeError> {
        let oob = self.shm.is_some();
        let mut call = self.call(DATA_GET_KERNEL).arg(r.to_value());
        if oob {
            call = call.out_of_band();
        }
        Ok(call.send().await?.output)
    }

    /// Seals a stored object: declares it immutable, making it eligible
    /// for device-resident caching (repeat invocations referencing it
    /// skip the host→device copy once uploaded).
    ///
    /// # Errors
    ///
    /// [`InvokeError::BadHandle`] when `r` does not resolve.
    pub async fn seal(&mut self, r: ObjectRef) -> Result<(), InvokeError> {
        self.call(DATA_SEAL_KERNEL).arg(r.to_value()).send().await?;
        Ok(())
    }

    /// Pins a stored object: its device-resident copies are never
    /// evicted under memory pressure.
    ///
    /// # Errors
    ///
    /// [`InvokeError::BadHandle`] when `r` does not resolve.
    pub async fn pin(&mut self, r: ObjectRef) -> Result<(), InvokeError> {
        self.call(DATA_PIN_KERNEL).arg(r.to_value()).send().await?;
        Ok(())
    }

    /// Registers a guest kernel program under `tenant`, returning its
    /// versioned `tenant/name@vN` identity. Registration verifies the
    /// bytecode (abstract typing, stack depths, worst-case fuel bound)
    /// and instantiates the program once server-side (running its init,
    /// taking the snapshot image when the program opted in) — every
    /// re-register of the same name mints a fresh version; existing
    /// versions are never mutated, so in-flight work keeps the code it
    /// resolved.
    ///
    /// Invoke it like any kernel: `client.call("tenant/name")` runs the
    /// latest live version, `client.call(&full_name)` pins one.
    ///
    /// # Errors
    ///
    /// [`InvokeError::BadInput`] when the tenant identity or program
    /// fails validation; [`InvokeError::VerifyRejected`] when the
    /// verifier proves the program traps (type mismatch, stack
    /// underflow, no-return path), with the `seq@pc: [rule] …`
    /// diagnostics in the payload; [`InvokeError::GuestTrap`] /
    /// [`InvokeError::FuelExhausted`] when the init program faults;
    /// transport errors as usual.
    pub async fn register_kernel(
        &mut self,
        tenant: &str,
        program: &GuestProgram,
    ) -> Result<String, InvokeError> {
        let inv = self
            .call(CODE_REGISTER_KERNEL)
            .arg(crate::guest::encode_register(tenant, program))
            .send()
            .await?;
        match inv.output.payload() {
            Value::Text(full) => Ok(full.clone()),
            _ => Err(InvokeError::BadHandle),
        }
    }

    /// Lists `tenant`'s live guest kernel versions (`tenant/name@vN`).
    ///
    /// # Errors
    ///
    /// Transport errors as usual.
    pub async fn list_guest_kernels(&mut self, tenant: &str) -> Result<Vec<String>, InvokeError> {
        let inv = self
            .call(CODE_LIST_KERNEL)
            .arg(Value::Text(tenant.to_owned()))
            .send()
            .await?;
        match inv.output.payload() {
            Value::List(items) => Ok(items
                .iter()
                .filter_map(|v| match v {
                    Value::Text(t) => Some(t.clone()),
                    _ => None,
                })
                .collect()),
            _ => Err(InvokeError::BadHandle),
        }
    }

    /// Tombstones a guest kernel: `tenant/name@vN` removes one version,
    /// a bare `tenant/name` removes every live version. Returns how many
    /// versions were removed. Version ids are never reused.
    ///
    /// # Errors
    ///
    /// [`InvokeError::UnknownGuestKernel`] when nothing was live under
    /// that name; transport errors as usual.
    pub async fn remove_kernel(&mut self, name: &str) -> Result<u64, InvokeError> {
        let inv = self
            .call(CODE_REMOVE_KERNEL)
            .arg(Value::Text(name.to_owned()))
            .send()
            .await?;
        match inv.output.payload() {
            Value::U64(n) => Ok(*n),
            _ => Err(InvokeError::BadHandle),
        }
    }

    /// Registers a workflow DAG with the server, returning the handle
    /// that triggers it (see [`KaasClient::flow`]). Registration is a
    /// one-time cost: the DAG definition crosses the wire once, and
    /// every later trigger carries only the handle id plus the input.
    ///
    /// # Errors
    ///
    /// [`InvokeError::UnknownKernel`] when a step names a kernel the
    /// server does not serve; [`InvokeError::BadInput`] when the
    /// definition does not decode; transport errors as usual.
    pub async fn register_workflow(
        &mut self,
        workflow: &Workflow,
    ) -> Result<WorkflowHandle, InvokeError> {
        let inv = self
            .call(FLOW_REGISTER_KERNEL)
            .arg(workflow.to_value())
            .send()
            .await?;
        match inv.output.payload() {
            Value::U64(id) => Ok(WorkflowHandle::new(*id, workflow.name(), workflow.len())),
            _ => Err(InvokeError::BadHandle),
        }
    }

    /// Starts building a trigger of a registered workflow; finish with
    /// [`FlowBuilder::send`] (or [`FlowBuilder::send_ref`] to leave the
    /// final output server-resident). The whole DAG executes in **one**
    /// round trip: the server walks the steps itself, chaining
    /// intermediates device-to-device.
    pub fn flow(&mut self, handle: &WorkflowHandle) -> FlowBuilder<'_> {
        FlowBuilder {
            id: handle.id(),
            name: handle.name().to_owned(),
            input: Input::Value(Value::Unit),
            opts: CallOpts::default(),
            client: self,
        }
    }

    /// Opens a batch scope: calls added to it coalesce into **one**
    /// request frame with one frame header and one serialization pass —
    /// the wire-level analogue of "several invocations in the same
    /// simtime tick". Replies coalesce symmetrically; each member still
    /// succeeds or fails on its own. Finish with
    /// [`BatchBuilder::send`].
    pub fn batch(&mut self) -> BatchBuilder<'_> {
        BatchBuilder {
            client: self,
            calls: Vec::new(),
            timeout: None,
        }
    }

    /// The id the next request will draw: this client's identity in the
    /// high half, its sequence number in the low half.
    fn next_id(&self) -> u64 {
        (self.id << 32) | (self.next_seq & 0xffff_ffff)
    }

    /// Builds one request under a freshly drawn id, falling back to the
    /// client's tenant and making the relative deadline absolute.
    fn request(
        &mut self,
        kernel: String,
        data: DataRef,
        opts: &CallOpts,
        span: Option<SpanId>,
    ) -> Request {
        let id = self.next_id();
        self.next_seq += 1;
        Request {
            id,
            kernel,
            data,
            tenant: opts.tenant.clone().or_else(|| self.tenant.clone()),
            deadline: opts.deadline.map(|d| now() + d),
            span,
            reply_out_of_band: opts.out_of_band,
            reply_to_store: false,
        }
    }

    /// Opens the root span `name` of one call on this client's track
    /// (untraced when `trace` is off or no sink is attached).
    fn root(&self, trace: bool, name: &str, args: impl FnOnce(&mut OpenSpan)) -> RootSpan {
        RootSpan(self.tracer.as_ref().filter(|_| trace).map(|t| {
            let mut span = t.open(&self.track, name, None);
            args(&mut span);
            (t.clone(), span)
        }))
    }

    /// Stage 1: puts the input on the wire. A stored object travels as
    /// its 24-byte content address inside the frame (nothing to
    /// serialize or stage); a value is shm-put out-of-band or serialized
    /// in-band. Out-of-band mode needs the region even for ref inputs:
    /// the reply comes back through it.
    async fn stage(
        &self,
        input: Input,
        out_of_band: bool,
        root: &RootSpan,
    ) -> Result<DataRef, InvokeError> {
        let shm = match out_of_band {
            true => Some(self.shm.as_ref().ok_or(InvokeError::BadHandle)?),
            false => None,
        };
        let t0 = now();
        Ok(match (input, shm) {
            (Input::Ref(r), _) => DataRef::Object(r),
            (Input::Value(v), Some(shm)) => {
                let bytes = v.wire_bytes();
                let handle = shm.put(v, bytes).await;
                root.record(&self.track, "shm_put", t0);
                DataRef::OutOfBand(handle)
            }
            (Input::Value(v), None) => {
                sleep(self.serialization.time(v.wire_bytes())).await;
                root.record(&self.track, "serialize", t0);
                DataRef::InBand(v)
            }
        })
    }

    /// Stage 3: materializes a reply payload the way it came back.
    async fn materialize(&self, data: DataRef, root: &RootSpan) -> Result<Value, InvokeError> {
        let t0 = now();
        match data {
            DataRef::InBand(v) => {
                sleep(self.serialization.time(v.wire_bytes())).await;
                root.record(&self.track, "deserialize", t0);
                Ok(v)
            }
            DataRef::OutOfBand(h) => {
                let shm = self.shm.as_ref().ok_or(InvokeError::BadHandle)?;
                let v = shm.take(h).await.ok_or(InvokeError::BadHandle)?;
                root.record(&self.track, "shm_take", t0);
                Ok(v)
            }
            // Bare content addresses only answer `send_ref` triggers.
            DataRef::Object(_) => Err(InvokeError::BadHandle),
        }
    }

    /// Stage 2 for single requests (invoke and flow): one request
    /// frame, hedged when asked and the input is duplicable.
    async fn send_one(
        &mut self,
        kernel: String,
        data: DataRef,
        opts: &CallOpts,
        hedge: Option<Duration>,
        root: &RootSpan,
    ) -> Result<Response, InvokeError> {
        let reply = self
            .exchange(root, opts.timeout, |client, span| {
                let req = client.request(kernel, data, opts, span);
                // A hedge is a second, identical request under its own
                // id. Out-of-band inputs are consume-once shm handles,
                // so they never hedge; object refs are plain content
                // addresses and duplicate safely. The duplicate is
                // untraced: two server span trees under one roundtrip
                // span would overlap.
                let hedge = hedge.filter(|_| !opts.out_of_band).and_then(|delay| {
                    let data = match &req.data {
                        DataRef::InBand(v) => DataRef::InBand(v.clone()),
                        DataRef::Object(r) => DataRef::Object(*r),
                        DataRef::OutOfBand(_) => return None,
                    };
                    Some((client.request(req.kernel.clone(), data, opts, None), delay))
                });
                (RequestFrame::One(req), hedge)
            })
            .await?;
        match reply {
            ResponseFrame::One(resp) => Ok(resp),
            // Only batch frames get batch replies.
            ResponseFrame::Batch(_) => Err(InvokeError::BadHandle),
        }
    }

    /// The one wire exchange, under a `roundtrip` span: `frame` builds
    /// the request frame (plus an optional hedge and its delay) given
    /// that span's pre-allocated id, which a traced request carries so
    /// the server parents its spans under it. Awaits the reply whose
    /// first id matches the frame's first request. An armed hedge goes
    /// out when nothing matched within its delay, and a reply to either
    /// id wins; the loser's reply is dropped like any stale one. `limit`
    /// bounds the whole exchange, resolving as
    /// [`InvokeError::TimedOut`].
    async fn exchange(
        &mut self,
        root: &RootSpan,
        limit: Option<Duration>,
        frame: impl FnOnce(&mut Self, Option<SpanId>) -> (RequestFrame, Option<Hedge>),
    ) -> Result<ResponseFrame, InvokeError> {
        let rt = root.open(&self.track, "roundtrip");
        let span = rt.as_ref().map(OpenSpan::id);
        let (frame, hedge) = frame(self, span);
        let wire = self.exchange_unbounded(frame, span, hedge);
        let reply = match limit {
            Some(d) => timeout(d, wire).await.unwrap_or(Err(InvokeError::TimedOut)),
            None => wire.await,
        };
        if let Some(rt) = rt {
            rt.finish();
        }
        reply
    }

    async fn exchange_unbounded(
        &mut self,
        frame: RequestFrame,
        span: Option<SpanId>,
        hedge: Option<Hedge>,
    ) -> Result<ResponseFrame, InvokeError> {
        let first = match &frame {
            RequestFrame::One(req) => req.id,
            RequestFrame::Batch(reqs) => reqs[0].id,
        };
        self.send_frame(frame, span).await?;
        let mut hedge = hedge.map(|(req, delay)| (req, now() + delay));
        let mut hedge_id = None;
        loop {
            let frame = match &hedge {
                // Armed: wait for the primary, but only until the hedge
                // fires. The deadline is absolute so stale frames
                // draining through the loop cannot push it out.
                Some((_, fire_at)) => {
                    match timeout(fire_at.saturating_since(now()), self.conn.recv()).await {
                        Ok(frame) => frame,
                        Err(_) => {
                            let (req, _) = hedge.take().expect("armed hedge");
                            hedge_id = Some(req.id);
                            self.metrics.inc("hedges.sent");
                            self.send_frame(RequestFrame::One(req), None).await?;
                            continue;
                        }
                    }
                }
                None => self.conn.recv().await,
            };
            let body = frame.ok_or(InvokeError::Disconnected)?.body;
            let id = match &body {
                ResponseFrame::One(resp) => Some(resp.id),
                ResponseFrame::Batch(resps) => resps.first().map(|r| r.id),
            };
            match id {
                Some(id) if id == first => return Ok(body),
                Some(id) if Some(id) == hedge_id => {
                    self.metrics.inc("hedges.won");
                    return Ok(body);
                }
                // A reply to an older (abandoned) request or to a
                // timed-out batch: drop it.
                _ => {}
            }
        }
    }

    async fn send_frame(
        &mut self,
        frame: RequestFrame,
        span: Option<SpanId>,
    ) -> Result<(), InvokeError> {
        let bytes = frame.wire_bytes();
        self.conn
            .send_traced(frame, bytes, span)
            .await
            .map_err(|_| InvokeError::Disconnected)
    }

    /// One invocation attempt: stage, exchange (hedged if asked),
    /// materialize, all under one `invoke` root span.
    async fn invoke(
        &mut self,
        kernel: &str,
        input: Input,
        opts: &CallOpts,
        hedge: Option<Duration>,
    ) -> Result<Invocation, InvokeError> {
        let start = now();
        let id = self.next_id();
        let root = self.root(opts.trace, "invoke", |s| {
            s.push_arg("kernel", kernel);
            s.push_arg("request", id.to_string());
        });
        let out: Result<Invocation, InvokeError> = async {
            let data = self.stage(input, opts.out_of_band, &root).await?;
            let resp = self
                .send_one(kernel.to_owned(), data, opts, hedge, &root)
                .await?;
            let output = self.materialize(resp.result?, &root).await?;
            Ok(Invocation {
                output,
                report: resp.report.ok_or(InvokeError::Disconnected)?,
                latency: now() - start,
            })
        }
        .await;
        root.finish();
        out
    }

    /// One flow trigger up to its reply: the trigger envelope is staged
    /// and exchanged like any single request (a ref input travels inside
    /// the envelope — the payload itself stays server-side), and the
    /// reply splits into payload + per-step report.
    async fn trigger(
        &mut self,
        flow: u64,
        input: Input,
        opts: &CallOpts,
        flags: u64,
        root: &RootSpan,
    ) -> Result<(DataRef, WorkflowReport), FlowError> {
        let input = match input {
            Input::Value(v) => v,
            Input::Ref(r) => r.to_value(),
        };
        let trigger = Input::Value(encode_trigger(flow, flags, input));
        let data = self.stage(trigger, opts.out_of_band, root).await?;
        let resp = self
            .send_one(FLOW_RUN_KERNEL.to_owned(), data, opts, None, root)
            .await?;
        match resp.result {
            Ok(data) => Ok((data, resp.flow.ok_or(InvokeError::Disconnected)?)),
            Err(error) => Err(FlowError {
                error,
                partial: resp.flow.map(|f| f.steps).unwrap_or_default(),
            }),
        }
    }
}

/// A hedge request and the delay after which it goes out.
type Hedge = (Request, Duration);

/// The root span of one client call (empty when untraced). Each call
/// shape runs its whole body first and then finishes the root once, so
/// every exit path — error returns included — records it.
struct RootSpan(Option<(SpanSink, OpenSpan)>);

impl RootSpan {
    /// Records the finished stage `name`, from `start` until now.
    fn record(&self, track: &str, name: &str, start: SimTime) {
        if let Some((sink, root)) = &self.0 {
            sink.record(track, name, start, now(), Some(root.id()), vec![]);
        }
    }

    /// Opens the child span `name`; its caller finishes it.
    fn open(&self, track: &str, name: &str) -> Option<OpenSpan> {
        self.0
            .as_ref()
            .map(|(sink, root)| sink.open(track, name, Some(root.id())))
    }

    fn finish(self) {
        if let Some((_, root)) = self.0 {
            root.finish();
        }
    }
}

/// The options every call shape shares; each builder exposes the
/// setters that apply to it.
#[derive(Debug, Clone)]
struct CallOpts {
    tenant: Option<String>,
    deadline: Option<Duration>,
    timeout: Option<Duration>,
    trace: bool,
    out_of_band: bool,
}

impl Default for CallOpts {
    fn default() -> Self {
        CallOpts {
            tenant: None,
            deadline: None,
            timeout: None,
            trace: true,
            out_of_band: false,
        }
    }
}

/// A call's input: a value, or a stored object by content address.
#[derive(Debug, Clone)]
enum Input {
    Value(Value),
    Ref(ObjectRef),
}

/// A pending invocation under construction; create via
/// [`KaasClient::call`], dispatch with [`send`](InvokeBuilder::send).
#[must_use = "an invocation does nothing until .send() is awaited"]
#[derive(Debug)]
pub struct InvokeBuilder<'c> {
    client: &'c mut KaasClient,
    kernel: String,
    input: Input,
    opts: CallOpts,
    hedge: Option<Duration>,
}

impl<'c> InvokeBuilder<'c> {
    /// Sets the kernel input (default: [`Value::Unit`]).
    pub fn arg(mut self, input: Value) -> Self {
        self.input = Input::Value(input);
        self
    }

    /// Sets the kernel input to a stored object by content address
    /// (see [`KaasClient::put`]): only the 24-byte ref crosses the
    /// wire, and — once the object is sealed and uploaded — repeat
    /// invocations on the same device skip the host→device copy
    /// entirely. Overrides any previous [`arg`](InvokeBuilder::arg).
    pub fn arg_ref(mut self, r: ObjectRef) -> Self {
        self.input = Input::Ref(r);
        self
    }

    /// Overrides the client's tenant identity for this call only.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.opts.tenant = Some(tenant.into());
        self
    }

    /// Gives the server a deadline (relative to send time) for
    /// *starting* device work; requests still undispatched past it are
    /// shed with [`InvokeError::DeadlineExceeded`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Bounds the network round trip: if no response arrives within
    /// `timeout` of the request hitting the wire, the call resolves with
    /// [`InvokeError::TimedOut`]. This is the client-side recovery path
    /// for lost frames (link faults): without it a dropped request or
    /// response would block the caller forever.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.opts.timeout = Some(timeout);
        self
    }

    /// Opts this call in or out of span recording (default: on, a no-op
    /// unless a sink was attached via [`KaasClient::with_tracer`]).
    pub fn trace(mut self, trace: bool) -> Self {
        self.opts.trace = trace;
        self
    }

    /// Passes the input **out-of-band** through shared memory: only a
    /// small handle crosses the connection ("transferring larger data
    /// without copying over the network", §4.1), and the output comes
    /// back the same way. With [`arg_ref`](InvokeBuilder::arg_ref) the
    /// input is already just a content address, so this mode applies to
    /// the reply — pair them whenever the kernel's output is large.
    /// Requires [`KaasClient::with_shared_memory`].
    pub fn out_of_band(mut self) -> Self {
        self.opts.out_of_band = true;
        self
    }

    /// Hedges this call against tail latency: if no response arrives
    /// within `delay`, a duplicate request (its own id) is sent and the
    /// **first** response — original or hedge — wins. The loser keeps
    /// running server-side and its reply is discarded; `hedges.sent` /
    /// `hedges.won` on [`KaasClient::metrics_registry`] account for
    /// both halves. Ignored in [`out_of_band`](InvokeBuilder::out_of_band)
    /// mode, where the shm input handle is consume-once and cannot be
    /// duplicated.
    pub fn hedge(mut self, delay: Duration) -> Self {
        self.hedge = Some(delay);
        self
    }

    /// Runs the invocation: serializes (or shm-puts) the input, does the
    /// round trip, and materializes the output. Under
    /// [`KaasClient::with_retry`], transient failures replay the whole
    /// sequence (honoring `retry_after` hints and the retry budget).
    ///
    /// # Errors
    ///
    /// Any [`InvokeError`] the server reports;
    /// [`InvokeError::Disconnected`] if the connection closed;
    /// [`InvokeError::BadHandle`] in out-of-band mode without an
    /// attached shared-memory region.
    pub async fn send(self) -> Result<Invocation, InvokeError> {
        let InvokeBuilder {
            client,
            kernel,
            input,
            opts,
            hedge,
        } = self;
        let retry = client.retry.clone();
        let gate = RetryGate::fresh(
            retry.as_ref().map_or(1, |r| r.max_attempts),
            retry.as_ref().and_then(|r| r.budget.as_deref()),
        );
        // Deterministic jitter key: the id this call's first attempt
        // will draw. Stable across attempts so backoff policies see one
        // request, not N.
        let retry_key = client.next_id();
        let backoff = |attempt| {
            retry
                .as_ref()
                .map_or(Duration::ZERO, |r| r.backoff.backoff(attempt, retry_key))
        };
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match client.invoke(&kernel, input.clone(), &opts, hedge).await {
                Ok(inv) => return Ok(inv),
                Err(e) => e,
            };
            let retryable = ClientRetryConfig::retryable(&err);
            if !gate
                .retry(attempt, &err, retryable, backoff, &client.metrics)
                .await
            {
                return Err(err);
            }
        }
    }
}

/// A pending trigger of a registered workflow; create via
/// [`KaasClient::flow`], dispatch with [`send`](FlowBuilder::send).
#[must_use = "a flow trigger does nothing until .send() is awaited"]
#[derive(Debug)]
pub struct FlowBuilder<'c> {
    client: &'c mut KaasClient,
    id: u64,
    name: String,
    input: Input,
    opts: CallOpts,
}

impl<'c> FlowBuilder<'c> {
    /// Sets the trigger input fed to the flow's source steps (default:
    /// [`Value::Unit`]).
    pub fn input(mut self, input: Value) -> Self {
        self.input = Input::Value(input);
        self
    }

    /// Feeds the flow a stored object by content address (see
    /// [`KaasClient::put`]): only the 24-byte ref crosses the wire, and
    /// the source steps chain off the resident object like any
    /// intermediate. Overrides any previous
    /// [`input`](FlowBuilder::input).
    pub fn input_ref(mut self, r: ObjectRef) -> Self {
        self.input = Input::Ref(r);
        self
    }

    /// Overrides the client's tenant identity for this run only.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.opts.tenant = Some(tenant.into());
        self
    }

    /// Gives every step of the run a server-side start deadline
    /// (relative to send time); a step still undispatched past it sheds
    /// with [`InvokeError::DeadlineExceeded`], aborting the flow.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Bounds the network round trip, like [`InvokeBuilder::timeout`].
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.opts.timeout = Some(timeout);
        self
    }

    /// Opts this run in or out of span recording (default: on).
    pub fn trace(mut self, trace: bool) -> Self {
        self.opts.trace = trace;
        self
    }

    /// Ships the trigger (and the final output) through shared memory.
    /// Requires [`KaasClient::with_shared_memory`].
    pub fn out_of_band(mut self) -> Self {
        self.opts.out_of_band = true;
        self
    }

    /// Triggers the run and materializes the final output: one round
    /// trip for the whole DAG.
    ///
    /// # Errors
    ///
    /// [`FlowError`] wrapping the aborting step's [`InvokeError`] (or a
    /// transport error), with the reports of the steps that did
    /// complete as partial results. A forged or expired handle fails
    /// with [`InvokeError::UnknownFlow`], never a panic.
    pub async fn send(self) -> Result<WorkflowRun, FlowError> {
        let start = now();
        let root = self.root();
        let FlowBuilder {
            client,
            id,
            input,
            opts,
            ..
        } = self;
        let out: Result<WorkflowRun, FlowError> = async {
            let (data, report) = client.trigger(id, input, &opts, 0, &root).await?;
            let output = client.materialize(data, &root).await?;
            Ok(WorkflowRun {
                output,
                report,
                latency: now() - start,
                round_trips: 1,
            })
        }
        .await;
        root.finish();
        out
    }

    /// Triggers the run but leaves the final output server-resident,
    /// returning its content address plus the per-step report. The next
    /// hop — another flow via [`FlowBuilder::input_ref`], a
    /// [`get`](KaasClient::get), a federated segment handoff — chains
    /// off the ref without the value ever crossing this wire.
    ///
    /// # Errors
    ///
    /// As [`send`](FlowBuilder::send).
    pub async fn send_ref(self) -> Result<(ObjectRef, WorkflowReport), FlowError> {
        let root = self.root();
        let FlowBuilder {
            client,
            id,
            input,
            opts,
            ..
        } = self;
        let out = client
            .trigger(id, input, &opts, FLOW_REPLY_REF, &root)
            .await;
        root.finish();
        match out? {
            (DataRef::Object(r), report) => Ok((r, report)),
            _ => Err(FlowError::from(InvokeError::BadHandle)),
        }
    }

    fn root(&self) -> RootSpan {
        self.client.root(self.opts.trace, "flow", |s| {
            s.push_arg("flow", self.id.to_string());
            s.push_arg("name", &self.name);
        })
    }
}

/// One member of a batched invocation (see [`KaasClient::batch`]):
/// kernel name, input, and per-member overrides. Built standalone so a
/// batch can be assembled before the client is borrowed.
#[derive(Debug, Clone)]
pub struct BatchCall {
    kernel: String,
    input: Input,
    opts: CallOpts,
}

impl BatchCall {
    /// Starts a batch member invoking `kernel` (input defaults to
    /// [`Value::Unit`]).
    pub fn new(kernel: &str) -> Self {
        BatchCall {
            kernel: kernel.to_owned(),
            input: Input::Value(Value::Unit),
            opts: CallOpts::default(),
        }
    }

    /// Sets the member's in-band input.
    pub fn arg(mut self, input: Value) -> Self {
        self.input = Input::Value(input);
        self
    }

    /// Sets the member's input to a stored object by content address
    /// (overrides any previous [`arg`](BatchCall::arg)).
    pub fn arg_ref(mut self, r: ObjectRef) -> Self {
        self.input = Input::Ref(r);
        self
    }

    /// Overrides the client's tenant identity for this member.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.opts.tenant = Some(tenant.into());
        self
    }

    /// Gives this member a server-side start deadline (relative to
    /// send time), like [`InvokeBuilder::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }
}

/// A batch of invocations under construction; create via
/// [`KaasClient::batch`], dispatch with [`send`](BatchBuilder::send).
///
/// All members ride **one** request frame: one [`FRAME_BYTES`](crate::FRAME_BYTES)
/// header plus a small per-member sub-header, and
/// one serialization pass over the concatenated in-band payloads — the
/// §4.1 per-call wire costs are paid once per batch instead of once per
/// call. Replies coalesce symmetrically. Server-side, members execute
/// concurrently and independently: retry, circuit breaking, and
/// admission all see ordinary individual invocations.
#[must_use = "a batch does nothing until .send() is awaited"]
#[derive(Debug)]
pub struct BatchBuilder<'c> {
    client: &'c mut KaasClient,
    calls: Vec<BatchCall>,
    timeout: Option<Duration>,
}

impl BatchBuilder<'_> {
    /// Appends one member.
    pub fn call(mut self, call: BatchCall) -> Self {
        self.calls.push(call);
        self
    }

    /// Bounds the whole frame's round trip: if the coalesced reply does
    /// not arrive in time, **every** member resolves individually as
    /// [`InvokeError::TimedOut`] (the outer result stays `Ok`).
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Members added so far.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether the batch is still empty.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Runs the batch: one coalesced serialization, one round trip, one
    /// coalesced deserialization. Returns per-member results in call
    /// order — members succeed or fail independently.
    ///
    /// # Errors
    ///
    /// The outer `Err` is transport-level only
    /// ([`InvokeError::Disconnected`]); everything else — including a
    /// frame-level timeout — lands in the per-member results.
    pub async fn send(self) -> Result<Vec<Result<Invocation, InvokeError>>, InvokeError> {
        let BatchBuilder {
            client,
            calls,
            timeout,
        } = self;
        if calls.is_empty() {
            return Ok(Vec::new());
        }
        let n = calls.len();
        let start = now();
        let root = client.root(true, "batch", |s| s.push_arg("members", n.to_string()));
        let out = async {
            // One serialization pass covers every in-band member payload
            // (object refs travel as part of the frame itself).
            let t0 = now();
            let in_band: u64 = calls
                .iter()
                .map(|c| match &c.input {
                    Input::Value(v) => v.wire_bytes(),
                    Input::Ref(_) => 0,
                })
                .sum();
            if in_band > 0 {
                sleep(client.serialization.time(in_band)).await;
            }
            root.record(&client.track, "serialize", t0);

            // Members carry no span parent: they execute concurrently
            // server-side, and concurrent siblings under one parent would
            // break the trace tiling contract. The batch records its own
            // client-side span tree instead.
            let reply = client
                .exchange(&root, timeout, |client, _| {
                    let reqs = calls
                        .into_iter()
                        .map(|c| {
                            let data = match c.input {
                                Input::Value(v) => DataRef::InBand(v),
                                Input::Ref(r) => DataRef::Object(r),
                            };
                            client.request(c.kernel, data, &c.opts, None)
                        })
                        .collect();
                    (RequestFrame::Batch(reqs), None)
                })
                .await;
            let resps = match reply {
                Ok(ResponseFrame::Batch(resps)) => resps,
                // The frame (or its reply) is lost past the deadline:
                // the members failed individually.
                Err(InvokeError::TimedOut) => {
                    return Ok((0..n).map(|_| Err(InvokeError::TimedOut)).collect());
                }
                Err(e) => return Err(e),
                // Batch frames always get batch replies.
                Ok(ResponseFrame::One(_)) => return Err(InvokeError::BadHandle),
            };

            // One coalesced deserialization pass over the in-band replies.
            let t2 = now();
            let reply_bytes: u64 = resps
                .iter()
                .filter_map(|r| match &r.result {
                    Ok(DataRef::InBand(v)) => Some(v.wire_bytes()),
                    _ => None,
                })
                .sum();
            if reply_bytes > 0 {
                sleep(client.serialization.time(reply_bytes)).await;
            }
            root.record(&client.track, "deserialize", t2);

            let latency = now() - start;
            Ok(resps
                .into_iter()
                .map(|resp| {
                    let output = match resp.result? {
                        DataRef::InBand(v) => v,
                        // Batch members never request out-of-band replies.
                        _ => return Err(InvokeError::BadHandle),
                    };
                    Ok(Invocation {
                        output,
                        report: resp.report.ok_or(InvokeError::Disconnected)?,
                        latency,
                    })
                })
                .collect())
        }
        .await;
        root.finish();
        out
    }
}
