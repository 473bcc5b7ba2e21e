//! The server-side dataflow engine: registered workflow DAGs executed
//! device-to-device.
//!
//! Clients register a [`Workflow`] once through the reserved
//! `_kaas/flow/register` control kernel and trigger it with a single
//! `_kaas/flow/run` request. The server walks the DAG itself: as each
//! step completes, its output is sealed into the object store, admitted
//! to the device that produced it, and handed to its consumers as a
//! device-resident [`ObjectRef`] — intermediates never cross the wire,
//! and a consumer placed on the producer's device serves the input as a
//! cache hit with **zero `copy_in`**. Ready steps are enqueued into the
//! ordinary sharded dispatcher as their dependencies resolve, so flows
//! and standalone invocations share admission, placement, retry, and
//! metrics.
//!
//! Every intermediate carries a flow-lifetime pin (it cannot be evicted
//! or garbage-collected mid-flow); on completion — success or abort —
//! the executor releases every pin and removes the intermediates it
//! created, keeping only the final output (the client may still
//! [`get`](crate::KaasClient::get) it or feed it to another flow). The
//! sim-sanitizer's shutdown sweep verifies no flow is active and no
//! intermediate pin survives when the server drops.
//!
//! This closes the paper's §6 open problem: the client-driven loop paid
//! one round trip per step and shipped every intermediate through the
//! client; a registered flow pays one round trip total.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use kaas_kernels::Value;
use kaas_simtime::channel::{self, Sender};
use kaas_simtime::{now, sleep, spawn, SimTime, SpanId};

use crate::dataplane::ObjectRef;
use crate::metrics::InvocationReport;
use crate::protocol::{DataRef, InvokeError, Request, Response};
use crate::server::KaasServer;
use crate::workflow::{StepReport, Workflow, WorkflowReport};

/// Prefix of the reserved flow control kernels.
pub const FLOW_KERNEL_PREFIX: &str = "_kaas/flow/";
/// Control kernel registering a workflow DAG, answering with its id.
pub const FLOW_REGISTER_KERNEL: &str = "_kaas/flow/register";
/// Control kernel triggering one run of a registered workflow.
pub const FLOW_RUN_KERNEL: &str = "_kaas/flow/run";

/// Trigger flag: reply with the final output's [`ObjectRef`] instead of
/// the materialized value (federated segment handoff).
pub(crate) const FLOW_REPLY_REF: u64 = 1;

const FLOW_RUN_TAG: &str = "kaas.flow.run";

/// Encodes a flow trigger for the request payload channel.
pub(crate) fn encode_trigger(id: u64, flags: u64, input: Value) -> Value {
    Value::List(vec![
        Value::Text(FLOW_RUN_TAG.to_owned()),
        Value::U64(id),
        Value::U64(flags),
        input,
    ])
}

/// Decodes a flow trigger: `(flow id, flags, trigger input)`.
pub(crate) fn decode_trigger(v: &Value) -> Option<(u64, u64, Value)> {
    match v.payload() {
        Value::List(items) => match items.as_slice() {
            [Value::Text(tag), Value::U64(id), Value::U64(flags), input] if tag == FLOW_RUN_TAG => {
                Some((*id, *flags, input.clone()))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Per-server flow registry and run accounting.
pub(crate) struct FlowState {
    /// Registered DAGs by server-assigned id.
    flows: RefCell<BTreeMap<u64, Rc<Workflow>>>,
    /// Next registration id (ids start at 1 so 0 is never valid).
    next_id: Cell<u64>,
    /// Next run number (trace-track and request-id namespace).
    next_run: Cell<u64>,
    /// Flow runs currently executing.
    active: Cell<usize>,
    /// Flow-lifetime pins currently outstanding across all runs; the
    /// sanitizer requires 0 at server drop (completed flows release
    /// every intermediate ref).
    intermediates: Cell<usize>,
}

impl std::fmt::Debug for FlowState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowState")
            .field("registered", &self.flows.borrow().len())
            .field("active", &self.active.get())
            .field("intermediates", &self.intermediates.get())
            .finish()
    }
}

impl FlowState {
    pub(crate) fn new() -> Self {
        FlowState {
            flows: RefCell::new(BTreeMap::new()),
            next_id: Cell::new(1),
            next_run: Cell::new(1),
            active: Cell::new(0),
            intermediates: Cell::new(0),
        }
    }

    fn register(&self, wf: Workflow) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        self.flows.borrow_mut().insert(id, Rc::new(wf));
        id
    }

    fn get(&self, id: u64) -> Option<Rc<Workflow>> {
        self.flows.borrow().get(&id).cloned()
    }

    /// Flow runs currently executing (sanitizer: 0 at server drop).
    #[cfg(feature = "sim-sanitizer")]
    pub(crate) fn active(&self) -> usize {
        self.active.get()
    }

    /// Outstanding flow-lifetime intermediate pins (sanitizer: 0 at
    /// server drop).
    #[cfg(feature = "sim-sanitizer")]
    pub(crate) fn intermediates_live(&self) -> usize {
        self.intermediates.get()
    }
}

/// A step's staged input, rebuilt into a [`DataRef`] per attempt.
enum StepInput {
    /// A device-resident content address (zero-copy chaining).
    Obj(ObjectRef),
    /// Inline bytes (the consumer pays deserialization).
    Val(Value),
}

/// What one step task reports back to the executor loop.
type StepDone = (usize, u32, Result<(Value, InvocationReport), InvokeError>);

impl KaasServer {
    /// Serves one `_kaas/flow/*` control request (register or run),
    /// shaping the response and recording error metrics exactly like
    /// [`handle`](KaasServer::handle) does for ordinary kernels.
    pub(crate) async fn flow_frame(&self, req: Request) -> Response {
        let id = req.id;
        match self.flow_inner(req).await {
            Ok((data, report, flow)) => Response {
                id,
                result: Ok(data),
                report: Some(report),
                flow,
            },
            Err((e, flow)) => {
                let m = &self.inner().metrics_registry;
                m.inc("errors");
                m.inc_fmt(format_args!("errors.{}", e.kind()));
                Response {
                    id,
                    result: Err(e),
                    report: None,
                    flow,
                }
            }
        }
    }

    async fn flow_inner(
        &self,
        req: Request,
    ) -> Result<
        (DataRef, InvocationReport, Option<WorkflowReport>),
        (InvokeError, Option<WorkflowReport>),
    > {
        let inner = self.inner();
        let oob = matches!(req.data, DataRef::OutOfBand(_)) || req.reply_out_of_band;
        let input = match req.data {
            DataRef::InBand(v) => {
                sleep(inner.config.serialization.time(v.wire_bytes())).await;
                v
            }
            DataRef::OutOfBand(h) => inner
                .shm
                .take(h)
                .await
                .ok_or((InvokeError::BadHandle, None))?,
            DataRef::Object(r) => inner
                .dataplane
                .resolve(&r)
                .ok_or((InvokeError::BadHandle, None))?,
        };
        let m = &inner.metrics_registry;
        let op = req.kernel.strip_prefix(FLOW_KERNEL_PREFIX).unwrap_or("");
        match op {
            "register" => {
                let wf = Workflow::from_value(&input).ok_or((
                    InvokeError::BadInput("expected a workflow definition".into()),
                    None,
                ))?;
                // Fail registration, not a later trigger, when a step
                // names a kernel this site does not serve.
                for step in wf.steps() {
                    if inner.registry.lookup(step.kernel()).is_none() {
                        return Err((InvokeError::UnknownKernel(step.kernel().to_owned()), None));
                    }
                }
                let flow_id = inner.flows.register(wf);
                m.inc("workflow.registered");
                let output = Value::U64(flow_id);
                let data = self.shape_flow_reply(output, oob).await;
                Ok((data, self.control_report(FLOW_REGISTER_KERNEL), None))
            }
            "run" => {
                let (flow_id, flags, trigger) = decode_trigger(&input).ok_or((
                    InvokeError::BadInput("expected a flow trigger".into()),
                    None,
                ))?;
                let wf = inner
                    .flows
                    .get(flow_id)
                    .ok_or((InvokeError::UnknownFlow(flow_id.to_string()), None))?;
                let t0 = now();
                match self
                    .run_flow(flow_id, &wf, trigger, req.span, req.tenant, req.deadline)
                    .await
                {
                    Ok((final_ref, report)) => {
                        m.inc("workflow.runs");
                        m.add("workflow.steps", report.steps.len() as u64);
                        m.add("workflow.chained_hits", report.chained_hits() as u64);
                        m.observe("workflow.latency", (now() - t0).as_secs_f64());
                        let data = if flags & FLOW_REPLY_REF != 0 {
                            // Segment handoff: only the 24-byte address
                            // travels; the value stays server-side.
                            DataRef::Object(final_ref)
                        } else {
                            let output = inner
                                .dataplane
                                .resolve(&final_ref)
                                .ok_or((InvokeError::BadHandle, Some(report.clone())))?;
                            self.shape_flow_reply(output, oob).await
                        };
                        Ok((data, self.control_report(FLOW_RUN_KERNEL), Some(report)))
                    }
                    Err((e, report)) => {
                        m.inc("workflow.failures");
                        Err((e, Some(report)))
                    }
                }
            }
            _ => Err((InvokeError::UnknownKernel(req.kernel.clone()), None)),
        }
    }

    /// Reply shaping for flow control responses: the same transport
    /// costs as any reply (serialize in-band, memcpy through shm).
    async fn shape_flow_reply(&self, output: Value, oob: bool) -> DataRef {
        let inner = self.inner();
        if oob {
            let bytes = output.wire_bytes();
            DataRef::OutOfBand(inner.shm.put(output, bytes).await)
        } else {
            sleep(inner.config.serialization.time(output.wire_bytes())).await;
            DataRef::InBand(output)
        }
    }

    /// Executes one run of a registered workflow: walks the DAG,
    /// enqueuing ready steps into the dispatcher as dependencies
    /// resolve, chaining intermediates device-resident. Returns the
    /// sink output's ref plus the per-step report; on failure the
    /// report carries the steps that did run (partial results).
    async fn run_flow(
        &self,
        flow_id: u64,
        wf: &Rc<Workflow>,
        input: Value,
        parent: Option<SpanId>,
        tenant: Option<String>,
        deadline: Option<SimTime>,
    ) -> Result<(ObjectRef, WorkflowReport), (InvokeError, WorkflowReport)> {
        let inner = self.inner();
        let flows = &inner.flows;
        let dp = &inner.dataplane;
        let m = &inner.metrics_registry;
        let run_no = flows.next_run.get();
        flows.next_run.set(run_no + 1);
        flows.active.set(flows.active.get() + 1);
        m.set_gauge("workflow.active", flows.active.get() as f64);
        let tracer = inner.config.tracer.clone();
        let track = format!("flow{run_no}");
        let root = tracer.as_ref().map(|t| {
            let mut s = t.open(&track, "workflow", parent);
            s.push_arg("flow", flow_id.to_string());
            s.push_arg("name", wf.name());
            s
        });
        let root_id = root.as_ref().map(|s| s.id());
        // Linear chains run strictly one step at a time, so their step
        // spans tile on the flow's own track; concurrent DAG branches
        // get a sub-track each (cross-track parenting is exempt from
        // the tiling contract, same as client → server).
        let linear = wf.is_linear();

        // Every object the flow pinned: `(hash, created)` — created
        // entries the flow introduced are garbage-collected on
        // completion (minus the final output).
        let mut tracked: Vec<(u64, bool)> = Vec::new();

        // Stage the trigger input as a sealed store object so source
        // steps consume it exactly like any chained intermediate. A
        // trigger that is already a content address (the client `put`
        // the input earlier, or a previous segment produced it) is used
        // directly after a resolve check.
        let staged = match ObjectRef::from_value(&input) {
            Some(r) => {
                if dp.resolve(&r).is_none() {
                    flows.active.set(flows.active.get() - 1);
                    m.set_gauge("workflow.active", flows.active.get() as f64);
                    if let Some(root) = root {
                        root.finish();
                    }
                    return Err((
                        InvokeError::BadHandle,
                        WorkflowReport {
                            flow: flow_id,
                            name: wf.name().to_owned(),
                            steps: Vec::new(),
                        },
                    ));
                }
                dp.seal(r.hash);
                (r, false)
            }
            None => {
                let (r, created) = dp.store().put_tracked(input);
                dp.seal(r.hash);
                (r, created)
            }
        };
        let input_ref = staged.0;
        dp.flow_pin(input_ref.hash);
        tracked.push((staged.0.hash, staged.1));
        flows.intermediates.set(flows.intermediates.get() + 1);
        m.set_gauge(
            "workflow.intermediates_live",
            flows.intermediates.get() as f64,
        );

        let steps = wf.steps();
        let n = steps.len();
        let budget = wf.step_attempts();
        let mut pending: Vec<usize> = steps.iter().map(|s| s.inputs().len()).collect();
        let mut spawned = vec![false; n];
        let mut chained_possible = vec![false; n];
        let mut refs: Vec<Option<ObjectRef>> = vec![None; n];
        let mut step_reports: Vec<Option<StepReport>> = vec![None; n];
        let mut failure: Option<InvokeError> = None;
        let mut in_flight = 0usize;
        let (done_tx, mut done_rx) = channel::unbounded::<StepDone>();

        // Launches every not-yet-spawned step whose dependencies have
        // all resolved. Declared as a macro-free inline loop so the
        // borrow of `tracked` (fan-in staging) stays local.
        let launch_ready = |pending: &Vec<usize>,
                            spawned: &mut Vec<bool>,
                            chained_possible: &mut Vec<bool>,
                            refs: &Vec<Option<ObjectRef>>,
                            tracked: &mut Vec<(u64, bool)>,
                            in_flight: &mut usize,
                            failure: &mut Option<InvokeError>,
                            step_reports: &mut Vec<Option<StepReport>>| {
            for i in 0..n {
                if spawned[i] || pending[i] > 0 || failure.is_some() {
                    continue;
                }
                spawned[i] = true;
                let edges = steps[i].inputs();
                let staged: Result<StepInput, InvokeError> = if edges.is_empty() {
                    Ok(StepInput::Obj(input_ref))
                } else if edges.len() == 1 {
                    let dep = refs[edges[0].from.index()].expect("dependency resolved");
                    match edges[0].transfer {
                        crate::workflow::EdgeTransfer::Resident => Ok(StepInput::Obj(dep)),
                        crate::workflow::EdgeTransfer::Inline => dp
                            .resolve(&dep)
                            .map(StepInput::Val)
                            .ok_or(InvokeError::BadHandle),
                    }
                } else {
                    // Fan-in: the kernel receives a list of its inputs
                    // in edge order. All-inline joins travel in-band;
                    // otherwise the combined object is staged in the
                    // store and chained by ref like any intermediate.
                    let vals: Result<Vec<Value>, InvokeError> = edges
                        .iter()
                        .map(|e| {
                            let dep = refs[e.from.index()].expect("dependency resolved");
                            dp.resolve(&dep).ok_or(InvokeError::BadHandle)
                        })
                        .collect();
                    match vals {
                        Err(e) => Err(e),
                        Ok(vals) => {
                            let combined = Value::List(vals);
                            if edges
                                .iter()
                                .all(|e| e.transfer == crate::workflow::EdgeTransfer::Inline)
                            {
                                Ok(StepInput::Val(combined))
                            } else {
                                let (r, created) = dp.store().put_tracked(combined);
                                dp.seal(r.hash);
                                dp.flow_pin(r.hash);
                                tracked.push((r.hash, created));
                                flows.intermediates.set(flows.intermediates.get() + 1);
                                m.set_gauge(
                                    "workflow.intermediates_live",
                                    flows.intermediates.get() as f64,
                                );
                                Ok(StepInput::Obj(r))
                            }
                        }
                    }
                };
                match staged {
                    Ok(data) => {
                        chained_possible[i] =
                            !edges.is_empty() && matches!(data, StepInput::Obj(_));
                        let step_track = if linear {
                            track.clone()
                        } else {
                            format!("{track}.s{i}")
                        };
                        self.spawn_step(
                            i,
                            steps[i].kernel().to_owned(),
                            data,
                            budget,
                            tenant.clone(),
                            deadline,
                            run_no,
                            step_track,
                            root_id,
                            done_tx.clone(),
                        );
                        *in_flight += 1;
                    }
                    Err(e) => {
                        step_reports[i] = Some(StepReport {
                            step: i,
                            kernel: steps[i].kernel().to_owned(),
                            attempts: 0,
                            chained: false,
                            error: Some(e.clone()),
                            report: None,
                        });
                        *failure = Some(e);
                    }
                }
            }
        };

        launch_ready(
            &pending,
            &mut spawned,
            &mut chained_possible,
            &refs,
            &mut tracked,
            &mut in_flight,
            &mut failure,
            &mut step_reports,
        );

        // Drain until every launched step reported back. On failure we
        // stop launching but still drain the in-flight steps, so no
        // claim, permit, or pin outlives the run.
        while in_flight > 0 {
            let Some((i, attempts, outcome)) = done_rx.recv().await else {
                break;
            };
            in_flight -= 1;
            match outcome {
                Ok((output, report)) => {
                    let chained = chained_possible[i] && report.copy_in == Duration::ZERO;
                    let (r, created) = dp.store().put_tracked(output);
                    dp.seal(r.hash);
                    dp.flow_pin(r.hash);
                    tracked.push((r.hash, created));
                    flows.intermediates.set(flows.intermediates.get() + 1);
                    m.set_gauge(
                        "workflow.intermediates_live",
                        flows.intermediates.get() as f64,
                    );
                    // The output was born in the producing device's
                    // memory: record the residency (no upload happens —
                    // this is bookkeeping, not a copy). A full device
                    // simply skips the record; consumers re-upload.
                    if !dp.is_resident(report.device, r.hash) {
                        if let Ok(evicted) = dp.admit(report.device, &r) {
                            m.add("dataplane.evictions", evicted.len() as u64);
                        }
                    }
                    refs[i] = Some(r);
                    step_reports[i] = Some(StepReport {
                        step: i,
                        kernel: steps[i].kernel().to_owned(),
                        attempts,
                        chained,
                        error: None,
                        report: Some(report),
                    });
                    for (j, step) in steps.iter().enumerate() {
                        for edge in step.inputs() {
                            if edge.from.index() == i {
                                pending[j] -= 1;
                            }
                        }
                        let _ = step;
                        let _ = j;
                    }
                    launch_ready(
                        &pending,
                        &mut spawned,
                        &mut chained_possible,
                        &refs,
                        &mut tracked,
                        &mut in_flight,
                        &mut failure,
                        &mut step_reports,
                    );
                }
                Err(e) => {
                    step_reports[i] = Some(StepReport {
                        step: i,
                        kernel: steps[i].kernel().to_owned(),
                        attempts,
                        chained: false,
                        error: Some(e.clone()),
                        report: None,
                    });
                    if failure.is_none() {
                        failure = Some(e);
                    }
                }
            }
        }
        drop(done_tx);

        let sink = wf.sink();
        let result = match &failure {
            None => Ok(refs[sink].expect("sink completed on the success path")),
            Some(e) => Err(e.clone()),
        };
        let final_hash = result.as_ref().ok().map(|r| r.hash);

        // GC: release every flow pin; drop the intermediates this run
        // created (dedup'd content and the final output stay — the
        // former is shared, the latter is the client's result).
        for (hash, created) in tracked.drain(..) {
            let left = dp.flow_unpin(hash);
            flows.intermediates.set(flows.intermediates.get() - 1);
            if created && left == 0 && Some(hash) != final_hash {
                dp.remove(hash);
            }
        }
        m.set_gauge(
            "workflow.intermediates_live",
            flows.intermediates.get() as f64,
        );
        flows.active.set(flows.active.get() - 1);
        m.set_gauge("workflow.active", flows.active.get() as f64);
        if let Some(root) = root {
            root.finish();
        }

        let report = WorkflowReport {
            flow: flow_id,
            name: wf.name().to_owned(),
            steps: step_reports.into_iter().flatten().collect(),
        };
        match result {
            Ok(r) => Ok((r, report)),
            Err(e) => Err((e, report)),
        }
    }

    /// Spawns one step as a simtime task: builds the request, walks the
    /// ordinary dispatch path (admission → shards → placement →
    /// execute) with `reply_to_store` set, retries transient failures
    /// up to the flow's per-step budget, and reports back on `done`.
    #[allow(clippy::too_many_arguments)]
    fn spawn_step(
        &self,
        idx: usize,
        kernel: String,
        input: StepInput,
        budget: u32,
        tenant: Option<String>,
        deadline: Option<SimTime>,
        run_no: u64,
        step_track: String,
        root_span: Option<SpanId>,
        done: Sender<StepDone>,
    ) {
        let server = self.clone();
        let tracer = self.inner().config.tracer.clone();
        spawn(async move {
            let span = tracer.as_ref().map(|t| {
                let mut s = t.open(&step_track, "step", root_span);
                s.push_arg("kernel", &kernel);
                s.push_arg("step", idx.to_string());
                s
            });
            let span_id = span.as_ref().map(|s| s.id());
            // Each step launch is one fresh request accruing retry
            // tokens; the retries below spend them.
            if let Some(b) = &server.inner().retry_budget {
                b.note_fresh();
            }
            let mut attempts = 0u32;
            let outcome = loop {
                attempts += 1;
                let data = match &input {
                    StepInput::Obj(r) => DataRef::Object(*r),
                    StepInput::Val(v) => DataRef::InBand(v.clone()),
                };
                let req = Request {
                    // Internal correlation id: the flow-step namespace
                    // (high bit) never collides with client ids.
                    id: 0x8000_0000_0000_0000 | (run_no << 16) | idx as u64,
                    kernel: kernel.clone(),
                    data,
                    tenant: tenant.clone(),
                    deadline,
                    span: span_id,
                    reply_out_of_band: false,
                    reply_to_store: true,
                };
                match server.handle_inner(req).await {
                    Ok((DataRef::InBand(v), report)) => break Ok((v, report)),
                    // `reply_to_store` replies are always in-band.
                    Ok(_) => break Err(InvokeError::BadHandle),
                    Err(e) => {
                        let transient = matches!(
                            e,
                            InvokeError::RunnerFailed(_)
                                | InvokeError::Overloaded { .. }
                                | InvokeError::CircuitOpen(_)
                        );
                        if transient && attempts < budget {
                            // Step retries are server-generated load:
                            // under overload they amplify the very
                            // congestion that failed them. The shared
                            // retry budget caps that amplification.
                            if let Some(b) = &server.inner().retry_budget {
                                if !b.try_spend() {
                                    server
                                        .inner()
                                        .metrics_registry
                                        .inc("retries.budget_exhausted");
                                    break Err(e);
                                }
                            }
                            // Deterministic linear backoff between
                            // flow-level attempts — raised to the
                            // server's own drain estimate when the
                            // failure carried one.
                            let mut wait = Duration::from_millis(attempts as u64);
                            if let InvokeError::Overloaded {
                                retry_after: Some(hint),
                            } = &e
                            {
                                wait = wait.max(*hint);
                            }
                            sleep(wait).await;
                            continue;
                        }
                        break Err(e);
                    }
                }
            };
            if let Some(s) = span {
                s.finish();
            }
            let _ = done.send((idx, attempts, outcome)).await;
        });
    }
}
