//! Workflow composition (§3.4: "we map the concept of workflows to the
//! composition of heterogeneous kernels") as server-side dataflow.
//!
//! A [`Workflow`] is a DAG of kernel invocations built with
//! [`WorkflowBuilder`]: steps are added with
//! [`step`](WorkflowBuilder::step) / [`then`](WorkflowBuilder::then) /
//! [`join`](WorkflowBuilder::join), each edge naming which earlier
//! step feeds it and how ([`EdgeTransfer`]). Clients register the DAG
//! once ([`register_workflow`](crate::KaasClient::register_workflow))
//! and trigger it with a single
//! request ([`KaasClient::flow`](crate::KaasClient::flow)): the server
//! walks the graph, chaining each step's output into its consumers as a
//! device-resident object ref — intermediates never travel back to the
//! client, and chained steps on a warm device skip the host→device copy
//! entirely. The reply carries only the final step's output plus a
//! per-step [`WorkflowReport`].
//!
//! This replaces the client-driven `run_workflow` loop (which paid one
//! network round trip per step — the §6 data-shipping architecture) and
//! the all-steps `TransferMode` flag (now a per-edge choice).

use std::time::Duration;

use kaas_kernels::Value;

use crate::metrics::InvocationReport;
use crate::protocol::InvokeError;

/// Tag marking a [`Value`]-encoded workflow definition on the wire.
pub(crate) const FLOW_TAG: &str = "kaas.flow";

/// A step's position inside the workflow being built. Returned by the
/// [`WorkflowBuilder`] step methods and consumed by later edges; ids
/// are only meaningful within the builder that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StepId(pub(crate) usize);

impl StepId {
    /// The step's index in registration order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// An edge from this step that ships its value **inline**: the
    /// consumer re-materializes the bytes (paying deserialization)
    /// instead of receiving a device-resident object ref. Use when the
    /// consumer must not share residency with the producer.
    #[must_use]
    pub fn inline(self) -> Edge {
        Edge {
            from: self,
            transfer: EdgeTransfer::Inline,
        }
    }
}

/// How one workflow edge ships the producer's output to its consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeTransfer {
    /// The consumer receives a device-resident object ref: if it lands
    /// on a device that already holds the producer's output, the
    /// host→device copy is skipped entirely (zero-width `copy_in`).
    #[default]
    Resident,
    /// The consumer receives the bytes in-band and pays deserialization
    /// — the per-edge analogue of the old `TransferMode::InBand`.
    Inline,
}

impl EdgeTransfer {
    fn code(self) -> u64 {
        match self {
            EdgeTransfer::Resident => 0,
            EdgeTransfer::Inline => 1,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(EdgeTransfer::Resident),
            1 => Some(EdgeTransfer::Inline),
            _ => None,
        }
    }
}

/// One dataflow edge: which earlier step feeds this one, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The producing step.
    pub from: StepId,
    /// How the value travels along this edge.
    pub transfer: EdgeTransfer,
}

impl From<StepId> for Edge {
    /// A plain step id is a [`EdgeTransfer::Resident`] edge — the
    /// zero-copy default.
    fn from(from: StepId) -> Self {
        Edge {
            from,
            transfer: EdgeTransfer::default(),
        }
    }
}

/// One node of a workflow DAG: a kernel plus its input edges. A step
/// with no edges is a **source** fed by the trigger input; a step with
/// several edges receives a [`Value::List`] of its inputs in edge
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkflowStep {
    kernel: String,
    inputs: Vec<Edge>,
}

impl WorkflowStep {
    /// The kernel this step invokes.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// The step's input edges (empty for sources).
    pub fn inputs(&self) -> &[Edge] {
        &self.inputs
    }
}

/// Why a workflow failed validation at [`WorkflowBuilder::build`] time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// The workflow has no steps.
    Empty,
    /// More than one step has no consumer — the server would not know
    /// which output to return. The payload lists the sink indices.
    MultipleSinks(Vec<usize>),
    /// An edge references a step at or after its consumer (a forged or
    /// cross-builder [`StepId`]).
    ForwardEdge {
        /// The consuming step's index.
        step: usize,
        /// The referenced producer index.
        from: usize,
    },
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::Empty => write!(f, "workflow has no steps"),
            WorkflowError::MultipleSinks(sinks) => {
                write!(f, "workflow has several sinks: {sinks:?}")
            }
            WorkflowError::ForwardEdge { step, from } => {
                write!(f, "step {step} consumes step {from}, which is not earlier")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

/// Builds a [`Workflow`] DAG.
///
/// # Examples
///
/// A diamond — one source fanning out to two steps whose outputs join:
///
/// ```
/// use kaas_core::Workflow;
///
/// let mut b = Workflow::builder("diamond");
/// let src = b.step("preprocess");
/// let left = b.then("ga", src);
/// let right = b.then("ga", src.inline());
/// b.join("blend", [left.into(), right.into()]);
/// let wf = b.build().unwrap();
/// assert_eq!(wf.len(), 4);
/// assert!(!wf.is_linear());
/// ```
#[derive(Debug, Clone)]
pub struct WorkflowBuilder {
    name: String,
    steps: Vec<WorkflowStep>,
    step_attempts: u32,
}

impl WorkflowBuilder {
    fn push(&mut self, kernel: impl Into<String>, inputs: Vec<Edge>) -> StepId {
        let id = StepId(self.steps.len());
        self.steps.push(WorkflowStep {
            kernel: kernel.into(),
            inputs,
        });
        id
    }

    /// Adds a **source** step fed by the flow's trigger input.
    pub fn step(&mut self, kernel: impl Into<String>) -> StepId {
        self.push(kernel, Vec::new())
    }

    /// Adds a step consuming one earlier step's output. Pass a bare
    /// [`StepId`] for the zero-copy resident edge, or
    /// [`StepId::inline`] to ship the bytes inline.
    pub fn then(&mut self, kernel: impl Into<String>, input: impl Into<Edge>) -> StepId {
        self.push(kernel, vec![input.into()])
    }

    /// Adds a fan-in step consuming several earlier outputs; the kernel
    /// receives a [`Value::List`] of them in edge order.
    pub fn join(
        &mut self,
        kernel: impl Into<String>,
        inputs: impl IntoIterator<Item = Edge>,
    ) -> StepId {
        self.push(kernel, inputs.into_iter().collect())
    }

    /// How many times the server retries each step **inside** the flow
    /// on transient failures (runner death, overload, open breaker)
    /// before aborting the whole flow. Default 1: no flow-level retry
    /// beyond the dispatcher's own.
    pub fn step_attempts(&mut self, attempts: u32) -> &mut Self {
        self.step_attempts = attempts.max(1);
        self
    }

    /// Validates the DAG and produces the immutable [`Workflow`].
    ///
    /// # Errors
    ///
    /// [`WorkflowError`] when the graph is empty, has several sinks, or
    /// contains an edge that does not point strictly backwards.
    pub fn build(self) -> Result<Workflow, WorkflowError> {
        let wf = Workflow {
            name: self.name,
            steps: self.steps,
            step_attempts: self.step_attempts,
        };
        wf.validate()?;
        Ok(wf)
    }
}

/// An immutable, validated workflow DAG; build with
/// [`Workflow::builder`] or [`Workflow::linear`], register with
/// [`register_workflow`](crate::KaasClient::register_workflow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workflow {
    name: String,
    steps: Vec<WorkflowStep>,
    step_attempts: u32,
}

impl Workflow {
    /// Starts building a workflow DAG.
    pub fn builder(name: impl Into<String>) -> WorkflowBuilder {
        WorkflowBuilder {
            name: name.into(),
            steps: Vec::new(),
            step_attempts: 1,
        }
    }

    /// A linear chain: each kernel consumes the previous one's output
    /// over a resident edge, the first is fed by the trigger input.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::Empty`] when `kernels` yields nothing.
    pub fn linear<I, S>(name: impl Into<String>, kernels: I) -> Result<Workflow, WorkflowError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut b = Workflow::builder(name);
        let mut prev: Option<StepId> = None;
        for kernel in kernels {
            prev = Some(match prev {
                None => b.step(kernel),
                Some(p) => b.then(kernel, p),
            });
        }
        b.build()
    }

    fn validate(&self) -> Result<(), WorkflowError> {
        if self.steps.is_empty() {
            return Err(WorkflowError::Empty);
        }
        for (i, step) in self.steps.iter().enumerate() {
            for edge in &step.inputs {
                if edge.from.0 >= i {
                    return Err(WorkflowError::ForwardEdge {
                        step: i,
                        from: edge.from.0,
                    });
                }
            }
        }
        let consumers = self.consumer_counts();
        let sinks: Vec<usize> = consumers
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(i, _)| i)
            .collect();
        if sinks.len() > 1 {
            return Err(WorkflowError::MultipleSinks(sinks));
        }
        Ok(())
    }

    /// Workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The DAG's steps, in registration order.
    pub fn steps(&self) -> &[WorkflowStep] {
        &self.steps
    }

    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the workflow has no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Per-step flow-level retry budget (see
    /// [`WorkflowBuilder::step_attempts`]).
    pub fn step_attempts(&self) -> u32 {
        self.step_attempts
    }

    /// Whether the DAG is a simple chain: one source, and every later
    /// step consumes exactly the step before it.
    #[must_use]
    pub fn is_linear(&self) -> bool {
        self.steps.iter().enumerate().all(|(i, s)| {
            if i == 0 {
                s.inputs.is_empty()
            } else {
                s.inputs.len() == 1 && s.inputs[0].from.0 == i - 1
            }
        })
    }

    /// How many later steps consume each step's output (the sink has 0).
    pub(crate) fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.steps.len()];
        for step in &self.steps {
            for edge in &step.inputs {
                counts[edge.from.0] += 1;
            }
        }
        counts
    }

    /// The sink step's index (the step whose output the flow returns).
    /// Validated workflows have exactly one; ties (unvalidated graphs)
    /// resolve to the last.
    pub(crate) fn sink(&self) -> usize {
        self.consumer_counts()
            .iter()
            .rposition(|&c| c == 0)
            .unwrap_or(self.steps.len().saturating_sub(1))
    }

    /// Encodes the workflow for transport through the request payload
    /// channel (the registration frame).
    pub fn to_value(&self) -> Value {
        let steps = self
            .steps
            .iter()
            .map(|s| {
                let edges = s
                    .inputs
                    .iter()
                    .map(|e| {
                        Value::List(vec![
                            Value::U64(e.from.0 as u64),
                            Value::U64(e.transfer.code()),
                        ])
                    })
                    .collect();
                Value::List(vec![Value::Text(s.kernel.clone()), Value::List(edges)])
            })
            .collect();
        Value::List(vec![
            Value::Text(FLOW_TAG.to_owned()),
            Value::Text(self.name.clone()),
            Value::U64(self.step_attempts as u64),
            Value::List(steps),
        ])
    }

    /// Decodes a workflow previously encoded with
    /// [`to_value`](Workflow::to_value), re-validating the DAG.
    pub fn from_value(v: &Value) -> Option<Workflow> {
        let items = match v.payload() {
            Value::List(items) => items,
            _ => return None,
        };
        let (name, attempts, steps) = match items.as_slice() {
            [Value::Text(tag), Value::Text(name), Value::U64(attempts), Value::List(steps)]
                if tag == FLOW_TAG =>
            {
                (name, attempts, steps)
            }
            _ => return None,
        };
        let mut parsed = Vec::with_capacity(steps.len());
        for step in steps {
            let (kernel, edges) = match step {
                Value::List(parts) => match parts.as_slice() {
                    [Value::Text(kernel), Value::List(edges)] => (kernel, edges),
                    _ => return None,
                },
                _ => return None,
            };
            let mut inputs = Vec::with_capacity(edges.len());
            for edge in edges {
                match edge {
                    Value::List(parts) => match parts.as_slice() {
                        [Value::U64(from), Value::U64(code)] => inputs.push(Edge {
                            from: StepId(*from as usize),
                            transfer: EdgeTransfer::from_code(*code)?,
                        }),
                        _ => return None,
                    },
                    _ => return None,
                }
            }
            parsed.push(WorkflowStep {
                kernel: kernel.clone(),
                inputs,
            });
        }
        let wf = Workflow {
            name: name.clone(),
            steps: parsed,
            step_attempts: u32::try_from(*attempts).ok()?.max(1),
        };
        wf.validate().ok()?;
        Some(wf)
    }
}

/// A registered workflow on a server: the handle returned by
/// [`register_workflow`](crate::KaasClient::register_workflow) and
/// passed to
/// [`KaasClient::flow`](crate::KaasClient::flow) to trigger runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkflowHandle {
    id: u64,
    name: String,
    steps: usize,
}

impl WorkflowHandle {
    /// Builds a handle from raw parts. Normally obtained from
    /// [`register_workflow`](crate::KaasClient::register_workflow);
    /// constructing one by hand (or after a server restart) yields a
    /// *forged* handle — triggering it fails with
    /// [`InvokeError::UnknownFlow`](crate::InvokeError::UnknownFlow)
    /// rather than panicking.
    pub fn new(id: u64, name: impl Into<String>, steps: usize) -> Self {
        WorkflowHandle {
            id,
            name: name.into(),
            steps,
        }
    }

    /// The server-assigned flow id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The workflow's name as registered.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of steps in the registered DAG.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps
    }

    /// Whether the registered DAG has no steps (never true for handles
    /// from a successful registration).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }
}

/// The outcome of one step inside a flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// The step's index in the DAG.
    pub step: usize,
    /// Kernel name.
    pub kernel: String,
    /// Flow-level attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Whether the step consumed a device-resident intermediate with a
    /// cache hit — its `copy_in` was zero because the producer's output
    /// never left the device.
    pub chained: bool,
    /// The step's failure, if it (and the flow) failed.
    pub error: Option<InvokeError>,
    /// Server-side timing breakdown (absent when the step never ran).
    pub report: Option<InvocationReport>,
}

/// The per-step breakdown of one flow run, returned alongside the final
/// output (and, on failure, inside [`FlowError`] with the steps that
/// did complete).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowReport {
    /// The triggering flow's id.
    pub flow: u64,
    /// The workflow's name.
    pub name: String,
    /// Per-step outcomes, in step order (steps that never started are
    /// absent).
    pub steps: Vec<StepReport>,
}

impl WorkflowReport {
    /// How many steps consumed their input as a device-resident
    /// intermediate with zero `copy_in` (the chained fast path).
    #[must_use]
    pub fn chained_hits(&self) -> usize {
        self.steps.iter().filter(|s| s.chained).count()
    }
}

/// Result of triggering a registered workflow.
#[derive(Debug)]
pub struct WorkflowRun {
    /// Output of the sink step.
    pub output: Value,
    /// Per-step server reports.
    pub report: WorkflowReport,
    /// Client-observed end-to-end latency.
    pub latency: Duration,
    /// Client↔server round trips the run cost (1 for a single-site
    /// flow; one per segment for federated flows).
    pub round_trips: usize,
}

impl WorkflowRun {
    /// Total device-side kernel time across steps.
    #[must_use]
    pub fn kernel_time(&self) -> Duration {
        self.report
            .steps
            .iter()
            .filter_map(|s| s.report.as_ref())
            .map(InvocationReport::kernel_time)
            .sum()
    }

    /// Number of cold starts the run triggered.
    #[must_use]
    pub fn cold_starts(&self) -> usize {
        self.report
            .steps
            .iter()
            .filter_map(|s| s.report.as_ref())
            .filter(|r| r.cold_start)
            .count()
    }

    /// Client↔server round trips the run cost.
    #[must_use]
    pub fn round_trips(&self) -> usize {
        self.round_trips
    }

    /// Steps that chained device-resident with zero `copy_in`.
    #[must_use]
    pub fn chained_hits(&self) -> usize {
        self.report.chained_hits()
    }
}

/// A failed flow run: the first step error plus every step that did
/// complete (partial results for debugging and billing).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowError {
    /// The failure that aborted the flow.
    pub error: InvokeError,
    /// Outcomes of the steps that ran before the abort, in step order.
    pub partial: Vec<StepReport>,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flow failed after {} completed steps: {}",
            self.partial.iter().filter(|s| s.error.is_none()).count(),
            self.error
        )
    }
}

impl std::error::Error for FlowError {}

impl From<InvokeError> for FlowError {
    fn from(error: InvokeError) -> Self {
        FlowError {
            error,
            partial: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_builder_chains_steps() {
        let wf = Workflow::linear("w", ["a", "b", "c"]).unwrap();
        assert_eq!(wf.name(), "w");
        assert_eq!(wf.len(), 3);
        assert!(!wf.is_empty());
        assert!(wf.is_linear());
        assert_eq!(wf.sink(), 2);
        assert_eq!(wf.steps()[1].kernel(), "b");
        assert_eq!(wf.steps()[1].inputs()[0].from, StepId(0));
        assert_eq!(wf.steps()[1].inputs()[0].transfer, EdgeTransfer::Resident);
    }

    #[test]
    fn empty_workflow_is_rejected() {
        assert_eq!(
            Workflow::linear("w", Vec::<String>::new()).unwrap_err(),
            WorkflowError::Empty
        );
    }

    #[test]
    fn diamond_validates_with_one_sink() {
        let mut b = Workflow::builder("d");
        let src = b.step("pre");
        let l = b.then("ga", src);
        let r = b.then("ga", src.inline());
        b.join("blend", [l.into(), r.into()]);
        let wf = b.build().unwrap();
        assert_eq!(wf.len(), 4);
        assert!(!wf.is_linear());
        assert_eq!(wf.sink(), 3);
        assert_eq!(wf.consumer_counts(), vec![2, 1, 1, 0]);
        assert_eq!(wf.steps()[2].inputs()[0].transfer, EdgeTransfer::Inline);
    }

    #[test]
    fn multiple_sinks_are_rejected() {
        let mut b = Workflow::builder("m");
        let src = b.step("pre");
        b.then("ga", src);
        b.then("ga", src);
        assert_eq!(
            b.build().unwrap_err(),
            WorkflowError::MultipleSinks(vec![1, 2])
        );
    }

    #[test]
    fn forged_edge_is_rejected() {
        let mut other = Workflow::builder("other");
        other.step("pre");
        let far = other.then("ga", StepId(0));
        let mut b = Workflow::builder("f");
        b.then("ga", far); // references step 1 from step 0
        assert_eq!(
            b.build().unwrap_err(),
            WorkflowError::ForwardEdge { step: 0, from: 1 }
        );
    }

    #[test]
    fn wire_roundtrip_preserves_the_dag() {
        let mut b = Workflow::builder("d");
        let src = b.step("pre");
        let l = b.then("ga", src);
        let r = b.then("ga", src.inline());
        b.join("blend", [l.into(), r.into()]);
        b.step_attempts(3);
        let wf = b.build().unwrap();
        let decoded = Workflow::from_value(&wf.to_value()).unwrap();
        assert_eq!(decoded, wf);
        assert_eq!(decoded.step_attempts(), 3);
        assert!(Workflow::from_value(&Value::U64(1)).is_none());
    }

    #[test]
    fn invalid_encodings_are_rejected() {
        // A forward edge survives encoding but not decoding.
        let v = Value::List(vec![
            Value::Text(FLOW_TAG.to_owned()),
            Value::Text("bad".into()),
            Value::U64(1),
            Value::List(vec![Value::List(vec![
                Value::Text("a".into()),
                Value::List(vec![Value::List(vec![Value::U64(5), Value::U64(0)])]),
            ])]),
        ]);
        assert!(Workflow::from_value(&v).is_none());
    }

    #[test]
    fn attempts_beyond_u32_are_rejected_not_truncated() {
        let mut b = Workflow::builder("w");
        b.step("pre");
        let wf = b.build().unwrap();
        let with_attempts = |attempts: u64| {
            let Value::List(mut items) = wf.to_value() else {
                unreachable!("a workflow encodes as a list")
            };
            items[2] = Value::U64(attempts);
            Workflow::from_value(&Value::List(items))
        };
        assert!(
            with_attempts(1 << 32).is_none(),
            "2^32 must not decode as 0"
        );
        assert!(
            with_attempts((1 << 32) + 5).is_none(),
            "2^32 + 5 must not decode as 5"
        );
        assert!(with_attempts(u64::MAX).is_none());
        assert_eq!(
            with_attempts(u32::MAX as u64).unwrap().step_attempts(),
            u32::MAX
        );
        assert_eq!(with_attempts(0).unwrap().step_attempts(), 1);
    }

    #[test]
    fn handle_accessors() {
        let h = WorkflowHandle::new(7, "w", 3);
        assert_eq!(h.id(), 7);
        assert_eq!(h.name(), "w");
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
    }
}
