//! # kaas-core — the Kernel-as-a-Service runtime
//!
//! The paper's primary contribution (§3–§4): a serverless programming
//! model for heterogeneous hardware accelerators.
//!
//! * Developers [`register`](KernelRegistry::register) kernels.
//! * A [`KaasServer`] wraps them in [`TaskRunner`]s on a shared pool of
//!   devices, cold-starting runners on demand and keeping them warm.
//! * Applications [`call`](KaasClient::call) kernels over the network
//!   with in-band or out-of-band data transfer, via a builder-style
//!   invoke API ([`InvokeBuilder`]).
//! * The [`dataplane`] keeps content-addressed objects
//!   ([`KaasClient::put`] / [`InvokeBuilder::arg_ref`]) resident in
//!   device memory across invocations, eliminating repeat host→device
//!   copies and evicting LRU-first under memory pressure.
//! * [`baseline`] provides the time-sharing / space-sharing / CPU-only
//!   delivery models the paper compares against.
//!
//! ## The control plane
//!
//! [`KaasServer`] is a thin orchestrator over four modules, each with a
//! pluggable policy seam:
//!
//! | Module | Responsibility | Policy hook |
//! |---|---|---|
//! | [`admission`] | tenant quotas, overload shedding | [`AdmissionConfig`] |
//! | [`scheduler`] | route an invocation to a runner slot | [`Scheduler`] trait |
//! | [`autoscaler`] | decide when to start more runners | [`AutoscalePolicy`] trait |
//! | [`pool`] | runner lifecycle: spawn, warm lookup, idle reaping | mechanism only |
//!
//! Per invocation: admission ⇒ dispatch overhead ⇒ `scheduler.pick()`
//! over the pool's usable slots ⇒ on decline, `autoscaler.on_saturated()`
//! may spawn a runner (bounded by physical devices) ⇒ execute, retrying
//! on runner failure. Scale-down is the pool's idle reaper
//! ([`ServerConfig::idle_timeout`]).
//!
//! Built-in schedulers: [`FillFirst`], [`RoundRobin`], [`LeastLoaded`],
//! [`WarmFirst`]. Built-in autoscalers:
//! [`InFlightThreshold`] (the paper's §5.5 policy), [`NoScale`],
//! [`TargetUtilization`]. Custom policies implement the trait and plug
//! in through [`ServerConfig::with_scheduler`] /
//! [`ServerConfig::with_autoscaler`]; see the [`scheduler`] module docs
//! for a worked example.
//!
//! ```
//! use kaas_core::{baseline, KernelRegistry};
//! use kaas_kernels::{MatMul, Value};
//! use kaas_accel::{CpuDevice, CpuProfile, DeviceId};
//! use kaas_simtime::Simulation;
//!
//! let mut sim = Simulation::new();
//! let report = sim.block_on(async {
//!     let cpu = CpuDevice::new(DeviceId(0), CpuProfile::xeon_e5_2698v4_dual());
//!     baseline::run_cpu_only(&cpu, &MatMul::new(), &Value::U64(512))
//!         .await
//!         .unwrap()
//! });
//! assert!(report.total > report.kernel_time);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod autoscaler;
pub mod baseline;
mod client;
mod config;
pub mod dataplane;
mod dispatch;
pub mod fault;
mod federation;
mod flow;
mod fusion;
mod guest;
mod metrics;
pub mod pool;
mod protocol;
mod registry;
pub mod resilience;
mod runner;
#[cfg(feature = "sim-sanitizer")]
mod sanitize;
pub mod scheduler;
mod server;
pub mod trace;
mod workflow;

pub use admission::{AdmissionConfig, AdmissionPolicy, AimdConfig};
pub use autoscaler::{
    AutoscalePolicy, InFlightThreshold, NoScale, ScaleCtx, ScaleDecision, TargetUtilization,
};
pub use baseline::{run_cpu_only, run_space_sharing, run_time_sharing, BaselineReport};
pub use client::{
    BatchBuilder, BatchCall, ClientRetryConfig, FlowBuilder, Invocation, InvokeBuilder, KaasClient,
};
pub use config::{DispatchMode, ServerConfig, ShardConfig};
pub use dataplane::{
    content_hash, DataPlane, ObjectRef, ObjectStore, DATA_GET_KERNEL, DATA_KERNEL_PREFIX,
    DATA_PIN_KERNEL, DATA_PUT_KERNEL, DATA_SEAL_KERNEL, OBJECT_REF_WIRE_BYTES,
};
pub use fault::{AppliedFault, Fault, FaultEvent, FaultInjector, FaultLog, FaultPlan, StormConfig};
pub use federation::{FederatedClient, FederatedFlow, SiteHandle, SiteSpec};
pub use flow::{FLOW_KERNEL_PREFIX, FLOW_REGISTER_KERNEL, FLOW_RUN_KERNEL};
pub use fusion::{fuse, FusedKernel, FusionError};
pub use guest::{CODE_KERNEL_PREFIX, CODE_LIST_KERNEL, CODE_REGISTER_KERNEL, CODE_REMOVE_KERNEL};
pub use metrics::histogram::{Histogram, HistogramSummary};
pub use metrics::registry::MetricsRegistry;
pub use metrics::{mean_ci95, percentile, InvocationReport, MeanCi, MetricsSink, RunnerId};
pub use pool::{RunnerPool, RunnerSlot};
pub use protocol::{
    DataRef, InvokeError, Request, RequestFrame, Response, ResponseFrame, BATCH_MEMBER_BYTES,
    FRAME_BYTES,
};
pub use registry::{KernelRegistry, RegistryError};
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, EvictionConfig, ExponentialBackoff,
    FallbackConfig, FixedBackoff, NoBackoff, RetryBudget, RetryBudgetConfig, RetryConfig,
    RetryPolicy,
};
pub use runner::{RunnerConfig, RunnerTimings, TaskRunner};
pub use scheduler::{
    FillFirst, LeastLoaded, RoundRobin, SchedCtx, Scheduler, SlotChoice, SlotView, WarmFirst,
};
pub use server::{KaasServer, KernelStats, ServerSnapshot, DISCOVERY_KERNEL};
pub use trace::{Span, SpanId, SpanSink};
pub use workflow::{
    Edge, EdgeTransfer, FlowError, StepId, StepReport, Workflow, WorkflowBuilder, WorkflowError,
    WorkflowHandle, WorkflowReport, WorkflowRun,
};

/// The network type used between KaaS clients and servers. The wire
/// carries framed envelopes ([`RequestFrame`] / [`ResponseFrame`]) so a
/// client's coalesced batch rides one frame header in each direction.
pub type KaasNetwork = kaas_net::Network<RequestFrame, ResponseFrame>;
