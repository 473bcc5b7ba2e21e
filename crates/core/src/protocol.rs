//! The client ↔ KaaS-server wire protocol (§4.1 of the paper): TCP
//! request/response with in-band (serialized) or out-of-band
//! (shared-memory) data transfer.

use std::time::Duration;

use kaas_kernels::Value;
use kaas_net::{ShmHandle, HANDLE_WIRE_BYTES};
use kaas_simtime::{SimTime, SpanId};

use crate::dataplane::{ObjectRef, OBJECT_REF_WIRE_BYTES};
use crate::metrics::InvocationReport;
use crate::workflow::WorkflowReport;

/// How a payload travels between client and kernel.
#[derive(Debug)]
pub enum DataRef {
    /// Serialized onto the connection.
    InBand(Value),
    /// A pointer into a host shared-memory region.
    OutOfBand(ShmHandle<Value>),
    /// A content address into the server's object store (the data
    /// plane): the payload was [`put`](crate::KaasClient::put) earlier
    /// and only its 24-byte ref crosses the wire.
    Object(ObjectRef),
}

impl DataRef {
    /// On-wire size of this reference (payload bytes in-band, a fixed
    /// small handle out-of-band — the entire point of §4.1's out-of-band
    /// mode — and a fixed content address for stored objects).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            DataRef::InBand(v) => v.wire_bytes(),
            DataRef::OutOfBand(_) => HANDLE_WIRE_BYTES,
            DataRef::Object(_) => OBJECT_REF_WIRE_BYTES,
        }
    }

    /// Logical payload size (regardless of transfer mode).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            DataRef::InBand(v) => v.wire_bytes(),
            DataRef::OutOfBand(h) => h.bytes(),
            DataRef::Object(r) => r.bytes,
        }
    }
}

/// Fixed protocol framing overhead per message.
pub const FRAME_BYTES: u64 = 128;

/// A kernel invocation request.
#[derive(Debug)]
pub struct Request {
    /// Client-chosen correlation id.
    pub id: u64,
    /// Registered kernel name.
    pub kernel: String,
    /// Input payload.
    pub data: DataRef,
    /// Tenant identity for fairness accounting (§3.1: "fairness, data
    /// isolation, scheduling, and service-level agreements").
    pub tenant: Option<String>,
    /// Absolute virtual-time deadline for *starting* device work: the
    /// server sheds the request with [`InvokeError::DeadlineExceeded`]
    /// if it is still undispatched past this instant.
    pub deadline: Option<SimTime>,
    /// Client-side trace context: the span the server should parent its
    /// own spans under (the client's `roundtrip` span).
    pub span: Option<SpanId>,
    /// The client wants the *output* returned through shared memory
    /// even when the input did not travel that way — the common case
    /// for [`DataRef::Object`] requests, where the input is a 24-byte
    /// content address but the result can be arbitrarily large.
    /// Out-of-band inputs always get out-of-band replies regardless.
    pub reply_out_of_band: bool,
    /// Internal flow-executor handoff: the output is destined for the
    /// server's own object store, not the wire, so reply shaping
    /// (serialization / shared memory) is skipped entirely. Never set
    /// by clients.
    pub reply_to_store: bool,
}

impl Request {
    /// Total on-wire size.
    pub fn wire_bytes(&self) -> u64 {
        FRAME_BYTES + self.kernel.len() as u64 + self.data.wire_bytes()
    }

    /// Whether the server returns the output through shared memory:
    /// always for an out-of-band input, otherwise on the client's
    /// [`reply_out_of_band`](Request::reply_out_of_band) request.
    pub(crate) fn replies_out_of_band(&self) -> bool {
        matches!(self.data, DataRef::OutOfBand(_)) || self.reply_out_of_band
    }
}

/// Invocation failures reported to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeError {
    /// No kernel with the requested name is registered.
    UnknownKernel(String),
    /// The kernel rejected its input.
    BadInput(String),
    /// No device of the kernel's class exists in this deployment.
    NoDevice(String),
    /// The runner serving the request died.
    RunnerFailed(String),
    /// The server connection closed before a response arrived.
    Disconnected,
    /// An out-of-band handle did not resolve.
    BadHandle,
    /// The server shed the request: the admission limiter (adaptive or
    /// fixed-cap) or a bounded shard queue was already at its ceiling.
    /// `retry_after` is the server's deterministic estimate of when the
    /// backlog will have drained — cooperative backpressure that retry
    /// policies must honor (wait *at least* this long before retrying).
    Overloaded {
        /// Suggested minimum wait before a retry, when the server can
        /// estimate its own drain time. `None` preserves the historic
        /// uninformative shed.
        retry_after: Option<Duration>,
    },
    /// The server shed the request: its [`Request::deadline`] passed
    /// before device work could start.
    DeadlineExceeded,
    /// Every device that could serve the kernel has its circuit breaker
    /// open (recent failures tripped it); the request was rejected fast
    /// rather than queued onto failing hardware.
    CircuitOpen(String),
    /// The client-side response timeout elapsed (e.g. the request or
    /// response frame was lost on the wire).
    TimedOut,
    /// The target device could not hold the invocation's referenced
    /// object: its memory manager found nothing evictable (everything
    /// pinned or in flight) or the object exceeds device capacity.
    DeviceOom(String),
    /// A flow trigger named a workflow id this server never issued (a
    /// forged [`WorkflowHandle`](crate::WorkflowHandle), or one that
    /// outlived the server that minted it).
    UnknownFlow(String),
    /// A `tenant/name` invocation named a guest kernel (or version) that
    /// is not registered — distinct from [`UnknownKernel`] so clients
    /// can tell a typo'd built-in from a missing registration.
    ///
    /// [`UnknownKernel`]: InvokeError::UnknownKernel
    UnknownGuestKernel(String),
    /// A guest kernel trapped (division by zero, out-of-bounds access,
    /// type confusion). Deterministic: the same input traps identically,
    /// so retries are pointless and the error is returned immediately.
    GuestTrap(String),
    /// A guest kernel exhausted its registered fuel budget mid-run.
    FuelExhausted(String),
    /// The registration-time verifier rejected a guest program: a
    /// reachable instruction provably traps (type mismatch, stack
    /// underflow, or a path that falls off the end without `return`).
    /// The payload carries the verifier's file-free diagnostics
    /// (`seq@pc: [rule] message`, `;`-joined).
    VerifyRejected(String),
}

impl InvokeError {
    /// Every stable [`kind`](InvokeError::kind) label, in declaration
    /// order — lets tests and dashboards enumerate the error space
    /// without constructing each variant.
    pub const KINDS: [&'static str; 16] = [
        "unknown-kernel",
        "bad-input",
        "no-device",
        "runner-failed",
        "disconnected",
        "bad-handle",
        "overloaded",
        "deadline-exceeded",
        "circuit-open",
        "timed-out",
        "device-oom",
        "unknown-flow",
        "unknown-guest-kernel",
        "guest-trap",
        "fuel-exhausted",
        "verify-rejected",
    ];

    /// Short kebab-case name of the error variant (stable across
    /// payloads; used as a metrics label, e.g. `errors.overloaded`).
    pub fn kind(&self) -> &'static str {
        match self {
            InvokeError::UnknownKernel(_) => "unknown-kernel",
            InvokeError::BadInput(_) => "bad-input",
            InvokeError::NoDevice(_) => "no-device",
            InvokeError::RunnerFailed(_) => "runner-failed",
            InvokeError::Disconnected => "disconnected",
            InvokeError::BadHandle => "bad-handle",
            InvokeError::Overloaded { .. } => "overloaded",
            InvokeError::DeadlineExceeded => "deadline-exceeded",
            InvokeError::CircuitOpen(_) => "circuit-open",
            InvokeError::TimedOut => "timed-out",
            InvokeError::DeviceOom(_) => "device-oom",
            InvokeError::UnknownFlow(_) => "unknown-flow",
            InvokeError::UnknownGuestKernel(_) => "unknown-guest-kernel",
            InvokeError::GuestTrap(_) => "guest-trap",
            InvokeError::FuelExhausted(_) => "fuel-exhausted",
            InvokeError::VerifyRejected(_) => "verify-rejected",
        }
    }
}

impl std::fmt::Display for InvokeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvokeError::UnknownKernel(k) => write!(f, "unknown kernel '{k}'"),
            InvokeError::BadInput(m) => write!(f, "bad input: {m}"),
            InvokeError::NoDevice(c) => write!(f, "no {c} device available"),
            InvokeError::RunnerFailed(m) => write!(f, "task runner failed: {m}"),
            InvokeError::Disconnected => write!(f, "server disconnected"),
            InvokeError::BadHandle => write!(f, "shared-memory handle did not resolve"),
            InvokeError::Overloaded { retry_after } => match retry_after {
                Some(d) => write!(f, "server overloaded; request shed (retry after {d:?})"),
                None => write!(f, "server overloaded; request shed"),
            },
            InvokeError::DeadlineExceeded => {
                write!(f, "deadline passed before dispatch; request shed")
            }
            InvokeError::CircuitOpen(c) => {
                write!(f, "circuit breaker open for every {c} device")
            }
            InvokeError::TimedOut => write!(f, "response timed out"),
            InvokeError::DeviceOom(m) => write!(f, "device out of memory: {m}"),
            InvokeError::UnknownFlow(id) => write!(f, "unknown workflow '{id}'"),
            InvokeError::UnknownGuestKernel(k) => {
                write!(f, "unknown guest kernel '{k}'")
            }
            InvokeError::GuestTrap(m) => write!(f, "guest kernel trapped: {m}"),
            InvokeError::FuelExhausted(m) => {
                write!(f, "guest kernel out of fuel: {m}")
            }
            InvokeError::VerifyRejected(m) => {
                write!(f, "guest program rejected by verifier: {m}")
            }
        }
    }
}

impl std::error::Error for InvokeError {}

/// A kernel invocation response.
#[derive(Debug)]
pub struct Response {
    /// Correlation id copied from the request.
    pub id: u64,
    /// Output payload or failure.
    pub result: Result<DataRef, InvokeError>,
    /// Timing breakdown (present even for failures where possible).
    pub report: Option<InvocationReport>,
    /// Per-step breakdown of a flow trigger (responses to
    /// `_kaas/flow/run` only; present even for failed flows, carrying
    /// the partial results).
    pub flow: Option<WorkflowReport>,
}

impl Response {
    /// Total on-wire size.
    pub fn wire_bytes(&self) -> u64 {
        FRAME_BYTES
            + match &self.result {
                Ok(d) => d.wire_bytes(),
                Err(_) => 64,
            }
    }
}

/// Per-member framing cost inside a batched frame: a correlation id and
/// a length prefix, far smaller than a full [`FRAME_BYTES`] header.
pub const BATCH_MEMBER_BYTES: u64 = 16;

/// The request-direction wire envelope: a single invocation, or a
/// coalesced batch of invocations from one client that share one frame
/// header (and thus one per-message link overhead and one serialization
/// pass — the §4.1 per-call costs are paid once per *frame*).
#[derive(Debug)]
pub enum RequestFrame {
    /// One request, framed exactly as before batching existed.
    One(Request),
    /// Several requests riding one frame header.
    Batch(Vec<Request>),
}

impl RequestFrame {
    /// Total on-wire size: a batch pays one [`FRAME_BYTES`] header plus
    /// a small [`BATCH_MEMBER_BYTES`] sub-header per member instead of a
    /// full frame header each.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            RequestFrame::One(r) => r.wire_bytes(),
            RequestFrame::Batch(rs) => {
                FRAME_BYTES
                    + rs.iter()
                        .map(|r| r.wire_bytes() - FRAME_BYTES + BATCH_MEMBER_BYTES)
                        .sum::<u64>()
            }
        }
    }
}

/// The response-direction wire envelope, symmetric with
/// [`RequestFrame`]: batched requests get one coalesced reply frame.
#[derive(Debug)]
pub enum ResponseFrame {
    /// One response.
    One(Response),
    /// The coalesced replies to a [`RequestFrame::Batch`], in request
    /// order.
    Batch(Vec<Response>),
}

impl ResponseFrame {
    /// Total on-wire size (same amortization as the request direction).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            ResponseFrame::One(r) => r.wire_bytes(),
            ResponseFrame::Batch(rs) => {
                FRAME_BYTES
                    + rs.iter()
                        .map(|r| r.wire_bytes() - FRAME_BYTES + BATCH_MEMBER_BYTES)
                        .sum::<u64>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_band_wire_size_includes_payload() {
        let req = Request {
            id: 1,
            kernel: "matmul".into(),
            data: DataRef::InBand(Value::F64s(vec![0.0; 1000])),
            tenant: None,
            deadline: None,
            span: None,
            reply_out_of_band: false,
            reply_to_store: false,
        };
        assert!(req.wire_bytes() > 8000);
    }

    #[test]
    fn error_kinds_are_stable_labels() {
        assert_eq!(
            InvokeError::Overloaded { retry_after: None }.kind(),
            "overloaded"
        );
        assert_eq!(
            InvokeError::Overloaded {
                retry_after: Some(Duration::from_millis(3))
            }
            .kind(),
            "overloaded",
            "the retry hint must not change the stable label"
        );
        assert_eq!(InvokeError::DeadlineExceeded.kind(), "deadline-exceeded");
        assert_eq!(
            InvokeError::UnknownKernel("x".into()).kind(),
            "unknown-kernel"
        );
        assert_eq!(
            InvokeError::CircuitOpen("GPU".into()).kind(),
            "circuit-open"
        );
        assert_eq!(InvokeError::TimedOut.kind(), "timed-out");
    }

    #[test]
    fn kinds_table_covers_every_variant() {
        let variants = [
            InvokeError::UnknownKernel(String::new()),
            InvokeError::BadInput(String::new()),
            InvokeError::NoDevice(String::new()),
            InvokeError::RunnerFailed(String::new()),
            InvokeError::Disconnected,
            InvokeError::BadHandle,
            InvokeError::Overloaded { retry_after: None },
            InvokeError::DeadlineExceeded,
            InvokeError::CircuitOpen(String::new()),
            InvokeError::TimedOut,
            InvokeError::DeviceOom(String::new()),
            InvokeError::UnknownFlow(String::new()),
            InvokeError::UnknownGuestKernel(String::new()),
            InvokeError::GuestTrap(String::new()),
            InvokeError::FuelExhausted(String::new()),
            InvokeError::VerifyRejected(String::new()),
        ];
        assert_eq!(variants.len(), InvokeError::KINDS.len());
        for (v, label) in variants.iter().zip(InvokeError::KINDS) {
            assert_eq!(v.kind(), label, "table order matches declaration order");
        }
    }

    #[test]
    fn out_of_band_wire_size_is_tiny() {
        // A handle's wire size is constant regardless of payload size.
        assert_eq!(
            DataRef::OutOfBand(dummy_handle()).wire_bytes(),
            HANDLE_WIRE_BYTES
        );
    }

    fn dummy_handle() -> ShmHandle<Value> {
        // Build a handle through the public API.
        let mut sim = kaas_simtime::Simulation::new();
        sim.block_on(async {
            kaas_net::SharedMemory::host()
                .put(Value::U64(1), 1_000_000)
                .await
        })
    }

    #[test]
    fn object_ref_wire_size_is_constant() {
        let r = ObjectRef {
            hash: 1,
            bytes: 1_000_000,
        };
        assert_eq!(DataRef::Object(r).wire_bytes(), OBJECT_REF_WIRE_BYTES);
        assert_eq!(DataRef::Object(r).payload_bytes(), 1_000_000);
    }

    #[test]
    fn payload_bytes_reports_logical_size() {
        let h = dummy_handle();
        assert_eq!(DataRef::OutOfBand(h).payload_bytes(), 1_000_000);
        assert_eq!(DataRef::InBand(Value::U64(1)).payload_bytes(), 16);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(InvokeError::UnknownKernel("x".into())
            .to_string()
            .contains('x'));
        assert!(InvokeError::Disconnected
            .to_string()
            .contains("disconnected"));
    }
}
