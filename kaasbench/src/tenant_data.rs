//! `tenant_data`: a closed loop of tenant clients over a working set
//! twice the size of each GPU's memory, mixing guest bytecode kernels,
//! registered flows and periodic guest re-registration.
//!
//! Why: host time goes to the guest interpreter, `content_hash`, object
//! copies, LRU residency and the flow engine; the request path is a
//! small share. Data-plane and guest optimisations show here, and
//! `invoke_open` predicts no change for them.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use kaas_accel::{DeviceClass, DeviceId, GpuDevice, GpuProfile, WorkUnits};
use kaas_bench::common::{deploy, experiment_server_config, Deployment};
use kaas_core::{KaasClient, ObjectRef, SpanSink, Workflow, WorkflowHandle};
use kaas_guest::{GuestProgram, Op};
use kaas_kernels::{Kernel, KernelError, Value};
use kaas_simtime::rng::{stream_rng, DetRng};
use kaas_simtime::{now, spawn, Simulation};

use crate::host::{thread_cpu_ns, Stopwatch};
use crate::load::{Measured, Mode, Outcome, RegSnap, Tally};
use crate::probes::Capture;

/// GPUs in the deployment.
const GPUS: u32 = 4;
/// Tenants, one closed-loop client each.
const TENANTS: usize = 4;
/// Objects in the working set.
const OBJECTS: usize = 128;
/// Zipf exponent of object popularity.
const ZIPF_S: f64 = 0.9;
/// Smallest and largest object, as log2 of the `f64` count
/// (512 → 4 KiB, 32 768 → 256 KiB).
const LOG2_LEN: (f64, f64) = (9.0, 15.0);
/// Requests per client before the measured phase.
const WARMUP_PER_CLIENT: usize = 300;
/// Measured requests per client.
const MEASURED_PER_CLIENT: usize = 2_600;
/// Every this many requests a client re-registers one of its guest
/// kernels as a new version and removes the old one. The next call of
/// that kernel cold-starts (≈1.3 s virtual on a V100), so this stays
/// rare enough (0.25 % of requests) to leave p99 among warm requests.
const REREGISTER_EVERY: usize = 400;
/// Share of (non-registration) requests that call a guest kernel; the
/// rest trigger a registered flow.
const GUEST_SHARE: f64 = 0.55;
/// Share of requests traced in the traced pass.
const TRACE_SHARE: f64 = 0.1;
/// Latency limit per request.
const SLO: Duration = Duration::from_millis(2);

/// The benchmark's own compiled-in vector kernels: flow steps must be
/// compiled-in, and these keep their math simple enough to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VecOp {
    /// x ↦ 2x elementwise.
    Scale,
    /// x ↦ x + 1 elementwise.
    Shift,
    /// Σx.
    Sum,
    /// Σx².
    SumSq,
    /// [a, b] ↦ a + b for scalars.
    Add,
}

#[derive(Debug)]
struct VecKernel(VecOp);

impl VecKernel {
    fn all() -> Vec<Rc<dyn Kernel>> {
        [
            VecOp::Scale,
            VecOp::Shift,
            VecOp::Sum,
            VecOp::SumSq,
            VecOp::Add,
        ]
        .into_iter()
        .map(|op| Rc::new(VecKernel(op)) as Rc<dyn Kernel>)
        .collect()
    }
}

fn floats(v: &Value) -> Result<&[f64], KernelError> {
    match v.payload() {
        Value::F64s(xs) => Ok(xs),
        other => Err(KernelError::BadInput(format!(
            "expected F64s, got {other:?}"
        ))),
    }
}

fn scalar_pair(v: &Value) -> Result<(f64, f64), KernelError> {
    match v.payload() {
        Value::List(items) => match (
            items.first().map(Value::payload),
            items.get(1).map(Value::payload),
        ) {
            (Some(Value::F64(a)), Some(Value::F64(b))) if items.len() == 2 => Ok((*a, *b)),
            _ => Err(KernelError::BadInput(format!(
                "expected [F64, F64], got {items:?}"
            ))),
        },
        other => Err(KernelError::BadInput(format!(
            "expected [F64, F64], got {other:?}"
        ))),
    }
}

impl Kernel for VecKernel {
    fn name(&self) -> &str {
        match self.0 {
            VecOp::Scale => "vscale",
            VecOp::Shift => "vshift",
            VecOp::Sum => "vsum",
            VecOp::SumSq => "vsumsq",
            VecOp::Add => "sadd",
        }
    }

    fn device_class(&self) -> DeviceClass {
        DeviceClass::Gpu
    }

    fn work(&self, input: &Value) -> Result<WorkUnits, KernelError> {
        let (n, out) = match self.0 {
            VecOp::Scale | VecOp::Shift => (floats(input)?.len(), input.wire_bytes()),
            VecOp::Sum | VecOp::SumSq => (floats(input)?.len(), 16),
            VecOp::Add => (scalar_pair(input).map(|_| 1)?, 16),
        };
        Ok(WorkUnits::new(2.0 * n as f64).with_bytes(input.wire_bytes(), out))
    }

    fn execute(&self, input: &Value) -> Result<Value, KernelError> {
        Ok(match self.0 {
            VecOp::Scale => Value::F64s(floats(input)?.iter().map(|x| x * 2.0).collect()),
            VecOp::Shift => Value::F64s(floats(input)?.iter().map(|x| x + 1.0).collect()),
            VecOp::Sum => Value::F64(floats(input)?.iter().sum()),
            VecOp::SumSq => Value::F64(floats(input)?.iter().map(|x| x * x).sum()),
            VecOp::Add => {
                let (a, b) = scalar_pair(input)?;
                Value::F64(a + b)
            }
        })
    }
}

/// One tenant's guest kernel: `Σ(scale·x) + Σ table`, where the init
/// program builds a `table`-entry vector filled with the version
/// number, so every version computes a different answer.
#[derive(Debug, Clone, Copy)]
struct GuestSpec {
    name: &'static str,
    scale: f64,
    table: u64,
    snapshot: bool,
}

const GUESTS: [GuestSpec; 2] = [
    GuestSpec {
        name: "score",
        scale: 0.5,
        table: 4096,
        snapshot: true,
    },
    GuestSpec {
        name: "blend",
        scale: 1.5,
        table: 1024,
        snapshot: false,
    },
];

impl GuestSpec {
    fn program(&self, version: u64) -> GuestProgram {
        let p = GuestProgram::new(self.name, DeviceClass::Gpu)
            .with_work(1_000.0, 2.0, 16)
            .with_init(
                1,
                vec![
                    Op::PushU(self.table),
                    Op::PushF(version as f64),
                    Op::VecFill,
                    Op::SetGlobal(0),
                ],
            )
            .with_body(vec![
                Op::Input,
                Op::PushF(self.scale),
                Op::VecScale,
                Op::VecSum,
                Op::Global(0),
                Op::VecSum,
                Op::Add,
                Op::Return,
            ]);
        if self.snapshot {
            p.with_snapshot()
        } else {
            p
        }
    }

    /// The same math in plain Rust, in the interpreter's order.
    fn reference(&self, x: &[f64], version: u64) -> f64 {
        let scaled: f64 = x.iter().map(|v| v * self.scale).sum();
        let table: f64 = vec![version as f64; self.table as usize].iter().sum();
        scaled + table
    }
}

/// The two registered flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FlowKind {
    /// vscale → vshift → vsum.
    Linear,
    /// a = vscale(x); sadd(vsum(a), vsumsq(a)).
    Diamond,
}

impl FlowKind {
    fn workflow(self) -> Workflow {
        match self {
            FlowKind::Linear => {
                Workflow::linear("lin", ["vscale", "vshift", "vsum"]).expect("non-empty")
            }
            FlowKind::Diamond => {
                let mut b = Workflow::builder("dia");
                let a = b.step("vscale");
                let left = b.then("vsum", a);
                let right = b.then("vsumsq", a);
                b.join("sadd", [left.into(), right.into()]);
                b.build().expect("valid diamond")
            }
        }
    }

    fn reference(self, x: &[f64]) -> f64 {
        let a: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        match self {
            FlowKind::Linear => a.iter().map(|v| v + 1.0).sum(),
            FlowKind::Diamond => {
                let sum: f64 = a.iter().sum();
                let sum_sq: f64 = a.iter().map(|v| v * v).sum();
                sum + sum_sq
            }
        }
    }
}

/// An output to check against the plain-Rust reference once the
/// measured phase is over (so reference math is not billed to it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Check {
    Guest {
        spec: usize,
        version: u64,
        object: usize,
    },
    Flow {
        kind: FlowKind,
        object: usize,
    },
}

/// The seeded working set and its popularity.
struct WorkingSet {
    values: Vec<Value>,
    /// Cumulative Zipf weights over popularity ranks.
    cdf: Vec<f64>,
    /// Popularity rank → object index.
    by_rank: Vec<usize>,
}

impl WorkingSet {
    fn new(seed: u64) -> Self {
        let mut rng = stream_rng(seed, 2);
        // Sizes follow popularity rank on a fixed low-discrepancy
        // sequence, so every seed moves the same bytes per request; the
        // seed picks contents and which object holds which rank.
        let mut by_rank: Vec<usize> = (0..OBJECTS).collect();
        rng.shuffle(&mut by_rank);
        let mut values = vec![Value::Unit; OBJECTS];
        for (rank, &object) in by_rank.iter().enumerate() {
            let u = (rank as f64 * 0.618_033_988_749_895).fract();
            let n = (LOG2_LEN.0 + u * (LOG2_LEN.1 - LOG2_LEN.0)).exp2() as usize;
            values[object] = Value::F64s((0..n).map(|_| rng.gen::<f64>() - 0.5).collect());
        }
        let mut acc = 0.0;
        let cdf = (1..=OBJECTS)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        WorkingSet {
            values,
            cdf,
            by_rank,
        }
    }

    fn bytes(&self) -> u64 {
        self.values.iter().map(Value::wire_bytes).sum()
    }

    fn pick(&self, rng: &mut DetRng) -> usize {
        let u = rng.gen::<f64>() * self.cdf[OBJECTS - 1];
        let rank = self.cdf.partition_point(|&c| c < u).min(OBJECTS - 1);
        self.by_rank[rank]
    }
}

/// Everything one tenant client needs across both phases.
struct Tenant {
    client: KaasClient,
    tenant: String,
    rng: DetRng,
    /// Current version and full name of each guest spec.
    guests: Vec<(u64, String)>,
    issued: usize,
    checks: Vec<(Check, f64)>,
}

struct Shared {
    tally: Tally,
    set: WorkingSet,
    refs: Vec<ObjectRef>,
    flows: Vec<(FlowKind, WorkflowHandle)>,
    server: kaas_core::KaasServer,
}

impl Tenant {
    async fn request(&mut self, shared: &Shared, measured: bool) {
        let tally = &shared.tally;
        let traced = self.rng.gen_bool(TRACE_SHARE) && tally.traced;
        self.issued += 1;
        let issued = now();
        if self.issued.is_multiple_of(REREGISTER_EVERY) {
            // The writes beside the reads: a new version supersedes
            // the old, whose warm runners stop serving the bare name.
            let spec = (self.issued / REREGISTER_EVERY) % GUESTS.len();
            let (version, old) = self.guests[spec].clone();
            let program = GUESTS[spec].program(version + 1);
            if measured {
                tally.sent(2, issued);
            }
            match self.client.register_kernel(&self.tenant, &program).await {
                Ok(full) => {
                    if measured {
                        tally.ok(issued, None);
                    }
                    self.guests[spec] = (version + 1, full);
                }
                Err(e) => tally.err(measured, &e, false),
            }
            let removed_at = now();
            match self.client.remove_kernel(&old).await {
                Ok(1) if measured => tally.ok(removed_at, None),
                Ok(1) => {}
                Ok(n) => tally.violation(format!("removing {old} removed {n} versions")),
                Err(e) => tally.err(measured, &e, false),
            }
            return;
        }
        let object = shared.set.pick(&mut self.rng);
        let r = shared.refs[object];
        if measured {
            tally.sent(1, issued);
            tally.sample(&shared.server);
        }
        if self.rng.gen_bool(GUEST_SHARE) {
            let spec = self.rng.gen_range(0..GUESTS.len());
            let bare = format!("{}/{}", self.tenant, GUESTS[spec].name);
            let res = self
                .client
                .call(&bare)
                .arg_ref(r)
                .trace(traced)
                .send()
                .await;
            match res {
                Ok(inv) => {
                    let version = self.guests[spec].0;
                    self.record(
                        tally,
                        Check::Guest {
                            spec,
                            version,
                            object,
                        },
                        &inv.output,
                    );
                    if measured {
                        if inv.report.copy_in > Duration::ZERO {
                            tally.uploaded(r.bytes);
                        }
                        tally.ok(issued, Some(&inv.report));
                        if traced {
                            tally.traced_latency(inv.latency);
                        }
                    }
                }
                Err(e) => tally.err(measured, &e, false),
            }
        } else {
            let (kind, handle) = &shared.flows[self.rng.gen_range(0..shared.flows.len())];
            let res = self
                .client
                .flow(handle)
                .input_ref(r)
                .trace(traced)
                .send()
                .await;
            match res {
                Ok(run) => {
                    self.record(
                        tally,
                        Check::Flow {
                            kind: *kind,
                            object,
                        },
                        &run.output,
                    );
                    if measured {
                        let first = run.report.steps.first().and_then(|s| s.report.as_ref());
                        if first.is_some_and(|rep| rep.copy_in > Duration::ZERO) {
                            tally.uploaded(r.bytes);
                        }
                        tally.flow_latency(run.latency);
                        tally.ok(issued, None);
                    }
                }
                Err(e) => tally.err(measured, &e.error, false),
            }
        }
    }

    fn record(&mut self, tally: &Tally, check: Check, out: &Value) {
        match out.payload() {
            Value::F64(v) => self.checks.push((check, *v)),
            other => tally.violation(format!("{check:?}: non-scalar output {other:?}")),
        }
    }
}

async fn phase(tenants: Vec<Tenant>, shared: &Rc<Shared>, n: usize, measured: bool) -> Vec<Tenant> {
    let tasks: Vec<_> = tenants
        .into_iter()
        .map(|mut t| {
            let shared = Rc::clone(shared);
            spawn(async move {
                for _ in 0..n {
                    t.request(&shared, measured).await;
                }
                t
            })
        })
        .collect();
    let mut out = Vec::with_capacity(tasks.len());
    for t in tasks {
        out.push(t.await);
    }
    out
}

/// Checks every recorded output against the plain-Rust reference.
fn verify_outputs(tally: &Tally, set: &WorkingSet, tenants: &[Tenant]) {
    let mut memo: BTreeMap<Check, f64> = BTreeMap::new();
    for t in tenants {
        for &(check, got) in &t.checks {
            let want = *memo.entry(check).or_insert_with(|| match check {
                Check::Guest {
                    spec,
                    version,
                    object,
                } => GUESTS[spec].reference(floats(&set.values[object]).expect("F64s"), version),
                Check::Flow { kind, object } => {
                    kind.reference(floats(&set.values[object]).expect("F64s"))
                }
            });
            if got.to_bits() != want.to_bits() {
                tally.violation(format!("{check:?}: got {got}, reference {want}"));
            }
        }
    }
}

async fn setup(
    dep: &Deployment,
    seed: u64,
    sink: Option<&SpanSink>,
    set: &WorkingSet,
    tally: &Tally,
) -> (Vec<Tenant>, Vec<ObjectRef>, Vec<(FlowKind, WorkflowHandle)>) {
    let mut tenants = Vec::with_capacity(TENANTS);
    for i in 0..TENANTS {
        let tenant = format!("t{i}");
        let mut client = dep.local_client().await.with_tenant(tenant.clone());
        if let Some(s) = sink {
            client = client.with_tracer(s.clone());
        }
        let mut guests = Vec::new();
        for spec in &GUESTS {
            let full = client
                .register_kernel(&tenant, &spec.program(1))
                .await
                .expect("guest registration");
            guests.push((1, full));
        }
        tenants.push(Tenant {
            client,
            tenant,
            rng: stream_rng(seed, 100 + i as u64),
            guests,
            issued: 0,
            checks: Vec::new(),
        });
    }
    let client = &mut tenants[0].client;
    let mut refs = Vec::with_capacity(OBJECTS);
    for v in &set.values {
        let r = client.put(v.clone()).await.expect("put");
        client.seal(r).await.expect("seal");
        refs.push(r);
    }
    for (v, r) in set.values.iter().zip(&refs) {
        match client.get(*r).await {
            Ok(back) if &back == v => {}
            other => tally.violation(format!("get({r:?}) returned {other:?}, not the put value")),
        }
    }
    let mut flows = Vec::new();
    for kind in [FlowKind::Linear, FlowKind::Diamond] {
        let h = client
            .register_workflow(&kind.workflow())
            .await
            .expect("flow registration");
        flows.push((kind, h));
    }
    (tenants, refs, flows)
}

/// Runs one repeat as far as `mode` says; a traced repeat also
/// captures the layer-probe inputs.
pub fn run(seed: u64, mode: Mode) -> (Outcome, Option<Capture>) {
    let traced = mode == Mode::Traced;
    let clock = Stopwatch::start();
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let sink = traced.then(SpanSink::new);
        let set = WorkingSet::new(seed);
        // Device memory is half the working set, so residency churns —
        // but never below what every client's in-flight request can pin
        // at once (a linear flow holds three largest-size vectors), so
        // no request can fail with DeviceOom.
        let max_obj = set.values.iter().map(Value::wire_bytes).max().unwrap_or(0);
        let mem_bytes = (set.bytes() / 2).max(TENANTS as u64 * 4 * max_obj);
        let gpus = (0..GPUS)
            .map(|i| {
                let profile = GpuProfile {
                    mem_bytes,
                    ..GpuProfile::v100()
                };
                GpuDevice::new(DeviceId(i), profile).into()
            })
            .collect();
        let mut config = experiment_server_config();
        if let Some(s) = &sink {
            config = config.with_tracer(s.clone());
        }
        let dep = deploy(gpus, VecKernel::all(), config);
        let tally = Tally::new(SLO, traced);
        let (tenants, refs, flows) = setup(&dep, seed, sink.as_ref(), &set, &tally).await;
        let client_regs: Vec<_> = tenants
            .iter()
            .map(|t| t.client.metrics_registry().clone())
            .collect();
        let server_reg = dep.server.metrics_registry();
        let setup_s = clock.secs();
        if mode == Mode::Setup {
            return (Outcome::setup_only(setup_s), None);
        }
        let shared = Rc::new(Shared {
            tally,
            set,
            refs,
            flows,
            server: dep.server.clone(),
        });

        let tenants = phase(tenants, &shared, WARMUP_PER_CLIENT, false).await;
        shared.tally.measuring.set(true);
        let t0 = now();
        let before = RegSnap::pair(&server_reg, &client_regs);
        let cpu0 = thread_cpu_ns();
        let tenants = phase(tenants, &shared, MEASURED_PER_CLIENT, true).await;
        let cpu_ns = thread_cpu_ns() - cpu0;
        let after = RegSnap::pair(&server_reg, &client_regs);
        shared.tally.check_drained(&dep.server);
        verify_outputs(&shared.tally, &shared.set, &tenants);
        let measured = Measured {
            setup_s,
            cpu_ns,
            t0,
            gpus: GPUS as usize,
            server: (before.0, after.0),
            clients: (before.1, after.1),
            spans: sink.as_ref().map(SpanSink::spans).unwrap_or_default(),
        };
        let outcome = Outcome::new(&shared.tally, measured);
        let capture = sink.map(|sink| {
            let objects = shared.set.values.clone();
            let guests = GUESTS
                .iter()
                .flat_map(|g| objects.iter().take(8).map(|o| (g.program(1), o.clone())))
                .collect();
            let kernels = VecKernel::all()
                .into_iter()
                .filter(|k| k.name() != "sadd")
                .flat_map(|k| {
                    objects
                        .iter()
                        .take(8)
                        .map(move |o| (Rc::clone(&k), o.clone()))
                })
                .collect();
            Capture {
                sink,
                registry: server_reg.clone(),
                objects,
                mem_bytes,
                guests,
                kernels,
            }
        });
        (outcome, capture)
    })
}
