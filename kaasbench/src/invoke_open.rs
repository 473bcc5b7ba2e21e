//! `invoke_open`: an open loop of seeded Poisson arrivals of the tiny
//! compiled-in MCI kernel against eight warm V100s.
//!
//! Why: there is no guest, flow or object-store work, so the host time
//! goes almost entirely to the request path (client → net → dispatch
//! front door and shards → pool/runner → metrics → reply). Executor,
//! metrics-registry and dispatch optimisations show here.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use kaas_bench::common::{deploy, experiment_server_config, v100_cluster};
use kaas_core::{BatchCall, KaasClient, KaasServer, RoundRobin, RunnerConfig, SpanSink};
use kaas_kernels::{MonteCarlo, Value};
use kaas_simtime::rng::stream_rng;
use kaas_simtime::{now, sleep_until, spawn, JoinHandle, SimTime, Simulation};

use crate::host::{thread_cpu_ns, Stopwatch};
use crate::load::{Measured, Mode, Outcome, RegSnap, Tally};
use crate::probes::Capture;

/// The testbed: eight V100s, one dispatch shard per device.
const GPUS: u32 = 8;
/// Pre-connected clients serving the arrivals.
const CLIENTS: usize = 256;
/// Monte-Carlo samples per call, drawn per arrival from this range: real
/// compute stays far below the host cost of getting the call to the
/// runner.
const SAMPLES: std::ops::Range<u64> = 250..1_001;
/// Members of one coalesced batch frame.
const BATCH: usize = 16;
/// Share of arrivals that are batch frames.
const BATCH_SHARE: f64 = 0.05;
/// Share of single calls passing their input out-of-band.
const OOB_SHARE: f64 = 0.3;
/// Share of single calls traced in the traced pass.
const TRACE_SHARE: f64 = 0.1;
/// Offered load in requests per virtual second: about 80 % of the
/// unbatched capacity of this testbed (256 closed-loop clients reach
/// ≈195 k requests/s; the dispatch ceiling is 8 shards / 35 µs ≈ 228 k).
const RATE_RPS: f64 = 160_000.0;
/// Arrivals before the measured phase (cache and allocator warm-up).
const WARMUP_ARRIVALS: usize = 2_000;
/// Arrivals in the measured phase (≈28 k requests).
const MEASURED_ARRIVALS: usize = 16_000;
/// Latency limit counted from the request's due time: in-band calls
/// pay four modeled 300 µs serialization passes, so the limit sits just
/// above that floor plus dispatch and queueing.
const SLO: Duration = Duration::from_micros(1_500);

#[derive(Debug, Clone, Copy)]
enum Kind {
    Single { oob: bool, traced: bool },
    Batch,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    due: SimTime,
    kind: Kind,
    samples: u64,
    measured: bool,
}

struct State {
    server: KaasServer,
    tally: Tally,
    idle: RefCell<Vec<KaasClient>>,
    pending: RefCell<VecDeque<Job>>,
}

/// Arrival offsets and kinds, drawn from the seed.
fn schedule(seed: u64) -> Vec<(Duration, Kind, u64)> {
    let mut rng = stream_rng(seed, 1);
    let members_per_arrival = (1.0 - BATCH_SHARE) + BATCH_SHARE * BATCH as f64;
    let arrival_rate = RATE_RPS / members_per_arrival;
    let mut t = 0.0f64;
    (0..WARMUP_ARRIVALS + MEASURED_ARRIVALS)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / arrival_rate;
            let kind = if rng.gen_bool(BATCH_SHARE) {
                Kind::Batch
            } else {
                Kind::Single {
                    oob: rng.gen_bool(OOB_SHARE),
                    traced: rng.gen_bool(TRACE_SHARE),
                }
            };
            (Duration::from_secs_f64(t), kind, rng.gen_range(SAMPLES))
        })
        .collect()
}

fn check_mci(state: &State, out: &Value) {
    match out.payload() {
        Value::F64(v) if (v - 10f64.ln()).abs() < 0.5 => {}
        other => state
            .tally
            .violation(format!("mci output {other:?} is not near ln 10")),
    }
}

async fn run_job(state: &State, client: &mut KaasClient, job: Job) {
    let tally = &state.tally;
    let late = now().saturating_since(job.due);
    match job.kind {
        Kind::Single { oob, traced } => {
            if job.measured {
                tally.sent(1, job.due);
                if tally.traced {
                    tally.gen_late(late);
                }
            }
            let traced = traced && tally.traced;
            let mut call = client
                .call("mci")
                .arg(Value::U64(job.samples))
                .trace(traced);
            if oob {
                call = call.out_of_band();
            }
            match call.send().await {
                Ok(inv) => {
                    check_mci(state, &inv.output);
                    if job.measured {
                        tally.ok(job.due, Some(&inv.report));
                        if traced {
                            tally.traced_latency(inv.latency);
                        }
                    }
                }
                Err(e) => tally.err(job.measured, &e, false),
            }
        }
        Kind::Batch => {
            if job.measured {
                tally.sent(BATCH as u64, job.due);
                if tally.traced {
                    tally.gen_late(late);
                }
            }
            let mut batch = client.batch();
            for _ in 0..BATCH {
                batch = batch.call(BatchCall::new("mci").arg(Value::U64(job.samples)));
            }
            let members = match batch.send().await {
                Ok(members) if members.len() == BATCH => members,
                other => {
                    tally.violation(format!("batch frame failed: {other:?}"));
                    return;
                }
            };
            for member in members {
                match member {
                    Ok(inv) => {
                        check_mci(state, &inv.output);
                        if job.measured {
                            tally.ok(job.due, Some(&inv.report));
                        }
                    }
                    Err(e) => tally.err(job.measured, &e, false),
                }
            }
        }
    }
}

/// Serves `job`, then keeps serving jobs that queued while every
/// client was busy, then returns the client to the idle pool.
async fn serve(state: Rc<State>, mut client: KaasClient, mut job: Job) {
    loop {
        run_job(&state, &mut client, job).await;
        let next = state.pending.borrow_mut().pop_front();
        match next {
            Some(next) => job = next,
            None => break,
        }
    }
    state.idle.borrow_mut().push(client);
}

/// Runs one repeat as far as `mode` says; a traced repeat also
/// captures the layer-probe inputs.
pub fn run(seed: u64, mode: Mode) -> (Outcome, Option<Capture>) {
    let traced = mode == Mode::Traced;
    let clock = Stopwatch::start();
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let sink = traced.then(SpanSink::new);
        let mut config = experiment_server_config()
            .with_scheduler(RoundRobin::default())
            .with_autoscale(false)
            .with_runner(RunnerConfig {
                max_inflight: 16,
                ..RunnerConfig::default()
            });
        if let Some(s) = &sink {
            config = config.with_tracer(s.clone());
        }
        let dep = deploy(
            v100_cluster(GPUS),
            vec![Rc::new(MonteCarlo::seeded(seed))],
            config,
        );
        dep.server
            .prewarm("mci", GPUS as usize)
            .await
            .expect("prewarm");
        let mut idle = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            let client = dep.local_client().await;
            idle.push(match &sink {
                Some(s) => client.with_tracer(s.clone()),
                None => client,
            });
        }
        let client_regs: Vec<_> = idle.iter().map(|c| c.metrics_registry().clone()).collect();
        let arrivals = schedule(seed);
        let setup_s = clock.secs();
        if mode == Mode::Setup {
            return (Outcome::setup_only(setup_s), None);
        }

        let state = Rc::new(State {
            server: dep.server.clone(),
            tally: Tally::new(SLO, traced),
            idle: RefCell::new(idle),
            pending: RefCell::new(VecDeque::new()),
        });
        let server_reg = dep.server.metrics_registry();
        let start = now();
        let mut t0 = start;
        let mut cpu0 = 0;
        let mut before = (RegSnap::default(), RegSnap::default());
        let mut tasks: Vec<JoinHandle<()>> = Vec::new();
        for (i, (at, kind, samples)) in arrivals.into_iter().enumerate() {
            sleep_until(start + at).await;
            if i == WARMUP_ARRIVALS {
                state.tally.measuring.set(true);
                t0 = now();
                before = RegSnap::pair(&server_reg, &client_regs);
                cpu0 = thread_cpu_ns();
            }
            if i >= WARMUP_ARRIVALS && i % 8 == 0 {
                state.tally.sample(&state.server);
            }
            let job = Job {
                due: now(),
                kind,
                samples,
                measured: i >= WARMUP_ARRIVALS,
            };
            let client = state.idle.borrow_mut().pop();
            match client {
                Some(c) => tasks.push(spawn(serve(Rc::clone(&state), c, job))),
                None => state.pending.borrow_mut().push_back(job),
            }
        }
        for t in tasks {
            t.await;
        }
        let cpu_ns = thread_cpu_ns() - cpu0;
        let after = RegSnap::pair(&server_reg, &client_regs);
        state.tally.check_drained(&dep.server);
        let measured = Measured {
            setup_s,
            cpu_ns,
            t0,
            gpus: GPUS as usize,
            server: (before.0, after.0),
            clients: (before.1, after.1),
            spans: sink.as_ref().map(SpanSink::spans).unwrap_or_default(),
        };
        let outcome = Outcome::new(&state.tally, measured);
        let capture = sink.map(|sink| Capture {
            sink,
            registry: server_reg.clone(),
            objects: vec![Value::U64(SAMPLES.end - 1)],
            mem_bytes: kaas_accel::GpuProfile::v100().mem_bytes,
            guests: Vec::new(),
            kernels: vec![(
                Rc::new(MonteCarlo::seeded(seed)) as Rc<dyn kaas_kernels::Kernel>,
                Value::U64(SAMPLES.end - 1),
            )],
        });
        (outcome, capture)
    })
}
