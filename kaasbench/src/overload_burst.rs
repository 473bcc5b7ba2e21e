//! `overload_burst`: the controlled arm of the metastable-failure bench
//! (one 200 µs dispatch shard, ~72 % base load, 3 ms deadlines) with
//! its 10× client burst repeated, and a seeded share of hedged calls.
//!
//! Why: it drives the dispatch and admission code down its reject
//! path — AIMD clamping, queue-cap sheds, dequeue ejection,
//! `retry_after`-paced retries and budget denials. An optimisation that
//! speeds the accept path in `invoke_open` but slows shedding or retry
//! timers shows here.

use std::rc::Rc;
use std::time::Duration;

use kaas_bench::common::{deploy, experiment_server_config, v100_cluster};
use kaas_bench::overload::{BASE_CLIENTS, BURST_CLIENTS, DEADLINE, GPUS, OVERHEAD, SAMPLES};
use kaas_core::{
    AimdConfig, ClientRetryConfig, DispatchMode, ExponentialBackoff, InvokeError, KaasClient,
    KaasServer, RetryBudget, RetryBudgetConfig, RoundRobin, RunnerConfig, ShardConfig, SpanSink,
};
use kaas_kernels::{MonteCarlo, Value};
use kaas_simtime::rng::{stream_rng, DetRng};
use kaas_simtime::{now, sleep, sleep_until, spawn, SimTime, Simulation};

use crate::host::{thread_cpu_ns, Stopwatch};
use crate::load::{Measured, Mode, Outcome, RegSnap, Tally};
use crate::probes::Capture;

/// Monte-Carlo samples per call, drawn per call up to the overload
/// bench's size.
const SAMPLE_RANGE: std::ops::Range<u64> = 250..SAMPLES + 1;
/// Mean think time of the base and burst clients (as in the overload
/// bench); each think is drawn from an exponential distribution, so the
/// closed loop does not settle into a queue-free periodic schedule.
const BASE_THINK: Duration = Duration::from_millis(5);
const BURST_THINK: Duration = Duration::from_millis(2);
/// Virtual time before the measured phase.
const WARMUP: Duration = Duration::from_millis(300);
/// Bursts in the measured phase, one per second of virtual time; each
/// starts 300 ms into its second.
const BURSTS: u32 = 8;
/// Length of the measured phase.
const MEASURE: Duration = Duration::from_secs(BURSTS as u64);
const BURST_LEN: Duration = Duration::from_millis(150);
/// Share of base calls that hedge, and the hedge delay.
const HEDGE_SHARE: f64 = 0.1;
const HEDGE_DELAY: Duration = Duration::from_micros(1_500);
/// Share of calls traced in the traced pass.
const TRACE_SHARE: f64 = 0.1;
/// Latency limit per request, counted across retries.
const SLO: Duration = DEADLINE;

fn retry(seed: u64, stream: u64, budget: &Rc<RetryBudget>) -> ClientRetryConfig {
    ClientRetryConfig::new(4)
        .with_backoff(
            ExponentialBackoff::new(Duration::from_millis(1)).with_jitter(0.5, seed ^ stream),
        )
        .with_budget(Rc::clone(budget))
}

struct Shared {
    tally: Tally,
    server: KaasServer,
}

/// One closed-loop client: call, think, repeat until `stop`.
async fn client_loop(
    mut client: KaasClient,
    mut rng: DetRng,
    stop: SimTime,
    think: Duration,
    hedge_share: f64,
    shared: Rc<Shared>,
) -> (KaasClient, DetRng) {
    let tally = &shared.tally;
    while now() < stop {
        let measured = tally.measuring.get();
        let traced = rng.gen_bool(TRACE_SHARE) && tally.traced;
        let hedged = rng.gen_bool(hedge_share);
        let samples = rng.gen_range(SAMPLE_RANGE);
        let issued = now();
        let seq0 = client.requests_sent();
        let hedges0 = client.metrics_registry().counter("hedges.sent");
        if measured {
            tally.sent(1, issued);
        }
        let mut call = client
            .call("mci")
            .arg(Value::U64(samples))
            .deadline(DEADLINE)
            .timeout(DEADLINE)
            .trace(traced);
        if hedged {
            call = call.hedge(HEDGE_DELAY);
        }
        let res = call.send().await;
        if measured {
            let attempts = client.requests_sent() - seq0;
            let hedges = client.metrics_registry().counter("hedges.sent") - hedges0;
            tally.retried(attempts.saturating_sub(1 + hedges));
            tally.sample(&shared.server);
        }
        match res {
            Ok(inv) => {
                match inv.output.payload() {
                    Value::F64(v) if (v - 10f64.ln()).abs() < 0.5 => {}
                    other => tally.violation(format!("mci output {other:?} is not near ln 10")),
                }
                if measured {
                    tally.ok(issued, Some(&inv.report));
                    if traced {
                        tally.traced_latency(inv.latency);
                    }
                }
            }
            Err(e) => {
                let allowed = matches!(
                    e,
                    InvokeError::Overloaded { .. }
                        | InvokeError::TimedOut
                        | InvokeError::DeadlineExceeded
                );
                tally.err(measured, &e, allowed);
            }
        }
        let u: f64 = rng.gen();
        sleep(think.mul_f64(-(1.0 - u).ln())).await;
    }
    (client, rng)
}

/// Runs one repeat as far as `mode` says; a traced repeat also
/// captures the layer-probe inputs.
pub fn run(seed: u64, mode: Mode) -> (Outcome, Option<Capture>) {
    let traced = mode == Mode::Traced;
    let clock = Stopwatch::start();
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let sink = traced.then(SpanSink::new);
        let shard = ShardConfig {
            shards: 1,
            queue_cap: Some(32),
            ..ShardConfig::default()
        };
        let mut config = experiment_server_config()
            .with_scheduler(RoundRobin::default())
            .with_autoscale(false)
            .with_dispatch_overhead(OVERHEAD)
            .with_dispatch(DispatchMode::Sharded(shard))
            .with_runner(RunnerConfig {
                max_inflight: 16,
                ..RunnerConfig::default()
            })
            .with_adaptive_admission(
                AimdConfig::default()
                    .with_target_queue_wait(Duration::from_millis(1))
                    .with_limit_range(4, 32)
                    .with_initial_limit(16)
                    .with_cooldown(Duration::from_millis(5)),
            );
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
        let budget = Rc::new(RetryBudget::new(RetryBudgetConfig::default()));
        let mut clients = Vec::with_capacity(BASE_CLIENTS + BURST_CLIENTS);
        for i in 0..BASE_CLIENTS + BURST_CLIENTS {
            let mut c = dep
                .local_client()
                .await
                .with_retry(retry(seed, i as u64, &budget));
            if let Some(s) = &sink {
                c = c.with_tracer(s.clone());
            }
            clients.push((c, stream_rng(seed, 1_000 + i as u64)));
        }
        let client_regs: Vec<_> = clients
            .iter()
            .map(|(c, _)| c.metrics_registry().clone())
            .collect();
        let server_reg = dep.server.metrics_registry();
        let setup_s = clock.secs();
        if mode == Mode::Setup {
            return (Outcome::setup_only(setup_s), None);
        }

        let shared = Rc::new(Shared {
            tally: Tally::new(SLO, traced),
            server: dep.server.clone(),
        });
        let start = now();
        let t0 = start + WARMUP;
        let stop = t0 + MEASURE;
        let mut burst: Vec<_> = clients.split_off(BASE_CLIENTS);
        let base: Vec<_> = clients
            .into_iter()
            .map(|(c, rng)| {
                spawn(client_loop(
                    c,
                    rng,
                    stop,
                    BASE_THINK,
                    HEDGE_SHARE,
                    Rc::clone(&shared),
                ))
            })
            .collect();

        sleep_until(t0).await;
        shared.tally.measuring.set(true);
        let before = RegSnap::pair(&server_reg, &client_regs);
        let cpu0 = thread_cpu_ns();
        for b in 0..BURSTS {
            let at = Duration::from_millis(1_000 * u64::from(b) + 300);
            sleep_until(t0 + at).await;
            let until = t0 + at + BURST_LEN;
            let tasks: Vec<_> = burst
                .drain(..)
                .map(|(c, rng)| {
                    spawn(client_loop(
                        c,
                        rng,
                        until,
                        BURST_THINK,
                        0.0,
                        Rc::clone(&shared),
                    ))
                })
                .collect();
            for t in tasks {
                burst.push(t.await);
            }
        }
        sleep_until(stop).await;
        shared.tally.measuring.set(false);
        for t in base {
            t.await;
        }
        // Losing hedges and timed-out attempts may still be queued or
        // running; the accounting check needs a drained server.
        for _ in 0..1_000 {
            let snap = dep.server.snapshot();
            if snap.total_in_flight() == 0 && snap.dispatch_queued == 0 {
                break;
            }
            sleep(Duration::from_millis(1)).await;
        }
        let cpu_ns = thread_cpu_ns() - cpu0;
        let after = RegSnap::pair(&server_reg, &client_regs);
        shared.tally.check_drained(&dep.server);
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
        let capture = sink.map(|sink| Capture {
            sink,
            registry: server_reg.clone(),
            objects: vec![Value::U64(SAMPLES)],
            mem_bytes: kaas_accel::GpuProfile::v100().mem_bytes,
            guests: Vec::new(),
            kernels: vec![(
                Rc::new(MonteCarlo::seeded(seed)) as Rc<dyn kaas_kernels::Kernel>,
                Value::U64(SAMPLES),
            )],
        });
        (outcome, capture)
    })
}
