//! Figure 13: autoscaling KaaS across eight GPUs under a growing number
//! of parallel clients (§5.5): one new client every ten seconds, four
//! in-flight tasks per runner, new runners started on fresh GPUs on
//! demand.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use kaas_core::{DispatchMode, FillFirst, RunnerConfig};
use kaas_simtime::{now, sleep, spawn, Simulation};

use crate::common::{deploy, experiment_server_config, v100_cluster, Figure, Series};
use crate::fig06::mm_input;

/// One sample of the experiment's time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSample {
    /// Experiment time (s).
    pub t: f64,
    /// Active parallel clients.
    pub clients: usize,
    /// Task runners started so far.
    pub runners: usize,
    /// Aggregate GPU utilization in percent (0–800 for eight GPUs).
    pub gpu_utilization_pct: f64,
    /// Mean completion time of tasks finished in the last window (s).
    pub task_completion: f64,
}

/// Runs the autoscaling experiment for `duration_s` of simulated time,
/// adding a client every `ramp_s` seconds; samples once per second.
/// Uses the default (sharded) dispatcher.
pub fn run_timeline(duration_s: u64, ramp_s: u64) -> Vec<TimelineSample> {
    run_timeline_with(duration_s, ramp_s, DispatchMode::default())
}

/// [`run_timeline`] with an explicit dispatch engine (the
/// `--dispatch=serialized` CLI flag keeps the historical baseline
/// reproducible).
pub fn run_timeline_with(duration_s: u64, ramp_s: u64, mode: DispatchMode) -> Vec<TimelineSample> {
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let config = experiment_server_config()
            .with_scheduler(FillFirst)
            .with_autoscale(true)
            .with_dispatch(mode)
            .with_runner(RunnerConfig {
                max_inflight: 4,
                ..RunnerConfig::default()
            });
        let dep = deploy(
            v100_cluster(8),
            vec![Rc::new(kaas_kernels::MatMul::new())],
            config,
        );
        let clients_active = Rc::new(RefCell::new(0usize));
        let completions: Rc<RefCell<Vec<(f64, f64)>>> = Rc::new(RefCell::new(Vec::new()));

        // Client spawner: one new looping client every ramp_s seconds.
        {
            let dep_net = dep.net.clone();
            let shm = dep.shm.clone();
            let clients_active = Rc::clone(&clients_active);
            let completions = Rc::clone(&completions);
            let end = now() + Duration::from_secs(duration_s);
            spawn(async move {
                loop {
                    if now() >= end {
                        break;
                    }
                    let clients_active2 = Rc::clone(&clients_active);
                    let completions2 = Rc::clone(&completions);
                    let net = dep_net.clone();
                    let shm = shm.clone();
                    *clients_active.borrow_mut() += 1;
                    spawn(async move {
                        let mut client = kaas_core::KaasClient::connect(
                            &net,
                            crate::common::KAAS_ADDR,
                            kaas_net::LinkProfile::loopback(),
                        )
                        .await
                        .expect("server listening")
                        .with_shared_memory(shm)
                        .with_serialization(kaas_net::SerializationProfile::numpy());
                        loop {
                            if now() >= end {
                                break;
                            }
                            let t0 = now();
                            if client
                                .call("matmul")
                                .arg(mm_input(10_000))
                                .out_of_band()
                                .send()
                                .await
                                .is_err()
                            {
                                break;
                            }
                            completions2
                                .borrow_mut()
                                .push((now().as_secs_f64(), (now() - t0).as_secs_f64()));
                            // Client-side turnaround: receive, log, and
                            // prepare the next invocation (§5.5: "some
                            // work ... is done on the client").
                            sleep(Duration::from_millis(500)).await;
                        }
                        *clients_active2.borrow_mut() -= 1;
                    });
                    sleep(Duration::from_secs(ramp_s)).await;
                }
            });
        }

        // Sampler: once per simulated second.
        let mut samples = Vec::with_capacity(duration_s as usize);
        let mut done_idx = 0usize;
        for t in 1..=duration_s {
            sleep(Duration::from_secs(1)).await;
            let gpu_util: f64 = dep
                .server
                .devices()
                .iter()
                .map(|d| d.as_gpu().utilization() * 100.0)
                .sum();
            let comp = completions.borrow();
            let recent = &comp[done_idx.min(comp.len())..];
            let task_completion = if recent.is_empty() {
                samples
                    .last()
                    .map(|s: &TimelineSample| s.task_completion)
                    .unwrap_or(0.0)
            } else {
                recent.iter().map(|&(_, d)| d).sum::<f64>() / recent.len() as f64
            };
            done_idx = comp.len();
            samples.push(TimelineSample {
                t: t as f64,
                clients: *clients_active.borrow(),
                runners: dep.server.snapshot().runners("matmul"),
                gpu_utilization_pct: gpu_util,
                task_completion,
            });
        }
        samples
    })
}

/// Reproduces Figure 13 (full run: 300 s, one client per 10 s).
pub fn run(quick: bool) -> Vec<Figure> {
    run_with(quick, DispatchMode::default())
}

/// [`run`] under an explicit dispatch engine
/// (`--bin fig13 -- --dispatch=serialized` for the one-shard serialized baseline).
pub fn run_with(quick: bool, mode: DispatchMode) -> Vec<Figure> {
    let (duration, ramp) = if quick { (120, 10) } else { (300, 10) };
    let samples = run_timeline_with(duration, ramp, mode);
    let mut fig = Figure::new(
        "fig13",
        "Autoscaling task runners under a growing client count",
        "experiment time (s)",
        "see series (clients / runners / GPU % / completion s)",
    );
    let mut clients = Series::new("Number of Clients");
    let mut runners = Series::new("Number of Task Runners");
    let mut util = Series::new("GPU Utilization (%)");
    let mut completion = Series::new("Task Completion Time (s)");
    for s in &samples {
        clients.push(s.t, s.clients as f64);
        runners.push(s.t, s.runners as f64);
        util.push(s.t, s.gpu_utilization_pct);
        completion.push(s.t, s.task_completion);
    }
    let final_clients = clients.last_y();
    let final_runners = runners.last_y();
    fig.note(format!(
        "{final_clients} clients served by {final_runners} runners at t={duration}s \
         (paper: 32 clients on 7 runners — client turnaround lets runners \
         oversubscribe their nominal 4-in-flight cap)"
    ));
    fig.series = vec![clients, runners, util, completion];
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runners_scale_with_demand() {
        let samples = run_timeline(120, 10);
        let early = &samples[14];
        let late = samples.last().unwrap();
        assert!(late.clients > early.clients);
        assert!(
            late.runners > early.runners,
            "runners should grow: early {early:?}, late {late:?}"
        );
        // Fewer runners than clients: each handles several in flight.
        assert!(late.runners < late.clients);
    }

    #[test]
    fn completion_time_stays_steady() {
        let samples = run_timeline(150, 10);
        let mid: Vec<f64> = samples[40..]
            .iter()
            .map(|s| s.task_completion)
            .filter(|&c| c > 0.0)
            .collect();
        let max = mid.iter().cloned().fold(f64::MIN, f64::max);
        let min = mid.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 2.0,
            "completion time should stay steady: {min:.2}–{max:.2} s"
        );
    }

    #[test]
    fn utilization_grows_with_runners() {
        let samples = run_timeline(120, 10);
        let early = samples[20].gpu_utilization_pct;
        let late = samples.last().unwrap().gpu_utilization_pct;
        assert!(late > early, "util should grow: {early} → {late}");
        assert!(late <= 800.0 + 1e-9);
    }

    #[test]
    fn runners_never_exceed_gpus() {
        let samples = run_timeline(120, 5);
        for s in &samples {
            assert!(s.runners <= 8, "{s:?}");
        }
    }
}
