//! Figure 12: strong and weak scaling of ResNet-50 inference across one
//! to eight V100 GPUs (§5.4), cold vs. warm.

use std::rc::Rc;

use kaas_core::{DispatchMode, RoundRobin, RunnerConfig};
use kaas_kernels::{ResNet50, Value};
use kaas_simtime::{now, spawn, Simulation};

use crate::common::{deploy, experiment_server_config, v100_cluster, Figure, Series};

/// Batches per the paper: 8 000 batches of eight images.
pub const BATCHES: u64 = 8_000;
/// Images per batch.
pub const BATCH_SIZE: u64 = 8;

/// Scaling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// Fixed total work (8 000 batches) over `n` GPUs.
    Strong,
    /// Work grows with devices (8 000 batches per GPU).
    Weak,
}

/// Completion time of the inference workload on `gpus` devices, under
/// the default (sharded) dispatcher.
///
/// `warm` pre-starts the runners outside the measured window; cold runs
/// include the (parallel) runner cold starts.
pub fn run_scaling(scaling: Scaling, gpus: u32, warm: bool, batches: u64) -> f64 {
    run_scaling_with(scaling, gpus, warm, batches, DispatchMode::default())
}

/// [`run_scaling`] with an explicit dispatch engine —
/// [`serialized_baseline`](crate::common::serialized_baseline)
/// reproduces the historical router (the `--dispatch=serialized` CLI
/// flag routes here).
pub fn run_scaling_with(
    scaling: Scaling,
    gpus: u32,
    warm: bool,
    batches: u64,
    mode: DispatchMode,
) -> f64 {
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let config = experiment_server_config()
            .with_scheduler(RoundRobin::default())
            .with_autoscale(false)
            .with_dispatch(mode)
            .with_runner(RunnerConfig {
                max_inflight: 4,
                ..RunnerConfig::default()
            });
        let dep = deploy(v100_cluster(gpus), vec![Rc::new(ResNet50::new())], config);
        let total_batches = match scaling {
            Scaling::Strong => batches,
            Scaling::Weak => batches * gpus as u64,
        };
        let t0 = now();
        // Cold runs start the runners inside the measured window (all in
        // parallel — "GPUs can be initialized in parallel, this affects
        // task completion times in all experiments equally").
        if warm {
            let warmup = dep.server.prewarm("resnet50", gpus as usize);
            warmup.await.expect("prewarm");
        }
        let measured_from = if warm { now() } else { t0 };
        if !warm {
            dep.server
                .prewarm("resnet50", gpus as usize)
                .await
                .expect("prewarm");
        }
        // One driver per GPU: batches execute back-to-back per device,
        // as in the paper's 8.75 ms/batch pipeline.
        let workers = (gpus as u64).min(total_batches);
        let per_worker = total_batches / workers;
        let remainder = total_batches % workers;
        let mut handles = Vec::new();
        for w in 0..workers {
            let mut client = dep.local_client().await;
            let quota = per_worker + u64::from(w < remainder);
            handles.push(spawn(async move {
                for _ in 0..quota {
                    client
                        .call("resnet50")
                        .arg(Value::U64(BATCH_SIZE))
                        .out_of_band()
                        .send()
                        .await
                        .expect("inference succeeds");
                }
            }));
        }
        for h in handles {
            h.await;
        }
        (now() - measured_from).as_secs_f64()
    })
}

/// Reproduces Figures 12a (strong) and 12b (weak).
pub fn run(quick: bool) -> Vec<Figure> {
    run_with(quick, DispatchMode::default())
}

/// [`run`] under an explicit dispatch engine, so the serialized
/// baseline stays reproducible from the CLI
/// (`--bin fig12 -- --dispatch=serialized`).
pub fn run_with(quick: bool, mode: DispatchMode) -> Vec<Figure> {
    let batches = if quick { 400 } else { BATCHES };
    let gpu_counts: &[u32] = if quick {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8]
    };
    let mut figs = Vec::new();
    for (scaling, id, title) in [
        (
            Scaling::Strong,
            "fig12a",
            "Strong scaling (fixed total batches)",
        ),
        (Scaling::Weak, "fig12b", "Weak scaling (8k batches per GPU)"),
    ] {
        let mut fig = Figure::new(id, title, "number of GPUs", "task completion time (s)");
        let mut cold = Series::new("Cold");
        let mut warmed = Series::new("Warm");
        for &g in gpu_counts {
            cold.push(
                g as f64,
                run_scaling_with(scaling, g, false, batches, mode.clone()),
            );
            warmed.push(
                g as f64,
                run_scaling_with(scaling, g, true, batches, mode.clone()),
            );
        }
        let speedup = warmed.first_y() / warmed.last_y();
        let delta = cold.first_y() - warmed.first_y();
        fig.note(match scaling {
            Scaling::Strong => format!(
                "warm speedup 1→8 GPUs: {speedup:.2}× (paper: 70.02 s → 8.49 s ≈ 8.2×); \
                 cold adds {delta:.2} s flat (paper: 1.22 s)"
            ),
            Scaling::Weak => format!(
                "weak scaling 1→8 GPUs changes completion by {:.1}% \
                 (paper: 74.52 s → 76.95 s ≈ +3.3%)",
                100.0 * (warmed.last_y() / warmed.first_y() - 1.0)
            ),
        });
        fig.series = vec![cold, warmed];
        figs.push(fig);
    }
    figs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_scaling_is_near_linear() {
        let one = run_scaling(Scaling::Strong, 1, true, 400);
        let eight = run_scaling(Scaling::Strong, 8, true, 400);
        let speedup = one / eight;
        assert!(
            (6.5..8.5).contains(&speedup),
            "strong-scaling speedup {speedup} (paper: ≈8.2×)"
        );
    }

    #[test]
    fn weak_scaling_is_near_flat() {
        let one = run_scaling(Scaling::Weak, 1, true, 400);
        let eight = run_scaling(Scaling::Weak, 8, true, 400);
        let growth = eight / one;
        assert!(
            (0.98..1.15).contains(&growth),
            "weak-scaling growth {growth} (paper: ≈1.03×)"
        );
    }

    #[test]
    fn cold_start_penalty_is_flat_across_gpu_counts() {
        let d1 = run_scaling(Scaling::Strong, 1, false, 200)
            - run_scaling(Scaling::Strong, 1, true, 200);
        let d8 = run_scaling(Scaling::Strong, 8, false, 200)
            - run_scaling(Scaling::Strong, 8, true, 200);
        // Parallel initialization: the penalty does not scale with GPUs.
        assert!((d1 - d8).abs() < 0.5, "d1={d1}, d8={d8}");
        // And it sits near the V100's 1.22 s context creation plus spawn.
        assert!(
            (1.0..2.2).contains(&d1),
            "cold penalty {d1}s (paper: 1.22 s)"
        );
    }

    #[test]
    fn one_gpu_full_run_matches_paper_scale() {
        // 400 batches at ≈8.75 ms/batch ≈ 3.5 s on one GPU — the same
        // per-batch rate behind the paper's 70.02 s for 8 000 batches.
        let t = run_scaling(Scaling::Strong, 1, true, 400);
        let per_batch = t / 400.0;
        assert!(
            (0.006..0.012).contains(&per_batch),
            "per-batch time {per_batch}s (paper: ≈8.75 ms)"
        );
    }
}
