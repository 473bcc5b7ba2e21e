//! [`SharedProcessor`]: a demand-weighted processor-sharing compute
//! resource.
//!
//! Models spatial sharing of an accelerator's compute fabric (e.g. Nvidia
//! MPS, Fig. 4b of the paper). `capacity` is the *standalone sustained
//! rate* of a resident kernel; each kernel *j* additionally declares a
//! `demand` dⱼ ∈ (0, 1] — the fraction of the device it occupies (grid
//! size vs. SM count). While the device is under-subscribed (Σd ≤ 1)
//! every kernel runs at its standalone rate (the paper's Fig. 13
//! observation that one GPU absorbs four matrix multiplications "without
//! significant impact"); once over-subscribed, all rates shrink by the
//! common contention factor:
//!
//! ```text
//! rate_j = capacity · min(1, 1 / Σ d_i)
//! ```
//!
//! which yields the Fig. 9 spatial-sharing slowdown while conserving the
//! device's aggregate peak of `capacity / d`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use kaas_simtime::sync::Event;
use kaas_simtime::{now, timeout, SimTime};

/// Work smaller than one nanosecond at full capacity counts as done
/// (absorbs floating-point settling error).
fn epsilon(capacity: f64) -> f64 {
    capacity * 1e-9
}

#[derive(Debug, Clone, Copy)]
struct Job {
    remaining: f64,
    demand: f64,
}

struct PsState {
    capacity: f64,
    jobs: BTreeMap<u64, Job>,
    total_demand: f64,
    next_id: u64,
    last_settle: SimTime,
    epoch: Event,
    busy_seconds: f64,
}

impl PsState {
    /// The common contention factor min(1, 1/Σd).
    fn contention(&self) -> f64 {
        (1.0 / self.total_demand.max(1.0)).min(1.0)
    }

    fn rate(&self) -> f64 {
        self.capacity * self.contention()
    }

    /// Advances all jobs to `t` at the current (constant) rates.
    fn settle(&mut self, t: SimTime) {
        let dt = t.saturating_since(self.last_settle).as_secs_f64();
        self.last_settle = t;
        if dt == 0.0 || self.jobs.is_empty() {
            return;
        }
        self.busy_seconds += dt * self.total_demand.min(1.0);
        let rate = self.rate();
        for job in self.jobs.values_mut() {
            job.remaining = (job.remaining - dt * rate).max(0.0);
        }
    }

    /// Signals a rate change to every waiting job.
    fn bump_epoch(&mut self) {
        let old = std::mem::replace(&mut self.epoch, Event::new());
        old.set();
    }

    fn recompute_demand(&mut self) {
        self.total_demand = self.jobs.values().map(|j| j.demand).sum();
    }
}

/// A demand-weighted processor-sharing compute resource.
///
/// # Examples
///
/// ```
/// use kaas_accel::SharedProcessor;
/// use kaas_simtime::{Simulation, spawn};
///
/// let mut sim = Simulation::new();
/// sim.block_on(async {
///     let ps = SharedProcessor::new(100.0); // 100 flop/s
///     let ps2 = ps.clone();
///     // Two full-demand 100-flop jobs sharing the processor: 2 s each.
///     let a = spawn(async move { ps2.execute(100.0).await });
///     let b = ps.execute(100.0).await;
///     assert_eq!(b.as_secs_f64(), 2.0);
///     assert_eq!(a.await.as_secs_f64(), 2.0);
/// });
/// ```
#[derive(Clone)]
pub struct SharedProcessor {
    state: Rc<RefCell<PsState>>,
}

impl std::fmt::Debug for SharedProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("SharedProcessor")
            .field("capacity", &s.capacity)
            .field("active_jobs", &s.jobs.len())
            .field("total_demand", &s.total_demand)
            .finish()
    }
}

impl SharedProcessor {
    /// Creates a processor with `capacity` work units per second.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "capacity must be positive and finite, got {capacity}"
        );
        SharedProcessor {
            state: Rc::new(RefCell::new(PsState {
                capacity,
                jobs: BTreeMap::new(),
                total_demand: 0.0,
                next_id: 0,
                last_settle: SimTime::ZERO,
                epoch: Event::new(),
                busy_seconds: 0.0,
            })),
        }
    }

    /// The configured capacity in work units per second.
    pub fn capacity(&self) -> f64 {
        self.state.borrow().capacity
    }

    /// Number of currently resident jobs.
    pub fn active_jobs(&self) -> usize {
        self.state.borrow().jobs.len()
    }

    /// Instantaneous utilization in `[0, 1]`: total resident demand,
    /// capped at 1 (a fully subscribed device).
    pub fn current_load(&self) -> f64 {
        self.state.borrow().total_demand.min(1.0)
    }

    /// Utilization-weighted busy time (device-seconds at full activity)
    /// accumulated since construction.
    pub fn busy_seconds(&self) -> f64 {
        let mut s = self.state.borrow_mut();
        let t = kaas_simtime::Handle::try_with_current(kaas_simtime::Handle::now)
            .unwrap_or(s.last_settle);
        s.settle(t);
        s.busy_seconds
    }

    /// Executes `work` units at full demand; see
    /// [`execute_with_demand`](Self::execute_with_demand).
    pub async fn execute(&self, work: f64) -> Duration {
        self.execute_with_demand(work, 1.0).await
    }

    /// Executes `work` units with standalone occupancy `demand` ∈ (0, 1],
    /// sharing capacity with concurrent jobs proportionally to demand.
    /// Returns the occupancy duration (arrival to completion).
    ///
    /// Zero work completes immediately.
    ///
    /// # Panics
    ///
    /// Panics if `work` is negative/NaN or `demand` is outside `(0, 1]`.
    pub async fn execute_with_demand(&self, work: f64, demand: f64) -> Duration {
        assert!(work >= 0.0 && work.is_finite(), "invalid work: {work}");
        assert!(
            demand > 0.0 && demand <= 1.0,
            "demand must be in (0, 1], got {demand}"
        );
        let start = now();
        if work == 0.0 {
            return Duration::ZERO;
        }
        let id = {
            let mut s = self.state.borrow_mut();
            s.settle(start);
            let id = s.next_id;
            s.next_id += 1;
            s.jobs.insert(
                id,
                Job {
                    remaining: work,
                    demand,
                },
            );
            s.recompute_demand();
            s.bump_epoch();
            id
        };
        loop {
            let (epoch, finish_in) = {
                let s = self.state.borrow();
                let job = s.jobs[&id];
                (
                    s.epoch.clone(),
                    Duration::from_secs_f64(job.remaining / s.rate()),
                )
            };
            match timeout(finish_in, epoch.wait()).await {
                Err(_) => {
                    // Ran undisturbed until our estimated finish: settle and
                    // check we are really done (guards rounding).
                    let mut s = self.state.borrow_mut();
                    let t = now();
                    s.settle(t);
                    let eps = epsilon(s.capacity);
                    if s.jobs[&id].remaining <= eps {
                        s.jobs.remove(&id);
                        s.recompute_demand();
                        s.bump_epoch();
                        return t - start;
                    }
                }
                Ok(()) => {
                    // Rates shifted (arrival/departure); re-estimate. The
                    // epoch bumper already settled the state.
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_simtime::{sleep, spawn, Simulation};

    #[test]
    fn single_job_runs_at_full_rate() {
        let mut sim = Simulation::new();
        let d = sim.block_on(async {
            let ps = SharedProcessor::new(1000.0);
            ps.execute(500.0).await
        });
        assert!((d.as_secs_f64() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn zero_work_is_instant() {
        let mut sim = Simulation::new();
        let d = sim.block_on(async { SharedProcessor::new(1.0).execute(0.0).await });
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    fn equal_jobs_share_equally() {
        let mut sim = Simulation::new();
        let (a, b) = sim.block_on(async {
            let ps = SharedProcessor::new(100.0);
            let ps2 = ps.clone();
            let h = spawn(async move { ps2.execute(100.0).await });
            let b = ps.execute(100.0).await;
            (h.await, b)
        });
        assert!((a.as_secs_f64() - 2.0).abs() < 1e-6);
        assert!((b.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn low_demand_jobs_coexist_without_slowdown() {
        let mut sim = Simulation::new();
        let times = sim.block_on(async {
            let ps = SharedProcessor::new(100.0);
            let mut hs = Vec::new();
            // Four jobs at demand 0.25 fit exactly: each runs at its full
            // standalone rate of 100/s.
            for _ in 0..4 {
                let ps = ps.clone();
                hs.push(spawn(
                    async move { ps.execute_with_demand(100.0, 0.25).await },
                ));
            }
            let mut out = Vec::new();
            for h in hs {
                out.push(h.await.as_secs_f64());
            }
            out
        });
        for t in times {
            assert!((t - 1.0).abs() < 1e-6, "expected 1 s, got {t}");
        }
    }

    #[test]
    fn oversubscription_divides_proportionally() {
        let mut sim = Simulation::new();
        let times = sim.block_on(async {
            let ps = SharedProcessor::new(100.0);
            let mut hs = Vec::new();
            // Two jobs at demand 0.7 oversubscribe (Σ=1.4): both slow to
            // 100/1.4 ≈ 71.4/s.
            for _ in 0..2 {
                let ps = ps.clone();
                hs.push(spawn(
                    async move { ps.execute_with_demand(100.0, 0.7).await },
                ));
            }
            let mut out = Vec::new();
            for h in hs {
                out.push(h.await.as_secs_f64());
            }
            out
        });
        for t in times {
            assert!((t - 1.4).abs() < 1e-6, "expected 1.4 s, got {t}");
        }
    }

    #[test]
    fn late_arrival_slows_resident_job() {
        let mut sim = Simulation::new();
        let (first, second) = sim.block_on(async {
            let ps = SharedProcessor::new(100.0);
            let ps2 = ps.clone();
            // Job A: 100 units, alone for 0.5 s (50 done), then shares.
            let a = spawn(async move { ps2.execute(100.0).await });
            sleep(Duration::from_millis(500)).await;
            let ps3 = ps.clone();
            let b = spawn(async move { ps3.execute(100.0).await });
            (a.await, b.await)
        });
        // A: 0.5 s alone + 1.0 s shared (50 units at 50/s) = 1.5 s total.
        assert!((first.as_secs_f64() - 1.5).abs() < 1e-6, "A took {first:?}");
        // B: shares for 1.0 s (50 done when A leaves), then 0.5 s alone.
        assert!(
            (second.as_secs_f64() - 1.5).abs() < 1e-6,
            "B took {second:?}"
        );
    }

    #[test]
    fn throughput_is_conserved_under_sharing() {
        // Total completion time of n equal full-demand jobs equals the
        // serial total (PS conserves work).
        let mut sim = Simulation::new();
        let t_end = sim.block_on(async {
            let ps = SharedProcessor::new(10.0);
            let mut hs = Vec::new();
            for _ in 0..5 {
                let ps = ps.clone();
                hs.push(spawn(async move { ps.execute(10.0).await }));
            }
            for h in hs {
                h.await;
            }
            now()
        });
        assert!((t_end.as_secs_f64() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn busy_seconds_weighted_by_utilization() {
        let mut sim = Simulation::new();
        let busy = sim.block_on(async {
            let ps = SharedProcessor::new(100.0);
            // Demand 0.5 for 1 s of occupancy (100 units at the full
            // 100/s standalone rate): busy 0.5 device-seconds.
            ps.execute_with_demand(100.0, 0.5).await;
            sleep(Duration::from_secs(5)).await;
            // Full demand 1 s: busy 1.0.
            ps.execute(100.0).await;
            ps.busy_seconds()
        });
        assert!((busy - 1.5).abs() < 1e-6, "busy={busy}");
    }

    #[test]
    fn active_jobs_and_load_reflect_residency() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let ps = SharedProcessor::new(10.0);
            assert_eq!(ps.active_jobs(), 0);
            assert_eq!(ps.current_load(), 0.0);
            let ps2 = ps.clone();
            let h = spawn(async move { ps2.execute_with_demand(5.0, 0.5).await });
            sleep(Duration::from_millis(100)).await;
            assert_eq!(ps.active_jobs(), 1);
            assert!((ps.current_load() - 0.5).abs() < 1e-12);
            h.await;
            assert_eq!(ps.active_jobs(), 0);
        });
    }

    #[test]
    fn unequal_jobs_finish_in_size_order() {
        let mut sim = Simulation::new();
        let (small, large) = sim.block_on(async {
            let ps = SharedProcessor::new(100.0);
            let ps2 = ps.clone();
            let l = spawn(async move { ps2.execute(300.0).await });
            let s = ps.execute(100.0).await;
            (s, l.await)
        });
        // Small: shares at 50/s for 2 s => done at t=2.
        assert!((small.as_secs_f64() - 2.0).abs() < 1e-6, "small={small:?}");
        // Large: 100 done by t=2, 200 left alone at 100/s => done at t=4.
        assert!((large.as_secs_f64() - 4.0).abs() < 1e-6, "large={large:?}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = SharedProcessor::new(0.0);
    }

    #[test]
    #[should_panic(expected = "demand")]
    fn excess_demand_rejected() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            SharedProcessor::new(1.0)
                .execute_with_demand(1.0, 1.5)
                .await;
        });
    }
}
