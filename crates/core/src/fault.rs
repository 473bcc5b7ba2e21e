//! Deterministic fault injection: seeded failure timelines for chaos
//! testing the control plane.
//!
//! A [`FaultPlan`] is a schedule of [`FaultEvent`]s — runner crashes,
//! device offline/online flaps, link latency spikes, and dropped frames
//! — either hand-built with [`FaultPlan::push`] or drawn from a seed
//! with [`FaultPlan::storm`]. The same seed always yields the same
//! timeline, so a chaos run replays byte-for-byte.
//!
//! A [`FaultInjector`] binds a plan to a live [`KaasServer`] (and
//! optionally to client [`LinkFault`] handles) and drives it in virtual
//! time from a background task. Every applied fault is counted in the
//! server's metrics registry (`faults.injected` plus a per-kind
//! counter), recorded on a `fault` trace track when the server has a
//! tracer, and appended to a shared [`FaultLog`] so tests and examples
//! can print a recovery timeline.
//!
//! ```
//! use kaas_core::{FaultPlan, StormConfig};
//!
//! let storm = StormConfig::default();
//! let a = FaultPlan::storm(7, &storm);
//! let b = FaultPlan::storm(7, &storm);
//! assert_eq!(a.events(), b.events()); // same seed ⇒ same timeline
//! ```

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use kaas_accel::DeviceId;
use kaas_net::LinkFault;
use kaas_simtime::rng::det_rng;
use kaas_simtime::{now, sleep, spawn, JoinHandle, SimTime};

use crate::server::KaasServer;

/// One injectable failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Kill the runner currently serving `kernel` (first usable slot).
    RunnerCrash {
        /// Kernel whose runner is crashed.
        kernel: String,
    },
    /// Take a device offline (crashing its runners), bringing it back
    /// after `down_for`.
    DeviceOffline {
        /// The device to flap.
        device: DeviceId,
        /// How long the device stays offline.
        down_for: Duration,
    },
    /// Add `extra` propagation delay to every registered link for
    /// `lasting`, then restore.
    LinkDelaySpike {
        /// Extra one-way latency while the spike lasts.
        extra: Duration,
        /// Spike duration.
        lasting: Duration,
    },
    /// Silently drop the next `frames` frames on one registered link
    /// (chosen round-robin across events).
    LinkDrop {
        /// Number of frames to drop.
        frames: u32,
    },
    /// The next runner cold start pays an extra `extra` of spawn time
    /// (contended host, cold page cache).
    SlowStart {
        /// Extra process-spawn time for the next cold start.
        extra: Duration,
    },
}

impl Fault {
    /// Stable kind label (used as the `faults.<kind>` counter suffix).
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::RunnerCrash { .. } => "runner-crash",
            Fault::DeviceOffline { .. } => "device-offline",
            Fault::LinkDelaySpike { .. } => "link-delay",
            Fault::LinkDrop { .. } => "link-drop",
            Fault::SlowStart { .. } => "slow-start",
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::RunnerCrash { kernel } => write!(f, "crash runner serving {kernel}"),
            Fault::DeviceOffline { device, down_for } => {
                write!(f, "{device} offline for {down_for:?}")
            }
            Fault::LinkDelaySpike { extra, lasting } => {
                write!(f, "link delay +{extra:?} for {lasting:?}")
            }
            Fault::LinkDrop { frames } => write!(f, "drop {frames} frame(s)"),
            Fault::SlowStart { extra } => write!(f, "next cold start +{extra:?}"),
        }
    }
}

/// A fault scheduled at an offset from the injector's start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Offset from [`FaultInjector::run`] at which the fault fires.
    pub at: Duration,
    /// The fault to apply.
    pub fault: Fault,
}

/// Shape of a random fault storm (see [`FaultPlan::storm`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormConfig {
    /// Number of runner crashes to schedule.
    pub crashes: usize,
    /// Number of device offline/online flaps.
    pub device_flaps: usize,
    /// Number of link latency spikes.
    pub link_spikes: usize,
    /// Number of frame-drop bursts.
    pub link_drops: usize,
    /// Number of slowed cold starts.
    pub slow_starts: usize,
    /// Events are spread uniformly over `[0, horizon)`.
    pub horizon: Duration,
    /// Devices eligible for flaps (no flaps scheduled when empty).
    pub devices: Vec<DeviceId>,
    /// Kernel whose runners are crashed.
    pub kernel: String,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            crashes: 8,
            device_flaps: 4,
            link_spikes: 4,
            link_drops: 6,
            slow_starts: 2,
            horizon: Duration::from_secs(10),
            devices: Vec::new(),
            kernel: "mci".to_owned(),
        }
    }
}

/// A deterministic schedule of fault events, sorted by fire time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan carrying `seed` (extend with [`push`](Self::push)).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Draws a random storm from `seed`: event times are uniform over
    /// the horizon, devices and magnitudes are sampled per event. The
    /// same `(seed, config)` pair always yields the same plan.
    pub fn storm(seed: u64, config: &StormConfig) -> Self {
        let mut rng = det_rng(seed);
        let mut events = Vec::new();
        let at = |frac: f64| config.horizon.mul_f64(frac);
        for _ in 0..config.crashes {
            events.push(FaultEvent {
                at: at(rng.gen::<f64>()),
                fault: Fault::RunnerCrash {
                    kernel: config.kernel.clone(),
                },
            });
        }
        if !config.devices.is_empty() {
            for _ in 0..config.device_flaps {
                let t = at(rng.gen::<f64>());
                let device = *rng.choose(&config.devices).expect("non-empty");
                let down_for = Duration::from_millis(rng.gen_range(50u64..250));
                events.push(FaultEvent {
                    at: t,
                    fault: Fault::DeviceOffline { device, down_for },
                });
            }
        }
        for _ in 0..config.link_spikes {
            let t = at(rng.gen::<f64>());
            let extra = Duration::from_micros(rng.gen_range(500u64..5_000));
            let lasting = Duration::from_millis(rng.gen_range(20u64..120));
            events.push(FaultEvent {
                at: t,
                fault: Fault::LinkDelaySpike { extra, lasting },
            });
        }
        for _ in 0..config.link_drops {
            let t = at(rng.gen::<f64>());
            let frames = rng.gen_range(1u32..3);
            events.push(FaultEvent {
                at: t,
                fault: Fault::LinkDrop { frames },
            });
        }
        for _ in 0..config.slow_starts {
            let t = at(rng.gen::<f64>());
            let extra = Duration::from_millis(rng.gen_range(100u64..400));
            events.push(FaultEvent {
                at: t,
                fault: Fault::SlowStart { extra },
            });
        }
        // Stable sort: ties keep generation order, so the plan is a pure
        // function of (seed, config).
        events.sort_by_key(|e| e.at);
        FaultPlan { seed, events }
    }

    /// Appends a fault at `at` (re-sorting the schedule).
    pub fn push(mut self, at: Duration, fault: Fault) -> Self {
        self.events.push(FaultEvent { at, fault });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, sorted by fire time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// One fault as it was applied, for recovery timelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedFault {
    /// Virtual time the fault was applied.
    pub at: SimTime,
    /// Stable kind label ([`Fault::kind`]).
    pub kind: &'static str,
    /// Human-readable description of what happened.
    pub desc: String,
}

/// Shared, append-only record of applied faults (clone-cheap handle).
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    entries: Rc<RefCell<Vec<AppliedFault>>>,
}

impl FaultLog {
    /// Snapshot of the applied faults so far, in application order.
    pub fn entries(&self) -> Vec<AppliedFault> {
        self.entries.borrow().clone()
    }

    /// Number of faults applied so far.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether no fault has been applied yet.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    fn record(&self, entry: AppliedFault) {
        self.entries.borrow_mut().push(entry);
    }
}

/// Drives a [`FaultPlan`] against a live server in virtual time.
#[derive(Debug)]
pub struct FaultInjector {
    server: KaasServer,
    plan: FaultPlan,
    links: Vec<LinkFault>,
    log: FaultLog,
}

impl FaultInjector {
    /// Binds `plan` to `server`. Link faults are no-ops until at least
    /// one handle is registered with [`with_link`](Self::with_link).
    pub fn new(server: &KaasServer, plan: FaultPlan) -> Self {
        FaultInjector {
            server: server.clone(),
            plan,
            links: Vec::new(),
            log: FaultLog::default(),
        }
    }

    /// Registers a client link for `LinkDelaySpike` / `LinkDrop` faults
    /// (get one via [`KaasClient::link_fault`](crate::KaasClient::link_fault)).
    pub fn with_link(mut self, link: LinkFault) -> Self {
        self.links.push(link);
        self
    }

    /// The shared applied-fault log (clone before calling
    /// [`run`](Self::run) if you need it afterwards).
    pub fn log(&self) -> FaultLog {
        self.log.clone()
    }

    /// Spawns the driver task and returns its handle; the task resolves
    /// once every scheduled fault has been applied (restorations — a
    /// device coming back online, a delay spike expiring — may still be
    /// pending).
    pub fn run(self) -> JoinHandle<()> {
        let FaultInjector {
            server,
            plan,
            links,
            log,
        } = self;
        let start = now();
        // Round-robin cursor over registered links for drop faults.
        let cursor = Cell::new(0usize);
        spawn(async move {
            for event in plan.events {
                let fire_at = start + event.at;
                let t = now();
                if fire_at > t {
                    sleep(fire_at - t).await;
                }
                apply(&server, &links, &cursor, &log, &event.fault);
            }
        })
    }
}

/// Applies one fault, recording it in the log, the server's metrics
/// registry, and (when configured) the tracer's `fault` track.
fn apply(
    server: &KaasServer,
    links: &[LinkFault],
    cursor: &Cell<usize>,
    log: &FaultLog,
    fault: &Fault,
) {
    let inner = server.inner();
    let desc = match fault {
        Fault::RunnerCrash { kernel } => match inner.pool.crash_runner(kernel) {
            Some(id) => format!("crashed {id} serving {kernel}"),
            None => format!("no runner serving {kernel} to crash"),
        },
        Fault::DeviceOffline { device, down_for } => match inner.pool.device(*device) {
            Some(d) => {
                let d = d.clone();
                d.set_online(false);
                let crashed = inner.pool.crash_device(*device);
                let down = *down_for;
                spawn(async move {
                    sleep(down).await;
                    d.set_online(true);
                });
                format!("{device} offline for {down_for:?} ({crashed} runner(s) lost)")
            }
            None => format!("{device} not managed by this server"),
        },
        Fault::LinkDelaySpike { extra, lasting } => {
            for link in links {
                link.set_extra_delay(*extra);
            }
            let restore: Vec<LinkFault> = links.to_vec();
            let lasting = *lasting;
            spawn(async move {
                sleep(lasting).await;
                for link in &restore {
                    link.set_extra_delay(Duration::ZERO);
                }
            });
            format!("+{extra:?} on {} link(s) for {lasting:?}", links.len())
        }
        Fault::LinkDrop { frames } => {
            if links.is_empty() {
                "no link registered to drop frames on".to_owned()
            } else {
                let i = cursor.get() % links.len();
                cursor.set(i + 1);
                links[i].drop_next(*frames);
                format!("dropping next {frames} frame(s) on link {i}")
            }
        }
        Fault::SlowStart { extra } => {
            inner.pool.slow_start_next(*extra);
            format!("next cold start slowed by {extra:?}")
        }
    };
    let kind = fault.kind();
    let m = &inner.metrics_registry;
    m.inc("faults.injected");
    m.inc_fmt(format_args!("faults.{kind}"));
    if let Some(tracer) = &inner.config.tracer {
        tracer.record(
            "fault",
            kind,
            now(),
            now(),
            None,
            vec![("desc".into(), desc.clone())],
        );
    }
    log.record(AppliedFault {
        at: now(),
        kind,
        desc,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_storm() {
        let config = StormConfig {
            devices: vec![DeviceId(0), DeviceId(1)],
            ..StormConfig::default()
        };
        let a = FaultPlan::storm(42, &config);
        let b = FaultPlan::storm(42, &config);
        assert_eq!(a.events(), b.events());
        assert_eq!(
            a.events().len(),
            config.crashes
                + config.device_flaps
                + config.link_spikes
                + config.link_drops
                + config.slow_starts
        );
    }

    #[test]
    fn different_seeds_differ() {
        let config = StormConfig::default();
        let a = FaultPlan::storm(1, &config);
        let b = FaultPlan::storm(2, &config);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn events_are_time_sorted_and_within_horizon() {
        let config = StormConfig {
            devices: vec![DeviceId(3)],
            ..StormConfig::default()
        };
        let plan = FaultPlan::storm(7, &config);
        let times: Vec<Duration> = plan.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert!(times.iter().all(|t| *t < config.horizon));
    }

    #[test]
    fn push_keeps_the_schedule_sorted() {
        let plan = FaultPlan::new(0)
            .push(
                Duration::from_secs(2),
                Fault::RunnerCrash {
                    kernel: "mci".into(),
                },
            )
            .push(Duration::from_secs(1), Fault::LinkDrop { frames: 1 });
        assert_eq!(plan.events()[0].at, Duration::from_secs(1));
        assert_eq!(plan.events()[1].at, Duration::from_secs(2));
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(
            Fault::RunnerCrash { kernel: "x".into() }.kind(),
            "runner-crash"
        );
        assert_eq!(
            Fault::DeviceOffline {
                device: DeviceId(0),
                down_for: Duration::ZERO
            }
            .kind(),
            "device-offline"
        );
        assert_eq!(
            Fault::LinkDelaySpike {
                extra: Duration::ZERO,
                lasting: Duration::ZERO
            }
            .kind(),
            "link-delay"
        );
        assert_eq!(Fault::LinkDrop { frames: 1 }.kind(), "link-drop");
        assert_eq!(
            Fault::SlowStart {
                extra: Duration::ZERO
            }
            .kind(),
            "slow-start"
        );
    }
}
