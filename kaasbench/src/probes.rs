//! Layer probes: host ns per operation of each layer's public entry
//! point, timed on inputs captured from the workload being reported
//! (its live metric names, objects, guest programs and inputs, kernels
//! and spans). Workloads that never enter a layer (no guest programs on
//! `invoke_open`) probe it on one small canonical input instead, so the
//! metric is still defined and predicted flat there.

use std::collections::BTreeMap;
use std::rc::Rc;

use kaas_accel::{DeviceClass, DeviceId, GpuDevice, GpuProfile};
use kaas_bench::common::{deploy, experiment_server_config};
use kaas_core::{content_hash, DataPlane, MetricsRegistry, ObjectStore, SpanSink, FRAME_BYTES};
use kaas_guest::{verify, GuestProgram, Instance, Op};
use kaas_kernels::{Kernel, Value};
use kaas_net::LinkProfile;
use kaas_simtime::channel::unbounded;
use kaas_simtime::{now, sleep, spawn, Duration, Simulation};

use crate::host::{time_per_op, Stopwatch};
use crate::stats::median;

/// Inputs captured from one traced repeat of a workload.
pub struct Capture {
    /// The repeat's span sink (server and client spans).
    pub sink: SpanSink,
    /// The server's metrics registry after the run.
    pub registry: MetricsRegistry,
    /// Data-plane objects (the working set, or the request payload).
    pub objects: Vec<Value>,
    /// Device memory of the workload's GPUs.
    pub mem_bytes: u64,
    /// Guest programs with inputs they ran on.
    pub guests: Vec<(GuestProgram, Value)>,
    /// Compiled-in kernels with inputs they ran on.
    pub kernels: Vec<(Rc<dyn Kernel>, Value)>,
}

/// The canonical guest program for workloads without guest kernels:
/// `Σ(2x)` over a 128-element (1 KiB) vector.
fn canonical_guest() -> (GuestProgram, Value) {
    let p = GuestProgram::new("canon", DeviceClass::Gpu).with_body(vec![
        Op::Input,
        Op::PushF(2.0),
        Op::VecScale,
        Op::VecSum,
        Op::Return,
    ]);
    (p, Value::F64s((0..128).map(f64::from).collect()))
}

/// Tasks, timers, messages or frames per simulation in the executor and
/// net probes.
const SIM_OPS: usize = 2_000;

/// Runs every probe, spending about `budget_s` wall seconds in total.
pub fn run(cap: &Capture, budget_s: f64) -> BTreeMap<&'static str, f64> {
    let b = budget_s / 16.0;
    let mut out = BTreeMap::new();
    let per_sim = |f: &dyn Fn()| time_per_op(b, 1, |_| f()) / SIM_OPS as f64;

    out.insert(
        "simtime.spawn_ns",
        per_sim(&|| {
            Simulation::new().block_on(async {
                let tasks: Vec<_> = (0..SIM_OPS).map(|i| spawn(async move { i })).collect();
                for t in tasks {
                    std::hint::black_box(t.await);
                }
            })
        }),
    );
    out.insert(
        "simtime.timer_ns",
        per_sim(&|| {
            Simulation::new().block_on(async {
                for _ in 0..SIM_OPS {
                    sleep(Duration::from_micros(1)).await;
                }
                std::hint::black_box(now());
            })
        }),
    );
    out.insert(
        "simtime.channel_ns",
        per_sim(&|| {
            Simulation::new().block_on(async {
                let (tx, mut rx) = unbounded();
                for i in 0..SIM_OPS {
                    tx.send(i).await.expect("receiver alive");
                    std::hint::black_box(rx.recv().await);
                }
            })
        }),
    );
    out.insert(
        "net.frame_ns",
        per_sim(&|| {
            Simulation::new().block_on(async {
                let (a, mut b) = kaas_net::pair::<usize, usize>(LinkProfile::loopback());
                for i in 0..SIM_OPS {
                    a.send(i, FRAME_BYTES).await.expect("peer alive");
                    std::hint::black_box(b.recv().await);
                }
            })
        }),
    );

    let kernels = &cap.kernels;
    out.insert(
        "kernels.exec_ns",
        time_per_op(b, kernels.len(), |i| {
            let (k, input) = &kernels[i % kernels.len()];
            std::hint::black_box(k.execute(input).expect("captured input is valid"));
        }),
    );

    dataplane_probes(cap, b, &mut out);
    guest_probes(cap, b, &mut out);

    let (counters, _, histograms) = cap.registry.names();
    let reg = MetricsRegistry::new();
    out.insert(
        "metrics.inc_ns",
        time_per_op(b, counters.len().max(1), |i| {
            reg.inc(&counters[i % counters.len()]);
        }),
    );
    out.insert(
        "metrics.observe_ns",
        time_per_op(b, histograms.len().max(1), |i| {
            reg.observe(&histograms[i % histograms.len()], 1e-6);
        }),
    );

    let spans = cap.sink.spans();
    let sink = SpanSink::new();
    let pairs: Vec<(&str, &str)> = spans
        .iter()
        .take(4_096)
        .map(|s| (s.track.as_str(), s.name.as_str()))
        .collect();
    out.insert(
        "trace.record_ns",
        time_per_op(b, pairs.len(), |i| {
            if i % pairs.len() == 0 {
                sink.clear();
            }
            let (track, name) = pairs[i % pairs.len()];
            let t = kaas_simtime::SimTime::ZERO;
            std::hint::black_box(sink.record(track, name, t, t, None, Vec::new()));
        }),
    );
    out.insert(
        "trace.export_ns_per_span",
        time_per_op(b, 1, |_| {
            std::hint::black_box(cap.sink.to_chrome_json());
        }) / spans.len().max(1) as f64,
    );
    out
}

fn dataplane_probes(cap: &Capture, b: f64, out: &mut BTreeMap<&'static str, f64>) {
    let objects = &cap.objects;
    let n = objects.len();
    let kib: f64 = objects.iter().map(|o| o.wire_bytes() as f64).sum::<f64>() / 1024.0;
    out.insert(
        "dataplane.hash_ns_per_kib",
        time_per_op(b, 1, |_| {
            for o in objects {
                std::hint::black_box(content_hash(o));
            }
        }) / kib,
    );
    let store = ObjectStore::new();
    out.insert(
        "dataplane.put_ns",
        time_per_op(b, n, |i| {
            std::hint::black_box(store.put(objects[i % n].clone()));
        }),
    );
    let refs: Vec<_> = objects.iter().map(|o| store.put(o.clone())).collect();
    out.insert(
        "dataplane.get_ns",
        time_per_op(b, n, |i| {
            std::hint::black_box(store.get(&refs[i % n]));
        }),
    );
    let profile = GpuProfile {
        mem_bytes: cap.mem_bytes,
        ..GpuProfile::v100()
    };
    let dp = DataPlane::new(&[GpuDevice::new(DeviceId(0), profile).into()]);
    let refs: Vec<_> = objects.iter().map(|o| dp.put(o.clone())).collect();
    out.insert(
        "dataplane.admit_ns",
        time_per_op(b, n, |i| {
            std::hint::black_box(dp.admit(DeviceId(0), &refs[i % n]).ok());
        }),
    );
}

fn guest_probes(cap: &Capture, b: f64, out: &mut BTreeMap<&'static str, f64>) {
    let guests = if cap.guests.is_empty() {
        vec![canonical_guest()]
    } else {
        cap.guests.clone()
    };
    let prepared: Vec<_> = guests
        .iter()
        .map(|(p, input)| {
            let inst = Instance::instantiate(Rc::new(p.clone())).expect("program instantiates");
            let cert = verify(p).expect("program verifies");
            let (_, fuel) = inst.run(input).expect("program runs");
            (inst, cert, input, fuel as f64 / 1e3)
        })
        .collect();
    let kfuel: f64 = prepared.iter().map(|p| p.3).sum();
    out.insert(
        "guest.run_ns_per_kfuel",
        time_per_op(b, 1, |_| {
            for (inst, _, input, _) in &prepared {
                std::hint::black_box(inst.run(input).expect("program runs"));
            }
        }) / kfuel,
    );
    out.insert(
        "guest.run_verified_ns_per_kfuel",
        time_per_op(b, 1, |_| {
            for (inst, cert, input, _) in &prepared {
                std::hint::black_box(inst.run_verified(cert, input).expect("program runs"));
            }
        }) / kfuel,
    );
    out.insert(
        "guest.verify_us_per_program",
        time_per_op(b, guests.len(), |i| {
            std::hint::black_box(verify(&guests[i % guests.len()].0).expect("verifies"));
        }) / 1e3,
    );
    // The serial set-up call: one registration round trip against a
    // one-GPU deployment, wall time per call.
    let programs: Vec<GuestProgram> = guests.iter().map(|(p, _)| p.clone()).collect();
    let register_us = Simulation::new().block_on(async move {
        let gpu = GpuDevice::new(DeviceId(0), GpuProfile::v100()).into();
        let dep = deploy(vec![gpu], Vec::new(), experiment_server_config());
        let mut client = dep.local_client().await;
        let mut samples = Vec::new();
        let clock = Stopwatch::start();
        while samples.len() < 10 || (clock.secs() < b && samples.len() < 2_000) {
            let p = &programs[samples.len() % programs.len()];
            let t = Stopwatch::start();
            client.register_kernel("probe", p).await.expect("registers");
            samples.push(t.nanos() / 1e3);
        }
        median(&samples)
    });
    out.insert("guest.register_us", register_us);
}
