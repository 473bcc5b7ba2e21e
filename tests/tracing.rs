//! Integration: end-to-end invocation tracing, the metrics registry,
//! and the builder-style invoke API.

use std::rc::Rc;
use std::time::Duration;

use kaas::accel::{Device, DeviceId, GpuDevice, GpuProfile};
use kaas::core::{
    percentile, BatchCall, InvokeError, KaasClient, KaasNetwork, KaasServer, KernelRegistry,
    ServerConfig, Span, SpanSink, Workflow,
};
use kaas::kernels::{Kernel, MatMul, MonteCarlo, Value};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::{spawn, Simulation};

fn gpus(n: u32) -> Vec<Device> {
    (0..n)
        .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::p100()).into())
        .collect()
}

fn boot_traced(
    kernels: Vec<Rc<dyn Kernel>>,
    tracer: SpanSink,
) -> (KaasServer, KaasNetwork, SharedMemory) {
    let registry = KernelRegistry::new();
    for k in kernels {
        registry.register_rc(k).unwrap();
    }
    let shm = SharedMemory::host();
    let config = ServerConfig::default().with_tracer(tracer);
    let server = KaasServer::new(gpus(2), registry, shm.clone(), config);
    let net: KaasNetwork = KaasNetwork::new();
    spawn(server.clone().serve(net.listen("kaas").unwrap()));
    (server, net, shm)
}

async fn traced_client(net: &KaasNetwork, shm: SharedMemory, tracer: SpanSink) -> KaasClient {
    KaasClient::connect(net, "kaas", LinkProfile::loopback())
        .await
        .unwrap()
        .with_shared_memory(shm)
        .with_tracer(tracer)
}

/// The acceptance criterion: the root `invoke` span's direct client-side
/// children tile it exactly, so their durations sum to the
/// client-observed latency.
#[test]
fn span_durations_tile_client_latency() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, shm) = boot_traced(vec![Rc::new(MatMul::new())], tracer.clone());
        let mut client = traced_client(&net, shm, tracer.clone()).await;
        let inv = client
            .call("matmul")
            .arg(Value::U64(256))
            .out_of_band()
            .send()
            .await
            .unwrap();

        let roots: Vec<Span> = tracer
            .roots()
            .into_iter()
            .filter(|s| s.name == "invoke")
            .collect();
        assert_eq!(roots.len(), 1, "one traced invocation, one root span");
        let root = &roots[0];
        assert_eq!(root.duration(), inv.latency, "root span IS the latency");

        // Direct client-side children tile the root: contiguous, no gaps.
        let mut children: Vec<Span> = tracer
            .children_of(root.id)
            .into_iter()
            .filter(|s| s.track == root.track)
            .collect();
        children.sort_by_key(|s| s.start);
        assert!(children.len() >= 3, "shm_put, roundtrip, shm_take");
        assert_eq!(children.first().unwrap().start, root.start);
        assert_eq!(children.last().unwrap().end, root.end);
        for pair in children.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "children must not overlap");
        }
        let sum: Duration = children.iter().map(Span::duration).sum();
        assert_eq!(sum, inv.latency, "child durations sum to the latency");
    });
}

/// Every server- and device-side hop appears in the trace, parented
/// under the client's `roundtrip` span; cold starts get their own root
/// span on the runner's track.
#[test]
fn server_and_device_hops_nest_under_roundtrip() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, shm) = boot_traced(vec![Rc::new(MonteCarlo::default())], tracer.clone());
        let mut client = traced_client(&net, shm, tracer.clone()).await;
        client
            .call("mci")
            .arg(Value::U64(10_000))
            .send()
            .await
            .unwrap();

        let spans = tracer.spans();
        let rt = spans
            .iter()
            .find(|s| s.name == "roundtrip")
            .expect("roundtrip span");
        let under_rt: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(rt.id)).collect();
        for hop in [
            "admission",
            "dispatch",
            "deserialize",
            "queue_wait",
            "copy_in",
            "kernel_exec",
            "copy_out",
            "reply",
        ] {
            assert!(
                under_rt.iter().any(|s| s.name == hop),
                "missing {hop} under roundtrip"
            );
        }
        // Device phases live on the runner's track, not the server's.
        let exec = under_rt.iter().find(|s| s.name == "kernel_exec").unwrap();
        assert!(exec.track.starts_with("runner"), "track: {}", exec.track);
        // The cold start is a root on the same runner track.
        let cold = spans
            .iter()
            .find(|s| s.name == "cold_start")
            .expect("cold-start span");
        assert_eq!(cold.parent, None);
        assert_eq!(cold.track, exec.track);
    });
}

fn traced_run_chrome_json() -> String {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, shm) = boot_traced(
            vec![Rc::new(MatMul::new()), Rc::new(MonteCarlo::default())],
            tracer.clone(),
        );
        let mut client = traced_client(&net, shm, tracer.clone()).await;
        for n in [128u64, 256, 512] {
            client
                .call("matmul")
                .arg(Value::U64(n))
                .out_of_band()
                .send()
                .await
                .unwrap();
        }
        client
            .call("mci")
            .arg(Value::U64(50_000))
            .send()
            .await
            .unwrap();
        tracer.to_chrome_json()
    })
}

#[test]
fn identical_runs_export_byte_identical_chrome_json() {
    let a = traced_run_chrome_json();
    let b = traced_run_chrome_json();
    assert!(a.trim_start().starts_with('['), "bare event-array format");
    assert!(a.contains("\"ph\":\"X\""));
    assert!(a.contains("\"invoke\""));
    assert_eq!(a, b, "tracing must be deterministic");
}

/// The registry's histogram summaries agree with the exact per-report
/// numbers in the MetricsSink: means match, quantiles land within one
/// log-bucket (±10 %) of the exact percentile.
#[test]
fn registry_quantiles_agree_with_metrics_sink() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let registry = KernelRegistry::new();
        registry.register(MatMul::new()).unwrap();
        let shm = SharedMemory::host();
        let server = KaasServer::new(gpus(2), registry, shm.clone(), ServerConfig::default());
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas").unwrap()));
        let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        for i in 0..20u64 {
            client
                .call("matmul")
                .arg(Value::U64(64 + 32 * i))
                .out_of_band()
                .send()
                .await
                .unwrap();
        }

        let exact: Vec<f64> = server
            .metrics()
            .snapshot()
            .iter()
            .map(|r| r.server_latency().as_secs_f64())
            .collect();
        let reg = server.metrics_registry();
        assert_eq!(reg.counter("invocations"), 20);
        assert_eq!(reg.counter("invocations.matmul"), 20);
        assert_eq!(reg.counter("cold_starts"), 1);
        let summary = reg.summary("latency.server").expect("recorded");
        assert_eq!(summary.count, exact.len() as u64);
        let exact_mean = exact.iter().sum::<f64>() / exact.len() as f64;
        assert!((summary.mean - exact_mean).abs() / exact_mean < 1e-9);
        // The log-bucketed histogram resolves quantiles to nearest rank
        // within one bucket (8 buckets per octave → ≲ ±5 % at the
        // geometric midpoint); compare against the same-rank exact value.
        let mut sorted = exact.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (q, got) in [(0.50, summary.p50), (0.99, summary.p99)] {
            let rank = (q * (sorted.len() - 1) as f64).round() as usize;
            let want = sorted[rank];
            assert!(
                (got - want).abs() / want < 0.10,
                "p{}: histogram {got} vs exact {want}",
                (q * 100.0) as u32
            );
        }
        // The interpolating percentile helper stays in the same league.
        let p50_exact = percentile(&exact, 0.50);
        assert!((summary.p50 - p50_exact).abs() / p50_exact < 0.15);
    });
}

#[test]
fn expired_deadlines_shed_before_placement() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (server, net, shm) = boot_traced(vec![Rc::new(MatMul::new())], tracer);
        let mut client = KaasClient::connect(&net, "kaas", LinkProfile::lan_1gbps())
            .await
            .unwrap()
            .with_shared_memory(shm);
        // A zero deadline has always expired by the time the request
        // crosses the network and reaches dispatch.
        let err = client
            .call("matmul")
            .arg(Value::U64(64))
            .deadline(Duration::ZERO)
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::DeadlineExceeded);
        assert_eq!(
            server
                .metrics_registry()
                .counter("errors.deadline-exceeded"),
            1
        );
        // A generous deadline sails through.
        let ok = client
            .call("matmul")
            .arg(Value::U64(64))
            .deadline(Duration::from_secs(60))
            .send()
            .await;
        assert!(ok.is_ok());
    });
}

#[test]
fn snapshot_captures_fleet_state_in_one_call() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let registry = KernelRegistry::new();
        registry.register(MatMul::new()).unwrap();
        registry.register(MonteCarlo::default()).unwrap();
        let shm = SharedMemory::host();
        let server = KaasServer::new(gpus(2), registry, shm.clone(), ServerConfig::default());
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas").unwrap()));
        let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        client
            .call("matmul")
            .arg(Value::U64(128))
            .out_of_band()
            .send()
            .await
            .unwrap();
        client
            .call("mci")
            .arg(Value::U64(10_000))
            .send()
            .await
            .unwrap();

        let snap = server.snapshot();
        assert_eq!(snap.runners("matmul"), 1);
        assert_eq!(snap.runners("mci"), 1);
        assert_eq!(snap.total_runners(), 2);
        assert_eq!(snap.in_flight("matmul"), 0);
        assert_eq!(snap.total_in_flight(), 0);
        assert_eq!(snap.reaped, 0);
        assert_eq!(snap.kernels.len(), 2);
        assert!(!snap.device_classes.is_empty());
    });
}

/// The deprecated `invoke`/`invoke_oob` shims are gone (removed after
/// PR 2 migrated every call site): the builder covers both transfer
/// modes with identical results.
#[test]
fn builder_covers_in_band_and_out_of_band() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let registry = KernelRegistry::new();
        registry.register(MatMul::new()).unwrap();
        let shm = SharedMemory::host();
        let server = KaasServer::new(gpus(1), registry, shm.clone(), ServerConfig::default());
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas").unwrap()));
        let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        let a = client
            .call("matmul")
            .arg(Value::U64(100))
            .send()
            .await
            .unwrap();
        let b = client
            .call("matmul")
            .arg(Value::U64(100))
            .out_of_band()
            .send()
            .await
            .unwrap();
        assert_eq!(a.output, b.output);
        let snap = server.snapshot();
        assert_eq!(snap.runners("matmul"), 1);
        assert_eq!(snap.in_flight("matmul"), 0);
    });
}

/// The client-side stage children of `root` on its own track, in start
/// order, after checking that they tile it: contiguous, no gaps, first
/// starting with the root and last ending with it. `net_send` is the
/// wire hop within the round trip, not a stage.
fn tiled_children(tracer: &SpanSink, root: &Span) -> Vec<Span> {
    let mut children: Vec<Span> = tracer
        .children_of(root.id)
        .into_iter()
        .filter(|s| s.track == root.track && s.name != "net_send")
        .collect();
    children.sort_by_key(|s| s.start);
    assert_eq!(children.first().unwrap().start, root.start);
    assert_eq!(children.last().unwrap().end, root.end);
    for pair in children.windows(2) {
        assert_eq!(pair[0].end, pair[1].start, "children must not overlap");
    }
    children
}

fn names(spans: &[Span]) -> Vec<&str> {
    spans.iter().map(|s| s.name.as_str()).collect()
}

fn only_root(tracer: &SpanSink, name: &str) -> Span {
    let roots: Vec<Span> = tracer
        .roots()
        .into_iter()
        .filter(|s| s.name == name)
        .collect();
    assert_eq!(roots.len(), 1, "exactly one `{name}` root");
    roots.into_iter().next().unwrap()
}

fn arg<'s>(span: &'s Span, key: &str) -> Option<&'s str> {
    span.args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// A call that fails before reaching the wire still records its root:
/// out-of-band mode on a client without shared memory is refused with
/// `BadHandle`, and the `invoke` root is finished all the same.
#[test]
fn failed_out_of_band_call_still_records_its_root() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, _shm) = boot_traced(vec![Rc::new(MonteCarlo::default())], tracer.clone());
        let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_tracer(tracer.clone());
        let err = client
            .call("mci")
            .arg(Value::U64(10_000))
            .out_of_band()
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::BadHandle);
        let root = only_root(&tracer, "invoke");
        assert_eq!(arg(&root, "kernel"), Some("mci"));
    });
}

/// A traced flow trigger records a `flow` root carrying the handle id
/// and name, with serialize → roundtrip → deserialize children that
/// tile the client-observed `WorkflowRun::latency`.
#[test]
fn traced_flow_trigger_tiles_run_latency() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, shm) = boot_traced(vec![Rc::new(MatMul::new())], tracer.clone());
        let mut client = traced_client(&net, shm, tracer.clone()).await;
        let mut b = Workflow::builder("one-matmul");
        b.step("matmul");
        let handle = client.register_workflow(&b.build().unwrap()).await.unwrap();
        let run = client
            .flow(&handle)
            .input(Value::U64(128))
            .send()
            .await
            .unwrap();

        let root = only_root(&tracer, "flow");
        assert_eq!(arg(&root, "flow"), Some(handle.id().to_string().as_str()));
        assert_eq!(arg(&root, "name"), Some("one-matmul"));
        assert_eq!(root.duration(), run.latency, "root span IS the latency");
        let children = tiled_children(&tracer, &root);
        assert_eq!(names(&children), ["serialize", "roundtrip", "deserialize"]);
        let sum: Duration = children.iter().map(Span::duration).sum();
        assert_eq!(sum, run.latency);
    });
}

/// A traced batch records one `batch` root with a `members` arg and the
/// coalesced serialize → roundtrip → deserialize children.
#[test]
fn traced_batch_records_one_coalesced_tree() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, shm) = boot_traced(vec![Rc::new(MonteCarlo::default())], tracer.clone());
        let mut client = traced_client(&net, shm, tracer.clone()).await;
        let results = client
            .batch()
            .call(BatchCall::new("mci").arg(Value::U64(10_000)))
            .call(BatchCall::new("mci").arg(Value::U64(20_000)))
            .call(BatchCall::new("mci").arg(Value::U64(30_000)))
            .send()
            .await
            .unwrap();
        assert!(results.iter().all(Result::is_ok));

        let root = only_root(&tracer, "batch");
        assert_eq!(arg(&root, "members"), Some("3"));
        assert_eq!(root.duration(), results[0].as_ref().unwrap().latency);
        let children = tiled_children(&tracer, &root);
        assert_eq!(names(&children), ["serialize", "roundtrip", "deserialize"]);
    });
}

/// A batch frame's wire hop nests under the batch's `roundtrip` span,
/// as a single request's does: no client-side span overlaps a stage
/// sibling under the root.
#[test]
fn traced_batch_wire_hop_nests_under_roundtrip() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, shm) = boot_traced(vec![Rc::new(MonteCarlo::default())], tracer.clone());
        let mut client = traced_client(&net, shm, tracer.clone()).await;
        client
            .batch()
            .call(BatchCall::new("mci").arg(Value::U64(10_000)))
            .send()
            .await
            .unwrap();

        let root = only_root(&tracer, "batch");
        let under_root: Vec<Span> = tracer
            .children_of(root.id)
            .into_iter()
            .filter(|s| s.track == root.track)
            .collect();
        assert_eq!(
            names(&under_root),
            ["serialize", "roundtrip", "deserialize"]
        );
        let rt = &under_root[1];
        assert!(tracer
            .children_of(rt.id)
            .iter()
            .any(|s| s.name == "net_send" && s.track == root.track));
    });
}

/// `send_ref` leaves the final output server-resident: fetching the ref
/// yields exactly what `send` materializes for the same trigger.
#[test]
fn flow_send_ref_resolves_to_the_send_output() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, shm) = boot_traced(vec![Rc::new(MatMul::new())], tracer.clone());
        let mut client = traced_client(&net, shm, tracer.clone()).await;
        let mut b = Workflow::builder("one-matmul");
        b.step("matmul");
        let handle = client.register_workflow(&b.build().unwrap()).await.unwrap();
        let run = client
            .flow(&handle)
            .input(Value::U64(96))
            .send()
            .await
            .unwrap();
        let (r, report) = client
            .flow(&handle)
            .input(Value::U64(96))
            .send_ref()
            .await
            .unwrap();
        assert_eq!(report.steps.len(), 1);
        assert_eq!(client.get(r).await.unwrap(), run.output);
        assert_eq!(
            tracer.roots().iter().filter(|s| s.name == "flow").count(),
            2
        );
    });
}
