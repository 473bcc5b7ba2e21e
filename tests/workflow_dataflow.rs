//! Integration tests for the server-side dataflow engine: registered
//! workflow DAGs triggered with one request, step outputs chained
//! device-to-device as object refs, flow-level retry on transient
//! faults, and deterministic replay.

use std::rc::Rc;
use std::time::Duration;

use kaas::accel::{Device, DeviceId, GpuDevice, GpuProfile};
use kaas::core::{
    InvokeError, KaasClient, KaasNetwork, KaasServer, KernelRegistry, ObjectRef, RetryConfig,
    ServerConfig, SpanSink, Workflow,
};
use kaas::kernels::{GaGeneration, Kernel, SoftDtw, Value};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::Simulation;
use kaas::simtime::{sleep, spawn};

fn gpus(n: u32) -> Vec<Device> {
    (0..n)
        .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::p100()).into())
        .collect()
}

fn boot_at(
    net: &KaasNetwork,
    addr: &str,
    kernels: Vec<Rc<dyn Kernel>>,
    config: ServerConfig,
) -> (KaasServer, SharedMemory) {
    let registry = KernelRegistry::new();
    for k in kernels {
        registry.register_rc(k).unwrap();
    }
    let shm = SharedMemory::host();
    let server = KaasServer::new(gpus(2), registry, shm.clone(), config);
    spawn(server.clone().serve(net.listen(addr).unwrap()));
    (server, shm)
}

fn boot_with(
    kernels: Vec<Rc<dyn Kernel>>,
    config: ServerConfig,
) -> (KaasServer, KaasNetwork, SharedMemory) {
    let net: KaasNetwork = KaasNetwork::new();
    let (server, shm) = boot_at(&net, "kaas", kernels, config);
    (server, net, shm)
}

fn ga_dtw() -> Vec<Rc<dyn Kernel>> {
    vec![
        Rc::new(GaGeneration::seeded(1)),
        Rc::new(SoftDtw::default()),
    ]
}

/// The diamond: one source fanning out to two branches whose outputs
/// join in a fan-in step.
fn diamond() -> Workflow {
    let mut b = Workflow::builder("diamond");
    let src = b.step("ga");
    let left = b.then("ga", src);
    let right = b.then("ga", src.inline());
    b.join("dtw", [left.into(), right.into()]);
    b.build().unwrap()
}

#[test]
fn dag_fan_out_fan_in_matches_client_driven_baseline() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        // Two identically-seeded servers: the GA kernel is stateful
        // (its RNG advances per invocation), so the baseline must not
        // perturb the server the flow runs on.
        let net: KaasNetwork = KaasNetwork::new();
        let (_s1, shm1) = boot_at(&net, "kaas:base", ga_dtw(), ServerConfig::default());
        let (_s2, shm) = boot_at(&net, "kaas:flow", ga_dtw(), ServerConfig::default());

        // Client-driven baseline: four round trips, every intermediate
        // hauled through the client.
        let mut base = KaasClient::connect(&net, "kaas:base", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm1);
        let sent0 = base.requests_sent();
        let pop = base
            .call("ga")
            .arg(Value::U64(16))
            .send()
            .await
            .unwrap()
            .output;
        let left = base
            .call("ga")
            .arg(pop.clone())
            .send()
            .await
            .unwrap()
            .output;
        let right = base.call("ga").arg(pop).send().await.unwrap().output;
        let expected = base
            .call("dtw")
            .arg(Value::List(vec![left, right]))
            .send()
            .await
            .unwrap()
            .output;
        assert_eq!(
            base.requests_sent() - sent0,
            4,
            "baseline pays 4 round trips"
        );

        // Registered flow: one registration, one trigger. The server
        // walks the DAG and returns only the sink's output.
        let mut c = KaasClient::connect(&net, "kaas:flow", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        let sent1 = c.requests_sent();
        let handle = c.register_workflow(&diamond()).await.unwrap();
        let run = c.flow(&handle).input(Value::U64(16)).send().await.unwrap();
        assert_eq!(
            c.requests_sent() - sent1,
            2,
            "register + trigger is the whole conversation"
        );
        assert_eq!(run.round_trips(), 1);
        assert_eq!(run.report.steps.len(), 4);
        assert_eq!(run.report.name, "diamond");
        assert!(
            run.report.steps.iter().all(|s| s.error.is_none()),
            "every step completed"
        );
        assert_eq!(
            run.output, expected,
            "the DAG must compute exactly what the client-driven chain does"
        );
    });
}

#[test]
fn chained_steps_skip_the_host_copy_entirely() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let sink = SpanSink::new();
        let (server, net, _shm) = boot_with(
            vec![Rc::new(GaGeneration::seeded(1))],
            ServerConfig::default().with_tracer(sink.clone()),
        );
        server.prewarm("ga", 1).await.unwrap();

        // A *remote* client: only the trigger and the final population
        // cross the 1 Gbps link; intermediates never leave the device.
        let mut c = KaasClient::connect(&net, "kaas", LinkProfile::lan_1gbps())
            .await
            .unwrap();
        let wf = Workflow::linear("evolve", vec!["ga"; 4]).unwrap();
        let handle = c.register_workflow(&wf).await.unwrap();
        let run = c.flow(&handle).input(Value::U64(64)).send().await.unwrap();

        assert_eq!(run.round_trips(), 1, "an N-step pipeline is one round trip");
        assert_eq!(run.chained_hits(), 3, "every downstream step chains");
        for step in &run.report.steps[1..] {
            assert!(step.chained);
            assert_eq!(
                step.report.as_ref().unwrap().copy_in,
                Duration::ZERO,
                "a chained step must not pay a host→device copy"
            );
        }
        // The trace agrees: the runner tracks carry one `copy_in` span
        // per step, and only the first has width.
        let copies: Vec<_> = sink
            .spans()
            .into_iter()
            .filter(|s| s.name == "copy_in")
            .collect();
        assert_eq!(copies.len(), 4);
        let zero_width = copies.iter().filter(|s| s.duration() == Duration::ZERO);
        assert_eq!(
            zero_width.count(),
            3,
            "three chained steps, three zero-width copies"
        );
        assert!(
            sink.spans().iter().any(|s| s.name == "workflow"),
            "the flow itself is a traced span"
        );
        assert!(
            server.metrics_registry().counter("dataplane.hits") >= 3,
            "chained inputs are served from device residency"
        );
        assert_eq!(server.metrics_registry().counter("workflow.runs"), 1);
        assert_eq!(
            server.metrics_registry().counter("workflow.chained_hits"),
            3
        );
    });
}

#[test]
fn flow_retries_steps_through_a_runner_fault_storm() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        // Dispatcher-level retry off: every RunnerFailed surfaces to the
        // flow executor, which owns the retry budget.
        let config =
            ServerConfig::default().with_retry(RetryConfig::default().with_max_attempts(1));
        let (server, net, shm) = boot_with(vec![Rc::new(GaGeneration::seeded(1))], config);
        let mut c = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);

        // Warm a runner, then kill it: the flow's first step lands on
        // the corpse and must be retried inside the flow.
        let first = c.call("ga").arg(Value::U64(64)).send().await.unwrap();
        assert!(server.kill_runner("ga", first.report.device));

        let mut b = Workflow::builder("storm");
        let mut prev = b.step("ga");
        for _ in 1..8 {
            prev = b.then("ga", prev);
        }
        b.step_attempts(3);
        let wf = b.build().unwrap();
        let handle = c.register_workflow(&wf).await.unwrap();

        // Keep the storm going mid-flow: two more kills while steps run.
        let storm_server = server.clone();
        spawn(async move {
            for _ in 0..2 {
                sleep(Duration::from_millis(400)).await;
                storm_server.kill_runner("ga", DeviceId(0));
                storm_server.kill_runner("ga", DeviceId(1));
            }
        });

        let run = c.flow(&handle).input(Value::U64(64)).send().await.unwrap();
        assert_eq!(run.report.steps.len(), 8);
        assert!(
            run.report.steps.iter().all(|s| s.error.is_none()),
            "the flow rides out the storm"
        );
        let attempts: u32 = run.report.steps.iter().map(|s| s.attempts).sum();
        assert!(
            attempts > 8,
            "at least one step must have been retried, total attempts {attempts}"
        );
        match &run.output {
            Value::F64s(pop) => assert_eq!(pop.len(), 64 * 100),
            other => panic!("expected a population, got {other:?}"),
        }
    });
}

#[test]
fn failed_step_aborts_the_flow_with_partial_results() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = boot_with(ga_dtw(), ServerConfig::default());
        let mut c = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);

        // "dtw" rejects a bare population — the second step fails with a
        // non-transient error and the flow aborts, reporting how far it
        // got.
        let wf = Workflow::linear("doomed", ["ga", "dtw"]).unwrap();
        let handle = c.register_workflow(&wf).await.unwrap();
        let err = c
            .flow(&handle)
            .input(Value::U64(8))
            .send()
            .await
            .unwrap_err();
        assert!(
            matches!(err.error, InvokeError::BadInput(_)),
            "the step's own error surfaces: {:?}",
            err.error
        );
        assert_eq!(err.partial.len(), 2, "both steps are accounted for");
        assert!(err.partial[0].error.is_none(), "step 0 completed");
        assert!(err.partial[0].report.is_some());
        assert!(err.partial[1].error.is_some(), "step 1 carries the failure");
        assert!(err.partial[1].report.is_none());
        assert_eq!(server.metrics_registry().counter("workflow.failures"), 1);
        assert_eq!(
            server
                .metrics_registry()
                .gauge("workflow.intermediates_live"),
            Some(0.0),
            "an aborted flow must release every intermediate pin"
        );
    });
}

#[test]
fn same_seed_replay_is_byte_identical() {
    // The whole dataflow engine lives inside the deterministic
    // simulation: two fresh runs of the same scenario must agree on
    // every output byte, every latency, and every per-step report.
    let episode = || {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let (_s, net, shm) = boot_with(ga_dtw(), ServerConfig::default());
            let mut c = KaasClient::connect(&net, "kaas", LinkProfile::lan_1gbps())
                .await
                .unwrap()
                .with_shared_memory(shm);
            let handle = c.register_workflow(&diamond()).await.unwrap();
            let run = c.flow(&handle).input(Value::U64(16)).send().await.unwrap();
            let steps: Vec<String> = run
                .report
                .steps
                .iter()
                .map(|s| {
                    format!(
                        "{}:{}:{}:{}:{:?}",
                        s.step,
                        s.kernel,
                        s.attempts,
                        s.chained,
                        s.report
                            .as_ref()
                            .map(|r| (r.device, r.copy_in, r.kernel_exec)),
                    )
                })
                .collect();
            format!("{:?} {:?} {}", run.output, run.latency, steps.join("|"))
        })
    };
    assert_eq!(episode(), episode(), "same seed, same bytes");
}

#[test]
fn trigger_ref_with_a_forged_length_is_a_bad_handle() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (_server, net, shm) = boot_with(ga_dtw(), ServerConfig::default());
        let mut c = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        let wf = Workflow::linear("one", ["ga"]).unwrap();
        let handle = c.register_workflow(&wf).await.unwrap();
        let input = c.put(Value::U64(8)).await.unwrap();
        let forged = ObjectRef {
            bytes: input.bytes + 1,
            ..input
        };
        let err = c.flow(&handle).input_ref(forged).send().await.unwrap_err();
        assert_eq!(err.error, InvokeError::BadHandle);
        c.flow(&handle).input_ref(input).send().await.unwrap();
    });
}
