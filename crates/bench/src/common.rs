//! Shared infrastructure for the figure-reproduction harness: testbed
//! builders matching the paper's hardware, a KaaS deployment helper, and
//! a small table/series output format.

use std::rc::Rc;
use std::time::Duration;

use kaas_accel::{
    CpuDevice, CpuProfile, Device, DeviceId, FpgaDevice, FpgaProfile, GpuDevice, GpuProfile,
    QpuDevice, QpuProfile, TpuDevice, TpuProfile,
};
use kaas_core::{
    DispatchMode, KaasClient, KaasNetwork, KaasServer, KernelRegistry, ServerConfig, ShardConfig,
};
use kaas_kernels::Kernel;
use kaas_net::{LinkProfile, SerializationProfile, SharedMemory};
use kaas_simtime::spawn;

/// Server address used by every experiment.
pub const KAAS_ADDR: &str = "kaas:7000";

/// One plotted line: `(x, y)` points with a label.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` samples in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at the given x (exact match).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }

    /// Final y value.
    pub fn last_y(&self) -> f64 {
        self.points.last().map(|&(_, y)| y).unwrap_or(f64::NAN)
    }

    /// First y value.
    pub fn first_y(&self) -> f64 {
        self.points.first().map(|&(_, y)| y).unwrap_or(f64::NAN)
    }
}

/// A reproduced figure: series plus free-text findings, printable as CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Paper figure id, e.g. "fig06a".
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
    /// Headline observations (paper-vs-measured notes).
    pub notes: Vec<String>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: &'static str,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id,
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Looks a series up by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Adds an observation note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the figure as commented CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.id, self.title));
        out.push_str(&format!("# x: {} | y: {}\n", self.x_label, self.y_label));
        for s in &self.series {
            out.push_str(&format!("series,{}\n", s.label));
            for (x, y) in &s.points {
                out.push_str(&format!("{x},{y:.6}\n"));
            }
        }
        for n in &self.notes {
            out.push_str(&format!("# note: {n}\n"));
        }
        out
    }

    /// Prints the CSV to stdout.
    pub fn print(&self) {
        print!("{}", self.to_csv());
    }
}

/// The §5.1 GPU testbed: four Tesla P100s. Speed factors encode the
/// §5.6.1 observation of up to 14.3 % performance spread between
/// "identical" GPUs (GPU 0, the numba default, is the fastest).
pub fn p100_cluster() -> Vec<Device> {
    let factors = [1.0, 0.857, 0.86, 0.875];
    factors
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            GpuDevice::new(DeviceId(i as u32), GpuProfile::p100().with_speed_factor(f)).into()
        })
        .collect()
}

/// The §5.4 scaling testbed: `n` Tesla V100s.
pub fn v100_cluster(n: u32) -> Vec<Device> {
    (0..n)
        .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::v100()).into())
        .collect()
}

/// The GPU-host CPUs (2× Xeon E5-2698 v4).
pub fn host_cpu_profile() -> CpuProfile {
    CpuProfile::xeon_e5_2698v4_dual()
}

/// A host CPU device for CPU-only baselines.
pub fn host_cpu(id: u32) -> CpuDevice {
    CpuDevice::new(DeviceId(id), host_cpu_profile())
}

/// The §5.6.2 FPGA testbed (Alveo U250).
pub fn fpga_testbed() -> Vec<Device> {
    vec![FpgaDevice::new(DeviceId(0), FpgaProfile::alveo_u250()).into()]
}

/// The §5.6.3 TPU testbed (one v3-8 board).
pub fn tpu_testbed() -> Vec<Device> {
    vec![TpuDevice::new(DeviceId(0), TpuProfile::v3_8()).into()]
}

/// A QPU deployment for one backend profile.
pub fn qpu_testbed(profile: QpuProfile) -> Vec<Device> {
    vec![QpuDevice::new(DeviceId(0), profile).into()]
}

/// The experiment-default server configuration: array-friendly
/// serialization, the paper's dispatch overhead and in-flight cap.
pub fn experiment_server_config() -> ServerConfig {
    ServerConfig::default().with_serialization(SerializationProfile::numpy())
}

/// A running KaaS deployment (inside an active simulation).
#[derive(Debug)]
pub struct Deployment {
    /// The server handle (metrics, prewarm, ...).
    pub server: KaasServer,
    /// The simulated network it listens on.
    pub net: KaasNetwork,
    /// The host shared-memory region for out-of-band transfer.
    pub shm: SharedMemory,
}

/// Connects a same-host client (loopback + shared memory + fast array
/// serialization) to a deployment's network. The free-function form
/// suits spawned tasks that only captured the network and region.
pub async fn connect_local(net: &KaasNetwork, shm: SharedMemory) -> KaasClient {
    KaasClient::connect(net, KAAS_ADDR, LinkProfile::loopback())
        .await
        .expect("deployment is listening")
        .with_shared_memory(shm)
        .with_serialization(SerializationProfile::numpy())
}

impl Deployment {
    /// Connects a same-host client (loopback + shared memory + fast
    /// array serialization).
    pub async fn local_client(&self) -> KaasClient {
        connect_local(&self.net, self.shm.clone()).await
    }

    /// Connects a remote client over the paper's 1 Gbps LAN (in-band
    /// only — no shared memory across hosts).
    pub async fn remote_client(&self) -> KaasClient {
        KaasClient::connect(&self.net, KAAS_ADDR, LinkProfile::lan_1gbps())
            .await
            .expect("deployment is listening")
            .with_serialization(SerializationProfile::numpy())
    }
}

/// Boots a KaaS server for `devices`/`kernels` and starts its accept
/// loop. Must be called inside a running simulation.
pub fn deploy(
    devices: Vec<Device>,
    kernels: Vec<Rc<dyn Kernel>>,
    config: ServerConfig,
) -> Deployment {
    let registry = KernelRegistry::new();
    for k in kernels {
        registry
            .register_rc(k)
            .expect("kernel names must be unique per deployment");
    }
    let shm = SharedMemory::host();
    let server = KaasServer::new(devices, registry, shm.clone(), config);
    let net = KaasNetwork::new();
    let listener = net.listen(KAAS_ADDR).expect("fresh network");
    spawn(server.clone().serve(listener));
    Deployment { server, net, shm }
}

/// The historical serialized router, as a configuration of the one
/// dispatch engine: a single shard behind a zero-cost front door, so
/// every invocation pays the full dispatch overhead inside one global
/// critical section (the Fig. 12b ≈35 µs cost — saturates near
/// `1 / dispatch_overhead` dispatches per second). Benches run it
/// unbatched.
pub fn serialized_baseline() -> DispatchMode {
    DispatchMode::Sharded(ShardConfig {
        shards: 1,
        front_door_overhead: Duration::ZERO,
        ..ShardConfig::default()
    })
}

/// Parses the dispatcher A/B flag from the process arguments:
/// `--dispatch=serialized` selects the [`serialized_baseline`],
/// `--dispatch=sharded` the default sharded engine. Returns `None` when
/// the flag is absent so callers keep their own default.
pub fn dispatch_mode_from_args() -> Option<DispatchMode> {
    std::env::args().find_map(|a| match a.strip_prefix("--dispatch=") {
        Some("serialized") => Some(serialized_baseline()),
        Some("sharded") => Some(DispatchMode::Sharded(ShardConfig::default())),
        Some(other) => panic!("unknown --dispatch value {other:?} (expected serialized|sharded)"),
        None => None,
    })
}

/// Percentage reduction from `baseline` to `improved`.
pub fn reduction_pct(baseline: f64, improved: f64) -> f64 {
    100.0 * (baseline - improved) / baseline
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_kernels::{MonteCarlo, Value};
    use kaas_simtime::Simulation;

    #[test]
    fn series_helpers() {
        let mut s = Series::new("a");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.y_at(2.0), Some(20.0));
        assert_eq!(s.y_at(3.0), None);
        assert_eq!(s.first_y(), 10.0);
        assert_eq!(s.last_y(), 20.0);
    }

    #[test]
    fn figure_csv_contains_everything() {
        let mut f = Figure::new("figXX", "demo", "x", "y");
        let mut s = Series::new("model");
        s.push(1.0, 2.0);
        f.series.push(s);
        f.note("hello");
        let csv = f.to_csv();
        assert!(csv.contains("figXX"));
        assert!(csv.contains("series,model"));
        assert!(csv.contains("1,2.000000"));
        assert!(csv.contains("note: hello"));
    }

    #[test]
    fn p100_cluster_has_variability() {
        let cluster = p100_cluster();
        assert_eq!(cluster.len(), 4);
        let speeds: Vec<f64> = cluster
            .iter()
            .map(|d| d.as_gpu().profile().speed_factor)
            .collect();
        let max = speeds.iter().cloned().fold(f64::MIN, f64::max);
        let min = speeds.iter().cloned().fold(f64::MAX, f64::min);
        // ≈14.3 % spread (§5.6.1).
        assert!(((max - min) / max - 0.143).abs() < 0.02);
    }

    #[test]
    fn deploy_and_invoke_roundtrip() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            let dep = deploy(
                p100_cluster(),
                vec![Rc::new(MonteCarlo::default())],
                experiment_server_config(),
            );
            let mut client = dep.local_client().await;
            client
                .call("mci")
                .arg(Value::U64(50_000))
                .send()
                .await
                .unwrap()
        });
        assert!(matches!(out.output, Value::F64(v) if (v - 10f64.ln()).abs() < 0.2));
        assert!(out.report.cold_start);
    }

    #[test]
    fn reduction_math() {
        assert_eq!(reduction_pct(10.0, 1.0), 90.0);
        assert_eq!(reduction_pct(4.0, 4.0), 0.0);
    }
}
