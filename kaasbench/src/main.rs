//! Two-clock benchmark of the KaaS runtime.
//!
//! ```text
//! cargo run --release --manifest-path kaasbench/Cargo.toml -- \
//!     --workload <invoke_open|tenant_data|overload_burst|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process: the load runs on this single simulation
//! thread, with no other OS threads. Each run repeats the workload's
//! seeded simulation until `--seconds` of wall time have passed and
//! measures two clocks:
//!
//! * **host** — on-CPU µs of this thread per request and set-up wall
//!   time, as medians over repeats (the first repeat only warms caches
//!   and is left out of the CPU median), and the peak RSS after the
//!   first repeat;
//! * **virtual** — the modeled service's latency, SLO share and goodput,
//!   which must repeat bit-identically across repeats of one seed.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced repeats (span sinks on server and clients), then
//! runs the layer probes, and prints the per-layer metrics. Every run
//! checks outputs against plain-Rust references and the request
//! accounting, and exits non-zero on any violation. `--workload all`
//! runs every workload in both modes on the given seed and on a
//! held-out seed, one child process each.
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the
//! run metadata (commit, compiler, `nproc`, repeats, spreads).

mod host;
mod invoke_open;
mod load;
mod overload_burst;
mod probes;
mod stats;
mod tenant_data;
mod trace;

use std::collections::BTreeMap;
use std::process::{exit, Command};

use host::Stopwatch;
use load::{Mode, Outcome};
use probes::Capture;
use stats::{median, spread};

const USAGE: &str = "usage: kaasbench --workload <invoke_open|tenant_data|overload_burst|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

type RunFn = fn(u64, Mode) -> (Outcome, Option<Capture>);

const WORKLOADS: [(&str, RunFn); 3] = [
    ("invoke_open", invoke_open::run),
    ("tenant_data", tenant_data::run),
    ("overload_burst", overload_burst::run),
];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 8] = [
    ("host_us_per_req", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("slo_ok_pct", "%"),
    ("goodput_rps", "1/s"),
    ("succeeded_pct", "%"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 53] = [
    ("simtime.spawn_ns", "ns"),
    ("simtime.timer_ns", "ns"),
    ("simtime.channel_ns", "ns"),
    ("simtime.peak_live_tasks", "count"),
    ("net.frame_ns", "ns"),
    ("net.send_us.p50", "us"),
    ("client.serialize_us.p50", "us"),
    ("client.retries_per_req", "count/req"),
    ("client.budget_denied_ratio", "ratio"),
    ("client.hedge_win_ratio", "ratio"),
    ("client.gen_late_us.p99", "us"),
    ("admission.shed_ratio", "ratio"),
    ("admission.limit_mean", "count"),
    ("admission.wait_us.p99", "us"),
    ("dispatch.front_door_us.p50", "us"),
    ("dispatch.queue_wait_us.p50", "us"),
    ("dispatch.queue_wait_us.p99", "us"),
    ("dispatch.ejected_ratio", "ratio"),
    ("dispatch.peak_shard_depth", "count"),
    ("dispatch.members_per_frame", "count"),
    ("pool.cold_starts", "count"),
    ("pool.cold_start_us.p50", "us"),
    ("pool.restore_share", "ratio"),
    ("runner.copy_in_us.p50", "us"),
    ("runner.kernel_exec_us.p50", "us"),
    ("runner.copy_out_us.p50", "us"),
    ("runner.busy_share", "ratio"),
    ("dataplane.hit_ratio", "ratio"),
    ("dataplane.evictions_per_req", "count/req"),
    ("dataplane.upload_kib_per_req", "KiB/req"),
    ("dataplane.hash_ns_per_kib", "ns/KiB"),
    ("dataplane.put_ns", "ns"),
    ("dataplane.get_ns", "ns"),
    ("dataplane.admit_ns", "ns"),
    ("flow.steps_per_run", "count"),
    ("flow.chained_hit_ratio", "ratio"),
    ("flow.step_us.p50", "us"),
    ("flow.latency_us.p99", "us"),
    ("guest.fuel_per_inv", "count"),
    ("guest.run_ns_per_kfuel", "ns/kfuel"),
    ("guest.run_verified_ns_per_kfuel", "ns/kfuel"),
    ("guest.verify_us_per_program", "us"),
    ("guest.register_us", "us"),
    ("kernels.exec_ns", "ns"),
    ("metrics.updates_per_req", "count/req"),
    ("metrics.inc_ns", "ns"),
    ("metrics.observe_ns", "ns"),
    ("trace.spans_per_req", "count/req"),
    ("trace.record_ns", "ns"),
    ("trace.export_ns_per_span", "ns"),
    ("trace.overhead_pct", "%"),
    ("host_us_per_req.untraced", "us"),
    ("host_us_per_req.traced", "us"),
];

/// Repeats per run at least (the first is a warm-up for the CPU clock).
const MIN_REPEATS: usize = 4;
/// Share of a traced run's budget spent on repeats; the rest probes.
const TRACED_SHARE: f64 = 0.7;
/// Share of an untraced run's budget spent on full repeats; the rest
/// repeats set-up alone, so `setup_s` is a median of many samples.
const LOAD_SHARE: f64 = 0.85;
/// Set-up samples per untraced run at least.
const MIN_SETUPS: usize = 10;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if map.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".to_owned());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace,
    })
}

/// What one run prints.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    violations: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    meta: BTreeMap<&'static str, String>,
    spreads: BTreeMap<&'static str, f64>,
}

impl Report {
    fn absorb(&mut self, outs: &[Outcome]) {
        for o in outs {
            self.attempted += o.sent;
            self.violations.extend(o.violations.iter().cloned());
        }
        if let Some(first) = outs.first() {
            let fp = first.fingerprint();
            if let Some((i, o)) = outs.iter().enumerate().find(|(_, o)| o.fingerprint() != fp) {
                let diff: Vec<_> = fp
                    .iter()
                    .zip(o.fingerprint())
                    .filter(|(a, b)| **a != *b)
                    .map(|(a, _)| a.0)
                    .collect();
                self.violations.push(format!(
                    "determinism: repeat {i} differs from repeat 0 in {diff:?}"
                ));
            }
        }
    }

    fn print(&self, catalog: &[(&'static str, &'static str)]) -> bool {
        let names: Vec<_> = self.metrics.iter().map(|m| m.0).collect();
        let want: Vec<_> = catalog.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "the run must report exactly the catalog");
        let mut violations = self.violations.clone();
        for (name, _, v) in &self.metrics {
            if !v.is_finite() {
                violations.push(format!("{name} is not finite"));
            }
        }
        let correct = violations.is_empty();
        let mut meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        let spreads: Vec<String> = self
            .spreads
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), num(*v)))
            .collect();
        meta.push(format!(
            "\"spread_iqr_over_median\": {{{}}}",
            spreads.join(", ")
        ));
        let vs: Vec<String> = violations.iter().map(|v| json_str(v)).collect();
        meta.push(format!("\"violations\": [{}]", vs.join(", ")));
        println!("{{\"meta\": {{{}}}}}", meta.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    num(*v),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            violations.len(),
            metrics.join(", ")
        );
        correct
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

fn base_meta(report: &mut Report, args: &Args) {
    // audit:allow(ambient): reads the core count for the metadata line; spawns no thread
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.meta.insert("workload", json_str(&args.workload));
    report.meta.insert("seed", args.seed.to_string());
    report.meta.insert("trace", args.trace.to_string());
    report.meta.insert("commit", json_str(&host::commit()));
    report
        .meta
        .insert("rustc", json_str(env!("KAASBENCH_RUSTC")));
    report.meta.insert("nproc", nproc.to_string());
}

/// `--trace 0`: untraced repeats until the budget is spent, then
/// set-up-only repeats.
fn untraced(run: RunFn, args: &Args) -> Report {
    let clock = Stopwatch::start();
    let (mut outs, mut host, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    while outs.len() < MIN_REPEATS || clock.secs() < args.seconds * LOAD_SHARE {
        let o = run(args.seed, Mode::Plain).0;
        // The first repeat warms caches and the allocator; the peak
        // resident set is read after it, so heap fragmentation from
        // later repeats does not blur the footprint of one run.
        if outs.is_empty() {
            peak_rss_mb = host::peak_rss_mb();
        } else {
            host.push(o.host_us_per_req);
        }
        setup.push(o.setup_s);
        outs.push(o);
    }
    while setup.len() < MIN_SETUPS || clock.secs() < args.seconds {
        setup.push(run(args.seed, Mode::Setup).0.setup_s);
    }
    let mut report = Report::default();
    base_meta(&mut report, args);
    report.absorb(&outs);
    report.meta.insert("repeats", outs.len().to_string());
    report.meta.insert("setups", setup.len().to_string());
    report.spreads.insert("host_us_per_req", spread(&host));
    report.spreads.insert("setup_s", spread(&setup));
    let virt = &outs[0].virt;
    for (name, unit) in END_TO_END {
        let value = match name {
            "host_us_per_req" => median(&host),
            "setup_s" => median(&setup),
            "peak_rss_mb" => peak_rss_mb,
            _ => virt[name],
        };
        report.metrics.push((name, unit, value));
    }
    report
}

/// `--trace 1`: alternating untraced/traced repeats, then the probes.
fn traced(run: RunFn, args: &Args) -> Report {
    let clock = Stopwatch::start();
    let (mut plain, mut traced, mut capture) = (Vec::new(), Vec::new(), None);
    let (mut host_plain, mut host_traced) = (Vec::new(), Vec::new());
    while traced.len() < 2 || clock.secs() < args.seconds * TRACED_SHARE {
        let o = run(args.seed, Mode::Plain).0;
        // The first repeat warms caches and the allocator.
        if !plain.is_empty() {
            host_plain.push(o.host_us_per_req);
        }
        plain.push(o);
        let (o, cap) = run(args.seed, Mode::Traced);
        host_traced.push(o.host_us_per_req);
        capture = capture.or(cap);
        traced.push(o);
    }
    let mut report = Report::default();
    base_meta(&mut report, args);
    report.absorb(&plain);
    report.absorb(&traced);
    // Tracing must not change what it observes.
    if plain[0].virt != traced[0].virt {
        report.violations.push(format!(
            "tracing changed the virtual end-to-end metrics: {:?} vs {:?}",
            plain[0].virt, traced[0].virt
        ));
    }
    let capture = capture.expect("traced repeats capture probe inputs");
    let remaining = (args.seconds - clock.secs()).max(args.seconds * (1.0 - TRACED_SHARE));
    let mut values = probes::run(&capture, remaining);
    values.extend(traced[0].layer.iter().map(|(k, v)| (*k, *v)));
    let (p, t) = (median(&host_plain), median(&host_traced));
    values.insert("trace.overhead_pct", 100.0 * (t / p - 1.0));
    values.insert("host_us_per_req.untraced", p);
    values.insert("host_us_per_req.traced", t);
    report.meta.insert("repeats", plain.len().to_string());
    report
        .meta
        .insert("repeats_traced", traced.len().to_string());
    report
        .spreads
        .insert("host_us_per_req.untraced", spread(&host_plain));
    report
        .spreads
        .insert("host_us_per_req.traced", spread(&host_traced));
    for (name, unit) in PER_LAYER {
        let value = values.get(name).copied().unwrap_or(f64::NAN);
        report.metrics.push((name, unit, value));
    }
    report
}

/// The held-out seed paired with `seed` by `--workload all`.
fn held_out(seed: u64) -> u64 {
    seed.wrapping_add(1_000_003)
}

/// Runs every workload in both modes on `seed` and its held-out seed,
/// one child process each, and sums their accounting.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for (workload, _) in WORKLOADS {
        for seed in [args.seed, held_out(args.seed)] {
            for trace in ["0", "1"] {
                let out = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                    .output()
                    .expect("child run");
                let stdout = String::from_utf8_lossy(&out.stdout);
                println!("# {workload} seed={seed} trace={trace} exit={}", out.status);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                let last = stdout.lines().last().unwrap_or("");
                correct &= out.status.success() && last.starts_with("{\"correct\": true");
                attempted += json_int(last, "attempted");
                failed += json_int(last, "failed");
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        attempted.max(1)
    );
    if correct {
        0
    } else {
        1
    }
}

/// The integer after `"key": ` in one of our own result lines.
fn json_int(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    line.find(&pat)
        .map(|i| &line[i + pat.len()..])
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2)
    });
    if args.workload == "all" {
        exit(run_all(&args));
    }
    let Some((_, run)) = WORKLOADS.iter().find(|(w, _)| *w == args.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        exit(2)
    };
    let report = if args.trace {
        traced(*run, &args)
    } else {
        untraced(*run, &args)
    };
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    exit(if report.print(catalog) { 0 } else { 1 });
}
