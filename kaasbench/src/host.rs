//! The host clock: every read of wall time, thread CPU time and process
//! memory lives here, so the simulation code stays free of ambient
//! authority and the benchmark's measurements have one definition.

use std::time::Instant; // audit:allow(ambient): the benchmark measures host wall time on purpose

/// On-CPU nanoseconds of the calling thread so far, from
/// `/proc/thread-self/schedstat` (field 1, `sum_exec_runtime`). Unlike
/// wall time it does not grow while the thread is preempted, which is
/// what makes it usable on a shared machine.
pub fn thread_cpu_ns() -> u64 {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .or_else(|_| std::fs::read_to_string("/proc/self/schedstat"))
        .expect("schedstat is readable on Linux");
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the on-CPU nanoseconds")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// A wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant); // audit:allow(ambient): host wall time is one of the two measured clocks

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now()) // audit:allow(ambient): host wall time is one of the two measured clocks
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since [`Stopwatch::start`].
    pub fn nanos(&self) -> f64 {
        self.0.elapsed().as_nanos() as f64
    }
}

/// Times `op` in batches of `batch` calls until `budget_s` wall seconds
/// pass (at least five batches) and returns the median ns per call.
/// The median of batches discards the batches a preemption landed in.
pub fn time_per_op(budget_s: f64, batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let total = Stopwatch::start();
    let mut samples = Vec::new();
    let mut i = 0usize;
    while samples.len() < 5 || total.secs() < budget_s {
        let t = Stopwatch::start();
        for _ in 0..batch {
            op(i);
            i = i.wrapping_add(1);
        }
        samples.push(t.nanos() / batch as f64);
    }
    crate::stats::median(&samples)
}

/// The commit the benchmark was built from: read from `.git` in the
/// working directory, `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
