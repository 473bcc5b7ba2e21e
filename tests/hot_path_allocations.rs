//! Allocation regression test for the steady-state simulation hot path.
//!
//! A counting global allocator tallies heap allocations made on this
//! test's thread. After a warm-up, repeated rounds of executor timer and
//! channel traffic and of registry updates to existing series must not
//! allocate at all. This file holds exactly one test so that no other
//! test shares the allocator's counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use kaas::core::MetricsRegistry;
use kaas::simtime::channel::{unbounded, Receiver, Sender};
use kaas::simtime::{sleep, spawn, timeout, Simulation};

struct Counting;

thread_local! {
    /// Whether allocations on this thread are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (including reallocations) counted on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|a| a.set(a.get() + 1));
    }
}

// SAFETY: defers every operation to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Starts counting this thread's allocations from zero.
fn start_counting() {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
}

/// Stops counting; returns the allocations since [`start_counting`].
fn stop_counting() -> u64 {
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

const WARM_UP: usize = 64;
const ROUNDS: usize = 1_000;

/// One round of executor traffic: a sleep, a timeout that completes, a
/// timeout that elapses (cancelling its inner sleep), and a ping-pong
/// with the peer task.
async fn round(i: u64, to_peer: &Sender<u64>, from_peer: &mut Receiver<u64>) {
    sleep(Duration::from_micros(1)).await;
    let done = timeout(Duration::from_micros(2), sleep(Duration::from_micros(1)));
    assert!(done.await.is_ok());
    let late = timeout(Duration::from_micros(1), sleep(Duration::from_micros(2)));
    assert!(late.await.is_err());
    to_peer.send(i).await.expect("peer alive");
    assert_eq!(from_peer.recv().await, Some(i + 1));
}

#[test]
fn steady_state_timers_channels_and_metric_updates_do_not_allocate() {
    // Executor: rounds of timer and channel traffic inside one running
    // simulation.
    let mut sim = Simulation::new();
    let executor_allocs = sim.block_on(async {
        let (to_peer, mut from_main) = unbounded::<u64>();
        let (to_main, mut from_peer) = unbounded::<u64>();
        spawn(async move {
            while let Some(v) = from_main.recv().await {
                to_main.send(v + 1).await.expect("main alive");
            }
        });
        for i in 0..WARM_UP as u64 {
            round(i, &to_peer, &mut from_peer).await;
        }
        // The executor's run loop and the peer task run on this thread
        // too, so everything between the two calls is counted.
        start_counting();
        for i in 0..ROUNDS as u64 {
            round(i, &to_peer, &mut from_peer).await;
        }
        stop_counting()
    });
    assert_eq!(
        executor_allocs, 0,
        "{ROUNDS} rounds of sleep, timeout and channel ping-pong allocated"
    );

    // Registry: updates to existing series, by plain and formatted name.
    let reg = MetricsRegistry::new();
    let update = |i: usize| {
        let k = ["mci", "matmul", "fft"][i % 3];
        reg.inc("invocations");
        reg.add("bytes", 64);
        reg.observe("latency.server", 1e-3);
        reg.set_gauge("in_flight", i as f64);
        reg.inc_fmt(format_args!("invocations.{k}"));
        reg.observe_fmt(format_args!("latency.server.{k}"), 1e-3);
        reg.set_gauge_fmt(format_args!("device{}.utilization", i % 8), 0.5);
    };
    for i in 0..WARM_UP {
        update(i);
    }
    start_counting();
    for i in 0..ROUNDS {
        update(i);
    }
    let registry_allocs = stop_counting();
    assert_eq!(
        registry_allocs, 0,
        "{ROUNDS} rounds of inc, observe and set_gauge on existing names allocated"
    );
    assert_eq!(reg.counter("invocations"), (WARM_UP + ROUNDS) as u64);
}
