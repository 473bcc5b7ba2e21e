//! The deterministic single-threaded discrete-event executor.
//!
//! A [`Simulation`] owns a set of tasks (plain `Future`s, no `Send`
//! required), a virtual clock, and a timer wheel. Tasks advance only when
//! polled; the clock advances only when every runnable task has been
//! drained, jumping straight to the next timer deadline. The result is a
//! deterministic discrete-event simulation that is written like ordinary
//! async Rust.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::join::{JoinHandle, JoinState};
use crate::time::SimTime;

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Queue of task ids that have been woken and must be re-polled.
///
/// This is the only piece of executor state shared with [`Waker`]s, which
/// the `std::task` contract requires to be `Send + Sync` even though this
/// executor never leaves its thread.
#[derive(Default)]
pub(crate) struct WakeQueue {
    queue: Mutex<VecDeque<usize>>,
}

impl WakeQueue {
    fn push(&self, id: usize) {
        self.queue
            .lock()
            .expect("wake queue poisoned")
            .push_back(id);
    }

    fn pop(&self) -> Option<usize> {
        self.queue.lock().expect("wake queue poisoned").pop_front()
    }
}

struct TaskWaker {
    id: usize,
    queue: Arc<WakeQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.queue.push(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.queue.push(self.id);
    }
}

/// Identifies one timer registration: its sequence number (unique, in
/// registration order) and the timer slab slot holding its waker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerKey {
    seq: u64,
    slot: usize,
}

/// A timer in the executor's heap: wake registration `key` once the
/// clock reaches `at`, provided its slot still holds that registration.
/// Ties on `at` are broken by registration order (`key.seq`, unique, so
/// the slot never decides) to keep the simulation deterministic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    at: SimTime,
    key: TimerKey,
}

/// One slot of the timer slab: the waker of the registration `seq`
/// currently parked here, or `None` once it fired or was cancelled.
struct TimerSlot {
    seq: u64,
    waker: Option<Waker>,
}

/// One task slot: the future of the task occupying it (absent while the
/// task is being polled or once it finished) and the waker every task
/// placed in this slot is polled with. The waker is built once, when the
/// slot is created, and only ever names this slot's id.
struct TaskSlot {
    future: Option<LocalFuture>,
    waker: Waker,
}

pub(crate) struct Core {
    now: SimTime,
    timer_seq: u64,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_slots: Vec<TimerSlot>,
    free_timers: Vec<usize>,
    tasks: Vec<TaskSlot>,
    free: Vec<usize>,
    live: usize,
    /// Sanitizer hooks run after every task poll (an "executor step").
    /// Only compiled under the `sim-sanitizer` feature so the hot loop
    /// stays hook-free in normal builds.
    #[cfg(feature = "sim-sanitizer")]
    step_hooks: Vec<Rc<dyn Fn()>>,
}

impl Core {
    fn new() -> Self {
        Core {
            now: SimTime::ZERO,
            timer_seq: 0,
            timers: BinaryHeap::new(),
            timer_slots: Vec::new(),
            free_timers: Vec::new(),
            tasks: Vec::new(),
            free: Vec::new(),
            live: 0,
            #[cfg(feature = "sim-sanitizer")]
            step_hooks: Vec::new(),
        }
    }

    fn insert_task(&mut self, fut: LocalFuture, queue: &Arc<WakeQueue>) -> usize {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            debug_assert!(self.tasks[id].future.is_none());
            self.tasks[id].future = Some(fut);
            id
        } else {
            let id = self.tasks.len();
            let waker = Waker::from(Arc::new(TaskWaker {
                id,
                queue: Arc::clone(queue),
            }));
            self.tasks.push(TaskSlot {
                future: Some(fut),
                waker,
            });
            id
        }
    }

    fn register_timer(&mut self, at: SimTime, waker: Waker) -> TimerKey {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        let slot = self.free_timers.pop().unwrap_or_else(|| {
            self.timer_slots.push(TimerSlot { seq, waker: None });
            self.timer_slots.len() - 1
        });
        self.timer_slots[slot] = TimerSlot {
            seq,
            waker: Some(waker),
        };
        let key = TimerKey { seq, slot };
        self.timers.push(Reverse(TimerEntry { at, key }));
        key
    }

    /// Takes the waker of registration `key` out of its slot and frees
    /// the slot; `None` if that registration already fired or was
    /// cancelled (the slot may since hold a newer registration).
    fn take_timer(&mut self, key: TimerKey) -> Option<Waker> {
        let slot = &mut self.timer_slots[key.slot];
        if slot.seq != key.seq {
            return None;
        }
        let waker = slot.waker.take()?;
        self.free_timers.push(key.slot);
        Some(waker)
    }

    fn is_live(&self, key: TimerKey) -> bool {
        let slot = &self.timer_slots[key.slot];
        slot.seq == key.seq && slot.waker.is_some()
    }

    /// Discards cancelled timers sitting at the head of the heap so they
    /// never advance the clock.
    fn prune_cancelled_timers(&mut self) {
        while let Some(Reverse(head)) = self.timers.peek() {
            if self.is_live(head.key) {
                break;
            }
            self.timers.pop();
        }
    }
}

/// A registered timer, held by the [`Sleep`](crate::Sleep) that owns it.
/// Dropping it does nothing; [`TimerHandle::cancel`] discards the timer
/// so it neither wakes its task nor advances the clock.
#[derive(Debug)]
pub(crate) struct TimerHandle {
    core: Weak<RefCell<Core>>,
    key: TimerKey,
}

impl TimerHandle {
    /// Cancels the timer if it is still pending. A no-op once it fired,
    /// and once its simulation is gone.
    pub(crate) fn cancel(self) {
        if let Some(core) = self.core.upgrade() {
            // The waker is dropped after the core is released.
            let waker = core.borrow_mut().take_timer(self.key);
            drop(waker);
        }
    }
}

/// Handle to a running (or constructed) simulation.
///
/// Obtainable inside tasks via [`Handle::current`], or from
/// [`Simulation::handle`]. Cloning is cheap.
#[derive(Clone)]
pub struct Handle {
    core: Rc<RefCell<Core>>,
    wake: Arc<WakeQueue>,
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle").field("now", &self.now()).finish()
    }
}

thread_local! {
    static CONTEXT: RefCell<Option<Handle>> = const { RefCell::new(None) };
}

struct ContextGuard {
    prev: Option<Handle>,
}

impl ContextGuard {
    fn enter(handle: Handle) -> Self {
        let prev = CONTEXT.with(|c| c.borrow_mut().replace(handle));
        ContextGuard { prev }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

impl Handle {
    /// The handle of the simulation currently running on this thread.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`Simulation::run`] /
    /// [`Simulation::block_on`] (there is no ambient simulation).
    pub fn current() -> Handle {
        Handle::try_current().expect(
            "no simulation context: kaas_simtime free functions may only be \
             used inside tasks driven by Simulation::run",
        )
    }

    /// Like [`Handle::current`] but returns `None` instead of panicking.
    pub fn try_current() -> Option<Handle> {
        Handle::try_with_current(Handle::clone)
    }

    /// Runs `f` on the handle of the simulation currently running on
    /// this thread, borrowed in place: unlike [`Handle::current`] it
    /// clones no reference count. `f` must not run a simulation itself.
    ///
    /// # Panics
    ///
    /// Panics when there is no ambient simulation; see
    /// [`Handle::current`].
    pub fn with_current<R>(f: impl FnOnce(&Handle) -> R) -> R {
        Handle::try_with_current(f).expect(
            "no simulation context: kaas_simtime free functions may only be \
             used inside tasks driven by Simulation::run",
        )
    }

    /// Like [`Handle::with_current`] but returns `None` (without calling
    /// `f`) instead of panicking.
    pub fn try_with_current<R>(f: impl FnOnce(&Handle) -> R) -> Option<R> {
        CONTEXT.with(|c| c.borrow().as_ref().map(f))
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Spawns a task onto the simulation.
    ///
    /// The task starts running at the current virtual instant (before time
    /// next advances). Returns a [`JoinHandle`] that resolves to the task's
    /// output.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState::new()));
        let state2 = Rc::clone(&state);
        let wrapped = Box::pin(async move {
            let out = fut.await;
            JoinState::complete(&state2, out);
        });
        let id = self.core.borrow_mut().insert_task(wrapped, &self.wake);
        self.wake.push(id);
        JoinHandle::new(state)
    }

    /// Registers `waker` to be woken once the clock reaches `at`; the
    /// returned handle cancels the timer.
    pub(crate) fn register_timer(&self, at: SimTime, waker: Waker) -> TimerHandle {
        let key = self.core.borrow_mut().register_timer(at, waker);
        TimerHandle {
            core: Rc::downgrade(&self.core),
            key,
        }
    }

    /// Number of tasks that have been spawned and not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.core.borrow().live
    }

    /// Registers a sanitizer hook run after every executor step (each
    /// task poll). Hooks must be cheap and must panic on invariant
    /// violation — that is their whole job.
    #[cfg(feature = "sim-sanitizer")]
    pub fn add_step_hook(&self, hook: Rc<dyn Fn()>) {
        self.core.borrow_mut().step_hooks.push(hook);
    }
}

/// A deterministic discrete-event simulation.
///
/// # Examples
///
/// ```
/// use kaas_simtime::{Simulation, sleep};
/// use std::time::Duration;
///
/// let mut sim = Simulation::new();
/// let out = sim.block_on(async {
///     sleep(Duration::from_secs(3)).await;
///     kaas_simtime::now()
/// });
/// assert_eq!(out.as_secs_f64(), 3.0);
/// ```
pub struct Simulation {
    handle: Handle,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .field("live_tasks", &self.handle.live_tasks())
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulation {
            handle: Handle {
                core: Rc::new(RefCell::new(Core::new())),
                wake: Arc::new(WakeQueue::default()),
            },
        }
    }

    /// A cloneable handle to this simulation.
    pub fn handle(&self) -> Handle {
        self.handle.clone()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// Number of live (incomplete) tasks.
    pub fn live_tasks(&self) -> usize {
        self.handle.live_tasks()
    }

    /// Spawns a task; see [`Handle::spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.handle.spawn(fut)
    }

    /// Runs until no runnable task and no pending timer remains.
    ///
    /// Returns the final virtual time. Tasks blocked on external events that
    /// can never fire (a deadlock) are left pending; check
    /// [`Simulation::live_tasks`] afterwards if that matters to you.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the clock would pass `limit`, then stops with the clock
    /// at `limit` (or earlier if the event queue empties first).
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        let _guard = ContextGuard::enter(self.handle());
        loop {
            self.drain_runnable();
            // Advance virtual time to the next (live) timer deadline.
            let next = {
                let mut core = self.handle.core.borrow_mut();
                core.prune_cancelled_timers();
                core.timers.peek().map(|Reverse(e)| e.at)
            };
            let Some(next) = next else {
                break;
            };
            if next > limit {
                let mut core = self.handle.core.borrow_mut();
                if limit != SimTime::MAX && limit > core.now {
                    core.now = limit;
                }
                break;
            }
            let mut core = self.handle.core.borrow_mut();
            debug_assert!(next >= core.now, "timer in the past");
            core.now = next;
            while let Some(&Reverse(head)) = core.timers.peek() {
                if head.at > next {
                    break;
                }
                core.timers.pop();
                if let Some(waker) = core.take_timer(head.key) {
                    waker.wake();
                }
            }
        }
        self.now()
    }

    /// Advances the simulation by `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) -> SimTime {
        let limit = self.now() + d;
        self.run_until(limit)
    }

    /// Spawns `fut`, runs the simulation to completion, and returns the
    /// future's output.
    ///
    /// # Panics
    ///
    /// Panics if the simulation goes idle before `fut` completes (i.e. the
    /// future deadlocked waiting on an event nobody will ever send).
    pub fn block_on<F>(&mut self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let handle = self.spawn(fut);
        self.run();
        handle
            .try_take()
            .expect("simulation went idle before the root future completed (deadlock)")
    }

    /// Polls every woken task until the wake queue is empty.
    fn drain_runnable(&mut self) {
        while let Some(id) = self.handle.wake.pop() {
            self.poll_task(id);
        }
    }

    fn poll_task(&mut self, id: usize) {
        // Take the future out of its slot so the core is not borrowed while
        // the task runs (tasks may spawn, register timers, wake others...).
        // The slot's waker is cloned (a reference-count bump), never
        // rebuilt.
        let (mut fut, waker) = {
            let mut core = self.handle.core.borrow_mut();
            let slot = &mut core.tasks[id];
            let Some(fut) = slot.future.take() else {
                // Stale wake for a completed task.
                return;
            };
            (fut, slot.waker.clone())
        };
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                let mut core = self.handle.core.borrow_mut();
                core.free.push(id);
                core.live -= 1;
            }
            Poll::Pending => {
                self.handle.core.borrow_mut().tasks[id].future = Some(fut);
            }
        }
        // Every task poll is an executor step: give the sanitizer a
        // chance to check cross-module invariants at a quiescent point
        // (no task mid-poll, core unborrowed).
        #[cfg(feature = "sim-sanitizer")]
        {
            let hooks = self.handle.core.borrow().step_hooks.clone();
            for hook in hooks {
                hook();
            }
        }
    }
}

/// Current virtual time of the ambient simulation.
///
/// # Panics
///
/// Panics outside a running simulation; see [`Handle::current`].
pub fn now() -> SimTime {
    Handle::with_current(Handle::now)
}

/// Spawns a task onto the ambient simulation; see [`Handle::spawn`].
///
/// # Panics
///
/// Panics outside a running simulation; see [`Handle::current`].
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    Handle::with_current(|h| h.spawn(fut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sleep;
    use std::cell::Cell;

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let mut sim = Simulation::new();
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn block_on_returns_value() {
        let mut sim = Simulation::new();
        assert_eq!(sim.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn sleep_advances_clock() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            sleep(Duration::from_millis(250)).await;
            now()
        });
        assert_eq!(t, SimTime::from_secs_f64(0.25));
        assert_eq!(sim.now(), t);
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let mut sim = Simulation::new();
        let log: Rc<RefCell<Vec<(u64, &str)>>> = Rc::new(RefCell::new(Vec::new()));
        let l1 = Rc::clone(&log);
        let l2 = Rc::clone(&log);
        sim.spawn(async move {
            for _ in 0..3 {
                sleep(Duration::from_secs(2)).await;
                l1.borrow_mut().push((now().as_nanos(), "a"));
            }
        });
        sim.spawn(async move {
            for _ in 0..2 {
                sleep(Duration::from_secs(3)).await;
                l2.borrow_mut().push((now().as_nanos(), "b"));
            }
        });
        sim.run();
        let log = log.borrow();
        let secs: Vec<(u64, &str)> = log.iter().map(|&(n, s)| (n / 1_000_000_000, s)).collect();
        // At t=6 both fire; "b" registered its timer at t=3, "a" at t=4,
        // so registration order puts "b" first.
        assert_eq!(secs, vec![(2, "a"), (3, "b"), (4, "a"), (6, "b"), (6, "a")]);
    }

    #[test]
    fn run_until_stops_at_limit() {
        let mut sim = Simulation::new();
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            sleep(Duration::from_secs(10)).await;
            d.set(true);
        });
        sim.run_until(SimTime::from_secs(5));
        assert!(!done.get());
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run();
        assert!(done.get());
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn run_for_advances_relative() {
        let mut sim = Simulation::new();
        sim.spawn(async {
            sleep(Duration::from_secs(100)).await;
        });
        sim.run_for(Duration::from_secs(30));
        assert_eq!(sim.now(), SimTime::from_secs(30));
        sim.run_for(Duration::from_secs(30));
        assert_eq!(sim.now(), SimTime::from_secs(60));
    }

    #[test]
    fn spawn_inside_task() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            let h = spawn(async {
                sleep(Duration::from_secs(1)).await;
                7
            });
            h.await
        });
        assert_eq!(out, 7);
    }

    #[test]
    fn live_tasks_counts_unfinished() {
        let mut sim = Simulation::new();
        // A task that waits forever on a timerless pending future: model a
        // deadlock with a never-completing oneshot.
        let (_tx, rx) = crate::channel::oneshot::<()>();
        sim.spawn(async move {
            let _ = rx.await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn block_on_deadlock_panics() {
        let (_tx, rx) = crate::channel::oneshot::<()>();
        let mut sim = Simulation::new();
        sim.block_on(async move {
            let _ = rx.await;
        });
    }

    #[test]
    fn same_deadline_timers_fire_in_registration_order() {
        let mut sim = Simulation::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10u32 {
            let l = Rc::clone(&log);
            sim.spawn(async move {
                sleep(Duration::from_secs(1)).await;
                l.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handle_try_current_outside_run_is_none() {
        assert!(Handle::try_current().is_none());
    }

    /// Polls `fut` exactly once from the current task, ignoring the
    /// result (registers a sleep's timer without awaiting it).
    async fn poll_once<F: Future + Unpin>(fut: &mut F) {
        std::future::poll_fn(|cx| {
            let _ = Pin::new(&mut *fut).poll(cx);
            Poll::Ready(())
        })
        .await;
    }

    /// Wraps a future, logging the virtual time of each poll.
    struct Logged<F> {
        fut: Pin<Box<F>>,
        polls: Rc<RefCell<Vec<SimTime>>>,
    }

    impl<F: Future> Future for Logged<F> {
        type Output = F::Output;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
            self.polls.borrow_mut().push(now());
            self.fut.as_mut().poll(cx)
        }
    }

    fn logged<F: Future>(fut: F) -> (Logged<F>, Rc<RefCell<Vec<SimTime>>>) {
        let polls = Rc::new(RefCell::new(Vec::new()));
        let fut = Logged {
            fut: Box::pin(fut),
            polls: Rc::clone(&polls),
        };
        (fut, polls)
    }

    #[test]
    fn cancelled_timer_with_reused_slot_neither_wakes_nor_advances() {
        // A later deadline reuses the cancelled timer's slot: the stale
        // 10 s heap entry must not fire the 20 s registration early.
        let mut sim = Simulation::new();
        let (task, polls) = logged(async {
            poll_once(&mut sleep(Duration::from_secs(10))).await;
            sleep(Duration::from_secs(20)).await;
        });
        sim.spawn(task);
        assert_eq!(sim.run(), SimTime::from_secs(20));
        assert_eq!(*polls.borrow(), [SimTime::ZERO, SimTime::from_secs(20)]);

        // An earlier deadline reuses it: once that fires, the stale entry
        // is all that is left and must not move the clock.
        let mut sim = Simulation::new();
        let (task, polls) = logged(async {
            poll_once(&mut sleep(Duration::from_secs(10))).await;
            sleep(Duration::from_secs(5)).await;
        });
        sim.spawn(task);
        assert_eq!(sim.run(), SimTime::from_secs(5));
        assert_eq!(*polls.borrow(), [SimTime::ZERO, SimTime::from_secs(5)]);
    }

    #[test]
    fn dropping_a_fired_sleep_leaves_its_reused_slot_alone() {
        let mut sim = Simulation::new();
        let finished = Rc::new(Cell::new(None));
        let f = Rc::clone(&finished);
        // Woken first at t=1, this task registers a new timer, which
        // takes the slot just freed by the timeout's own (fired) timer.
        sim.spawn(async move {
            sleep(Duration::from_secs(1)).await;
            sleep(Duration::from_secs(1)).await;
            f.set(Some(now()));
        });
        // The inner sleep wins, so the timeout drops its fired sleep
        // without polling it: that must not cancel the new timer.
        sim.spawn(async {
            let out = crate::timeout(Duration::from_secs(1), sleep(Duration::from_secs(1))).await;
            assert_eq!(out, Ok(()));
        });
        assert_eq!(sim.run(), SimTime::from_secs(2));
        assert_eq!(finished.get(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn sleep_dropped_between_run_until_calls_still_cancels() {
        let mut sim = Simulation::new();
        let parked: Rc<RefCell<Option<crate::Sleep>>> = Rc::new(RefCell::new(None));
        let p = Rc::clone(&parked);
        sim.spawn(async move {
            let mut s = sleep(Duration::from_secs(10));
            poll_once(&mut s).await;
            *p.borrow_mut() = Some(s);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(parked.borrow().is_some(), "the task parked its sleep");
        // Dropped outside the run loop, with no ambient simulation.
        drop(parked.borrow_mut().take());
        assert_eq!(sim.run(), SimTime::from_secs(1));
    }

    #[test]
    fn sleep_outliving_its_simulation_drops_quietly() {
        let parked: Rc<RefCell<Option<crate::Sleep>>> = Rc::new(RefCell::new(None));
        let p = Rc::clone(&parked);
        let mut sim = Simulation::new();
        sim.spawn(async move {
            let mut s = sleep(Duration::from_secs(10));
            poll_once(&mut s).await;
            *p.borrow_mut() = Some(s);
        });
        sim.run_until(SimTime::from_secs(1));
        drop(sim);
        assert!(parked.borrow().is_some(), "the task parked its sleep");
        drop(parked.borrow_mut().take());
    }

    #[test]
    fn stale_wake_after_slot_reuse_is_one_spurious_poll() {
        let mut sim = Simulation::new();
        let stash: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let st = Rc::clone(&stash);
        sim.spawn(std::future::poll_fn(move |cx| {
            *st.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        sim.run();
        assert_eq!(sim.live_tasks(), 0);

        // The next task takes over the finished task's slot.
        let (tx, rx) = crate::channel::oneshot::<u32>();
        let (task, polls) = logged(rx);
        let got = sim.spawn(task);
        sim.run();
        assert_eq!(polls.borrow().len(), 1);

        // The old task's waker now names the new task: one spurious poll,
        // which leaves it pending.
        stash.borrow_mut().take().expect("stashed").wake();
        sim.run();
        assert_eq!(polls.borrow().len(), 2);
        assert_eq!(sim.live_tasks(), 1);

        tx.send(7).expect("receiver alive");
        sim.run();
        assert_eq!(polls.borrow().len(), 3);
        assert_eq!(got.try_take(), Some(Ok(7)));
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn many_tasks_reuse_slots() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            for _ in 0..100 {
                spawn(async { sleep(Duration::from_millis(1)).await }).await;
            }
        });
        assert_eq!(sim.live_tasks(), 0);
    }
}
