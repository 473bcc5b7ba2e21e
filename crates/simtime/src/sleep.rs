//! Timer futures: [`sleep`], [`sleep_until`], [`yield_now`], [`timeout`].

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use crate::executor::{Handle, TimerHandle};
use crate::time::SimTime;

/// Future returned by [`sleep`] and [`sleep_until`].
#[derive(Debug)]
#[must_use = "futures do nothing unless awaited"]
pub struct Sleep {
    deadline: Option<SimTime>,
    delay: Duration,
    timer: Option<TimerHandle>,
}

impl Sleep {
    fn after(delay: Duration) -> Self {
        Sleep {
            deadline: None,
            delay,
            timer: None,
        }
    }

    fn until(at: SimTime) -> Self {
        Sleep {
            deadline: Some(at),
            delay: Duration::ZERO,
            timer: None,
        }
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        Handle::with_current(|handle| {
            let now = handle.now();
            let deadline = *this.deadline.get_or_insert(now + this.delay);
            if now >= deadline {
                // The clock reached the deadline, so the timer (if any)
                // already left the heap: nothing to cancel.
                this.timer = None;
                Poll::Ready(())
            } else {
                if this.timer.is_none() {
                    this.timer = Some(handle.register_timer(deadline, cx.waker().clone()));
                }
                Poll::Pending
            }
        })
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        // Cancel the pending timer so an abandoned sleep never advances
        // the simulation clock.
        if let Some(timer) = self.timer.take() {
            timer.cancel();
        }
    }
}

/// Suspends the current task for `d` of virtual time.
///
/// Sleeping costs no wall-clock time: the simulation clock jumps to the
/// deadline once all other runnable work has drained.
///
/// # Examples
///
/// ```
/// use kaas_simtime::{Simulation, sleep, now};
/// use std::time::Duration;
///
/// let mut sim = Simulation::new();
/// sim.block_on(async {
///     sleep(Duration::from_millis(10)).await;
///     assert_eq!(now().as_nanos(), 10_000_000);
/// });
/// ```
pub fn sleep(d: Duration) -> Sleep {
    Sleep::after(d)
}

/// Suspends the current task until the virtual clock reaches `at`.
///
/// Completes immediately if `at` is not in the future.
pub fn sleep_until(at: SimTime) -> Sleep {
    Sleep::until(at)
}

/// Future returned by [`yield_now`].
#[derive(Debug, Default)]
#[must_use = "futures do nothing unless awaited"]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Yields to other runnable tasks without advancing virtual time.
pub fn yield_now() -> YieldNow {
    YieldNow::default()
}

/// Error returned by [`timeout`] when the deadline elapses first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline elapsed before the future completed")
    }
}

impl std::error::Error for Elapsed {}

/// Future returned by [`timeout`].
#[derive(Debug)]
#[must_use = "futures do nothing unless awaited"]
pub struct Timeout<F> {
    future: F,
    sleep: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning; neither field is moved out.
        let this = unsafe { self.get_unchecked_mut() };
        let fut = unsafe { Pin::new_unchecked(&mut this.future) };
        if let Poll::Ready(v) = fut.poll(cx) {
            return Poll::Ready(Ok(v));
        }
        let sleep = unsafe { Pin::new_unchecked(&mut this.sleep) };
        match sleep.poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Awaits `future` for at most `d` of virtual time.
///
/// # Errors
///
/// Returns [`Elapsed`] if the deadline passes before `future` completes.
/// The inner future is dropped in that case.
///
/// # Examples
///
/// ```
/// use kaas_simtime::{Simulation, sleep, timeout};
/// use std::time::Duration;
///
/// let mut sim = Simulation::new();
/// sim.block_on(async {
///     let slow = sleep(Duration::from_secs(10));
///     assert!(timeout(Duration::from_secs(1), slow).await.is_err());
/// });
/// ```
pub fn timeout<F: Future>(d: Duration, future: F) -> Timeout<F> {
    Timeout {
        future,
        sleep: Sleep::after(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{now, spawn, Simulation};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn sleep_zero_completes_without_time_advance() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            sleep(Duration::ZERO).await;
            assert_eq!(now(), SimTime::ZERO);
        });
    }

    #[test]
    fn sleep_until_past_is_immediate() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            sleep(Duration::from_secs(5)).await;
            sleep_until(SimTime::from_secs(1)).await;
            assert_eq!(now(), SimTime::from_secs(5));
        });
    }

    #[test]
    fn yield_now_lets_peers_run() {
        let mut sim = Simulation::new();
        let log: Rc<RefCell<Vec<&str>>> = Rc::new(RefCell::new(Vec::new()));
        let (l1, l2) = (Rc::clone(&log), Rc::clone(&log));
        sim.block_on(async move {
            let h = spawn(async move {
                l1.borrow_mut().push("peer");
            });
            yield_now().await;
            l2.borrow_mut().push("main");
            h.await;
        });
        assert_eq!(*log.borrow(), vec!["peer", "main"]);
    }

    #[test]
    fn timeout_success_passes_value() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            timeout(Duration::from_secs(5), async {
                sleep(Duration::from_secs(1)).await;
                42
            })
            .await
        });
        assert_eq!(out, Ok(42));
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn timeout_elapsed_reports_error_at_deadline() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            timeout(Duration::from_secs(2), sleep(Duration::from_secs(50))).await
        });
        assert_eq!(out, Err(Elapsed));
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn elapsed_displays() {
        assert!(Elapsed.to_string().contains("deadline"));
    }

    #[test]
    fn nested_sleeps_accumulate() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            for _ in 0..5 {
                sleep(Duration::from_millis(200)).await;
            }
            assert_eq!(now(), SimTime::from_secs(1));
        });
    }
}
