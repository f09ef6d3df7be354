//! Time: [`sleep`], [`timeout`], [`interval`], and an [`Instant`] that
//! converts to and from `std::time::Instant`.
//!
//! Timers fire from the driver turn that first observes their deadline
//! has passed; a blocked driver wakes at the next whole millisecond at or
//! after the earliest deadline (tokio's timer granularity is 1 ms too).

use crate::driver::TimerEntry;
use crate::runtime::Shared;
use std::fmt;
use std::future::Future;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Context, Poll};
pub use std::time::Duration;

/// A monotonic instant; a thin wrapper over `std::time::Instant`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant(std::time::Instant);

impl Instant {
    /// The current instant.
    pub fn now() -> Instant {
        Instant(std::time::Instant::now())
    }

    /// Wrap a std instant.
    pub fn from_std(std: std::time::Instant) -> Instant {
        Instant(std)
    }

    /// The wrapped std instant.
    pub fn into_std(self) -> std::time::Instant {
        self.0
    }

    /// Time since this instant (zero if it is in the future).
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// `self - earlier`, saturating at zero.
    pub fn duration_since(&self, earlier: Instant) -> Duration {
        self.0.saturating_duration_since(earlier.0)
    }

    /// `self - earlier`, saturating at zero.
    pub fn saturating_duration_since(&self, earlier: Instant) -> Duration {
        self.0.saturating_duration_since(earlier.0)
    }

    /// `self + d`, or `None` on overflow.
    pub fn checked_add(&self, d: Duration) -> Option<Instant> {
        self.0.checked_add(d).map(Instant)
    }
}

impl From<std::time::Instant> for Instant {
    fn from(std: std::time::Instant) -> Self {
        Instant(std)
    }
}

impl From<Instant> for std::time::Instant {
    fn from(t: Instant) -> Self {
        t.0
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        Instant(self.0 + d)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, d: Duration) -> Instant {
        Instant(self.0 - d)
    }
}

impl SubAssign<Duration> for Instant {
    fn sub_assign(&mut self, d: Duration) {
        self.0 -= d;
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, other: Instant) -> Duration {
        self.0.saturating_duration_since(other.0)
    }
}

/// A deadline far enough away to mean "never" without overflowing.
fn far_future() -> std::time::Instant {
    std::time::Instant::now() + Duration::from_secs(86_400 * 365 * 30)
}

/// Future returned by [`sleep`] and [`sleep_until`].
pub struct Sleep {
    deadline: std::time::Instant,
    shared: Arc<Shared>,
    /// The armed driver entry and its key, once first polled.
    armed: Option<((std::time::Instant, u64), Arc<TimerEntry>)>,
}

impl Sleep {
    fn new(deadline: std::time::Instant) -> Sleep {
        Sleep {
            deadline,
            shared: crate::runtime::current(),
            armed: None,
        }
    }

    /// When this sleep completes.
    pub fn deadline(&self) -> Instant {
        Instant(self.deadline)
    }

    /// Whether the deadline has passed.
    pub fn is_elapsed(&self) -> bool {
        std::time::Instant::now() >= self.deadline
    }

    /// Re-arm for a new deadline.
    pub fn reset(mut self: Pin<&mut Self>, deadline: Instant) {
        self.disarm();
        self.deadline = deadline.0;
    }

    fn disarm(&mut self) {
        if let Some((key, entry)) = self.armed.take() {
            if !entry.fired.load(Ordering::Acquire) {
                self.shared.driver.cancel_timer(key);
            }
        }
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if std::time::Instant::now() >= self.deadline {
            self.disarm();
            return Poll::Ready(());
        }
        match &self.armed {
            Some((_, entry)) => {
                let mut waker = entry.waker.lock().unwrap_or_else(PoisonError::into_inner);
                if !waker.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                    *waker = Some(cx.waker().clone());
                }
                drop(waker);
                // Fired between the clock read and the waker update (only
                // possible right at the deadline): report it now.
                if entry.fired.load(Ordering::Acquire) {
                    return Poll::Ready(());
                }
            }
            None => {
                let entry = Arc::new(TimerEntry {
                    fired: AtomicBool::new(false),
                    waker: Mutex::new(Some(cx.waker().clone())),
                });
                let key = self
                    .shared
                    .driver
                    .arm_timer(self.deadline, Arc::clone(&entry));
                self.armed = Some((key, entry));
            }
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        self.disarm();
    }
}

impl fmt::Debug for Sleep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sleep")
            .field("deadline", &self.deadline)
            .finish()
    }
}

/// Complete after `duration`.
pub fn sleep(duration: Duration) -> Sleep {
    let now = std::time::Instant::now();
    Sleep::new(now.checked_add(duration).unwrap_or_else(far_future))
}

/// Complete at `deadline`.
pub fn sleep_until(deadline: Instant) -> Sleep {
    Sleep::new(deadline.0)
}

/// Errors from this module.
pub mod error {
    use std::fmt;

    /// A [`timeout`](super::timeout) ran out before its future finished.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Elapsed(pub(super) ());

    impl fmt::Display for Elapsed {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("deadline has elapsed")
        }
    }

    impl std::error::Error for Elapsed {}

    impl From<Elapsed> for std::io::Error {
        fn from(_: Elapsed) -> Self {
            std::io::ErrorKind::TimedOut.into()
        }
    }
}

/// Future returned by [`timeout`] and [`timeout_at`].
pub struct Timeout<F> {
    future: F,
    sleep: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, error::Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: `future` is structurally pinned — it is never moved out
        // of `self` and is dropped in place with it; `sleep` is `Unpin`
        // and is re-pinned with `Pin::new`.
        let this = unsafe { self.get_unchecked_mut() };
        // SAFETY: as above.
        let future = unsafe { Pin::new_unchecked(&mut this.future) };
        if let Poll::Ready(out) = future.poll(cx) {
            return Poll::Ready(Ok(out));
        }
        match Pin::new(&mut this.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(error::Elapsed(()))),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Require `future` to finish within `duration`.
pub fn timeout<F: Future>(duration: Duration, future: F) -> Timeout<F> {
    Timeout {
        future,
        sleep: sleep(duration),
    }
}

/// Require `future` to finish by `deadline`.
pub fn timeout_at<F: Future>(deadline: Instant, future: F) -> Timeout<F> {
    Timeout {
        future,
        sleep: sleep_until(deadline),
    }
}

/// What an [`Interval`] does after ticks were missed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MissedTickBehavior {
    /// Fire the missed ticks back to back until caught up.
    #[default]
    Burst,
    /// Restart the period from now.
    Delay,
    /// Drop the missed ticks and stay on the original schedule.
    Skip,
}

/// Ticks at a fixed period. See [`interval`].
#[derive(Debug)]
pub struct Interval {
    next: std::time::Instant,
    period: Duration,
    missed: MissedTickBehavior,
}

impl Interval {
    /// Wait for the next tick; the first completes immediately.
    pub async fn tick(&mut self) -> Instant {
        sleep_until(Instant(self.next)).await;
        let fired = self.next;
        let now = std::time::Instant::now();
        self.next = match self.missed {
            MissedTickBehavior::Burst => fired + self.period,
            MissedTickBehavior::Delay => now + self.period,
            MissedTickBehavior::Skip => {
                let mut next = fired + self.period;
                if next <= now {
                    let behind = now.duration_since(next).as_nanos();
                    let period = self.period.as_nanos().max(1);
                    let skipped = behind / period + 1;
                    next += Duration::from_nanos((skipped * period).min(u64::MAX as u128) as u64);
                }
                next
            }
        };
        Instant(fired)
    }

    /// Choose what happens after missed ticks.
    pub fn set_missed_tick_behavior(&mut self, behavior: MissedTickBehavior) {
        self.missed = behavior;
    }

    /// The tick period.
    pub fn period(&self) -> Duration {
        self.period
    }
}

/// An interval whose first tick is immediate. Panics on a zero period.
pub fn interval(period: Duration) -> Interval {
    interval_at(Instant::now(), period)
}

/// An interval whose first tick is at `start`. Panics on a zero period.
pub fn interval_at(start: Instant, period: Duration) -> Interval {
    assert!(period > Duration::ZERO, "`period` must be non-zero.");
    Interval {
        next: start.0,
        period,
        missed: MissedTickBehavior::default(),
    }
}
