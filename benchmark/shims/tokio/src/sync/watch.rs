//! A single-value channel whose receivers see the latest value.

use super::lock;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::task::{Poll, Waker};

/// Errors.
pub mod error {
    use std::fmt;

    /// Every receiver is gone; the value comes back.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("SendError").finish_non_exhaustive()
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("channel closed")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// The sender is gone and no unseen value remains.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError(pub(super) ());

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("channel closed")
        }
    }

    impl std::error::Error for RecvError {}
}

struct Shared<T> {
    value: RwLock<T>,
    state: Mutex<State>,
    receivers: AtomicUsize,
}

struct State {
    /// Bumped by every send.
    version: u64,
    tx_dropped: bool,
    wakers: Vec<Waker>,
}

/// A watch channel starting at `init`.
pub fn channel<T>(init: T) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        value: RwLock::new(init),
        state: Mutex::new(State {
            version: 0,
            tx_dropped: false,
            wakers: Vec::new(),
        }),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared, seen: 0 },
    )
}

/// A borrowed view of the current value; holds a read lock.
pub struct Ref<'a, T> {
    guard: RwLockReadGuard<'a, T>,
}

impl<T> Deref for Ref<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: fmt::Debug> fmt::Debug for Ref<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // A writer only ever replaces the value whole.
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Publishes values.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Publish `value`; it comes back if no receiver exists.
    pub fn send(&self, value: T) -> Result<(), error::SendError<T>> {
        if self.shared.receivers.load(Ordering::Acquire) == 0 {
            return Err(error::SendError(value));
        }
        self.send_replace(value);
        Ok(())
    }

    /// Publish `value` whether or not anyone listens; returns the old one.
    pub fn send_replace(&self, value: T) -> T {
        let old = {
            let mut slot = self
                .shared
                .value
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::replace(&mut *slot, value)
        };
        self.bump();
        old
    }

    /// Modify the value in place and notify receivers.
    pub fn send_modify(&self, modify: impl FnOnce(&mut T)) {
        {
            let mut slot = self
                .shared
                .value
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            modify(&mut slot);
        }
        self.bump();
    }

    /// Modify the value in place; receivers are notified only if
    /// `modify` returns `true`, which is also the return value.
    pub fn send_if_modified(&self, modify: impl FnOnce(&mut T) -> bool) -> bool {
        let changed = {
            let mut slot = self
                .shared
                .value
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            modify(&mut slot)
        };
        if changed {
            self.bump();
        }
        changed
    }

    fn bump(&self) {
        let wakers = {
            let mut s = lock(&self.shared.state);
            s.version += 1;
            std::mem::take(&mut s.wakers)
        };
        for w in wakers {
            w.wake();
        }
    }

    /// The current value.
    pub fn borrow(&self) -> Ref<'_, T> {
        Ref {
            guard: read(&self.shared.value),
        }
    }

    /// A new receiver that considers the current value seen.
    pub fn subscribe(&self) -> Receiver<T> {
        self.shared.receivers.fetch_add(1, Ordering::AcqRel);
        let seen = lock(&self.shared.state).version;
        Receiver {
            shared: Arc::clone(&self.shared),
            seen,
        }
    }

    /// Whether every receiver is gone.
    pub fn is_closed(&self) -> bool {
        self.shared.receivers.load(Ordering::Acquire) == 0
    }

    /// Live receivers.
    pub fn receiver_count(&self) -> usize {
        self.shared.receivers.load(Ordering::Acquire)
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let wakers = {
            let mut s = lock(&self.shared.state);
            s.tx_dropped = true;
            std::mem::take(&mut s.wakers)
        };
        for w in wakers {
            w.wake();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

/// Observes values.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
    /// The version this receiver last marked seen.
    seen: u64,
}

impl<T> Receiver<T> {
    /// The current value, without marking it seen.
    pub fn borrow(&self) -> Ref<'_, T> {
        Ref {
            guard: read(&self.shared.value),
        }
    }

    /// The current value, marked seen.
    pub fn borrow_and_update(&mut self) -> Ref<'_, T> {
        // Read the version before the value: a send in between leaves the
        // newer value unseen-marked at worst, never a missed change.
        self.seen = lock(&self.shared.state).version;
        Ref {
            guard: read(&self.shared.value),
        }
    }

    /// Whether a value newer than the last seen one exists.
    pub fn has_changed(&self) -> Result<bool, error::RecvError> {
        let s = lock(&self.shared.state);
        if s.version != self.seen {
            return Ok(true);
        }
        if s.tx_dropped {
            return Err(error::RecvError(()));
        }
        Ok(false)
    }

    /// Wait for a value newer than the last seen one, and mark it seen.
    /// Cancel-safe.
    pub async fn changed(&mut self) -> Result<(), error::RecvError> {
        std::future::poll_fn(|cx| {
            let mut s = lock(&self.shared.state);
            if s.version != self.seen {
                self.seen = s.version;
                return Poll::Ready(Ok(()));
            }
            if s.tx_dropped {
                return Poll::Ready(Err(error::RecvError(())));
            }
            if !s.wakers.iter().any(|w| w.will_wake(cx.waker())) {
                s.wakers.push(cx.waker().clone());
            }
            Poll::Pending
        })
        .await
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::AcqRel);
        Receiver {
            shared: Arc::clone(&self.shared),
            seen: self.seen,
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}
