//! An async mutual-exclusion lock, FIFO among waiting tasks.

use super::lock;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// An async mutex: `lock().await` yields to the scheduler instead of
/// blocking the thread, so the guard may be held across `.await`.
pub struct Mutex<T: ?Sized> {
    state: std::sync::Mutex<State>,
    value: UnsafeCell<T>,
}

struct State {
    locked: bool,
    next_id: u64,
    /// Waiting lockers, oldest first. The front one is woken on unlock and
    /// removes itself when it acquires (or is dropped).
    waiters: VecDeque<(u64, Waker)>,
}

// SAFETY: the mutex hands out access to `value` only through a guard that
// exists while `locked` is set, one at a time; sending the mutex sends the
// value, and sharing it lets other threads obtain `&mut T`, hence `Send`.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: as above.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// The lock is held by someone else.
#[derive(Debug)]
pub struct TryLockError(());

impl fmt::Display for TryLockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("operation would block")
    }
}

impl std::error::Error for TryLockError {}

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub fn new(value: T) -> Self {
        Mutex {
            state: std::sync::Mutex::new(State {
                locked: false,
                next_id: 0,
                waiters: VecDeque::new(),
            }),
            value: UnsafeCell::new(value),
        }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Wait for the lock. Cancel-safe: a dropped waiter passes its turn on.
    pub fn lock(&self) -> Lock<'_, T> {
        Lock {
            mutex: self,
            id: None,
        }
    }

    /// Take the lock if it is free.
    pub fn try_lock(&self) -> Result<MutexGuard<'_, T>, TryLockError> {
        let mut s = lock(&self.state);
        if s.locked {
            return Err(TryLockError(()));
        }
        s.locked = true;
        Ok(MutexGuard { mutex: self })
    }

    /// The value, through exclusive access to the mutex.
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    fn unlock(&self) {
        let next = {
            let mut s = lock(&self.state);
            s.locked = false;
            s.waiters.front().map(|(_, w)| w.clone())
        };
        if let Some(w) = next {
            w.wake();
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Future returned by [`Mutex::lock`].
pub struct Lock<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    /// This waiter's id in the queue, once it has had to wait.
    id: Option<u64>,
}

impl<'a, T: ?Sized> Future for Lock<'a, T> {
    type Output = MutexGuard<'a, T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mutex = self.mutex;
        let mut s = lock(&mutex.state);
        // Newcomers queue behind existing waiters; a waiter may take the
        // lock only from the front.
        let my_turn = match self.id {
            Some(id) => s.waiters.front().is_some_and(|(w, _)| *w == id),
            None => s.waiters.is_empty(),
        };
        if !s.locked && my_turn {
            s.locked = true;
            if self.id.take().is_some() {
                s.waiters.pop_front();
            }
            return Poll::Ready(MutexGuard { mutex });
        }
        match self.id {
            Some(id) => {
                if let Some((_, w)) = s.waiters.iter_mut().find(|(w, _)| *w == id) {
                    if !w.will_wake(cx.waker()) {
                        *w = cx.waker().clone();
                    }
                }
            }
            None => {
                let id = s.next_id;
                s.next_id += 1;
                s.waiters.push_back((id, cx.waker().clone()));
                drop(s);
                self.id = Some(id);
            }
        }
        Poll::Pending
    }
}

impl<T: ?Sized> Drop for Lock<'_, T> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let next = {
            let mut s = lock(&self.mutex.state);
            let was_front = s.waiters.front().is_some_and(|(w, _)| *w == id);
            s.waiters.retain(|(w, _)| *w != id);
            // If this waiter had been handed the turn, hand it on.
            (was_front && !s.locked)
                .then(|| s.waiters.front().map(|(_, w)| w.clone()))
                .flatten()
        };
        if let Some(w) = next {
            w.wake();
        }
    }
}

/// Exclusive access to a [`Mutex`]'s value; unlocks on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
}

// SAFETY: the guard is `&mut T` in effect; it may move to another thread
// (tasks migrate between workers) when `T: Send`, and be shared when
// `T: Sync`.
unsafe impl<T: ?Sized + Send> Send for MutexGuard<'_, T> {}
// SAFETY: as above.
unsafe impl<T: ?Sized + Sync> Sync for MutexGuard<'_, T> {}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only while `locked` is set on its
        // behalf, so no other reference to the value is live.
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, plus `&mut self` rules out aliasing
        // through this guard.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.unlock();
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}
