//! [`Notify`]: wake one or all tasks waiting for an event.

use super::lock;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::Mutex;
use std::task::{Context, Poll, Waker};

/// Notifies waiting tasks. `notify_one` stores a permit if nobody waits;
/// `notify_waiters` wakes every [`Notified`] future that already exists,
/// polled or not, and stores nothing.
pub struct Notify {
    state: Mutex<State>,
}

struct State {
    /// A stored `notify_one` with no waiter to take it.
    permit: bool,
    /// Bumped by every `notify_waiters`; a `Notified` created under an
    /// older generation is complete.
    generation: u64,
    next_id: u64,
    waiters: VecDeque<(u64, Waker)>,
    /// Waiters chosen by `notify_one` that have not yet observed it.
    granted: Vec<u64>,
}

impl Notify {
    /// A `Notify` with no permit stored.
    pub fn new() -> Notify {
        Notify {
            state: Mutex::new(State {
                permit: false,
                generation: 0,
                next_id: 0,
                waiters: VecDeque::new(),
                granted: Vec::new(),
            }),
        }
    }

    /// A future that completes on the next notification. It counts as a
    /// waiter for `notify_waiters` from this call on, and for
    /// `notify_one` once polled.
    pub fn notified(&self) -> Notified<'_> {
        let generation = lock(&self.state).generation;
        Notified {
            notify: self,
            generation,
            id: None,
            done: false,
        }
    }

    /// Wake the longest-waiting task, or store one permit.
    pub fn notify_one(&self) {
        let waker = {
            let mut s = lock(&self.state);
            match s.waiters.pop_front() {
                Some((id, w)) => {
                    s.granted.push(id);
                    Some(w)
                }
                None => {
                    s.permit = true;
                    None
                }
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Wake every existing [`Notified`]; no permit is stored.
    pub fn notify_waiters(&self) {
        let wakers: Vec<Waker> = {
            let mut s = lock(&self.state);
            s.generation += 1;
            s.waiters.drain(..).map(|(_, w)| w).collect()
        };
        for w in wakers {
            w.wake();
        }
    }
}

impl Default for Notify {
    fn default() -> Self {
        Notify::new()
    }
}

impl fmt::Debug for Notify {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Notify").finish_non_exhaustive()
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified<'a> {
    notify: &'a Notify,
    generation: u64,
    id: Option<u64>,
    done: bool,
}

impl Future for Notified<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.done {
            return Poll::Ready(());
        }
        let mut s = lock(&self.notify.state);
        let granted = self
            .id
            .and_then(|id| s.granted.iter().position(|g| *g == id))
            .map(|pos| s.granted.swap_remove(pos))
            .is_some();
        let ready = granted || s.generation != self.generation || std::mem::take(&mut s.permit);
        if ready {
            if let Some(id) = self.id.take() {
                s.waiters.retain(|(w, _)| *w != id);
            }
            drop(s);
            self.done = true;
            return Poll::Ready(());
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

impl Drop for Notified<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let forward = {
            let mut s = lock(&self.notify.state);
            s.waiters.retain(|(w, _)| *w != id);
            match s.granted.iter().position(|g| *g == id) {
                Some(pos) => {
                    s.granted.swap_remove(pos);
                    true
                }
                None => false,
            }
        };
        // A `notify_one` consumed by a waiter that never ran must not be
        // lost: pass it to the next waiter or back into the permit.
        if forward {
            self.notify.notify_one();
        }
    }
}
