//! Synchronization primitives for tasks: an async [`Mutex`], bounded
//! [`mpsc`] channels, [`oneshot`], [`watch`] and [`Notify`].
//!
//! Each is a short critical section under a `std::sync::Mutex` plus a
//! list of wakers; none blocks a thread.

mod mutex;
mod notify;

pub mod mpsc;
pub mod oneshot;
pub mod watch;

pub use mutex::{Mutex, MutexGuard, TryLockError};
pub use notify::{Notified, Notify};

/// Lock a std mutex, ignoring poisoning: every critical section in this
/// module only moves values and wakers, so a panic elsewhere cannot leave
/// the protected state half-updated.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
