//! A channel for one value.

use super::lock;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// Errors.
pub mod error {
    use std::fmt;

    /// The sender was dropped without sending.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError(pub(super) ());

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("channel closed")
        }
    }

    impl std::error::Error for RecvError {}
}

struct State<T> {
    value: Option<T>,
    tx_dropped: bool,
    rx_dropped: bool,
    rx_waker: Option<Waker>,
}

/// A one-value channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let state = Arc::new(Mutex::new(State {
        value: None,
        tx_dropped: false,
        rx_dropped: false,
        rx_waker: None,
    }));
    (
        Sender {
            state: Some(Arc::clone(&state)),
        },
        Receiver { state },
    )
}

/// Sends the value. Dropping it unsent fails the receiver.
pub struct Sender<T> {
    state: Option<Arc<Mutex<State<T>>>>,
}

impl<T> Sender<T> {
    /// Deliver `value`; it comes back if the receiver is gone.
    pub fn send(mut self, value: T) -> Result<(), T> {
        let state = self.state.take().expect("send consumes the sender");
        let waker = {
            let mut s = lock(&state);
            if s.rx_dropped {
                return Err(value);
            }
            s.value = Some(value);
            s.rx_waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }

    /// Whether the receiver has been dropped.
    pub fn is_closed(&self) -> bool {
        self.state.as_ref().is_some_and(|s| lock(s).rx_dropped)
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let waker = {
            let mut s = lock(&state);
            s.tx_dropped = true;
            s.rx_waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

/// Awaits the value.
pub struct Receiver<T> {
    state: Arc<Mutex<State<T>>>,
}

impl<T> Future for Receiver<T> {
    type Output = Result<T, error::RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = lock(&self.state);
        if let Some(v) = s.value.take() {
            return Poll::Ready(Ok(v));
        }
        if s.tx_dropped {
            return Poll::Ready(Err(error::RecvError(())));
        }
        if !s.rx_waker.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
            s.rx_waker = Some(cx.waker().clone());
        }
        Poll::Pending
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        lock(&self.state).rx_dropped = true;
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}
