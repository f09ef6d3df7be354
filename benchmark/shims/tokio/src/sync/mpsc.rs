//! A bounded multi-producer, single-consumer channel.

use super::lock;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// Channel errors.
pub mod error {
    use std::fmt;

    /// The receiver is gone; the value comes back.
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

    /// Why `try_send` did not queue the value.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// The receiver is gone.
        Closed(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Closed(_) => f.write_str("Closed(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("no available capacity"),
                TrySendError::Closed(_) => f.write_str("channel closed"),
            }
        }
    }

    impl<T> std::error::Error for TrySendError<T> {}

    /// Why `try_recv` returned nothing.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => f.write_str("receiving on a closed channel"),
            }
        }
    }

    impl std::error::Error for TryRecvError {}
}

use error::{SendError, TryRecvError, TrySendError};

struct Chan<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    senders: AtomicUsize,
}

struct State<T> {
    queue: VecDeque<T>,
    /// Receiver dropped or closed: sends fail from now on.
    rx_closed: bool,
    rx_waker: Option<Waker>,
    /// Senders waiting for room, and tasks in `Sender::closed`.
    tx_wakers: Vec<Waker>,
}

/// A bounded channel holding up to `capacity` values. Panics on zero.
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "mpsc bounded channel requires buffer > 0");
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            rx_closed: false,
            rx_waker: None,
            tx_wakers: Vec::new(),
        }),
        capacity,
        senders: AtomicUsize::new(1),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// The sending half; clone it for more producers.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Sender<T> {
    /// Queue `value`, waiting for room. Fails once the receiver is gone.
    /// Cancel-safe: a cancelled send queues nothing.
    pub async fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut value = Some(value);
        std::future::poll_fn(|cx| {
            let v = value.take().expect("polled after completion");
            match self.try_send_or_wait(v, Some(cx)) {
                Ok(()) => Poll::Ready(Ok(())),
                Err(TrySendError::Closed(v)) => Poll::Ready(Err(SendError(v))),
                Err(TrySendError::Full(v)) => {
                    value = Some(v);
                    Poll::Pending
                }
            }
        })
        .await
    }

    /// Queue `value` if there is room right now.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.try_send_or_wait(value, None)
    }

    fn try_send_or_wait(
        &self,
        value: T,
        cx: Option<&mut Context<'_>>,
    ) -> Result<(), TrySendError<T>> {
        let rx_waker = {
            let mut s = lock(&self.chan.state);
            if s.rx_closed {
                return Err(TrySendError::Closed(value));
            }
            if s.queue.len() >= self.chan.capacity {
                if let Some(cx) = cx {
                    if !s.tx_wakers.iter().any(|w| w.will_wake(cx.waker())) {
                        s.tx_wakers.push(cx.waker().clone());
                    }
                }
                return Err(TrySendError::Full(value));
            }
            s.queue.push_back(value);
            s.rx_waker.take()
        };
        if let Some(w) = rx_waker {
            w.wake();
        }
        Ok(())
    }

    /// Whether the receiver has been dropped or closed.
    pub fn is_closed(&self) -> bool {
        lock(&self.chan.state).rx_closed
    }

    /// Complete when the receiver is dropped or closed.
    pub async fn closed(&self) {
        std::future::poll_fn(|cx| {
            let mut s = lock(&self.chan.state);
            if s.rx_closed {
                return Poll::Ready(());
            }
            if !s.tx_wakers.iter().any(|w| w.will_wake(cx.waker())) {
                s.tx_wakers.push(cx.waker().clone());
            }
            Poll::Pending
        })
        .await
    }

    /// Free slots right now.
    pub fn capacity(&self) -> usize {
        self.chan
            .capacity
            .saturating_sub(lock(&self.chan.state).queue.len())
    }

    /// The capacity the channel was created with.
    pub fn max_capacity(&self) -> usize {
        self.chan.capacity
    }

    /// Whether two senders feed the same channel.
    pub fn same_channel(&self, other: &Sender<T>) -> bool {
        Arc::ptr_eq(&self.chan, &other.chan)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.senders.fetch_add(1, Ordering::Relaxed);
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        // AcqRel: the receiver's "no senders left" read must see every
        // value the last sender queued.
        if self.chan.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            let waker = lock(&self.chan.state).rx_waker.take();
            if let Some(w) = waker {
                w.wake();
            }
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

/// The receiving half.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Receiver<T> {
    /// The next value, or `None` once the channel is drained and every
    /// sender is gone (or after [`Receiver::close`]). Cancel-safe.
    pub async fn recv(&mut self) -> Option<T> {
        std::future::poll_fn(|cx| self.poll_recv(cx)).await
    }

    /// Poll for the next value. See [`Receiver::recv`].
    pub fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let (value, tx_wakers) = {
            let mut s = lock(&self.chan.state);
            match s.queue.pop_front() {
                Some(v) => (v, std::mem::take(&mut s.tx_wakers)),
                None => {
                    if s.rx_closed || self.chan.senders.load(Ordering::Acquire) == 0 {
                        return Poll::Ready(None);
                    }
                    if !s.rx_waker.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                        s.rx_waker = Some(cx.waker().clone());
                    }
                    return Poll::Pending;
                }
            }
        };
        for w in tx_wakers {
            w.wake();
        }
        Poll::Ready(Some(value))
    }

    /// A queued value if there is one.
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        let (value, tx_wakers) = {
            let mut s = lock(&self.chan.state);
            match s.queue.pop_front() {
                Some(v) => (v, std::mem::take(&mut s.tx_wakers)),
                None if self.chan.senders.load(Ordering::Acquire) == 0 => {
                    return Err(TryRecvError::Disconnected)
                }
                None => return Err(TryRecvError::Empty),
            }
        };
        for w in tx_wakers {
            w.wake();
        }
        Ok(value)
    }

    /// Refuse further sends; queued values can still be received.
    pub fn close(&mut self) {
        let wakers = {
            let mut s = lock(&self.chan.state);
            s.rx_closed = true;
            std::mem::take(&mut s.tx_wakers)
        };
        for w in wakers {
            w.wake();
        }
    }

    /// Values queued right now.
    pub fn len(&self) -> usize {
        lock(&self.chan.state).queue.len()
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.close();
        // Drop queued values now rather than with the last sender.
        let drained: VecDeque<T> = std::mem::take(&mut lock(&self.chan.state).queue);
        drop(drained);
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}
