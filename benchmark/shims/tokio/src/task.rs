//! Tasks: [`spawn`], [`JoinHandle`], [`AbortHandle`], [`JoinSet`],
//! [`yield_now`].

use crate::runtime::Shared;
use std::any::Any;
use std::fmt;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Panics inside a task's future are caught in `Harness::poll`; the
    // sections below only move `Option`s.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// Task lifecycle. A wake moves IDLE -> SCHEDULED (and queues the task) or
// RUNNING -> NOTIFIED (the runner requeues it after the poll); every
// other state already guarantees another poll or no more polls.
const IDLE: u8 = 0;
const SCHEDULED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

type BoxedFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// A spawned future plus its scheduling state. The boxed future is the
/// [`Harness`], which routes the output to the `JoinHandle`.
pub(crate) struct Task {
    state: AtomicU8,
    future: Mutex<Option<BoxedFuture>>,
    shared: Arc<Shared>,
}

impl Task {
    /// Poll the task once. Called by a worker that dequeued it.
    pub(crate) fn run(self: Arc<Self>) {
        self.state.store(RUNNING, Ordering::Release);
        let waker = Waker::from(Arc::clone(&self));
        let mut cx = Context::from_waker(&waker);
        let finished = {
            let mut slot = lock(&self.future);
            match slot.as_mut() {
                // The harness catches panics from the user future.
                Some(fut) => match fut.as_mut().poll(&mut cx) {
                    Poll::Ready(()) => {
                        *slot = None;
                        true
                    }
                    Poll::Pending => false,
                },
                None => true,
            }
        };
        if finished {
            self.state.store(DONE, Ordering::Release);
            return;
        }
        if self
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Woken during the poll: run again.
            self.state.store(SCHEDULED, Ordering::Release);
            let shared = Arc::clone(&self.shared);
            shared.schedule(self);
        }
    }

    /// Drop the future without polling it again (runtime shutdown).
    pub(crate) fn cancel(&self) {
        self.state.store(DONE, Ordering::Release);
        let fut = lock(&self.future).take();
        drop(fut);
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            let next = match cur {
                IDLE => SCHEDULED,
                RUNNING => NOTIFIED,
                _ => return,
            };
            match self
                .state
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        if cur == IDLE {
            self.shared.schedule(Arc::clone(self));
        }
    }
}

/// Why a task did not produce its output.
pub struct JoinError {
    repr: Repr,
}

enum Repr {
    Cancelled,
    Panic(Box<dyn Any + Send + 'static>),
}

impl JoinError {
    /// The task was aborted before it finished.
    pub fn is_cancelled(&self) -> bool {
        matches!(self.repr, Repr::Cancelled)
    }

    /// The task panicked.
    pub fn is_panic(&self) -> bool {
        matches!(self.repr, Repr::Panic(_))
    }

    /// The panic payload. Panics if the task was cancelled instead.
    pub fn into_panic(self) -> Box<dyn Any + Send + 'static> {
        match self.repr {
            Repr::Panic(p) => p,
            Repr::Cancelled => panic!("`JoinError` reason is not a panic."),
        }
    }
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Cancelled => f.write_str("task was cancelled"),
            Repr::Panic(p) => {
                let msg = p
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| p.downcast_ref::<String>().map(String::as_str));
                match msg {
                    Some(m) => write!(f, "task panicked: {m}"),
                    None => f.write_str("task panicked"),
                }
            }
        }
    }
}

impl fmt::Debug for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JoinError({self})")
    }
}

impl std::error::Error for JoinError {}

/// Where a task's result waits for its `JoinHandle`.
struct JoinCell<T> {
    slot: Mutex<JoinSlot<T>>,
    finished: AtomicBool,
    aborted: AtomicBool,
}

struct JoinSlot<T> {
    result: Option<Result<T, JoinError>>,
    waker: Option<Waker>,
}

impl<T> JoinCell<T> {
    fn complete(&self, result: Result<T, JoinError>) {
        let waker = {
            let mut slot = lock(&self.slot);
            slot.result = Some(result);
            slot.waker.take()
        };
        self.finished.store(true, Ordering::Release);
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// The future a [`Task`] actually polls: the user's future plus abort
/// handling, panic capture and result delivery.
struct Harness<F: Future> {
    future: Option<F>,
    cell: Arc<JoinCell<F::Output>>,
}

impl<F: Future> Future for Harness<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: `future` is structurally pinned: it is only reached
        // through `Pin::new_unchecked` below and is dropped in place (by
        // `Option::set`-style assignment through the pinned reference),
        // never moved. `cell` is an `Arc` and is not pinned.
        let this = unsafe { self.get_unchecked_mut() };
        let result = if this.cell.aborted.load(Ordering::Acquire) {
            Err(JoinError {
                repr: Repr::Cancelled,
            })
        } else {
            let Some(fut) = this.future.as_mut() else {
                return Poll::Ready(());
            };
            // SAFETY: see above; `fut` lives inside the pinned harness.
            let fut = unsafe { Pin::new_unchecked(fut) };
            match catch_unwind(AssertUnwindSafe(|| fut.poll(cx))) {
                Ok(Poll::Pending) => return Poll::Pending,
                Ok(Poll::Ready(out)) => Ok(out),
                Err(payload) => Err(JoinError {
                    repr: Repr::Panic(payload),
                }),
            }
        };
        // Drop the user future in place before publishing the result, so
        // a joiner observes its side effects (closed sockets, channels).
        this.future = None;
        this.cell.complete(result);
        Poll::Ready(())
    }
}

pub(crate) fn spawn_on<F>(shared: &Arc<Shared>, future: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    let cell = Arc::new(JoinCell {
        slot: Mutex::new(JoinSlot {
            result: None,
            waker: None,
        }),
        finished: AtomicBool::new(false),
        aborted: AtomicBool::new(false),
    });
    let harness = Harness {
        future: Some(future),
        cell: Arc::clone(&cell),
    };
    let task = Arc::new(Task {
        state: AtomicU8::new(SCHEDULED),
        future: Mutex::new(Some(Box::pin(harness))),
        shared: Arc::clone(shared),
    });
    shared.schedule(Arc::clone(&task));
    JoinHandle { task, cell }
}

/// Spawn `future` onto the runtime the calling thread is inside.
pub fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    spawn_on(&crate::runtime::current(), future)
}

/// An owned permission to await a task's output. Dropping it detaches the
/// task.
pub struct JoinHandle<T> {
    task: Arc<Task>,
    cell: Arc<JoinCell<T>>,
}

trait AbortFlag: Send + Sync {
    fn set(&self);
    fn finished(&self) -> bool;
}

impl<T: Send> AbortFlag for JoinCell<T> {
    fn set(&self) {
        self.aborted.store(true, Ordering::Release);
    }

    fn finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }
}

impl<T: Send + 'static> JoinHandle<T> {
    /// Ask the task to stop: it is dropped at its next scheduling point
    /// and the handle resolves to a cancelled [`JoinError`]. No effect on
    /// a finished task.
    pub fn abort(&self) {
        self.cell.aborted.store(true, Ordering::Release);
        self.task.wake_by_ref();
    }

    /// Whether the task has completed (or been cancelled).
    pub fn is_finished(&self) -> bool {
        self.cell.finished.load(Ordering::Acquire)
    }

    /// A handle that can abort the task without being able to join it.
    pub fn abort_handle(&self) -> AbortHandle {
        AbortHandle {
            task: Arc::clone(&self.task),
            flag: Arc::clone(&self.cell) as Arc<dyn AbortFlag>,
        }
    }
}

impl<T> Unpin for JoinHandle<T> {}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut slot = lock(&self.cell.slot);
        match slot.result.take() {
            Some(r) => Poll::Ready(r),
            None => {
                if !slot.waker.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                    slot.waker = Some(cx.waker().clone());
                }
                Poll::Pending
            }
        }
    }
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle").finish_non_exhaustive()
    }
}

/// Aborts a task without owning its output. See [`JoinHandle::abort_handle`].
#[derive(Clone)]
pub struct AbortHandle {
    task: Arc<Task>,
    flag: Arc<dyn AbortFlag>,
}

impl AbortHandle {
    /// See [`JoinHandle::abort`].
    pub fn abort(&self) {
        self.flag.set();
        self.task.wake_by_ref();
    }

    /// Whether the task has completed (or been cancelled).
    pub fn is_finished(&self) -> bool {
        self.flag.finished()
    }
}

impl fmt::Debug for AbortHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AbortHandle").finish_non_exhaustive()
    }
}

/// A set of tasks spawned together and joined in completion order.
/// Dropping the set aborts every task still in it.
pub struct JoinSet<T> {
    handles: Vec<JoinHandle<T>>,
}

impl<T: Send + 'static> JoinSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        JoinSet {
            handles: Vec::new(),
        }
    }

    /// Number of tasks not yet joined.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether every spawned task has been joined.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Spawn `future` on the current runtime and add it to the set.
    pub fn spawn<F>(&mut self, future: F) -> AbortHandle
    where
        F: Future<Output = T> + Send + 'static,
    {
        let handle = spawn(future);
        let abort = handle.abort_handle();
        self.handles.push(handle);
        abort
    }

    /// Abort every task in the set; they still have to be joined.
    pub fn abort_all(&mut self) {
        for h in &self.handles {
            h.abort();
        }
    }

    /// Poll for the next task to finish. `Ready(None)` when the set is
    /// empty.
    pub fn poll_join_next(&mut self, cx: &mut Context<'_>) -> Poll<Option<Result<T, JoinError>>> {
        if self.handles.is_empty() {
            return Poll::Ready(None);
        }
        // Each handle keeps the waker, so any completion re-polls the set.
        for i in 0..self.handles.len() {
            if let Poll::Ready(r) = Pin::new(&mut self.handles[i]).poll(cx) {
                self.handles.swap_remove(i);
                return Poll::Ready(Some(r));
            }
        }
        Poll::Pending
    }

    /// The next task to finish, or `None` when the set is empty.
    /// Cancel-safe: an unfinished task stays in the set.
    pub async fn join_next(&mut self) -> Option<Result<T, JoinError>> {
        std::future::poll_fn(|cx| self.poll_join_next(cx)).await
    }

    /// A finished task's result if one is ready now.
    pub fn try_join_next(&mut self) -> Option<Result<T, JoinError>> {
        let i = self.handles.iter().position(JoinHandle::is_finished)?;
        let handle = self.handles.swap_remove(i);
        let result = lock(&handle.cell.slot).result.take();
        result
    }
}

impl<T: Send + 'static> Default for JoinSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for JoinSet<T> {
    fn drop(&mut self) {
        for h in &self.handles {
            h.cell.aborted.store(true, Ordering::Release);
            h.task.wake_by_ref();
        }
    }
}

/// Yield to the scheduler once: the task is requeued behind runnable work.
pub async fn yield_now() {
    let mut yielded = false;
    std::future::poll_fn(|cx| {
        if yielded {
            return Poll::Ready(());
        }
        yielded = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    })
    .await;
}
