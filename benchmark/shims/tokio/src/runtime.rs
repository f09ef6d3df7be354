//! The scheduler: [`Runtime`], [`Builder`], [`Handle`].
//!
//! Worker threads share one run queue. A task woken *by a worker* goes to
//! that worker's LIFO slot and runs next on the same thread without
//! waking anyone (a request/response pair of tasks ping-pongs on one
//! core); a second wake displaces the first into the shared queue and
//! unparks one idle worker. Idle workers park on their thread, except one
//! that holds the driver's poll lock and blocks in `epoll_wait` instead,
//! so an I/O event is handled by the thread that observed it.

use crate::driver::Driver;
use crate::task::{JoinHandle, Task};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;
use std::time::Duration;

/// Task polls between non-blocking driver turns on a busy worker (tokio's
/// default event interval).
const EVENT_INTERVAL: u32 = 61;
/// Consecutive LIFO-slot polls before the shared queue gets a turn, so a
/// ping-ponging pair cannot starve it.
const LIFO_STREAK: u32 = 3;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Task panics are caught inside the task; these sections cannot
    // unwind with the queue half-updated.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Queue state guarded by one lock: runnable tasks and parked workers.
struct Sched {
    queue: VecDeque<Arc<Task>>,
    /// Indices of workers that are parked (or about to park).
    idle: Vec<usize>,
}

struct Worker {
    thread: std::sync::OnceLock<thread::Thread>,
    /// Set by a waker to tell a parked worker the wake-up is for it.
    notified: AtomicBool,
    /// Whether the worker parked inside `epoll_wait` rather than on its
    /// thread. Written under the `Sched` lock before the index is
    /// published in `idle`.
    in_driver: AtomicBool,
}

/// State shared by the workers, handles, and every resource created on
/// the runtime.
pub(crate) struct Shared {
    sched: Mutex<Sched>,
    workers: Vec<Worker>,
    pub(crate) driver: Driver,
    shutdown: AtomicBool,
}

thread_local! {
    /// The runtime this thread is inside (worker, or `block_on` caller).
    static CONTEXT: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
    /// The worker's LIFO slot; `None` off worker threads.
    static LIFO: RefCell<Option<Arc<Task>>> = const { RefCell::new(None) };
    /// This thread's worker index in the runtime in `CONTEXT`, if it is one.
    static WORKER_IDX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The runtime the calling thread is inside. Panics outside one, like
/// tokio ("there is no reactor running").
pub(crate) fn current() -> Arc<Shared> {
    CONTEXT
        .with(|c| c.borrow().clone())
        .expect("there is no reactor running: must be called from the context of a Tokio runtime")
}

struct EnterGuard(Option<Arc<Shared>>);

fn enter(shared: Arc<Shared>) -> EnterGuard {
    EnterGuard(CONTEXT.with(|c| c.borrow_mut().replace(shared)))
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        let prev = self.0.take();
        CONTEXT.with(|c| *c.borrow_mut() = prev);
    }
}

impl Shared {
    /// Make `task` runnable.
    pub(crate) fn schedule(self: &Arc<Self>, task: Arc<Task>) {
        let own_worker = self.own_worker_idx();
        let to_queue = if own_worker.is_some() {
            // Newest wake runs next here; the one it displaces is shared.
            LIFO.with(|slot| slot.borrow_mut().replace(task))
        } else {
            Some(task)
        };
        if let Some(task) = to_queue {
            self.push_shared(task, own_worker);
        }
    }

    /// The calling thread's worker index, if it is a worker of *this*
    /// runtime.
    fn own_worker_idx(self: &Arc<Self>) -> Option<usize> {
        WORKER_IDX
            .get()
            .filter(|_| CONTEXT.with(|c| c.borrow().as_ref().is_some_and(|s| Arc::ptr_eq(s, self))))
    }

    /// Queue `task` for any worker and unpark an idle one other than
    /// `skip` (the caller, which is awake: it may be listed as idle while
    /// it publishes readiness from inside its driver turn).
    fn push_shared(&self, task: Arc<Task>, skip: Option<usize>) {
        let wake = {
            let mut s = lock(&self.sched);
            s.queue.push_back(task);
            // Prefer a thread-parked worker: the one in the driver is
            // already placed to react to I/O.
            let pick = s
                .idle
                .iter()
                .rposition(|&w| {
                    Some(w) != skip && !self.workers[w].in_driver.load(Ordering::Relaxed)
                })
                .or_else(|| s.idle.iter().rposition(|&w| Some(w) != skip));
            pick.map(|i| s.idle.swap_remove(i))
        };
        if let Some(w) = wake {
            self.unpark_worker(w);
        }
    }

    fn unpark_worker(&self, w: usize) {
        let worker = &self.workers[w];
        worker.notified.store(true, Ordering::Release);
        // `in_driver` may describe the worker's previous park; unparking
        // the thread as well is a no-op unless it is parked there.
        if worker.in_driver.load(Ordering::Acquire) {
            self.driver.unpark();
        }
        if let Some(t) = worker.thread.get() {
            t.unpark();
        }
    }

    fn next_task(&self, streak: &mut u32) -> Option<Arc<Task>> {
        if *streak < LIFO_STREAK {
            if let Some(task) = LIFO.with(|slot| slot.borrow_mut().take()) {
                *streak += 1;
                return Some(task);
            }
        }
        *streak = 0;
        let queued = lock(&self.sched).queue.pop_front();
        queued.or_else(|| LIFO.with(|slot| slot.borrow_mut().take()))
    }

    /// Park worker `idx` until there is something to do.
    fn park(&self, idx: usize) {
        let worker = &self.workers[idx];
        let poll = self.driver.try_enter();
        {
            let mut s = lock(&self.sched);
            if !s.queue.is_empty() || self.shutdown.load(Ordering::Acquire) {
                return;
            }
            worker.in_driver.store(poll.is_some(), Ordering::Release);
            s.idle.push(idx);
        }
        match poll {
            // A notification can predate this park (its eventfd write
            // already drained by an earlier turn); do not block on it.
            Some(mut guard) if !worker.notified.load(Ordering::Acquire) => guard.turn(None),
            Some(_) => {}
            None => {
                while !worker.notified.load(Ordering::Acquire) {
                    thread::park();
                }
            }
        }
        // Whether a waker popped this worker or I/O woke it, leave the
        // idle list before running: a stale entry would absorb a wake-up
        // meant for a worker that is actually parked.
        lock(&self.sched).idle.retain(|&w| w != idx);
        worker.notified.store(false, Ordering::Release);
    }

    fn run_worker(self: Arc<Self>, idx: usize) {
        let _ctx = enter(Arc::clone(&self));
        WORKER_IDX.set(Some(idx));
        let _ = self.workers[idx].thread.set(thread::current());
        let mut tick = 0u32;
        let mut streak = 0u32;
        while !self.shutdown.load(Ordering::Acquire) {
            tick = tick.wrapping_add(1);
            if tick.is_multiple_of(EVENT_INTERVAL) {
                if let Some(mut guard) = self.driver.try_enter() {
                    guard.turn(Some(Duration::ZERO));
                }
            }
            match self.next_task(&mut streak) {
                Some(task) => task.run(),
                None => self.park(idx),
            }
        }
        // Anything left in the slot is dropped with the runtime.
        LIFO.with(|slot| slot.borrow_mut().take());
    }
}

/// Builds a [`Runtime`] with a chosen worker count.
pub struct Builder {
    workers: usize,
    name: String,
}

impl Builder {
    /// A multi-thread runtime; defaults to one worker per available core.
    pub fn new_multi_thread() -> Builder {
        Builder {
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            name: "tokio-runtime-worker".into(),
        }
    }

    /// A runtime with a single worker thread. (Unlike tokio, the thread
    /// calling `block_on` does not run spawned tasks itself.)
    pub fn new_current_thread() -> Builder {
        Builder {
            workers: 1,
            name: "tokio-runtime-worker".into(),
        }
    }

    /// Number of worker threads (at least one).
    pub fn worker_threads(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "worker threads cannot be set to 0");
        self.workers = n;
        self
    }

    /// Name given to worker threads.
    pub fn thread_name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// I/O and time drivers are always on; kept for source compatibility.
    pub fn enable_all(&mut self) -> &mut Self {
        self
    }

    /// See [`Builder::enable_all`].
    pub fn enable_io(&mut self) -> &mut Self {
        self
    }

    /// See [`Builder::enable_all`].
    pub fn enable_time(&mut self) -> &mut Self {
        self
    }

    /// Start the worker threads.
    pub fn build(&mut self) -> io::Result<Runtime> {
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
                idle: Vec::new(),
            }),
            workers: (0..self.workers)
                .map(|_| Worker {
                    thread: std::sync::OnceLock::new(),
                    notified: AtomicBool::new(false),
                    in_driver: AtomicBool::new(false),
                })
                .collect(),
            driver: Driver::new()?,
            shutdown: AtomicBool::new(false),
        });
        let mut threads = Vec::with_capacity(self.workers);
        for idx in 0..self.workers {
            let worker = Arc::clone(&shared);
            let spawned = thread::Builder::new()
                .name(format!("{}-{idx}", self.name))
                .spawn(move || worker.run_worker(idx));
            match spawned {
                Ok(t) => threads.push(t),
                Err(e) => {
                    Runtime { shared, threads }.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(Runtime { shared, threads })
    }
}

/// A running scheduler plus its I/O and timer driver. Dropping it stops
/// the workers (after their current poll) and drops every task.
pub struct Runtime {
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
}

/// Wakes the thread blocked in [`Runtime::block_on`].
struct ThreadWaker {
    thread: thread::Thread,
    notified: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

impl Runtime {
    /// A multi-thread runtime with default settings.
    pub fn new() -> io::Result<Runtime> {
        Builder::new_multi_thread().build()
    }

    /// A handle for spawning onto this runtime from other threads.
    pub fn handle(&self) -> Handle {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Spawn a task onto the runtime.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        crate::task::spawn_on(&self.shared, future)
    }

    /// Run `future` to completion on the calling thread, inside this
    /// runtime's context; spawned tasks run on the workers.
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        let _ctx = enter(Arc::clone(&self.shared));
        let parker = Arc::new(ThreadWaker {
            thread: thread::current(),
            notified: AtomicBool::new(false),
        });
        let waker = Waker::from(Arc::clone(&parker));
        let mut cx = Context::from_waker(&waker);
        let mut future = std::pin::pin!(future);
        loop {
            if let Poll::Ready(out) = future.as_mut().poll(&mut cx) {
                return out;
            }
            while !parker.notified.swap(false, Ordering::Acquire) {
                thread::park();
            }
        }
    }

    fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for w in 0..self.shared.workers.len() {
            self.shared.unpark_worker(w);
        }
        for t in self.threads.drain(..) {
            // A worker only panics on a runtime bug; nothing to add here.
            let _ = t.join();
        }
        // Break the task -> runtime -> waker -> task cycles.
        let tasks: Vec<Arc<Task>> = lock(&self.shared.sched).queue.drain(..).collect();
        for task in tasks {
            task.cancel();
        }
        self.shared.driver.clear();
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A cloneable reference to a [`Runtime`].
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// The runtime the calling thread is inside. Panics outside one.
    pub fn current() -> Handle {
        Handle { shared: current() }
    }

    /// Spawn a task onto the runtime.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        crate::task::spawn_on(&self.shared, future)
    }
}
