//! The I/O and timer driver: one epoll instance, an eventfd to interrupt
//! it, per-descriptor readiness state, and a deadline-ordered timer map.
//!
//! There is no dedicated driver thread. An idle worker takes the poll
//! lock and blocks in `epoll_wait` until I/O is ready, the earliest timer
//! is due, or another thread writes the eventfd ([`Driver::unpark`]);
//! busy workers take a non-blocking turn every few dozen task polls so
//! readiness and timers are noticed under load (see `runtime`).

use std::collections::BTreeMap;
use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

// ---- libc surface, declared by hand (no `libc` crate offline) ----------

const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

/// `struct epoll_event`; the kernel ABI packs it on x86-64 only.
#[derive(Clone, Copy)]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking task is caught before it can unwind through these short
    // critical sections, and every update leaves the maps valid.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Token the eventfd is registered under; I/O tokens are slab indices.
const WAKE_TOKEN: u64 = u64::MAX;
/// Events fetched per `epoll_wait`.
const EVENT_BATCH: usize = 128;

// ---- readiness ----------------------------------------------------------

pub(crate) const READABLE: usize = 0b01;
pub(crate) const WRITABLE: usize = 0b10;

/// A readiness observation: the bits seen and the driver tick they were
/// seen at, so clearing them cannot erase a newer event.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReadyEvent {
    tick: usize,
    pub(crate) bits: usize,
}

/// Per-descriptor readiness shared between the driver and the resource.
///
/// `state` packs `(tick << 2) | bits`. The descriptor is registered
/// edge-triggered, so a bit stays set until an operation hits
/// `WouldBlock` and clears it; it starts set so the first operation just
/// tries the syscall.
pub(crate) struct ScheduledIo {
    state: AtomicUsize,
    waiters: Mutex<Waiters>,
}

#[derive(Default)]
struct Waiters {
    readers: Vec<Waker>,
    writers: Vec<Waker>,
}

impl ScheduledIo {
    fn new() -> Self {
        ScheduledIo {
            state: AtomicUsize::new(READABLE | WRITABLE),
            waiters: Mutex::new(Waiters::default()),
        }
    }

    fn snapshot(&self, interest: usize) -> Option<ReadyEvent> {
        let state = self.state.load(Ordering::Acquire);
        let bits = state & interest & 0b11;
        (bits != 0).then_some(ReadyEvent {
            tick: state >> 2,
            bits,
        })
    }

    /// Driver side: record new readiness and wake whoever waits for it.
    fn set_ready(&self, bits: usize) {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            let next = (((cur >> 2).wrapping_add(1)) << 2) | (cur & 0b11) | bits;
            match self
                .state
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let woken: Vec<Waker> = {
            let mut w = lock(&self.waiters);
            let mut out = Vec::new();
            if bits & READABLE != 0 {
                out.append(&mut w.readers);
            }
            if bits & WRITABLE != 0 {
                out.append(&mut w.writers);
            }
            out
        };
        for waker in woken {
            waker.wake();
        }
    }

    /// Resource side: an operation hit `WouldBlock`; forget the readiness
    /// it was based on unless the driver has reported since.
    pub(crate) fn clear_ready(&self, ev: ReadyEvent) {
        let mut cur = self.state.load(Ordering::Acquire);
        while cur >> 2 == ev.tick {
            let next = cur & !ev.bits;
            match self
                .state
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    pub(crate) fn poll_ready(&self, interest: usize, cx: &mut Context<'_>) -> Poll<ReadyEvent> {
        if let Some(ev) = self.snapshot(interest) {
            return Poll::Ready(ev);
        }
        {
            let mut guard = lock(&self.waiters);
            let w = &mut *guard;
            for (bit, list) in [(READABLE, &mut w.readers), (WRITABLE, &mut w.writers)] {
                if interest & bit != 0 && !list.iter().any(|x| x.will_wake(cx.waker())) {
                    list.push(cx.waker().clone());
                }
            }
        }
        // The driver may have reported between the check and the push.
        match self.snapshot(interest) {
            Some(ev) => Poll::Ready(ev),
            None => Poll::Pending,
        }
    }
}

/// A descriptor registered with the driver; deregisters on drop.
pub(crate) struct Registration {
    fd: RawFd,
    token: usize,
    io: Arc<ScheduledIo>,
    handle: Arc<crate::runtime::Shared>,
}

impl Registration {
    /// Register `fd` (already non-blocking) with the current runtime.
    pub(crate) fn new(fd: RawFd) -> io::Result<Self> {
        let handle = crate::runtime::current();
        let io = Arc::new(ScheduledIo::new());
        let token = handle.driver.add(fd, Arc::clone(&io))?;
        Ok(Registration {
            fd,
            token,
            io,
            handle,
        })
    }

    pub(crate) fn io(&self) -> &ScheduledIo {
        &self.io
    }

    /// Wait for `interest`, then run `op`; on `WouldBlock` clear the
    /// readiness and wait again. Cancel-safe: nothing is held across the
    /// await but the registration itself.
    pub(crate) async fn async_io<R>(
        &self,
        interest: usize,
        mut op: impl FnMut() -> io::Result<R>,
    ) -> io::Result<R> {
        loop {
            let ev = std::future::poll_fn(|cx| self.io.poll_ready(interest, cx)).await;
            match op() {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.io.clear_ready(ev),
                other => return other,
            }
        }
    }

    /// Run `op` once if `interest` is currently ready; `WouldBlock`
    /// otherwise, or if `op` itself would block (clearing readiness).
    pub(crate) fn try_io<R>(
        &self,
        interest: usize,
        op: impl FnOnce() -> io::Result<R>,
    ) -> io::Result<R> {
        let Some(ev) = self.io.snapshot(interest) else {
            return Err(io::ErrorKind::WouldBlock.into());
        };
        match op() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                self.io.clear_ready(ev);
                Err(e)
            }
            other => other,
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.handle.driver.remove(self.fd, self.token);
    }
}

// ---- timers ---------------------------------------------------------------

/// One armed timer: the driver flips `fired` and wakes `waker`.
pub(crate) struct TimerEntry {
    pub(crate) fired: std::sync::atomic::AtomicBool,
    pub(crate) waker: Mutex<Option<Waker>>,
}

struct Timers {
    map: BTreeMap<(Instant, u64), Arc<TimerEntry>>,
    /// When the blocked poller will wake on its own, or `None` when nobody
    /// is blocked. Kept under the same lock as `map` so an insert either
    /// is seen by the poller or sees the poller's deadline.
    poller_wakes_at: Option<Option<Instant>>,
}

// ---- the driver -----------------------------------------------------------

pub(crate) struct Driver {
    epfd: RawFd,
    wakefd: RawFd,
    /// Held by whichever thread is inside `epoll_wait`; carries the event
    /// buffer so turns do not allocate.
    poll_lock: Mutex<Vec<EpollEvent>>,
    ios: Mutex<Vec<Option<Arc<ScheduledIo>>>>,
    timers: Mutex<Timers>,
    timer_seq: AtomicU64,
}

/// Proof of holding the poll lock.
pub(crate) struct PollGuard<'a> {
    driver: &'a Driver,
    events: MutexGuard<'a, Vec<EpollEvent>>,
}

impl Driver {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: plain syscalls with no pointer arguments.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: as above.
        let wakefd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if wakefd < 0 {
            let err = io::Error::last_os_error();
            // SAFETY: epfd is a descriptor this function just opened.
            unsafe { close(epfd) };
            return Err(err);
        }
        let driver = Driver {
            epfd,
            wakefd,
            poll_lock: Mutex::new(vec![EpollEvent { events: 0, data: 0 }; EVENT_BATCH]),
            ios: Mutex::new(Vec::new()),
            timers: Mutex::new(Timers {
                map: BTreeMap::new(),
                poller_wakes_at: None,
            }),
            timer_seq: AtomicU64::new(0),
        };
        // Level-triggered: stays readable until `turn` drains it.
        driver.ctl(EPOLL_CTL_ADD, wakefd, EPOLLIN, WAKE_TOKEN)?;
        Ok(driver)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, io: Arc<ScheduledIo>) -> io::Result<usize> {
        let token = {
            let mut ios = lock(&self.ios);
            match ios.iter().position(Option::is_none) {
                Some(free) => {
                    ios[free] = Some(io);
                    free
                }
                None => {
                    ios.push(Some(io));
                    ios.len() - 1
                }
            }
        };
        let interest = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        if let Err(e) = self.ctl(EPOLL_CTL_ADD, fd, interest, token as u64) {
            lock(&self.ios)[token] = None;
            return Err(e);
        }
        Ok(token)
    }

    fn remove(&self, fd: RawFd, token: usize) {
        // The descriptor may already be closed elsewhere; nothing to do then.
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        if let Some(slot) = lock(&self.ios).get_mut(token) {
            *slot = None;
        }
    }

    /// Interrupt a blocked `epoll_wait`.
    pub(crate) fn unpark(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: writes 8 bytes from a live local buffer. A full counter
        // (EAGAIN) already guarantees the poller will wake.
        unsafe { write(self.wakefd, one.as_ptr(), one.len()) };
    }

    /// Take the poll lock if nobody is polling.
    pub(crate) fn try_enter(&self) -> Option<PollGuard<'_>> {
        match self.poll_lock.try_lock() {
            Ok(events) => Some(PollGuard {
                driver: self,
                events,
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(PollGuard {
                driver: self,
                events: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Arm a timer for `deadline`, returning its key for [`Driver::cancel_timer`].
    pub(crate) fn arm_timer(&self, deadline: Instant, entry: Arc<TimerEntry>) -> (Instant, u64) {
        let key = (deadline, self.timer_seq.fetch_add(1, Ordering::Relaxed));
        let interrupt = {
            let mut t = lock(&self.timers);
            t.map.insert(key, entry);
            // Only a blocked poller that would oversleep needs a nudge.
            match t.poller_wakes_at {
                Some(None) => true,
                Some(Some(at)) => deadline < at,
                None => false,
            }
        };
        if interrupt {
            self.unpark();
        }
        key
    }

    pub(crate) fn cancel_timer(&self, key: (Instant, u64)) {
        lock(&self.timers).map.remove(&key);
    }

    /// Forget every registration and timer and drop the wakers they hold
    /// (runtime shutdown). A parked task is kept alive only by the waker
    /// it left here, and itself keeps the `ScheduledIo`/`TimerEntry` alive
    /// through its socket or `Sleep`; emptying the waker slots breaks that
    /// cycle so the task, and what it owns, is dropped.
    pub(crate) fn clear(&self) {
        let ios: Vec<Arc<ScheduledIo>> = lock(&self.ios).drain(..).flatten().collect();
        let timers = std::mem::take(&mut lock(&self.timers).map);
        let mut wakers: Vec<Waker> = Vec::new();
        for io in ios {
            let mut w = lock(&io.waiters);
            wakers.append(&mut w.readers);
            wakers.append(&mut w.writers);
        }
        for entry in timers.into_values() {
            wakers.extend(lock(&entry.waker).take());
        }
        // Dropped outside every lock: a task's destructor may close
        // sockets or cancel timers, which take these locks again.
        drop(wakers);
    }
}

impl Drop for Driver {
    fn drop(&mut self) {
        // SAFETY: both descriptors were opened by `new` and are closed once.
        unsafe {
            close(self.wakefd);
            close(self.epfd);
        }
    }
}

impl PollGuard<'_> {
    /// One driver turn: wait up to `max_wait` (forever if `None`) for I/O
    /// readiness, an [`Driver::unpark`], or the earliest timer; then
    /// publish readiness and fire due timers.
    pub(crate) fn turn(&mut self, max_wait: Option<Duration>) {
        let driver = self.driver;
        let now = Instant::now();
        let timeout_ms: i32 = {
            let mut t = lock(&driver.timers);
            let next_timer = t.map.keys().next().map(|(at, _)| *at);
            let wake_at = match (max_wait.map(|d| now + d), next_timer) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let blocking = max_wait != Some(Duration::ZERO);
            if blocking {
                t.poller_wakes_at = Some(wake_at);
            }
            match wake_at {
                None => -1,
                Some(at) => {
                    // Round up: waking early would spin until the deadline.
                    let d = at.saturating_duration_since(now);
                    let ms = d.as_millis() + u128::from(d.subsec_nanos() % 1_000_000 != 0);
                    ms.min(i32::MAX as u128) as i32
                }
            }
        };

        // SAFETY: the buffer holds EVENT_BATCH initialised entries and is
        // exclusively borrowed through the poll lock for the call.
        let n = unsafe {
            epoll_wait(
                driver.epfd,
                self.events.as_mut_ptr(),
                EVENT_BATCH as i32,
                timeout_ms,
            )
        };
        lock(&driver.timers).poller_wakes_at = None;

        // EINTR and friends: treat as an empty turn.
        for i in 0..n.max(0) as usize {
            let EpollEvent { events, data } = self.events[i];
            if data == WAKE_TOKEN {
                let mut buf = [0u8; 8];
                // SAFETY: reads at most 8 bytes into a live local buffer.
                unsafe { read(driver.wakefd, buf.as_mut_ptr(), buf.len()) };
                continue;
            }
            let io = lock(&driver.ios).get(data as usize).and_then(Clone::clone);
            let Some(io) = io else { continue };
            let mut bits = 0;
            if events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                bits |= READABLE;
            }
            if events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0 {
                bits |= WRITABLE;
            }
            io.set_ready(bits);
        }

        let now = Instant::now();
        let due: Vec<Arc<TimerEntry>> = {
            let mut t = lock(&driver.timers);
            let mut due = Vec::new();
            while let Some(entry) = t.map.first_entry() {
                if entry.key().0 > now {
                    break;
                }
                due.push(entry.remove());
            }
            due
        };
        for entry in due {
            entry.fired.store(true, Ordering::Release);
            let waker = lock(&entry.waker).take();
            if let Some(w) = waker {
                w.wake();
            }
        }
    }
}
