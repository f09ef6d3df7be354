//! Mid-connection re-negotiation: swap the instantiated chunnel stack on a
//! live connection (§6's "transitioning between Chunnel implementations at
//! runtime").
//!
//! The initial handshake picks an implementation per slot once, at
//! connection establishment. When an accelerated implementation later dies —
//! its lease expires, its steering task crashes, its device is revoked —
//! the paper's promise that "applications always work" requires moving the
//! connection onto the software fallback *without* tearing it down. This
//! module provides that:
//!
//! - Either side may call [`SwitchableConn::renegotiate`]: it quiesces the
//!   current stack ([`Drain`]), runs a fresh offer/pick round in-band over
//!   the same negotiation framing as the initial handshake
//!   ([`NegotiateMsg::Renegotiate`] / [`NegotiateMsg::RenegotiateReply`]),
//!   and atomically swaps in the newly-picked stack.
//! - Each swap advances an **epoch**. Data sent after a swap is tagged with
//!   its epoch ([`Kind::DataEpoch`]); frames from a superseded epoch (late
//!   retransmissions of already-delivered messages, say) are dropped rather
//!   than fed to the fresh stack, which would otherwise mistake them for
//!   new messages. Frames from a *future* epoch (the peer swapped first)
//!   are buffered and delivered after our own swap. Plain [`Kind::Data`]
//!   frames are accepted at any epoch: traffic from components outside the
//!   negotiated connection (shard workers replying through the steerer,
//!   epoch-0 peers) is stateless with respect to the stack and must keep
//!   flowing across swaps.
//! - Loss safety: the initiator pauses application sends and drains its
//!   stack before proposing the round, and the responder drains before
//!   replying; while the responder drains, the initiator has not yet
//!   advanced its epoch, so the initiator's old stack still acknowledges.
//!   With a reliability chunnel in the stack, no request is lost or
//!   duplicated across a swap.
//!
//! [`negotiate_server_switchable`] additionally accepts a `Renegotiate` as
//! the *first* message of a brand-new server connection (the `resume` mode
//! of [`server_handshake`]): a client that lost its peer entirely (the
//! steering process died and the canonical address was rebound) re-proposes
//! its next epoch and lands on whatever the reincarnated server offers —
//! typically the software fallback.

use super::apply::{Apply, GetOffers};
use super::dynamic::global_registry;
use super::handshake::{
    apply_filter, client_handshake, impl_names, jittered, pick_round, server_handshake,
    NegotiateOpts, NegotiatedStream, Role,
};
use super::types::{NegotiateMsg, Offer, ServerPicks};
use super::wire::{self, frame_neg, Kind};
use crate::addr::Addr;
use crate::buf::Frame;
use crate::chunnel::ConnStream;
use crate::conn::{BoxFut, ChunnelConnection, Datagram, Drain};
use crate::error::Error;
use crate::introspect::{StackIntrospect, StackReport};
use crate::util::AbortOnDrop;
use bertha_telemetry as tele;
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tokio::sync::Notify;

/// Where `route` put an epoch-tagged data frame; telemetry is recorded
/// after the inbox/future locks are released.
enum Routed {
    Delivered,
    Buffered,
    Stale,
}

/// What a stack factory produces: a fully-instantiated stack usable as a
/// datagram connection, quiescable before the next swap.
///
/// Blanket-implemented; any datagram connection with a [`Drain`] impl
/// qualifies.
pub trait SwitchTarget: ChunnelConnection<Data = Datagram> + Drain {}

impl<C> SwitchTarget for C where C: ChunnelConnection<Data = Datagram> + Drain {}

/// Shared handle to the currently-instantiated stack.
pub type SwitchTargetRef = Arc<dyn SwitchTarget>;

/// Instantiates the stack for one epoch from that round's picks. Captures
/// the typed stack so swaps can happen behind a type-erased interface.
pub type StackFactory<InC> = Arc<
    dyn Fn(Vec<Offer>, Vec<u8>, EpochConn<InC>) -> BoxFut<'static, Result<SwitchTargetRef, Error>>
        + Send
        + Sync,
>;

fn factory_from_stack<S, InC>(stack: S) -> StackFactory<InC>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
    S: Apply<EpochConn<InC>> + Clone + Send + Sync + 'static,
    S::Applied: ChunnelConnection<Data = Datagram> + Drain + Send + Sync + 'static,
{
    Arc::new(move |picks, nonce, conn| {
        let stack = stack.clone();
        Box::pin(async move {
            let applied = stack.apply(picks, nonce, conn).await?;
            Ok(Arc::new(applied) as SwitchTargetRef)
        })
    })
}

/// Placeholder target used only between `Core` construction and the first
/// factory invocation; never observable through a constructed
/// [`SwitchableConn`].
struct NotYet;

impl ChunnelConnection for NotYet {
    type Data = Datagram;

    fn send(&self, _: Datagram) -> BoxFut<'_, Result<(), Error>> {
        Box::pin(async { Err(Error::ConnectionClosed) })
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        Box::pin(async { Err(Error::ConnectionClosed) })
    }
}

impl Drain for NotYet {}

/// Per-connection data-path and swap counters for a [`SwitchableConn`].
///
/// Each counter also rolls up into the global telemetry registry (the
/// `switchable.*` and `reneg.*` metrics); `get` reads this connection's
/// value alone, so tests and introspection see one connection's activity
/// without cross-talk from others in the same process.
#[derive(Debug)]
pub struct ConnTelemetry {
    /// Data frames sent through any epoch's stack view.
    pub frames_sent: tele::MirroredCounter,
    /// Data frames delivered to the inbox (untagged or current-epoch).
    pub frames_recv: tele::MirroredCounter,
    /// Epoch-tagged frames dropped as stale (late retransmissions of a
    /// superseded epoch); each drop is a prevented cross-epoch duplicate.
    pub stale_epoch_drops: tele::MirroredCounter,
    /// Frames from future epochs buffered until our own swap.
    pub future_buffered: tele::MirroredCounter,
    /// Completed epoch swaps on this connection.
    pub epoch_swaps: tele::MirroredCounter,
}

impl ConnTelemetry {
    fn new() -> Self {
        ConnTelemetry {
            frames_sent: tele::MirroredCounter::new("switchable.frames_sent"),
            frames_recv: tele::MirroredCounter::new("switchable.frames_recv"),
            stale_epoch_drops: tele::MirroredCounter::new("switchable.stale_epoch_drops"),
            future_buffered: tele::MirroredCounter::new("switchable.future_buffered"),
            epoch_swaps: tele::MirroredCounter::new("reneg.epoch_swaps"),
        }
    }
}

/// Connection state shared by the per-epoch views, the app-facing wrapper,
/// and the responder task.
struct Core<InC> {
    raw: Arc<InC>,
    role: Role,
    peer: Addr,
    opts: NegotiateOpts,
    /// Unfiltered slot offers of the typed stack; re-filtered each round
    /// (availability changes are the whole point of renegotiating).
    base_slots: Vec<Vec<Offer>>,
    epoch: AtomicU64,
    current: RwLock<(u64, SwitchTargetRef)>,
    last_picks: Mutex<Option<ServerPicks>>,
    /// Data frames for the current epoch, awaiting a stack `recv`.
    inbox: Mutex<VecDeque<Datagram>>,
    /// Epoch-tagged frames from epochs we have not reached yet.
    future: Mutex<Vec<(u64, Datagram)>>,
    inbox_notify: Notify,
    /// Server: serialized reply to the initial offer, re-sent on duplicates.
    cached_reply: Option<Frame>,
    /// Serialized reply to the last renegotiation we answered, re-sent when
    /// the peer retransmits (its copy was lost).
    cached_reneg: Mutex<Option<(u64, Frame)>>,
    /// Initiator: the reply to our in-flight proposal.
    reneg_reply: Mutex<Option<(u64, Result<ServerPicks, String>)>>,
    reneg_reply_notify: Notify,
    /// Responder: the peer's latest proposal (and the trace context it
    /// arrived under), consumed by the responder task.
    reneg_request: Mutex<Option<(NegotiateMsg, tele::TraceContext)>>,
    reneg_request_notify: Notify,
    /// Application sends are held while a swap is in progress (counted:
    /// local initiator and responder task may overlap).
    paused: AtomicUsize,
    pause_notify: Notify,
    /// A local `renegotiate` call is in flight (simultaneous-round
    /// tie-break).
    initiating: AtomicBool,
    initiate_lock: tokio::sync::Mutex<()>,
    swap_lock: tokio::sync::Mutex<()>,
    tele: ConnTelemetry,
    /// Per-layer profiling handles for the switchable wrapper itself: the
    /// `stack.switchable.*` metrics measure the whole stack (pause-wait,
    /// epoch retry, and everything below), so differencing against the top
    /// negotiated layer isolates the swap machinery's own cost.
    timer: tele::profile::LayerTimer,
    /// This connection's trace context, established by the initial
    /// handshake. Renegotiation rounds and swaps emit spans in this trace.
    trace: tele::TraceContext,
}

impl<InC> Core<InC>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    fn current_snapshot(&self) -> (u64, SwitchTargetRef) {
        let g = self.current.read();
        (g.0, Arc::clone(&g.1))
    }

    fn pause(&self) {
        self.paused.fetch_add(1, Ordering::AcqRel);
    }

    fn unpause(&self) {
        if self.paused.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.pause_notify.notify_waiters();
        }
    }

    async fn wait_unpaused(&self) {
        loop {
            let notified = self.pause_notify.notified();
            if self.paused.load(Ordering::Acquire) == 0 {
                return;
            }
            notified.await;
        }
    }

    /// Dispatch one raw frame: data to the inbox (or the future/stale
    /// queues by epoch), control messages to their consumers. Every raw
    /// `recv` caller routes — there is no dedicated receive task, matching
    /// the pull model of the rest of the crate.
    async fn route(&self, (from, mut buf): Datagram) -> Result<(), Error> {
        match wire::classify(&buf) {
            Kind::Data { off } => {
                // Untagged data is epoch-agnostic: it may come from an
                // epoch-0 peer or from outside the negotiated connection
                // entirely (a shard worker's reply). Always deliver.
                self.tele.frames_recv.incr();
                buf.strip(off);
                self.inbox.lock().push_back((from, buf));
                self.inbox_notify.notify_waiters();
            }
            Kind::DataEpoch {
                epoch: frame_epoch,
                off,
            } => {
                buf.strip(off);
                let payload = buf;
                // The epoch must be read while holding the inbox and
                // future locks: `swap_to` publishes a new epoch and
                // flushes the future buffer under the same locks, so a
                // frame that compared against the old epoch can neither
                // slip into the future buffer after its epoch was
                // installed (it would be stranded until a later swap
                // discarded it) nor land in the inbox after a swap it
                // should have been buffered across. The model-checked
                // interleaving suite in `crates/check` exercises exactly
                // this window (DESIGN.md §10).
                let routed = {
                    let mut inbox = self.inbox.lock();
                    let mut future = self.future.lock();
                    let cur = self.epoch.load(Ordering::Acquire);
                    if frame_epoch == cur {
                        inbox.push_back((from, payload));
                        Routed::Delivered
                    } else if frame_epoch > cur {
                        // Peer swapped first; deliver after our own swap.
                        future.push((frame_epoch, (from, payload)));
                        Routed::Buffered
                    } else {
                        // Stale epoch: a late retransmission the old
                        // stack already handled. Dropping it is what
                        // prevents cross-epoch duplicates.
                        Routed::Stale
                    }
                };
                match routed {
                    Routed::Delivered => {
                        self.tele.frames_recv.incr();
                        self.inbox_notify.notify_waiters();
                    }
                    Routed::Buffered => self.tele.future_buffered.incr(),
                    Routed::Stale => self.tele.stale_epoch_drops.incr(),
                }
            }
            Kind::Neg {
                ctx: peer_ctx,
                body,
            } => {
                // Corrupt control frames are dropped like any other junk
                // datagram; the sender retransmits.
                let Ok(msg) = bincode::deserialize::<NegotiateMsg>(body) else {
                    return Ok(());
                };
                match msg {
                    NegotiateMsg::ClientOffer { .. } => {
                        if let (Role::Server, Some(reply)) = (self.role, &self.cached_reply) {
                            self.raw.send((from, reply.clone())).await?;
                        }
                    }
                    NegotiateMsg::ServerReply(_) => {
                        // Late duplicate of the initial handshake reply.
                    }
                    NegotiateMsg::Renegotiate { epoch, .. } => {
                        let answered = self.cached_reneg.lock().clone();
                        if let Some((e, cached)) = answered {
                            if e == epoch {
                                // Duplicate of a round we already answered.
                                self.raw.send((from, cached)).await?;
                                return Ok(());
                            }
                        }
                        if epoch > self.epoch.load(Ordering::Acquire) {
                            let mut slot = self.reneg_request.lock();
                            let replace = match &*slot {
                                Some((NegotiateMsg::Renegotiate { epoch: held, .. }, _)) => {
                                    epoch > *held
                                }
                                _ => true,
                            };
                            if replace {
                                *slot = Some((msg, peer_ctx));
                            }
                            drop(slot);
                            self.reneg_request_notify.notify_one();
                        }
                    }
                    NegotiateMsg::RenegotiateReply { epoch, reply } => {
                        let mut slot = self.reneg_reply.lock();
                        let replace = match &*slot {
                            Some((held, _)) => epoch > *held,
                            None => true,
                        };
                        if replace {
                            *slot = Some((epoch, reply));
                        }
                        drop(slot);
                        self.reneg_reply_notify.notify_one();
                    }
                }
            }
            // A stray datagram. Drop it.
            Kind::Unknown => {}
        }
        Ok(())
    }
}

/// Quiesce, then instantiate `picks` at `epoch` and make it current.
/// `ctx` is the span for this round's swap (a child of `parent_span` in
/// the connection's trace); it is bound to the picks' nonce so stack
/// layers applied by the factory can pick it up.
async fn swap_to<InC>(
    core: &Arc<Core<InC>>,
    factory: &StackFactory<InC>,
    epoch: u64,
    picks: ServerPicks,
    ctx: tele::TraceContext,
    parent_span: u64,
) -> Result<(), Error>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    let _g = core.swap_lock.lock().await;
    if core.epoch.load(Ordering::Acquire) >= epoch {
        // A concurrent round (simultaneous proposals) got here first.
        return Ok(());
    }
    let swap_started = std::time::Instant::now();
    let conn = EpochConn {
        core: Arc::clone(core),
        epoch,
    };
    tele::bind_nonce(&picks.nonce, ctx);
    let target = factory(picks.picks.clone(), picks.nonce.clone(), conn).await?;
    *core.current.write() = (epoch, target);
    *core.last_picks.lock() = Some(picks);
    {
        let mut inbox = core.inbox.lock();
        let mut future = core.future.lock();
        // Publish the epoch and flush the future buffer under the same
        // locks `route` compares under (see the routing comment there):
        // anything buffered before this point is flushed here, anything
        // routed after it sees the new epoch.
        core.epoch.store(epoch, Ordering::Release);
        let mut keep = Vec::new();
        for (e, d) in future.drain(..) {
            match e.cmp(&epoch) {
                std::cmp::Ordering::Equal => inbox.push_back(d),
                std::cmp::Ordering::Greater => keep.push((e, d)),
                std::cmp::Ordering::Less => {}
            }
        }
        *future = keep;
    }
    // Wakes both waiters on the new stack and blocked receivers of the old
    // one, whose per-epoch views now fail with `ConnectionClosed`.
    core.inbox_notify.notify_waiters();
    core.tele.epoch_swaps.incr();
    let elapsed = swap_started.elapsed();
    tele::histogram("reneg.swap_us").record_duration(elapsed);
    // The swap gets its own span (a fresh id: `ctx.span_id` names the
    // round, and one id must not appear twice in the assembled tree),
    // parented under the round, with `Swap` status so the tail sampler
    // always retains traces that changed shape mid-flight.
    tele::span::record(
        "reneg.swap",
        &core.opts.name,
        &ctx.child(),
        ctx.span_id,
        swap_started,
        tele::span::SpanStatus::Swap,
        &[("epoch", epoch.to_string())],
    );
    tele::event!(
        tele::Level::Info,
        "reneg",
        "swap",
        "name" = core.opts.name.as_str(),
        "epoch" = epoch,
        "impls" = {
            let p = core.last_picks.lock();
            p.as_ref().map(|p| impl_names(&p.picks)).unwrap_or_default()
        },
        "elapsed_us" = elapsed.as_micros() as u64,
        "trace_id" = ctx.trace_hex(),
        "span_id" = ctx.span_id,
        "parent_span_id" = parent_span,
    );
    let _ = tele::flight::dump("reneg.swap", Some(ctx.trace_id));
    Ok(())
}

/// The view of the raw transport handed to one epoch's stack: frames data
/// with this epoch's tag and fails once the epoch is superseded, so a
/// replaced stack's internal tasks (reliability pumps, heartbeat beaters)
/// unwind instead of stealing the successor's traffic.
pub struct EpochConn<InC> {
    core: Arc<Core<InC>>,
    epoch: u64,
}

impl<InC> Clone for EpochConn<InC> {
    fn clone(&self) -> Self {
        EpochConn {
            core: Arc::clone(&self.core),
            epoch: self.epoch,
        }
    }
}

impl<InC> EpochConn<InC> {
    /// The epoch this view is bound to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<InC> ChunnelConnection for EpochConn<InC>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    type Data = Datagram;

    fn send(&self, (addr, mut body): Datagram) -> BoxFut<'_, Result<(), Error>> {
        Box::pin(async move {
            if self.epoch < self.core.epoch.load(Ordering::Acquire) {
                return Err(Error::ConnectionClosed);
            }
            wire::prepend_data(&mut body, self.epoch);
            let sent = self.core.raw.send((addr, body)).await;
            if sent.is_ok() {
                self.core.tele.frames_sent.incr();
            }
            sent
        })
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        Box::pin(async move {
            loop {
                let cur = self.core.epoch.load(Ordering::Acquire);
                if self.epoch < cur {
                    return Err(Error::ConnectionClosed);
                }
                // Register before checking the inbox so a frame routed
                // between the check and the await still wakes us.
                let notified = self.core.inbox_notify.notified();
                if self.epoch == cur {
                    if let Some(d) = self.core.inbox.lock().pop_front() {
                        return Ok(d);
                    }
                }
                tokio::select! {
                    r = self.core.raw.recv() => {
                        self.core.route(r?).await?;
                    }
                    _ = notified => {}
                }
            }
        })
    }
}

impl<InC> Drain for EpochConn<InC> {}

/// A connection whose chunnel stack can be re-negotiated and swapped while
/// it is live. See the module docs for the protocol.
///
/// Cloneable; all clones share the connection and see swaps immediately.
pub struct SwitchableConn<InC> {
    core: Arc<Core<InC>>,
    factory: StackFactory<InC>,
    _responder: Arc<AbortOnDrop>,
}

impl<InC> Clone for SwitchableConn<InC> {
    fn clone(&self) -> Self {
        SwitchableConn {
            core: Arc::clone(&self.core),
            factory: Arc::clone(&self.factory),
            _responder: Arc::clone(&self._responder),
        }
    }
}

impl<InC> SwitchableConn<InC>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    /// The current epoch: 0 until the first successful renegotiation.
    pub fn epoch(&self) -> u64 {
        self.core.epoch.load(Ordering::Acquire)
    }

    /// The picks the current stack was instantiated from.
    pub fn picks(&self) -> Option<ServerPicks> {
        self.core.last_picks.lock().clone()
    }

    /// Per-connection data-path and swap counters.
    pub fn telemetry(&self) -> &ConnTelemetry {
        &self.core.tele
    }

    /// The concrete negotiated stack bound to this connection right now:
    /// implementation per slot, plus the current epoch.
    pub fn introspect(&self) -> Option<StackReport> {
        let picks = self.core.last_picks.lock().clone()?;
        Some(StackReport::from_picks(
            self.core.opts.name.clone(),
            self.epoch(),
            &picks,
        ))
    }

    /// Run a fresh offer/pick round on this live connection and swap to the
    /// outcome. Offers are re-filtered, so implementations that died since
    /// the last round are withdrawn and the pick lands on what still works
    /// (ultimately the software fallback, which is always offerable).
    ///
    /// Concurrent calls coalesce; if the peer proposes a round at the same
    /// time, exactly one round wins and both callers observe its outcome.
    /// On failure (`Err`), the connection remains on its current stack.
    pub async fn renegotiate(&self) -> Result<ServerPicks, Error> {
        let _guard = self.core.initiate_lock.lock().await;
        let next = self.core.epoch.load(Ordering::Acquire) + 1;
        // The round gets its own span, a child of the connection's trace,
        // carried on the proposal so the responder's spans link back here.
        let rctx = self.core.trace.child();
        let round_started = std::time::Instant::now();
        tele::counter("reneg.rounds_initiated").incr();
        tele::event!(
            tele::Level::Info,
            "reneg",
            "propose",
            "name" = self.core.opts.name.as_str(),
            "epoch" = next,
            "trace_id" = rctx.trace_hex(),
            "span_id" = rctx.span_id,
            "parent_span_id" = self.core.trace.span_id,
        );
        self.core.initiating.store(true, Ordering::Release);
        self.core.pause();
        let res = self.renegotiate_inner(next, &rctx).await;
        self.core.unpause();
        self.core.initiating.store(false, Ordering::Release);
        tele::span::record(
            "reneg.round",
            &self.core.opts.name,
            &rctx,
            self.core.trace.span_id,
            round_started,
            if res.is_ok() {
                tele::span::SpanStatus::Ok
            } else {
                tele::span::SpanStatus::RoundFailed
            },
            &[("epoch", next.to_string())],
        );
        if res.is_err() {
            tele::counter("reneg.rounds_failed").incr();
            tele::event!(
                tele::Level::Error,
                "reneg",
                "round_failed",
                "name" = self.core.opts.name.as_str(),
                "epoch" = next,
                "trace_id" = rctx.trace_hex(),
                "span_id" = rctx.span_id,
                "parent_span_id" = self.core.trace.span_id,
            );
            let _ = tele::flight::dump("reneg.round_failed", Some(rctx.trace_id));
        }
        res
    }

    async fn renegotiate_inner(
        &self,
        next: u64,
        rctx: &tele::TraceContext,
    ) -> Result<ServerPicks, Error> {
        let core = &self.core;
        // Quiesce: anything unacknowledged would be lost with the old
        // stack. A stack that can no longer make progress (it is why we are
        // renegotiating) fails or times out here; proceed regardless.
        let (_, target) = core.current_snapshot();
        let drain_started = std::time::Instant::now();
        let _ = tokio::time::timeout(core.opts.handshake_budget(), target.drain()).await;
        tele::histogram("reneg.drain_us").record_duration(drain_started.elapsed());

        let slots = apply_filter(&core.opts.filter, core.role, core.base_slots.clone()).await?;
        let msg = NegotiateMsg::Renegotiate {
            epoch: next,
            name: core.opts.name.clone(),
            slots,
            registered: global_registry().offers(),
        };
        let neg_frame: Frame = frame_neg(rctx, &bincode::serialize(&msg)?).into();
        *core.reneg_reply.lock() = None;

        let mut backoff = core.opts.timeout;
        for _attempt in 0..=core.opts.retries {
            core.raw
                .send((core.peer.clone(), neg_frame.clone()))
                .await?;
            let deadline = tokio::time::Instant::now() + jittered(backoff);
            loop {
                if core.epoch.load(Ordering::Acquire) >= next {
                    // The peer proposed simultaneously and the responder
                    // path completed the swap for us.
                    return core
                        .last_picks
                        .lock()
                        .clone()
                        .ok_or_else(|| Error::Negotiation("epoch advanced without picks".into()));
                }
                let notified = core.reneg_reply_notify.notified();
                let reply = {
                    let mut slot = core.reneg_reply.lock();
                    match &*slot {
                        Some((e, _)) if *e >= next => slot.take(),
                        _ => None,
                    }
                };
                if let Some((_, outcome)) = reply {
                    let picks = outcome.map_err(Error::Negotiation)?;
                    if let Some(f) = &core.opts.filter {
                        f.picked(core.role, &picks.picks).await?;
                    }
                    swap_to(
                        core,
                        &self.factory,
                        next,
                        picks.clone(),
                        *rctx,
                        core.trace.span_id,
                    )
                    .await?;
                    return Ok(picks);
                }
                tokio::select! {
                    _ = notified => {}
                    r = core.raw.recv() => {
                        core.route(r?).await?;
                    }
                    _ = tokio::time::sleep_until(deadline) => break,
                }
            }
            backoff = backoff.saturating_mul(2);
        }
        Err(Error::Timeout {
            after: core.opts.handshake_budget(),
            what: "renegotiation reply",
        })
    }
}

impl<InC> ChunnelConnection for SwitchableConn<InC>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    type Data = Datagram;

    fn send(&self, data: Datagram) -> BoxFut<'_, Result<(), Error>> {
        Box::pin(async move {
            let profiled = tele::profile::profiling_enabled();
            let bytes = if profiled { data.1.len() as u64 } else { 0 };
            let start = if profiled {
                self.core.timer.begin_send()
            } else {
                None
            };
            let res = loop {
                self.core.wait_unpaused().await;
                let (epoch, target) = self.core.current_snapshot();
                match target.send(data.clone()).await {
                    Ok(()) => break Ok(()),
                    // A failure from a superseded stack is an artifact of
                    // the swap, not of this send (the initiator drained
                    // before swapping, so nothing admitted pre-swap is
                    // outstanding): retry on the successor.
                    Err(_) if self.core.epoch.load(Ordering::Acquire) != epoch => continue,
                    Err(e) => break Err(e),
                }
            };
            if profiled {
                self.core.timer.finish_send(start, bytes, res.is_ok());
            }
            res
        })
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        Box::pin(async move {
            let profiled = tele::profile::profiling_enabled();
            let start = if profiled {
                self.core.timer.begin_recv()
            } else {
                None
            };
            let res = loop {
                let (epoch, target) = self.core.current_snapshot();
                match target.recv().await {
                    Ok(d) => break Ok(d),
                    Err(_) if self.core.epoch.load(Ordering::Acquire) != epoch => continue,
                    Err(e) => break Err(e),
                }
            };
            if profiled {
                match &res {
                    Ok((_, buf)) => self.core.timer.finish_recv(start, buf.len() as u64, true),
                    Err(_) => self.core.timer.finish_recv(start, 0, false),
                }
            }
            res
        })
    }
}

impl<InC> Drain for SwitchableConn<InC>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    fn drain(&self) -> BoxFut<'_, Result<(), Error>> {
        let (_, target) = self.core.current_snapshot();
        Box::pin(async move { target.drain().await })
    }
}

impl<InC> StackIntrospect for SwitchableConn<InC>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    fn introspect(&self) -> Option<StackReport> {
        SwitchableConn::introspect(self)
    }
}

/// The responder half: waits for the peer's `Renegotiate` proposals (stashed
/// by whichever task routed the frame) and runs the pick round. One task per
/// connection, aborted when the last [`SwitchableConn`] clone drops.
async fn run_responder<InC>(core: Arc<Core<InC>>, factory: StackFactory<InC>)
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    loop {
        let notified = core.reneg_request_notify.notified();
        let taken = core.reneg_request.lock().take();
        let Some((msg, peer_ctx)) = taken else {
            notified.await;
            continue;
        };
        let NegotiateMsg::Renegotiate { epoch, .. } = &msg else {
            continue;
        };
        let epoch = *epoch;
        if epoch <= core.epoch.load(Ordering::Acquire) {
            continue; // raced with a completed swap; route() re-replies to dups
        }
        if core.role == Role::Client && core.initiating.load(Ordering::Acquire) {
            // Simultaneous proposals: the client side's round wins, so
            // refuse the server's. (The server side accepts the client's
            // proposal instead; its own initiator observes the epoch
            // advance and reports that round's outcome.)
            let reply = NegotiateMsg::RenegotiateReply {
                epoch,
                reply: Err("simultaneous renegotiation: client round wins".into()),
            };
            if let Ok(body) = bincode::serialize(&reply) {
                let refusal = frame_neg(&peer_ctx.child(), &body);
                let _ = core.raw.send((core.peer.clone(), refusal.into())).await;
            }
            continue;
        }
        core.pause();
        let _ = respond(&core, &factory, &msg, epoch, peer_ctx).await;
        core.unpause();
    }
}

async fn respond<InC>(
    core: &Arc<Core<InC>>,
    factory: &StackFactory<InC>,
    msg: &NegotiateMsg,
    epoch: u64,
    peer_ctx: tele::TraceContext,
) -> Result<(), Error>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    // Our span for this round: a child of the initiator's round span.
    let dctx = peer_ctx.child();
    let parent_span = peer_ctx.span_id;
    let respond_started = std::time::Instant::now();
    // The initiator paused and drained before proposing; drain our side too
    // (its acknowledgments still flow: the initiator's epoch only advances
    // once it sees our reply).
    tele::counter("reneg.rounds_answered").incr();
    let (_, target) = core.current_snapshot();
    let drain_started = std::time::Instant::now();
    let _ = tokio::time::timeout(core.opts.handshake_budget(), target.drain()).await;
    tele::histogram("reneg.drain_us").record_duration(drain_started.elapsed());

    let outcome = pick_round(&core.opts, core.role, core.base_slots.clone(), msg).await;
    let reply = NegotiateMsg::RenegotiateReply {
        epoch,
        reply: outcome.as_ref().map_err(ToString::to_string).cloned(),
    };
    let reply_frame: Frame = frame_neg(&dctx, &bincode::serialize(&reply)?).into();
    *core.cached_reneg.lock() = Some((epoch, reply_frame.clone()));
    core.raw.send((core.peer.clone(), reply_frame)).await?;
    let ok = outcome.is_ok();
    if let Ok(picks) = outcome {
        swap_to(core, factory, epoch, picks, dctx, parent_span).await?;
    }
    // The responder's half of the round, parented under the initiator's
    // round span — this record is the cross-host link in the assembled
    // tree.
    tele::span::record(
        "reneg.respond",
        &core.opts.name,
        &dctx,
        parent_span,
        respond_started,
        if ok {
            tele::span::SpanStatus::Ok
        } else {
            tele::span::SpanStatus::Failed
        },
        &[("epoch", epoch.to_string())],
    );
    Ok(())
}

/// Build the connection around an agreed stack: `epoch` and `picks` are
/// what the handshake settled on, `reply` (server side) the frame that told
/// the peer so, cached for its retransmissions.
#[allow(clippy::too_many_arguments)]
async fn assemble<S, InC>(
    stack: S,
    raw: InC,
    role: Role,
    peer: Addr,
    opts: NegotiateOpts,
    epoch: u64,
    picks: ServerPicks,
    pending: Vec<Datagram>,
    reply: Option<Frame>,
    trace: tele::TraceContext,
) -> Result<SwitchableConn<InC>, Error>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
    S: GetOffers + Apply<EpochConn<InC>> + Clone + Send + Sync + 'static,
    S::Applied: ChunnelConnection<Data = Datagram> + Drain + Send + Sync + 'static,
{
    let base_slots = stack.offers();
    let factory = factory_from_stack(stack);
    // The reply answered an offer (epoch 0) or a first-message proposal.
    let (cached_reply, cached_reneg) = match reply {
        Some(frame) if epoch > 0 => (None, Some((epoch, frame))),
        reply => (reply, None),
    };
    let core = Arc::new(Core {
        raw: Arc::new(raw),
        role,
        peer,
        opts,
        base_slots,
        epoch: AtomicU64::new(epoch),
        current: RwLock::new((epoch, Arc::new(NotYet) as SwitchTargetRef)),
        last_picks: Mutex::new(None),
        inbox: Mutex::new(pending.into()),
        future: Mutex::new(Vec::new()),
        inbox_notify: Notify::new(),
        cached_reply,
        cached_reneg: Mutex::new(cached_reneg),
        reneg_reply: Mutex::new(None),
        reneg_reply_notify: Notify::new(),
        reneg_request: Mutex::new(None),
        reneg_request_notify: Notify::new(),
        paused: AtomicUsize::new(0),
        pause_notify: Notify::new(),
        initiating: AtomicBool::new(false),
        initiate_lock: tokio::sync::Mutex::new(()),
        swap_lock: tokio::sync::Mutex::new(()),
        tele: ConnTelemetry::new(),
        timer: tele::profile::LayerTimer::new("switchable"),
        trace,
    });
    let conn = EpochConn {
        core: Arc::clone(&core),
        epoch,
    };
    tele::bind_nonce(&picks.nonce, trace);
    let target = factory(picks.picks.clone(), picks.nonce.clone(), conn).await?;
    *core.current.write() = (epoch, target);
    *core.last_picks.lock() = Some(picks);
    let responder = tokio::spawn(run_responder(Arc::clone(&core), Arc::clone(&factory)));
    Ok(SwitchableConn {
        core,
        factory,
        _responder: Arc::new(AbortOnDrop(responder)),
    })
}

/// Like [`negotiate_client`](super::negotiate_client), but the returned
/// connection supports mid-connection re-negotiation.
pub async fn negotiate_switchable_client<S, InC>(
    stack: S,
    raw: InC,
    addr: Addr,
    opts: NegotiateOpts,
) -> Result<(SwitchableConn<InC>, ServerPicks), Error>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
    S: GetOffers + Apply<EpochConn<InC>> + Clone + Send + Sync + 'static,
    S::Applied: ChunnelConnection<Data = Datagram> + Drain + Send + Sync + 'static,
{
    let slots = apply_filter(&opts.filter, Role::Client, stack.offers()).await?;
    let offer = NegotiateMsg::ClientOffer {
        name: opts.name.clone(),
        slots,
        registered: global_registry().offers(),
    };
    let ctx = tele::TraceContext::new_root();
    let (picks, pending) = client_handshake(&raw, &addr, &offer, &opts, &ctx).await?;
    if let Some(f) = &opts.filter {
        f.picked(Role::Client, &picks.picks).await?;
    }
    let conn = assemble(
        stack,
        raw,
        Role::Client,
        addr,
        opts,
        0,
        picks.clone(),
        pending,
        None,
        ctx,
    )
    .await?;
    Ok((conn, picks))
}

/// Like [`negotiate_server_once`](super::negotiate_server_once), but the
/// returned connection supports mid-connection re-negotiation — and the
/// *first* message may itself be a [`NegotiateMsg::Renegotiate`], in which
/// case the connection starts at the proposed epoch (see
/// [`server_handshake`]).
pub async fn negotiate_server_switchable<S, InC>(
    stack: S,
    raw: InC,
    opts: NegotiateOpts,
) -> Result<SwitchableConn<InC>, Error>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
    S: GetOffers + Apply<EpochConn<InC>> + Clone + Send + Sync + 'static,
    S::Applied: ChunnelConnection<Data = Datagram> + Drain + Send + Sync + 'static,
{
    let accepted = server_handshake(&stack, &raw, &opts, true).await?;
    assemble(
        stack,
        raw,
        Role::Server,
        accepted.from,
        opts,
        accepted.epoch,
        accepted.picks,
        Vec::new(),
        Some(accepted.reply_frame),
        accepted.ctx,
    )
    .await
}

/// A stream of [`SwitchableConn`]s: what [`NegotiatedStream::switchable`]
/// returns.
pub type SwitchableStream<S, Stack> =
    NegotiatedStream<S, Stack, SwitchableConn<<S as ConnStream>::Connection>>;

impl<S: ConnStream, Stack> NegotiatedStream<S, Stack, ()> {
    /// Like [`new`](Self::new), but every accepted connection supports
    /// mid-connection re-negotiation.
    pub fn switchable<InC>(raw: S, stack: Stack, opts: NegotiateOpts) -> SwitchableStream<S, Stack>
    where
        S: ConnStream<Connection = InC>,
        InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
        Stack: GetOffers + Apply<EpochConn<InC>> + Clone + Send + Sync + 'static,
        Stack::Applied: ChunnelConnection<Data = Datagram> + Drain + Send + Sync + 'static,
    {
        Self::with(raw, stack, opts, |stack, conn, opts| {
            Box::pin(negotiate_server_switchable(stack, conn, (*opts).clone()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunnel::Chunnel;
    use crate::conn::pair;
    use crate::negotiate::{guid, Negotiate};
    use crate::wrap;
    use std::time::Duration;

    #[derive(Clone, Copy, Debug, Default)]
    struct Rel;

    impl Negotiate for Rel {
        const CAPABILITY: u64 = guid("test/sw-rel");
        const IMPL: u64 = guid("test/sw-rel/basic");
        const NAME: &'static str = "test-sw-rel";
    }

    impl<InC> Chunnel<InC> for Rel
    where
        InC: ChunnelConnection + Send + 'static,
    {
        type Connection = InC;

        fn connect_wrap(&self, inner: InC) -> BoxFut<'static, Result<InC, Error>> {
            Box::pin(async move { Ok(inner) })
        }
    }

    crate::negotiable!(Rel);

    /// What a hand-driven peer puts on the wire.
    fn neg(msg: &NegotiateMsg) -> Frame {
        let ctx = tele::TraceContext::new_root();
        frame_neg(&ctx, &bincode::serialize(msg).unwrap()).into()
    }

    fn data(epoch: u64, body: &[u8]) -> Frame {
        let mut f = Frame::from(body);
        wire::prepend_data(&mut f, epoch);
        f
    }

    /// What a hand-driven peer reads off it.
    fn parse_neg(buf: &[u8]) -> NegotiateMsg {
        let Kind::Neg { body, .. } = wire::classify(buf) else {
            panic!("expected a negotiation frame");
        };
        bincode::deserialize(body).unwrap()
    }

    #[tokio::test]
    async fn renegotiation_swaps_both_sides_and_data_flows() {
        let (cli_raw, srv_raw) = pair::<Datagram>(32);
        let addr = Addr::Mem("srv".into());

        let srv = tokio::spawn(async move {
            negotiate_server_switchable(wrap!(Rel), srv_raw, NegotiateOpts::named("srv")).await
        });
        let (cli, picks) = negotiate_switchable_client(
            wrap!(Rel),
            cli_raw,
            addr.clone(),
            NegotiateOpts::named("cli"),
        )
        .await
        .unwrap();
        let srv = srv.await.unwrap().unwrap();
        assert_eq!(picks.picks.len(), 1);
        assert_eq!(cli.epoch(), 0);
        assert_eq!(srv.epoch(), 0);

        // Epoch-0 traffic.
        cli.send((addr.clone(), b"before".into())).await.unwrap();
        let (_, m) = srv.recv().await.unwrap();
        assert_eq!(m, b"before");

        // Keep the server side pumped so its responder half sees the
        // proposal, then renegotiate from the client.
        let srv2 = srv.clone();
        let echo = tokio::spawn(async move {
            let (from, m) = srv2.recv().await.unwrap();
            srv2.send((from, m)).await.unwrap();
        });
        let picks = cli.renegotiate().await.unwrap();
        assert_eq!(picks.picks.len(), 1);
        assert_eq!(cli.epoch(), 1);

        // Epoch-1 traffic still round-trips.
        cli.send((addr, b"after".into())).await.unwrap();
        let (_, m) = cli.recv().await.unwrap();
        assert_eq!(m, b"after");
        assert_eq!(srv.epoch(), 1);
        echo.await.unwrap();

        // Telemetry matches the ground truth of the run: one swap per
        // side, two data frames sent by the client, none dropped.
        assert_eq!(cli.telemetry().epoch_swaps.get(), 1);
        assert_eq!(srv.telemetry().epoch_swaps.get(), 1);
        assert_eq!(cli.telemetry().frames_sent.get(), 2);
        assert_eq!(cli.telemetry().stale_epoch_drops.get(), 0);

        // Introspection reports the live stack at the new epoch.
        let report = cli.introspect().unwrap();
        assert_eq!(report.epoch, 1);
        assert!(report.binds(Rel::NAME), "{}", report.render());
    }

    #[tokio::test]
    async fn server_side_can_initiate() {
        let (cli_raw, srv_raw) = pair::<Datagram>(32);
        let addr = Addr::Mem("srv".into());

        let srv = tokio::spawn(async move {
            negotiate_server_switchable(wrap!(Rel), srv_raw, NegotiateOpts::named("srv")).await
        });
        let (cli, _) =
            negotiate_switchable_client(wrap!(Rel), cli_raw, addr, NegotiateOpts::named("cli"))
                .await
                .unwrap();
        let srv = srv.await.unwrap().unwrap();

        // Client recv pumps the connection, routing the server's proposal
        // to the client's responder half.
        let cli2 = cli.clone();
        let pump = tokio::spawn(async move { cli2.recv().await });
        srv.renegotiate().await.unwrap();
        assert_eq!(srv.epoch(), 1);

        srv.send((Addr::Mem("cli".into()), b"hi".into()))
            .await
            .unwrap();
        let (_, m) = pump.await.unwrap().unwrap();
        assert_eq!(m, b"hi");
        assert_eq!(cli.epoch(), 1);
    }

    #[tokio::test]
    async fn stale_epoch_frames_are_dropped_future_ones_buffered() {
        // Manual peer: drive the wire by hand to control epochs exactly.
        let (cli_raw, peer) = pair::<Datagram>(32);
        let addr = Addr::Mem("srv".into());

        let cli_task = tokio::spawn(async move {
            negotiate_switchable_client(wrap!(Rel), cli_raw, addr, NegotiateOpts::named("cli"))
                .await
        });

        // Answer the initial offer.
        let (from, buf) = peer.recv().await.unwrap();
        assert!(matches!(parse_neg(&buf), NegotiateMsg::ClientOffer { .. }));
        let pick = Offer::from_chunnel(&Rel);
        let reply = NegotiateMsg::ServerReply(Ok(ServerPicks {
            name: "peer".into(),
            picks: vec![pick.clone()],
            nonce: vec![0; 16],
        }));
        peer.send((from.clone(), neg(&reply))).await.unwrap();
        let (cli, _) = cli_task.await.unwrap().unwrap();

        // A frame from epoch 2 arrives early (we are at 0): buffered, not
        // delivered. An untagged data frame is delivered at any epoch.
        peer.send((from.clone(), data(2, b"too-early")))
            .await
            .unwrap();
        peer.send((from.clone(), data(0, b"plain"))).await.unwrap();
        let (_, m) = cli.recv().await.unwrap();
        assert_eq!(m, b"plain");

        // Renegotiate twice; the manual peer answers each proposal.
        for round in 1..=2u64 {
            let cli2 = cli.clone();
            let reneg = tokio::spawn(async move { cli2.renegotiate().await });
            let (from, buf) = peer.recv().await.unwrap();
            let NegotiateMsg::Renegotiate { epoch, slots, .. } = parse_neg(&buf) else {
                panic!("expected a renegotiation proposal");
            };
            assert_eq!(epoch, round);
            assert_eq!(slots.len(), 1);
            let reply = NegotiateMsg::RenegotiateReply {
                epoch,
                reply: Ok(ServerPicks {
                    name: "peer".into(),
                    picks: vec![pick.clone()],
                    nonce: vec![round as u8; 16],
                }),
            };
            peer.send((from, neg(&reply))).await.unwrap();
            reneg.await.unwrap().unwrap();
            assert_eq!(cli.epoch(), round);
        }

        // Reaching epoch 2 released the frame buffered for it. A frame
        // tagged with the superseded epoch 1 is now dropped; epoch 2's are
        // delivered.
        peer.send((from.clone(), data(1, b"stale"))).await.unwrap();
        peer.send((from.clone(), data(2, b"current")))
            .await
            .unwrap();
        let (_, m) = cli.recv().await.unwrap();
        assert_eq!(m, b"too-early");
        let (_, m) = cli.recv().await.unwrap();
        assert_eq!(m, b"current");

        // The connection's own counters saw exactly what happened: one
        // early frame buffered for a future epoch, one stale frame dropped.
        assert_eq!(cli.telemetry().future_buffered.get(), 1);
        assert_eq!(cli.telemetry().stale_epoch_drops.get(), 1);

        // The client's sends are now epoch-tagged.
        cli.send((from, b"tagged".into())).await.unwrap();
        let (_, buf) = peer.recv().await.unwrap();
        assert_eq!(buf, data(2, b"tagged"));
    }

    #[tokio::test]
    async fn renegotiate_times_out_against_silent_peer() {
        let (cli_raw, peer) = pair::<Datagram>(32);
        let addr = Addr::Mem("srv".into());
        let opts = NegotiateOpts {
            timeout: Duration::from_millis(10),
            retries: 1,
            ..NegotiateOpts::named("cli")
        };

        let cli_task = tokio::spawn(async move {
            negotiate_switchable_client(wrap!(Rel), cli_raw, addr, opts).await
        });
        let (from, _) = peer.recv().await.unwrap();
        let reply = NegotiateMsg::ServerReply(Ok(ServerPicks {
            name: "peer".into(),
            picks: vec![Offer::from_chunnel(&Rel)],
            nonce: vec![0; 16],
        }));
        peer.send((from, neg(&reply))).await.unwrap();
        let (cli, _) = cli_task.await.unwrap().unwrap();

        // Peer never answers the proposal: the round fails, the connection
        // stays on epoch 0.
        match cli.renegotiate().await {
            Err(Error::Timeout { what, .. }) => assert_eq!(what, "renegotiation reply"),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(cli.epoch(), 0);
    }

    #[tokio::test]
    async fn renegotiate_as_first_message_establishes_fresh_server() {
        // A client that already advanced to epoch 3 reconnects to a fresh
        // server incarnation: its Renegotiate is the first message.
        let (cli_raw, srv_raw) = pair::<Datagram>(32);

        let srv = tokio::spawn(async move {
            negotiate_server_switchable(wrap!(Rel), srv_raw, NegotiateOpts::named("srv-2")).await
        });

        let msg = NegotiateMsg::Renegotiate {
            epoch: 3,
            name: "cli".into(),
            slots: wrap!(Rel).offers(),
            registered: vec![],
        };
        cli_raw
            .send((Addr::Mem("srv".into()), neg(&msg)))
            .await
            .unwrap();
        let (_, buf) = cli_raw.recv().await.unwrap();
        let NegotiateMsg::RenegotiateReply { epoch, reply } = parse_neg(&buf) else {
            panic!("expected a renegotiation reply");
        };
        assert_eq!(epoch, 3);
        assert!(reply.is_ok());

        let srv = srv.await.unwrap().unwrap();
        assert_eq!(srv.epoch(), 3);

        // Epoch-3 tagged data from the client is delivered.
        cli_raw
            .send((Addr::Mem("srv".into()), data(3, b"resumed")))
            .await
            .unwrap();
        let (_, m) = srv.recv().await.unwrap();
        assert_eq!(m, b"resumed");
    }
}
