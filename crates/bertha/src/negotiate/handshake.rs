//! The on-the-wire negotiation handshake (§4.3).
//!
//! When a client connects, it sends its stack's offers as the first datagram
//! on the connection; the server intersects them with its own stack, applies
//! the operator policy, and replies with one pick per slot. Both sides then
//! instantiate their (possibly different) halves of each picked
//! implementation and the connection carries data.
//!
//! Negotiation frames and data frames share the underlying connection, so
//! every payload carries the negotiate-channel framing of [`wire`] (the only
//! module that knows its layout). The handshake tolerates datagram loss: the
//! client retransmits its offer until a reply arrives, and an established
//! server connection answers duplicate offers by re-sending its cached
//! reply.
//!
//! There is one server handshake, [`server_handshake`]: the static
//! ([`negotiate_server_once`]) and re-negotiable
//! ([`negotiate_server_switchable`](super::negotiate_server_switchable))
//! servers differ only in what they wrap the raw connection with afterwards,
//! and one accept loop, [`NegotiatedStream`], runs either per connection.

use super::apply::{Apply, GetOffers};
use super::pick::{pick_stack, DefaultPolicy, PolicyRef};
use super::types::{Endpoints, NegotiateMsg, Offer, Scope, ServerPicks};
use super::wire::{self, frame_neg, Kind};
use crate::addr::Addr;
use crate::buf::Frame;
use crate::chunnel::ConnStream;
use crate::conn::{BoxFut, ChunnelConnection, Datagram, Drain};
use crate::error::Error;
use bertha_telemetry as tele;
use parking_lot::Mutex;
use rand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Which side of the handshake we are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The connecting endpoint.
    Client,
    /// The listening endpoint.
    Server,
}

/// A hook consulted during negotiation; the discovery service implements
/// this to inject availability, priorities, and init hooks for registered
/// accelerated implementations (§4.2).
pub trait OfferFilter: Send + Sync {
    /// Adjust one slot's offers before they are advertised (client) or
    /// matched (server): remove unavailable implementations, boost the
    /// priority of registered accelerated ones, attach `ext` data.
    fn filter_slot<'a>(
        &'a self,
        role: Role,
        slot: usize,
        offers: Vec<Offer>,
    ) -> BoxFut<'a, Result<Vec<Offer>, Error>>;

    /// Called with the final picks for a connection, before data flows.
    /// Implementation init hooks (configure the system and network so the
    /// application can use the selected implementation, §4.2) run here.
    fn picked<'a>(&'a self, role: Role, picks: &'a [Offer]) -> BoxFut<'a, Result<(), Error>>;
}

/// Options controlling a negotiation handshake.
#[derive(Clone)]
pub struct NegotiateOpts {
    /// Endpoint name, for debugging (§3.1's first `bertha::new` argument).
    pub name: String,
    /// Initial per-attempt timeout waiting for the peer's handshake
    /// message. Attempts back off exponentially from here (with jitter),
    /// doubling per retransmission.
    pub timeout: Duration,
    /// Number of client offer retransmissions after the first attempt
    /// before giving up.
    pub retries: usize,
    /// Discovery/operator hook; `None` negotiates from the stacks alone.
    pub filter: Option<Arc<dyn OfferFilter>>,
    /// Operator policy choosing among admissible implementations
    /// (server side).
    pub policy: PolicyRef,
}

impl Default for NegotiateOpts {
    fn default() -> Self {
        // 150 ms initial, doubling over 3 retries: 150 + 300 + 600 + 1200
        // = 2.25 s maximum, the same total budget as the previous fixed
        // 250 ms × (1 + 8) schedule, but friendlier to a congested or
        // restarting peer (early attempts are faster, later ones back off).
        NegotiateOpts {
            name: "bertha".to_owned(),
            timeout: Duration::from_millis(150),
            retries: 3,
            filter: None,
            policy: Arc::new(DefaultPolicy),
        }
    }
}

impl NegotiateOpts {
    /// Options with an endpoint name.
    pub fn named(name: impl Into<String>) -> Self {
        NegotiateOpts {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Attach an offer filter (usually a discovery client).
    pub fn with_filter(mut self, f: Arc<dyn OfferFilter>) -> Self {
        self.filter = Some(f);
        self
    }

    /// Use a non-default pick policy.
    pub fn with_policy(mut self, p: PolicyRef) -> Self {
        self.policy = p;
        self
    }

    /// The total time a handshake may take before giving up: the sum of
    /// the exponentially-backed-off per-attempt timeouts. Jitter only
    /// shortens attempts, so this is also the worst case. The server waits
    /// this long for a first message; the client reports it in
    /// [`Error::Timeout`].
    pub fn handshake_budget(&self) -> Duration {
        let mut total = Duration::ZERO;
        let mut attempt = self.timeout;
        for _ in 0..=self.retries {
            total += attempt;
            attempt = attempt.saturating_mul(2);
        }
        total
    }
}

/// Equal jitter: wait between 50% and 100% of the backoff interval, so
/// retransmissions from many clients recovering at once do not synchronize.
/// Jitter never exceeds the interval, keeping [`NegotiateOpts::handshake_budget`]
/// a hard bound.
pub(crate) fn jittered(d: Duration) -> Duration {
    d.mul_f64(rand::thread_rng().gen_range(0.5..=1.0))
}

/// Comma-joined implementation names of a pick set, for event fields.
pub(crate) fn impl_names(picks: &[Offer]) -> String {
    picks
        .iter()
        .map(|o| o.name.as_str())
        .collect::<Vec<_>>()
        .join(",")
}

pub(crate) async fn apply_filter(
    filter: &Option<Arc<dyn OfferFilter>>,
    role: Role,
    mut slots: Vec<Vec<Offer>>,
) -> Result<Vec<Vec<Offer>>, Error> {
    match filter {
        Some(f) => {
            for (i, slot) in slots.iter_mut().enumerate() {
                let filtered = f.filter_slot(role, i, std::mem::take(slot)).await?;
                *slot = filtered;
            }
        }
        None => {
            // No discovery service attached: implementations that live
            // outside the application (accelerated variants) cannot be
            // confirmed available here, so of what this endpoint would
            // host only in-process fallbacks are offered ("applications
            // use the software fallback ... when no network or host
            // provided implementation can be used", §2). An implementation
            // hosted wholly by the peer asks nothing of this side; whether
            // it is available is for the peer's filter to say.
            let peer_only = match role {
                Role::Client => Endpoints::Server,
                Role::Server => Endpoints::Client,
            };
            for slot in slots.iter_mut() {
                slot.retain(|o| o.scope == Scope::Application || o.endpoints == peer_only);
            }
        }
    }
    Ok(slots)
}

/// Run the client side of the handshake on a raw connection, returning the
/// server's picks and any data frames that arrived while we waited.
///
/// `ctx` is this negotiation's trace context: it rides on every offer
/// frame (the server parents its spans under it), is bound to the
/// handshake nonce on success so data-path chunnels can recover it, and
/// names the trace in the flight-recorder dump on exhaustion.
pub async fn client_handshake<C>(
    raw: &C,
    addr: &Addr,
    offer: &NegotiateMsg,
    opts: &NegotiateOpts,
    ctx: &tele::TraceContext,
) -> Result<(ServerPicks, Vec<Datagram>), Error>
where
    C: ChunnelConnection<Data = Datagram>,
{
    let body = bincode::serialize(offer)?;
    let neg_frame: Frame = frame_neg(ctx, &body).into();
    let mut pending = Vec::new();
    tele::counter("negotiate.client.handshakes").incr();
    let start = std::time::Instant::now();

    let mut backoff = opts.timeout;
    for attempt in 0..=opts.retries {
        if attempt > 0 {
            tele::counter("negotiate.client.retransmits").incr();
        }
        raw.send((addr.clone(), neg_frame.clone())).await?;
        let deadline = tokio::time::Instant::now() + jittered(backoff);
        loop {
            let recvd = tokio::time::timeout_at(deadline, raw.recv()).await;
            let (from, mut buf) = match recvd {
                Err(_elapsed) => break, // per-attempt timeout: retransmit
                Ok(r) => r?,
            };
            match wire::classify(&buf) {
                Kind::Neg { body, .. } => {
                    let msg: NegotiateMsg = bincode::deserialize(body)?;
                    match msg {
                        NegotiateMsg::ServerReply(Ok(picks)) => {
                            let elapsed = start.elapsed();
                            tele::histogram("negotiate.client.handshake_us")
                                .record_duration(elapsed);
                            tele::bind_nonce(&picks.nonce, *ctx);
                            tele::span::record(
                                "negotiate.client",
                                &opts.name,
                                ctx,
                                0,
                                start,
                                tele::span::SpanStatus::Ok,
                                &[("peer", picks.name.clone())],
                            );
                            tele::event!(
                                tele::Level::Info,
                                "negotiate",
                                "client_picked",
                                "name" = opts.name.as_str(),
                                "peer" = picks.name.as_str(),
                                "slots" = picks.picks.len(),
                                "impls" = impl_names(&picks.picks),
                                "attempts" = attempt + 1,
                                "elapsed_us" = elapsed.as_micros() as u64,
                                "trace_id" = ctx.trace_hex(),
                                "span_id" = ctx.span_id,
                                "sampled" = ctx.sampled,
                            );
                            return Ok((picks, pending));
                        }
                        NegotiateMsg::ServerReply(Err(e)) => {
                            tele::counter("negotiate.client.rejections").incr();
                            tele::event!(
                                tele::Level::Warn,
                                "negotiate",
                                "client_rejected",
                                "name" = opts.name.as_str(),
                                "reason" = e.as_str(),
                                "trace_id" = ctx.trace_hex(),
                                "span_id" = ctx.span_id,
                            );
                            return Err(Error::Negotiation(e));
                        }
                        NegotiateMsg::ClientOffer { .. } => {
                            return Err(Error::Negotiation(
                                "peer sent a ClientOffer to a client".into(),
                            ));
                        }
                        NegotiateMsg::Renegotiate { .. }
                        | NegotiateMsg::RenegotiateReply { .. } => {
                            // Mid-connection control traffic from a stale
                            // incarnation of this flow; not part of the
                            // initial handshake. Keep waiting.
                        }
                    }
                }
                Kind::Data { off } => {
                    // Data reordered ahead of the reply; deliver it after
                    // the stack is applied. Stripping the tag is O(1) on
                    // the pooled frame.
                    buf.strip(off);
                    pending.push((from, buf));
                }
                // Epoch-tagged data cannot belong to a connection that has
                // not finished its first handshake, and anything else is a
                // stray datagram from something else on the network.
                // Ignore both rather than failing the handshake.
                Kind::DataEpoch { .. } | Kind::Unknown => {}
            }
        }
        backoff = backoff.saturating_mul(2);
    }
    tele::counter("negotiate.client.timeouts").incr();
    tele::event!(
        tele::Level::Error,
        "negotiate",
        "client_timeout",
        "name" = opts.name.as_str(),
        "attempts" = opts.retries + 1,
        "trace_id" = ctx.trace_hex(),
        "span_id" = ctx.span_id,
    );
    // Handshake exhaustion is a postmortem trigger: capture the recent
    // control-path history with the failing trace id up front. Record the
    // failed span first so the dump carries it.
    tele::span::record(
        "negotiate.client",
        &opts.name,
        ctx,
        0,
        start,
        tele::span::SpanStatus::ClientTimeout,
        &[("attempts", (opts.retries + 1).to_string())],
    );
    let _ = tele::flight::dump("negotiate.client_timeout", Some(ctx.trace_id));
    Err(Error::Timeout {
        after: opts.handshake_budget(),
        what: "negotiation reply",
    })
}

/// A connection carrying negotiated traffic: tags data frames, answers
/// duplicate handshake messages, and replays data that raced the handshake.
pub struct NegotiatedConn<C> {
    inner: C,
    role: Role,
    /// Server: the serialized reply frame, re-sent on duplicate offers.
    cached_reply: Option<Frame>,
    /// Data frames that arrived during the handshake.
    pending: Mutex<VecDeque<Datagram>>,
}

impl<C> NegotiatedConn<C> {
    /// Client-side wrapper. `pending` holds data frames that raced the
    /// handshake reply.
    pub fn client(inner: C, pending: Vec<Datagram>) -> Self {
        NegotiatedConn {
            inner,
            role: Role::Client,
            cached_reply: None,
            pending: Mutex::new(pending.into()),
        }
    }

    /// Server-side wrapper. `reply_frame` is re-sent when the client
    /// retransmits its offer (its copy of our reply was lost).
    pub fn server(inner: C, reply_frame: Frame) -> Self {
        NegotiatedConn {
            inner,
            role: Role::Server,
            cached_reply: Some(reply_frame),
            pending: Mutex::new(VecDeque::new()),
        }
    }

    /// The wrapped raw connection.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C> ChunnelConnection for NegotiatedConn<C>
where
    C: ChunnelConnection<Data = Datagram>,
{
    type Data = Datagram;

    fn send(&self, (addr, mut body): Datagram) -> BoxFut<'_, Result<(), Error>> {
        wire::prepend_data(&mut body, 0);
        self.inner.send((addr, body))
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        Box::pin(async move {
            if let Some(d) = self.pending.lock().pop_front() {
                return Ok(d);
            }
            loop {
                let (from, mut buf) = self.inner.recv().await?;
                match wire::classify(&buf) {
                    Kind::Data { off } => {
                        buf.strip(off);
                        return Ok((from, buf));
                    }
                    Kind::Neg { .. } => {
                        // A server's established connection answers a
                        // duplicate offer by repeating its cached reply (the
                        // client's copy was lost); a client ignores late
                        // duplicates of the server's reply.
                        if let (Role::Server, Some(reply)) = (self.role, &self.cached_reply) {
                            self.inner.send((from, reply.clone())).await?;
                        }
                    }
                    // Epoch-tagged data (this connection never leaves epoch
                    // 0) or a stray datagram (port scan, stale peer).
                    // Dropping it keeps one junk frame from killing an
                    // established connection.
                    Kind::DataEpoch { .. } | Kind::Unknown => {}
                }
            }
        })
    }
}

impl<C> Drain for NegotiatedConn<C> {}

/// Negotiate and apply `stack` on a freshly-connected raw connection
/// (client side). Returns the wrapped connection and the server's picks.
pub async fn negotiate_client<S, InC>(
    stack: S,
    raw: InC,
    addr: Addr,
    opts: &NegotiateOpts,
) -> Result<(S::Applied, ServerPicks), Error>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
    S: GetOffers + Apply<NegotiatedConn<InC>>,
{
    let slots = apply_filter(&opts.filter, Role::Client, stack.offers()).await?;
    let offer = NegotiateMsg::ClientOffer {
        name: opts.name.clone(),
        slots,
        registered: super::dynamic::global_registry().offers(),
    };
    let ctx = tele::TraceContext::new_root();
    let (picks, pending) = client_handshake(&raw, &addr, &offer, opts, &ctx).await?;
    if let Some(f) = &opts.filter {
        f.picked(Role::Client, &picks.picks).await?;
    }
    let conn = NegotiatedConn::client(raw, pending);
    let applied = stack
        .apply(picks.picks.clone(), picks.nonce.clone(), conn)
        .await?;
    Ok((applied, picks))
}

/// The outcome of a successful [`server_handshake`]: everything a server
/// needs to wrap the raw connection, static or re-negotiable.
pub struct Accepted {
    /// The client's address, as the transport reported it.
    pub from: Addr,
    /// The epoch the connection starts at: 0 for a fresh offer, the
    /// proposed epoch when the first message was a `Renegotiate`.
    pub epoch: u64,
    /// What was picked, per slot.
    pub picks: ServerPicks,
    /// The reply as sent, re-sent verbatim when the client retransmits.
    pub reply_frame: Frame,
    /// This connection's trace context, a child of the client's.
    pub ctx: tele::TraceContext,
}

/// One pick round against the peer's offer: re-filter our slots, pick, and
/// run the discovery hooks (resource claims, init) *before* anyone is told
/// the round succeeded — a failed claim must surface as a rejection, not as
/// a silently-dead connection the peer keeps sending into.
pub(crate) async fn pick_round(
    opts: &NegotiateOpts,
    role: Role,
    slots: Vec<Vec<Offer>>,
    peer_msg: &NegotiateMsg,
) -> Result<ServerPicks, Error> {
    let slots = apply_filter(&opts.filter, role, slots).await?;
    let picks = pick_stack(&opts.name, &slots, peer_msg, &*opts.policy)?;
    if let Some(f) = &opts.filter {
        f.picked(role, &picks.picks)
            .await
            .map_err(|e| Error::Negotiation(format!("implementation init failed: {e}")))?;
    }
    Ok(picks)
}

/// The server side of the handshake on one raw connection: receive the
/// first message, pick against `stack`'s offers, reply.
///
/// The first message is normally a `ClientOffer`. With `resume`, it may
/// also be a `Renegotiate`: a client that lost its previous peer process (a
/// crashed steerer whose canonical address was rebound) re-proposes its
/// next epoch on what is, from this side, a brand-new connection, and the
/// connection starts at that epoch. Without `resume` such a proposal is
/// refused in kind (`RenegotiateReply { Err }`), so the client fails fast
/// instead of waiting out its retransmissions for a reply type it ignores.
///
/// A round that ends in a rejection has told the client so before this
/// returns `Err`.
pub async fn server_handshake<C>(
    stack: &impl GetOffers,
    raw: &C,
    opts: &NegotiateOpts,
    resume: bool,
) -> Result<Accepted, Error>
where
    C: ChunnelConnection<Data = Datagram>,
{
    tele::counter("negotiate.server.handshakes").incr();
    let start = std::time::Instant::now();
    let handshake_deadline = opts.handshake_budget();
    let (from, buf) = tokio::time::timeout(handshake_deadline, raw.recv())
        .await
        .map_err(|_| Error::Timeout {
            after: handshake_deadline,
            what: "client offer",
        })??;

    let Kind::Neg {
        ctx: client_ctx,
        body,
    } = wire::classify(&buf)
    else {
        return Err(Error::Negotiation(
            "expected a negotiation handshake as the first message".into(),
        ));
    };
    let client_msg: NegotiateMsg = bincode::deserialize(body)?;
    let (peer, epoch) = match &client_msg {
        NegotiateMsg::ClientOffer { name, .. } => (name.as_str(), None),
        NegotiateMsg::Renegotiate { name, epoch, .. } => (name.as_str(), Some(*epoch)),
        other => {
            return Err(Error::Negotiation(format!(
                "expected an offer as the first message, got {other:?}"
            )))
        }
    };
    // Our spans join the client's trace.
    let ctx = client_ctx.child();
    let parent_span = client_ctx.span_id;

    let outcome = if epoch.is_some() && !resume {
        Err(Error::Negotiation(
            "this server does not resume re-negotiated connections; reconnect with a fresh offer"
                .into(),
        ))
    } else {
        pick_round(opts, Role::Server, stack.offers(), &client_msg).await
    };
    match &outcome {
        Ok(picks) => {
            let elapsed = start.elapsed();
            tele::histogram("negotiate.server.handshake_us").record_duration(elapsed);
            tele::bind_nonce(&picks.nonce, ctx);
            tele::span::record(
                "negotiate.server",
                &opts.name,
                &ctx,
                parent_span,
                start,
                tele::span::SpanStatus::Ok,
                &[("peer", peer.to_owned())],
            );
            tele::event!(
                tele::Level::Info,
                "negotiate",
                "server_picked",
                "name" = opts.name.as_str(),
                "peer" = peer,
                "slots" = picks.picks.len(),
                "impls" = impl_names(&picks.picks),
                "elapsed_us" = elapsed.as_micros() as u64,
                "trace_id" = ctx.trace_hex(),
                "span_id" = ctx.span_id,
                "parent_span_id" = parent_span,
            );
        }
        Err(e) => {
            tele::counter("negotiate.server.rejections").incr();
            tele::event!(
                tele::Level::Warn,
                "negotiate",
                "server_rejected",
                "name" = opts.name.as_str(),
                "peer" = peer,
                "reason" = e.to_string(),
                "trace_id" = ctx.trace_hex(),
                "span_id" = ctx.span_id,
                "parent_span_id" = parent_span,
            );
        }
    }

    // The reply mirrors the message it answers.
    let result = outcome.as_ref().map_err(ToString::to_string).cloned();
    let reply = match epoch {
        None => NegotiateMsg::ServerReply(result),
        Some(epoch) => NegotiateMsg::RenegotiateReply {
            epoch,
            reply: result,
        },
    };
    let reply_frame: Frame = frame_neg(&ctx, &bincode::serialize(&reply)?).into();
    raw.send((from.clone(), reply_frame.clone())).await?;

    Ok(Accepted {
        from,
        epoch: epoch.unwrap_or(0),
        picks: outcome?,
        reply_frame,
        ctx,
    })
}

/// Negotiate and apply `stack` for one incoming raw connection
/// (server side).
pub async fn negotiate_server_once<S, InC>(
    stack: S,
    raw: InC,
    opts: &NegotiateOpts,
) -> Result<S::Applied, Error>
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
    S: GetOffers + Apply<NegotiatedConn<InC>>,
{
    let accepted = server_handshake(&stack, &raw, opts, false).await?;
    let conn = NegotiatedConn::server(raw, accepted.reply_frame);
    stack
        .apply(accepted.picks.picks, accepted.picks.nonce, conn)
        .await
}

/// How a [`NegotiatedStream`] negotiates one accepted raw connection.
type NegotiateFn<Stack, InC, A> =
    fn(Stack, InC, Arc<NegotiateOpts>) -> BoxFut<'static, Result<A, Error>>;

/// A stream of negotiated connections: wraps a raw listener stream, running
/// the server handshake concurrently for each incoming connection so a slow
/// or silent client cannot stall the accept loop.
///
/// [`new`](NegotiatedStream::new) yields static connections,
/// [`switchable`](NegotiatedStream::switchable) re-negotiable ones; the
/// accept loop is the same.
pub struct NegotiatedStream<S: ConnStream, Stack, A> {
    raw: Option<S>,
    stack: Stack,
    opts: Arc<NegotiateOpts>,
    negotiate: NegotiateFn<Stack, S::Connection, A>,
    inflight: tokio::task::JoinSet<Result<A, Error>>,
}

impl<S: ConnStream, Stack> NegotiatedStream<S, Stack, ()> {
    pub(super) fn with<A: Send + 'static>(
        raw: S,
        stack: Stack,
        opts: NegotiateOpts,
        negotiate: NegotiateFn<Stack, S::Connection, A>,
    ) -> NegotiatedStream<S, Stack, A> {
        NegotiatedStream {
            raw: Some(raw),
            stack,
            opts: Arc::new(opts),
            negotiate,
            inflight: tokio::task::JoinSet::new(),
        }
    }

    /// Wrap `raw`, negotiating `stack` for each incoming connection.
    pub fn new<InC>(
        raw: S,
        stack: Stack,
        opts: NegotiateOpts,
    ) -> NegotiatedStream<S, Stack, Stack::Applied>
    where
        S: ConnStream<Connection = InC>,
        InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
        Stack: GetOffers + Apply<NegotiatedConn<InC>> + Clone + Send + Sync + 'static,
        Stack::Applied: Send + 'static,
    {
        Self::with(raw, stack, opts, |stack, conn, opts| {
            Box::pin(async move { negotiate_server_once(stack, conn, &opts).await })
        })
    }
}

impl<S, Stack, A> ConnStream for NegotiatedStream<S, Stack, A>
where
    S: ConnStream,
    Stack: Clone + Send,
    A: ChunnelConnection + Send + 'static,
{
    type Connection = A;

    fn next(&mut self) -> BoxFut<'_, Option<Result<Self::Connection, Error>>> {
        Box::pin(async move {
            loop {
                if self.raw.is_none() && self.inflight.is_empty() {
                    return None;
                }
                tokio::select! {
                    incoming = async {
                        match &mut self.raw {
                            Some(r) => r.next().await,
                            None => None,
                        }
                    }, if self.raw.is_some() => {
                        match incoming {
                            Some(Ok(conn)) => {
                                let negotiating =
                                    (self.negotiate)(self.stack.clone(), conn, Arc::clone(&self.opts));
                                self.inflight.spawn(negotiating);
                            }
                            Some(Err(e)) => return Some(Err(e)),
                            None => {
                                self.raw = None;
                            }
                        }
                    }
                    joined = self.inflight.join_next(), if !self.inflight.is_empty() => {
                        match joined {
                            Some(Ok(result)) => return Some(result),
                            Some(Err(join_err)) => {
                                return Some(Err(Error::Other(format!(
                                    "negotiation task panicked: {join_err}"
                                ))))
                            }
                            None => {}
                        }
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunnel::{Chunnel, RecvStream};
    use crate::conn::{pair, ChanConn};
    use crate::negotiate::{guid, Negotiate};
    use crate::wrap;

    #[derive(Clone, Copy, Debug, Default)]
    struct Rel;

    impl Negotiate for Rel {
        const CAPABILITY: u64 = guid("test/rel");
        const IMPL: u64 = guid("test/rel/basic");
        const NAME: &'static str = "test-rel";
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

    #[tokio::test]
    async fn end_to_end_handshake() {
        let (cli_raw, srv_raw) = pair::<Datagram>(16);
        let addr = Addr::Mem("srv".into());

        let srv = tokio::spawn(async move {
            negotiate_server_once(wrap!(Rel), srv_raw, &NegotiateOpts::named("srv")).await
        });
        let (cli_conn, picks) = negotiate_client(
            wrap!(Rel),
            cli_raw,
            addr.clone(),
            &NegotiateOpts::named("cli"),
        )
        .await
        .unwrap();
        let srv_conn = srv.await.unwrap().unwrap();

        assert_eq!(picks.picks.len(), 1);
        assert_eq!(picks.picks[0].impl_guid, Rel::IMPL);
        assert_eq!(picks.name, "srv");
        // The handshake bound its trace context to the nonce, so data-path
        // chunnels can recover it in their `picked` hooks.
        assert!(tele::nonce_context(&picks.nonce).is_some());

        cli_conn
            .send((addr.clone(), b"ping".into()))
            .await
            .unwrap();
        let (_, msg) = srv_conn.recv().await.unwrap();
        assert_eq!(msg, b"ping");
        srv_conn.send((addr, b"pong".into())).await.unwrap();
        let (_, msg) = cli_conn.recv().await.unwrap();
        assert_eq!(msg, b"pong");
    }

    #[tokio::test]
    async fn incompatible_stacks_fail_both_sides() {
        #[derive(Clone, Copy, Debug, Default)]
        struct Other;
        impl Negotiate for Other {
            const CAPABILITY: u64 = guid("test/other");
            const IMPL: u64 = guid("test/other/basic");
            const NAME: &'static str = "test-other";
        }
        impl<InC> Chunnel<InC> for Other
        where
            InC: ChunnelConnection + Send + 'static,
        {
            type Connection = InC;
            fn connect_wrap(&self, inner: InC) -> BoxFut<'static, Result<InC, Error>> {
                Box::pin(async move { Ok(inner) })
            }
        }
        crate::negotiable!(Other);

        let (cli_raw, srv_raw) = pair::<Datagram>(16);
        let srv = tokio::spawn(async move {
            negotiate_server_once(wrap!(Rel), srv_raw, &NegotiateOpts::named("srv")).await
        });
        let cli = negotiate_client(
            wrap!(Other),
            cli_raw,
            Addr::Mem("srv".into()),
            &NegotiateOpts::named("cli"),
        )
        .await;
        assert!(cli.is_err(), "client should see the rejection");
        assert!(srv.await.unwrap().is_err(), "server should fail too");
    }

    #[tokio::test]
    async fn server_rereplies_to_duplicate_offer() {
        let (cli_raw, srv_raw) = pair::<Datagram>(16);
        let addr = Addr::Mem("srv".into());

        let srv = tokio::spawn(async move {
            let conn =
                negotiate_server_once(wrap!(Rel), srv_raw, &NegotiateOpts::named("srv")).await?;
            // Echo one message so the duplicate-offer path gets exercised
            // while the connection is live.
            let (from, data) = conn.recv().await?;
            conn.send((from, data)).await?;
            Ok::<_, Error>(())
        });

        // Handshake normally.
        let offer = NegotiateMsg::ClientOffer {
            name: "cli".into(),
            slots: wrap!(Rel).offers(),
            registered: vec![],
        };
        let opts = NegotiateOpts::named("cli");
        let ctx = tele::TraceContext::new_root();
        let (picks, _) = client_handshake(&cli_raw, &addr, &offer, &opts, &ctx)
            .await
            .unwrap();
        assert_eq!(picks.picks.len(), 1);

        // Pretend our reply was lost: re-send the offer. The established
        // server connection must recognize it and re-reply rather than
        // treating it as data.
        let body = bincode::serialize(&offer).unwrap();
        cli_raw
            .send((addr.clone(), frame_neg(&ctx, &body).into()))
            .await
            .unwrap();
        let (_, buf) = cli_raw.recv().await.unwrap();
        assert!(
            matches!(wire::classify(&buf), Kind::Neg { .. }),
            "got a re-reply"
        );

        // And data still flows.
        let mut hello: Frame = b"hello".into();
        wire::prepend_data(&mut hello, 0);
        cli_raw.send((addr.clone(), hello.clone())).await.unwrap();
        let (_, buf) = cli_raw.recv().await.unwrap();
        assert_eq!(buf, hello);
        srv.await.unwrap().unwrap();
    }

    #[tokio::test]
    async fn client_times_out_without_server() {
        let (cli_raw, _srv_raw) = pair::<Datagram>(16);
        let opts = NegotiateOpts {
            timeout: Duration::from_millis(10),
            retries: 2,
            ..NegotiateOpts::named("cli")
        };
        let res = negotiate_client(wrap!(Rel), cli_raw, Addr::Mem("srv".into()), &opts).await;
        match res {
            Err(Error::Timeout { .. }) => {}
            Err(other) => panic!("expected timeout, got {other}"),
            Ok(_) => panic!("expected timeout, got a connection"),
        }
    }

    /// The accept loop, whichever handshake it runs per connection: a
    /// client that connects first and stays silent must not hold up the
    /// ones behind it, and is still served once it speaks.
    async fn accepts_many_past_a_silent_client<St>(
        make: impl FnOnce(RecvStream<ChanConn<Datagram>>) -> St,
    ) where
        St: ConnStream,
        St::Connection: ChunnelConnection<Data = Datagram>,
    {
        async fn client(id: u8, raw: ChanConn<Datagram>) {
            let addr = Addr::Mem(format!("srv-{id}"));
            let (conn, _) =
                negotiate_client(wrap!(Rel), raw, addr.clone(), &NegotiateOpts::default())
                    .await
                    .unwrap();
            conn.send((addr, vec![id].into())).await.unwrap();
        }
        async fn accept_id<St>(stream: &mut St) -> u8
        where
            St: ConnStream,
            St::Connection: ChunnelConnection<Data = Datagram>,
        {
            let conn = stream.next().await.expect("stream ended early");
            let (_, data) = conn.expect("handshake failed").recv().await.unwrap();
            data[0]
        }

        let (conn_tx, conn_rx) = tokio::sync::mpsc::channel(8);
        let mut stream = make(RecvStream::new(conn_rx));

        let (silent_raw, srv_raw) = pair::<Datagram>(16);
        conn_tx.send(Ok(srv_raw)).await.unwrap();
        let mut clients = Vec::new();
        for id in 0..3 {
            let (cli_raw, srv_raw) = pair::<Datagram>(16);
            conn_tx.send(Ok(srv_raw)).await.unwrap();
            clients.push(tokio::spawn(client(id, cli_raw)));
        }
        drop(conn_tx);

        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.push(accept_id(&mut stream).await);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);

        // Only now does the first connection say anything.
        clients.push(tokio::spawn(client(3, silent_raw)));
        assert_eq!(accept_id(&mut stream).await, 3);
        assert!(stream.next().await.is_none());
        for c in clients {
            c.await.unwrap();
        }
    }

    #[tokio::test]
    async fn negotiated_stream_accepts_many() {
        accepts_many_past_a_silent_client(|raw| {
            NegotiatedStream::new(raw, wrap!(Rel), NegotiateOpts::named("srv"))
        })
        .await;
    }

    #[tokio::test]
    async fn switchable_stream_accepts_many() {
        accepts_many_past_a_silent_client(|raw| {
            NegotiatedStream::switchable(raw, wrap!(Rel), NegotiateOpts::named("srv"))
        })
        .await;
    }

    #[tokio::test]
    async fn static_server_refuses_a_first_message_renegotiate_in_kind() {
        let (cli_raw, srv_raw) = pair::<Datagram>(16);
        let srv = tokio::spawn(async move {
            negotiate_server_once(wrap!(Rel), srv_raw, &NegotiateOpts::named("srv"))
                .await
                .map(|_| ())
        });

        let proposal = NegotiateMsg::Renegotiate {
            epoch: 3,
            name: "cli".into(),
            slots: wrap!(Rel).offers(),
            registered: vec![],
        };
        let body = bincode::serialize(&proposal).unwrap();
        cli_raw
            .send((
                Addr::Mem("srv".into()),
                frame_neg(&tele::TraceContext::new_root(), &body).into(),
            ))
            .await
            .unwrap();

        // The refusal is the reply type a renegotiating client waits for,
        // so it fails at once instead of retransmitting into a timeout.
        let (_, buf) = cli_raw.recv().await.unwrap();
        let Kind::Neg { body, .. } = wire::classify(&buf) else {
            panic!("expected a negotiation frame");
        };
        match bincode::deserialize::<NegotiateMsg>(body).unwrap() {
            NegotiateMsg::RenegotiateReply {
                epoch: 3,
                reply: Err(why),
            } => assert!(why.contains("does not resume"), "{why}"),
            other => panic!("expected a refused RenegotiateReply, got {other:?}"),
        }
        assert!(srv.await.unwrap().is_err(), "no connection comes of it");
    }
}
