//! Reliability chunnel: exactly-once delivery over a lossy datagram
//! transport (Listings 4–5's `reliable()`).
//!
//! Classic ARQ: every outgoing payload gets a sequence number and is held
//! until acknowledged; a per-connection pacer retransmits on an
//! exponentially backed-off, jittered timeout (doubling from
//! [`ReliabilityConfig::rto`] up to [`ReliabilityConfig::rto_max`]), giving
//! up (and failing the connection) after a retry budget. The receive side
//! acknowledges everything and deduplicates, so the application sees each
//! payload exactly once. Delivery order is arrival order — compose with
//! [`ordering`](crate::ordering) for in-order delivery.
//!
//! A dedicated pump task owns the inner connection's receive side so ACKs
//! are processed even when the application is not in `recv` (one-way
//! flows). It and the retransmit pacer are aborted when the connection is
//! dropped, releasing the inner connection and every unacknowledged frame.

use bertha::buf::Frame;
use bertha::conn::{BoxFut, ChunnelConnection, Datagram, Drain, ProfiledConn};
use bertha::negotiate::{guid, Negotiate};
use bertha::util::AbortOnDrop;
use bertha::{Addr, Chunnel, Error};
use bertha_telemetry as tele;
use parking_lot::Mutex;
use rand::Rng;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::sync::{mpsc, Notify};

use bertha::negotiate::wire::{RELIABLE_ACK as ACK, RELIABLE_DATA as DATA};

/// Configuration for the ARQ.
#[derive(Clone, Copy, Debug)]
pub struct ReliabilityConfig {
    /// Initial retransmission timeout. Each retransmission of a payload
    /// doubles its timeout (capped at [`rto_max`](Self::rto_max)), and the
    /// actual wait is jittered down by up to half so that payloads lost
    /// together do not retransmit in lockstep.
    pub rto: Duration,
    /// Retransmissions before the connection is declared dead.
    pub max_retries: u32,
    /// Cap on the backed-off retransmission timeout.
    pub rto_max: Duration,
    /// Maximum unacknowledged payloads before `send` applies backpressure.
    pub window: usize,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        // Worst-case patience before giving up: 100 + 200 + 400 + 500ms
        // (capped) ≈ 1.2s, equivalent to the previous fixed 100ms × 10
        // schedule's 1.0s total budget, but with fewer wasted transmissions
        // under sustained loss.
        ReliabilityConfig {
            rto: Duration::from_millis(100),
            max_retries: 4,
            rto_max: Duration::from_millis(500),
            window: 64,
        }
    }
}

/// Shrink an interval by a uniformly random factor in `[0.5, 1.0]`, so
/// concurrent losers desynchronize. Never lengthens the interval: the
/// un-jittered doubling schedule is a hard bound on total patience.
fn jittered(d: Duration) -> Duration {
    d.mul_f64(rand::thread_rng().gen_range(0.5..=1.0))
}

/// The reliability chunnel. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct ReliabilityChunnel {
    cfg: ReliabilityConfig,
}

impl ReliabilityChunnel {
    /// ARQ with explicit parameters.
    pub fn new(cfg: ReliabilityConfig) -> Self {
        ReliabilityChunnel { cfg }
    }
}

impl Negotiate for ReliabilityChunnel {
    const CAPABILITY: u64 = guid("bertha/reliable");
    const IMPL: u64 = guid("bertha/reliable/arq");
    const NAME: &'static str = "reliable/arq";
}

bertha::negotiable!(ReliabilityChunnel);

impl<InC> Chunnel<InC> for ReliabilityChunnel
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    type Connection = ProfiledConn<ReliableConn<InC>>;

    fn connect_wrap(&self, inner: InC) -> BoxFut<'static, Result<Self::Connection, Error>> {
        let cfg = self.cfg;
        Box::pin(async move {
            Ok(ProfiledConn::datagram(
                Self::NAME,
                ReliableConn::start(inner, cfg),
            ))
        })
    }
}

/// Per-connection ARQ counters, also mirrored into the global registry
/// (`reliable.*` metrics). `get` reads this connection's value alone.
#[derive(Debug)]
pub struct ReliableStats {
    /// Payloads accepted for (first) transmission.
    pub sent: tele::MirroredCounter,
    /// Retransmissions performed by the pacer.
    pub retransmits: tele::MirroredCounter,
    /// Fresh payloads delivered to the application.
    pub delivered: tele::MirroredCounter,
    /// Duplicate data frames suppressed by receive-side dedup.
    pub duplicates: tele::MirroredCounter,
    /// 1 once the connection declared itself dead (budget exhausted or
    /// transport closed).
    pub dead: tele::MirroredCounter,
}

impl ReliableStats {
    fn new() -> Self {
        ReliableStats {
            sent: tele::MirroredCounter::new("reliable.sent"),
            retransmits: tele::MirroredCounter::new("reliable.retransmits"),
            delivered: tele::MirroredCounter::new("reliable.delivered"),
            duplicates: tele::MirroredCounter::new("reliable.duplicates_dropped"),
            dead: tele::MirroredCounter::new("reliable.dead"),
        }
    }
}

struct Pending {
    addr: Addr,
    /// The complete wire frame (header + payload) in a pooled slab.
    /// Cloning it for retransmission is a refcount bump, not a copy.
    frame: Frame,
    /// When the next retransmission is due.
    next_retx: Instant,
    /// Current (un-jittered) backoff interval; doubles per retransmission.
    rto: Duration,
    retries: u32,
}

struct RelState {
    next_seq: u64,
    unacked: HashMap<u64, Pending>,
    /// Every sequence number below this has been delivered.
    recv_floor: u64,
    /// Delivered sequence numbers at or above the floor.
    recv_seen: BTreeSet<u64>,
    /// Set when the retry budget is exhausted; fails future operations.
    dead: Option<String>,
}

/// Connection produced by [`ReliabilityChunnel`].
///
/// Note: sequence numbers and deduplication are per *connection*, which in
/// this workspace is per peer (listen-side transports demultiplex by source
/// address before chunnels apply). Wrapping one unconnected socket that
/// talks to many peers with a single `ReliableConn` is not supported.
pub struct ReliableConn<C> {
    inner: Arc<C>,
    cfg: ReliabilityConfig,
    state: Arc<Mutex<RelState>>,
    stats: Arc<ReliableStats>,
    acked: Arc<Notify>,
    /// Woken when the retry budget exhausts, so a blocked `recv` fails
    /// instead of waiting forever on a dead connection.
    dead: Arc<Notify>,
    delivery: tokio::sync::Mutex<mpsc::Receiver<Datagram>>,
    /// The pump and the pacer. They share `inner` and `state`, so they must
    /// not outlive the connection: a pump parked in `recv` would otherwise
    /// keep the socket and the retransmit queue alive forever.
    _tasks: [AbortOnDrop; 2],
}

/// The 9-byte `[DATA][seq]` header, prepended into the frame's headroom.
fn data_header(seq: u64) -> [u8; 9] {
    let mut h = [0u8; 9];
    // check: allow(panic): constant indices into a fixed 9-byte array
    h[0] = DATA;
    // check: allow(panic): constant indices into a fixed 9-byte array
    h[1..9].copy_from_slice(&seq.to_le_bytes());
    h
}

fn ack_frame(seq: u64) -> Vec<u8> {
    let mut f = Vec::with_capacity(9);
    f.push(ACK);
    f.extend_from_slice(&seq.to_le_bytes());
    f
}

fn parse(buf: &[u8]) -> Result<(u8, u64, &[u8]), Error> {
    let Some((&tag, rest)) = buf.split_first() else {
        return Err(Error::Encode("reliability frame too short".into()));
    };
    let Some((seq, payload)) = crate::take_u64_le(rest) else {
        return Err(Error::Encode("reliability frame too short".into()));
    };
    Ok((tag, seq, payload))
}

impl<C> ReliableConn<C>
where
    C: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    fn start(inner: C, cfg: ReliabilityConfig) -> Self {
        let inner = Arc::new(inner);
        let state = Arc::new(Mutex::new(RelState {
            next_seq: 0,
            unacked: HashMap::new(),
            recv_floor: 0,
            recv_seen: BTreeSet::new(),
            dead: None,
        }));
        let acked = Arc::new(Notify::new());
        let dead = Arc::new(Notify::new());
        let stats = Arc::new(ReliableStats::new());
        let (delivery_tx, delivery_rx) = mpsc::channel(1024);

        let pump = tokio::spawn(pump(
            Arc::clone(&inner),
            Arc::clone(&state),
            Arc::clone(&stats),
            Arc::clone(&acked),
            Arc::clone(&dead),
            delivery_tx,
        ));
        let pacer = tokio::spawn(retransmit(
            Arc::clone(&inner),
            Arc::clone(&state),
            Arc::clone(&stats),
            Arc::clone(&acked),
            Arc::clone(&dead),
            cfg,
        ));

        ReliableConn {
            inner,
            cfg,
            state,
            stats,
            acked,
            dead,
            delivery: tokio::sync::Mutex::new(delivery_rx),
            _tasks: [AbortOnDrop(pump), AbortOnDrop(pacer)],
        }
    }

    /// This connection's ARQ counters.
    pub fn stats(&self) -> &ReliableStats {
        &self.stats
    }

    /// Number of payloads currently awaiting acknowledgment.
    pub fn in_flight(&self) -> usize {
        self.state.lock().unacked.len()
    }
}

/// Receive pump: acks incoming data, consumes acks, delivers fresh payloads.
async fn pump<C>(
    conn: Arc<C>,
    state: Arc<Mutex<RelState>>,
    stats: Arc<ReliableStats>,
    acked: Arc<Notify>,
    dead: Arc<Notify>,
    delivery: mpsc::Sender<Datagram>,
) where
    C: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    loop {
        let (from, buf) = match conn.recv().await {
            Ok(d) => d,
            Err(e) => {
                if e.is_closed() {
                    // The transport is gone for good: mark the connection
                    // dead so window-blocked senders and blocked receivers
                    // wake with an error instead of waiting on acks that
                    // can never arrive.
                    let newly_dead = {
                        let mut st = state.lock();
                        if st.dead.is_none() {
                            st.dead = Some("transport closed".into());
                            true
                        } else {
                            false
                        }
                    };
                    if newly_dead {
                        stats.dead.incr();
                        tele::event!(
                            tele::Level::Error,
                            "chunnel",
                            "reliable_dead",
                            "why" = "transport closed",
                        );
                    }
                    acked.notify_waiters();
                    dead.notify_waiters();
                    return;
                }
                continue;
            }
        };
        let (tag, seq) = match parse(&buf) {
            Ok((tag, seq, _)) => (tag, seq),
            Err(_) => continue, // garbage from the network: drop
        };
        match tag {
            ACK => {
                let mut st = state.lock();
                st.unacked.remove(&seq);
                drop(st);
                acked.notify_waiters();
            }
            DATA => {
                // Always ack, even duplicates (the first ack may have been
                // lost).
                let _ = conn.send((from.clone(), ack_frame(seq).into())).await;
                let fresh = {
                    let mut st = state.lock();
                    if seq < st.recv_floor || st.recv_seen.contains(&seq) {
                        false
                    } else {
                        st.recv_seen.insert(seq);
                        let mut floor = st.recv_floor;
                        while st.recv_seen.remove(&floor) {
                            floor += 1;
                        }
                        st.recv_floor = floor;
                        true
                    }
                };
                if fresh {
                    stats.delivered.incr();
                    // Hand the application the received frame minus its
                    // header: an O(1) window adjustment, not a copy.
                    let mut payload = buf;
                    payload.strip(9);
                    if delivery.send((from, payload)).await.is_err() {
                        return;
                    }
                } else {
                    stats.duplicates.incr();
                }
            }
            _ => {}
        }
    }
}

/// Retransmit pacer: resends expired payloads, kills the connection when
/// the retry budget runs out.
async fn retransmit<C>(
    conn: Arc<C>,
    state: Arc<Mutex<RelState>>,
    stats: Arc<ReliableStats>,
    acked: Arc<Notify>,
    dead: Arc<Notify>,
    cfg: ReliabilityConfig,
) where
    C: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    let tick = cfg.rto / 4;
    // Backed-off RTO values observed per retransmission, for the RTO
    // distribution metric. Resolved once; recording is lock-free.
    let rto_hist = tele::histogram("reliable.rto_us");
    loop {
        tokio::time::sleep(tick).await;
        let now = Instant::now();
        let mut to_send = Vec::new();
        {
            let mut st = state.lock();
            if st.dead.is_some() {
                return;
            }
            let mut exhausted = false;
            for (seq, p) in st.unacked.iter_mut() {
                if now >= p.next_retx {
                    if p.retries >= cfg.max_retries {
                        exhausted = true;
                        break;
                    }
                    p.retries += 1;
                    p.rto = (p.rto * 2).min(cfg.rto_max);
                    p.next_retx = now + jittered(p.rto);
                    rto_hist.record(p.rto.as_micros().min(u64::MAX as u128) as u64);
                    // check: allow(alloc): refcount bump — retransmit shares the sent slab
                    to_send.push((*seq, p.addr.clone(), p.frame.clone()));
                }
            }
            if exhausted {
                st.dead = Some(format!("gave up after {} retransmissions", cfg.max_retries));
                drop(st);
                stats.dead.incr();
                tele::event!(
                    tele::Level::Error,
                    "chunnel",
                    "reliable_dead",
                    "why" = "retry budget exhausted",
                    "max_retries" = cfg.max_retries,
                );
                // Wake both blocked senders (window waiters) and blocked
                // receivers: neither will ever make progress again.
                acked.notify_waiters();
                dead.notify_waiters();
                return;
            }
        }
        stats.retransmits.add(to_send.len() as u64);
        for (_seq, addr, frame) in to_send {
            let _ = conn.send((addr, frame)).await;
        }
    }
}

impl<C> ChunnelConnection for ReliableConn<C>
where
    C: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    type Data = Datagram;

    fn send(&self, (addr, payload): Datagram) -> BoxFut<'_, Result<(), Error>> {
        Box::pin(async move {
            // Window backpressure.
            loop {
                {
                    let st = self.state.lock();
                    if let Some(why) = &st.dead {
                        return Err(Error::Other(format!("reliable connection dead: {why}")));
                    }
                    if st.unacked.len() < self.cfg.window {
                        break;
                    }
                }
                self.acked.notified().await;
            }
            let (seq, frame) = {
                let mut st = self.state.lock();
                let seq = st.next_seq;
                st.next_seq += 1;
                let mut frame = payload;
                frame.prepend(&data_header(seq));
                st.unacked.insert(
                    seq,
                    Pending {
                        addr: addr.clone(),
                        // check: allow(alloc): refcount bump into the unacked map
                        frame: frame.clone(),
                        next_retx: Instant::now() + jittered(self.cfg.rto),
                        rto: self.cfg.rto,
                        retries: 0,
                    },
                );
                (seq, frame)
            };
            let _ = seq;
            self.stats.sent.incr();
            self.inner.send((addr, frame)).await
        })
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        Box::pin(async move {
            let mut rx = self.delivery.lock().await;
            loop {
                // Register for the death notification *before* checking, so
                // a death that lands between the check and the select below
                // cannot be missed.
                let died = self.dead.notified();
                if let Some(why) = self.state.lock().dead.clone() {
                    return Err(Error::Other(format!("reliable connection dead: {why}")));
                }
                tokio::select! {
                    d = rx.recv() => {
                        return match d {
                            Some(d) => Ok(d),
                            None => {
                                let st = self.state.lock();
                                match &st.dead {
                                    Some(why) => Err(Error::Other(format!(
                                        "reliable connection dead: {why}"
                                    ))),
                                    None => Err(Error::ConnectionClosed),
                                }
                            }
                        };
                    }
                    _ = died => continue,
                }
            }
        })
    }
}

impl<C> Drain for ReliableConn<C>
where
    C: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    /// Resolves once every sent payload has been acknowledged (retransmitting
    /// as needed along the way), so a stack swap cannot strand in-flight
    /// data. Fails if the retry budget exhausts first.
    fn drain(&self) -> BoxFut<'_, Result<(), Error>> {
        Box::pin(async move {
            loop {
                // Register before checking so an ack (or death) landing
                // between the check and the await cannot be missed.
                let notified = self.acked.notified();
                {
                    let st = self.state.lock();
                    if let Some(why) = &st.dead {
                        return Err(Error::Other(format!("reliable connection dead: {why}")));
                    }
                    if st.unacked.is_empty() {
                        return Ok(());
                    }
                }
                notified.await;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertha::conn::pair;
    use bertha_transport::fault::{FaultChunnel, FaultConfig};

    fn addr() -> Addr {
        Addr::Mem("peer".into())
    }

    async fn reliable_pair(
        cfg: ReliabilityConfig,
        fault: FaultConfig,
    ) -> (
        ProfiledConn<ReliableConn<impl ChunnelConnection<Data = Datagram>>>,
        ProfiledConn<ReliableConn<impl ChunnelConnection<Data = Datagram>>>,
    ) {
        let (a, b) = pair::<Datagram>(4096);
        let fa = FaultChunnel::new(fault).connect_wrap(a).await.unwrap();
        let fb = FaultChunnel::new(fault).connect_wrap(b).await.unwrap();
        let ra = ReliabilityChunnel::new(cfg).connect_wrap(fa).await.unwrap();
        let rb = ReliabilityChunnel::new(cfg).connect_wrap(fb).await.unwrap();
        (ra, rb)
    }

    #[tokio::test]
    async fn lossless_round_trip() {
        let (a, b) = reliable_pair(Default::default(), Default::default()).await;
        a.send((addr(), b"one".into())).await.unwrap();
        let (_, d) = b.recv().await.unwrap();
        assert_eq!(d, b"one");
        b.send((addr(), b"two".into())).await.unwrap();
        let (_, d) = a.recv().await.unwrap();
        assert_eq!(d, b"two");
    }

    #[tokio::test]
    async fn delivers_exactly_once_over_lossy_link() {
        let cfg = ReliabilityConfig {
            rto: Duration::from_millis(20),
            max_retries: 50,
            rto_max: Duration::from_millis(100),
            window: 32,
        };
        let fault = FaultConfig {
            drop: 0.3,
            duplicate: 0.2,
            seed: 1234,
            ..Default::default()
        };
        let (a, b) = reliable_pair(cfg, fault).await;

        const N: usize = 100;
        let sender = tokio::spawn(async move {
            for i in 0..N as u32 {
                a.send((addr(), i.to_le_bytes().into())).await.unwrap();
            }
            a // keep alive until the receiver is done
        });

        let mut got = Vec::with_capacity(N);
        for _ in 0..N {
            let (_, d) = tokio::time::timeout(Duration::from_secs(30), b.recv())
                .await
                .expect("should deliver despite loss")
                .unwrap();
            got.push(u32::from_le_bytes(d[..].try_into().unwrap()));
        }
        got.sort_unstable();
        let expect: Vec<u32> = (0..N as u32).collect();
        assert_eq!(got, expect, "exactly once, no dups, no losses");
        let a = sender.await.unwrap();
        // Counters agree with ground truth: every payload accepted once,
        // every delivery counted once, and a 30% lossy link forced the
        // pacer to retransmit at least something.
        assert_eq!(a.stats().sent.get(), N as u64);
        assert_eq!(b.stats().delivered.get(), N as u64);
        assert!(
            a.stats().retransmits.get() > 0,
            "a 30% lossy link must force retransmissions"
        );
        drop(a);
    }

    #[tokio::test]
    async fn gives_up_when_peer_is_gone() {
        let (a, b) = pair::<Datagram>(64);
        drop(b);
        let cfg = ReliabilityConfig {
            rto: Duration::from_millis(10),
            max_retries: 3,
            rto_max: Duration::from_millis(40),
            window: 4,
        };
        let ra = ReliabilityChunnel::new(cfg).connect_wrap(a).await.unwrap();
        // The first send may succeed (buffered); the connection must
        // eventually report itself dead.
        let _ = ra.send((addr(), vec![1].into())).await;
        let res = tokio::time::timeout(Duration::from_secs(5), ra.recv()).await;
        assert!(
            matches!(res, Ok(Err(_))),
            "recv must fail once retries exhaust"
        );
    }

    #[tokio::test]
    async fn window_backpressure_releases_on_ack() {
        let cfg = ReliabilityConfig {
            rto: Duration::from_millis(50),
            max_retries: 20,
            rto_max: Duration::from_millis(200),
            window: 2,
        };
        let (a, b) = reliable_pair(cfg, Default::default()).await;
        for i in 0..10u8 {
            a.send((addr(), vec![i].into())).await.unwrap();
        }
        // All ten arrive despite window = 2.
        for i in 0..10u8 {
            let (_, d) = b.recv().await.unwrap();
            assert_eq!(d, vec![i]);
        }
        assert_eq!(a.in_flight(), 0);
    }

    #[tokio::test]
    async fn drain_waits_for_acks_then_resolves() {
        let cfg = ReliabilityConfig {
            rto: Duration::from_millis(20),
            max_retries: 50,
            rto_max: Duration::from_millis(100),
            window: 32,
        };
        let fault = FaultConfig {
            drop: 0.3,
            seed: 77,
            ..Default::default()
        };
        let (a, b) = reliable_pair(cfg, fault).await;
        for i in 0..20u8 {
            a.send((addr(), vec![i].into())).await.unwrap();
        }
        // The peer's pump acks in the background; drain must outlast the
        // losses and resolve only once nothing is in flight.
        tokio::time::timeout(Duration::from_secs(30), a.drain())
            .await
            .expect("drain should resolve")
            .unwrap();
        assert_eq!(a.in_flight(), 0);
        for i in 0..20u8 {
            let (_, d) = b.recv().await.unwrap();
            assert_eq!(d, vec![i]);
        }
    }

    #[tokio::test]
    async fn closed_transport_wakes_blocked_recv() {
        let (a, b) = pair::<Datagram>(64);
        let ra = ReliabilityChunnel::default().connect_wrap(a).await.unwrap();
        let blocked = tokio::spawn(async move { ra.recv().await });
        tokio::time::sleep(Duration::from_millis(20)).await;
        drop(b); // transport dies under a blocked recv
        let res = tokio::time::timeout(Duration::from_secs(5), blocked)
            .await
            .expect("blocked recv must wake when the transport closes")
            .unwrap();
        assert!(res.is_err(), "recv on a closed transport must error");
    }

    #[tokio::test]
    async fn garbage_frames_are_ignored() {
        let (a, b) = pair::<Datagram>(64);
        let ra = ReliabilityChunnel::default().connect_wrap(a).await.unwrap();
        b.send((addr(), vec![1, 2].into())).await.unwrap(); // too short
        b.send((addr(), vec![0x7f; 16].into())).await.unwrap(); // unknown tag
        ra.send((addr(), b"ok".into())).await.unwrap();
        let (_, d) = b.recv().await.unwrap();
        let (tag, seq, payload) = parse(&d).unwrap();
        assert_eq!((tag, seq, payload), (DATA, 0, b"ok".as_slice()));
    }
}
