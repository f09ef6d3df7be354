//! Heartbeat chunnel: peer liveness over connectionless transports.
//!
//! Datagram transports have no connection state, so a silent peer is
//! indistinguishable from an idle one. This chunnel sends a small
//! keepalive frame whenever the connection has been send-idle for an
//! interval, and treats a peer silent for `dead_after` as gone, failing
//! `recv` instead of blocking forever. Keepalive generation is a classic
//! NIC offload (TCP keepalive offload exists in the wild), making this a
//! negotiable capability with the usual software fallback.
//!
//! Wire format: `[0x10][payload]` for data, `[0x11]` for a heartbeat.

use bertha::conn::{BoxFut, ChunnelConnection, Datagram, Drain, ProfiledConn};
use bertha::negotiate::{guid, Negotiate};
use bertha::util::AbortOnDrop;
use bertha::{Addr, Chunnel, Error};
use bertha_telemetry as tele;
use parking_lot::Mutex;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bertha::negotiate::wire::{HEARTBEAT_BEAT as BEAT, HEARTBEAT_DATA as DATA};

/// Heartbeat parameters.
#[derive(Clone, Debug)]
pub struct HeartbeatConfig {
    /// Send a heartbeat after this much send-idle time.
    pub interval: Duration,
    /// Declare the peer dead after this much receive silence.
    pub dead_after: Duration,
    /// Who to keep alive (heartbeats need a destination even when the
    /// application is not sending).
    pub peer: Addr,
}

/// The heartbeat chunnel. See the module docs.
#[derive(Clone, Debug)]
pub struct HeartbeatChunnel {
    cfg: HeartbeatConfig,
}

impl HeartbeatChunnel {
    /// Keep a connection to `peer` alive, beating every `interval` and
    /// declaring death after `dead_after` of silence.
    pub fn new(peer: Addr, interval: Duration, dead_after: Duration) -> Self {
        HeartbeatChunnel {
            cfg: HeartbeatConfig {
                interval,
                dead_after,
                peer,
            },
        }
    }
}

impl Negotiate for HeartbeatChunnel {
    const CAPABILITY: u64 = guid("bertha/heartbeat");
    const IMPL: u64 = guid("bertha/heartbeat/sw");
    const NAME: &'static str = "heartbeat/sw";
}

bertha::negotiable!(HeartbeatChunnel);

struct Liveness {
    last_sent: Instant,
    last_heard: Instant,
}

/// Per-connection heartbeat counters, also mirrored into the global
/// registry (`heartbeat.*` metrics).
#[derive(Debug)]
pub struct HeartbeatStats {
    /// Keepalive frames sent by the background beater.
    pub beats_sent: tele::MirroredCounter,
    /// Keepalive frames received (and consumed) from the peer.
    pub beats_heard: tele::MirroredCounter,
    /// Times `recv` declared the peer dead after `dead_after` of silence.
    pub liveness_timeouts: tele::MirroredCounter,
}

impl HeartbeatStats {
    fn new() -> Self {
        HeartbeatStats {
            beats_sent: tele::MirroredCounter::new("heartbeat.beats_sent"),
            beats_heard: tele::MirroredCounter::new("heartbeat.beats_heard"),
            liveness_timeouts: tele::MirroredCounter::new("heartbeat.liveness_timeouts"),
        }
    }
}

/// Connection produced by [`HeartbeatChunnel`].
pub struct HeartbeatConn<C> {
    inner: Arc<C>,
    cfg: HeartbeatConfig,
    state: Arc<Mutex<Liveness>>,
    stats: Arc<HeartbeatStats>,
    _beater: AbortOnDrop,
}

impl<InC> Chunnel<InC> for HeartbeatChunnel
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    type Connection = ProfiledConn<HeartbeatConn<InC>>;

    fn connect_wrap(&self, inner: InC) -> BoxFut<'static, Result<Self::Connection, Error>> {
        let cfg = self.cfg.clone();
        Box::pin(async move {
            if cfg.interval.is_zero() || cfg.dead_after <= cfg.interval {
                return Err(Error::Other(format!(
                    "heartbeat config must satisfy 0 < interval < dead_after \
                     (got {:?} / {:?})",
                    cfg.interval, cfg.dead_after
                )));
            }
            let inner = Arc::new(inner);
            let state = Arc::new(Mutex::new(Liveness {
                last_sent: Instant::now(),
                last_heard: Instant::now(),
            }));
            let stats = Arc::new(HeartbeatStats::new());
            let beater = tokio::spawn(beat(
                Arc::downgrade(&inner),
                Arc::clone(&state),
                Arc::clone(&stats),
                cfg.clone(),
            ));
            let conn = HeartbeatConn {
                inner,
                cfg,
                state,
                stats,
                _beater: AbortOnDrop(beater),
            };
            Ok(ProfiledConn::datagram(Self::NAME, conn))
        })
    }
}

async fn beat<C>(
    inner: Weak<C>,
    state: Arc<Mutex<Liveness>>,
    stats: Arc<HeartbeatStats>,
    cfg: HeartbeatConfig,
) where
    C: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    loop {
        tokio::time::sleep(cfg.interval / 2).await;
        let Some(conn) = inner.upgrade() else {
            return;
        };
        let due = {
            let st = state.lock();
            st.last_sent.elapsed() >= cfg.interval
        };
        if due {
            if conn.send((cfg.peer.clone(), [BEAT].into())).await.is_err() {
                return;
            }
            stats.beats_sent.incr();
            state.lock().last_sent = Instant::now();
        }
    }
}

impl<C> HeartbeatConn<C> {
    /// This connection's heartbeat counters.
    pub fn stats(&self) -> &HeartbeatStats {
        &self.stats
    }

    /// Time since the peer was last heard from (data or heartbeat).
    pub fn silence(&self) -> Duration {
        self.state.lock().last_heard.elapsed()
    }

    /// Whether the peer is currently considered alive.
    pub fn is_alive(&self) -> bool {
        self.silence() < self.cfg.dead_after
    }

    fn peer_dead(&self) -> Error {
        self.stats.liveness_timeouts.incr();
        let silent_for = self.silence();
        let now_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let last_seen_unix_ms =
            now_unix_ms.saturating_sub(silent_for.as_millis().min(u64::MAX as u128) as u64);
        tele::event!(
            tele::Level::Warn,
            "chunnel",
            "peer_dead",
            "dead_after_ms" = self.cfg.dead_after.as_millis().min(u64::MAX as u128) as u64,
            "silent_for_ms" = silent_for.as_millis().min(u64::MAX as u128) as u64,
        );
        let _ = tele::flight::dump("chunnel.peer_dead", None);
        // Typed so supervision can tell a dead peer (renegotiate / fail
        // over) from a timed-out control-plane request (retry / resume).
        Error::PeerDead {
            silent_for,
            last_seen_unix_ms,
        }
    }
}

impl<C> ChunnelConnection for HeartbeatConn<C>
where
    C: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    type Data = Datagram;

    fn send(&self, (addr, payload): Datagram) -> BoxFut<'_, Result<(), Error>> {
        Box::pin(async move {
            // Tag byte lands in the frame's reserved headroom.
            let mut framed = payload;
            framed.prepend(&[DATA]);
            self.inner.send((addr, framed)).await?;
            self.state.lock().last_sent = Instant::now();
            Ok(())
        })
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        Box::pin(async move {
            loop {
                let remaining = match self.cfg.dead_after.checked_sub(self.silence()) {
                    Some(r) => r,
                    None => return Err(self.peer_dead()),
                };
                let (from, buf) = match tokio::time::timeout(remaining, self.inner.recv()).await {
                    Err(_silent_too_long) => return Err(self.peer_dead()),
                    Ok(r) => r?,
                };
                self.state.lock().last_heard = Instant::now();
                let mut buf = buf;
                match buf.first().copied() {
                    Some(DATA) => {
                        // O(1) window adjustment, not a copy.
                        buf.strip(1);
                        return Ok((from, buf));
                    }
                    Some(BEAT) => {
                        self.stats.beats_heard.incr();
                        continue; // liveness only
                    }
                    _ => return Err(Error::Encode("bad heartbeat framing".into())),
                }
            }
        })
    }
}

/// Heartbeats are fire-and-forget: nothing is buffered, so there is
/// nothing to flush before a stack swap.
impl<C> Drain for HeartbeatConn<C> where
    C: ChunnelConnection<Data = Datagram> + Send + Sync + 'static
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertha::conn::pair;

    fn cfg_pair(interval_ms: u64, dead_ms: u64) -> (HeartbeatChunnel, HeartbeatChunnel, Addr) {
        let peer = Addr::Mem("hb-peer".into());
        let c = HeartbeatChunnel::new(
            peer.clone(),
            Duration::from_millis(interval_ms),
            Duration::from_millis(dead_ms),
        );
        (c.clone(), c, peer)
    }

    #[tokio::test]
    async fn data_round_trip() {
        let (ca, cb, peer) = cfg_pair(50, 500);
        let (a, b) = pair::<Datagram>(64);
        let ha = ca.connect_wrap(a).await.unwrap();
        let hb = cb.connect_wrap(b).await.unwrap();
        ha.send((peer, b"beat this".into())).await.unwrap();
        let (_, d) = hb.recv().await.unwrap();
        assert_eq!(d, b"beat this");
    }

    #[tokio::test]
    async fn idle_peers_stay_alive_via_heartbeats() {
        let (ca, cb, _) = cfg_pair(20, 200);
        let (a, b) = pair::<Datagram>(64);
        let ha = Arc::new(ca.connect_wrap(a).await.unwrap());
        let hb = Arc::new(cb.connect_wrap(b).await.unwrap());
        // Nobody sends data; liveness is observed by whoever is in recv,
        // so pump both sides in the background (heartbeats are consumed
        // there and never surface as data).
        let pump_a = {
            let ha = Arc::clone(&ha);
            tokio::spawn(async move { ha.recv().await })
        };
        let pump_b = {
            let hb = Arc::clone(&hb);
            tokio::spawn(async move { hb.recv().await })
        };
        tokio::time::sleep(Duration::from_millis(400)).await;
        // Counter-based: `is_alive()` needs a beat within the last 200 ms,
        // which a starved CI machine can miss; at least one beat sent and
        // heard per side over the whole window is the robust claim.
        assert!(
            ha.stats().beats_sent.get() >= 1,
            "beater never ran on side a"
        );
        assert!(
            hb.stats().beats_sent.get() >= 1,
            "beater never ran on side b"
        );
        assert!(
            ha.stats().beats_heard.get() >= 1,
            "side a never heard a keepalive"
        );
        assert!(
            hb.stats().beats_heard.get() >= 1,
            "side b never heard a keepalive"
        );
        pump_a.abort();
        pump_b.abort();
    }

    #[tokio::test]
    async fn dead_peer_detected() {
        let (ca, _cb, _) = cfg_pair(20, 120);
        let (a, b) = pair::<Datagram>(64);
        let ha = ca.connect_wrap(a).await.unwrap();
        drop(b); // peer gone: no heartbeats will arrive
        match ha.recv().await {
            Err(Error::PeerDead {
                silent_for,
                last_seen_unix_ms,
            }) => {
                assert!(
                    silent_for >= Duration::from_millis(120),
                    "silence {silent_for:?} below dead_after"
                );
                assert!(last_seen_unix_ms > 0, "last-seen timestamp populated");
                // The timeout counter, not a wall-clock upper bound, is
                // what proves detection happened via the liveness path.
                assert_eq!(ha.stats().liveness_timeouts.get(), 1);
            }
            Err(Error::ConnectionClosed) => {} // channel pair reports closure first
            other => panic!("expected liveness failure, got {other:?}"),
        }
    }

    #[tokio::test]
    async fn silence_tracks_incoming_only() {
        let (ca, cb, peer) = cfg_pair(1000, 5000); // no beats during the test
        let (a, b) = pair::<Datagram>(64);
        let ha = ca.connect_wrap(a).await.unwrap();
        let hb = cb.connect_wrap(b).await.unwrap();
        tokio::time::sleep(Duration::from_millis(50)).await;
        assert!(ha.silence() >= Duration::from_millis(40));
        hb.send((peer, vec![1].into())).await.unwrap();
        ha.recv().await.unwrap();
        assert!(ha.silence() < Duration::from_millis(40));
    }

    #[tokio::test]
    async fn invalid_config_rejected() {
        let peer = Addr::Mem("x".into());
        let (a, _b) = pair::<Datagram>(1);
        let bad = HeartbeatChunnel::new(peer.clone(), Duration::ZERO, Duration::from_secs(1));
        assert!(bad.connect_wrap(a).await.is_err());
        let (a, _b) = pair::<Datagram>(1);
        let bad = HeartbeatChunnel::new(peer, Duration::from_secs(2), Duration::from_secs(1));
        assert!(bad.connect_wrap(a).await.is_err());
    }
}
