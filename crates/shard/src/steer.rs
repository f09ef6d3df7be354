//! The steering process: the simulated XDP sharding offload.
//!
//! The paper's accelerated sharding implementation is a ~200-line XDP
//! program that rewrites packets *below* the application: requests to the
//! canonical address are redirected to a shard by hashing fixed payload
//! bytes, without deserialization and without terminating any connection.
//! We cannot load kernel XDP here, so this module substitutes a dedicated
//! steering task that owns the canonical socket and does exactly the same
//! per-datagram work (tag check, fixed-offset hash, forward), preserving
//! what Figure 5 measures: steering below the application vs. in it.
//!
//! Mechanics (a user-space NAT, like an XDP `bpf_redirect` plus rewrite):
//!
//! - the steerer binds the canonical address; the application server
//!   listens on an internal address instead;
//! - each client gets a flow socket; datagrams from the client are
//!   forwarded through it — handshake frames to the internal server,
//!   data frames to the shard chosen by the hash;
//! - replies arriving on the flow socket are relayed back to the client
//!   from the canonical address, so the client sees a single peer.
//!
//! What a datagram *is* — handshake, data, junk — is decided by
//! [`wire::classify`], the same function the endpoints use, so the steerer
//! cannot disagree with them about the framing. Epoch-tagged data frames
//! (from clients that re-negotiated mid-connection) steer exactly like
//! plain ones: the hash reads the same fixed payload bytes past the header,
//! and the frame is forwarded verbatim — the steerer stays stateless with
//! respect to the client's stack incarnation.
//!
//! The steerer is also the canonical offload-death case this repo's
//! failure model is built around: [`supervise_steerer`] watches a running
//! steerer, and when it dies withdraws its discovery registration, rebinds
//! the canonical address, and serves a *switchable software-only* server
//! there — so clients whose steered path went dark renegotiate (their
//! `Renegotiate` is the first message the reincarnated server sees) and
//! land on the in-app fallback without tearing down their connections.

use crate::info::ShardInfo;
use crate::server::ShardCanonicalServer;
use crate::{IMPL_STEER, SHARD_CAPABILITY};
use bertha::conn::ChunnelConnection;
use bertha::negotiate::wire::{self, Kind};
use bertha::negotiate::{Endpoints, NegotiateOpts, NegotiatedStream, Scope};
use bertha::ChunnelListener;
use bertha::{Addr, ConnStream, Error};
use bertha_discovery::registry::{Hooks, Registration};
use bertha_discovery::resources::{ResourceKind, ResourceReq};
use bertha_telemetry as tele;
use bertha_transport::udp::UdpListener;
use bertha_transport::{bind_any, AnyConn};
use std::collections::HashMap;
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counters exposed by a running steerer, also mirrored into the global
/// telemetry registry (`shard.*` metrics).
pub struct SteerStats {
    /// Data frames steered to shards.
    pub steered: tele::MirroredCounter,
    /// Handshake frames forwarded to the application server.
    pub handshakes: tele::MirroredCounter,
    /// Frames dropped (no tag, unknown type).
    pub dropped: tele::MirroredCounter,
    /// Replies relayed back to clients.
    pub relayed: tele::MirroredCounter,
    /// Steered frames by destination shard index (this steerer only).
    per_shard: Vec<tele::Counter>,
}

impl SteerStats {
    fn new(shards: usize) -> Self {
        SteerStats {
            steered: tele::MirroredCounter::new("shard.steered"),
            handshakes: tele::MirroredCounter::new("shard.handshakes"),
            dropped: tele::MirroredCounter::new("shard.dropped"),
            relayed: tele::MirroredCounter::new("shard.relayed"),
            per_shard: (0..shards).map(|_| tele::Counter::new()).collect(),
        }
    }

    /// How many data frames were steered to each shard, by index.
    pub fn per_shard(&self) -> Vec<u64> {
        self.per_shard.iter().map(|c| c.get()).collect()
    }
}

/// A running steerer. Aborting (or dropping) the handle stops it.
pub struct SteererHandle {
    main: tokio::task::JoinHandle<()>,
    /// Closed when the steering task exits, however it exits.
    stopped: tokio::sync::watch::Receiver<bool>,
    /// Live counters.
    pub stats: Arc<SteerStats>,
    canonical: Addr,
}

impl SteererHandle {
    /// The canonical address the steerer owns.
    pub fn canonical(&self) -> &Addr {
        &self.canonical
    }

    /// Stop the steerer.
    pub fn stop(&self) {
        self.main.abort();
    }

    /// A detached kill switch for the steering task, usable after the
    /// handle itself has been given to [`supervise_steerer`] (tests and
    /// chaos harnesses use this to simulate the offload crashing).
    pub fn abort_handle(&self) -> tokio::task::AbortHandle {
        self.main.abort_handle()
    }

    /// Resolve once the steering task has exited — crashed, hit a socket
    /// error, or was [`stop`](Self::stop)ped. This is what a supervisor
    /// awaits to begin failover.
    pub async fn stopped(&self) {
        let mut rx = self.stopped.clone();
        // The sender lives inside the steering task; the channel closing is
        // the task exiting (including by abort, which sends nothing).
        while rx.changed().await.is_ok() {}
    }
}

impl Drop for SteererHandle {
    fn drop(&mut self) {
        self.main.abort();
    }
}

struct Flow {
    sock: Arc<AnyConn>,
    relay: tokio::task::JoinHandle<()>,
}

impl Drop for Flow {
    fn drop(&mut self) {
        self.relay.abort();
    }
}

/// Start a steerer owning `canonical`. Handshake frames go to
/// `internal_server`; data frames go to the shard selected by
/// `info.shard_fn` applied to the (tag-stripped) payload.
pub async fn run_steerer(
    canonical: Addr,
    internal_server: Addr,
    info: ShardInfo,
) -> Result<SteererHandle, Error> {
    let canonical_sock = Arc::new(match &canonical {
        Addr::Udp(_) => AnyConn::Udp(bertha_transport::udp::bind_udp(&canonical).await?),
        Addr::Mem(name) => {
            AnyConn::Mem(bertha_transport::mem::MemSocket::bind(Some(name.clone()))?)
        }
        other => {
            return Err(Error::Other(format!(
                "steerer cannot own a {} address",
                other.family()
            )))
        }
    });
    let bound = canonical_sock.local_addr()?;
    let stats = Arc::new(SteerStats::new(info.shards.len()));
    let (stopped_tx, stopped_rx) = tokio::sync::watch::channel(false);

    let main = {
        let stats = Arc::clone(&stats);
        let canonical_sock = Arc::clone(&canonical_sock);
        tokio::spawn(async move {
            // Held for the task's lifetime; dropping it (on return or
            // abort) closes the channel `SteererHandle::stopped` watches.
            let _stopped_tx = stopped_tx;
            let mut flows: HashMap<Addr, Flow> = HashMap::new();
            loop {
                let (from, frame) = match canonical_sock.recv().await {
                    Ok(d) => d,
                    Err(_) => return,
                };

                let dst = match wire::classify(&frame) {
                    Kind::Neg { .. } => {
                        stats.handshakes.incr();
                        internal_server.clone()
                    }
                    Kind::Data { off } | Kind::DataEpoch { off, .. } => {
                        let shard = info.shard_of(&frame[off..]);
                        stats.steered.incr();
                        if let Some(c) = stats.per_shard.get(shard) {
                            c.incr();
                        }
                        info.shards[shard].clone()
                    }
                    Kind::Unknown => {
                        stats.dropped.incr();
                        continue;
                    }
                };

                let flow = match flows.get(&from) {
                    Some(f) => f,
                    None => {
                        let sock = match bind_any(&dst).await {
                            Ok(s) => Arc::new(s),
                            Err(_) => {
                                stats.dropped.incr();
                                continue;
                            }
                        };
                        // Reverse path: replies on the flow socket go back
                        // to this client from the canonical address.
                        let relay = {
                            let sock = Arc::clone(&sock);
                            let canonical_sock = Arc::clone(&canonical_sock);
                            let client = from.clone();
                            let stats = Arc::clone(&stats);
                            tokio::spawn(async move {
                                loop {
                                    let (_, reply) = match sock.recv().await {
                                        Ok(d) => d,
                                        Err(_) => return,
                                    };
                                    stats.relayed.incr();
                                    if canonical_sock.send((client.clone(), reply)).await.is_err() {
                                        return;
                                    }
                                }
                            })
                        };
                        flows.insert(from.clone(), Flow { sock, relay });
                        flows.get(&from).expect("just inserted")
                    }
                };
                let _ = flow.sock.send((dst, frame)).await;
            }
        })
    };

    Ok(SteererHandle {
        main,
        stopped: stopped_rx,
        stats,
        canonical: bound,
    })
}

/// The software-only canonical server a supervisor starts once the steerer
/// is gone. Dropping (or [`stop`](Self::stop)ping) it stops the accept
/// loop and releases the canonical address.
pub struct FallbackServer {
    /// The canonical address this server answers on.
    pub canonical: Addr,
    task: tokio::task::JoinHandle<()>,
}

impl FallbackServer {
    /// Stop accepting connections.
    pub fn stop(&self) {
        self.task.abort();
    }
}

impl Drop for FallbackServer {
    fn drop(&mut self) {
        self.task.abort();
    }
}

/// Accept and hold switchable connections until the stream ends: the
/// connections' background work (responder halves, fallback dispatch
/// pumps) lives exactly as long as the server.
fn hold_all<S>(mut stream: S) -> tokio::task::JoinHandle<()>
where
    S: ConnStream + 'static,
    S::Connection: Send,
{
    tokio::spawn(async move {
        let mut held = Vec::new();
        while let Some(conn) = stream.next().await {
            match conn {
                Ok(c) => held.push(c),
                Err(_) => continue, // a failed negotiation is that client's problem
            }
        }
        drop(held);
    })
}

/// Bind `canonical` and serve a switchable, software-only canonical server
/// there: `shard/steer` is not offered (the steerer this replaces is
/// dead), so negotiation — initial offers and mid-connection
/// `Renegotiate`s alike — lands on client-push or the in-app fallback.
pub async fn serve_fallback(
    canonical: Addr,
    info: ShardInfo,
    opts: NegotiateOpts,
) -> Result<FallbackServer, Error> {
    tele::counter("shard.fallback_activations").incr();
    tele::event!(
        tele::Level::Warn,
        "shard",
        "fallback_activated",
        "canonical" = canonical.to_string(),
        "shards" = info.shards.len(),
    );
    let _ = tele::flight::dump("shard.fallback_activated", None);
    let stack = bertha::wrap!(ShardCanonicalServer::new(info).software_only());
    if matches!(canonical, Addr::Udp(_)) {
        let raw = UdpListener::default().listen(canonical).await?;
        let bound = raw.local_addr();
        Ok(FallbackServer {
            canonical: bound,
            task: hold_all(NegotiatedStream::switchable(raw, stack, opts)),
        })
    } else if matches!(canonical, Addr::Mem(_)) {
        let raw = bertha_transport::MemListener
            .listen(canonical.clone())
            .await?;
        Ok(FallbackServer {
            canonical,
            task: hold_all(NegotiatedStream::switchable(raw, stack, opts)),
        })
    } else {
        Err(Error::Other(format!(
            "fallback server cannot own a {} address",
            canonical.family()
        )))
    }
}

/// Supervise a running steerer: when it dies, run `revoke` (withdraw its
/// discovery registration, so re-filtered offers stop naming it), then
/// rebind the canonical address and serve a switchable software-only
/// server there via [`serve_fallback`]. Returns immediately; the returned
/// task resolves to the failover outcome once the steerer has died.
///
/// Rebinding races the OS releasing the steerer's socket, so it is
/// retried briefly; `revoke` failing (say, the discovery agent died with
/// the steerer) is logged into the error path of the *registry*, not
/// fatal here — the fallback server does not offer `shard/steer`
/// regardless.
pub fn supervise_steerer<F, Fut>(
    handle: SteererHandle,
    info: ShardInfo,
    opts: NegotiateOpts,
    revoke: F,
) -> tokio::task::JoinHandle<Result<FallbackServer, Error>>
where
    F: FnOnce() -> Fut + Send + 'static,
    Fut: Future<Output = Result<(), Error>> + Send,
{
    tokio::spawn(async move {
        handle.stopped().await;
        let canonical = handle.canonical().clone();
        // Ensure the steerer's socket is dropped before we rebind.
        drop(handle);
        let _ = revoke().await;
        let mut delay = Duration::from_millis(10);
        let mut last_err = None;
        for _ in 0..8 {
            match serve_fallback(canonical.clone(), info.clone(), opts.clone()).await {
                Ok(srv) => return Ok(srv),
                Err(e) => {
                    last_err = Some(e);
                    tokio::time::sleep(delay).await;
                    delay = delay.saturating_mul(2);
                }
            }
        }
        Err(last_err.expect("loop ran at least once"))
    })
}

/// The discovery registration for a steerer deployed on this host: the
/// operator registers it so negotiation starts offering `shard/steer`
/// (§4.2); the init hook counts per-connection activations.
pub fn steerer_registration(device: Option<String>) -> (Registration, Hooks, Arc<AtomicU64>) {
    let activations = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&activations);
    let hooks = Hooks::on_init(move |_pick| {
        counter.fetch_add(1, Ordering::Relaxed);
        Box::pin(async { Ok(()) })
    });
    (
        Registration {
            capability: SHARD_CAPABILITY,
            impl_guid: IMPL_STEER,
            name: "shard/steer".into(),
            endpoints: Endpoints::Server,
            scope: Scope::Host,
            priority: 10,
            resources: ResourceReq::of([(ResourceKind::HostCores, 1)]),
            device,
        },
        hooks,
        activations,
    )
}

/// Supervise a steerer's presence in a per-host discovery agent: hold
/// its registration under a lease, renew at `ttl / 3`, and re-register
/// from scratch whenever a renewal fails (the lease lapsed across an
/// agent restart, or the entry was revoked). Together with
/// [`RemoteRegistry`](bertha_discovery::RemoteRegistry)'s session
/// resumption this keeps the `shard/steer` offer alive across agent
/// crashes without the data plane noticing; aborting the returned task
/// stops the supervision (and lets the lease lapse, withdrawing the
/// offer).
pub fn keep_steerer_registered(
    remote: Arc<bertha_discovery::RemoteRegistry>,
    device: Option<String>,
    ttl: Duration,
) -> tokio::task::JoinHandle<()> {
    let (reg, _hooks, _activations) = steerer_registration(device);
    tokio::spawn(async move {
        let period = (ttl / 3).max(Duration::from_millis(1));
        loop {
            // (Re-)establish the lease; errors back off one renewal
            // period so a down agent is not hammered.
            loop {
                match remote.register_leased(reg.clone(), ttl).await {
                    Ok(()) => break,
                    Err(e) => {
                        tele::event!(
                            tele::Level::Warn,
                            "shard",
                            "steerer_register_failed",
                            "error" = e.to_string(),
                        );
                        tokio::time::sleep(period).await;
                    }
                }
            }
            tele::counter("shard.steer.lease_registrations").incr();
            // Renew until a renewal fails, then fall back to the
            // registration loop above.
            loop {
                tokio::time::sleep(period).await;
                if let Err(e) = remote.renew(reg.impl_guid, ttl).await {
                    tele::event!(
                        tele::Level::Warn,
                        "shard",
                        "steerer_renew_failed",
                        "error" = e.to_string(),
                    );
                    break;
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::ShardFnSpec;
    use crate::worker::{frame_data, serve_shard, strip_data};
    use bertha::ChunnelConnector;
    use bertha_transport::udp::{bind_udp, UdpConnector};

    fn payload_with_key(key: u32, body: &[u8]) -> Vec<u8> {
        let mut p = vec![0u8; 14];
        p[10..14].copy_from_slice(&key.to_le_bytes());
        p.extend_from_slice(body);
        p
    }

    #[tokio::test]
    async fn steers_data_and_forwards_handshakes() {
        // Two shards tagging replies with their index.
        let (s0, t0, _) = serve_shard(Addr::Udp("127.0.0.1:0".parse().unwrap()), |p| async move {
            let mut r = p;
            r.push(0);
            Some(r)
        })
        .await
        .unwrap();
        let (s1, t1, _) = serve_shard(Addr::Udp("127.0.0.1:0".parse().unwrap()), |p| async move {
            let mut r = p;
            r.push(1);
            Some(r)
        })
        .await
        .unwrap();

        // An "internal server" that answers handshake frames verbatim.
        let internal = bind_udp(&Addr::Udp("127.0.0.1:0".parse().unwrap()))
            .await
            .unwrap();
        let internal_addr = internal.local_addr().unwrap();
        let internal_task = tokio::spawn(async move {
            loop {
                let (from, frame) = match internal.recv().await {
                    Ok(d) => d,
                    Err(_) => return,
                };
                let _ = internal.send((from, frame)).await;
            }
        });

        let info = ShardInfo {
            canonical: Addr::Udp("127.0.0.1:0".parse().unwrap()),
            shards: vec![s0.clone(), s1.clone()],
            shard_fn: ShardFnSpec::paper_default(),
        };
        let steerer = run_steerer(info.canonical.clone(), internal_addr, info.clone())
            .await
            .unwrap();
        let canonical = steerer.canonical().clone();

        let client = UdpConnector.connect(canonical.clone()).await.unwrap();

        // A handshake frame comes back verbatim (via the internal server).
        let hs = wire::frame_neg(&tele::TraceContext::new_root(), &[0xaa, 0xbb]);
        client
            .send((canonical.clone(), hs.clone().into()))
            .await
            .unwrap();
        let (from, echoed) = client.recv().await.unwrap();
        assert_eq!(echoed, hs);
        assert_eq!(
            from, canonical,
            "the client only ever talks to the canonical address"
        );

        // Data frames are steered by key and come back from the right shard.
        for key in 0..30u32 {
            let req = payload_with_key(key, b"r");
            let expect_shard = info.shard_of(&req) as u8;
            client
                .send((canonical.clone(), frame_data(&req).into()))
                .await
                .unwrap();
            let (_, reply_frame) = client.recv().await.unwrap();
            let reply = strip_data(&reply_frame).unwrap();
            assert_eq!(*reply.last().unwrap(), expect_shard);
        }

        assert_eq!(steerer.stats.handshakes.get(), 1);
        assert_eq!(steerer.stats.steered.get(), 30);
        assert_eq!(steerer.stats.relayed.get(), 31);
        let per_shard = steerer.stats.per_shard();
        assert_eq!(per_shard.len(), 2);
        assert_eq!(per_shard.iter().sum::<u64>(), 30);
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "both shards must receive traffic: {per_shard:?}"
        );

        // Untagged garbage is dropped.
        client.send((canonical.clone(), vec![0x7f].into())).await.unwrap();
        tokio::time::sleep(std::time::Duration::from_millis(20)).await;
        assert_eq!(steerer.stats.dropped.get(), 1);

        t0.abort();
        t1.abort();
        internal_task.abort();
    }

    #[tokio::test]
    async fn client_negotiates_and_echoes_through_the_steerer() {
        use crate::client::ShardDeferChunnel;
        use bertha::negotiate::negotiate_client;
        use bertha_transport::mem::{MemConnector, MemListener, MemSocket};

        // One in-memory shard echoing requests with a marker appended.
        let shard = MemSocket::bind(None).unwrap();
        let shard_addr = shard.local_addr();
        let shard_task = tokio::spawn(async move {
            while let Ok((from, frame)) = shard.recv().await {
                let mut reply = strip_data(&frame).unwrap().to_vec();
                reply.push(b'!');
                let _ = shard.send((from, frame_data(&reply).into())).await;
            }
        });

        // The application server listens on an internal address; only the
        // steerer owns the canonical one.
        let canonical = Addr::Mem("steer-e2e-canonical".into());
        let internal = Addr::Mem("steer-e2e-internal".into());
        let info = ShardInfo {
            canonical: canonical.clone(),
            shards: vec![shard_addr],
            shard_fn: ShardFnSpec::paper_default(),
        };
        let raw = MemListener.listen(internal.clone()).await.unwrap();
        // The operator registered the steerer, so negotiation may offer it.
        let registry = Arc::new(bertha_discovery::Registry::new());
        let (reg, hooks, activations) = steerer_registration(None);
        registry.register(reg, hooks).unwrap();
        let opts = NegotiateOpts::named("srv").with_filter(bertha_discovery::DiscoveryClient::new(
            registry as Arc<dyn bertha_discovery::RegistrySource>,
        ));
        let server = hold_all(NegotiatedStream::switchable(
            raw,
            bertha::wrap!(ShardCanonicalServer::new(info.clone())),
            opts,
        ));
        let steerer = run_steerer(canonical.clone(), internal, info)
            .await
            .unwrap();

        let raw = MemConnector.connect(canonical.clone()).await.unwrap();
        let (conn, picks) = negotiate_client(
            bertha::wrap!(ShardDeferChunnel),
            raw,
            canonical.clone(),
            &NegotiateOpts::named("cli"),
        )
        .await
        .expect("the handshake must cross the steerer");
        assert_eq!(picks.picks[0].impl_guid, IMPL_STEER);
        assert_eq!(steerer.stats.handshakes.get(), 1);
        assert_eq!(activations.load(Ordering::Relaxed), 1);

        let req = payload_with_key(7, b"req");
        conn.send((canonical.clone(), req.clone().into()))
            .await
            .unwrap();
        let (from, reply) = conn.recv().await.unwrap();
        assert_eq!(
            from, canonical,
            "replies come back from the canonical address"
        );
        assert_eq!(reply[..req.len()], req[..]);
        assert_eq!(*reply.last().unwrap(), b'!');
        assert_eq!(steerer.stats.steered.get(), 1);

        server.abort();
        shard_task.abort();
    }

    #[tokio::test]
    async fn supervisor_replaces_dead_steerer_with_software_fallback() {
        use crate::client::ShardDeferChunnel;
        use crate::IMPL_FALLBACK;
        use bertha::negotiate::negotiate_switchable_client;

        let (s0, t0, _) = serve_shard(Addr::Udp("127.0.0.1:0".parse().unwrap()), |p| async move {
            let mut r = p;
            r.push(b'!');
            Some(r)
        })
        .await
        .unwrap();

        // An internal server address for the steered phase; it never sees
        // traffic in this test (we only exercise the failover).
        let internal = bind_udp(&Addr::Udp("127.0.0.1:0".parse().unwrap()))
            .await
            .unwrap();
        let internal_addr = internal.local_addr().unwrap();

        let mut info = ShardInfo {
            canonical: Addr::Udp("127.0.0.1:0".parse().unwrap()),
            shards: vec![s0],
            shard_fn: ShardFnSpec::paper_default(),
        };
        let steerer = run_steerer(info.canonical.clone(), internal_addr, info.clone())
            .await
            .unwrap();
        info.canonical = steerer.canonical().clone();
        let kill = steerer.abort_handle();

        let revoked = Arc::new(AtomicU64::new(0));
        let revoked2 = Arc::clone(&revoked);
        let supervisor = supervise_steerer(
            steerer,
            info.clone(),
            bertha::negotiate::NegotiateOpts::named("supervisor"),
            move || async move {
                revoked2.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
        );

        // The offload "crashes".
        kill.abort();
        let fallback = tokio::time::timeout(std::time::Duration::from_secs(5), supervisor)
            .await
            .expect("failover must not hang")
            .unwrap()
            .unwrap();
        assert_eq!(revoked.load(Ordering::Relaxed), 1, "registration revoked");
        assert_eq!(
            fallback.canonical, info.canonical,
            "the canonical address was rebound"
        );

        // A negotiation on the rebound address lands on the software
        // fallback (steer is withdrawn), and requests round-trip through
        // the in-app dispatcher.
        let raw = UdpConnector
            .connect(fallback.canonical.clone())
            .await
            .unwrap();
        let (conn, picks) = negotiate_switchable_client(
            bertha::wrap!(ShardDeferChunnel),
            raw,
            fallback.canonical.clone(),
            bertha::negotiate::NegotiateOpts::named("cli"),
        )
        .await
        .unwrap();
        assert_eq!(picks.picks.len(), 1);
        assert_eq!(picks.picks[0].impl_guid, IMPL_FALLBACK);

        let req = payload_with_key(3, b"req");
        conn.send((fallback.canonical.clone(), req.clone().into()))
            .await
            .unwrap();
        let (_, reply) = tokio::time::timeout(std::time::Duration::from_secs(5), conn.recv())
            .await
            .expect("fallback dispatch must answer")
            .unwrap();
        assert_eq!(reply[..req.len()], req[..]);
        assert_eq!(*reply.last().unwrap(), b'!');
        t0.abort();
    }

    #[test]
    fn registration_shape() {
        let (reg, _hooks, _count) = steerer_registration(Some("host0".into()));
        assert_eq!(reg.capability, SHARD_CAPABILITY);
        assert_eq!(reg.impl_guid, IMPL_STEER);
        assert_eq!(reg.endpoints, Endpoints::Server);
        assert_eq!(reg.scope, Scope::Host);
        assert!(reg.priority > 0);
    }

    #[tokio::test]
    async fn steerer_supervision_survives_agent_restart() {
        use bertha_discovery::registry::RegistrySource;
        let dir = std::env::temp_dir().join(format!("bertha-steer-sup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut agent =
            bertha_discovery::AgentHarness::new(dir.join("state"), dir.join("agent.sock"));
        agent.start().await.unwrap();

        let remote = Arc::new(bertha_discovery::RemoteRegistry::new(
            agent.socket().to_path_buf(),
        ));
        let ttl = Duration::from_millis(150);
        let sup = keep_steerer_registered(Arc::clone(&remote), None, ttl);

        let registered = |remote: Arc<bertha_discovery::RemoteRegistry>| async move {
            for _ in 0..100 {
                if let Ok(true) = RegistrySource::registered(&*remote, IMPL_STEER).await {
                    return true;
                }
                tokio::time::sleep(Duration::from_millis(20)).await;
            }
            false
        };
        assert!(
            registered(Arc::clone(&remote)).await,
            "steerer never registered"
        );

        // Crash the agent mid-supervision and bring it back on the same
        // state dir: renewals fail during the outage, then supervision
        // (plus the client's session resumption) re-establishes the
        // lease without any new RemoteRegistry or steerer task.
        agent.crash();
        tokio::time::sleep(2 * ttl).await;
        agent.start().await.unwrap();
        assert!(
            registered(Arc::clone(&remote)).await,
            "steerer registration not re-established after agent restart"
        );
        sup.abort();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
