//! Chaos tests for runtime re-negotiation: an offload dies *mid-traffic*
//! and the connection must transparently land on the software fallback.
//!
//! Two failure modes from the issue's acceptance criteria:
//!
//! 1. [`lease_expiry_mid_traffic_renegotiates_onto_software`]: the claimed
//!    accelerated implementation's lease lapses (its registrant stopped
//!    renewing — the process died). Traffic runs over a faulty network
//!    (drops, duplicates — in both the send and receive paths) with
//!    `ReliabilityChunnel` stacked on top; across the switchover, zero
//!    requests may be lost or duplicated.
//! 2. [`steerer_death_fails_over_to_software_fallback`]: the simulated-XDP
//!    shard steerer process is killed mid-traffic. The supervisor revokes
//!    its registration and rebinds the canonical address with a
//!    software-only server; the established client connection re-negotiates
//!    onto `shard/fallback` and every request is eventually answered.

use bertha::conn::{pair, BoxFut, ChunnelConnection, Datagram};
use bertha::negotiate::{
    guid, negotiate_server_switchable, negotiate_switchable_client, Endpoints, Negotiate,
    NegotiateOpts, NegotiatedStream, Scope,
};
use bertha::{wrap, Addr, Chunnel, ChunnelConnector, ChunnelListener, ConnStream, Error, Select};
use bertha_chunnels::reliable::{ReliabilityChunnel, ReliabilityConfig};
use bertha_discovery::registry::{Hooks, Registration};
use bertha_discovery::resources::ResourceReq;
use bertha_discovery::{DiscoveryClient, Registry, RegistrySource};
use bertha_shard::{
    run_steerer, serve_shard, steerer_registration, supervise_steerer, ShardCanonicalServer,
    ShardDeferChunnel, ShardFnSpec, ShardInfo, IMPL_FALLBACK, IMPL_STEER,
};
use bertha_transport::fault::{FaultChunnel, FaultConfig};
use bertha_transport::udp::{UdpConnector, UdpListener};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const RELAY_CAPABILITY: u64 = guid("chaos/relay");
const RELAY_ACCEL: u64 = guid("chaos/relay/accel");
const RELAY_SOFT: u64 = guid("chaos/relay/soft");

/// A stand-in accelerated implementation: host-scoped, so discovery gates
/// it on a (leased) registration. Data-path-wise it is a passthrough — the
/// *test* is about which one negotiation picks, not what they do.
#[derive(Clone, Copy, Debug, Default)]
struct AccelRelay;

impl Negotiate for AccelRelay {
    const CAPABILITY: u64 = RELAY_CAPABILITY;
    const IMPL: u64 = RELAY_ACCEL;
    const NAME: &'static str = "chaos/relay/accel";
    const ENDPOINTS: Endpoints = Endpoints::Both;
    const SCOPE: Scope = Scope::Host;
    fn priority(&self) -> i32 {
        10
    }
}

impl<InC> Chunnel<InC> for AccelRelay
where
    InC: ChunnelConnection + Send + 'static,
{
    type Connection = InC;

    fn connect_wrap(&self, inner: InC) -> BoxFut<'static, Result<InC, Error>> {
        Box::pin(async move { Ok(inner) })
    }
}

bertha::negotiable!(AccelRelay);

/// The always-available software fallback for the same capability.
#[derive(Clone, Copy, Debug, Default)]
struct SoftRelay;

impl Negotiate for SoftRelay {
    const CAPABILITY: u64 = RELAY_CAPABILITY;
    const IMPL: u64 = RELAY_SOFT;
    const NAME: &'static str = "chaos/relay/soft";
    const ENDPOINTS: Endpoints = Endpoints::Both;
    const SCOPE: Scope = Scope::Application;
}

impl<InC> Chunnel<InC> for SoftRelay
where
    InC: ChunnelConnection + Send + 'static,
{
    type Connection = InC;

    fn connect_wrap(&self, inner: InC) -> BoxFut<'static, Result<InC, Error>> {
        Box::pin(async move { Ok(inner) })
    }
}

bertha::negotiable!(SoftRelay);

fn accel_registration() -> Registration {
    Registration {
        capability: RELAY_CAPABILITY,
        impl_guid: RELAY_ACCEL,
        name: "chaos/relay/accel".into(),
        endpoints: Endpoints::Both,
        scope: Scope::Host,
        priority: 20,
        resources: ResourceReq::none(),
        device: None,
    }
}

/// Send ids one at a time and require the matching echo for each: with
/// `ReliabilityChunnel` in the stack, a lost or duplicated request shows up
/// as a missing or doubled entry in the server's log.
async fn lockstep<C>(conn: &C, addr: &Addr, ids: std::ops::Range<u64>)
where
    C: ChunnelConnection<Data = Datagram>,
{
    for i in ids {
        let payload = i.to_le_bytes().to_vec();
        conn.send((addr.clone(), payload.clone().into()))
            .await
            .expect("send");
        let (_, echo) = tokio::time::timeout(Duration::from_secs(10), conn.recv())
            .await
            .unwrap_or_else(|_| panic!("no echo for request {i} within 10s"))
            .expect("recv");
        assert_eq!(echo, payload, "echo for request {i}");
    }
}

#[tokio::test]
async fn lease_expiry_mid_traffic_renegotiates_onto_software() {
    const TTL: Duration = Duration::from_millis(150);

    // A host registry with a leased "accelerated" implementation, renewed
    // by a registrant task, expired by an agent-style sweeper.
    let registry = Arc::new(Registry::new());
    registry
        .register_leased(accel_registration(), Hooks::none(), TTL)
        .unwrap();
    let renew_registry = Arc::clone(&registry);
    let renewal = tokio::spawn(async move {
        loop {
            tokio::time::sleep(Duration::from_millis(40)).await;
            if renew_registry.renew_lease(RELAY_ACCEL, TTL).is_err() {
                return;
            }
        }
    });
    let sweep_registry = Arc::clone(&registry);
    tokio::spawn(async move {
        loop {
            tokio::time::sleep(Duration::from_millis(25)).await;
            sweep_registry.expire_stale();
        }
    });

    // A faulty network: drops, duplicates, and reordering on the wire plus
    // drops and duplicates in each endpoint's *receive* path.
    let faults = FaultConfig {
        drop: 0.12,
        duplicate: 0.05,
        reorder: 0.05,
        recv_drop: 0.08,
        recv_duplicate: 0.05,
        ..Default::default()
    };
    let (cli_raw, srv_raw) = pair::<Datagram>(1024);
    let cli_fault = FaultChunnel::new(FaultConfig { seed: 11, ..faults })
        .connect_wrap(cli_raw)
        .await
        .unwrap();
    let srv_fault = FaultChunnel::new(FaultConfig { seed: 22, ..faults })
        .connect_wrap(srv_raw)
        .await
        .unwrap();

    // Reliability above the negotiated relay slot: exactly-once delivery
    // must hold across both the faults and the switchover.
    let rcfg = ReliabilityConfig {
        rto: Duration::from_millis(30),
        max_retries: 15,
        rto_max: Duration::from_millis(120),
        window: 32,
    };
    let stack = wrap!(ReliabilityChunnel::new(rcfg) |> Select::new(AccelRelay, SoftRelay));

    let server_dc = DiscoveryClient::new(Arc::clone(&registry) as Arc<dyn RegistrySource>);
    let client_dc = DiscoveryClient::new(Arc::clone(&registry) as Arc<dyn RegistrySource>);
    let srv_opts = NegotiateOpts::named("chaos-srv").with_filter(server_dc.clone());
    let cli_opts = NegotiateOpts::named("chaos-cli").with_filter(client_dc.clone());

    let addr = Addr::Mem("chaos".into());
    let srv_stack = stack.clone();
    let srv_task =
        tokio::spawn(
            async move { negotiate_server_switchable(srv_stack, srv_fault, srv_opts).await },
        );
    let (cli, picks) =
        negotiate_switchable_client(stack, cli_fault, addr.clone(), cli_opts.clone())
            .await
            .unwrap();
    let srv = srv_task.await.unwrap().unwrap();

    let relay_pick = |picks: &[bertha::negotiate::Offer]| {
        picks
            .iter()
            .find(|p| p.capability == RELAY_CAPABILITY)
            .expect("a relay pick")
            .impl_guid
    };
    assert_eq!(
        relay_pick(&picks.picks),
        RELAY_ACCEL,
        "with a live lease, negotiation prefers the accelerated impl"
    );

    // Echo server, recording every delivered request id.
    let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
    let seen_srv = Arc::clone(&seen);
    let srv_conn = srv.clone();
    tokio::spawn(async move {
        loop {
            let (from, payload) = match srv_conn.recv().await {
                Ok(d) => d,
                Err(_) => return,
            };
            if payload.len() == 8 {
                let id = u64::from_le_bytes(payload[..8].try_into().unwrap());
                seen_srv.lock().unwrap().push(id);
            }
            let _ = srv_conn.send((from, payload)).await;
        }
    });

    // Phase 1: traffic over the accelerated pick.
    lockstep(&cli, &addr, 0..30).await;

    // Kill the registrant. The lease lapses, the sweeper withdraws the
    // registration, the client's revocation watcher notices, and the
    // connection re-negotiates — while phase-2 traffic keeps flowing.
    renewal.abort();
    let t0 = Instant::now();
    let mut revs = client_dc.revocations(Duration::from_millis(20));
    let reneg_cli = cli.clone();
    let reneg_dc = Arc::clone(&client_dc);
    let current_picks = picks.picks.clone();
    let supervise = async move {
        loop {
            tokio::time::timeout(Duration::from_secs(10), revs.changed())
                .await
                .expect("revocation watcher should observe the lease expiring")
                .expect("watcher outlives the test");
            if let Ok(false) = reneg_dc.picks_still_valid(&current_picks).await {
                break;
            }
        }
        let p = reneg_cli
            .renegotiate()
            .await
            .expect("renegotiation should land on the software fallback");
        (p, t0.elapsed())
    };
    let ((new_picks, switchover), ()) = tokio::join!(supervise, lockstep(&cli, &addr, 30..60));

    assert_eq!(
        relay_pick(&new_picks.picks),
        RELAY_SOFT,
        "the expired impl is withdrawn; the pick falls back to software"
    );
    let budget = TTL + cli_opts.handshake_budget() + Duration::from_secs(1);
    assert!(
        switchover < budget,
        "switchover took {switchover:?}; budget is lease TTL + one round = {budget:?}"
    );

    // Phase 3: traffic on the fallback, same connection objects.
    lockstep(&cli, &addr, 60..90).await;
    assert_eq!(cli.epoch(), 1);
    assert_eq!(srv.epoch(), 1);

    // Telemetry agrees with the ground truth: each side swapped its stack
    // exactly once, the client pushed at least the 90 lockstep requests
    // through the switchable data path (more, counting retransmits and
    // ACKs), and the server saw each of them at least once. Stale-epoch
    // frames may have been *dropped* (that is the mechanism that prevents
    // cross-epoch double delivery) but the exactly-once check below proves
    // none of them were double-delivered.
    assert_eq!(cli.telemetry().epoch_swaps.get(), 1);
    assert_eq!(srv.telemetry().epoch_swaps.get(), 1);
    assert!(cli.telemetry().frames_sent.get() >= 90);
    assert!(srv.telemetry().frames_recv.get() >= 90);
    assert!(
        bertha_telemetry::counter("reliable.retransmits").get() > 0,
        "a 12% lossy link must force retransmissions"
    );

    // The live introspection surface shows the post-swap reality: the
    // software relay bound at epoch 1, the dead accelerated impl gone.
    let report = cli.introspect().expect("a negotiated stack to introspect");
    assert_eq!(report.epoch, 1);
    assert!(
        report.binds("chaos/relay/soft"),
        "introspected stack must show the software relay:\n{}",
        report.render()
    );
    assert!(!report.binds("chaos/relay/accel"));

    // Exactly-once across faults *and* the switchover: every request id
    // delivered to the server exactly one time.
    let mut ids = seen.lock().unwrap().clone();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..90).collect::<Vec<u64>>(),
        "zero requests lost or duplicated"
    );
    println!("lease-expiry switchover: {switchover:?}");
}

/// Retry an application request until its echo (`payload + '!'`) arrives.
/// The raw UDP path has no reliability layer, so requests sent into the
/// dead window simply vanish; the application-level retry is what "no
/// request goes unanswered" means for this deployment.
async fn request_until_echoed<C>(conn: &C, addr: &Addr, payload: Vec<u8>, overall: Duration)
where
    C: ChunnelConnection<Data = Datagram>,
{
    let mut expected = payload.clone();
    expected.push(b'!');
    let deadline = Instant::now() + overall;
    while Instant::now() < deadline {
        let _ = conn.send((addr.clone(), payload.clone().into())).await;
        if let Ok(Ok((_, reply))) =
            tokio::time::timeout(Duration::from_millis(250), conn.recv()).await
        {
            if reply == expected {
                return;
            }
        }
    }
    panic!(
        "request {:?} unanswered after {overall:?}",
        String::from_utf8_lossy(&payload)
    );
}

#[tokio::test]
async fn steerer_death_fails_over_to_software_fallback() {
    // Three echo shards.
    let mut shards = Vec::new();
    let mut shard_tasks = Vec::new();
    for _ in 0..3 {
        let (addr, task, _stats) = serve_shard(
            Addr::Udp("127.0.0.1:0".parse().unwrap()),
            |payload: Vec<u8>| async move {
                let mut r = payload;
                r.push(b'!');
                Some(r)
            },
        )
        .await
        .unwrap();
        shards.push(addr);
        shard_tasks.push(task);
    }

    // Host registry with the steerer registered.
    let registry = Arc::new(Registry::new());
    let (steer_reg, steer_hooks, _configured) = steerer_registration(None);
    registry.register(steer_reg, steer_hooks).unwrap();

    // Internal canonical server behind the steerer, accepting switchable
    // connections.
    let raw = UdpListener::default()
        .listen(Addr::Udp("127.0.0.1:0".parse().unwrap()))
        .await
        .unwrap();
    let internal = raw.local_addr();
    let mut info = ShardInfo {
        canonical: Addr::Udp("127.0.0.1:0".parse().unwrap()),
        shards,
        shard_fn: ShardFnSpec::paper_default(),
    };
    let steerer = run_steerer(info.canonical.clone(), internal, info.clone())
        .await
        .unwrap();
    let canonical = steerer.canonical().clone();
    let kill = steerer.abort_handle();
    info.canonical = canonical.clone();

    let server_dc = DiscoveryClient::new(Arc::clone(&registry) as Arc<dyn RegistrySource>);
    let srv_opts = NegotiateOpts::named("kv-srv").with_filter(server_dc.clone());
    let mut stream = NegotiatedStream::switchable(
        raw,
        wrap!(ShardCanonicalServer::new(info.clone())),
        srv_opts,
    );
    tokio::spawn(async move {
        let mut held = Vec::new();
        while let Some(conn) = stream.next().await {
            if let Ok(c) = conn {
                held.push(c);
            }
        }
    });

    // The supervisor: on steerer death, revoke its registration and rebind
    // the canonical address with a software-only server.
    let sup_registry = Arc::clone(&registry);
    let sup = supervise_steerer(
        steerer,
        info,
        NegotiateOpts::named("fallback-srv"),
        move || async move {
            sup_registry.revoke(IMPL_STEER);
            Ok::<_, Error>(())
        },
    );

    // Client: negotiate through the steerer; the steered impl wins.
    let client_dc = DiscoveryClient::new(Arc::clone(&registry) as Arc<dyn RegistrySource>);
    let cli_opts = NegotiateOpts::named("kv-cli").with_filter(client_dc.clone());
    let raw_cli = UdpConnector.connect(canonical.clone()).await.unwrap();
    let (cli, picks) = negotiate_switchable_client(
        wrap!(ShardDeferChunnel),
        raw_cli,
        canonical.clone(),
        cli_opts,
    )
    .await
    .unwrap();
    assert_eq!(picks.picks[0].impl_guid, IMPL_STEER);

    let payload = |i: usize| format!("request-{i:04}-padding").into_bytes();

    // Phase 1: steered traffic.
    for i in 0..10 {
        request_until_echoed(&cli, &canonical, payload(i), Duration::from_secs(3)).await;
    }

    // Kill the steerer mid-run; watch discovery for the revocation, then
    // re-negotiate. The first attempts may race the supervisor's rebind of
    // the canonical address, so retry until one round completes.
    kill.abort();
    let t0 = Instant::now();
    let mut revs = client_dc.revocations(Duration::from_millis(20));
    loop {
        tokio::time::timeout(Duration::from_secs(10), revs.changed())
            .await
            .expect("revocation watcher should observe the steerer being revoked")
            .expect("watcher outlives the test");
        if let Ok(false) = client_dc.picks_still_valid(&picks.picks).await {
            break;
        }
    }
    let new_picks = loop {
        match cli.renegotiate().await {
            Ok(p) => break p,
            Err(e) if t0.elapsed() < Duration::from_secs(15) => {
                let _ = e;
                tokio::time::sleep(Duration::from_millis(50)).await;
            }
            Err(e) => panic!("renegotiation never succeeded: {e}"),
        }
    };
    let switchover = t0.elapsed();
    assert_eq!(
        new_picks.picks[0].impl_guid, IMPL_FALLBACK,
        "the revoked steerer is withdrawn; the pick falls back to in-app dispatch"
    );
    assert!(cli.epoch() >= 1);
    assert!(
        switchover < Duration::from_secs(10),
        "failover took {switchover:?}"
    );

    let fallback = sup
        .await
        .expect("supervisor task")
        .expect("the fallback server must come up on the canonical address");
    assert_eq!(fallback.canonical, canonical);

    // Phase 2: same connection, now served by the in-app dispatcher.
    for i in 10..20 {
        request_until_echoed(&cli, &canonical, payload(i), Duration::from_secs(5)).await;
    }
    println!("steerer-death switchover: {switchover:?}");
    drop(fallback);
}
