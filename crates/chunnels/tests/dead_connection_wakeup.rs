//! Dead-connection wakeup: a connection whose peer or path has died must
//! *fail* blocked operations promptly — never strand a `recv().await`
//! forever — and a re-negotiable connection must come back to life once a
//! working path is picked.

use bertha::conn::{pair, ChunnelConnection, Datagram};
use bertha::negotiate::{negotiate_server_switchable, negotiate_switchable_client, NegotiateOpts};
use bertha::{wrap, Addr, Chunnel};
use bertha_chunnels::heartbeat::HeartbeatChunnel;
use bertha_chunnels::reliable::{ReliabilityChunnel, ReliabilityConfig};
use bertha_transport::fault::{FaultChunnel, FaultConfig};
use std::sync::Arc;
use std::time::Duration;

/// The retransmit budget exhausting must wake a receiver that was already
/// blocked when the path went dark.
#[tokio::test]
async fn budget_exhaustion_wakes_blocked_recv() {
    let (a, b) = pair::<Datagram>(64);
    let (faults, handle) = FaultChunnel::controlled(FaultConfig::default());
    let a = faults.connect_wrap(a).await.unwrap();
    let b = faults.connect_wrap(b).await.unwrap();

    let rel = ReliabilityChunnel::new(ReliabilityConfig {
        rto: Duration::from_millis(10),
        max_retries: 3,
        rto_max: Duration::from_millis(40),
        window: 8,
    });
    let ca = Arc::new(rel.connect_wrap(a).await.unwrap());
    let cb = rel.connect_wrap(b).await.unwrap();
    let addr = Addr::Mem("wakeup".into());

    // Healthy first: one round trip.
    ca.send((addr.clone(), b"ping".into())).await.unwrap();
    let (_, got) = cb.recv().await.unwrap();
    assert_eq!(got, b"ping");

    // Park a receiver, then cut the path and send: the retransmit budget
    // exhausts and must error the *blocked* recv, not just future calls.
    let parked = Arc::clone(&ca);
    let blocked = tokio::spawn(async move { parked.recv().await });
    tokio::time::sleep(Duration::from_millis(20)).await; // let it block
    handle.set_blackhole(true);
    ca.send((addr, b"lost".into())).await.unwrap();

    let res = tokio::time::timeout(Duration::from_secs(2), blocked)
        .await
        .expect("blocked recv must wake when the connection dies")
        .unwrap();
    assert!(res.is_err(), "the wakeup is an error, not data");
}

/// A silent peer must fail `recv` after `dead_after`, not block forever.
#[tokio::test]
async fn silent_peer_times_out_heartbeat_recv() {
    let (a, b) = pair::<Datagram>(64);
    let addr = Addr::Mem("hb".into());
    let hb = HeartbeatChunnel::new(
        addr.clone(),
        Duration::from_millis(20),
        Duration::from_millis(120),
    );
    let ca = hb.connect_wrap(a).await.unwrap();

    // The peer (raw end) sees data and heartbeat frames but never answers.
    ca.send((addr, b"hello".into())).await.unwrap();
    let (_, frame) = b.recv().await.unwrap();
    assert_eq!(frame, [&[0x10u8][..], b"hello"].concat());

    let err = tokio::time::timeout(Duration::from_secs(2), ca.recv())
        .await
        .expect("recv must give up on a silent peer")
        .expect_err("a dead peer is an error");
    assert!(
        err.is_peer_dead(),
        "expected a typed peer-death error, got {err}"
    );
}

/// The full robustness loop: liveness detection fails the endpoint fast,
/// and once a working path exists again, one `renegotiate()` call revives
/// the *same* connection object on a fresh stack.
#[tokio::test]
async fn renegotiation_revives_a_dead_endpoint() {
    let (a, b) = pair::<Datagram>(256);
    let (faults, handle) = FaultChunnel::controlled(FaultConfig::default());
    let fa = faults.connect_wrap(a).await.unwrap();
    let fb = faults.connect_wrap(b).await.unwrap();
    let addr = Addr::Mem("revive".into());

    let stack = wrap!(HeartbeatChunnel::new(
        addr.clone(),
        Duration::from_millis(20),
        Duration::from_millis(150),
    ));
    let srv_stack = stack.clone();
    let srv_task = tokio::spawn(async move {
        negotiate_server_switchable(srv_stack, fb, NegotiateOpts::named("srv")).await
    });
    let (cli, _picks) =
        negotiate_switchable_client(stack, fa, addr.clone(), NegotiateOpts::named("cli"))
            .await
            .unwrap();
    let srv = srv_task.await.unwrap().unwrap();

    // Epoch-0 traffic, both directions.
    cli.send((addr.clone(), b"up?".into())).await.unwrap();
    let (from, got) = srv.recv().await.unwrap();
    assert_eq!(got, b"up?");
    srv.send((from, b"up".into())).await.unwrap();
    assert_eq!(cli.recv().await.unwrap().1, b"up");

    // The path dies. A blocked recv errors out within the liveness bound
    // instead of hanging.
    handle.set_blackhole(true);
    let err = tokio::time::timeout(Duration::from_secs(2), cli.recv())
        .await
        .expect("recv on a dead path must fail fast")
        .expect_err("a dead path is an error");
    assert!(err.is_peer_dead(), "got {err}");

    // The path heals; one renegotiation round revives the endpoint — same
    // connection objects, fresh stack, traffic flows again.
    handle.set_blackhole(false);
    cli.renegotiate()
        .await
        .expect("renegotiation over the healed path");
    assert_eq!(cli.epoch(), 1);

    cli.send((addr.clone(), b"back?".into())).await.unwrap();
    let (from, got) = tokio::time::timeout(Duration::from_secs(2), srv.recv())
        .await
        .expect("revived server recv")
        .unwrap();
    assert_eq!(got, b"back?");
    srv.send((from, b"back".into())).await.unwrap();
    let (_, got) = tokio::time::timeout(Duration::from_secs(2), cli.recv())
        .await
        .expect("revived client recv")
        .unwrap();
    assert_eq!(got, b"back");
    assert_eq!(srv.epoch(), 1);
}
