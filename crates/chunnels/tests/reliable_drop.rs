//! Dropping a reliable connection must release everything it held. Alone in
//! its file, and so in its process: `buf.pool.inflight` is process-global,
//! and any test leasing frames alongside would move it.

use bertha::conn::{pair, ChunnelConnection, Datagram};
use bertha::{Addr, Chunnel};
use bertha_chunnels::reliable::ReliabilityChunnel;
use bertha_telemetry as tele;
use std::time::Duration;

#[tokio::test]
async fn dropped_reliable_conn_releases_transport_and_frames() {
    let inflight = tele::gauge("buf.pool.inflight");
    let before = inflight.get();

    let (a, b) = pair::<Datagram>(64);
    let ra = ReliabilityChunnel::default().connect_wrap(a).await.unwrap();
    // `b` never acknowledges, so the payload stays in the retransmit queue:
    // a pooled frame held by the connection, not by the test.
    ra.send((Addr::Mem("peer".into()), vec![7u8; 512].into()))
        .await
        .unwrap();
    assert!(inflight.get() > before);
    drop(ra);

    // The pump task parks in the transport's `recv`; unless the drop takes
    // it down, `a` (and this frame) live forever and `b` never sees a close.
    let closed = tokio::time::timeout(Duration::from_secs(5), async {
        loop {
            match b.recv().await {
                Ok(_) => continue, // the payload and its retransmissions
                Err(e) => break e,
            }
        }
    })
    .await
    .expect("the peer must observe the dropped connection as closed");
    assert!(closed.is_closed(), "{closed}");
    // The retransmit queue goes with the tasks (the second of them may be
    // torn down a moment after the transport closed).
    tokio::time::timeout(Duration::from_secs(5), async {
        while inflight.get() != before {
            tokio::task::yield_now().await;
        }
    })
    .await
    .expect("the unacknowledged frame must return to the pool");
}
