//! Shard worker helpers.
//!
//! A shard worker is a plain datagram server: it receives a request, runs
//! the application handler, and replies to the datagram's source — which is
//! the client directly (client push), a steerer flow socket (steered), or
//! the in-app dispatcher (fallback). The worker neither knows nor cares
//! which; that symmetry is what lets negotiation switch steering modes
//! per connection (§5: "differences in client configuration result in
//! different implementations being picked by different connections").
//!
//! Requests and replies travel in established-connection framing (the
//! negotiation layer's data framing, [`wire`]), so clients' negotiated
//! connections accept shard replies as ordinary traffic. Clients that have
//! re-negotiated mid-connection tag their data with an epoch; workers
//! accept those frames too, and reply with the plain data framing — which
//! re-negotiable connections accept at any epoch, precisely because shard
//! workers are stateless with respect to the client's stack.

use bertha::buf::Frame;
use bertha::conn::ChunnelConnection;
use bertha::negotiate::wire::{self, Kind};
use bertha::{Addr, Error};
use bertha_transport::udp::bind_udp;
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Put an application payload in plain data framing (wire form).
pub fn frame_data(payload: &[u8]) -> Vec<u8> {
    let mut f = Frame::from(payload);
    wire::prepend_data(&mut f, 0);
    f.into_vec()
}

/// Strip established-connection framing, if present, from a wire frame:
/// plain data, or epoch-tagged data from a client that has re-negotiated.
/// The epoch is irrelevant to a shard worker — it names the client's stack
/// incarnation, not anything about the request — so it is discarded.
pub fn strip_data(frame: &[u8]) -> Option<&[u8]> {
    match wire::classify(frame) {
        Kind::Data { off } | Kind::DataEpoch { off, .. } => frame.get(off..),
        Kind::Neg { .. } | Kind::Unknown => None,
    }
}

/// Statistics exposed by a running shard worker.
#[derive(Default)]
pub struct ShardStats {
    /// Requests processed.
    pub handled: AtomicU64,
    /// Frames dropped as malformed (wrong tag, handler error).
    pub dropped: AtomicU64,
}

/// Serve a shard on a UDP address: `handler` maps request payloads to reply
/// payloads. Returns the bound address (useful when `addr` had port 0), the
/// task handle, and a stats handle; aborting the task stops the worker.
pub async fn serve_shard<H, F>(
    addr: Addr,
    handler: H,
) -> Result<(Addr, tokio::task::JoinHandle<()>, Arc<ShardStats>), Error>
where
    H: Fn(Vec<u8>) -> F + Send + Sync + 'static,
    F: Future<Output = Option<Vec<u8>>> + Send,
{
    let sock = bind_udp(&addr).await?;
    let bound = sock.local_addr()?;
    let stats = Arc::new(ShardStats::default());
    let stats2 = Arc::clone(&stats);
    let task = tokio::spawn(async move {
        loop {
            let (from, frame) = match sock.recv().await {
                Ok(d) => d,
                Err(_) => return,
            };
            let Some(payload) = strip_data(&frame) else {
                stats2.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            match handler(payload.to_vec()).await {
                Some(reply) => {
                    stats2.handled.fetch_add(1, Ordering::Relaxed);
                    let mut f: Frame = reply.into();
                    wire::prepend_data(&mut f, 0);
                    let _ = sock.send((from, f)).await;
                }
                None => {
                    stats2.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    });
    Ok((bound, task, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertha::ChunnelConnector;
    use bertha_transport::udp::UdpConnector;

    #[tokio::test]
    async fn worker_round_trip_with_framing() {
        let (addr, task, stats) = serve_shard(
            Addr::Udp("127.0.0.1:0".parse().unwrap()),
            |req| async move {
                let mut r = req;
                r.reverse();
                Some(r)
            },
        )
        .await
        .unwrap();

        let client = UdpConnector.connect(addr.clone()).await.unwrap();
        client
            .send((addr.clone(), frame_data(b"abc").into()))
            .await
            .unwrap();
        let (_, frame) = client.recv().await.unwrap();
        assert_eq!(strip_data(&frame).unwrap(), b"cba");

        // Untagged garbage is counted and dropped, not crashed on.
        client.send((addr, b"no tag".into())).await.unwrap();
        tokio::time::sleep(std::time::Duration::from_millis(20)).await;
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 1);
        assert_eq!(stats.handled.load(Ordering::Relaxed), 1);
        task.abort();
    }

    #[test]
    fn framing_round_trip() {
        let f = frame_data(b"payload");
        assert_eq!(strip_data(&f).unwrap(), b"payload");
        assert!(strip_data(&[0x01, 2, 3]).is_none());
        assert!(strip_data(&[]).is_none());
    }

    #[test]
    fn epoch_tagged_frames_are_stripped_too() {
        let mut f = Frame::from(b"payload");
        wire::prepend_data(&mut f, 7);
        assert_eq!(strip_data(&f).unwrap(), b"payload");
        // A truncated epoch header is malformed, not an empty payload.
        assert!(strip_data(&f[..4]).is_none());
    }
}
