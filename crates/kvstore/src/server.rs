//! Server wiring: shard workers plus the negotiated canonical listener
//! (Listing 4). The canonical listener is *switchable*: every accepted
//! connection supports mid-connection re-negotiation, and a client whose
//! steered path died mid-run can open with a `Renegotiate` and land on
//! the software fallback without losing its session.

use crate::store::Store;
use bertha::negotiate::{NegotiateOpts, NegotiatedStream};
use bertha::{Addr, ChunnelListener, ConnStream, Error};
use bertha_shard::{serve_shard, ShardCanonicalServer, ShardFnSpec, ShardInfo};
use bertha_transport::udp::UdpListener;
use std::sync::Arc;

/// A running KV shard: its address, store, and worker task.
pub struct KvShardHandle {
    /// Where the shard listens.
    pub addr: Addr,
    /// The shard's data (threads in the paper; tasks here).
    pub store: Arc<Store>,
    task: tokio::task::JoinHandle<()>,
}

impl KvShardHandle {
    /// Stop the worker.
    pub fn stop(&self) {
        self.task.abort();
    }
}

impl Drop for KvShardHandle {
    fn drop(&mut self) {
        self.task.abort();
    }
}

/// Spawn `n` KV shard workers on ephemeral UDP ports ("we implement shards
/// using threads, assigning one thread per shard", §5).
pub async fn spawn_shards(n: usize) -> Result<Vec<KvShardHandle>, Error> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let store = Store::new();
        let handler_store = Arc::clone(&store);
        let (addr, task, _stats) =
            serve_shard(Addr::Udp("127.0.0.1:0".parse().unwrap()), move |payload| {
                let store = Arc::clone(&handler_store);
                async move { store.handle_payload(payload) }
            })
            .await?;
        out.push(KvShardHandle { addr, store, task });
    }
    Ok(out)
}

/// Build the [`ShardInfo`] for a set of spawned shards behind `canonical`.
pub fn shard_info(canonical: Addr, shards: &[KvShardHandle]) -> ShardInfo {
    ShardInfo {
        canonical,
        shards: shards.iter().map(|s| s.addr.clone()).collect(),
        shard_fn: ShardFnSpec::paper_default(),
    }
}

/// The canonical server: listen on `listen_addr` with the
/// `wrap!(shard(...))` stack and accept (and hold) negotiated connections
/// forever. Returns the bound canonical address and the accept-loop task.
///
/// `listen_addr` is the canonical address itself in client-push/fallback
/// deployments, or the *internal* address when a steerer owns the
/// canonical one.
pub async fn serve_canonical(
    listen_addr: Addr,
    mut info: ShardInfo,
    opts: NegotiateOpts,
) -> Result<(Addr, tokio::task::JoinHandle<()>), Error> {
    let raw = UdpListener::default().listen(listen_addr).await?;
    let bound = raw.local_addr();
    // When listening on an ephemeral port, advertise the bound address.
    info.canonical = bound.clone();
    let task = serve_prepared(raw, info, opts);
    Ok((bound, task))
}

/// Serve an already-bound listener (used when a steerer owns the canonical
/// address and the application listens on an internal one). Connections
/// are accepted via [`NegotiatedStream::switchable`], so each one can be
/// re-negotiated in place if the implementation it picked stops working.
pub fn serve_prepared(
    raw: bertha_transport::udp::UdpIncoming,
    info: ShardInfo,
    opts: NegotiateOpts,
) -> tokio::task::JoinHandle<()> {
    let stack = bertha::wrap!(ShardCanonicalServer::new(info));
    let mut stream = NegotiatedStream::switchable(raw, stack, opts);
    tokio::spawn(async move {
        let mut held = Vec::new();
        while let Some(conn) = stream.next().await {
            match conn {
                // Hold the connection: its pumps (fallback dispatch) live as
                // long as the server does.
                Ok(c) => held.push(c),
                Err(_) => continue, // a failed negotiation is that client's problem
            }
        }
        drop(held);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Msg, Op, Resp, Status};
    use bertha::conn::ChunnelConnection;
    use bertha::ChunnelConnector;
    use bertha_shard::worker::{frame_data, strip_data};
    use bertha_transport::udp::UdpConnector;

    #[tokio::test]
    async fn shards_serve_kv_requests_directly() {
        let shards = spawn_shards(2).await.unwrap();
        let client = UdpConnector.connect(shards[0].addr.clone()).await.unwrap();

        let put = Msg {
            id: 1,
            op: Op::Put,
            key: "k".into(),
            val: Some(b"v".to_vec()),
        };
        client
            .send((shards[0].addr.clone(), frame_data(&put.encode()).into()))
            .await
            .unwrap();
        let (_, frame) = client.recv().await.unwrap();
        let resp = Resp::decode(strip_data(&frame).unwrap()).unwrap();
        assert_eq!((resp.id, resp.status), (1, Status::Ok));
        assert_eq!(shards[0].store.len(), 1);
        assert_eq!(shards[1].store.len(), 0);
    }
}
