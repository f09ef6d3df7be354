//! The canonical-address server chunnel (Listing 4).
//!
//! `ShardCanonicalServer` is what the sharded service wraps its listener
//! with. Its negotiation slot offers all three sharding implementations;
//! what it instantiates per connection depends on the pick:
//!
//! - `shard/steer` or `shard/client-push`: nothing — traffic reaches the
//!   shards below or beside this connection, and the canonical connection
//!   only carries the handshake;
//! - `shard/fallback`: the connection's requests are funneled through the
//!   server's single in-application dispatcher, which forwards each request
//!   to its shard and relays the reply. One dispatcher serves every
//!   fallback connection, one request at a time: this is deliberately the
//!   bottleneck Figure 5's "Server Fallback" arm measures ("the need to
//!   handle traffic from all clients results in poor performance, but
//!   still provides correctness").

use crate::info::ShardInfo;
use crate::{IMPL_CLIENT_PUSH, IMPL_FALLBACK, IMPL_STEER, SHARD_CAPABILITY};
use bertha::conn::{BoxFut, ChunnelConnection, Datagram, Drain};
use bertha::negotiate::wire::{self, Kind};
use bertha::negotiate::{Endpoints, NegotiateSlot, Offer, Scope, SlotApply};
use bertha::{Addr, Error};
use bertha_transport::bind_any;
use parking_lot::Mutex;
use std::sync::Arc;
use tokio::sync::mpsc;

/// See the module docs.
#[derive(Clone)]
pub struct ShardCanonicalServer {
    info: ShardInfo,
    dispatcher: Arc<Mutex<Option<mpsc::Sender<DispatchMsg>>>>,
    offer_steer: bool,
}

struct DispatchMsg {
    payload: bertha::buf::Frame,
    reply_to: Addr,
    reply_via: Arc<dyn ChunnelConnection<Data = Datagram> + Send + Sync>,
}

impl ShardCanonicalServer {
    /// A canonical server for the given shard map (Listing 4's
    /// `shard(shard::args(choices: shards), fn: shard_fn)`).
    pub fn new(info: ShardInfo) -> Self {
        ShardCanonicalServer {
            info,
            dispatcher: Arc::new(Mutex::new(None)),
            offer_steer: true,
        }
    }

    /// Stop offering `shard/steer`: used by the server incarnation that
    /// replaces a dead steerer, where offering the accelerated
    /// implementation again would steer clients back onto the corpse.
    /// (Deployments with a discovery agent get the same effect from the
    /// negotiation filter once the steerer's registration is revoked; this
    /// covers deployments without one.)
    pub fn software_only(mut self) -> Self {
        self.offer_steer = false;
        self
    }

    /// The shard map this server advertises.
    pub fn info(&self) -> &ShardInfo {
        &self.info
    }

    /// Get (starting if necessary) the shared fallback dispatcher.
    fn dispatcher(&self) -> mpsc::Sender<DispatchMsg> {
        let mut guard = self.dispatcher.lock();
        if let Some(tx) = guard.as_ref() {
            if !tx.is_closed() {
                return tx.clone();
            }
        }
        let (tx, rx) = mpsc::channel(1024);
        tokio::spawn(run_dispatcher(self.info.clone(), rx));
        *guard = Some(tx.clone());
        tx
    }
}

/// The single-threaded fallback dispatcher: one request in flight at a
/// time, across all fallback connections.
async fn run_dispatcher(info: ShardInfo, mut rx: mpsc::Receiver<DispatchMsg>) {
    let out = match bind_any(&info.shards[0]).await {
        Ok(s) => s,
        Err(_) => return,
    };
    while let Some(msg) = rx.recv().await {
        let shard = info.shard_addr(&msg.payload).clone();
        // Tag in place: the request frame came off the wire with headroom.
        let mut req = msg.payload;
        wire::prepend_data(&mut req, 0);
        if out.send((shard, req)).await.is_err() {
            continue;
        }
        // Serial request/reply: the fallback's defining inefficiency.
        let reply = match tokio::time::timeout(std::time::Duration::from_secs(5), out.recv()).await
        {
            Ok(Ok((_, mut frame))) => {
                let Kind::Data { off } = wire::classify(&frame) else {
                    continue;
                };
                frame.strip(off);
                frame
            }
            _ => continue, // lost request: client-level retry's problem
        };
        let _ = msg.reply_via.send((msg.reply_to, reply)).await;
    }
}

impl NegotiateSlot for ShardCanonicalServer {
    fn slot_offers(&self) -> Vec<Offer> {
        let ext = self.info.to_ext();
        let mut offers = Vec::with_capacity(3);
        if self.offer_steer {
            offers.push(Offer {
                capability: SHARD_CAPABILITY,
                impl_guid: IMPL_STEER,
                name: "shard/steer".into(),
                endpoints: Endpoints::Server,
                scope: Scope::Host,
                priority: 10,
                ext: ext.clone(),
            });
        }
        offers.extend([
            Offer {
                capability: SHARD_CAPABILITY,
                impl_guid: IMPL_CLIENT_PUSH,
                name: "shard/client-push".into(),
                endpoints: Endpoints::Client,
                scope: Scope::Application,
                priority: 1,
                ext: ext.clone(),
            },
            Offer {
                capability: SHARD_CAPABILITY,
                impl_guid: IMPL_FALLBACK,
                name: "shard/fallback".into(),
                endpoints: Endpoints::Server,
                scope: Scope::Application,
                priority: 0,
                ext,
            },
        ]);
        offers
    }
}

impl<InC> SlotApply<InC> for ShardCanonicalServer
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    type Applied = ShardServerConn<InC>;

    fn slot_apply(
        &self,
        pick: Offer,
        _nonce: Vec<u8>,
        inner: InC,
    ) -> BoxFut<'static, Result<Self::Applied, Error>> {
        if pick.capability != SHARD_CAPABILITY {
            let msg = format!("pick {} does not match shard slot", pick.name);
            return Box::pin(async move { Err(Error::Negotiation(msg)) });
        }
        let this = self.clone();
        Box::pin(async move {
            match pick.impl_guid {
                g if g == IMPL_STEER || g == IMPL_CLIENT_PUSH => Ok(ShardServerConn {
                    inner: Arc::new(inner),
                    dispatched: false,
                }),
                g if g == IMPL_FALLBACK => {
                    let inner = Arc::new(inner);
                    let tx = this.dispatcher();
                    // Pump this connection's requests into the shared
                    // dispatcher.
                    let pump_conn = Arc::clone(&inner);
                    tokio::spawn(async move {
                        loop {
                            let (from, payload) = match pump_conn.recv().await {
                                Ok(d) => d,
                                Err(_) => return,
                            };
                            let msg = DispatchMsg {
                                payload,
                                reply_to: from,
                                reply_via: Arc::clone(&pump_conn)
                                    as Arc<dyn ChunnelConnection<Data = Datagram> + Send + Sync>,
                            };
                            if tx.send(msg).await.is_err() {
                                return;
                            }
                        }
                    });
                    Ok(ShardServerConn {
                        inner,
                        dispatched: true,
                    })
                }
                _ => Err(Error::Negotiation(format!(
                    "unknown shard implementation {:#x}",
                    pick.impl_guid
                ))),
            }
        })
    }
}

/// Connection produced by [`ShardCanonicalServer`]. In dispatched
/// (fallback) mode, requests are consumed by the dispatcher and `recv`
/// never resolves — the shards answer clients, not this connection.
pub struct ShardServerConn<C> {
    inner: Arc<C>,
    dispatched: bool,
}

impl<C> ShardServerConn<C> {
    /// Whether this connection's traffic is being dispatched in-app.
    pub fn is_dispatched(&self) -> bool {
        self.dispatched
    }
}

impl<C> ChunnelConnection for ShardServerConn<C>
where
    C: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    type Data = Datagram;

    fn send(&self, d: Datagram) -> BoxFut<'_, Result<(), Error>> {
        self.inner.send(d)
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        if self.dispatched {
            // The dispatcher pump owns this connection's receive side.
            Box::pin(std::future::pending())
        } else {
            self.inner.recv()
        }
    }
}

/// The shard layer buffers nothing of its own on the send path (the
/// fallback dispatcher replies synchronously through `reply_via`), so
/// quiescing is entirely the inner layer's concern.
impl<C> Drain for ShardServerConn<C>
where
    C: ChunnelConnection<Data = Datagram> + Drain + Send + Sync + 'static,
{
    fn drain(&self) -> BoxFut<'_, Result<(), Error>> {
        self.inner.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::ShardFnSpec;
    use crate::worker::serve_shard;
    use bertha::conn::pair;

    fn payload_with_key(key: u32, body: &[u8]) -> Vec<u8> {
        let mut p = vec![0u8; 14];
        p[10..14].copy_from_slice(&key.to_le_bytes());
        p.extend_from_slice(body);
        p
    }

    #[test]
    fn offers_all_three_impls_with_shard_map() {
        let info = ShardInfo {
            canonical: Addr::Mem("svc".into()),
            shards: vec![Addr::Mem("s0".into())],
            shard_fn: ShardFnSpec::paper_default(),
        };
        let srv = ShardCanonicalServer::new(info.clone());
        let offers = srv.slot_offers();
        assert_eq!(offers.len(), 3);
        for o in &offers {
            assert_eq!(ShardInfo::from_ext(&o.ext).unwrap(), info);
        }
        // Steer is the highest priority (it is the accelerated variant).
        let steer = offers.iter().find(|o| o.impl_guid == IMPL_STEER).unwrap();
        assert!(offers.iter().all(|o| o.priority <= steer.priority));

        // The post-steerer incarnation withdraws the accelerated offer.
        let sw = ShardCanonicalServer::new(info).software_only();
        let offers = sw.slot_offers();
        assert_eq!(offers.len(), 2);
        assert!(offers.iter().all(|o| o.impl_guid != IMPL_STEER));
    }

    #[tokio::test]
    async fn fallback_dispatches_to_shards_and_relays() {
        // Two real UDP echo shards.
        let (s0, t0, _) = serve_shard(Addr::Udp("127.0.0.1:0".parse().unwrap()), |p| async move {
            let mut r = p;
            r.push(b'0');
            Some(r)
        })
        .await
        .unwrap();
        let (s1, t1, _) = serve_shard(Addr::Udp("127.0.0.1:0".parse().unwrap()), |p| async move {
            let mut r = p;
            r.push(b'1');
            Some(r)
        })
        .await
        .unwrap();

        let info = ShardInfo {
            canonical: Addr::Mem("svc".into()),
            shards: vec![s0, s1],
            shard_fn: ShardFnSpec::paper_default(),
        };
        let srv = ShardCanonicalServer::new(info.clone());
        let offers = srv.slot_offers();
        let pick = offers
            .iter()
            .find(|o| o.impl_guid == IMPL_FALLBACK)
            .unwrap()
            .clone();

        // `client` plays the role of the negotiated canonical connection.
        let (server_side, client) = pair::<Datagram>(64);
        let conn = srv.slot_apply(pick, vec![], server_side).await.unwrap();
        assert!(conn.is_dispatched());

        let client_addr = Addr::Mem("client-1".into());
        for key in 0..20u32 {
            let req = payload_with_key(key, b"req");
            let expected_suffix = if info.shard_of(&req) == 0 { b'0' } else { b'1' };
            client
                .send((client_addr.clone(), req.clone().into()))
                .await
                .unwrap();
            let (to, reply) = client.recv().await.unwrap();
            assert_eq!(to, client_addr, "reply relayed to the requester");
            assert_eq!(reply[..req.len()], req[..]);
            assert_eq!(*reply.last().unwrap(), expected_suffix, "right shard");
        }
        t0.abort();
        t1.abort();
    }

    #[tokio::test]
    async fn steer_and_client_push_are_passthrough() {
        let info = ShardInfo {
            canonical: Addr::Mem("svc".into()),
            shards: vec![Addr::Mem("s0".into())],
            shard_fn: ShardFnSpec::paper_default(),
        };
        let srv = ShardCanonicalServer::new(info);
        for impl_guid in [IMPL_STEER, IMPL_CLIENT_PUSH] {
            let pick = srv
                .slot_offers()
                .into_iter()
                .find(|o| o.impl_guid == impl_guid)
                .unwrap();
            let (a, b) = pair::<Datagram>(4);
            let conn = srv.slot_apply(pick, vec![], a).await.unwrap();
            assert!(!conn.is_dispatched());
            b.send((Addr::Mem("x".into()), vec![1].into())).await.unwrap();
            let (_, d) = conn.recv().await.unwrap();
            assert_eq!(d, vec![1]);
        }
    }
}
