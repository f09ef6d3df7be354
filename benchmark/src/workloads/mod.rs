//! The five workloads and what they share: type-erased raw connections,
//! negotiated echo servers, and task guards.

pub mod churn;
pub mod echo;
pub mod kv;

use crate::trace::Spanned;
use bertha::conn::{BoxFut, ChunnelConnection, Datagram};
use bertha::either::Either;
use bertha::negotiate::{negotiate_server_once, Apply, GetOffers, NegotiateOpts, NegotiatedConn};
use bertha::{ConnStream, Error};
use bertha_localname::chunnel::LocalOrRemoteConn;
use bertha_transport::fault::FaultConn;
use bertha_transport::udp::{UdpConn, UdpPeerConn};
use bertha_transport::uds::UdsPeerConn;
use std::sync::{Arc, Mutex};
use tokio::task::AbortHandle;

/// The base-transport connections the benchmark negotiates over, as one
/// concrete type (an enum rather than a trait object: client and server
/// sides, UDP and Unix, plain and fault-injected must all present the
/// same type to a stack, and the futures involved have to stay provably
/// `Send`).
pub enum Base {
    Udp(UdpConn),
    UdpPeer(UdpPeerConn),
    Lossy(FaultConn<UdpConn>),
    /// What `LocalOrRemote::connect` returns (Unix or UDP underneath).
    Local(LocalOrRemoteConn),
    /// What a `LocalOrRemoteListener` accepts.
    LocalPeer(Either<UdpPeerConn, UdsPeerConn>),
}

macro_rules! base_from {
    ($($variant:ident($t:ty)),* $(,)?) => {$(
        impl From<$t> for Base {
            fn from(c: $t) -> Base {
                Base::$variant(c)
            }
        }
    )*};
}
base_from! {
    Udp(UdpConn),
    UdpPeer(UdpPeerConn),
    Lossy(FaultConn<UdpConn>),
    Local(LocalOrRemoteConn),
    LocalPeer(Either<UdpPeerConn, UdsPeerConn>),
}

impl ChunnelConnection for Base {
    type Data = Datagram;

    fn send(&self, data: Datagram) -> BoxFut<'_, Result<(), Error>> {
        match self {
            Base::Udp(c) => c.send(data),
            Base::UdpPeer(c) => c.send(data),
            Base::Lossy(c) => c.send(data),
            Base::Local(c) => c.send(data),
            Base::LocalPeer(c) => c.send(data),
        }
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        match self {
            Base::Udp(c) => c.recv(),
            Base::UdpPeer(c) => c.recv(),
            Base::Lossy(c) => c.recv(),
            Base::Local(c) => c.recv(),
            Base::LocalPeer(c) => c.recv(),
        }
    }
}

/// Every raw connection handed to negotiation: a [`Base`] spanned as
/// layer `transport`.
pub type Raw = Spanned<Base>;

/// Span a base-transport connection.
pub fn raw(conn: impl Into<Base>) -> Raw {
    Spanned::new("transport", conn.into())
}

/// A negotiable stack usable on both ends of a benchmark connection.
pub trait Stack:
    GetOffers + Apply<NegotiatedConn<Raw>, Applied = Self::Conn> + Clone + Send + Sync + 'static
{
    /// The connection the stack yields over a [`Raw`].
    type Conn: ChunnelConnection<Data = Datagram> + Send + Sync + 'static;
}

impl<S> Stack for S
where
    S: GetOffers + Apply<NegotiatedConn<Raw>> + Clone + Send + Sync + 'static,
    S::Applied: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    type Conn = S::Applied;
}

/// A shared list of spawned tasks.
#[derive(Clone, Default)]
pub struct TaskList(Arc<Mutex<Vec<AbortHandle>>>);

/// Tracked handles beyond which finished tasks are pruned on `push`.
const PRUNE_AT: usize = 1024;

impl TaskList {
    /// Track `handle`.
    pub fn push(&self, handle: AbortHandle) {
        // Poisoning: only `push` and `drain` ever run under this lock.
        let mut list = self.0.lock().unwrap_or_else(|p| p.into_inner());
        // A churning server registers thousands of short tasks a second.
        if list.len() >= PRUNE_AT {
            list.retain(|h| !h.is_finished());
        }
        list.push(handle);
    }
}

/// Tasks that make up a running server: aborted when the guard drops, so
/// tearing a workload down leaves nothing polling its sockets.
#[derive(Default)]
pub struct Tasks {
    /// The tasks; clone it into an accept loop to register the
    /// per-connection tasks that loop spawns.
    pub list: TaskList,
}

impl Drop for Tasks {
    fn drop(&mut self) {
        for h in self
            .list
            .0
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
        {
            h.abort();
        }
    }
}

/// Serve `incoming` as a negotiated echo server: each accepted connection
/// negotiates `stack` and then returns whatever it receives — forever, or
/// for `per_conn` messages when the workload's connections are that long
/// (a datagram server is never told a client left, so only the protocol
/// can end a connection and release its state). Sends that fail end that
/// connection only.
pub fn serve_echo<I, S>(
    mut incoming: I,
    stack: S,
    opts: NegotiateOpts,
    per_conn: Option<u64>,
) -> Tasks
where
    I: ConnStream + Send + 'static,
    I::Connection: Into<Base> + Send + 'static,
    S: Stack,
{
    let tasks = Tasks::default();
    let conns = tasks.list.clone();
    let accept = tokio::spawn(async move {
        while let Some(next) = incoming.next().await {
            let Ok(conn) = next else { continue };
            let (stack, opts) = (stack.clone(), opts.clone());
            let task = tokio::spawn(async move {
                // A failed handshake is that client's failure to report.
                let Ok(conn) = negotiate_server_once(stack, raw(conn), &opts).await else {
                    return;
                };
                let mut echoed = 0;
                while per_conn.is_none_or(|n| echoed < n) {
                    let Ok((from, data)) = conn.recv().await else {
                        return;
                    };
                    if conn.send((from, data)).await.is_err() {
                        return;
                    }
                    echoed += 1;
                }
            });
            conns.push(task.abort_handle());
        }
    });
    tasks.list.push(accept.abort_handle());
    tasks
}

/// Op ids are unique across lanes: lane index in the high bits.
pub fn op_id(lane: usize, seq: u64) -> u64 {
    ((lane as u64 + 1) << 40) | (seq & ((1 << 40) - 1))
}
