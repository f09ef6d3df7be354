//! Small utility chunnels and connections used throughout the workspace.

use crate::addr::Addr;
use crate::chunnel::Chunnel;
use crate::conn::{BoxFut, ChunnelConnection, Datagram};
use crate::error::Error;
use std::marker::PhantomData;
use std::sync::Arc;

/// A chunnel that adds no functionality: wraps a connection with itself.
///
/// Useful as a stack placeholder and in tests. The type parameter pins the
/// data type the stack carries.
pub struct Nothing<D = Datagram>(PhantomData<D>);

impl<D> Default for Nothing<D> {
    fn default() -> Self {
        Nothing(PhantomData)
    }
}

impl<D> Clone for Nothing<D> {
    fn clone(&self) -> Self {
        Nothing(PhantomData)
    }
}

impl<D> std::fmt::Debug for Nothing<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Nothing")
    }
}

impl<D, InC> Chunnel<InC> for Nothing<D>
where
    InC: ChunnelConnection<Data = D> + Send + 'static,
    D: Send + 'static,
{
    type Connection = InC;

    fn connect_wrap(&self, inner: InC) -> BoxFut<'static, Result<InC, Error>> {
        Box::pin(async move { Ok(inner) })
    }
}

/// A chunnel applying a pure function on send and its inverse on receive.
/// Test helper for verifying stack ordering.
#[derive(Clone)]
pub struct MapChunnel<F, G> {
    on_send: F,
    on_recv: G,
}

impl<F, G> MapChunnel<F, G> {
    /// `on_send` transforms outgoing data; `on_recv` incoming.
    pub fn new(on_send: F, on_recv: G) -> Self {
        MapChunnel { on_send, on_recv }
    }
}

impl<F, G, D, InC> Chunnel<InC> for MapChunnel<F, G>
where
    InC: ChunnelConnection<Data = D> + Send + Sync + 'static,
    D: Send + 'static,
    F: Fn(D) -> D + Clone + Send + Sync + 'static,
    G: Fn(D) -> D + Clone + Send + Sync + 'static,
{
    type Connection = MapConn<F, G, InC>;

    fn connect_wrap(&self, inner: InC) -> BoxFut<'static, Result<Self::Connection, Error>> {
        let (f, g) = (self.on_send.clone(), self.on_recv.clone());
        Box::pin(async move {
            Ok(MapConn {
                inner,
                on_send: f,
                on_recv: g,
            })
        })
    }
}

/// Connection produced by [`MapChunnel`].
pub struct MapConn<F, G, C> {
    inner: C,
    on_send: F,
    on_recv: G,
}

impl<F, G, D, C> ChunnelConnection for MapConn<F, G, C>
where
    C: ChunnelConnection<Data = D>,
    D: Send + 'static,
    F: Fn(D) -> D + Send + Sync,
    G: Fn(D) -> D + Send + Sync,
{
    type Data = D;

    fn send(&self, data: D) -> BoxFut<'_, Result<(), Error>> {
        self.inner.send((self.on_send)(data))
    }

    fn recv(&self) -> BoxFut<'_, Result<D, Error>> {
        Box::pin(async move { Ok((self.on_recv)(self.inner.recv().await?)) })
    }
}

/// Fix the remote address of an addressed connection, turning
/// `(Addr, T)`-typed data into plain `T`: the "connected socket" adapter.
///
/// On send, stamps the configured address; on receive, strips (and checks)
/// the source address.
#[derive(Clone, Debug)]
pub struct ProjectLeft {
    addr: Addr,
}

impl ProjectLeft {
    /// All sends go to `addr`.
    pub fn new(addr: Addr) -> Self {
        ProjectLeft { addr }
    }
}

impl<T, InC> Chunnel<InC> for ProjectLeft
where
    InC: ChunnelConnection<Data = (Addr, T)> + Send + Sync + 'static,
    T: Send + 'static,
{
    type Connection = ProjectLeftConn<InC>;

    fn connect_wrap(&self, inner: InC) -> BoxFut<'static, Result<Self::Connection, Error>> {
        let addr = self.addr.clone();
        Box::pin(async move { Ok(ProjectLeftConn { addr, inner }) })
    }
}

/// Connection produced by [`ProjectLeft`].
pub struct ProjectLeftConn<C> {
    addr: Addr,
    inner: C,
}

impl<T, C> ChunnelConnection for ProjectLeftConn<C>
where
    C: ChunnelConnection<Data = (Addr, T)>,
    T: Send + 'static,
{
    type Data = T;

    fn send(&self, data: T) -> BoxFut<'_, Result<(), Error>> {
        self.inner.send((self.addr.clone(), data))
    }

    fn recv(&self) -> BoxFut<'_, Result<T, Error>> {
        Box::pin(async move {
            let (_from, data) = self.inner.recv().await?;
            Ok(data)
        })
    }
}

/// Counters exposed by [`InstrumentChunnel`].
#[derive(Debug, Default)]
pub struct ConnCounters {
    /// Messages sent.
    pub msgs_sent: std::sync::atomic::AtomicU64,
    /// Messages received.
    pub msgs_recvd: std::sync::atomic::AtomicU64,
    /// Payload bytes sent.
    pub bytes_sent: std::sync::atomic::AtomicU64,
    /// Payload bytes received.
    pub bytes_recvd: std::sync::atomic::AtomicU64,
}

impl ConnCounters {
    /// A `(msgs_sent, msgs_recvd, bytes_sent, bytes_recvd)` snapshot.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (
            self.msgs_sent.load(Relaxed),
            self.msgs_recvd.load(Relaxed),
            self.bytes_sent.load(Relaxed),
            self.bytes_recvd.load(Relaxed),
        )
    }
}

/// A transparent byte-level chunnel that counts traffic. Useful for
/// monitoring where in a stack bytes inflate (compression above, framing
/// below) and in tests asserting wire-level behavior.
#[derive(Clone, Debug, Default)]
pub struct InstrumentChunnel {
    counters: Arc<ConnCounters>,
}

impl InstrumentChunnel {
    /// A fresh instrument; clones share the same counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared counters (live across every connection this chunnel
    /// value wraps).
    pub fn counters(&self) -> Arc<ConnCounters> {
        Arc::clone(&self.counters)
    }
}

impl<InC> Chunnel<InC> for InstrumentChunnel
where
    InC: ChunnelConnection<Data = Datagram> + Send + Sync + 'static,
{
    type Connection = InstrumentConn<InC>;

    fn connect_wrap(&self, inner: InC) -> BoxFut<'static, Result<Self::Connection, Error>> {
        let counters = Arc::clone(&self.counters);
        Box::pin(async move { Ok(InstrumentConn { inner, counters }) })
    }
}

/// Connection produced by [`InstrumentChunnel`].
pub struct InstrumentConn<C> {
    inner: C,
    counters: Arc<ConnCounters>,
}

impl<C> ChunnelConnection for InstrumentConn<C>
where
    C: ChunnelConnection<Data = Datagram> + Send + Sync,
{
    type Data = Datagram;

    fn send(&self, (addr, buf): Datagram) -> BoxFut<'_, Result<(), Error>> {
        use std::sync::atomic::Ordering::Relaxed;
        self.counters.msgs_sent.fetch_add(1, Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(buf.len() as u64, Relaxed);
        self.inner.send((addr, buf))
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        Box::pin(async move {
            use std::sync::atomic::Ordering::Relaxed;
            let (from, buf) = self.inner.recv().await?;
            self.counters.msgs_recvd.fetch_add(1, Relaxed);
            self.counters
                .bytes_recvd
                .fetch_add(buf.len() as u64, Relaxed);
            Ok((from, buf))
        })
    }
}

/// Erase a connection's concrete type into a [`DynConn`](crate::conn::DynConn)
/// -compatible trait object.
pub fn erase<C>(conn: C) -> Arc<dyn ChunnelConnection<Data = C::Data> + Send + Sync>
where
    C: ChunnelConnection + Send + Sync + 'static,
{
    Arc::new(conn)
}

/// Abort a background task when its owner drops. A connection that spawns
/// a pump or responder task holds one of these (in an `Arc`, if the
/// connection is cloneable), so the task — and whatever socket, buffers and
/// peer state it captured — cannot outlive the connection.
pub struct AbortOnDrop(pub tokio::task::JoinHandle<()>);

impl Drop for AbortOnDrop {
    fn drop(&mut self) {
        self.0.abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::pair;

    #[tokio::test]
    async fn project_left_stamps_addr() {
        let (a, b) = pair::<(Addr, u8)>(1);
        let dst = Addr::Mem("srv".into());
        let conn = ProjectLeft::new(dst.clone()).connect_wrap(a).await.unwrap();
        conn.send(42).await.unwrap();
        let (to, v) = b.recv().await.unwrap();
        assert_eq!(to, dst);
        assert_eq!(v, 42);
        b.send((Addr::Mem("other".into()), 7)).await.unwrap();
        assert_eq!(conn.recv().await.unwrap(), 7);
    }

    #[tokio::test]
    async fn instrument_counts_traffic() {
        let (a, b) = pair::<Datagram>(8);
        let instrument = InstrumentChunnel::new();
        let counters = instrument.counters();
        let conn = instrument.connect_wrap(a).await.unwrap();
        let addr = Addr::Mem("peer".into());
        conn.send((addr.clone(), vec![0u8; 10].into())).await.unwrap();
        conn.send((addr.clone(), vec![0u8; 5].into())).await.unwrap();
        b.recv().await.unwrap();
        b.send((addr, vec![0u8; 3].into())).await.unwrap();
        conn.recv().await.unwrap();
        assert_eq!(counters.snapshot(), (2, 1, 15, 3));
    }

    #[tokio::test]
    async fn map_chunnel_applies_fns() {
        let (a, b) = pair::<u8>(1);
        let conn = MapChunnel::new(|x: u8| x ^ 0xff, |x: u8| x ^ 0xff)
            .connect_wrap(a)
            .await
            .unwrap();
        conn.send(0b1010_1010).await.unwrap();
        assert_eq!(b.recv().await.unwrap(), 0b0101_0101);
    }
}
