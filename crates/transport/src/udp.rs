//! UDP transport: the paper prototype's base ("bincode ... atop UDP RPCs",
//! §5).
//!
//! The connector binds an ephemeral socket per connection. The listener
//! binds one socket and demultiplexes incoming datagrams by source address
//! into per-peer connections; all per-peer connections share the socket for
//! sending.
//!
//! # Batched syscalls
//!
//! On Linux the send path coalesces concurrently-queued frames into one
//! `sendmmsg(2)` call and the receive path drains the socket with
//! `recvmmsg(2)` into pool-leased [`Frame`]s (DESIGN.md §12). Every sender
//! pushes its frame onto a shared queue and then takes a drainer lock;
//! whoever holds the lock flushes the whole queue, so frames queued while a
//! flush is in flight ride along in the next batch instead of paying their
//! own syscall. Other platforms use the per-packet path, the only one they
//! have; both move the same bytes and differ only in syscall count.

use bertha::buf::Frame;
use bertha::chunnel::{ConnStream, RecvStream};
use bertha::conn::{BoxFut, ChunnelConnection, Datagram, Drain};
use bertha::{Addr, ChunnelConnector, ChunnelListener, Error};
use bertha_telemetry as tele;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use tokio::net::UdpSocket;
use tokio::sync::mpsc;

/// Most frames one `sendmmsg` call flushes; queued excess goes in the next
/// iteration of the same drain.
const SEND_BATCH: usize = 32;

/// The local address to bind for talking to `remote`: same address family,
/// loopback-scoped when the remote is loopback.
pub(crate) fn local_bind_for(remote: SocketAddr) -> SocketAddr {
    match (remote.is_ipv4(), remote.ip().is_loopback()) {
        (true, true) => (std::net::Ipv4Addr::LOCALHOST, 0).into(),
        (true, false) => (std::net::Ipv4Addr::UNSPECIFIED, 0).into(),
        (false, true) => (std::net::Ipv6Addr::LOCALHOST, 0).into(),
        (false, false) => (std::net::Ipv6Addr::UNSPECIFIED, 0).into(),
    }
}

fn expect_udp(addr: &Addr) -> Result<SocketAddr, Error> {
    match addr {
        Addr::Udp(sa) => Ok(*sa),
        other => Err(Error::Other(format!("udp transport cannot reach {other}"))),
    }
}

/// Whether batched syscalls are in play: wherever they exist.
const BATCHING: bool = cfg!(target_os = "linux");

/// Shared send side of one UDP socket: a queue of outbound frames plus the
/// drainer lock that serializes flushes.
///
/// The contract is that `send` returns only after a point at which the
/// queue was empty *after* its own push — either this task drained it, or
/// the drainer it waited on did. Send errors are reported to whichever
/// task performed the failing flush, which (as with any batched UDP send)
/// may not be the task that queued the frame.
struct SendQueue {
    queue: parking_lot::Mutex<VecDeque<(SocketAddr, Frame)>>,
    drainer: tokio::sync::Mutex<()>,
}

impl SendQueue {
    fn new() -> Arc<Self> {
        Arc::new(SendQueue {
            queue: parking_lot::Mutex::new(VecDeque::new()),
            drainer: tokio::sync::Mutex::new(()),
        })
    }

    async fn send(&self, socket: &UdpSocket, sa: SocketAddr, frame: Frame) -> Result<(), Error> {
        if frame.len() > crate::MAX_DATAGRAM {
            return Err(Error::Other(format!(
                "datagram of {} bytes exceeds the {}-byte UDP limit",
                frame.len(),
                crate::MAX_DATAGRAM
            )));
        }
        if !BATCHING {
            socket.send_to(&frame, sa).await?;
            return Ok(());
        }
        self.queue.lock().push_back((sa, frame));
        let _flush = self.drainer.lock().await;
        self.drain(socket).await
    }

    /// Flush the queue until it is observed empty. Caller holds `drainer`.
    async fn drain(&self, socket: &UdpSocket) -> Result<(), Error> {
        loop {
            let batch: Vec<(SocketAddr, Frame)> = {
                let mut q = self.queue.lock();
                if q.is_empty() {
                    return Ok(());
                }
                let n = q.len().min(SEND_BATCH);
                q.drain(..n).collect()
            };
            send_batch(socket, &batch).await?;
        }
    }
}

/// Put one batch on the wire. One `sendmmsg` per iteration on Linux;
/// per-packet otherwise.
#[cfg(target_os = "linux")]
async fn send_batch(socket: &UdpSocket, batch: &[(SocketAddr, Frame)]) -> Result<(), Error> {
    use tokio::io::Interest;
    let mut done = 0;
    while done < batch.len() {
        socket.ready(Interest::WRITABLE).await?;
        // check: allow(panic): loop condition keeps done < batch.len()
        match socket.try_io(Interest::WRITABLE, || mmsg::send(socket, &batch[done..])) {
            Ok(n) => {
                tele::counter("udp.batch.sends").incr();
                tele::histogram("udp.batch.send_frames").record(n as u64);
                done += n.max(1);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
async fn send_batch(socket: &UdpSocket, batch: &[(SocketAddr, Frame)]) -> Result<(), Error> {
    for (sa, frame) in batch {
        socket.send_to(frame, *sa).await?;
    }
    Ok(())
}

/// Receive at least one datagram, opportunistically draining up to a
/// batch in one `recvmmsg` call on Linux. Frames come from the buffer
/// pool with headroom intact, so upstream chunnels prepend in place.
async fn recv_some(socket: &UdpSocket) -> Result<Vec<(SocketAddr, Frame)>, Error> {
    #[cfg(target_os = "linux")]
    if BATCHING {
        use tokio::io::Interest;
        loop {
            socket.ready(Interest::READABLE).await?;
            match socket.try_io(Interest::READABLE, || mmsg::recv(socket)) {
                Ok(msgs) => {
                    tele::counter("udp.batch.recvs").incr();
                    tele::histogram("udp.batch.recv_frames").record(msgs.len() as u64);
                    return Ok(msgs);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
    let mut frame = Frame::recv_lease(crate::MAX_DATAGRAM);
    let Some(window) = frame.payload_mut() else {
        // A fresh lease is always unique; treat the impossible as I/O loss.
        return Err(Error::Other("recv lease not writable".into()));
    };
    let (n, from) = socket.recv_from(window).await?;
    frame.truncate(n);
    Ok(vec![(from, frame)])
}

/// Raw `sendmmsg`/`recvmmsg` plumbing. Declared by hand against the libc
/// ABI so the crate stays dependency-free; Linux-only by construction.
#[cfg(target_os = "linux")]
mod mmsg {
    use super::Frame;
    use std::io;
    use std::net::{IpAddr, SocketAddr};
    use std::os::fd::AsRawFd;
    use tokio::net::UdpSocket;

    /// Frames drained per `recvmmsg` call. Each slot leases a pool buffer;
    /// unused slots go straight back to the pool.
    const RECV_BATCH: usize = 16;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const MSG_DONTWAIT: i32 = 0x40;

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut u8,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    extern "C" {
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut u8,
        ) -> i32;
    }

    /// Large enough for `sockaddr_in6`; `sockaddr_in` uses a prefix.
    type SockAddrBuf = [u8; 28];

    fn encode_addr(sa: SocketAddr, buf: &mut SockAddrBuf) -> u32 {
        match sa.ip() {
            IpAddr::V4(ip) => {
                // check: allow(panic): constant ranges into the fixed 28-byte sockaddr buffer
                buf[..2].copy_from_slice(&AF_INET.to_ne_bytes());
                // check: allow(panic): constant ranges into the fixed 28-byte sockaddr buffer
                buf[2..4].copy_from_slice(&sa.port().to_be_bytes());
                // check: allow(panic): constant ranges into the fixed 28-byte sockaddr buffer
                buf[4..8].copy_from_slice(&ip.octets());
                16
            }
            IpAddr::V6(ip) => {
                // check: allow(panic): constant ranges into the fixed 28-byte sockaddr buffer
                buf[..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                // check: allow(panic): constant ranges into the fixed 28-byte sockaddr buffer
                buf[2..4].copy_from_slice(&sa.port().to_be_bytes());
                // check: allow(panic): constant ranges into the fixed 28-byte sockaddr buffer
                buf[4..8].fill(0); // flowinfo
                // check: allow(panic): constant ranges into the fixed 28-byte sockaddr buffer
                buf[8..24].copy_from_slice(&ip.octets());
                // check: allow(panic): constant ranges into the fixed 28-byte sockaddr buffer
                buf[24..28].fill(0); // scope id: loopback/global both 0
                28
            }
        }
    }

    fn decode_addr(buf: &SockAddrBuf) -> Option<SocketAddr> {
        // check: allow(panic): constant indices into the fixed 28-byte sockaddr buffer
        let family = u16::from_ne_bytes([buf[0], buf[1]]);
        // check: allow(panic): constant indices into the fixed 28-byte sockaddr buffer
        let port = u16::from_be_bytes([buf[2], buf[3]]);
        match family {
            AF_INET => {
                // check: allow(panic): constant range into the fixed 28-byte sockaddr buffer
                let ip: [u8; 4] = buf[4..8].try_into().ok()?;
                Some((IpAddr::from(ip), port).into())
            }
            AF_INET6 => {
                // check: allow(panic): constant range into the fixed 28-byte sockaddr buffer
                let ip: [u8; 16] = buf[8..24].try_into().ok()?;
                Some((IpAddr::from(ip), port).into())
            }
            _ => None,
        }
    }

    /// One non-blocking `sendmmsg`; returns how many leading frames of
    /// `batch` hit the wire.
    pub(super) fn send(socket: &UdpSocket, batch: &[(SocketAddr, Frame)]) -> io::Result<usize> {
        let n = batch.len().min(super::SEND_BATCH);
        let mut addrs: Vec<(SockAddrBuf, u32)> = Vec::with_capacity(n);
        let mut iovs: Vec<IoVec> = Vec::with_capacity(n);
        for (sa, frame) in batch.iter().take(n) {
            let mut buf = [0u8; 28];
            let namelen = encode_addr(*sa, &mut buf);
            addrs.push((buf, namelen));
            iovs.push(IoVec {
                // sendmmsg never writes through the iov; the cast only
                // satisfies the C signature.
                base: frame.as_ref().as_ptr() as *mut u8,
                len: frame.len(),
            });
        }
        // Pointers into `addrs`/`iovs` stay valid: both vecs are fully
        // built above and never grow again.
        let mut hdrs: Vec<MMsgHdr> = Vec::with_capacity(n);
        for i in 0..n {
            hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    // check: allow(panic): i < n == every parallel vec's length
                    name: addrs[i].0.as_mut_ptr(),
                    // check: allow(panic): i < n == every parallel vec's length
                    namelen: addrs[i].1,
                    // check: allow(panic): i < n == every parallel vec's length
                    iov: &mut iovs[i],
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
        let rc = unsafe { sendmmsg(socket.as_raw_fd(), hdrs.as_mut_ptr(), n as u32, MSG_DONTWAIT) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(rc as usize)
    }

    /// One non-blocking `recvmmsg` into pool-leased frames.
    pub(super) fn recv(socket: &UdpSocket) -> io::Result<Vec<(SocketAddr, Frame)>> {
        let mut frames: Vec<Frame> = (0..RECV_BATCH)
            .map(|_| Frame::recv_lease(crate::MAX_DATAGRAM))
            .collect();
        let mut addrs: Vec<SockAddrBuf> = vec![[0u8; 28]; RECV_BATCH];
        let mut iovs: Vec<IoVec> = Vec::with_capacity(RECV_BATCH);
        for frame in frames.iter_mut() {
            let Some(window) = frame.payload_mut() else {
                return Err(io::Error::new(
                    io::ErrorKind::Other,
                    "recv lease not writable",
                ));
            };
            iovs.push(IoVec {
                base: window.as_mut_ptr(),
                len: window.len(),
            });
        }
        // Pointers into `addrs`/`iovs` stay valid: both vecs are fully
        // built above and never grow again.
        let mut hdrs: Vec<MMsgHdr> = Vec::with_capacity(RECV_BATCH);
        for i in 0..RECV_BATCH {
            hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    // check: allow(panic): parallel vecs are RECV_BATCH long
                    name: addrs[i].as_mut_ptr(),
                    namelen: 28,
                    // check: allow(panic): parallel vecs are RECV_BATCH long
                    iov: &mut iovs[i],
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
        let rc = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                hdrs.as_mut_ptr(),
                RECV_BATCH as u32,
                MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let got = rc as usize;
        let mut out = Vec::with_capacity(got);
        for (i, mut frame) in frames.into_iter().enumerate().take(got) {
            // check: allow(panic): kernel reported got <= RECV_BATCH filled entries
            frame.truncate(hdrs[i].len as usize);
            // A datagram whose source address the kernel could not report
            // in a known family is unroutable upstream; drop it like loss.
            // check: allow(panic): kernel reported got <= RECV_BATCH filled entries
            if let Some(from) = decode_addr(&addrs[i]) {
                out.push((from, frame));
            }
        }
        Ok(out)
    }
}

/// Client-side UDP transport. Each `connect` binds a fresh ephemeral port.
#[derive(Clone, Copy, Debug, Default)]
pub struct UdpConnector;

impl ChunnelConnector for UdpConnector {
    type Addr = Addr;
    type Connection = UdpConn;

    fn connect(&mut self, addr: Addr) -> BoxFut<'static, Result<UdpConn, Error>> {
        Box::pin(async move {
            let remote = expect_udp(&addr)?;
            let socket = UdpSocket::bind(local_bind_for(remote)).await?;
            Ok(UdpConn::from_socket(socket))
        })
    }
}

/// An unconnected UDP socket as a Bertha connection: sends go to the
/// address in each datagram, receives report the source.
pub struct UdpConn {
    socket: Arc<UdpSocket>,
    outbox: Arc<SendQueue>,
    /// Datagrams a batched recv drained beyond the one returned.
    inbox: parking_lot::Mutex<VecDeque<(SocketAddr, Frame)>>,
}

impl UdpConn {
    fn from_socket(socket: UdpSocket) -> Self {
        UdpConn {
            socket: Arc::new(socket),
            outbox: SendQueue::new(),
            inbox: parking_lot::Mutex::new(VecDeque::new()),
        }
    }

    /// The local address this connection is bound to.
    pub fn local_addr(&self) -> Result<Addr, Error> {
        Ok(Addr::Udp(self.socket.local_addr()?))
    }
}

impl ChunnelConnection for UdpConn {
    type Data = Datagram;

    fn send(&self, (addr, buf): Datagram) -> BoxFut<'_, Result<(), Error>> {
        Box::pin(async move {
            let sa = expect_udp(&addr)?;
            self.outbox.send(&self.socket, sa, buf).await
        })
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        Box::pin(async move {
            loop {
                if let Some((from, frame)) = self.inbox.lock().pop_front() {
                    return Ok((Addr::Udp(from), frame));
                }
                let msgs = recv_some(&self.socket).await?;
                self.inbox.lock().extend(msgs);
            }
        })
    }
}

/// Server-side UDP transport: binds one socket, yields a connection per
/// remote peer.
#[derive(Clone, Copy, Debug, Default)]
pub struct UdpListener {
    /// Queue depth per peer before the demux drops datagrams (UDP
    /// semantics: overload looks like loss, not backpressure).
    pub per_peer_queue: usize,
}

impl UdpListener {
    /// Listener with the given per-peer queue depth (0 means default: 512).
    pub fn new(per_peer_queue: usize) -> Self {
        UdpListener { per_peer_queue }
    }
}

impl ChunnelListener for UdpListener {
    type Addr = Addr;
    type Connection = UdpPeerConn;
    type Stream = UdpIncoming;

    fn listen(&mut self, addr: Addr) -> BoxFut<'static, Result<Self::Stream, Error>> {
        let queue = if self.per_peer_queue == 0 {
            512
        } else {
            self.per_peer_queue
        };
        Box::pin(async move {
            let sa = expect_udp(&addr)?;
            let socket = Arc::new(UdpSocket::bind(sa).await?);
            let local = socket.local_addr()?;
            let (accept_tx, accept_rx) = mpsc::channel(64);
            tokio::spawn(demux(socket, accept_tx, queue));
            Ok(UdpIncoming {
                inner: RecvStream::new(accept_rx),
                local,
            })
        })
    }
}

/// The stream of incoming per-peer UDP connections. Knows the bound local
/// address, which matters when listening on an ephemeral port.
pub struct UdpIncoming {
    inner: RecvStream<UdpPeerConn>,
    local: SocketAddr,
}

impl UdpIncoming {
    /// The address the listening socket is bound to.
    pub fn local_addr(&self) -> Addr {
        Addr::Udp(self.local)
    }
}

impl ConnStream for UdpIncoming {
    type Connection = UdpPeerConn;

    fn next(&mut self) -> BoxFut<'_, Option<Result<UdpPeerConn, Error>>> {
        self.inner.next()
    }
}

/// The demultiplexed flow from one remote peer on a listening socket.
pub struct UdpPeerConn {
    socket: Arc<UdpSocket>,
    peer: SocketAddr,
    /// Shared with every peer conn on this socket, so concurrent replies
    /// to different peers coalesce into the same `sendmmsg` batches.
    outbox: Arc<SendQueue>,
    inbox: tokio::sync::Mutex<mpsc::Receiver<Frame>>,
}

impl UdpPeerConn {
    /// The remote peer this connection receives from.
    pub fn peer(&self) -> Addr {
        Addr::Udp(self.peer)
    }

    /// The local address of the shared listening socket.
    pub fn local_addr(&self) -> Result<Addr, Error> {
        Ok(Addr::Udp(self.socket.local_addr()?))
    }
}

impl ChunnelConnection for UdpPeerConn {
    type Data = Datagram;

    fn send(&self, (addr, buf): Datagram) -> BoxFut<'_, Result<(), Error>> {
        Box::pin(async move {
            // Replies usually go to the peer, but the address is honored so
            // chunnels (e.g. sharding steer) can redirect.
            let sa = expect_udp(&addr)?;
            self.outbox.send(&self.socket, sa, buf).await
        })
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        Box::pin(async move {
            let mut inbox = self.inbox.lock().await;
            match inbox.recv().await {
                Some(frame) => Ok((Addr::Udp(self.peer), frame)),
                None => Err(Error::ConnectionClosed),
            }
        })
    }
}

async fn demux(
    socket: Arc<UdpSocket>,
    accept_tx: mpsc::Sender<Result<UdpPeerConn, Error>>,
    queue: usize,
) {
    let outbox = SendQueue::new();
    let mut peers: HashMap<SocketAddr, mpsc::Sender<Frame>> = HashMap::new();
    loop {
        let msgs = match recv_some(&socket).await {
            Ok(msgs) => msgs,
            Err(_) => return,
        };
        for (from, frame) in msgs {
            // Drop state for peers whose connection was dropped; a later
            // datagram from the same peer starts a fresh connection.
            if peers.get(&from).map(|tx| tx.is_closed()).unwrap_or(false) {
                peers.remove(&from);
            }

            match peers.get(&from) {
                Some(tx) => {
                    // Full queue: drop, like a UDP socket buffer.
                    let _ = tx.try_send(frame);
                }
                None => {
                    if accept_tx.is_closed() {
                        // Nobody is accepting; if no live peers remain
                        // either, the listener is fully abandoned.
                        if peers.values().all(|tx| tx.is_closed()) {
                            return;
                        }
                        continue;
                    }
                    let (tx, rx) = mpsc::channel(queue);
                    let _ = tx.try_send(frame);
                    let conn = UdpPeerConn {
                        socket: Arc::clone(&socket),
                        peer: from,
                        outbox: Arc::clone(&outbox),
                        inbox: tokio::sync::Mutex::new(rx),
                    };
                    peers.insert(from, tx);
                    // Never block the demux on the accept queue: every
                    // established connection's traffic funnels through this
                    // loop, so a stalled accept consumer must cost only the
                    // *new* peer (whose handshake retry will re-create it),
                    // not everyone.
                    if accept_tx.try_send(Ok(conn)).is_err() {
                        peers.remove(&from);
                    }
                }
            }
        }
    }
}

/// Bind an unconnected UDP socket as a standalone [`UdpConn`] — useful for
/// fixed-address endpoints like shard sockets.
pub async fn bind_udp(addr: &Addr) -> Result<UdpConn, Error> {
    let sa = expect_udp(addr)?;
    let socket = UdpSocket::bind(sa).await?;
    Ok(UdpConn::from_socket(socket))
}

/// Send resolves only after the shared queue has been observed empty, so
/// nothing this connection queued is still buffered when send returns.
impl Drain for UdpConn {}

/// Send resolves only after the shared queue has been observed empty, so
/// nothing this connection queued is still buffered when send returns.
impl Drain for UdpPeerConn {}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopback() -> Addr {
        Addr::Udp("127.0.0.1:0".parse().unwrap())
    }

    async fn bound_listener() -> (Addr, UdpIncoming) {
        let stream = UdpListener::default().listen(loopback()).await.unwrap();
        let addr = stream.local_addr();
        (addr, stream)
    }

    #[tokio::test]
    async fn round_trip() {
        let (addr, mut stream) = bound_listener().await;
        let client = UdpConnector.connect(addr.clone()).await.unwrap();
        client.send((addr.clone(), b"hello".into())).await.unwrap();

        let server_conn = stream.next().await.unwrap().unwrap();
        let (from, data) = server_conn.recv().await.unwrap();
        assert_eq!(data, b"hello");
        server_conn.send((from, b"world".into())).await.unwrap();
        let (_, data) = client.recv().await.unwrap();
        assert_eq!(data, b"world");
    }

    #[tokio::test]
    async fn demux_separates_peers() {
        let (addr, mut stream) = bound_listener().await;
        let c1 = UdpConnector.connect(addr.clone()).await.unwrap();
        let c2 = UdpConnector.connect(addr.clone()).await.unwrap();
        c1.send((addr.clone(), b"one".into())).await.unwrap();
        let s1 = stream.next().await.unwrap().unwrap();
        c2.send((addr.clone(), b"two".into())).await.unwrap();
        let s2 = stream.next().await.unwrap().unwrap();

        let (_, d1) = s1.recv().await.unwrap();
        let (_, d2) = s2.recv().await.unwrap();
        assert_eq!(d1, b"one");
        assert_eq!(d2, b"two");
        assert_ne!(s1.peer(), s2.peer());
    }

    #[tokio::test]
    async fn many_datagrams_survive_batching() {
        // Enough traffic that the batched path must run several sendmmsg /
        // recvmmsg rounds; every datagram must arrive intact and in order
        // (loopback UDP preserves order within one socket pair).
        let (addr, mut stream) = bound_listener().await;
        let client = UdpConnector.connect(addr.clone()).await.unwrap();
        for i in 0..200u8 {
            client
                .send((addr.clone(), vec![i, i.wrapping_add(1)].into()))
                .await
                .unwrap();
        }
        let server_conn = stream.next().await.unwrap().unwrap();
        for i in 0..200u8 {
            let (_, data) = server_conn.recv().await.unwrap();
            assert_eq!(data, vec![i, i.wrapping_add(1)]);
        }
    }

    #[tokio::test]
    async fn oversized_datagram_rejected() {
        let (addr, _stream) = bound_listener().await;
        let conn = UdpConnector.connect(addr.clone()).await.unwrap();
        let big = vec![0u8; crate::MAX_DATAGRAM + 1];
        assert!(conn.send((addr, big.into())).await.is_err());
    }

    #[tokio::test]
    async fn connector_matches_remote_address_family() {
        // IPv6 loopback remote must get an IPv6 socket (an AF_INET socket
        // cannot send to ::1).
        let v6: SocketAddr = "[::1]:9".parse().unwrap();
        assert!(local_bind_for(v6).is_ipv6());
        assert!(local_bind_for(v6).ip().is_loopback());
        let v4: SocketAddr = "127.0.0.1:9".parse().unwrap();
        assert!(local_bind_for(v4).is_ipv4());
        let v6g: SocketAddr = "[2001:db8::1]:9".parse().unwrap();
        assert!(local_bind_for(v6g).is_ipv6());
        // End to end over the v6 loopback when the host supports it.
        if let Ok(l) = UdpSocket::bind("[::1]:0").await {
            let srv_addr = Addr::Udp(l.local_addr().unwrap());
            let conn = UdpConnector.connect(srv_addr.clone()).await.unwrap();
            conn.send((srv_addr, b"v6".into())).await.unwrap();
            let mut buf = [0u8; 8];
            let (n, _) = l.recv_from(&mut buf).await.unwrap();
            assert_eq!(&buf[..n], b"v6");
        }
    }

    #[tokio::test]
    async fn batched_recv_reports_ipv6_source() {
        // recvmmsg decodes the raw sockaddr by hand; make sure the v6
        // branch round-trips (the v4 one is exercised everywhere else).
        if let Ok(l) = UdpSocket::bind("[::1]:0").await {
            let srv = UdpConn::from_socket(l);
            let cli_sock = UdpSocket::bind("[::1]:0").await.unwrap();
            let cli_addr = cli_sock.local_addr().unwrap();
            let cli = UdpConn::from_socket(cli_sock);
            let srv_addr = srv.local_addr().unwrap();
            cli.send((srv_addr, b"six".into())).await.unwrap();
            let (from, data) = srv.recv().await.unwrap();
            assert_eq!(data, b"six");
            assert_eq!(from, Addr::Udp(cli_addr));
        }
    }

    #[tokio::test]
    async fn connect_to_non_udp_addr_fails() {
        assert!(UdpConnector.connect(Addr::Mem("x".into())).await.is_err());
        let _ = loopback();
    }
}
