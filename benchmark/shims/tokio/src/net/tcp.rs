//! TCP streams and listeners.

use super::first_addr;
use crate::driver::{Registration, READABLE, WRITABLE};
use crate::io::{AsyncRead, AsyncWrite};
use std::future::Future;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::Arc;

/// A TCP listener.
pub struct TcpListener {
    // Declared before `inner`: deregisters before the descriptor closes.
    reg: Registration,
    inner: std::net::TcpListener,
}

impl TcpListener {
    /// Bind and listen on `addr`.
    pub async fn bind(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
        let inner = std::net::TcpListener::bind(first_addr(addr)?)?;
        inner.set_nonblocking(true)?;
        let reg = Registration::new(inner.as_raw_fd())?;
        Ok(TcpListener { reg, inner })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Accept the next connection.
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        let (stream, peer) = self.reg.async_io(READABLE, || self.inner.accept()).await?;
        Ok((TcpStream::from_std(stream)?, peer))
    }
}

struct StreamInner {
    // Declared before `socket`: deregisters before the descriptor closes.
    reg: Registration,
    socket: std::net::TcpStream,
}

impl StreamInner {
    async fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        self.reg
            .async_io(READABLE, || (&self.socket).read(buf))
            .await
    }

    async fn write(&self, buf: &[u8]) -> io::Result<usize> {
        self.reg
            .async_io(WRITABLE, || (&self.socket).write(buf))
            .await
    }
}

/// A TCP connection.
pub struct TcpStream {
    inner: Arc<StreamInner>,
}

impl TcpStream {
    /// Connect to `addr`. (The connect itself blocks the calling worker
    /// for the handshake; the workspace only dials loopback.)
    pub async fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
        TcpStream::from_std(std::net::TcpStream::connect(first_addr(addr)?)?)
    }

    /// Adopt a connected std stream, switching it to non-blocking mode.
    pub fn from_std(socket: std::net::TcpStream) -> io::Result<TcpStream> {
        socket.set_nonblocking(true)?;
        let reg = Registration::new(socket.as_raw_fd())?;
        Ok(TcpStream {
            inner: Arc::new(StreamInner { reg, socket }),
        })
    }

    /// The local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.socket.local_addr()
    }

    /// The peer's address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.socket.peer_addr()
    }

    /// Set `TCP_NODELAY`.
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.inner.socket.set_nodelay(nodelay)
    }

    /// Split into independently owned read and write halves.
    pub fn into_split(self) -> (OwnedReadHalf, OwnedWriteHalf) {
        (
            OwnedReadHalf {
                inner: Arc::clone(&self.inner),
            },
            OwnedWriteHalf { inner: self.inner },
        )
    }
}

impl AsyncRead for TcpStream {
    fn read_some<'a>(
        &'a mut self,
        buf: &'a mut [u8],
    ) -> impl Future<Output = io::Result<usize>> + Send + 'a {
        self.inner.read(buf)
    }
}

impl AsyncWrite for TcpStream {
    fn write_some<'a>(
        &'a mut self,
        buf: &'a [u8],
    ) -> impl Future<Output = io::Result<usize>> + Send + 'a {
        self.inner.write(buf)
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        self.inner.socket.shutdown(Shutdown::Write)
    }
}

/// The read half of a split [`TcpStream`].
pub struct OwnedReadHalf {
    inner: Arc<StreamInner>,
}

/// The write half of a split [`TcpStream`]; shuts the write side down
/// when dropped.
pub struct OwnedWriteHalf {
    inner: Arc<StreamInner>,
}

impl AsyncRead for OwnedReadHalf {
    fn read_some<'a>(
        &'a mut self,
        buf: &'a mut [u8],
    ) -> impl Future<Output = io::Result<usize>> + Send + 'a {
        self.inner.read(buf)
    }
}

impl AsyncWrite for OwnedWriteHalf {
    fn write_some<'a>(
        &'a mut self,
        buf: &'a [u8],
    ) -> impl Future<Output = io::Result<usize>> + Send + 'a {
        self.inner.write(buf)
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        self.inner.socket.shutdown(Shutdown::Write)
    }
}

impl Drop for OwnedWriteHalf {
    fn drop(&mut self) {
        // Already-closed or reset connections report an error here; the
        // peer learns of the close either way.
        let _ = self.inner.socket.shutdown(Shutdown::Write);
    }
}

impl OwnedReadHalf {
    /// The peer's address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.socket.peer_addr()
    }
}

impl OwnedWriteHalf {
    /// The peer's address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.socket.peer_addr()
    }
}
