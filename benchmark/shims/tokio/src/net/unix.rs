//! Unix-domain sockets.

use crate::driver::{Registration, READABLE, WRITABLE};
use std::io;
use std::os::fd::{AsFd, AsRawFd, BorrowedFd, RawFd};
use std::path::Path;

/// A Unix socket address (std's type: `as_pathname`, `is_unnamed`).
pub use std::os::unix::net::SocketAddr;

/// A Unix datagram socket.
pub struct UnixDatagram {
    // Declared before `inner`: deregisters before the descriptor closes.
    reg: Registration,
    inner: std::os::unix::net::UnixDatagram,
}

impl UnixDatagram {
    /// Bind to `path` on the current runtime.
    pub fn bind(path: impl AsRef<Path>) -> io::Result<UnixDatagram> {
        UnixDatagram::from_std(std::os::unix::net::UnixDatagram::bind(path)?)
    }

    /// An unbound socket (can send, cannot be replied to).
    pub fn unbound() -> io::Result<UnixDatagram> {
        UnixDatagram::from_std(std::os::unix::net::UnixDatagram::unbound()?)
    }

    /// Adopt a std socket, switching it to non-blocking mode.
    pub fn from_std(socket: std::os::unix::net::UnixDatagram) -> io::Result<UnixDatagram> {
        socket.set_nonblocking(true)?;
        let reg = Registration::new(socket.as_raw_fd())?;
        Ok(UnixDatagram { reg, inner: socket })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Send one datagram to the socket bound at `path`.
    pub async fn send_to(&self, buf: &[u8], path: impl AsRef<Path>) -> io::Result<usize> {
        let path = path.as_ref();
        self.reg
            .async_io(WRITABLE, || self.inner.send_to(buf, path))
            .await
    }

    /// Receive one datagram and its source.
    pub async fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.reg
            .async_io(READABLE, || self.inner.recv_from(buf))
            .await
    }
}

impl AsRawFd for UnixDatagram {
    fn as_raw_fd(&self) -> RawFd {
        self.inner.as_raw_fd()
    }
}

impl AsFd for UnixDatagram {
    fn as_fd(&self) -> BorrowedFd<'_> {
        self.inner.as_fd()
    }
}

impl std::fmt::Debug for UnixDatagram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}
