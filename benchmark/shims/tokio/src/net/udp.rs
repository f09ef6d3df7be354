use super::first_addr;
use crate::driver::{Registration, READABLE, WRITABLE};
use crate::io::{Interest, Ready};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::os::fd::{AsFd, AsRawFd, BorrowedFd, RawFd};

/// A UDP socket.
pub struct UdpSocket {
    // Declared before `inner`: deregisters before the descriptor closes.
    reg: Registration,
    inner: std::net::UdpSocket,
}

impl UdpSocket {
    /// Bind to `addr` on the current runtime.
    pub async fn bind(addr: impl ToSocketAddrs) -> io::Result<UdpSocket> {
        UdpSocket::from_std(std::net::UdpSocket::bind(first_addr(addr)?)?)
    }

    /// Adopt a std socket, switching it to non-blocking mode.
    pub fn from_std(socket: std::net::UdpSocket) -> io::Result<UdpSocket> {
        socket.set_nonblocking(true)?;
        let reg = Registration::new(socket.as_raw_fd())?;
        Ok(UdpSocket { reg, inner: socket })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Fix the peer for `send`/`recv`.
    pub async fn connect(&self, addr: impl ToSocketAddrs) -> io::Result<()> {
        self.inner.connect(first_addr(addr)?)
    }

    /// Send one datagram to `target`.
    pub async fn send_to(&self, buf: &[u8], target: impl ToSocketAddrs) -> io::Result<usize> {
        let target = first_addr(target)?;
        self.reg
            .async_io(WRITABLE, || self.inner.send_to(buf, target))
            .await
    }

    /// Receive one datagram and its source.
    pub async fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.reg
            .async_io(READABLE, || self.inner.recv_from(buf))
            .await
    }

    /// Send one datagram to the connected peer.
    pub async fn send(&self, buf: &[u8]) -> io::Result<usize> {
        self.reg.async_io(WRITABLE, || self.inner.send(buf)).await
    }

    /// Receive one datagram from the connected peer.
    pub async fn recv(&self, buf: &mut [u8]) -> io::Result<usize> {
        self.reg.async_io(READABLE, || self.inner.recv(buf)).await
    }

    /// Send without waiting; `WouldBlock` if the socket is not writable.
    pub fn try_send_to(&self, buf: &[u8], target: SocketAddr) -> io::Result<usize> {
        self.reg
            .try_io(WRITABLE, || self.inner.send_to(buf, target))
    }

    /// Receive without waiting; `WouldBlock` if nothing is queued.
    pub fn try_recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.reg.try_io(READABLE, || self.inner.recv_from(buf))
    }

    /// Wait until the socket is ready for `interest`.
    pub async fn ready(&self, interest: Interest) -> io::Result<Ready> {
        let ev = std::future::poll_fn(|cx| self.reg.io().poll_ready(interest.0, cx)).await;
        Ok(Ready(ev.bits))
    }

    /// Wait until the socket is readable.
    pub async fn readable(&self) -> io::Result<()> {
        self.ready(Interest::READABLE).await.map(|_| ())
    }

    /// Wait until the socket is writable.
    pub async fn writable(&self) -> io::Result<()> {
        self.ready(Interest::WRITABLE).await.map(|_| ())
    }

    /// Run a non-blocking syscall `op` against the descriptor if
    /// `interest` is ready. `WouldBlock` (from the readiness check or
    /// from `op`) clears the readiness so the next [`UdpSocket::ready`]
    /// waits for a fresh event.
    pub fn try_io<R>(
        &self,
        interest: Interest,
        op: impl FnOnce() -> io::Result<R>,
    ) -> io::Result<R> {
        self.reg.try_io(interest.0, op)
    }
}

impl AsRawFd for UdpSocket {
    fn as_raw_fd(&self) -> RawFd {
        self.inner.as_raw_fd()
    }
}

impl AsFd for UdpSocket {
    fn as_fd(&self) -> BorrowedFd<'_> {
        self.inner.as_fd()
    }
}

impl std::fmt::Debug for UdpSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}
