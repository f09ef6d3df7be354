//! Non-blocking sockets on the runtime's epoll driver: [`UdpSocket`],
//! [`UnixDatagram`], [`TcpStream`] and [`TcpListener`].
//!
//! Each wraps the std socket in non-blocking mode plus a driver
//! registration. An operation tries the syscall, and on `WouldBlock`
//! waits for the (edge-triggered) readiness event before retrying, so
//! every async method is cancel-safe.

pub mod tcp;
mod udp;
pub mod unix;

pub use tcp::{TcpListener, TcpStream};
pub use udp::UdpSocket;
pub use unix::UnixDatagram;

/// Addresses accepted by `bind`/`connect`/`send_to`; std's resolution
/// trait (lookups of host names would block, the workspace passes
/// literal addresses).
pub use std::net::ToSocketAddrs;

fn first_addr(addr: impl ToSocketAddrs) -> std::io::Result<std::net::SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no addresses to bind or send to",
        )
    })
}
