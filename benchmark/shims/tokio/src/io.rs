//! I/O helpers: [`Interest`], and the read/write extension traits over
//! the stream types in [`crate::net`].

use std::future::Future;
use std::io;
use std::ops::BitOr;

/// Which readiness an operation waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(pub(crate) usize);

impl Interest {
    /// Readable readiness.
    pub const READABLE: Interest = Interest(crate::driver::READABLE);
    /// Writable readiness.
    pub const WRITABLE: Interest = Interest(crate::driver::WRITABLE);

    /// Whether readable readiness is included.
    pub fn is_readable(self) -> bool {
        self.0 & crate::driver::READABLE != 0
    }

    /// Whether writable readiness is included.
    pub fn is_writable(self) -> bool {
        self.0 & crate::driver::WRITABLE != 0
    }
}

impl BitOr for Interest {
    type Output = Interest;
    fn bitor(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }
}

/// The readiness a [`ready`](crate::net::UdpSocket::ready) call observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ready(pub(crate) usize);

impl Ready {
    /// Whether the descriptor was readable.
    pub fn is_readable(self) -> bool {
        self.0 & crate::driver::READABLE != 0
    }

    /// Whether the descriptor was writable.
    pub fn is_writable(self) -> bool {
        self.0 & crate::driver::WRITABLE != 0
    }
}

/// A byte source that reads without blocking the thread.
pub trait AsyncRead {
    /// Read some bytes into `buf`; `Ok(0)` means end of stream.
    fn read_some<'a>(
        &'a mut self,
        buf: &'a mut [u8],
    ) -> impl Future<Output = io::Result<usize>> + Send + 'a;
}

/// A byte sink that writes without blocking the thread.
pub trait AsyncWrite {
    /// Write some bytes from `buf`.
    fn write_some<'a>(
        &'a mut self,
        buf: &'a [u8],
    ) -> impl Future<Output = io::Result<usize>> + Send + 'a;

    /// Shut down the write side.
    fn shutdown_write(&mut self) -> io::Result<()>;
}

/// Convenience reads on every [`AsyncRead`].
pub trait AsyncReadExt: AsyncRead {
    /// Read some bytes; `Ok(0)` means end of stream.
    fn read<'a>(
        &'a mut self,
        buf: &'a mut [u8],
    ) -> impl Future<Output = io::Result<usize>> + Send + 'a
    where
        Self: Send,
    {
        self.read_some(buf)
    }

    /// Fill `buf` completely, or fail with `UnexpectedEof`.
    fn read_exact<'a>(
        &'a mut self,
        buf: &'a mut [u8],
    ) -> impl Future<Output = io::Result<usize>> + Send + 'a
    where
        Self: Send,
    {
        async move {
            let mut filled = 0;
            while filled < buf.len() {
                match self.read_some(&mut buf[filled..]).await? {
                    0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                    n => filled += n,
                }
            }
            Ok(filled)
        }
    }

    /// Read a big-endian `u32`.
    fn read_u32(&mut self) -> impl Future<Output = io::Result<u32>> + Send + '_
    where
        Self: Send,
    {
        async move {
            let mut b = [0u8; 4];
            self.read_exact(&mut b).await?;
            Ok(u32::from_be_bytes(b))
        }
    }
}

impl<R: AsyncRead + ?Sized> AsyncReadExt for R {}

/// Convenience writes on every [`AsyncWrite`].
pub trait AsyncWriteExt: AsyncWrite {
    /// Write some bytes.
    fn write<'a>(&'a mut self, buf: &'a [u8]) -> impl Future<Output = io::Result<usize>> + Send + 'a
    where
        Self: Send,
    {
        self.write_some(buf)
    }

    /// Write all of `buf`.
    fn write_all<'a>(
        &'a mut self,
        buf: &'a [u8],
    ) -> impl Future<Output = io::Result<()>> + Send + 'a
    where
        Self: Send,
    {
        async move {
            let mut sent = 0;
            while sent < buf.len() {
                match self.write_some(&buf[sent..]).await? {
                    0 => return Err(io::ErrorKind::WriteZero.into()),
                    n => sent += n,
                }
            }
            Ok(())
        }
    }

    /// Write a big-endian `u32`.
    fn write_u32(&mut self, v: u32) -> impl Future<Output = io::Result<()>> + Send + '_
    where
        Self: Send,
    {
        async move { self.write_all(&v.to_be_bytes()).await }
    }

    /// Nothing is buffered here; completes immediately.
    fn flush(&mut self) -> impl Future<Output = io::Result<()>> + Send + '_
    where
        Self: Send,
    {
        async move { Ok(()) }
    }

    /// Shut down the write side.
    fn shutdown(&mut self) -> impl Future<Output = io::Result<()>> + Send + '_
    where
        Self: Send,
    {
        async move { self.shutdown_write() }
    }
}

impl<W: AsyncWrite + ?Sized> AsyncWriteExt for W {}
