//! Offline stand-in for the `tokio` crate.
//!
//! The benchmark must build where no crate registry is reachable, so the
//! workspace's async runtime is replaced by this small one (see
//! `benchmark/README.md`, "Stand-in crates"). It keeps tokio's names and
//! semantics for the surface the Bertha workspace uses:
//!
//! - [`runtime`]: a multi-thread scheduler (global run queue, per-worker
//!   LIFO slot, idle workers take turns blocking in `epoll_wait`);
//! - [`task`]: [`spawn`], `JoinHandle`, `AbortHandle`, `JoinSet`;
//! - [`time`]: `sleep`, `timeout`, `interval`, with tokio's 1 ms timer
//!   granularity;
//! - [`sync`]: async `Mutex`, bounded `mpsc`, `oneshot`, `watch`, `Notify`;
//! - [`net`]: `UdpSocket`, `UnixDatagram`, `TcpStream`/`TcpListener`, on
//!   edge-triggered epoll readiness;
//! - [`select!`], [`join!`] and [`pin!`].
//!
//! Linux only: the reactor is written against `epoll`/`eventfd`.
//! Differences a caller could observe are listed in the README; the main
//! ones are that `select!` polls its branches in source order and that a
//! current-thread runtime is a one-worker multi-thread runtime.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("the offline tokio stand-in drives epoll and only builds on Linux");

mod driver;
#[doc(hidden)]
pub mod macros;

pub mod io;
pub mod net;
pub mod runtime;
pub mod sync;
pub mod task;
pub mod time;

pub use task::spawn;
