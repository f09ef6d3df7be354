//! Behavioural tests for the tokio stand-in: the semantics the Bertha
//! workspace leans on (notify-before-poll, cancel-safety in `select!`,
//! abort, FIFO mutex, timer ordering, UDP readiness) on a real
//! two-worker runtime.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::sync::{mpsc, oneshot, watch, Mutex, Notify};

fn rt() -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .unwrap()
}

#[test]
fn spawn_join_and_panic_capture() {
    let rt = rt();
    rt.block_on(async {
        let h = tokio::spawn(async { 6 * 7 });
        assert_eq!(h.await.unwrap(), 42);
        let p = tokio::spawn(async { panic!("boom") });
        let err = p.await.unwrap_err();
        assert!(err.is_panic());
        assert!(err.to_string().contains("boom"));
    });
}

#[test]
fn many_tasks_all_run() {
    let rt = rt();
    let count = Arc::new(AtomicUsize::new(0));
    rt.block_on(async {
        let mut hs = Vec::new();
        for _ in 0..1000 {
            let c = Arc::clone(&count);
            hs.push(tokio::spawn(async move {
                tokio::task::yield_now().await;
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        for h in hs {
            h.await.unwrap();
        }
    });
    assert_eq!(count.load(Ordering::Relaxed), 1000);
}

#[test]
fn abort_cancels_and_drops_future() {
    struct SetOnDrop(Arc<AtomicUsize>);
    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let rt = rt();
    let dropped = Arc::new(AtomicUsize::new(0));
    rt.block_on(async {
        let guard = SetOnDrop(Arc::clone(&dropped));
        let h = tokio::spawn(async move {
            let _g = guard;
            tokio::time::sleep(Duration::from_secs(3600)).await;
        });
        tokio::time::sleep(Duration::from_millis(5)).await;
        assert!(!h.is_finished());
        h.abort();
        let err = h.await.unwrap_err();
        assert!(err.is_cancelled());
    });
    assert_eq!(dropped.load(Ordering::SeqCst), 1);
}

#[test]
fn sleep_and_timeout() {
    let rt = rt();
    rt.block_on(async {
        let t0 = Instant::now();
        tokio::time::sleep(Duration::from_millis(20)).await;
        let took = t0.elapsed();
        assert!(took >= Duration::from_millis(20), "woke early: {took:?}");
        assert!(took < Duration::from_millis(500), "woke late: {took:?}");

        let slow = tokio::time::timeout(Duration::from_millis(10), async {
            tokio::time::sleep(Duration::from_secs(5)).await;
        })
        .await;
        assert!(slow.is_err());
        let fast = tokio::time::timeout(Duration::from_secs(5), async { 3 }).await;
        assert_eq!(fast.unwrap(), 3);
    });
}

#[test]
fn timers_fire_in_deadline_order_from_many_tasks() {
    let rt = rt();
    rt.block_on(async {
        let (tx, mut rx) = mpsc::channel(64);
        for ms in [30u64, 10, 20, 5, 25, 15] {
            let tx = tx.clone();
            tokio::spawn(async move {
                tokio::time::sleep(Duration::from_millis(ms)).await;
                tx.send(ms).await.unwrap();
            });
        }
        drop(tx);
        let mut got = Vec::new();
        while let Some(ms) = rx.recv().await {
            got.push(ms);
        }
        assert_eq!(got, [5, 10, 15, 20, 25, 30]);
    });
}

#[test]
fn interval_ticks() {
    let rt = rt();
    rt.block_on(async {
        let mut iv = tokio::time::interval(Duration::from_millis(5));
        iv.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Skip);
        let t0 = Instant::now();
        for _ in 0..4 {
            iv.tick().await;
        }
        // First tick is immediate, then three periods.
        assert!(t0.elapsed() >= Duration::from_millis(15));
    });
}

#[test]
fn mpsc_backpressure_and_close() {
    let rt = rt();
    rt.block_on(async {
        let (tx, mut rx) = mpsc::channel::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(
            tx.try_send(3),
            Err(mpsc::error::TrySendError::Full(3))
        ));
        assert_eq!(tx.capacity(), 0);
        let tx2 = tx.clone();
        let blocked = tokio::spawn(async move { tx2.send(3).await });
        tokio::time::sleep(Duration::from_millis(5)).await;
        assert!(!blocked.is_finished());
        assert_eq!(rx.recv().await, Some(1));
        blocked.await.unwrap().unwrap();
        assert_eq!(rx.recv().await, Some(2));
        assert_eq!(rx.recv().await, Some(3));
        drop(tx);
        assert_eq!(rx.recv().await, None);

        let (tx, rx) = mpsc::channel::<u32>(1);
        assert!(!tx.is_closed());
        drop(rx);
        assert!(tx.is_closed());
        assert!(tx.send(1).await.is_err());
    });
}

#[test]
fn oneshot_and_watch() {
    let rt = rt();
    rt.block_on(async {
        let (tx, rx) = oneshot::channel();
        tokio::spawn(async move { tx.send(9).unwrap() });
        assert_eq!(rx.await.unwrap(), 9);
        let (tx, rx) = oneshot::channel::<u8>();
        drop(tx);
        assert!(rx.await.is_err());

        let (tx, mut rx) = watch::channel(0u32);
        assert!(!rx.has_changed().unwrap());
        let waiter = tokio::spawn(async move {
            rx.changed().await.unwrap();
            *rx.borrow_and_update()
        });
        tokio::time::sleep(Duration::from_millis(5)).await;
        assert_eq!(tx.send_replace(7), 0);
        assert_eq!(waiter.await.unwrap(), 7);
        let mut late = tx.subscribe();
        assert!(!late.has_changed().unwrap());
        drop(tx);
        assert!(late.changed().await.is_err());
    });
}

#[test]
fn async_mutex_is_exclusive_and_fifo() {
    let rt = rt();
    rt.block_on(async {
        let m = Arc::new(Mutex::new(Vec::<u32>::new()));
        let held = m.lock().await;
        let mut hs = Vec::new();
        for i in 0..5u32 {
            let m = Arc::clone(&m);
            hs.push(tokio::spawn(async move {
                m.lock().await.push(i);
            }));
            // Let task i queue before i+1 is spawned.
            tokio::time::sleep(Duration::from_millis(3)).await;
        }
        assert!(m.try_lock().is_err());
        drop(held);
        for h in hs {
            h.await.unwrap();
        }
        assert_eq!(*m.lock().await, [0, 1, 2, 3, 4]);
    });
}

#[test]
fn notify_waiters_reaches_futures_created_but_not_polled() {
    // The workspace registers `notified()` before checking state and only
    // then awaits it; a `notify_waiters` in between must not be lost.
    let rt = rt();
    rt.block_on(async {
        let n = Notify::new();
        let fut = n.notified();
        n.notify_waiters();
        tokio::time::timeout(Duration::from_millis(200), fut)
            .await
            .expect("notification was lost");
        // ...but it stores no permit for futures created afterwards.
        let later = n.notified();
        assert!(tokio::time::timeout(Duration::from_millis(10), later)
            .await
            .is_err());
        // notify_one does store a permit.
        n.notify_one();
        tokio::time::timeout(Duration::from_millis(200), n.notified())
            .await
            .expect("permit was lost");
    });
}

#[test]
fn notify_one_passes_on_when_waiter_is_dropped() {
    let rt = rt();
    rt.block_on(async {
        let n = Notify::new();
        let mut doomed = Box::pin(n.notified());
        // One poll queues it as a waiter.
        let pending = std::future::poll_fn(|cx| {
            std::task::Poll::Ready(std::future::Future::poll(doomed.as_mut(), cx).is_pending())
        })
        .await;
        assert!(pending);
        n.notify_one();
        drop(doomed);
        tokio::time::timeout(Duration::from_millis(200), n.notified())
            .await
            .expect("notification died with the dropped waiter");
    });
}

#[test]
fn select_runs_first_ready_and_cancels_rest() {
    let rt = rt();
    rt.block_on(async {
        let (tx, mut rx) = mpsc::channel::<u32>(4);
        let n = Notify::new();
        // Loser branch is cancelled; its channel stays usable.
        let out = tokio::select! {
            v = rx.recv() => v,
            _ = tokio::time::sleep(Duration::from_millis(5)) => Some(0),
        };
        assert_eq!(out, Some(0));
        tx.send(5).await.unwrap();
        let mut seen = 0;
        loop {
            let notified = n.notified();
            tokio::select! {
                v = rx.recv() => {
                    seen = v.unwrap();
                    // Stored as a permit: the next iteration's `notified`
                    // takes it.
                    n.notify_one();
                    continue;
                }
                _ = notified, if seen != 0 => break,
            }
        }
        assert_eq!(seen, 5);
        // Preconditions disable branches; `else` runs when none is left.
        let r = tokio::select! {
            _ = tokio::time::sleep(Duration::from_secs(60)), if false => 1,
            else => 2,
        };
        assert_eq!(r, 2);
    });
}

#[test]
fn join_macro_and_joinset() {
    let rt = rt();
    rt.block_on(async {
        let (a, b) = tokio::join!(async { 1 }, async {
            tokio::time::sleep(Duration::from_millis(2)).await;
            "two"
        });
        assert_eq!((a, b), (1, "two"));

        let mut set = tokio::task::JoinSet::new();
        for i in 0..8u64 {
            set.spawn(async move {
                tokio::time::sleep(Duration::from_millis(8 - i)).await;
                i
            });
        }
        let mut sum = 0;
        while let Some(r) = set.join_next().await {
            sum += r.unwrap();
        }
        assert_eq!(sum, 28);
        assert!(set.is_empty());
    });
}

#[test]
fn udp_echo_and_try_io() {
    let rt = rt();
    rt.block_on(async {
        let server = tokio::net::UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let addr = server.local_addr().unwrap();
        let echo = tokio::spawn(async move {
            let mut buf = [0u8; 2048];
            for _ in 0..200 {
                let (n, from) = server.recv_from(&mut buf).await.unwrap();
                server.send_to(&buf[..n], from).await.unwrap();
            }
        });
        let client = tokio::net::UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let mut buf = [0u8; 2048];
        for i in 0..200u32 {
            client.send_to(&i.to_le_bytes(), addr).await.unwrap();
            let (n, _) = tokio::time::timeout(Duration::from_secs(5), client.recv_from(&mut buf))
                .await
                .expect("echo timed out")
                .unwrap();
            assert_eq!(buf[..n], i.to_le_bytes());
        }
        echo.await.unwrap();
        // Nothing queued: try_io reports WouldBlock and clears readiness,
        // so `ready` then waits for a fresh datagram.
        use tokio::io::Interest;
        let err = client
            .try_io(Interest::READABLE, || {
                Err::<(), _>(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            })
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert!(
            tokio::time::timeout(Duration::from_millis(10), client.ready(Interest::READABLE))
                .await
                .is_err()
        );
    });
}

#[test]
fn unix_datagram_round_trip() {
    let rt = rt();
    let dir = std::env::temp_dir().join(format!("tokio-shim-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (pa, pb) = (dir.join("a.sock"), dir.join("b.sock"));
    rt.block_on(async {
        let a = tokio::net::UnixDatagram::bind(&pa).unwrap();
        let b = tokio::net::UnixDatagram::bind(&pb).unwrap();
        a.send_to(b"ping", &pb).await.unwrap();
        let mut buf = [0u8; 16];
        let (n, from) = b.recv_from(&mut buf).await.unwrap();
        assert_eq!(&buf[..n], b"ping");
        assert_eq!(from.as_pathname(), Some(pa.as_path()));
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tcp_length_prefixed_exchange() {
    use tokio::io::{AsyncReadExt, AsyncWriteExt};
    let rt = rt();
    rt.block_on(async {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = tokio::spawn(async move {
            let (stream, _) = listener.accept().await.unwrap();
            let (mut rd, mut wr) = stream.into_split();
            let len = rd.read_u32().await.unwrap() as usize;
            let mut body = vec![0u8; len];
            rd.read_exact(&mut body).await.unwrap();
            wr.write_all(&body).await.unwrap();
        });
        let stream = tokio::net::TcpStream::connect(addr).await.unwrap();
        stream.set_nodelay(true).unwrap();
        let (mut rd, mut wr) = stream.into_split();
        let payload = vec![7u8; 300_000];
        wr.write_u32(payload.len() as u32).await.unwrap();
        wr.write_all(&payload).await.unwrap();
        let mut back = vec![0u8; payload.len()];
        rd.read_exact(&mut back).await.unwrap();
        assert_eq!(back, payload);
        server.await.unwrap();
    });
}

#[test]
fn runtime_drop_stops_workers_and_drops_tasks() {
    struct SetOnDrop(Arc<AtomicUsize>);
    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let dropped = Arc::new(AtomicUsize::new(0));
    let rt = rt();
    let guard = SetOnDrop(Arc::clone(&dropped));
    rt.spawn(async move {
        let _g = guard;
        tokio::time::sleep(Duration::from_secs(3600)).await;
    });
    rt.block_on(async { tokio::time::sleep(Duration::from_millis(5)).await });
    drop(rt);
    assert_eq!(dropped.load(Ordering::SeqCst), 1);
}
