//! The three echo workloads: `echo_64b`, `bulk_8k_stack`, `echo_64b_loss`.
//!
//! All three run two client connections against one negotiated echo
//! server over loopback UDP; each client keeps a fixed window of messages
//! outstanding (a closed loop: a new message goes out only when a reply,
//! or a deadline, retires an old one). They differ in the stack
//! negotiated, the message size, and whether the client's path is lossy.

use super::{op_id, raw, serve_echo, Raw, Stack, Tasks};
use crate::gen::{subseed, verify_echo, Bodies, Fill};
use crate::harness::{Ctl, Metric, Phase, Tally, Workload};
use crate::trace::{self, traced, Traced};
use bertha::conn::{ChunnelConnection, DynConn};
use bertha::cx::{CxList, CxNil};
use bertha::negotiate::{negotiate_client, NegotiateOpts};
use bertha::{Addr, Chunnel, ChunnelConnector, ChunnelListener, Frame};
use bertha_chunnels::frag::FragConfig;
use bertha_chunnels::reliable::ReliabilityConfig;
use bertha_chunnels::{CompressChunnel, CryptChunnel, FragChunnel, ReliabilityChunnel};
use bertha_transport::fault::{FaultChunnel, FaultConfig};
use bertha_transport::udp::{UdpConnector, UdpListener};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections per workload: fixed, not scaled by core count.
pub const CLIENTS: usize = 2;
/// Distinct message bodies generated per run.
const BODY_POOL: usize = 64;

/// Which of the three echo workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Empty stack, 64-byte messages.
    Bare,
    /// `compress |> crypt |> frag |> reliable`, 8 KiB messages.
    Bulk,
    /// `reliable` over a lossy, reordering path, 64-byte messages.
    Loss,
}

/// An echo workload's fixed parameters.
pub struct Echo {
    pub kind: Kind,
    name: &'static str,
    msg_size: usize,
    window: usize,
    /// An op with no verified reply this long after it was sent has failed.
    deadline: Duration,
    warm_ops: u64,
    fill: Fill,
}

impl Echo {
    pub fn new(kind: Kind) -> Self {
        match kind {
            Kind::Bare => Echo {
                kind,
                name: "echo_64b",
                msg_size: 64,
                window: 32,
                deadline: Duration::from_millis(250),
                warm_ops: 4_000,
                fill: Fill::Random,
            },
            Kind::Bulk => Echo {
                kind,
                name: "bulk_8k_stack",
                msg_size: 8 * 1024,
                window: 8,
                deadline: Duration::from_millis(250),
                warm_ops: 400,
                fill: Fill::HalfText,
            },
            // Recovery from one loss takes an RTO (100 ms, doubling); the
            // op is "delivered exactly once and echoed", so its deadline
            // is the ARQ's whole patience, not one round trip.
            Kind::Loss => Echo {
                kind,
                name: "echo_64b_loss",
                msg_size: 64,
                window: 32,
                deadline: Duration::from_secs(2),
                warm_ops: 400,
                fill: Fill::Random,
            },
        }
    }
}

/// [`bulk_stack`]'s type, spelled out: lanes are spawned tasks, and an
/// opaque `impl Stack` does not survive the `'static` bound there.
pub type BulkStack = CxList<
    Traced<CompressChunnel>,
    CxList<
        Traced<CryptChunnel>,
        CxList<Traced<FragChunnel>, CxList<Traced<ReliabilityChunnel>, CxNil>>,
    >,
>;

/// The four-slot stack of `bulk_8k_stack`, each layer under a span
/// boundary.
pub fn bulk_stack() -> BulkStack {
    bertha::wrap!(
        traced("compress", CompressChunnel)
            |> traced("crypt", CryptChunnel::demo())
            |> traced("frag", FragChunnel::new(FragConfig::default()))
            |> traced("reliable", ReliabilityChunnel::new(ReliabilityConfig::default()))
    )
}

/// Implementation names negotiation must pick for [`bulk_stack`].
pub const BULK_PICKS: [&str; 4] = [
    "compress/lzss",
    "encrypt/toy-stream",
    "frag/sw",
    "reliable/arq",
];

/// [`churn_stack`]'s type.
pub type ChurnStack = CxList<
    Traced<CompressChunnel>,
    CxList<Traced<CryptChunnel>, CxList<Traced<FragChunnel>, CxNil>>,
>;

/// The stack `conn_churn` negotiates per connection: [`bulk_stack`]
/// without its reliability slot. A dropped `ReliableConn` is kept alive
/// by its own receive pump (with the socket, its file and a 64 KiB
/// receive lease) until another datagram arrives, which on a closed
/// connection is never; at thousands of connections a second that is
/// over 100 MB/s of growth, so the churn loop cannot include it until the
/// chunnel lets go of dropped connections.
pub fn churn_stack() -> ChurnStack {
    bertha::wrap!(
        traced("compress", CompressChunnel)
            |> traced("crypt", CryptChunnel::demo())
            |> traced("frag", FragChunnel::new(FragConfig::default()))
    )
}

/// Implementation names negotiation must pick for [`churn_stack`].
pub const CHURN_PICKS: [&str; 3] = ["compress/lzss", "encrypt/toy-stream", "frag/sw"];

fn reliable_stack() -> impl Stack {
    bertha::wrap!(traced(
        "reliable",
        ReliabilityChunnel::new(ReliabilityConfig::default())
    ))
}

/// `name`s of `picks`, for comparing with what a stack should negotiate.
pub fn pick_names(picks: &bertha::negotiate::ServerPicks) -> Vec<&str> {
    picks.picks.iter().map(|o| o.name.as_str()).collect()
}

/// A built echo workload.
pub struct EchoLive {
    _server: Tasks,
    addr: Addr,
    clients: Vec<DynConn>,
    bodies: Arc<Bodies>,
}

impl Echo {
    async fn build_with<S: Stack>(
        &self,
        stack: S,
        expect: &[&str],
        seed: u64,
    ) -> Result<EchoLive, String> {
        let incoming = UdpListener::default()
            .listen(Addr::Udp("127.0.0.1:0".parse().expect("literal address")))
            .await
            .map_err(|e| format!("{}: listen: {e}", self.name))?;
        let addr = incoming.local_addr();
        let server = serve_echo(
            incoming,
            stack.clone(),
            NegotiateOpts::named(format!("{}-server", self.name)),
            None,
        );

        let mut clients = Vec::with_capacity(CLIENTS);
        for idx in 0..CLIENTS {
            let udp = trace::around("transport.connect", 0, UdpConnector.connect(addr.clone()))
                .await
                .map_err(|e| format!("{}: connect: {e}", self.name))?;
            let base: Raw = match self.kind {
                // Loss, reordering and receive-side loss on the client's
                // end of the path cover both directions of every exchange.
                Kind::Loss => raw(FaultChunnel::new(FaultConfig {
                    drop: 0.02,
                    recv_drop: 0.02,
                    reorder: 0.01,
                    seed: subseed(seed, 0xfa17 + idx as u64),
                    ..Default::default()
                })
                .connect_wrap(udp)
                .await
                .map_err(|e| format!("{}: fault wrap: {e}", self.name))?),
                Kind::Bare | Kind::Bulk => raw(udp),
            };
            let opts = NegotiateOpts::named(format!("{}-client-{idx}", self.name));
            let (conn, picks) = trace::around(
                "negotiate.client",
                0,
                negotiate_client(stack.clone(), base, addr.clone(), &opts),
            )
            .await
            .map_err(|e| format!("{}: negotiate: {e}", self.name))?;
            if pick_names(&picks) != expect {
                return Err(format!(
                    "{}: negotiated {:?}, expected {expect:?}",
                    self.name,
                    pick_names(&picks)
                ));
            }
            clients.push(Arc::new(conn) as DynConn);
        }
        Ok(EchoLive {
            _server: server,
            addr,
            clients,
            bodies: Arc::new(Bodies::generate(seed, self.msg_size, BODY_POOL, self.fill)),
        })
    }
}

impl Workload for Echo {
    type Live = EchoLive;

    fn name(&self) -> &'static str {
        self.name
    }

    fn warm_ops(&self) -> u64 {
        self.warm_ops
    }

    async fn build(&self, seed: u64) -> Result<EchoLive, String> {
        match self.kind {
            Kind::Bare => self.build_with(bertha::wrap!(), &[], seed).await,
            Kind::Bulk => self.build_with(bulk_stack(), &BULK_PICKS, seed).await,
            Kind::Loss => {
                self.build_with(reliable_stack(), &["reliable/arq"], seed)
                    .await
            }
        }
    }

    fn start(&self, live: &EchoLive, ctl: Arc<Ctl>) -> Vec<tokio::task::JoinHandle<Tally>> {
        live.clients
            .iter()
            .enumerate()
            .map(|(lane, conn)| {
                tokio::spawn(echo_lane(
                    lane,
                    Arc::clone(conn),
                    live.addr.clone(),
                    Arc::clone(&live.bodies),
                    self.window,
                    self.deadline,
                    Arc::clone(&ctl),
                ))
            })
            .collect()
    }

    async fn finish(&self, _live: &EchoLive, tallies: &[Tally]) -> Result<Vec<Metric>, String> {
        // Loss recovery must deliver everything: a failed op here means
        // the ARQ gave up or delivered late beyond its own patience.
        let failed: u64 = tallies.iter().map(|t| t.failed).sum();
        if self.kind == Kind::Loss && failed > 0 {
            return Err(format!(
                "{}: {failed} messages were never delivered",
                self.name
            ));
        }
        Ok(vec![])
    }
}

/// One client's closed loop: keep `window` messages outstanding, retire
/// each on its verified echo or its deadline.
async fn echo_lane(
    lane: usize,
    conn: DynConn,
    addr: Addr,
    bodies: Arc<Bodies>,
    window: usize,
    deadline: Duration,
    ctl: Arc<Ctl>,
) -> Tally {
    let mut tally = Tally::default();
    let mut warmed = false;
    // (sequence number, send time), oldest first.
    let mut pending: VecDeque<(u64, Instant)> = VecDeque::with_capacity(window);
    let mut next_seq = 1u64;
    let mut running = true;

    loop {
        let record = match ctl.phase(Instant::now(), tally.done, &mut warmed) {
            Phase::Run { record } => record,
            Phase::Stop => {
                running = false;
                false
            }
        };
        // Top the window up; after Stop, only drain what is in flight.
        while running && pending.len() < window {
            let seq = next_seq;
            next_seq += 1;
            let msg: Frame = bodies.message(seq).into();
            let sent_at = Instant::now();
            let sent = trace::with_op(op_id(lane, seq), conn.send((addr.clone(), msg))).await;
            if let Err(e) = sent {
                tally.mismatch(format!("lane {lane}: send failed: {e}"));
                return tally;
            }
            pending.push_back((seq, sent_at));
        }
        let Some(&(_, oldest)) = pending.front() else {
            return tally;
        };

        let token = trace::recv_token();
        let recvd = tokio::time::timeout_at(
            (oldest + deadline).into(),
            trace::with_op(token, conn.recv()),
        )
        .await;
        let now = Instant::now();
        match recvd {
            Err(_elapsed) => {
                pending.pop_front();
                tally.fail(record);
            }
            Ok(Err(e)) => {
                tally.mismatch(format!("lane {lane}: recv failed: {e}"));
                return tally;
            }
            Ok(Ok((_from, data))) => match verify_echo(&data) {
                None => tally.mismatch(format!(
                    "lane {lane}: a {}-byte reply failed its checksum",
                    data.len()
                )),
                Some(seq) => {
                    // A reply for an op already timed out (or a duplicate)
                    // retires nothing.
                    if let Some(pos) = pending.iter().position(|(s, _)| *s == seq) {
                        let (_, sent_at) = pending.remove(pos).expect("position is in range");
                        let op = op_id(lane, seq);
                        trace::bind(token, op);
                        trace::record_root("op", op, sent_at, now);
                        tally.complete(&ctl, record, now, now - sent_at, data.len() as u64);
                    } else if seq >= next_seq {
                        tally.mismatch(format!("lane {lane}: reply for unsent message {seq}"));
                    }
                }
            },
        }
    }
}
