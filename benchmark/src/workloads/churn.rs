//! `conn_churn`: the paper's Fig. 3 workload as a loop.
//!
//! Each op is a whole short-lived connection: resolve the server through
//! a name agent served on a real Unix socket, connect (landing on the
//! Unix fast path), negotiate `compress |> crypt |> frag` against a server
//! whose negotiation consults discovery, exchange three 64-byte
//! request/responses, and drop the connection. Two clients do this back
//! to back (closed loop, one connection in progress per client).

use super::echo::{churn_stack, pick_names, CHURN_PICKS};
use super::{op_id, raw, serve_echo, Tasks};
use crate::gen::{verify_echo, Bodies, Fill};
use crate::harness::{Ctl, Metric, Phase, Tally, Workload};
use crate::trace;
use bertha::conn::{BoxFut, ChunnelConnection};
use bertha::negotiate::{negotiate_client, NegotiateOpts, Offer};
use bertha::{Addr, ChunnelConnector, ChunnelListener, Error, Frame};
use bertha_discovery::{ClaimId, DiscoveryClient, Registration, Registry, RegistrySource};
use bertha_localname::agent::{serve_agent_uds, NameAgent, NameSource, RemoteNameAgent};
use bertha_localname::chunnel::{LocalOrRemote, LocalOrRemoteListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const REQUESTS_PER_CONN: u64 = 3;
const MSG_SIZE: usize = 64;
/// A connection (resolve through last reply) taking longer has failed.
const CONN_DEADLINE: Duration = Duration::from_secs(2);

/// The in-process registry behind the server's discovery filter, with
/// its queries counted (`discovery.lookups_per_conn`).
struct CountingSource {
    inner: Arc<Registry>,
    queries: AtomicU64,
}

impl RegistrySource for CountingSource {
    fn query<'a>(&'a self, capability: u64) -> BoxFut<'a, Result<Vec<Registration>, Error>> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        RegistrySource::query(&*self.inner, capability)
    }

    fn claim<'a>(&'a self, impl_guid: u64, pick: &'a Offer) -> BoxFut<'a, Result<ClaimId, Error>> {
        RegistrySource::claim(&*self.inner, impl_guid, pick)
    }

    fn release<'a>(&'a self, id: ClaimId) -> BoxFut<'a, Result<(), Error>> {
        RegistrySource::release(&*self.inner, id)
    }

    fn version<'a>(&'a self) -> BoxFut<'a, Result<u64, Error>> {
        RegistrySource::version(&*self.inner)
    }

    fn registered<'a>(&'a self, impl_guid: u64) -> BoxFut<'a, Result<bool, Error>> {
        RegistrySource::registered(&*self.inner, impl_guid)
    }
}

pub struct Churn;

pub struct ChurnLive {
    _server: Tasks,
    _agent: Tasks,
    canonical: Addr,
    agent_path: std::path::PathBuf,
    bodies: Arc<Bodies>,
    source: Arc<CountingSource>,
}

impl Workload for Churn {
    type Live = ChurnLive;

    fn name(&self) -> &'static str {
        "conn_churn"
    }

    fn warm_ops(&self) -> u64 {
        150
    }

    async fn build(&self, seed: u64) -> Result<ChurnLive, String> {
        let agent = Arc::new(NameAgent::new());
        // The temp dir is this process's own scratch directory.
        let agent_path = std::env::temp_dir().join("bench-agent.sock");
        let agent_task = serve_agent_uds(Arc::clone(&agent), agent_path.clone())
            .await
            .map_err(|e| format!("conn_churn: name agent: {e}"))?;
        let agent_tasks = Tasks::default();
        agent_tasks.list.push(agent_task.abort_handle());

        // Listens on UDP and on the Unix path it registers with the agent.
        let incoming = LocalOrRemoteListener::with_agent(Arc::clone(&agent))
            .listen(Addr::Udp("127.0.0.1:0".parse().expect("literal address")))
            .await
            .map_err(|e| format!("conn_churn: listen: {e}"))?;
        let canonical = incoming.local_addr();

        let source = Arc::new(CountingSource {
            inner: Arc::new(Registry::new()),
            queries: AtomicU64::new(0),
        });
        let opts = NegotiateOpts::named("conn_churn-server").with_filter(DiscoveryClient::new(
            Arc::clone(&source) as Arc<dyn RegistrySource>,
        ));
        let server = serve_echo(incoming, churn_stack(), opts, Some(REQUESTS_PER_CONN));

        Ok(ChurnLive {
            _server: server,
            _agent: agent_tasks,
            canonical,
            agent_path,
            bodies: Arc::new(Bodies::generate(seed, MSG_SIZE, 64, Fill::Random)),
            source,
        })
    }

    fn start(&self, live: &ChurnLive, ctl: Arc<Ctl>) -> Vec<tokio::task::JoinHandle<Tally>> {
        (0..CLIENTS)
            .map(|lane| {
                tokio::spawn(churn_lane(
                    lane,
                    live.canonical.clone(),
                    // Each client talks to the agent over its own socket.
                    Arc::new(RemoteNameAgent::new(live.agent_path.clone())),
                    Arc::clone(&live.bodies),
                    Arc::clone(&ctl),
                ))
            })
            .collect()
    }

    async fn finish(&self, live: &ChurnLive, tallies: &[Tally]) -> Result<Vec<Metric>, String> {
        let conns: u64 = tallies.iter().map(|t| t.done).sum();
        let queries = live.source.queries.load(Ordering::Relaxed);
        Ok(vec![Metric::new(
            "discovery.lookups_per_conn",
            if conns > 0 {
                queries as f64 / conns as f64
            } else {
                0.0
            },
            "ratio",
        )])
    }
}

/// One whole connection. Returns how long set-up (resolve + connect +
/// negotiate) took.
async fn one_connection(
    op: u64,
    canonical: &Addr,
    names: &Arc<RemoteNameAgent>,
    bodies: &Bodies,
    seq_base: u64,
) -> Result<Duration, String> {
    let t0 = Instant::now();
    let mut connector = LocalOrRemote::with_agent(Arc::clone(names) as Arc<dyn NameSource>);
    let base = trace::around(
        "localname.connect",
        op,
        connector.connect(canonical.clone()),
    )
    .await
    .map_err(|e| format!("resolve/connect: {e}"))?;
    if !base.is_local() {
        return Err("connection did not take the Unix fast path".into());
    }
    let opts = NegotiateOpts::named("conn_churn-client");
    let (conn, picks) = trace::around(
        "negotiate.client",
        op,
        negotiate_client(churn_stack(), raw(base), canonical.clone(), &opts),
    )
    .await
    .map_err(|e| format!("negotiate: {e}"))?;
    if pick_names(&picks) != CHURN_PICKS {
        return Err(format!(
            "negotiated {:?}, expected {CHURN_PICKS:?}",
            pick_names(&picks)
        ));
    }
    let setup = t0.elapsed();

    for i in 0..REQUESTS_PER_CONN {
        let seq = seq_base + i;
        let msg: Frame = bodies.message(seq).into();
        conn.send((canonical.clone(), msg))
            .await
            .map_err(|e| format!("send: {e}"))?;
        let (_from, reply) = conn.recv().await.map_err(|e| format!("recv: {e}"))?;
        if verify_echo(&reply) != Some(seq) {
            return Err(format!(
                "request {seq} came back wrong ({} bytes)",
                reply.len()
            ));
        }
    }
    Ok(setup)
}

async fn churn_lane(
    lane: usize,
    canonical: Addr,
    names: Arc<RemoteNameAgent>,
    bodies: Arc<Bodies>,
    ctl: Arc<Ctl>,
) -> Tally {
    let mut tally = Tally::default();
    let mut warmed = false;
    let mut conn_no = 0u64;
    loop {
        let Phase::Run { record } = ctl.phase(Instant::now(), tally.done, &mut warmed) else {
            return tally;
        };
        conn_no += 1;
        let op = op_id(lane, conn_no);
        let t0 = Instant::now();
        let attempt = tokio::time::timeout(
            CONN_DEADLINE,
            trace::with_op(
                op,
                one_connection(op, &canonical, &names, &bodies, conn_no * REQUESTS_PER_CONN),
            ),
        )
        .await;
        let now = Instant::now();
        match attempt {
            Ok(Ok(setup)) => {
                trace::record_root("op", op, t0, now);
                tally.complete(
                    &ctl,
                    record,
                    now,
                    now - t0,
                    REQUESTS_PER_CONN * MSG_SIZE as u64,
                );
                tally.extra(record, "conn_setup", setup);
            }
            // Wrong output or a refused/failed connection: the workload
            // is chosen so that neither happens.
            Ok(Err(why)) => {
                tally.mismatch(format!("lane {lane} connection {conn_no}: {why}"));
                tally.fail(record);
            }
            Err(_elapsed) => tally.fail(record),
        }
    }
}
