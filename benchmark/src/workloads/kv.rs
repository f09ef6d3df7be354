//! `kv_ycsb_a_mixed`: the paper's Fig. 5 sharded KV store with one
//! client of each kind.
//!
//! Three KV shards behind a canonical server whose negotiation consults
//! discovery. Client 0 offers client-push sharding and sends each request
//! straight to the shard that owns its key; client 1 defers to the
//! server, and with no steerer registered negotiation lands on the
//! in-application dispatcher (`shard/fallback`), which forwards its
//! requests to the shards. (Fig. 5's "mixed" pairs client-push with the
//! registered steerer instead. That path cannot run at this commit: the
//! steerer forwards only `TAG_NEG` handshakes to the server, and every
//! client handshake is framed `TAG_NEG_TRACE`, so negotiating through it
//! times out. See the README.) Each client keeps
//! four requests outstanding: four lanes, each a closed loop of one
//! request at a time over its own quarter of the client's keys, so no two
//! outstanding requests ever touch the same key and every read has
//! exactly one right answer — the value of that lane's last acknowledged
//! write.

use super::{op_id, raw, Stack, Tasks};
use crate::gen::{fnv64, kv_value, subseed};
use crate::harness::{Ctl, Metric, Phase, Tally, Workload};
use crate::trace::{self, traced};
use bertha::conn::DynConn;
use bertha::negotiate::{negotiate_client, NegotiateOpts, NegotiatedConn, Offer, SlotApply};
use bertha::{Addr, ChunnelConnector, ChunnelListener};
use bertha_discovery::{DiscoveryClient, Registry, RegistrySource};
use bertha_shard::{ShardClientChunnel, ShardDeferChunnel};
use bertha_transport::udp::{UdpConnector, UdpListener};
use kvstore::client::KvClientConfig;
use kvstore::ycsb::{Generator, KeyDist, Workload as Ycsb};
use kvstore::{spawn_shards, KvClient, KvShardHandle, Msg, Op, Store};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;
const RECORDS: u64 = 10_000;
const VALUE_BYTES: usize = 100;
const CLIENTS: usize = 2;
const LANES_PER_CLIENT: usize = 4;
const LANES: usize = CLIENTS * LANES_PER_CLIENT;
/// Requests in flight while preloading.
const PRELOAD_BATCH: usize = 256;
/// One attempt, no retry: a request unanswered after this has failed.
const REQUEST_DEADLINE: Duration = Duration::from_millis(500);
/// Requests timed offline for `kv.codec_ns` / `kv.apply_ns`.
const OFFLINE_OPS: usize = 20_000;

pub struct Kv;

pub struct KvLive {
    seed: u64,
    clients: Vec<Arc<KvClient<DynConn>>>,
    shards: Vec<KvShardHandle>,
    _server: Tasks,
}

/// `user<idx>` → `idx`.
fn key_index(key: &str) -> Option<u64> {
    key.strip_prefix("user")?.parse().ok()
}

/// The record a lane's `n`-th key is: lanes interleave over the key
/// space, so each owns every `LANES`-th record.
fn lane_record(lane: usize, n: u64) -> u64 {
    n * LANES as u64 + lane as u64
}

async fn kv_client<S: Stack>(
    stack: S,
    canonical: &Addr,
    name: &str,
    expect: &str,
) -> Result<Arc<KvClient<DynConn>>, String> {
    let udp = trace::around(
        "transport.connect",
        0,
        UdpConnector.connect(canonical.clone()),
    )
    .await
    .map_err(|e| format!("kv: connect: {e}"))?;
    let (conn, picks) = trace::around(
        "negotiate.client",
        0,
        negotiate_client(
            stack,
            raw(udp),
            canonical.clone(),
            &NegotiateOpts::named(name),
        ),
    )
    .await
    .map_err(|e| format!("kv: negotiate ({name}): {e}"))?;
    let picked: Vec<&str> = picks.picks.iter().map(|o| o.name.as_str()).collect();
    if picked != [expect] {
        return Err(format!(
            "kv: {name} negotiated {picked:?}, expected [{expect:?}]"
        ));
    }
    Ok(Arc::new(KvClient::with_config(
        Arc::new(conn) as DynConn,
        canonical.clone(),
        KvClientConfig {
            timeout: REQUEST_DEADLINE,
            retries: 0,
        },
    )))
}

impl Workload for Kv {
    type Live = KvLive;

    fn name(&self) -> &'static str {
        "kv_ycsb_a_mixed"
    }

    fn warm_ops(&self) -> u64 {
        250
    }

    async fn build(&self, seed: u64) -> Result<KvLive, String> {
        let shards = spawn_shards(SHARDS)
            .await
            .map_err(|e| format!("kv: shards: {e}"))?;
        let registry = Arc::new(Registry::new());
        let listener = UdpListener::default()
            .listen(Addr::Udp("127.0.0.1:0".parse().expect("literal address")))
            .await
            .map_err(|e| format!("kv: listen: {e}"))?;
        let canonical = listener.local_addr();
        let info = kvstore::shard_info(canonical.clone(), &shards);

        // Nothing is registered: asked about the steerer, discovery
        // withdraws it, leaving the in-application fallback.
        let opts = NegotiateOpts::named("kv-server")
            .with_filter(DiscoveryClient::new(
                Arc::clone(&registry) as Arc<dyn RegistrySource>
            ));
        let server = Tasks::default();
        server
            .list
            .push(kvstore::serve_prepared(listener, info.clone(), opts).abort_handle());

        // Preload through a hand-configured client-push connection (no
        // handshake), as the figure's harness does.
        {
            let udp = UdpConnector
                .connect(canonical.clone())
                .await
                .map_err(|e| format!("kv: preload connect: {e}"))?;
            let mut pick = Offer::from_chunnel(&ShardClientChunnel);
            pick.ext = info.to_ext();
            let conn = ShardClientChunnel
                .slot_apply(pick, vec![], NegotiatedConn::client(udp, vec![]))
                .await
                .map_err(|e| format!("kv: preload stack: {e}"))?;
            let loader = Arc::new(KvClient::new(conn, canonical.clone()));
            let mut pending = Vec::with_capacity(PRELOAD_BATCH);
            for idx in 0..RECORDS {
                let loader = Arc::clone(&loader);
                pending.push(tokio::spawn(async move {
                    loader
                        .put(
                            kvstore::ycsb::key_name(idx),
                            kv_value(seed, idx, 0, VALUE_BYTES),
                        )
                        .await
                }));
                if pending.len() == PRELOAD_BATCH || idx + 1 == RECORDS {
                    for p in pending.drain(..) {
                        p.await
                            .map_err(|e| format!("kv: preload task: {e}"))?
                            .map_err(|e| format!("kv: preload put: {e}"))?;
                    }
                }
            }
        }

        let push = kv_client(
            bertha::wrap!(traced("shard", ShardClientChunnel)),
            &canonical,
            "kv-client-push",
            "shard/client-push",
        )
        .await?;
        let deferred = kv_client(
            bertha::wrap!(traced("shard", ShardDeferChunnel)),
            &canonical,
            "kv-client-deferred",
            "shard/fallback",
        )
        .await?;

        Ok(KvLive {
            seed,
            clients: vec![push, deferred],
            shards,
            _server: server,
        })
    }

    fn start(&self, live: &KvLive, ctl: Arc<Ctl>) -> Vec<tokio::task::JoinHandle<Tally>> {
        (0..LANES)
            .map(|lane| {
                tokio::spawn(kv_lane(
                    lane,
                    Arc::clone(&live.clients[lane / LANES_PER_CLIENT]),
                    live.seed,
                    Arc::clone(&ctl),
                ))
            })
            .collect()
    }

    async fn finish(&self, live: &KvLive, _tallies: &[Tally]) -> Result<Vec<Metric>, String> {
        // Every shard must have taken part; how evenly the shard function
        // spread this key set is max ÷ mean of the records each holds.
        let per_shard: Vec<usize> = live.shards.iter().map(|s| s.store.len()).collect();
        let held: usize = per_shard.iter().sum();
        if held != RECORDS as usize || per_shard.contains(&0) {
            return Err(format!(
                "kv: shards hold {per_shard:?} records, expected {RECORDS} over {SHARDS} shards"
            ));
        }
        let mean = held as f64 / per_shard.len() as f64;
        let imbalance = per_shard.iter().copied().max().unwrap_or(0) as f64 / mean;
        let (codec_ns, apply_ns) = offline_costs(live.seed);
        Ok(vec![
            Metric::new("shard.imbalance", imbalance, "ratio"),
            Metric::new("kv.codec_ns", codec_ns, "ns"),
            Metric::new("kv.apply_ns", apply_ns, "ns"),
        ])
    }
}

/// Time `Msg::encode` + `Msg::decode` and `Store::apply` on the request
/// stream a lane would generate, away from the network: mean nanoseconds
/// per request.
fn offline_costs(seed: u64) -> (f64, f64) {
    let mut generator = Generator::new(
        Ycsb::A.with_dist(KeyDist::Uniform),
        RECORDS,
        VALUE_BYTES,
        subseed(seed, 0x0ff1),
    );
    let msgs: Vec<Msg> = (0..OFFLINE_OPS as u64)
        .map(|id| {
            let g = generator.next_op();
            Msg {
                id,
                op: g.op,
                key: g.key,
                val: g.val,
            }
        })
        .collect();
    let t = Instant::now();
    let mut decoded = 0usize;
    for m in &msgs {
        let wire = std::hint::black_box(m).encode();
        decoded += usize::from(Msg::decode(std::hint::black_box(&wire)).is_ok());
    }
    let codec_ns = t.elapsed().as_nanos() as f64 / msgs.len() as f64;
    assert_eq!(decoded, msgs.len(), "every generated request decodes");

    let store = Store::new();
    let t = Instant::now();
    for m in &msgs {
        std::hint::black_box(store.apply(std::hint::black_box(m)));
    }
    let apply_ns = t.elapsed().as_nanos() as f64 / msgs.len() as f64;
    (codec_ns, apply_ns)
}

/// The request stream of `lane` under `seed`: YCSB-A, uniform over the
/// lane's share of the records.
fn lane_generator(seed: u64, lane: usize) -> Generator {
    Generator::new(
        Ycsb::A.with_dist(KeyDist::Uniform),
        RECORDS / LANES as u64,
        VALUE_BYTES,
        subseed(seed, 0x1a7e + lane as u64),
    )
}

/// One lane: YCSB-A over the lane's own records, one request at a time,
/// every read checked against the lane's last acknowledged write.
async fn kv_lane(lane: usize, client: Arc<KvClient<DynConn>>, seed: u64, ctl: Arc<Ctl>) -> Tally {
    let mut tally = Tally::default();
    let mut warmed = false;
    let own_records = RECORDS / LANES as u64;
    let mut generator = lane_generator(seed, lane);
    // Hash of the value each of this lane's records should hold; `None`
    // while unknown (a write to it timed out).
    let mut expected: HashMap<u64, Option<u64>> = HashMap::new();
    // Client 0 pushes (picks the shard itself); client 1 goes through the
    // server's dispatcher.
    let path = if lane / LANES_PER_CLIENT == 0 {
        "shard.push"
    } else {
        "shard.fallback"
    };
    let mut seq = 0u64;

    loop {
        let Phase::Run { record } = ctl.phase(Instant::now(), tally.done, &mut warmed) else {
            return tally;
        };
        let g = generator.next_op();
        let Some(n) = key_index(&g.key) else {
            tally.mismatch(format!("generator produced key {:?}", g.key));
            return tally;
        };
        let record_idx = lane_record(lane, n % own_records);
        let key = kvstore::ycsb::key_name(record_idx);
        seq += 1;
        let op = op_id(lane, seq);
        let t0 = Instant::now();
        match g.op {
            Op::Get => {
                let got = trace::with_op(op, trace::around("kv.get", op, client.get(key))).await;
                let now = Instant::now();
                match got {
                    Ok(value) => {
                        let want = expected.entry(record_idx).or_insert_with(|| {
                            Some(fnv64(&kv_value(seed, record_idx, 0, VALUE_BYTES)))
                        });
                        let have = value.as_deref().map(fnv64);
                        if want.is_some() && have != *want {
                            tally.mismatch(format!(
                                "lane {lane}: get user{record_idx} returned {} bytes that are not the last acknowledged put",
                                value.map_or(0, |v| v.len())
                            ));
                        }
                        trace::record_root("op", op, t0, now);
                        tally.complete(&ctl, record, now, now - t0, VALUE_BYTES as u64);
                        tally.extra(record, "kv.get", now - t0);
                        tally.extra(record, path, now - t0);
                    }
                    Err(_) => tally.fail(record),
                }
            }
            _ => {
                let val = g.val.unwrap_or_default();
                let hash = fnv64(&val);
                let bytes = val.len() as u64;
                let put =
                    trace::with_op(op, trace::around("kv.put", op, client.put(key, val))).await;
                let now = Instant::now();
                match put {
                    Ok(()) => {
                        expected.insert(record_idx, Some(hash));
                        trace::record_root("op", op, t0, now);
                        tally.complete(&ctl, record, now, now - t0, bytes);
                        tally.extra(record, "kv.put", now - t0);
                        tally.extra(record, path, now - t0);
                    }
                    Err(_) => {
                        // The write may or may not have landed.
                        expected.insert(record_idx, None);
                        tally.fail(record);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A digest of the first thousand requests a lane would issue.
    fn stream_digest(seed: u64, lane: usize) -> u64 {
        let mut generator = lane_generator(seed, lane);
        let mut bytes = Vec::new();
        for _ in 0..1000 {
            let g = generator.next_op();
            bytes.push(matches!(g.op, Op::Get) as u8);
            bytes.extend_from_slice(g.key.as_bytes());
            bytes.extend_from_slice(&g.val.unwrap_or_default());
        }
        fnv64(&bytes)
    }

    #[test]
    fn same_seed_same_request_stream() {
        assert_eq!(stream_digest(7, 0), stream_digest(7, 0));
        assert_ne!(stream_digest(7, 0), stream_digest(8, 0));
        assert_ne!(
            stream_digest(7, 0),
            stream_digest(7, 1),
            "lanes draw different streams"
        );
    }

    #[test]
    fn request_stream_is_half_reads_half_writes() {
        let mut generator = lane_generator(1, 0);
        let gets = (0..10_000)
            .filter(|_| matches!(generator.next_op().op, Op::Get))
            .count();
        assert!(
            (4_700..=5_300).contains(&gets),
            "{gets} gets in 10 000 requests"
        );
    }

    #[test]
    fn lanes_partition_the_records() {
        let mut owner = vec![None; RECORDS as usize];
        for lane in 0..LANES {
            for n in 0..RECORDS / LANES as u64 {
                let idx = lane_record(lane, n) as usize;
                assert_eq!(
                    owner[idx].replace(lane),
                    None,
                    "record {idx} has two owners"
                );
            }
        }
        assert!(owner.iter().all(Option::is_some));
        assert_eq!(key_index("user42"), Some(42));
        assert_eq!(key_index("nope"), None);
    }
}
