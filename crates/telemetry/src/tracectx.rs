//! Cross-host trace contexts.
//!
//! A [`TraceContext`] is the identity a distributed trace carries across
//! the wire: a 128-bit trace id shared by every span in the trace, a
//! 64-bit span id naming one operation, and a sampled flag deciding
//! whether per-frame data-path events are emitted for this connection.
//!
//! The wire encoding is a fixed 25 bytes — 16 bytes trace id (LE), 8
//! bytes span id (LE), 1 flags byte (bit 0 = sampled) — prepended to
//! every negotiation frame (`bertha::negotiate::wire`) and to data frames
//! by the `tracing/inline` chunnel. Fixed-size framing keeps the decode
//! branch on the data path to a length check and a copy.
//!
//! Sampling is **deterministic per trace**: `fnv64(trace_id) % N == 0`
//! for a `1/N` rate, so both endpoints (and any relay) make the same
//! decision from the id alone, with no coordination. The rate comes from
//! `BERTHA_TRACE_SAMPLE` (`off`, `always`, or `1/N`), read once, and can
//! be overridden programmatically with [`set_sample`] for tests.
//!
//! Id generation uses no external RNG crate: ids mix wall-clock nanos,
//! the pid, a process-global counter, and the randomly-seeded std
//! `RandomState` hasher, which is plenty for uniqueness and for the
//! sampler's modulus to be unbiased.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Size of the fixed wire encoding: 16-byte trace id + 8-byte span id +
/// 1 flags byte.
pub const WIRE_LEN: usize = 25;

/// The identity of one span within a distributed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit id shared by every span in the trace.
    pub trace_id: u128,
    /// 64-bit id of this span.
    pub span_id: u64,
    /// Whether per-frame data-path events are emitted for this trace.
    pub sampled: bool,
}

impl TraceContext {
    /// Start a new trace: fresh trace id, fresh root span id, sampled
    /// according to the configured rate.
    pub fn new_root() -> Self {
        let trace_id = ((next_id() as u128) << 64) | next_id() as u128;
        TraceContext {
            trace_id,
            span_id: next_id(),
            sampled: sample_decision(trace_id),
        }
    }

    /// A child span in the same trace: same trace id and sampled flag,
    /// fresh span id. The caller records `self.span_id` as the child's
    /// parent when emitting the child's events.
    pub fn child(&self) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: next_id(),
            sampled: self.sampled,
        }
    }

    /// Encode to the fixed 25-byte wire form.
    pub fn encode(&self) -> [u8; WIRE_LEN] {
        let mut out = [0u8; WIRE_LEN];
        out[..16].copy_from_slice(&self.trace_id.to_le_bytes());
        out[16..24].copy_from_slice(&self.span_id.to_le_bytes());
        out[24] = self.sampled as u8;
        out
    }

    /// Decode from the fixed wire form; `None` if `buf` is too short.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < WIRE_LEN {
            return None;
        }
        let trace_id = u128::from_le_bytes(buf[..16].try_into().unwrap());
        let span_id = u64::from_le_bytes(buf[16..24].try_into().unwrap());
        Some(TraceContext {
            trace_id,
            span_id,
            sampled: buf[24] & 1 == 1,
        })
    }

    /// The trace id as the 32-hex-digit string used in event fields.
    pub fn trace_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }
}

/// One shared 32-hex-digit rendering for ids stored as `u128`.
pub fn trace_hex(trace_id: u128) -> String {
    format!("{trace_id:032x}")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The FNV-1a hash behind every per-trace decision (head sampling here,
/// tail downsampling in the collector), exported so out-of-process
/// components reach the *same* deterministic verdict for a trace id that
/// every host reached when stamping it.
pub fn hash64(bytes: &[u8]) -> u64 {
    fnv64(bytes)
}

static ID_COUNTER: AtomicU64 = AtomicU64::new(0);

fn entropy_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        // RandomState is seeded per-process from OS randomness; one
        // finish() of an empty hasher extracts that seed for free.
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u32(std::process::id());
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        h.write_u64(nanos);
        h.finish()
    })
}

fn next_id() -> u64 {
    // An FNV mix of (per-process random seed, counter) gives unique,
    // well-distributed, nonzero-in-practice ids without an RNG crate.
    let n = ID_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&entropy_seed().to_le_bytes());
    bytes[8..].copy_from_slice(&n.to_le_bytes());
    let id = fnv64(&bytes);
    if id == 0 {
        1
    } else {
        id
    }
}

/// A fresh span id from the process-global generator, for spans that
/// need an id distinct from any `TraceContext` (e.g. per-frame profile
/// samples parented under a connection's span).
pub(crate) fn next_span_id() -> u64 {
    next_id()
}

/// Sampling denominator: 0 = off, 1 = always, N = one trace in N.
/// `u64::MAX` means "not yet initialised, read the env var".
static SAMPLE_DENOM: AtomicU64 = AtomicU64::new(u64::MAX);

fn sample_denom() -> u64 {
    let d = SAMPLE_DENOM.load(Ordering::Relaxed);
    if d != u64::MAX {
        return d;
    }
    let parsed = std::env::var("BERTHA_TRACE_SAMPLE")
        .ok()
        .map(|v| parse_sample(&v))
        .unwrap_or(0);
    SAMPLE_DENOM.store(parsed, Ordering::Relaxed);
    parsed
}

/// Parse a `BERTHA_TRACE_SAMPLE` value: `off`/`0` disable, `always`/
/// `on`/`1` sample everything, `1/N` (or bare `N`) samples one trace in
/// `N`. Unparseable input disables sampling.
pub fn parse_sample(v: &str) -> u64 {
    let v = v.trim();
    match v.to_ascii_lowercase().as_str() {
        "off" | "0" | "" => 0,
        "always" | "on" | "1" => 1,
        s => {
            let n = s.strip_prefix("1/").unwrap_or(s);
            n.parse::<u64>().unwrap_or(0)
        }
    }
}

/// Override the sampling rate: 0 = off, 1 = every trace, N = one in N.
/// Takes precedence over `BERTHA_TRACE_SAMPLE`.
pub fn set_sample(denom: u64) {
    SAMPLE_DENOM.store(denom, Ordering::Relaxed);
}

/// The deterministic per-trace decision: both endpoints compute this
/// from the trace id alone and agree. (The sampled flag on the wire is
/// still authoritative for received contexts — a peer with a different
/// configured rate must be honored.)
pub fn sample_decision(trace_id: u128) -> bool {
    match sample_denom() {
        0 => false,
        1 => true,
        n => fnv64(&trace_id.to_le_bytes()) % n == 0,
    }
}

/// Bounded nonce → context map binding a negotiated connection (keyed by
/// its `ServerPicks` nonce) to its trace context, so chunnel `picked`
/// hooks — which see only the pick and the nonce — can recover the
/// context the handshake established. Oldest bindings are evicted past
/// [`NONCE_CAP`]; a connection looks its nonce up immediately after the
/// handshake, so eviction only bites pathological churn.
static NONCE_BINDINGS: Mutex<VecDeque<(u64, TraceContext)>> = Mutex::new(VecDeque::new());

/// Capacity of the nonce-binding map.
pub const NONCE_CAP: usize = 256;

/// Bind a handshake nonce to the trace context of the negotiation that
/// produced it.
pub fn bind_nonce(nonce: &[u8], ctx: TraceContext) {
    note_sampled(ctx);
    let key = fnv64(nonce);
    let mut map = NONCE_BINDINGS.lock();
    if let Some(slot) = map.iter_mut().find(|(k, _)| *k == key) {
        slot.1 = ctx;
        return;
    }
    if map.len() >= NONCE_CAP {
        map.pop_front();
    }
    map.push_back((key, ctx));
}

/// The most recently bound *sampled* trace context, feeding profiler
/// exemplars: when a per-layer latency histogram observes a new maximum,
/// the exporter attaches this context's trace id so the outlier links to
/// a flight-recorder dump. "Most recent" is deliberately loose — an
/// exemplar names *a* trace that was active around the outlier, not a
/// causal attribution (see DESIGN.md §9, "Per-layer profiling").
static LAST_SAMPLED: Mutex<Option<TraceContext>> = Mutex::new(None);

/// The most recently bound sampled trace context, if any.
pub fn last_sampled() -> Option<TraceContext> {
    *LAST_SAMPLED.lock()
}

/// Record `ctx` as the most recent sampled context (no-op if unsampled).
pub fn note_sampled(ctx: TraceContext) {
    if ctx.sampled {
        *LAST_SAMPLED.lock() = Some(ctx);
    }
}

/// Look up the trace context bound to a handshake nonce, if any.
pub fn nonce_context(nonce: &[u8]) -> Option<TraceContext> {
    let key = fnv64(nonce);
    NONCE_BINDINGS
        .lock()
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, c)| *c)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sampling denominator is process-global; tests that set it must
    // not interleave with each other.
    static SAMPLE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn roundtrips_wire_encoding() {
        let ctx = TraceContext {
            trace_id: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
            span_id: 0xdead_beef_cafe_f00d,
            sampled: true,
        };
        let enc = ctx.encode();
        assert_eq!(enc.len(), WIRE_LEN);
        assert_eq!(TraceContext::decode(&enc), Some(ctx));
        assert_eq!(TraceContext::decode(&enc[..WIRE_LEN - 1]), None);
    }

    #[test]
    fn child_shares_trace_id_with_fresh_span() {
        let _g = SAMPLE_LOCK.lock();
        set_sample(1);
        let root = TraceContext::new_root();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.sampled, root.sampled);
        assert_ne!(child.span_id, root.span_id);
        set_sample(0);
    }

    #[test]
    fn ids_are_distinct() {
        let a = TraceContext::new_root();
        let b = TraceContext::new_root();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
    }

    #[test]
    fn parses_sample_rates() {
        assert_eq!(parse_sample("off"), 0);
        assert_eq!(parse_sample("0"), 0);
        assert_eq!(parse_sample(""), 0);
        assert_eq!(parse_sample("always"), 1);
        assert_eq!(parse_sample("1"), 1);
        assert_eq!(parse_sample("1/64"), 64);
        assert_eq!(parse_sample("64"), 64);
        assert_eq!(parse_sample("nonsense"), 0);
    }

    #[test]
    fn sampler_is_deterministic_per_trace() {
        let _g = SAMPLE_LOCK.lock();
        set_sample(4);
        let id = 0xabcdu128;
        let first = sample_decision(id);
        for _ in 0..10 {
            assert_eq!(sample_decision(id), first);
        }
        // At 1/N some ids sample and some do not.
        let any_on = (0..256u128).any(sample_decision);
        let any_off = (0..256u128).any(|i| !sample_decision(i));
        assert!(any_on && any_off);
        set_sample(0);
    }

    #[test]
    fn nonce_bindings_roundtrip_and_evict() {
        let _g = SAMPLE_LOCK.lock();
        set_sample(1);
        let ctx = TraceContext::new_root();
        bind_nonce(b"test-nonce-bind", ctx);
        assert_eq!(nonce_context(b"test-nonce-bind"), Some(ctx));
        assert_eq!(nonce_context(b"never-bound"), None);
        // Rebinding the same nonce overwrites in place.
        let ctx2 = TraceContext::new_root();
        bind_nonce(b"test-nonce-bind", ctx2);
        assert_eq!(nonce_context(b"test-nonce-bind"), Some(ctx2));
        // Flooding evicts the oldest entries.
        for i in 0..(NONCE_CAP + 8) {
            bind_nonce(format!("flood-{i}").as_bytes(), ctx);
        }
        assert_eq!(nonce_context(b"test-nonce-bind"), None);
        set_sample(0);
    }

    #[test]
    fn binding_a_sampled_nonce_updates_last_sampled() {
        let _g = SAMPLE_LOCK.lock();
        set_sample(1);
        let ctx = TraceContext::new_root();
        assert!(ctx.sampled);
        bind_nonce(b"last-sampled-probe", ctx);
        assert_eq!(last_sampled(), Some(ctx));
        // Unsampled bindings do not clobber the slot.
        let unsampled = TraceContext {
            sampled: false,
            ..TraceContext::new_root()
        };
        bind_nonce(b"last-sampled-probe-2", unsampled);
        assert_eq!(last_sampled(), Some(ctx));
        set_sample(0);
    }

    #[test]
    fn trace_hex_is_32_digits() {
        assert_eq!(trace_hex(0xff), format!("{:032x}", 0xff));
        assert_eq!(trace_hex(0xff).len(), 32);
    }
}
