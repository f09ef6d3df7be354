//! Benchmark-owned spans around the calls into each layer.
//!
//! [`Spanned`] is a pass-through [`ChunnelConnection`] the traced pass
//! puts between every pair of layers ([`Traced`] does that from inside a
//! negotiated stack); [`around`] wraps a single call (`connect`,
//! `negotiate_client`, `KvClient::get`). Nothing outside this crate is
//! instrumented.
//!
//! A span records name, direction, start, end, the span that caused it
//! (its parent: the span whose poll it was created under) and an op id
//! shared by the spans of one operation. It also records **busy time**:
//! the time spent inside polls of the spanned future, which leaves out
//! the time the future sat suspended waiting for a datagram, an ack or a
//! timer. A layer's *self* time is its busy time minus the busy time of
//! the spans nested in it, computed online with a per-thread accumulator
//! (children are polled inside their parent's poll, on the same thread).
//!
//! Limits, by construction: work a layer does on its own background task
//! (the reliability chunnel's receive pump and retransmit pacer, the KV
//! client's reply pump) is not inside any call the benchmark makes, so it
//! shows up only as the root spans of the layer below it; and a span
//! created on such a task has no op id (0) and no parent.

use bertha::conn::{BoxFut, ChunnelConnection, Datagram, Drain};
use bertha::negotiate::{NegotiateSlot, Offer, SlotApply};
use bertha::Error;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::task::{Context, Poll};
use std::time::Instant;

/// Raw spans kept per workload (aggregates cover every span).
pub const RAW_SPAN_CAP: usize = 10_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Turn span recording on or off. Off (the default, and the state during
/// every untraced measurement) makes [`Spanned`] forward calls after one
/// relaxed load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// What a span measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dir {
    /// A `send` into a layer.
    Send,
    /// A `recv` from a layer.
    Recv,
    /// Any other call (`connect`, `negotiate_client`, `get`, the op itself).
    Call,
}

impl Dir {
    fn label(self) -> &'static str {
        match self {
            Dir::Send => "send",
            Dir::Recv => "recv",
            Dir::Call => "call",
        }
    }
}

/// One finished span. Times are nanoseconds since the process's trace
/// epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub dir: Dir,
    pub op: u64,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside polls of this span's future, children included.
    pub busy_ns: u64,
    /// `busy_ns` minus the busy time of nested spans.
    pub self_ns: u64,
    /// Payload bytes, for byte-level connections.
    pub bytes: u64,
}

/// Running totals for one `(name, dir)`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub wall_ns: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    pub bytes: u64,
}

impl Agg {
    /// Mean self (busy) time per call, in microseconds.
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

#[derive(Default)]
struct Recorder {
    aggs: BTreeMap<(&'static str, Dir), Agg>,
    raw: Vec<Span>,
    /// `(token, op)` pairs: a receive is spanned before the reply says
    /// which op it answers.
    bindings: Vec<(u64, u64)>,
}

fn recorder() -> &'static Mutex<Recorder> {
    static REC: OnceLock<Mutex<Recorder>> = OnceLock::new();
    REC.get_or_init(Default::default)
}

fn record(span: Span) {
    // A poisoned lock means a recording thread panicked mid-push; the
    // maps are still valid, keep counting.
    let mut rec = recorder().lock().unwrap_or_else(|p| p.into_inner());
    let agg = rec.aggs.entry((span.name, span.dir)).or_default();
    agg.count += 1;
    agg.wall_ns += span.end_ns.saturating_sub(span.start_ns);
    agg.busy_ns += span.busy_ns;
    agg.self_ns += span.self_ns;
    agg.bytes += span.bytes;
    if rec.raw.len() < RAW_SPAN_CAP {
        rec.raw.push(span);
    }
}

/// Everything recorded since the last [`take`]: aggregates, the first
/// [`RAW_SPAN_CAP`] raw spans (receive tokens resolved to op ids).
pub struct Collected {
    pub aggs: BTreeMap<(&'static str, Dir), Agg>,
    pub raw: Vec<Span>,
}

/// Drain the recorder.
pub fn take() -> Collected {
    let mut rec = recorder().lock().unwrap_or_else(|p| p.into_inner());
    let rec = std::mem::take(&mut *rec);
    let bound: BTreeMap<u64, u64> = rec.bindings.into_iter().collect();
    let mut raw = rec.raw;
    for s in &mut raw {
        if let Some(op) = bound.get(&s.op) {
            // Spans directly under the receive hang off the op's root.
            if s.parent == root_id(s.op) {
                s.parent = root_id(*op);
            }
            s.op = *op;
        }
    }
    Collected {
        aggs: rec.aggs,
        raw,
    }
}

// ---- context: which op and which span is "current" on this thread --------

thread_local! {
    /// `(op, span)` of the spanned future being polled on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Busy nanoseconds reported by spans nested in the one being polled.
    static CHILD_BUSY: Cell<u64> = const { Cell::new(0) };
}

/// Ids at or above this are receive tokens, not op ids.
const TOKEN_BASE: u64 = 1 << 62;
/// An op's root span gets id `ROOT_BASE + op`, clear of the counter that
/// numbers every other span. Op ids must stay below `ROOT_BASE`.
const ROOT_BASE: u64 = 1 << 61;

fn root_id(op: u64) -> u64 {
    ROOT_BASE.wrapping_add(op)
}

/// A fresh token to span a receive under; [`bind`] it once the reply
/// names its op.
pub fn recv_token() -> u64 {
    TOKEN_BASE + NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Declare that the spans recorded under `token` belong to `op`.
pub fn bind(token: u64, op: u64) {
    if !enabled() {
        return;
    }
    let mut rec = recorder().lock().unwrap_or_else(|p| p.into_inner());
    if rec.raw.len() < RAW_SPAN_CAP {
        rec.bindings.push((token, op));
    }
}

/// Run `f` as span `(op, id)`: nested spans see it as their parent, and
/// their busy time is returned alongside `f`'s own duration.
fn scoped<R>(op: u64, id: u64, f: impl FnOnce() -> R) -> (R, u64, u64) {
    let prev = CURRENT.replace((op, id));
    let saved = CHILD_BUSY.replace(0);
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_nanos() as u64;
    let children = CHILD_BUSY.replace(saved + dt);
    CURRENT.set(prev);
    (out, dt, children)
}

/// A future whose polls are timed as one span.
struct SpanFuture<F, T> {
    inner: F,
    name: &'static str,
    dir: Dir,
    op: u64,
    id: u64,
    parent: u64,
    start_ns: u64,
    busy_ns: u64,
    self_ns: u64,
    bytes_of: fn(&T) -> u64,
    send_bytes: u64,
}

impl<F, T> Future for SpanFuture<F, T>
where
    F: Future<Output = Result<T, Error>> + Unpin,
{
    type Output = Result<T, Error>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let (polled, dt, children) =
            scoped(this.op, this.id, || Pin::new(&mut this.inner).poll(cx));
        this.busy_ns += dt;
        this.self_ns += dt.saturating_sub(children);
        let Poll::Ready(out) = polled else {
            return Poll::Pending;
        };
        let bytes = match (&out, this.dir) {
            (Ok(v), Dir::Recv) => (this.bytes_of)(v),
            _ => this.send_bytes,
        };
        record(Span {
            name: this.name,
            dir: this.dir,
            op: this.op,
            id: this.id,
            parent: this.parent,
            start_ns: this.start_ns,
            end_ns: now_ns(),
            busy_ns: this.busy_ns,
            self_ns: this.self_ns,
            bytes,
        });
        Poll::Ready(out)
    }
}

/// Start a span named `name` around the future `make` returns. `op`
/// overrides the inherited op id (pass 0 to inherit). Building the
/// future counts toward the span too, since some layers work before
/// their first `.await`.
fn spanned<'a, T: Send + 'a>(
    name: &'static str,
    dir: Dir,
    op: u64,
    send_bytes: u64,
    bytes_of: fn(&T) -> u64,
    make: impl FnOnce() -> BoxFut<'a, Result<T, Error>>,
) -> BoxFut<'a, Result<T, Error>> {
    let (inherited_op, parent) = CURRENT.get();
    let op = if op != 0 { op } else { inherited_op };
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let (inner, dt, children) = scoped(op, id, make);
    Box::pin(SpanFuture {
        inner,
        name,
        dir,
        op,
        id,
        parent,
        start_ns,
        busy_ns: dt,
        self_ns: dt.saturating_sub(children),
        bytes_of,
        send_bytes,
    })
}

/// Span one call that is not a `send`/`recv` (or the whole op). With
/// tracing off this is just `fut`.
pub async fn around<T: Send>(
    name: &'static str,
    op: u64,
    fut: impl Future<Output = Result<T, Error>> + Send,
) -> Result<T, Error> {
    if !enabled() {
        return fut.await;
    }
    spanned(name, Dir::Call, op, 0, |_| 0, || Box::pin(fut)).await
}

/// Record a span whose start and end the caller measured itself (the
/// per-op root span: send start to reply verified).
pub fn record_root(name: &'static str, op: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let start_ns = start.saturating_duration_since(epoch()).as_nanos() as u64;
    let end_ns = end.saturating_duration_since(epoch()).as_nanos() as u64;
    record(Span {
        name,
        dir: Dir::Call,
        op,
        id: root_id(op),
        parent: 0,
        start_ns,
        end_ns,
        busy_ns: 0,
        self_ns: 0,
        bytes: 0,
    });
}

/// Poll `fut` with `op` as the current op (and root span), so the layer
/// spans it causes carry the op id.
pub async fn with_op<R>(op: u64, fut: impl Future<Output = R>) -> R {
    if !enabled() {
        return fut.await;
    }
    let mut fut = std::pin::pin!(fut);
    std::future::poll_fn(|cx| {
        let prev = CURRENT.replace((op, root_id(op)));
        let out = fut.as_mut().poll(cx);
        CURRENT.set(prev);
        out
    })
    .await
}

// ---- the connection and chunnel wrappers -----------------------------------

/// A pass-through connection that spans every `send` and `recv` into the
/// connection it wraps, as layer `name`.
pub struct Spanned<C> {
    inner: C,
    name: &'static str,
}

impl<C> Spanned<C> {
    pub fn new(name: &'static str, inner: C) -> Self {
        Spanned { inner, name }
    }
}

fn datagram_len(d: &Datagram) -> u64 {
    d.1.len() as u64
}

impl<C> ChunnelConnection for Spanned<C>
where
    C: ChunnelConnection<Data = Datagram>,
{
    type Data = Datagram;

    fn send(&self, data: Datagram) -> BoxFut<'_, Result<(), Error>> {
        if !enabled() {
            return self.inner.send(data);
        }
        let bytes = datagram_len(&data);
        spanned(
            self.name,
            Dir::Send,
            0,
            bytes,
            |_| 0,
            || self.inner.send(data),
        )
    }

    fn recv(&self) -> BoxFut<'_, Result<Datagram, Error>> {
        if !enabled() {
            return self.inner.recv();
        }
        spanned(self.name, Dir::Recv, 0, 0, datagram_len, || {
            self.inner.recv()
        })
    }
}

impl<C: Drain> Drain for Spanned<C> {
    fn drain(&self) -> BoxFut<'_, Result<(), Error>> {
        self.inner.drain()
    }
}

/// A chunnel that negotiates exactly as `C` does and wraps the connection
/// `C` produces in a [`Spanned`] named `layer`, so a negotiated stack
/// `wrap!(Traced(a) |> Traced(b))` has a span boundary above every layer.
#[derive(Clone)]
pub struct Traced<C> {
    pub chunnel: C,
    pub layer: &'static str,
}

/// Shorthand for [`Traced`].
pub fn traced<C>(layer: &'static str, chunnel: C) -> Traced<C> {
    Traced { chunnel, layer }
}

impl<C: NegotiateSlot> NegotiateSlot for Traced<C> {
    fn slot_offers(&self) -> Vec<Offer> {
        self.chunnel.slot_offers()
    }
}

impl<C, InC> SlotApply<InC> for Traced<C>
where
    C: SlotApply<InC>,
    C::Applied: ChunnelConnection<Data = Datagram> + Send + 'static,
{
    type Applied = Spanned<C::Applied>;

    fn slot_apply(
        &self,
        pick: Offer,
        nonce: Vec<u8>,
        inner: InC,
    ) -> BoxFut<'static, Result<Self::Applied, Error>> {
        let layer = self.layer;
        let applied = self.chunnel.slot_apply(pick, nonce, inner);
        Box::pin(async move { Ok(Spanned::new(layer, applied.await?)) })
    }
}

// ---- offline analysis of raw spans ------------------------------------------

/// Wall-clock self time of every span in `spans`: its duration minus the
/// part of that interval its direct children cover (overlapping children
/// are not counted twice; a child is clipped to its parent's interval).
pub fn wall_self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (start, end) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if start < end {
                children.entry(s.parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// For each op with a root span in `spans`: `(root duration, sum of the
/// wall self times of the root and every span below it)`. The two agree
/// when the tree is consistent (children inside parents, no double
/// counting), which the traced pass checks.
pub fn op_coverage(spans: &[Span], root_name: &str) -> Vec<(u64, u64)> {
    let selfs = wall_self_times(spans);
    let parent_of: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let roots: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == root_name)
        .map(|s| (s.id, s.end_ns - s.start_ns))
        .collect();
    let mut sums: BTreeMap<u64, u64> = roots.keys().map(|&r| (r, 0)).collect();
    for s in spans {
        // Walk up to the root (depth is the stack height, a handful).
        let mut at = s.id;
        let mut hops = 0;
        while !roots.contains_key(&at) && hops < 64 {
            match parent_of.get(&at) {
                Some(&p) if p != 0 => at = p,
                _ => break,
            }
            hops += 1;
        }
        if let Some(sum) = sums.get_mut(&at) {
            *sum += selfs.get(&s.id).copied().unwrap_or(0);
        }
    }
    roots.iter().map(|(id, dur)| (*dur, sums[id])).collect()
}

/// Render spans as a JSON array (one object per span).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"dir\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"self_ns\":{},\"bytes\":{}}}",
            s.name,
            s.dir.label(),
            s.op,
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns,
            s.busy_ns,
            s.self_ns,
            s.bytes
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64, name: &'static str) -> Span {
        Span {
            name,
            dir: Dir::Call,
            op: 1,
            id,
            parent,
            start_ns,
            end_ns,
            busy_ns: 0,
            self_ns: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100]; children [10,40] and [30,60] overlap on [30,40];
        // grandchild [12,20] under the first child.
        let spans = [
            span(1, 0, 0, 100, "op"),
            span(2, 1, 10, 40, "a"),
            span(3, 1, 30, 60, "b"),
            span(4, 2, 12, 20, "c"),
        ];
        let selfs = wall_self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50, "union of children is [10,60]");
        assert_eq!(selfs[&2], 30 - 8);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 8);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        // A child that outlives its parent only covers the shared part.
        let spans = [span(1, 0, 0, 50, "op"), span(2, 1, 40, 90, "late")];
        let selfs = wall_self_times(&spans);
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 50);
    }

    #[test]
    fn coverage_sums_to_root_for_nested_trees() {
        let spans = [
            span(1, 0, 0, 100, "op"),
            span(2, 1, 10, 40, "a"),
            span(3, 2, 15, 35, "b"),
            span(4, 1, 50, 70, "c"),
            // An unrelated root-less span is ignored.
            span(9, 0, 0, 1000, "pump"),
        ];
        let cov = op_coverage(&spans, "op");
        assert_eq!(cov, vec![(100, 100)]);
    }
}
