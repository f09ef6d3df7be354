//! Seeded hot-path file: a rogue tag constant, a hand-matched
//! negotiate-channel tag, a panicking parse, an
//! undocumented metric, a unitless histogram, a `_us` counter, an
//! undocumented per-layer format template, a malformed span op, an
//! undocumented span op, a blocking sleep in an async fn, a payload
//! copy with a payload-ish clone, and a stale alloc waiver.

pub const ROGUE_TAG: u8 = 0x42;

pub fn is_handshake(buf: &[u8]) -> bool {
    buf.first() == Some(&TAG_NEG)
}

pub fn recv(buf: &[u8]) -> u8 {
    tele::counter("rogue.metric").incr();
    let first = buf[0];
    Some(first).unwrap()
}

pub fn profile(label: &str, dir: &str) {
    tele::histogram("bad.nounit").record(1);
    tele::counter("bad.time_us").incr();
    let _ = format!("stack.{label}.{dir}_frames");
}

pub async fn drain(&self) {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

pub fn trace(ctx: &tele::tracectx::TraceContext, start: std::time::Instant) {
    tele::span::record_local("BadOp", ctx, 0, start, tele::span::SpanStatus::Ok, &[]);
    tele::span::record("rogue.span", "host-a", ctx, 0, start, tele::span::SpanStatus::Ok, &[]);
}

pub fn copy_out(payload: &Frame) -> Vec<u8> {
    let dup = payload.clone();
    dup.to_vec()
}

// check: allow(alloc): nothing below allocates any more
pub fn idle_alloc() {}
