//! Central wire-tag registry, and the one codec for the negotiate channel.
//!
//! Every framing tag and frame-prefix byte in the workspace is defined
//! here, grouped by *channel* — the byte stream on which the tag is the
//! leading discriminant. Two tags on the same channel must not collide;
//! tags on different channels may reuse values freely (a reliability
//! frame is always nested inside a negotiated-connection data frame, so
//! their discriminants never meet).
//!
//! The registry is enforced twice:
//!
//! - at compile time, by the `const` collision assertion at the bottom of
//!   this file;
//! - by `bertha-check` (`crates/check`), which rejects any
//!   `const NAME: u8 = 0x..` tag definition outside this module and
//!   re-parses the `// channel:` group markers below to re-verify
//!   uniqueness (so the seeded-violation self-test works on sources that
//!   are never compiled).
//!
//! To add a tag: pick the channel section (or start a new one with a
//! `// channel: <name>` marker), add a `const NAME: u8` with a doc
//! comment, and append a matching [`TagEntry`] to [`REGISTRY`]. Use the
//! constant from here (`use bertha::negotiate::wire::...`) at the framing
//! site; never re-declare the literal.
//!
//! The negotiate channel is the exception to "use the constant": its tags
//! are private to this module, and every other module — the handshake,
//! re-negotiation, the shard steerer, workers and dispatcher — goes through
//! [`classify`], [`prepend_data`] and [`frame_neg`]. The layout of a
//! negotiated connection's outer framing is therefore written down exactly
//! once, and a module that tried to match a tag byte itself would not
//! compile.

use crate::buf::Frame;
use bertha_telemetry::tracectx::{TraceContext, WIRE_LEN as CTX_LEN};

// channel: negotiate
//
// The outer framing of a negotiated connection: the first byte of every
// datagram on the raw transport underneath `NegotiatedConn` /
// `SwitchableConn`. 0x01 is retired: it tagged negotiation messages
// without a trace context, a layout no sender produces any more.

/// Frame tag: application data, `[tag][payload]`.
const TAG_DATA: u8 = 0x00;
/// Frame tag: application data bound to a specific epoch. Layout:
/// `[tag][epoch: u64 LE][payload]`. Epoch 0 traffic uses the untagged
/// [`TAG_DATA`] framing, which every epoch accepts.
const TAG_DATA_EPOCH: u8 = 0x02;
/// Frame tag: negotiation message, always under the sender's trace
/// context — `[tag][25-byte TraceContext][bincode NegotiateMsg]`.
const TAG_NEG: u8 = 0x03;

/// Length of the epoch-tagged data header: the tag plus a `u64` epoch.
const EPOCH_HDR: usize = 9;

/// What one datagram on the negotiate channel is. Borrowed from the
/// buffer it was classified from; `off` is where the payload starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind<'a> {
    /// Application data valid at any epoch (epoch-0 peers, shard workers).
    Data {
        /// Payload offset.
        off: usize,
    },
    /// Application data bound to one epoch's stack.
    DataEpoch {
        /// The sender's epoch.
        epoch: u64,
        /// Payload offset.
        off: usize,
    },
    /// A negotiation message and the trace context it was sent under.
    Neg {
        /// The sender's trace context.
        ctx: TraceContext,
        /// The serialized `NegotiateMsg`.
        body: &'a [u8],
    },
    /// Not a frame of this channel: unknown tag, or a header cut short. A
    /// stray datagram; receivers drop it.
    Unknown,
}

/// Classify one received datagram. One match on the first byte; never
/// allocates, copies or panics, whatever the input.
#[inline]
pub fn classify(buf: &[u8]) -> Kind<'_> {
    match buf.split_first() {
        Some((&TAG_DATA, _)) => Kind::Data { off: 1 },
        Some((&TAG_DATA_EPOCH, rest)) => match rest.first_chunk::<8>() {
            Some(epoch) => Kind::DataEpoch {
                epoch: u64::from_le_bytes(*epoch),
                off: EPOCH_HDR,
            },
            None => Kind::Unknown,
        },
        Some((&TAG_NEG, rest)) => match (TraceContext::decode(rest), rest.get(CTX_LEN..)) {
            (Some(ctx), Some(body)) => Kind::Neg { ctx, body },
            _ => Kind::Unknown,
        },
        _ => Kind::Unknown,
    }
}

/// Tag `frame` as application data of `epoch`, in its reserved headroom.
/// Epoch 0 (and senders outside any negotiated stack) get the plain tag.
#[inline]
pub fn prepend_data(frame: &mut Frame, epoch: u64) {
    if epoch == 0 {
        frame.prepend(&[TAG_DATA]);
    } else {
        let mut hdr = [TAG_DATA_EPOCH; EPOCH_HDR];
        hdr[1..].copy_from_slice(&epoch.to_le_bytes());
        frame.prepend(&hdr);
    }
}

/// Frame a serialized negotiation message under the sender's context.
pub fn frame_neg(ctx: &TraceContext, body: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(1 + CTX_LEN + body.len());
    v.push(TAG_NEG);
    v.extend_from_slice(&ctx.encode());
    v.extend_from_slice(body);
    v
}

// channel: tracing
//
// The one-byte prefix the tracing chunnel puts on each data frame,
// nested inside the negotiate channel's data framing.

/// Tracing prefix: plain frame, no trace context follows.
pub const TRACING_PLAIN: u8 = 0x00;
/// Tracing prefix: a 25-byte trace context precedes the payload.
pub const TRACING_TRACED: u8 = 0x01;

// channel: reliable
//
// The reliability chunnel's frame discriminant:
// `[tag][seq: u64 LE][payload]`.

/// Reliability frame: payload carrying a sequence number.
pub const RELIABLE_DATA: u8 = 0x02;
/// Reliability frame: acknowledgment of a sequence number.
pub const RELIABLE_ACK: u8 = 0x03;

// channel: heartbeat
//
// The heartbeat chunnel's frame discriminant.

/// Heartbeat framing: application data follows.
pub const HEARTBEAT_DATA: u8 = 0x10;
/// Heartbeat framing: a bare keepalive, no payload.
pub const HEARTBEAT_BEAT: u8 = 0x11;

// channel: compress
//
// The compression chunnel's one-byte header.

/// Compression header: payload stored raw (compression did not help).
pub const COMPRESS_RAW: u8 = 0x00;
/// Compression header: payload is LZSS-compressed.
pub const COMPRESS_LZ: u8 = 0x01;

// channel: span-record
//
// The header of every encoded trace `SpanRecord` — the byte stream the
// span exporter ships to the agent's collector and the collector writes
// to its on-disk trace ring. The canonical constants live in
// `bertha_telemetry::span` (that crate sits below this one, so it cannot
// `use` the registry); the assertion below keeps them in lock-step.

/// Span-record header: leading magic byte.
pub const SPAN_MAGIC: u8 = 0xB5;
/// Span-record header: codec version.
pub const SPAN_VERSION: u8 = 0x01;

const _: () = assert!(
    SPAN_MAGIC == bertha_telemetry::span::SPAN_MAGIC
        && SPAN_VERSION == bertha_telemetry::span::SPAN_VERSION,
    "wire registry and bertha_telemetry::span disagree on the span-record header"
);

/// One registered wire tag: a named byte value on a framing channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagEntry {
    /// The framing channel the tag is a discriminant on.
    pub channel: &'static str,
    /// The constant's name, for diagnostics.
    pub name: &'static str,
    /// The wire value.
    pub value: u8,
}

/// Every registered tag. Kept in sync with the constants above; the
/// collision assertion below and `bertha-check` both read this table.
pub const REGISTRY: &[TagEntry] = &[
    TagEntry {
        channel: "negotiate",
        name: "TAG_DATA",
        value: TAG_DATA,
    },
    TagEntry {
        channel: "negotiate",
        name: "TAG_NEG",
        value: TAG_NEG,
    },
    TagEntry {
        channel: "negotiate",
        name: "TAG_DATA_EPOCH",
        value: TAG_DATA_EPOCH,
    },
    TagEntry {
        channel: "tracing",
        name: "TRACING_PLAIN",
        value: TRACING_PLAIN,
    },
    TagEntry {
        channel: "tracing",
        name: "TRACING_TRACED",
        value: TRACING_TRACED,
    },
    TagEntry {
        channel: "reliable",
        name: "RELIABLE_DATA",
        value: RELIABLE_DATA,
    },
    TagEntry {
        channel: "reliable",
        name: "RELIABLE_ACK",
        value: RELIABLE_ACK,
    },
    TagEntry {
        channel: "heartbeat",
        name: "HEARTBEAT_DATA",
        value: HEARTBEAT_DATA,
    },
    TagEntry {
        channel: "heartbeat",
        name: "HEARTBEAT_BEAT",
        value: HEARTBEAT_BEAT,
    },
    TagEntry {
        channel: "compress",
        name: "COMPRESS_RAW",
        value: COMPRESS_RAW,
    },
    TagEntry {
        channel: "compress",
        name: "COMPRESS_LZ",
        value: COMPRESS_LZ,
    },
    TagEntry {
        channel: "span-record",
        name: "SPAN_MAGIC",
        value: SPAN_MAGIC,
    },
    TagEntry {
        channel: "span-record",
        name: "SPAN_VERSION",
        value: SPAN_VERSION,
    },
];

/// Look a tag up by channel and value.
pub fn lookup(channel: &str, value: u8) -> Option<&'static TagEntry> {
    REGISTRY
        .iter()
        .find(|e| e.channel == channel && e.value == value)
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

const fn no_collisions() -> bool {
    let mut i = 0;
    while i < REGISTRY.len() {
        let mut j = i + 1;
        while j < REGISTRY.len() {
            if str_eq(REGISTRY[i].channel, REGISTRY[j].channel)
                && REGISTRY[i].value == REGISTRY[j].value
            {
                return false;
            }
            j += 1;
        }
        i += 1;
    }
    true
}

const _: () = assert!(
    no_collisions(),
    "two wire tags on the same channel share a value"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_constants() {
        assert_eq!(
            lookup("negotiate", TAG_DATA).map(|e| e.name),
            Some("TAG_DATA")
        );
        assert_eq!(
            lookup("negotiate", TAG_DATA_EPOCH).map(|e| e.name),
            Some("TAG_DATA_EPOCH")
        );
        assert_eq!(
            lookup("reliable", RELIABLE_ACK).map(|e| e.name),
            Some("RELIABLE_ACK")
        );
        assert!(lookup("negotiate", 0x7f).is_none());
        assert!(lookup("nope", TAG_DATA).is_none());
        // The context-less negotiation tag is gone, not renumbered.
        assert!(lookup("negotiate", 0x01).is_none());
    }

    #[test]
    fn channels_are_internally_unique() {
        for (i, a) in REGISTRY.iter().enumerate() {
            for b in &REGISTRY[i + 1..] {
                assert!(
                    !(a.channel == b.channel && a.value == b.value),
                    "{} and {} collide on channel {}",
                    a.name,
                    b.name,
                    a.channel
                );
            }
        }
    }
}

#[cfg(test)]
mod frame_props {
    use super::*;
    use proptest::prelude::*;

    fn ctx_strategy() -> impl Strategy<Value = TraceContext> {
        (any::<u128>(), any::<u64>(), any::<bool>()).prop_map(|(trace_id, span_id, sampled)| {
            TraceContext {
                trace_id,
                span_id,
                sampled,
            }
        })
    }

    fn body_strategy() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..64)
    }

    fn data_frame(epoch: u64, body: &[u8]) -> Frame {
        let mut f = Frame::from(body);
        prepend_data(&mut f, epoch);
        f
    }

    proptest! {
        #[test]
        fn negotiation_frame_round_trips(ctx in ctx_strategy(), body in body_strategy()) {
            let framed = frame_neg(&ctx, &body);
            prop_assert_eq!(classify(&framed), Kind::Neg { ctx, body: &body[..] });
        }

        #[test]
        fn data_frames_round_trip(
            epoch in prop_oneof![Just(0u64), any::<u64>()],
            body in body_strategy(),
        ) {
            // Epoch 0 is the plain framing every receiver accepts.
            let want = if epoch == 0 {
                Kind::Data { off: 1 }
            } else {
                Kind::DataEpoch { epoch, off: EPOCH_HDR }
            };
            let framed = data_frame(epoch, &body);
            prop_assert_eq!(classify(&framed), want);
            prop_assert_eq!(&framed[framed.len() - body.len()..], &body[..]);
        }

        #[test]
        fn truncated_headers_are_unknown(
            ctx in ctx_strategy(),
            epoch in 1u64..,
            neg_cut in 1usize..1 + CTX_LEN,
            epoch_cut in 1usize..EPOCH_HDR,
        ) {
            // A tag whose fixed-size header is cut short is a stray
            // datagram, not an empty frame — and never a panic.
            let (neg, data) = (frame_neg(&ctx, &[]), data_frame(epoch, &[]));
            prop_assert_eq!(classify(&neg[..neg_cut]), Kind::Unknown);
            prop_assert_eq!(classify(&data[..epoch_cut]), Kind::Unknown);
        }

        #[test]
        fn unknown_tags_are_unknown(tag in any::<u8>(), body in body_strategy()) {
            prop_assume!(REGISTRY.iter().all(|e| e.channel != "negotiate" || e.value != tag));
            let mut framed = vec![tag];
            framed.extend_from_slice(&body);
            prop_assert_eq!(classify(&framed), Kind::Unknown);
        }

        #[test]
        fn arbitrary_bytes_never_panic(buf in proptest::collection::vec(any::<u8>(), 0..128)) {
            // Whatever comes back, the payload it points at is in bounds.
            match classify(&buf) {
                Kind::Data { off } | Kind::DataEpoch { off, .. } => prop_assert!(off <= buf.len()),
                Kind::Neg { body, .. } => prop_assert!(body.len() < buf.len()),
                Kind::Unknown => {}
            }
        }

        #[test]
        fn flipped_flag_byte_only_toggles_sampling(ctx in ctx_strategy(), flags in any::<u8>()) {
            let mut framed = frame_neg(&ctx, b"body");
            framed[CTX_LEN] = flags;
            let want = TraceContext { sampled: flags & 1 == 1, ..ctx };
            prop_assert_eq!(classify(&framed), Kind::Neg { ctx: want, body: b"body" });
        }
    }
}
