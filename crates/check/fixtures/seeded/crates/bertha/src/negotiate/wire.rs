//! Seeded wire-tag registry: one orphan tag, one non-hex value, one
//! same-channel collision, and a sealed `negotiate` channel whose single
//! negotiation tag `conn.rs` names anyway. The self-test asserts each is
//! flagged.

pub const TAG_ORPHAN: u8 = 0x09;

// channel: demo
pub const TAG_A: u8 = 0x01;
pub const TAG_B: u8 = 0x01;
pub const TAG_BAD: u8 = 3;

// channel: other
pub const TAG_C: u8 = 0x01;

// channel: negotiate
const TAG_NEG: u8 = 0x03;
