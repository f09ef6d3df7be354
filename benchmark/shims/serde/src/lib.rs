//! Offline stand-in for the `serde` crate.
//!
//! The workspace only ever serializes through `bincode`, so this stand-in
//! drops serde's format-independent data model: [`Serialize`] appends the
//! bincode 1.x default encoding of a value to a byte vector and
//! [`Deserialize`] reads it back. The layout is bincode's — little-endian
//! fixed-width integers, `usize` as `u64`, `u64` length prefixes on
//! strings/sequences/maps, `u8` option tags, `u32` enum variant indices,
//! struct and tuple fields in order with no framing — so byte offsets the
//! workspace relies on (the KV request's sharding field) stay where the
//! real crates put them.
//!
//! `#[derive(Serialize, Deserialize)]` is provided by the sibling
//! `serde_derive` stand-in; `#[serde(...)]` attributes are not supported
//! (the workspace uses none).

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A value that can be appended to a buffer in bincode layout.
pub trait Serialize {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can be read from the front of a byte slice.
pub trait Deserialize<'de>: Sized {
    /// Decode one value, advancing `input` past it.
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error>;
}

/// Deserialization half: the error type and [`DeserializeOwned`].
pub mod de {
    pub use super::Deserialize;

    /// Why decoding failed.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Error(pub(crate) String);

    impl Error {
        /// An error carrying `msg`.
        pub fn custom(msg: impl std::fmt::Display) -> Self {
            Error(msg.to_string())
        }
    }

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for Error {}

    /// A type decodable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

/// Take `n` bytes off the front of `input`.
fn take<'de>(input: &mut &'de [u8], n: usize) -> Result<&'de [u8], de::Error> {
    if input.len() < n {
        return Err(de::Error(format!(
            "unexpected end of input: wanted {n} bytes, {} left",
            input.len()
        )));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Read a `u64` length prefix as `usize`.
fn take_len(input: &mut &[u8]) -> Result<usize, de::Error> {
    let len = u64::decode(input)?;
    usize::try_from(len).map_err(|_| de::Error(format!("length {len} does not fit in memory")))
}

/// Read the `u32` variant index of an enum. Used by derived impls.
#[doc(hidden)]
pub fn __variant(input: &mut &[u8]) -> Result<u32, de::Error> {
    u32::decode(input)
}

/// The error for an out-of-range variant index. Used by derived impls.
#[doc(hidden)]
pub fn __bad_variant(ty: &str, idx: u32) -> de::Error {
    de::Error(format!("invalid variant index {idx} for enum {ty}"))
}

macro_rules! fixed_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                // `take` returned exactly size_of::<$t>() bytes.
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized by take")))
            }
        }
    )*};
}
fixed_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl Serialize for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl<'de> Deserialize<'de> for usize {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        take_len(input)
    }
}

impl Serialize for isize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as i64).encode(out);
    }
}

impl<'de> Deserialize<'de> for isize {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let v = i64::decode(input)?;
        isize::try_from(v).map_err(|_| de::Error(format!("{v} does not fit isize")))
    }
}

impl Serialize for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl<'de> Deserialize<'de> for bool {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(de::Error(format!("invalid bool byte {b}"))),
        }
    }
}

impl Serialize for char {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut buf = [0u8; 4];
        out.extend_from_slice(self.encode_utf8(&mut buf).as_bytes());
    }
}

impl<'de> Deserialize<'de> for char {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let first = *input
            .first()
            .ok_or_else(|| de::Error("unexpected end of input".into()))?;
        let width = match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            0xF0..=0xF7 => 4,
            _ => return Err(de::Error("invalid utf-8 in char".into())),
        };
        let bytes = take(input, width)?;
        std::str::from_utf8(bytes)
            .ok()
            .and_then(|s| s.chars().next())
            .ok_or_else(|| de::Error("invalid utf-8 in char".into()))
    }
}

impl Serialize for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
}

impl<'de> Deserialize<'de> for () {
    fn decode(_input: &mut &'de [u8]) -> Result<Self, de::Error> {
        Ok(())
    }
}

impl Serialize for str {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Serialize for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl<'de> Deserialize<'de> for &'de str {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let len = take_len(input)?;
        std::str::from_utf8(take(input, len)?).map_err(|e| de::Error(format!("invalid utf-8: {e}")))
    }
}

impl<'de> Deserialize<'de> for String {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        <&str>::decode(input).map(str::to_owned)
    }
}

impl<'de> Deserialize<'de> for &'de [u8] {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let len = take_len(input)?;
        take(input, len)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        T::decode(input).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<T> {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        T::decode(input).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => T::decode(input).map(Some),
            b => Err(de::Error(format!("invalid option tag {b}"))),
        }
    }
}

impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                0u32.encode(out);
                v.encode(out);
            }
            Err(e) => {
                1u32.encode(out);
                e.encode(out);
            }
        }
    }
}

impl<'de, T: Deserialize<'de>, E: Deserialize<'de>> Deserialize<'de> for Result<T, E> {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        match __variant(input)? {
            0 => T::decode(input).map(Ok),
            1 => E::decode(input).map(Err),
            i => Err(__bad_variant("Result", i)),
        }
    }
}

/// Encode a length-prefixed sequence.
fn encode_seq<'a, T: Serialize + 'a>(
    len: usize,
    items: impl Iterator<Item = &'a T>,
    out: &mut Vec<u8>,
) {
    len.encode(out);
    for item in items {
        item.encode(out);
    }
}

/// Decode a length-prefixed sequence, pushing each element through `push`.
/// The claimed length never drives an allocation: containers grow as
/// elements actually decode, so a hostile prefix fails at end of input.
fn decode_seq<'de, T: Deserialize<'de>>(
    input: &mut &'de [u8],
    mut push: impl FnMut(T),
) -> Result<(), de::Error> {
    let len = take_len(input)?;
    for _ in 0..len {
        push(T::decode(input)?);
    }
    Ok(())
}

impl<T: Serialize> Serialize for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.len(), self.iter(), out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let mut peek = *input;
        let len = take_len(&mut peek)?;
        // Reserve no more than the input could possibly hold.
        let mut out = Vec::with_capacity(len.min(peek.len()));
        decode_seq(input, |v| out.push(v))?;
        Ok(out)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.len(), self.iter(), out);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for VecDeque<T> {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let mut out = VecDeque::new();
        decode_seq(input, |v| out.push_back(v))?;
        Ok(out)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.len(), self.iter(), out);
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let mut out = BTreeSet::new();
        decode_seq(input, |v| {
            out.insert(v);
        })?;
        Ok(out)
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.len(), self.iter(), out);
    }
}

impl<'de, T: Deserialize<'de> + Eq + Hash, S: BuildHasher + Default> Deserialize<'de>
    for HashSet<T, S>
{
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let mut out = HashSet::default();
        decode_seq(input, |v| {
            out.insert(v);
        })?;
        Ok(out)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let mut out = BTreeMap::new();
        decode_seq(input, |(k, v)| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<'de, K: Deserialize<'de> + Eq + Hash, V: Deserialize<'de>, S: BuildHasher + Default>
    Deserialize<'de> for HashMap<K, V, S>
{
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let mut out = HashMap::default();
        decode_seq(input, |(k, v)| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for item in self {
            item.encode(out);
        }
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::decode(input)?);
        }
        items
            .try_into()
            .map_err(|_| de::Error("array length mismatch".into()))
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$n.encode(out);)+
            }
        }
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
                Ok(($($t::decode(input)?,)+))
            }
        }
    )+};
}
tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

impl Serialize for Path {
    fn encode(&self, out: &mut Vec<u8>) {
        // serde proper refuses non-UTF-8 paths; lossy keeps this infallible.
        self.to_string_lossy().as_ref().encode(out);
    }
}

impl Serialize for PathBuf {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_path().encode(out);
    }
}

impl<'de> Deserialize<'de> for PathBuf {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        <&str>::decode(input).map(PathBuf::from)
    }
}

impl Serialize for Duration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_secs().encode(out);
        self.subsec_nanos().encode(out);
    }
}

impl<'de> Deserialize<'de> for Duration {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        let secs = u64::decode(input)?;
        let nanos = u32::decode(input)?;
        if nanos >= 1_000_000_000 {
            return Err(de::Error(format!("invalid duration nanos {nanos}")));
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl Serialize for Ipv4Addr {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.octets());
    }
}

impl<'de> Deserialize<'de> for Ipv4Addr {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        <[u8; 4]>::decode(input).map(Ipv4Addr::from)
    }
}

impl Serialize for Ipv6Addr {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.octets());
    }
}

impl<'de> Deserialize<'de> for Ipv6Addr {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        <[u8; 16]>::decode(input).map(Ipv6Addr::from)
    }
}

impl Serialize for IpAddr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            IpAddr::V4(ip) => {
                0u32.encode(out);
                ip.encode(out);
            }
            IpAddr::V6(ip) => {
                1u32.encode(out);
                ip.encode(out);
            }
        }
    }
}

impl<'de> Deserialize<'de> for IpAddr {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        match __variant(input)? {
            0 => Ipv4Addr::decode(input).map(IpAddr::V4),
            1 => Ipv6Addr::decode(input).map(IpAddr::V6),
            i => Err(__bad_variant("IpAddr", i)),
        }
    }
}

impl Serialize for SocketAddrV4 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ip().encode(out);
        self.port().encode(out);
    }
}

impl<'de> Deserialize<'de> for SocketAddrV4 {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        Ok(SocketAddrV4::new(
            Ipv4Addr::decode(input)?,
            u16::decode(input)?,
        ))
    }
}

impl Serialize for SocketAddrV6 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ip().encode(out);
        self.port().encode(out);
    }
}

impl<'de> Deserialize<'de> for SocketAddrV6 {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        Ok(SocketAddrV6::new(
            Ipv6Addr::decode(input)?,
            u16::decode(input)?,
            0,
            0,
        ))
    }
}

impl Serialize for SocketAddr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SocketAddr::V4(sa) => {
                0u32.encode(out);
                sa.encode(out);
            }
            SocketAddr::V6(sa) => {
                1u32.encode(out);
                sa.encode(out);
            }
        }
    }
}

impl<'de> Deserialize<'de> for SocketAddr {
    fn decode(input: &mut &'de [u8]) -> Result<Self, de::Error> {
        match __variant(input)? {
            0 => SocketAddrV4::decode(input).map(SocketAddr::V4),
            1 => SocketAddrV6::decode(input).map(SocketAddr::V6),
            i => Err(__bad_variant("SocketAddr", i)),
        }
    }
}
