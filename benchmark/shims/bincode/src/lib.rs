//! Offline stand-in for `bincode` 1.x.
//!
//! The serde stand-in already encodes in bincode's default layout
//! (little-endian fixed-width integers, `u64` length prefixes, `u32`
//! enum tags), so this crate is the two entry points the workspace
//! calls plus the error type.

use serde::de::DeserializeOwned;
use serde::Serialize;

/// Why a value could not be decoded.
pub type Error = Box<ErrorKind>;

/// `Result` with [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// The kinds of decoding failure.
#[derive(Debug)]
pub enum ErrorKind {
    /// The input ended early or held an invalid value.
    Custom(String),
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorKind::Custom(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ErrorKind {}

/// Encode `value`. Never fails for the types the stand-in supports; the
/// `Result` keeps the real crate's signature.
pub fn serialize<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    value.encode(&mut out);
    Ok(out)
}

/// Decode a `T` from the front of `bytes` (trailing bytes are ignored, as
/// in bincode's default configuration).
pub fn deserialize<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let mut input = bytes;
    T::decode(&mut input).map_err(|e| Box::new(ErrorKind::Custom(e.to_string())))
}

#[cfg(test)]
mod tests {
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;
    use std::net::SocketAddr;
    use std::path::PathBuf;

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    enum Kind {
        Unit,
        Tuple(u8, String),
        Named { count: u32, tags: Vec<u16> },
    }

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct Outer<T> {
        id: u64,
        kind: Kind,
        val: Option<Vec<u8>>,
        res: Result<T, String>,
        map: BTreeMap<u8, i32>,
        addr: SocketAddr,
        path: PathBuf,
        pair: (bool, f64),
    }

    #[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
    struct Newtype(pub u64);

    #[derive(Serialize)]
    struct Borrowed<'a> {
        key: &'a str,
        val: &'a Option<Vec<u8>>,
    }

    #[test]
    fn layout_matches_bincode_1x() {
        // u64 little-endian, then u32 variant tag, then u64-prefixed string.
        let bytes = super::serialize(&(7u64, Kind::Tuple(9, "ab".into()))).unwrap();
        assert_eq!(
            bytes,
            [7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 9, 2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b']
        );
        let v4: SocketAddr = "127.0.0.1:80".parse().unwrap();
        assert_eq!(
            super::serialize(&v4).unwrap(),
            [0, 0, 0, 0, 127, 0, 0, 1, 80, 0]
        );
        assert_eq!(super::serialize(&Some(1u16)).unwrap(), [1, 1, 0]);
        assert_eq!(super::serialize(&Newtype(1)).unwrap(), 1u64.to_le_bytes());
    }

    #[test]
    fn round_trips() {
        let v = Outer {
            id: 3,
            kind: Kind::Named {
                count: 2,
                tags: vec![1, 2],
            },
            val: Some(vec![1, 2, 3]),
            res: Ok(Kind::Unit),
            map: [(1, -1), (2, 5)].into_iter().collect(),
            addr: "[::1]:9".parse().unwrap(),
            path: "/tmp/x.sock".into(),
            pair: (true, 0.25),
        };
        let bytes = super::serialize(&v).unwrap();
        let back: Outer<Kind> = super::deserialize(&bytes).unwrap();
        assert_eq!(back, v);
        // Every strict prefix is an error, never a panic or a huge allocation.
        for cut in 0..bytes.len() {
            assert!(super::deserialize::<Outer<Kind>>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn borrowed_fields_encode_like_owned() {
        let val = Some(vec![4u8]);
        let b = super::serialize(&Borrowed {
            key: "k",
            val: &val,
        })
        .unwrap();
        let o = super::serialize(&("k".to_string(), val.clone())).unwrap();
        assert_eq!(b, o);
    }

    #[test]
    fn hostile_lengths_are_rejected() {
        let huge = u64::MAX.to_le_bytes();
        assert!(super::deserialize::<Vec<u64>>(&huge).is_err());
        assert!(super::deserialize::<String>(&huge).is_err());
        assert!(super::deserialize::<Kind>(&[9, 0, 0, 0]).is_err());
    }
}
