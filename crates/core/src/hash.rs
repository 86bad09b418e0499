//! Stable content hashing shared by the migration cache and the batch
//! checkpoint layer.
//!
//! `std::hash::Hash` makes no cross-process guarantees (`HashMap`'s
//! default hasher is randomly seeded per process), so anything that
//! persists a fingerprint — a checkpoint file, an on-disk cache entry —
//! needs a hash that is a *stable function of content*: same bytes in,
//! same 64-bit value out, on every run, on every host. [`StableHasher`]
//! is that function (FNV-1a, 64-bit), and [`StableHash`] is the
//! structural-hashing trait layered on top of it.
//!
//! Two rules keep fingerprints honest:
//!
//! * **Length-prefix framing.** Every variable-length value writes its
//!   length before its bytes, so `("ab", "c")` and `("a", "bc")` hash
//!   differently. Without framing, concatenation ambiguity silently
//!   merges distinct inputs into one fingerprint.
//! * **Deterministic iteration.** Only ordered containers (`BTreeMap`,
//!   `BTreeSet`, slices) implement [`StableHash`]; unordered ones would
//!   make the digest depend on iteration order.

use std::collections::{BTreeMap, BTreeSet};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// An incremental, process-independent 64-bit content hasher
/// (FNV-1a). Also counts the bytes fed into it, which the migration
/// cache uses as a size estimate for the hashed value (see
/// [`size_of`]).
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
    bytes: usize,
    /// False for the count-only walk of [`size_of`]: bytes are counted
    /// but not mixed into `state`.
    hashing: bool,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher::seeded(FNV_OFFSET)
    }

    /// A hasher seeded from a previous digest, for chaining
    /// (`prefix_hash -> extended hash`).
    pub fn seeded(seed: u64) -> Self {
        StableHasher {
            state: seed,
            bytes: 0,
            hashing: true,
        }
    }

    /// Feeds raw bytes. No framing — callers that hash variable-length
    /// data should prefer [`StableHasher::write_bytes`].
    pub fn write_raw(&mut self, bytes: &[u8]) {
        if self.hashing {
            for &b in bytes {
                self.state ^= b as u64;
                self.state = self.state.wrapping_mul(FNV_PRIME);
            }
        }
        self.bytes += bytes.len();
    }

    /// Feeds a length-prefixed byte string.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        self.write_raw(bytes);
    }

    /// Feeds a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a `u8`.
    pub fn write_u8(&mut self, v: u8) {
        self.write_raw(&[v]);
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Feeds an `i64` (little-endian two's complement).
    pub fn write_i64(&mut self, v: i64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Feeds a `usize`, widened to `u64` so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` by bit pattern (`-0.0` and `0.0` hash apart;
    /// equal NaN payloads hash together — fine for fingerprinting).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current 64-bit digest. The hasher stays usable.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// Total bytes fed so far (before framing overhead is excluded —
    /// framing bytes count too; this is an *estimate*, used for cache
    /// accounting, not an exact serialized size).
    pub fn bytes_written(&self) -> usize {
        self.bytes
    }
}

/// Structural content hashing into a [`StableHasher`].
///
/// Implementations must be deterministic functions of value content:
/// no addresses, no map iteration order, no per-process state.
pub trait StableHash {
    /// Feeds `self`'s content into `h`.
    fn stable_hash(&self, h: &mut StableHasher);
}

/// One-shot digest of a [`StableHash`] value.
pub fn hash_of<T: StableHash + ?Sized>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    value.stable_hash(&mut h);
    h.finish()
}

/// One-shot digest plus the byte-count estimate accumulated while
/// hashing.
pub fn hash_and_size<T: StableHash + ?Sized>(value: &T) -> (u64, usize) {
    let mut h = StableHasher::new();
    value.stable_hash(&mut h);
    (h.finish(), h.bytes_written())
}

/// The byte-count estimate of [`hash_and_size`] alone: exactly
/// `hash_and_size(value).1`, from the same structural walk with the
/// per-byte hashing skipped. The migration cache charges its byte
/// budget with this.
pub fn size_of<T: StableHash + ?Sized>(value: &T) -> usize {
    let mut h = StableHasher {
        hashing: false,
        ..StableHasher::new()
    };
    value.stable_hash(&mut h);
    h.bytes_written()
}

impl StableHash for u8 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(*self);
    }
}

impl StableHash for u32 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(*self);
    }
}

impl StableHash for u64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self);
    }
}

impl StableHash for usize {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(*self);
    }
}

impl StableHash for i32 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_i64(*self as i64);
    }
}

impl StableHash for i64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_i64(*self);
    }
}

impl StableHash for f64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_f64(*self);
    }
}

impl StableHash for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(*self as u8);
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl<T: StableHash + ?Sized> StableHash for &T {
    fn stable_hash(&self, h: &mut StableHasher) {
        (**self).stable_hash(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.stable_hash(h);
            }
        }
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(self.len());
        for v in self {
            v.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash> StableHash for (A, B) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash, C: StableHash> StableHash for (A, B, C) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
        self.2.stable_hash(h);
    }
}

impl<K: StableHash, V: StableHash> StableHash for BTreeMap<K, V> {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(self.len());
        for (k, v) in self {
            k.stable_hash(h);
            v.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for BTreeSet<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(self.len());
        for v in self {
            v.stable_hash(h);
        }
    }
}

impl StableHash for crate::intern::IStr {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self.as_str());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_a_pure_function_of_content() {
        assert_eq!(hash_of("abc"), hash_of(&String::from("abc")));
        assert_ne!(hash_of("abc"), hash_of("abd"));
        let a: Vec<String> = vec!["x".into(), "y".into()];
        let b: Vec<String> = vec!["x".into(), "y".into()];
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn length_framing_prevents_concatenation_collisions() {
        assert_ne!(
            hash_of(&("ab".to_string(), "c".to_string())),
            hash_of(&("a".to_string(), "bc".to_string()))
        );
        let split: Vec<String> = vec!["ab".into(), "".into()];
        let merged: Vec<String> = vec!["a".into(), "b".into()];
        assert_ne!(hash_of(&split), hash_of(&merged));
    }

    #[test]
    fn option_and_empty_values_are_distinct() {
        assert_ne!(hash_of(&None::<String>), hash_of(&Some(String::new())));
        let empty: Vec<u64> = vec![];
        let zero: Vec<u64> = vec![0];
        assert_ne!(hash_of(&empty), hash_of(&zero));
    }

    #[test]
    fn seeded_chaining_extends_a_digest() {
        let mut a = StableHasher::new();
        a.write_str("prefix");
        let mid = a.finish();
        a.write_str("suffix");

        let mut b = StableHasher::seeded(mid);
        b.write_str("suffix");
        assert_eq!(a.finish(), b.finish());
        assert_ne!(mid, a.finish());
    }

    #[test]
    fn byte_count_tracks_input_size() {
        let (h1, s1) = hash_and_size("tiny");
        let (h2, s2) = hash_and_size("a much longer input string");
        assert_ne!(h1, h2);
        assert!(s2 > s1);
        assert_eq!(size_of("tiny"), s1);
        assert_eq!(size_of("a much longer input string"), s2);
        let nested: Vec<(String, Option<u64>)> = vec![("a".into(), None), ("bc".into(), Some(3))];
        assert_eq!(size_of(&nested), hash_and_size(&nested).1);
    }

    #[test]
    fn digest_is_pinned_against_accidental_algorithm_drift() {
        // FNV-1a of the raw bytes "a" from the standard offset basis.
        let mut h = StableHasher::new();
        h.write_raw(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
