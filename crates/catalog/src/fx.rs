//! A small Fx-style hasher for hot integer-keyed maps.
//!
//! The engine hashes millions of small group and join keys; SipHash is
//! unnecessarily expensive there. The pre-approved dependency list does not
//! include `rustc-hash`, so we ship the ~20-line multiply-xor algorithm
//! ourselves (same recurrence as rustc's `FxHasher`).
//!
//! The recurrence only mixes upward: a word's high bits never reach the
//! low bits of the hash. An integer `Value` hashes as its widened double,
//! whose low 32 bits are zero for every integer below 2^21 in magnitude,
//! so such keys would all share their low hash bits. `HashMap` buckets and
//! the engine's hash partitions both read the low bits; when keys share
//! them, every insert and lookup walks one long probe run and building a
//! map turns quadratic. [`FxHasher::finish`] therefore folds the high bits
//! down with a finishing mix.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for small keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The state after a finishing mix (the first multiply round of
    /// murmur3's `fmix64`) that spreads its high bits over the low ones.
    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.hash ^ (self.hash >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_values() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000);
    }

    /// Integers hash as widened doubles, whose low bits are zero; the
    /// finished hash must still spread them over the low bits that map
    /// buckets and hash partitions read (a random hash gives ~2,590
    /// distinct 12-bit patterns for 4,096 keys).
    #[test]
    fn integer_values_spread_over_low_hash_bits() {
        use std::hash::Hash;
        let low: std::collections::HashSet<u64> = (0..4096)
            .map(|i| {
                let mut h = FxHasher::default();
                crate::Value::Int(i).hash(&mut h);
                h.finish() & 0xfff
            })
            .collect();
        assert!(low.len() >= 2000, "{} distinct low-bit patterns", low.len());
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<(u32, u32), &str> = FxHashMap::default();
        m.insert((1, 2), "a");
        m.insert((2, 1), "b");
        assert_eq!(m.get(&(1, 2)), Some(&"a"));
        assert_eq!(m.get(&(2, 1)), Some(&"b"));
        assert_eq!(m.get(&(3, 3)), None);
    }

    #[test]
    fn byte_writes_cover_remainders() {
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3]);
        let short = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_ne!(short, h2.finish());
    }
}
