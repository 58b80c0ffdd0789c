//! A Bloom filter — the auxiliary point-lookup index the survey's
//! Lakehouse section calls for ("How to design auxiliary structures such
//! as indexes over open data formats for efficient query processing?",
//! §8.3; Azure's Hyperspace indexing subsystem in §4.1).
//!
//! Min/max statistics cannot prune a file when the probe value lies
//! inside the file's range but is absent; a per-column Bloom filter can.
//! The filter serializes to bytes so the lakehouse stores it as a sidecar
//! object next to each data file.

use lake_core::value::fnv1a;

/// A serializable Bloom filter over string items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    hashes: u32,
}

impl BloomFilter {
    /// Size a filter for `expected` items at roughly the given
    /// false-positive rate (standard m/k formulas).
    pub fn for_items(expected: usize, fpr: f64) -> BloomFilter {
        let expected = expected.max(1) as f64;
        let fpr = fpr.clamp(1e-6, 0.5);
        let m = (-(expected * fpr.ln()) / (2f64.ln().powi(2))).ceil().max(64.0) as usize;
        let k = ((m as f64 / expected) * 2f64.ln()).round().clamp(1.0, 16.0) as u32;
        BloomFilter { bits: vec![0; m.div_ceil(64)], num_bits: m, hashes: k }
    }

    fn positions(&self, item: &str) -> impl Iterator<Item = usize> + '_ {
        // Double hashing: h_i = h1 + i·h2.
        let h1 = fnv1a(item.as_bytes());
        let h2 = fnv1a(&h1.to_le_bytes()) | 1;
        let num_bits = self.num_bits as u64;
        (0..self.hashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % num_bits) as usize)
    }

    /// Insert an item.
    pub fn insert(&mut self, item: &str) {
        let positions: Vec<usize> = self.positions(item).collect();
        for p in positions {
            self.bits[p / 64] |= 1 << (p % 64);
        }
    }

    /// Whether the item *might* be present (false positives possible,
    /// false negatives impossible).
    pub fn may_contain(&self, item: &str) -> bool {
        self.positions(item).all(|p| self.bits[p / 64] & (1 << (p % 64)) != 0)
    }

    /// Serialize to bytes (little-endian words after a small header).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.bits.len() * 8);
        out.extend_from_slice(b"BLM1");
        out.extend_from_slice(&(self.num_bits as u32).to_le_bytes());
        out.extend_from_slice(&self.hashes.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialize from bytes.
    pub fn from_bytes(buf: &[u8]) -> Option<BloomFilter> {
        if buf.len() < 12 || &buf[..4] != b"BLM1" {
            return None;
        }
        let num_bits = u32::from_le_bytes(buf[4..8].try_into().ok()?) as usize;
        let hashes = u32::from_le_bytes(buf[8..12].try_into().ok()?);
        let words = num_bits.div_ceil(64);
        if buf.len() != 12 + words * 8 {
            return None;
        }
        let (words, _) = buf[12..].as_chunks::<8>();
        let bits = words.iter().map(|&w| u64::from_le_bytes(w)).collect();
        Some(BloomFilter { bits, num_bits, hashes })
    }

    /// Observed fill ratio (diagnostic).
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.num_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilter::for_items(1_000, 0.01);
        for i in 0..1_000 {
            b.insert(&format!("item{i}"));
        }
        for i in 0..1_000 {
            assert!(b.may_contain(&format!("item{i}")), "item{i}");
        }
    }

    #[test]
    fn false_positive_rate_is_near_target() {
        let mut b = BloomFilter::for_items(1_000, 0.01);
        for i in 0..1_000 {
            b.insert(&format!("item{i}"));
        }
        let fps = (0..10_000)
            .filter(|i| b.may_contain(&format!("absent{i}")))
            .count();
        let rate = fps as f64 / 10_000.0;
        assert!(rate < 0.03, "fpr {rate}");
    }

    #[test]
    fn serialization_roundtrips() {
        let mut b = BloomFilter::for_items(100, 0.01);
        for i in 0..100 {
            b.insert(&format!("v{i}"));
        }
        let bytes = b.to_bytes();
        let back = BloomFilter::from_bytes(&bytes).unwrap();
        assert_eq!(back, b);
        assert!(back.may_contain("v5"));
        // Corruption is rejected.
        assert!(BloomFilter::from_bytes(&bytes[..8]).is_none());
        assert!(BloomFilter::from_bytes(b"nope").is_none());
    }

    #[test]
    fn empty_filter_contains_nothing_claimed() {
        let b = BloomFilter::for_items(10, 0.01);
        let hits = (0..1000).filter(|i| b.may_contain(&format!("x{i}"))).count();
        assert_eq!(hits, 0);
        assert_eq!(b.fill_ratio(), 0.0);
    }
}
