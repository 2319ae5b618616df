//! A compact k-hash Bloom filter, used by the practical conflict-miss
//! tracker to remember prematurely replaced cache blocks (paper Figure 9:
//! "a compact three-hash bloom filter" per generation).

use crate::DetectorError;

/// A fixed-size Bloom filter over `u64` keys with `k` derived hash
//  functions.
///
/// Membership queries can return false positives (bounded by the usual
/// Bloom arithmetic) but never false negatives, which is the property the
/// conflict-miss tracker relies on: a conflict miss can be over- but never
/// under-reported by the filter itself.
///
/// ```
/// use cchunter_detector::BloomFilter;
/// let mut f = BloomFilter::new(4096, 3)?;
/// f.insert(0xDEAD_BEEF);
/// assert!(f.contains(0xDEAD_BEEF));
/// # Ok::<(), cchunter_detector::DetectorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    hashes: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Creates a filter with `num_bits` bits and `hashes` hash functions.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `num_bits` or `hashes`
    /// is zero.
    pub fn new(num_bits: usize, hashes: u32) -> Result<Self, DetectorError> {
        if num_bits == 0 || hashes == 0 {
            let reason = format!("a bloom filter of {num_bits} bits and {hashes} hashes");
            return Err(DetectorError::invalid(reason));
        }
        Ok(BloomFilter {
            bits: vec![0; num_bits.div_ceil(64)],
            num_bits,
            hashes,
            inserted: 0,
        })
    }

    /// Number of bits in the filter.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of hash functions.
    pub fn hashes(&self) -> u32 {
        self.hashes
    }

    /// Keys inserted since the last [`clear`](BloomFilter::clear).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Inserts `key`.
    pub fn insert(&mut self, key: u64) {
        let (mut bit, stride) = self.probe_start(key);
        for _ in 0..self.hashes {
            self.bits[bit / 64] |= 1u64 << (bit % 64);
            bit = (bit + stride) % self.num_bits;
        }
        self.inserted += 1;
    }

    /// Whether `key` may have been inserted (false positives possible).
    pub fn contains(&self, key: u64) -> bool {
        let (mut bit, stride) = self.probe_start(key);
        for _ in 0..self.hashes {
            if self.bits[bit / 64] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
            bit = (bit + stride) % self.num_bits;
        }
        true
    }

    /// Flash-clears the filter (the hardware operation performed when a
    /// generation is discarded).
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }

    /// Double hashing (Kirsch–Mitzenmacher): the `k` probe positions
    /// `bit_i = (h1 + i·h2) mod m` all derive from exactly two hash
    /// evaluations — `h1 = splitmix64(key)` and `h2 = splitmix64(h1)` —
    /// instead of re-hashing the key once per probe. Returns the first
    /// probe position and the (nonzero) stride between consecutive probes.
    /// Deterministic across runs.
    fn probe_start(&self, key: u64) -> (usize, usize) {
        let h1 = splitmix64(key);
        let h2 = splitmix64(h1) | 1; // odd, so strides cover the field
        let start = (h1 % self.num_bits as u64) as usize;
        // Keep the reduced stride nonzero so the k probes never collapse
        // onto a single bit.
        let stride = ((h2 % self.num_bits as u64) as usize).max(1);
        (start, stride)
    }
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(4096, 3).unwrap();
        let keys: Vec<u64> = (0..256).map(|i| i * 64 + 0x10_0000).collect();
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            assert!(f.contains(k), "key {k:#x} lost");
        }
        assert_eq!(f.inserted(), 256);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(1024, 3).unwrap();
        for k in 0..1000u64 {
            assert!(!f.contains(k * 997));
        }
        assert!(f.bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn clear_is_flash_clear() {
        let mut f = BloomFilter::new(256, 3).unwrap();
        f.insert(42);
        assert!(f.contains(42));
        f.clear();
        assert!(!f.contains(42));
        assert_eq!(f.inserted(), 0);
        assert!(f.bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        // Paper sizing: one generation holds at most N/4 = 1024 replaced
        // blocks in an N = 4096-bit filter with 3 hashes. With replacement
        // traffic far below the cap in practice, spot-check FP rate under a
        // quarter load.
        let mut f = BloomFilter::new(4096, 3).unwrap();
        for i in 0..256u64 {
            f.insert(i * 64);
        }
        let fps = (0..10_000u64)
            .map(|i| 0xABCD_0000 + i * 64)
            .filter(|&k| f.contains(k))
            .count();
        let rate = fps as f64 / 10_000.0;
        assert!(rate < 0.02, "false positive rate too high: {rate}");
    }

    #[test]
    fn zero_bits_rejected() {
        for (bits, hashes) in [(0, 3), (1024, 0), (0, 0)] {
            assert!(
                matches!(
                    BloomFilter::new(bits, hashes),
                    Err(DetectorError::InvalidConfig { .. })
                ),
                "{bits} bits, {hashes} hashes"
            );
        }
    }

    #[test]
    fn distinct_keys_hash_differently() {
        let f = BloomFilter::new(1 << 16, 3).unwrap();
        assert_ne!(f.probe_start(1), f.probe_start(2));
    }

    #[test]
    fn double_hashing_keeps_fp_rate_within_theory() {
        // Double hashing is asymptotically FP-equivalent to k independent
        // hashes (Kirsch & Mitzenmacher 2006). Guard the two-evaluation
        // probe derivation against regressions by checking the measured
        // rate stays within 2× of the theoretical (1 - e^{-kn/m})^k.
        let (m, k, n) = (4096usize, 3u32, 512u64);
        let mut f = BloomFilter::new(m, k).unwrap();
        for i in 0..n {
            f.insert(splitmix64(i)); // spread keys over the full u64 space
        }
        let trials = 50_000u64;
        let fps = (0..trials)
            .map(|i| splitmix64(0x5EED_0000 + i))
            .filter(|&key| f.contains(key))
            .count();
        let measured = fps as f64 / trials as f64;
        let theory = (1.0 - (-(k as f64) * n as f64 / m as f64).exp()).powi(k as i32);
        assert!(
            measured < 2.0 * theory + 0.002,
            "measured FP rate {measured:.4} vs theoretical {theory:.4}"
        );
    }
}
