//! Conflict-miss tracking (paper §V-A, Figure 9).
//!
//! A *conflict miss* re-fetches a block that was evicted from a
//! set-associative cache even though a fully-associative cache of the same
//! capacity (with LRU replacement) would still hold it. Two trackers are
//! provided:
//!
//! * [`IdealLruTracker`] — the expensive oracle: a shadow fully-associative
//!   LRU stack of the cache's capacity.
//! * [`GenerationTracker`] — the paper's practical hardware approximation:
//!   four access *generations* rotated every `T = N/4` distinct block
//!   accesses. Each replaced block's address is recorded in the Bloom
//!   filter of the latest generation it was accessed in; an incoming miss
//!   that hits any live Bloom filter is classified as a conflict miss.
//!   Discarding the oldest generation flash-clears its filter (the
//!   removal of entries from the bottom of the LRU stack).
//!
//! Drive a tracker with the cache's access/replacement stream:
//! for each access call [`MissClassifier::classify_miss`] first on a miss,
//! then [`MissClassifier::record_access`]; call
//! [`MissClassifier::record_replacement`] for each eviction.

use crate::bloom::BloomFilter;
use crate::DetectorError;
use std::collections::{HashMap, VecDeque};

/// Classification of a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictClass {
    /// The fully-associative reference cache would have retained the block:
    /// the miss is due to set conflicts — the raw material of cache covert
    /// channels.
    Conflict,
    /// A cold or capacity miss.
    NonConflict,
}

impl ConflictClass {
    /// Whether this is a conflict miss.
    pub fn is_conflict(self) -> bool {
        matches!(self, ConflictClass::Conflict)
    }
}

/// Common interface of the ideal and practical conflict-miss trackers.
pub trait MissClassifier {
    /// Classifies a miss on `block` *before* the block is (re)accessed.
    fn classify_miss(&mut self, block: u64) -> ConflictClass;

    /// Records an access to `block` (hit or miss fill).
    fn record_access(&mut self, block: u64);

    /// Records that `victim_block` was evicted by a fill.
    fn record_replacement(&mut self, victim_block: u64);
}

/// The ideal conflict-miss oracle: a shadow fully-associative cache of
/// `capacity_blocks` entries with true-LRU replacement.
///
/// A miss is a conflict miss iff the shadow cache still holds the block.
///
/// ```
/// use cchunter_detector::{ConflictClass, IdealLruTracker, MissClassifier};
/// let mut t = IdealLruTracker::new(2)?;
/// t.record_access(0xA0);
/// t.record_access(0xB0);
/// // 0xA0 is within the last 2 distinct blocks: an eviction of it by the
/// // real cache would be premature.
/// assert_eq!(t.classify_miss(0xA0), ConflictClass::Conflict);
/// t.record_access(0xC0); // pushes 0xB0 out of the 2-entry shadow
/// t.record_access(0xD0);
/// assert_eq!(t.classify_miss(0xB0), ConflictClass::NonConflict);
/// # Ok::<(), cchunter_detector::DetectorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IdealLruTracker {
    capacity: usize,
    /// Latest access tick per resident block; membership here *is*
    /// residency in the shadow cache.
    stamps: HashMap<u64, u64>,
    /// Accesses in arrival order. Entries whose tick no longer matches
    /// `stamps[block]` are stale (the block was re-accessed later) and are
    /// skipped lazily at eviction time, so recency ordering never needs a
    /// sorted structure: the queue is monotone in tick by construction.
    queue: VecDeque<(u64, u64)>,
    tick: u64,
}

impl IdealLruTracker {
    /// Creates a tracker for a cache of `capacity_blocks` blocks.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `capacity_blocks` is
    /// zero.
    pub fn new(capacity_blocks: usize) -> Result<Self, DetectorError> {
        if capacity_blocks == 0 {
            return Err(DetectorError::invalid("an empty conflict-miss tracker"));
        }
        Ok(IdealLruTracker {
            capacity: capacity_blocks,
            stamps: HashMap::new(),
            queue: VecDeque::new(),
            tick: 0,
        })
    }

    /// Number of blocks currently in the shadow cache.
    pub fn resident(&self) -> usize {
        self.stamps.len()
    }
}

impl MissClassifier for IdealLruTracker {
    fn classify_miss(&mut self, block: u64) -> ConflictClass {
        if self.stamps.contains_key(&block) {
            ConflictClass::Conflict
        } else {
            ConflictClass::NonConflict
        }
    }

    fn record_access(&mut self, block: u64) {
        self.tick += 1;
        self.stamps.insert(block, self.tick);
        self.queue.push_back((self.tick, block));
        if self.stamps.len() > self.capacity {
            // Evict the least recently used live entry; stale queue slots
            // (superseded by a later re-access) pop for free on the way.
            while let Some((t, b)) = self.queue.pop_front() {
                if self.stamps.get(&b) == Some(&t) {
                    self.stamps.remove(&b);
                    break;
                }
            }
        }
        // A hot working set that never exceeds capacity keeps appending
        // without ever popping; compact once stale slots dominate so memory
        // stays O(capacity). Each retained pass removes ≥ 3/4 of the queue,
        // so the scan amortizes to O(1) per access.
        if self.queue.len() > self.stamps.len().max(self.capacity) * 4 + 64 {
            let stamps = &self.stamps;
            self.queue.retain(|&(t, b)| stamps.get(&b) == Some(&t));
        }
    }

    fn record_replacement(&mut self, _victim_block: u64) {
        // The oracle needs no replacement feed: recency alone decides.
    }
}

/// Configuration of the practical tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationConfig {
    /// Total cache blocks `N` (4096 for the paper's 256 KB L2).
    pub total_blocks: usize,
    /// Bits per generation Bloom filter. The paper budgets
    /// 4 × `total_blocks` bits across the four filters, i.e. `total_blocks`
    /// bits each.
    pub bloom_bits: usize,
    /// Hash functions per filter (3 in the paper).
    pub bloom_hashes: u32,
}

impl GenerationConfig {
    /// Paper-faithful sizing for a cache of `total_blocks` blocks.
    pub fn for_cache(total_blocks: usize) -> Self {
        GenerationConfig {
            total_blocks,
            bloom_bits: total_blocks.max(64),
            bloom_hashes: 3,
        }
    }
}

/// The practical generation-bit + Bloom-filter conflict-miss tracker
/// (paper Figure 9).
///
/// Four generations approximate the LRU stack: all blocks accessed in a
/// younger generation are more recent than any block of an older
/// generation. A new generation starts every `T = N/4` distinct block
/// accesses, discarding the oldest (flash-clearing its Bloom filter).
/// Replaced blocks are recorded in the filter of the latest generation they
/// were accessed in; an incoming block found in any live filter was removed
/// from the cache prematurely — a conflict miss.
#[derive(Debug, Clone)]
pub struct GenerationTracker {
    config: GenerationConfig,
    /// Absolute id of the current (youngest) generation.
    current_gen: u64,
    /// Distinct blocks marked in the current generation so far.
    marked_in_current: usize,
    /// Rotation threshold `T = N/4`.
    threshold: usize,
    /// Latest generation each in-cache block was accessed in.
    last_gen: HashMap<u64, u64>,
    /// One Bloom filter per live generation, indexed by `gen % 4`.
    blooms: [BloomFilter; 4],
    /// Total generation rotations performed.
    rotations: u64,
}

impl GenerationTracker {
    /// Creates a tracker for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `total_blocks < 4` (one
    /// block per generation) or a generation's Bloom filter would have no
    /// bits or no hashes.
    pub fn new(config: GenerationConfig) -> Result<Self, DetectorError> {
        let blocks = config.total_blocks;
        if blocks < 4 {
            let reason = format!("a generation tracker needs 4 blocks, got {blocks}");
            return Err(DetectorError::invalid(reason));
        }
        let bloom = || BloomFilter::new(config.bloom_bits, config.bloom_hashes);
        Ok(GenerationTracker {
            config,
            current_gen: 3, // live generations 0..=3 from the start
            marked_in_current: 0,
            threshold: config.total_blocks / 4,
            last_gen: HashMap::new(),
            blooms: [bloom()?, bloom()?, bloom()?, bloom()?],
            rotations: 0,
        })
    }

    /// Paper-faithful tracker for a cache of `total_blocks` blocks.
    ///
    /// # Errors
    ///
    /// As [`GenerationTracker::new`].
    pub fn for_cache(total_blocks: usize) -> Result<Self, DetectorError> {
        Self::new(GenerationConfig::for_cache(total_blocks))
    }

    /// The configuration in use.
    pub fn config(&self) -> &GenerationConfig {
        &self.config
    }

    /// Number of generation rotations so far.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Oldest still-live generation id.
    fn oldest_live(&self) -> u64 {
        self.current_gen.saturating_sub(3)
    }

    fn rotate(&mut self) {
        self.current_gen += 1;
        self.rotations += 1;
        self.marked_in_current = 0;
        // Flash-clear the filter slot now reused by the new generation
        // (it held generation `current_gen - 4`, which just aged out).
        self.blooms[(self.current_gen % 4) as usize].clear();
        // Generation bits of aged-out blocks become irrelevant; prune the
        // shadow metadata map lazily to keep it bounded.
        let oldest = self.oldest_live();
        if self.last_gen.len() > self.config.total_blocks * 4 {
            self.last_gen.retain(|_, g| *g >= oldest);
        }
    }
}

impl MissClassifier for GenerationTracker {
    fn classify_miss(&mut self, block: u64) -> ConflictClass {
        if self.blooms.iter().any(|b| b.contains(block)) {
            ConflictClass::Conflict
        } else {
            ConflictClass::NonConflict
        }
    }

    fn record_access(&mut self, block: u64) {
        let gen = self.current_gen;
        let oldest = self.oldest_live();
        let prev = self.last_gen.insert(block, gen);
        // Only blocks *entering* the tracked window consume LRU-stack
        // capacity ("reaching 25% capacity in an ideal LRU stack", Fig. 9):
        // re-accessing a live block merely moves it to the stack top.
        let is_insertion = match prev {
            Some(g) => g < oldest,
            None => true,
        };
        if is_insertion {
            self.marked_in_current += 1;
            if self.marked_in_current >= self.threshold {
                self.rotate();
            }
        }
    }

    fn record_replacement(&mut self, victim_block: u64) {
        let oldest = self.oldest_live();
        if let Some(&gen) = self.last_gen.get(&victim_block) {
            if gen >= oldest {
                self.blooms[(gen % 4) as usize].insert(victim_block);
            }
            self.last_gen.remove(&victim_block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(range: std::ops::Range<u64>) -> impl Iterator<Item = u64> {
        range.map(|i| i * 64)
    }

    #[test]
    fn refused_sizes_are_typed_errors() {
        let invalid = |r: Result<(), DetectorError>| {
            assert!(
                matches!(r, Err(DetectorError::InvalidConfig { .. })),
                "{r:?}"
            );
        };
        invalid(IdealLruTracker::new(0).map(drop));
        for total_blocks in 0..4 {
            invalid(GenerationTracker::for_cache(total_blocks).map(drop));
        }
        let sized = GenerationConfig::for_cache(64);
        for config in [
            GenerationConfig {
                bloom_bits: 0,
                ..sized
            },
            GenerationConfig {
                bloom_hashes: 0,
                ..sized
            },
        ] {
            invalid(GenerationTracker::new(config).map(drop));
        }
        assert!(GenerationTracker::for_cache(4).is_ok());
        assert!(IdealLruTracker::new(1).is_ok());
    }

    mod ideal {
        use super::*;

        #[test]
        fn recently_evicted_block_is_conflict() {
            let mut t = IdealLruTracker::new(8).unwrap();
            for b in blocks(0..8) {
                t.record_access(b);
            }
            assert_eq!(t.classify_miss(0), ConflictClass::Conflict);
        }

        #[test]
        fn cold_block_is_not_conflict() {
            let mut t = IdealLruTracker::new(8).unwrap();
            t.record_access(0);
            assert_eq!(t.classify_miss(0x9999 * 64), ConflictClass::NonConflict);
        }

        #[test]
        fn capacity_distance_becomes_capacity_miss() {
            let mut t = IdealLruTracker::new(4).unwrap();
            for b in blocks(0..10) {
                t.record_access(b);
            }
            // Block 0 is 10 distinct accesses old: beyond a 4-block
            // fully-associative cache.
            assert_eq!(t.classify_miss(0), ConflictClass::NonConflict);
            // Block 9*64 is the most recent.
            assert_eq!(t.classify_miss(9 * 64), ConflictClass::Conflict);
            assert_eq!(t.resident(), 4);
        }

        #[test]
        fn refresh_keeps_block_recent() {
            let mut t = IdealLruTracker::new(4).unwrap();
            t.record_access(0);
            for b in blocks(1..4) {
                t.record_access(b);
                t.record_access(0); // keep refreshing block 0
            }
            for b in blocks(4..6) {
                t.record_access(b);
            }
            assert_eq!(t.classify_miss(0), ConflictClass::Conflict);
        }
    }

    mod practical {
        use super::*;

        fn tracker() -> GenerationTracker {
            // 64-block cache → T = 16.
            GenerationTracker::new(GenerationConfig {
                total_blocks: 64,
                bloom_bits: 1024,
                bloom_hashes: 3,
            })
            .unwrap()
        }

        #[test]
        fn replaced_then_reaccessed_is_conflict() {
            let mut t = tracker();
            t.record_access(0x40);
            t.record_replacement(0x40);
            assert_eq!(t.classify_miss(0x40), ConflictClass::Conflict);
        }

        #[test]
        fn cold_miss_is_not_conflict() {
            let mut t = tracker();
            assert_eq!(t.classify_miss(0x40), ConflictClass::NonConflict);
        }

        #[test]
        fn replacement_of_untracked_block_is_harmless() {
            let mut t = tracker();
            t.record_replacement(0xFFFF_0000);
            assert_eq!(t.classify_miss(0xFFFF_0000), ConflictClass::NonConflict);
        }

        #[test]
        fn generations_rotate_every_threshold_insertions() {
            let mut t = tracker();
            assert_eq!(t.rotations(), 0);
            for b in blocks(0..16) {
                t.record_access(b);
            }
            assert_eq!(t.rotations(), 1, "T = 64/4 = 16 distinct insertions");
            // Re-touching live blocks consumes no LRU-stack capacity: the
            // hot set can spin forever without aging anything out.
            for _ in 0..10 {
                for b in blocks(0..16) {
                    t.record_access(b);
                }
            }
            assert_eq!(t.rotations(), 1);
            // Fresh blocks do rotate.
            for b in blocks(100..116) {
                t.record_access(b);
            }
            assert_eq!(t.rotations(), 2);
        }

        #[test]
        fn aged_out_replacement_is_forgotten() {
            let mut t = tracker();
            t.record_access(0x40);
            t.record_replacement(0x40); // recorded in generation 3's filter
                                        // Four full rotations age generation 3 out entirely.
            for b in blocks(100..164) {
                t.record_access(b);
            }
            assert_eq!(t.rotations(), 4);
            assert_eq!(
                t.classify_miss(0x40),
                ConflictClass::NonConflict,
                "flash-cleared generation must forget the replacement"
            );
        }

        #[test]
        fn duplicate_accesses_do_not_advance_generation() {
            let mut t = tracker();
            for _ in 0..1000 {
                t.record_access(0x40);
            }
            assert_eq!(t.rotations(), 0);
        }

        #[test]
        fn agrees_with_oracle_on_covert_channel_pattern() {
            // The cache-channel steady state: a working set well inside
            // capacity, repeatedly evicted by set conflicts.
            let capacity = 256;
            let mut ideal = IdealLruTracker::new(capacity).unwrap();
            let mut practical = GenerationTracker::new(GenerationConfig {
                total_blocks: capacity,
                bloom_bits: 4096,
                bloom_hashes: 3,
            })
            .unwrap();
            let working_set: Vec<u64> = blocks(0..32).collect();
            // Warm up.
            for &b in &working_set {
                ideal.record_access(b);
                practical.record_access(b);
            }
            let mut agreements = 0;
            let mut total = 0;
            for round in 0..50 {
                for (i, &b) in working_set.iter().enumerate() {
                    // Alternate eviction pattern: evict then re-access.
                    if (round + i) % 2 == 0 {
                        ideal.record_replacement(b);
                        practical.record_replacement(b);
                        let ci = ideal.classify_miss(b);
                        let cp = practical.classify_miss(b);
                        total += 1;
                        if ci == cp {
                            agreements += 1;
                        }
                        // Conflict misses must never be *missed* while the
                        // working set fits comfortably in the window.
                        assert_eq!(ci, ConflictClass::Conflict);
                        assert_eq!(cp, ConflictClass::Conflict);
                    }
                    ideal.record_access(b);
                    practical.record_access(b);
                }
            }
            assert_eq!(agreements, total);
        }
    }
}
