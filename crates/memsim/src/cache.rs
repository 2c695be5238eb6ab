//! Set-associative cache model with LRU replacement, write-back/
//! write-allocate policy, and the inclusive presence bit the paper's
//! coherence scheme relies on (Section V-C).
//!
//! The model is tag-only: data contents live in the functional memory of
//! `mve-core`; this model answers *hit/miss* and *what was evicted*.

/// Static configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access (hit) latency in core cycles.
    pub latency: u64,
    /// Miss Status Holding Registers — bounds outstanding misses.
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes) as usize / self.ways
    }

    /// L1-D configuration from Table IV.
    pub fn l1d() -> Self {
        Self {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 4,
            mshrs: 20,
        }
    }

    /// L2 configuration from Table IV (full 512 KB; when the compute half is
    /// active only 4 ways remain for storage — see [`SetAssocCache::restrict_ways`]).
    pub fn l2() -> Self {
        Self {
            size_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 12,
            mshrs: 46,
        }
    }

    /// Shared LLC configuration from Table IV.
    pub fn llc() -> Self {
        Self {
            size_bytes: 2 * 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 31,
            mshrs: 64,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TagEntry {
    tag: u64,
    dirty: bool,
    /// Inclusive presence bit: line is also valid in the level above (L1).
    present_above: bool,
    lru: u64,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Dirty line address evicted by the fill, if any.
    pub writeback: Option<u64>,
    /// The victim (clean or dirty) line address, if any — needed to maintain
    /// inclusion in the level above.
    pub victim: Option<u64>,
    /// Presence bit of the accessed line *before* this access (hits only).
    pub was_present_above: bool,
}

/// A set-associative, write-back, write-allocate cache (tags only).
///
/// LRU stamps are unique within a set, so neither lookups nor victim
/// choice depend on the order of a set's entries: a fill replaces its
/// victim in place and an invalidation swap-removes.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Ways usable for storage (reduced when the compute half is enabled).
    active_ways: usize,
    sets: Vec<Vec<TagEntry>>,
    /// Resident lines over all sets.
    resident: usize,
    /// `sets - 1` when the set count is a power of two (every Table IV
    /// level), so the set index is a mask rather than a division.
    set_mask: Option<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or zero ways.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.sets() > 0, "degenerate cache geometry");
        Self {
            active_ways: cfg.ways,
            sets: vec![Vec::new(); cfg.sets()],
            resident: 0,
            set_mask: cfg.sets().is_power_of_two().then(|| cfg.sets() as u64 - 1),
            clock: 0,
            cfg,
            hits: 0,
            misses: 0,
        }
    }

    /// Configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Restricts the usable ways (e.g. 8 → 4 when half the L2 becomes the
    /// compute engine, Section V-C). Lines in deactivated ways are dropped;
    /// the number of dirty lines that had to be flushed is returned so the
    /// mode-switch cost can be charged.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds the configured associativity.
    pub fn restrict_ways(&mut self, ways: usize) -> u64 {
        assert!(ways > 0 && ways <= self.cfg.ways, "invalid way restriction");
        let mut flushed = 0;
        if ways < self.active_ways {
            for set in &mut self.sets {
                while set.len() > ways {
                    // Evict LRU first.
                    let lru_idx = Self::lru_index(set);
                    if set.swap_remove(lru_idx).dirty {
                        flushed += 1;
                    }
                    self.resident -= 1;
                }
            }
        }
        self.active_ways = ways;
        flushed
    }

    /// Currently usable ways.
    pub fn active_ways(&self) -> usize {
        self.active_ways
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn set_index(&self, line_addr: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line_addr & mask) as usize,
            None => (line_addr % self.sets.len() as u64) as usize,
        }
    }

    fn lru_index(set: &[TagEntry]) -> usize {
        set.iter()
            .enumerate()
            .min_by_key(|(_, e)| e.lru)
            .map(|(i, _)| i)
            .expect("LRU of empty set")
    }

    /// Accesses `line_addr` (a line address, not a byte address), allocating
    /// on miss. `write` marks the line dirty.
    pub fn access(&mut self, line_addr: u64, write: bool) -> AccessOutcome {
        self.lookup(line_addr, write, false)
    }

    /// [`SetAssocCache::access`] for a requester that bypasses the level
    /// above (the MVE vector path): a hit also clears the presence bit, and
    /// the outcome's `was_present_above` tells the caller to invalidate the
    /// copy above, all in one tag lookup.
    pub fn access_bypassing_above(&mut self, line_addr: u64, write: bool) -> AccessOutcome {
        self.lookup(line_addr, write, true)
    }

    fn lookup(&mut self, line_addr: u64, write: bool, take_presence: bool) -> AccessOutcome {
        self.clock += 1;
        let set_idx = self.set_index(line_addr);
        let active_ways = self.active_ways;
        let clock = self.clock;
        let set = &mut self.sets[set_idx];

        if let Some(entry) = set.iter_mut().find(|e| e.tag == line_addr) {
            entry.lru = clock;
            entry.dirty |= write;
            let was_present_above = entry.present_above;
            entry.present_above &= !take_presence;
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
                victim: None,
                was_present_above,
            };
        }

        self.misses += 1;
        let fill = TagEntry {
            tag: line_addr,
            dirty: write,
            present_above: false,
            lru: clock,
        };
        let (writeback, victim) = if set.len() >= active_ways {
            let lru_idx = Self::lru_index(set);
            let v = std::mem::replace(&mut set[lru_idx], fill);
            (v.dirty.then_some(v.tag), Some(v.tag))
        } else {
            set.push(fill);
            self.resident += 1;
            (None, None)
        };
        AccessOutcome {
            hit: false,
            writeback,
            victim,
            was_present_above: false,
        }
    }

    /// Probes without side effects: is the line resident?
    pub fn probe(&self, line_addr: u64) -> bool {
        let set = &self.sets[self.set_index(line_addr)];
        set.iter().any(|e| e.tag == line_addr)
    }

    /// Sets or clears the inclusive presence bit of a resident line.
    /// Returns `false` if the line is not resident.
    pub fn set_presence(&mut self, line_addr: u64, present: bool) -> bool {
        let set_idx = self.set_index(line_addr);
        if let Some(e) = self.sets[set_idx].iter_mut().find(|e| e.tag == line_addr) {
            e.present_above = present;
            true
        } else {
            false
        }
    }

    /// Reads the presence bit of a resident line.
    pub fn presence(&self, line_addr: u64) -> Option<bool> {
        let set = &self.sets[self.set_index(line_addr)];
        set.iter()
            .find(|e| e.tag == line_addr)
            .map(|e| e.present_above)
    }

    /// Invalidates a line; returns `true` if it was resident and dirty.
    pub fn invalidate(&mut self, line_addr: u64) -> bool {
        if self.resident == 0 {
            return false;
        }
        let set_idx = self.set_index(line_addr);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|e| e.tag == line_addr) {
            self.resident -= 1;
            set.swap_remove(pos).dirty
        } else {
            false
        }
    }

    /// Counts `n` hits on lines that were the `n` most recent accesses, in
    /// the order they were made, without re-stamping them: stamps are only
    /// compared within a set, and re-stamping those lines in their own
    /// order would leave every set's LRU order as it is.
    pub(crate) fn repeat_hits(&mut self, n: u64) {
        self.clock += n;
        self.hits += n;
    }

    /// Every set's `(line, dirty, presence)` entries, least recently used
    /// first: the state that decides every later access.
    #[cfg(test)]
    pub(crate) fn lru_order(&self) -> Vec<Vec<(u64, bool, bool)>> {
        self.sets
            .iter()
            .map(|set| {
                let mut entries = set.clone();
                entries.sort_by_key(|e| e.lru);
                entries
                    .iter()
                    .map(|e| (e.tag, e.dirty, e.present_above))
                    .collect()
            })
            .collect()
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.resident
    }

    /// Number of resident dirty lines (used for the mode-switch flush cost).
    pub fn dirty_lines(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|e| e.dirty).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_geometries() {
        assert_eq!(CacheConfig::l1d().sets(), 256);
        assert_eq!(CacheConfig::l2().sets(), 1024);
        assert_eq!(CacheConfig::llc().sets(), 4096);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(CacheConfig::l1d());
        assert!(!c.access(42, false).hit);
        assert!(c.access(42, false).hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let cfg = CacheConfig {
            size_bytes: 4 * 64,
            ways: 2,
            line_bytes: 64,
            latency: 1,
            mshrs: 4,
        };
        let mut c = SetAssocCache::new(cfg); // 2 sets × 2 ways
                                             // Fill set 0 with lines 0 and 2, line 0 dirty.
        c.access(0, true);
        c.access(2, false);
        // Touch 0 so 2 becomes LRU.
        c.access(0, false);
        let out = c.access(4, false); // maps to set 0, evicts 2 (clean)
        assert_eq!(out.victim, Some(2));
        assert_eq!(out.writeback, None);
        let out = c.access(6, false); // evicts 0 (dirty)
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn presence_bit_tracks_l1_residency() {
        let mut c = SetAssocCache::new(CacheConfig::l2());
        c.access(7, false);
        assert_eq!(c.presence(7), Some(false));
        assert!(c.set_presence(7, true));
        assert_eq!(c.presence(7), Some(true));
        assert!(c.access(7, false).was_present_above);
        assert_eq!(c.presence(7), Some(true), "a plain access keeps the bit");
        assert!(c.access_bypassing_above(7, false).was_present_above);
        assert_eq!(c.presence(7), Some(false), "a bypassing hit takes it");
        assert!(!c.access_bypassing_above(7, false).was_present_above);
        assert!(!c.set_presence(8, true)); // not resident
        assert_eq!(c.presence(8), None);
    }

    #[test]
    fn way_restriction_flushes_dirty_lines() {
        let cfg = CacheConfig {
            size_bytes: 8 * 64,
            ways: 4,
            line_bytes: 64,
            latency: 1,
            mshrs: 4,
        };
        let mut c = SetAssocCache::new(cfg); // 2 sets × 4 ways
        for line in 0..8u64 {
            c.access(line, line % 2 == 0); // even lines dirty
        }
        assert_eq!(c.resident_lines(), 8);
        assert_eq!(c.dirty_lines(), 4);
        let flushed = c.restrict_ways(2);
        assert_eq!(c.resident_lines(), 4);
        assert!(flushed >= 1, "some dirty lines must flush");
        assert_eq!(c.active_ways(), 2);
    }

    #[test]
    fn non_power_of_two_set_counts_index_by_remainder() {
        let cfg = CacheConfig {
            size_bytes: 6 * 64,
            ways: 2,
            line_bytes: 64,
            latency: 1,
            mshrs: 4,
        };
        // 3 sets × 2 ways: lines 1, 4 and 7 all map to set 1, so the third
        // evicts the first.
        let mut c = SetAssocCache::new(cfg);
        c.access(1, false);
        c.access(4, false);
        assert_eq!(c.access(7, false).victim, Some(1));
        // Line 2 maps to set 2 and evicts nothing.
        assert_eq!(c.access(2, false).victim, None);
        assert!(c.probe(4) && c.probe(7) && c.probe(2) && !c.probe(1));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = SetAssocCache::new(CacheConfig::l1d());
        c.access(1, true);
        c.access(2, false);
        assert!(c.invalidate(1));
        assert!(!c.invalidate(2));
        assert!(!c.invalidate(99));
        assert!(!c.probe(1));
    }
}
