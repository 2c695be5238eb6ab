//! The full L1 → L2 → LLC → DRAM hierarchy with the two access paths of
//! Section V: scalar core accesses and MVE vector gathers/scatters.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cache::{CacheConfig, SetAssocCache};
use crate::dram::{Dram, DramConfig};
use crate::line_of;
use crate::lineset::LineSet;

/// L2 tag lookups per cycle on the vector path: the data half is
/// multi-banked over its 4 storage ways.
const TAG_BANKS: u64 = 4;

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2 (the cache MVE repurposes half of).
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            llc: CacheConfig::llc(),
            dram: DramConfig::default(),
        }
    }
}

impl HierarchyConfig {
    /// The hierarchy's address period in lines: the lcm of the L1, L2 and
    /// LLC set counts and the DRAM's banks × lines per row (4,096 lines,
    /// 256 KB, for Table IV).
    ///
    /// Moving every line of an access sequence by a multiple of the period
    /// maps each line to the same set at every cache level and to the same
    /// DRAM bank, and moves every DRAM row by one constant. Tags and rows
    /// are only ever compared for equality, so on a fresh hierarchy the
    /// moved sequence sees the same hits, victims, row hits and completion
    /// cycles.
    pub fn address_period_lines(&self) -> u64 {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let dram_stripe = self.dram.banks as u64 * (self.dram.row_bytes / crate::LINE_BYTES);
        [self.l1d.sets(), self.l2.sets(), self.llc.sets()]
            .into_iter()
            .map(|sets| sets as u64)
            .fold(dram_stripe, |p, sets| p / gcd(p, sets) * sets)
    }
}

/// Aggregate statistics across the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Scalar-path L1 hits.
    pub l1_hits: u64,
    /// Scalar-path L1 misses.
    pub l1_misses: u64,
    /// L2 hits (both paths).
    pub l2_hits: u64,
    /// L2 misses (both paths).
    pub l2_misses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// DRAM line transfers (fills + writebacks).
    pub dram_accesses: u64,
    /// L1 lines evicted by the presence-bit coherence protocol (Section V-C).
    pub coherence_evictions: u64,
    /// Lines read by the vector path.
    pub vector_lines_read: u64,
    /// Lines written by the vector path.
    pub vector_lines_written: u64,
    /// Dirty lines flushed when switching the L2 into compute mode.
    pub mode_switch_flushes: u64,
}

/// Result of a batched vector access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchResult {
    /// Cycle at which the last line is available in the TMU / written back.
    pub done_at: u64,
    /// Number of distinct lines touched.
    pub lines: u64,
    /// L2 hits within the batch.
    pub l2_hits: u64,
    /// Lines served by DRAM.
    pub dram_lines: u64,
}

/// The memory hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    llc: SetAssocCache,
    dram: Dram,
    stats: MemStats,
    /// Completion cycles of a vector batch's outstanding L2 misses, earliest
    /// on top; reused across batches.
    outstanding: BinaryHeap<Reverse<u64>>,
    /// The last vector batch the L2 walked.
    last_lines: LineSet,
    /// That batch's `write` flag.
    last_write: bool,
    /// Whether every line of that batch is still resident in the L2
    /// with its presence bit clear, and no L2 access has come since.
    last_resident: bool,
}

impl Default for Hierarchy {
    fn default() -> Self {
        Self::new(HierarchyConfig::default())
    }
}

impl Hierarchy {
    /// Builds an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self {
            l1d: SetAssocCache::new(cfg.l1d),
            l2: SetAssocCache::new(cfg.l2),
            llc: SetAssocCache::new(cfg.llc),
            dram: Dram::new(cfg.dram),
            stats: MemStats::default(),
            outstanding: BinaryHeap::with_capacity(cfg.l2.mshrs),
            last_lines: LineSet::new(),
            last_write: false,
            last_resident: false,
            cfg,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Clears the statistics (e.g. after a cache-warming pass).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Ends a warming pass: clears the statistics and when the DRAM's
    /// channel and banks next fall idle, keeping every cache line and open
    /// DRAM row, so a timed pass whose clock starts at zero sees the warm
    /// state but none of the warm pass's queueing.
    pub fn end_warm_pass(&mut self) {
        self.reset_stats();
        self.dram.reset_busy();
    }

    /// Configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Switches half of the L2 ways into compute mode, flushing dirty lines
    /// from the deactivated ways. Returns the switch cost in cycles: each
    /// flushed line needs an L2 read plus a DRAM burst slot (Section V-C).
    pub fn enable_compute_mode(&mut self) -> u64 {
        self.last_resident = false;
        let keep = self.cfg.l2.ways / 2;
        let flushed = self.l2.restrict_ways(keep.max(1));
        self.stats.mode_switch_flushes += flushed;
        self.stats.dram_accesses += flushed;
        flushed * (self.cfg.l2.latency + self.cfg.dram.burst_cycles)
    }

    /// Restores the L2 to full-cache mode (a CR write; negligible cost).
    pub fn disable_compute_mode(&mut self) {
        self.last_resident = false;
        let ways = self.cfg.l2.ways;
        self.l2.restrict_ways(ways);
    }

    /// Fill path below L1: returns added latency beyond the L1 lookup.
    fn fill_from_l2(&mut self, line: u64, write: bool, now: u64) -> u64 {
        let l2_out = self.l2.access(line, write);
        if let Some(victim) = l2_out.victim {
            // Inclusion: an L2 victim must leave L1 too.
            if self.l1d.invalidate(victim) || l2_out.writeback == Some(victim) {
                self.stats.dram_accesses += 1;
            }
        }
        if l2_out.hit {
            self.stats.l2_hits += 1;
            return self.cfg.l2.latency;
        }
        self.stats.l2_misses += 1;
        let llc_out = self.llc.access(line, write);
        if let Some(victim) = llc_out.victim {
            // Strict inclusion below as well.
            self.l1d.invalidate(victim);
            if self.l2.invalidate(victim) || llc_out.writeback == Some(victim) {
                self.stats.dram_accesses += 1;
            }
        }
        if llc_out.hit {
            self.stats.llc_hits += 1;
            self.cfg.l2.latency + self.cfg.llc.latency
        } else {
            self.stats.llc_misses += 1;
            self.stats.dram_accesses += 1;
            let t_issue = now + self.cfg.l2.latency + self.cfg.llc.latency;
            let done = self.dram.access(line, t_issue);
            done - now
        }
    }

    /// A scalar core load/store of `addr` at time `now`; returns its latency
    /// in cycles.
    pub fn core_access(&mut self, addr: u64, write: bool, now: u64) -> u64 {
        self.last_resident = false;
        let line = line_of(addr);
        let l1_out = self.l1d.access(line, write);
        if let Some(victim) = l1_out.victim {
            self.l2.set_presence(victim, false);
        }
        if l1_out.hit {
            self.stats.l1_hits += 1;
            return self.cfg.l1d.latency;
        }
        self.stats.l1_misses += 1;
        let below = self.fill_from_l2(line, write, now + self.cfg.l1d.latency);
        self.l2.set_presence(line, true);
        self.cfg.l1d.latency + below
    }

    /// A batched vector gather/scatter issued by the MVE controller at time
    /// `now` over a set of cache `lines` (line addresses), walked in
    /// ascending order.
    ///
    /// The batch bypasses L1 but honours inclusive-presence-bit coherence:
    /// a hit on a line whose presence bit is set first evicts it from L1.
    /// Outstanding L2 misses are bounded by the L2 MSHR count; the L2 data
    /// half is multi-banked (4 storage ways), so four tag lookups proceed
    /// per cycle.
    ///
    /// A batch that repeats the previous one (same lines, same `write`)
    /// while all of its lines are still resident with their presence bits
    /// clear is all hits and changes no cache state: re-stamping the same
    /// lines in the same order keeps every set's LRU order, and their dirty
    /// bits are already set. So it only counts its hits.
    pub fn vector_access(&mut self, lines: &LineSet, write: bool, now: u64) -> BatchResult {
        if self.last_resident
            && write == self.last_write
            && !lines.is_empty()
            && *lines == self.last_lines
        {
            let n = lines.len() as u64;
            self.l2.repeat_hits(n);
            self.stats.l2_hits += n;
            self.count_vector_lines(n, write);
            return BatchResult {
                done_at: now + n.div_ceil(TAG_BANKS) + self.cfg.l2.latency,
                lines: n,
                l2_hits: n,
                dram_lines: 0,
            };
        }
        self.walk_vector_batch(lines, write, now)
    }

    fn count_vector_lines(&mut self, n: u64, write: bool) {
        if write {
            self.stats.vector_lines_written += n;
        } else {
            self.stats.vector_lines_read += n;
        }
    }

    /// [`Hierarchy::vector_access`] as a walk of every line, which records
    /// the batch for the repeat check. A victim or back-invalidation that
    /// may remove one of the batch's lines rules the repeat out.
    fn walk_vector_batch(&mut self, lines: &LineSet, write: bool, now: u64) -> BatchResult {
        let mshrs = self.cfg.l2.mshrs;
        let mut resident = true;
        self.outstanding.clear();
        let mut t = now;
        let mut done_at = now;
        let mut l2_hits = 0;
        let mut dram_lines = 0;

        let mut n = 0u64;
        for line in lines.iter() {
            if n.is_multiple_of(TAG_BANKS) {
                t += 1; // banked tag-port throughput
            }
            let out = self.l2.access_bypassing_above(line, write);
            // Coherence against L1 (Section V-C): a hit on a line whose
            // presence bit was set evicts the L1 copy, at an L1 access.
            let mut penalty = 0;
            if out.was_present_above {
                self.l1d.invalidate(line);
                self.stats.coherence_evictions += 1;
                penalty = self.cfg.l1d.latency;
            }
            if let Some(victim) = out.victim {
                self.l1d.invalidate(victim);
                if out.writeback == Some(victim) {
                    self.stats.dram_accesses += 1;
                }
                resident = resident && !lines.contains(victim);
            }
            let completion = if out.hit {
                self.stats.l2_hits += 1;
                l2_hits += 1;
                t + self.cfg.l2.latency + penalty
            } else if write {
                // Full-line vector stores allocate without fetching (the
                // write-validate optimisation): the engine overwrites the
                // whole line, so no fill from below is needed. The dirty
                // line pays its DRAM writeback at eviction.
                self.stats.l2_misses += 1;
                t + self.cfg.l2.latency + penalty
            } else {
                self.stats.l2_misses += 1;
                // Block for a free MSHR: wait for the earliest outstanding
                // miss, then retire every miss complete by then.
                if self.outstanding.len() >= mshrs {
                    let Reverse(earliest) = self.outstanding.pop().expect("nonempty");
                    t = t.max(earliest);
                    while self.outstanding.peek().is_some_and(|&Reverse(c)| c <= t) {
                        self.outstanding.pop();
                    }
                }
                let llc_out = self.llc.access(line, write);
                if let Some(victim) = llc_out.victim {
                    self.l1d.invalidate(victim);
                    if self.l2.invalidate(victim) || llc_out.writeback == Some(victim) {
                        self.stats.dram_accesses += 1;
                    }
                    resident = resident && !lines.contains(victim);
                }
                let completion = if llc_out.hit {
                    self.stats.llc_hits += 1;
                    t + self.cfg.l2.latency + self.cfg.llc.latency + penalty
                } else {
                    self.stats.llc_misses += 1;
                    self.stats.dram_accesses += 1;
                    dram_lines += 1;
                    let t_issue = t + self.cfg.l2.latency + self.cfg.llc.latency;
                    self.dram.access(line, t_issue) + penalty
                };
                self.outstanding.push(Reverse(completion));
                completion
            };
            done_at = done_at.max(completion);
            n += 1;
        }

        self.count_vector_lines(n, write);
        self.last_lines.clone_from(lines);
        self.last_write = write;
        self.last_resident = resident;
        BatchResult {
            done_at,
            lines: n,
            l2_hits,
            dram_lines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set of strictly ascending `lines`.
    pub(super) fn set(lines: &[u64]) -> LineSet {
        LineSet::from_sorted(lines)
    }

    #[test]
    fn address_period_is_the_lcm_of_the_set_counts_and_the_dram_stripe() {
        assert_eq!(HierarchyConfig::default().address_period_lines(), 4096);
        let mut cfg = HierarchyConfig::default();
        cfg.llc.ways = 12; // 2730 sets = 2 · 3 · 5 · 7 · 13
        cfg.dram.banks = 6; // a 192-line stripe = 2^6 · 3
        assert_eq!(cfg.address_period_lines(), 1024 * 1365);
    }

    #[test]
    fn scalar_latencies_follow_table_iv() {
        let mut h = Hierarchy::default();
        // Cold: L1 miss, L2 miss, LLC miss → DRAM (≥ 4+12+31).
        let cold = h.core_access(0x1000, false, 0);
        assert!(cold > 4 + 12 + 31, "cold access {cold}");
        // Warm: L1 hit.
        let warm = h.core_access(0x1000, false, 100);
        assert_eq!(warm, 4);
    }

    #[test]
    fn l2_hit_latency_after_l1_eviction() {
        let mut h = Hierarchy::default();
        h.core_access(0x40, false, 0);
        // Evict from L1 by filling its set (L1: 256 sets → stride 256*64).
        for i in 1..=4u64 {
            h.core_access(0x40 + i * 256 * 64, false, i * 10);
        }
        let lat = h.core_access(0x40, false, 1000);
        assert_eq!(lat, 4 + 12, "should be L1 miss + L2 hit");
    }

    #[test]
    fn vector_batch_hits_are_fast() {
        let mut h = Hierarchy::default();
        let lines: Vec<u64> = (0..32).collect();
        // Warm the L2 through the vector path itself.
        h.vector_access(&set(&lines), false, 0);
        let res = h.vector_access(&set(&lines), false, 10_000);
        assert_eq!(res.l2_hits, 32);
        // 32 tag lookups + hit latency.
        assert!(res.done_at - 10_000 <= 32 + 12 + 4);
    }

    #[test]
    fn vector_misses_respect_mshr_bound() {
        let mut h = Hierarchy::default();
        // 200 distinct uncached lines: misses must wave through 46 MSHRs.
        let lines: Vec<u64> = (0..200).map(|i| 0x10_0000 + i * 7).collect();
        let res = h.vector_access(&set(&lines), false, 0);
        assert_eq!(res.lines, 200);
        assert!(res.dram_lines > 0);
        // With only 46 outstanding misses the batch cannot complete in one
        // DRAM round trip.
        assert!(res.done_at > 200);
    }

    #[test]
    fn coherence_evicts_presence_lines() {
        let mut h = Hierarchy::default();
        h.core_access(0x2000, true, 0); // now in L1, presence set in L2
        let line = line_of(0x2000);
        let res = h.vector_access(&set(&[line]), false, 100);
        assert_eq!(h.stats().coherence_evictions, 1);
        assert!(res.done_at > 100);
        // A second vector access needs no eviction.
        h.vector_access(&set(&[line]), false, 200);
        assert_eq!(h.stats().coherence_evictions, 1);
    }

    #[test]
    fn compute_mode_flush_cost_scales_with_dirty_lines() {
        let mut h = Hierarchy::default();
        // Dirty enough lines (writes) to fill all 8 ways of every L2 set.
        for i in 0..8192u64 {
            h.core_access(i * 64, true, i);
        }
        let cost = h.enable_compute_mode();
        assert!(cost > 0, "dirty flush must cost cycles");
        assert!(h.stats().mode_switch_flushes > 0);
        h.disable_compute_mode();
        // Switching back is free (a CR write).
        let mut h2 = Hierarchy::default();
        let cost2 = h2.enable_compute_mode();
        assert_eq!(cost2, 0, "clean cache flushes nothing");
    }
}

#[cfg(test)]
mod more_tests {
    use super::tests::set;
    use super::*;

    #[test]
    fn write_validate_skips_the_fill_path() {
        let mut h = Hierarchy::default();
        // A cold full-line vector store must not touch DRAM (write-validate).
        let lines: Vec<u64> = (0x4000..0x4040).collect();
        let res = h.vector_access(&set(&lines), true, 0);
        assert_eq!(res.dram_lines, 0, "store misses must not fetch");
        assert_eq!(h.stats().dram_accesses, 0);
        // The same lines now hit.
        let res = h.vector_access(&set(&lines), false, 10_000);
        assert_eq!(res.l2_hits as usize, lines.len());
    }

    #[test]
    fn dirty_write_validated_lines_writeback_on_eviction() {
        let mut h = Hierarchy::default();
        // Fill a single L2 set with dirty write-validated lines, then evict.
        // L2: 1024 sets, so stride by 1024 lines hits one set.
        let set_lines: Vec<u64> = (0..12).map(|i| 7 + i * 1024).collect();
        for &l in &set_lines {
            h.vector_access(&set(&[l]), true, 0);
        }
        // More lines than active ways (4 in compute mode: full 8 here):
        // evictions must have produced DRAM writebacks.
        assert!(
            h.stats().dram_accesses > 0,
            "dirty victims must write back: {:?}",
            h.stats()
        );
    }

    #[test]
    fn compute_mode_halves_usable_ways() {
        // Six lines mapping to one L2 set (1024 sets): the full cache holds
        // all six, the compute-mode cache only four.
        let set_lines: Vec<u64> = (0..6).map(|i| 3 + i * 1024).collect();
        let (all, last_four) = (set(&set_lines), set(&set_lines[2..]));

        let mut full = Hierarchy::default();
        full.vector_access(&all, false, 0);
        full.vector_access(&all, false, 10_000);
        assert_eq!(full.stats().l2_hits, 6, "all six fit in 8 ways");

        let mut half = Hierarchy::default();
        half.enable_compute_mode();
        half.vector_access(&all, false, 0);
        let before = half.stats().l2_hits;
        // Re-touch the last four (the LRU survivors): they hit.
        half.vector_access(&last_four, false, 10_000);
        assert_eq!(half.stats().l2_hits - before, 4, "only 4 ways remain");
        // Restoring full mode re-enables all ways for future fills.
        half.disable_compute_mode();
        half.vector_access(&all, false, 20_000);
        half.vector_access(&all, false, 30_000);
        assert!(half.stats().l2_hits >= before + 4 + 6);
    }

    /// The vector path as it was before it folded the coherence check into
    /// its L2 access: `presence`, then `set_presence`, then `access`.
    fn two_lookup_vector_access(
        h: &mut Hierarchy,
        lines: &[u64],
        write: bool,
        now: u64,
    ) -> BatchResult {
        let mshrs = h.cfg.l2.mshrs;
        let mut outstanding: Vec<u64> = Vec::new();
        let (mut t, mut done_at, mut l2_hits, mut dram_lines) = (now, now, 0, 0);
        for (idx, &line) in lines.iter().enumerate() {
            if (idx as u64).is_multiple_of(4) {
                t += 1;
            }
            let mut penalty = 0;
            if h.l2.presence(line) == Some(true) {
                h.l1d.invalidate(line);
                h.l2.set_presence(line, false);
                h.stats.coherence_evictions += 1;
                penalty = h.cfg.l1d.latency;
            }
            let out = h.l2.access(line, write);
            if let Some(victim) = out.victim {
                h.l1d.invalidate(victim);
                if out.writeback == Some(victim) {
                    h.stats.dram_accesses += 1;
                }
            }
            let completion = if out.hit {
                h.stats.l2_hits += 1;
                l2_hits += 1;
                t + h.cfg.l2.latency + penalty
            } else if write {
                h.stats.l2_misses += 1;
                t + h.cfg.l2.latency + penalty
            } else {
                h.stats.l2_misses += 1;
                if outstanding.len() >= mshrs {
                    t = t.max(*outstanding.iter().min().expect("nonempty"));
                    outstanding.retain(|&c| c > t);
                }
                let llc_out = h.llc.access(line, write);
                if let Some(victim) = llc_out.victim {
                    h.l1d.invalidate(victim);
                    if h.l2.invalidate(victim) || llc_out.writeback == Some(victim) {
                        h.stats.dram_accesses += 1;
                    }
                }
                let completion = if llc_out.hit {
                    h.stats.llc_hits += 1;
                    t + h.cfg.l2.latency + h.cfg.llc.latency + penalty
                } else {
                    h.stats.llc_misses += 1;
                    h.stats.dram_accesses += 1;
                    dram_lines += 1;
                    h.dram
                        .access(line, t + h.cfg.l2.latency + h.cfg.llc.latency)
                        + penalty
                };
                outstanding.push(completion);
                completion
            };
            done_at = done_at.max(completion);
        }
        if write {
            h.stats.vector_lines_written += lines.len() as u64;
        } else {
            h.stats.vector_lines_read += lines.len() as u64;
        }
        BatchResult {
            done_at,
            lines: lines.len() as u64,
            l2_hits,
            dram_lines,
        }
    }

    /// SplitMix64: a deterministic stream for the generated-access test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn one_lookup_vector_path_matches_the_two_lookup_order() {
        for seed in 0..6u64 {
            let mut rng = seed;
            let mut new = Hierarchy::default();
            if seed % 2 == 1 {
                new.enable_compute_mode();
            }
            let mut old = new.clone();
            // Mostly a hot region smaller than L1 (presence bits set by the
            // core, then taken by the vector path), sometimes a region
            // larger than the L2 (victims, writebacks, DRAM fills).
            let line = |rng: &mut u64| {
                let span = if next(rng).is_multiple_of(8) {
                    20_000
                } else {
                    1_024
                };
                next(rng) % span
            };
            let mut now = 0;
            for _ in 0..3_000 {
                now += next(&mut rng) % 64;
                let write = next(&mut rng).is_multiple_of(3);
                if next(&mut rng).is_multiple_of(2) {
                    let addr = line(&mut rng) * 64 + next(&mut rng) % 64;
                    assert_eq!(
                        new.core_access(addr, write, now),
                        old.core_access(addr, write, now)
                    );
                } else {
                    let n = 1 + next(&mut rng) % 96;
                    let mut lines: Vec<u64> = (0..n).map(|_| line(&mut rng)).collect();
                    lines.sort_unstable();
                    lines.dedup();
                    assert_eq!(
                        new.vector_access(&set(&lines), write, now),
                        two_lookup_vector_access(&mut old, &lines, write, now)
                    );
                }
                assert_eq!(new.stats(), old.stats());
            }
            let stats = new.stats();
            assert!(stats.coherence_evictions > 0, "seed {seed}: {stats:?}");
            assert!(stats.dram_accesses > 0, "seed {seed}: {stats:?}");
            // Later accesses see the same cache state on both sides.
            for l in 0..2_048u64 {
                now += 8;
                assert_eq!(
                    new.core_access(l * 64, false, now),
                    old.core_access(l * 64, false, now)
                );
            }
            assert_eq!(new.stats(), old.stats());
        }
    }

    #[test]
    fn full_mshr_path_matches_the_two_lookup_order() {
        let mshrs = CacheConfig::l2().mshrs as u64;
        for seed in 0..4u64 {
            let mut rng = seed;
            let mut new = Hierarchy::default();
            if seed % 2 == 1 {
                new.enable_compute_mode();
            }
            let mut old = new.clone();
            // Batches of 64-512 read lines from three regions, which the
            // sort puts in address order: a 1 GiB span (cold: DRAM fills
            // spread over every bank and many rows) whose misses fill the
            // MSHRs, a hot region the L2 holds (hits, during which some of
            // those fills complete unretired), and a region larger than the
            // L2 but inside the LLC, whose misses then find the MSHRs full.
            let line = |rng: &mut u64| match next(rng) % 3 {
                0 => next(rng) % (1 << 24),
                1 => (1 << 24) + next(rng) % 1_024,
                _ => (1 << 25) + next(rng) % 24_576,
            };
            let (mut now, mut blocked) = (0, 0);
            let batches = 60;
            for _ in 0..batches {
                now += next(&mut rng) % 4_096;
                let n = 64 + next(&mut rng) % 449;
                let mut lines: Vec<u64> = (0..n).map(|_| line(&mut rng)).collect();
                lines.sort_unstable();
                lines.dedup();
                let res = new.vector_access(&set(&lines), false, now);
                assert_eq!(res, two_lookup_vector_access(&mut old, &lines, false, now));
                assert_eq!(new.stats(), old.stats());
                // More misses than MSHRs: the batch ran the full-MSHR path.
                if res.lines - res.l2_hits > mshrs {
                    blocked += 1;
                }
            }
            assert!(
                blocked * 4 > batches * 3,
                "seed {seed}: {blocked}/{batches} blocked"
            );
            assert!(new.stats().dram_accesses > 0, "seed {seed}");
        }
    }

    /// Asserts two hierarchies hold the same lines, in the same LRU order
    /// per set, with the same dirty and presence bits, and the same counts.
    fn assert_same_state(a: &Hierarchy, b: &Hierarchy) {
        for (x, y) in [(&a.l1d, &b.l1d), (&a.l2, &b.l2), (&a.llc, &b.llc)] {
            assert_eq!(x.lru_order(), y.lru_order());
            assert_eq!((x.hits(), x.misses()), (y.hits(), y.misses()));
            assert_eq!(x.resident_lines(), y.resident_lines());
        }
        assert_eq!(a.stats(), b.stats());
    }

    /// A pool of lines that crowds a few L2 sets past their ways (stride
    /// 1024, the L2 set count) and a few LLC sets past theirs (stride 4096),
    /// plus cold lines scattered over 64 MiB.
    fn pool_line(rng: &mut u64) -> u64 {
        match next(rng) % 4 {
            0 => next(rng) % 2 + 1_024 * (next(rng) % 12),
            1 | 2 => 3 + 4_096 * (next(rng) % 14),
            _ => next(rng) % (1 << 20),
        }
    }

    proptest::proptest! {
        /// The repeat fast path of `vector_access` against a forced full
        /// walk of every batch: exact repeats, read→write repeats, batches
        /// with more lines in one set than it has ways, LLC
        /// back-invalidations of lines the L2 holds, core accesses in
        /// between, and mode switches.
        #[test]
        fn prop_repeat_batches_match_a_full_walk(
            seed: u64,
            ops in proptest::collection::vec(0u64..10, 20..160),
        ) {
            let mut rng = seed;
            let mut fast = Hierarchy::default();
            let mut full = fast.clone();
            let (mut lines, mut write, mut compute) = (LineSet::new(), false, false);
            let (mut now, mut repeats) = (0, 0);
            for op in ops {
                now += next(&mut rng) % 256;
                match op {
                    0..=3 if !lines.is_empty() => repeats += 1,
                    4 if !lines.is_empty() => write = !write,
                    8 => {
                        let addr = pool_line(&mut rng) * 64;
                        let w = next(&mut rng).is_multiple_of(2);
                        assert_eq!(
                            fast.core_access(addr, w, now),
                            full.core_access(addr, w, now)
                        );
                        continue;
                    }
                    9 => {
                        compute = !compute;
                        for h in [&mut fast, &mut full] {
                            if compute {
                                h.enable_compute_mode();
                            } else {
                                h.disable_compute_mode();
                            }
                        }
                        continue;
                    }
                    _ => {
                        let n = 1 + next(&mut rng) % 40;
                        let mut drawn: Vec<u64> = (0..n).map(|_| pool_line(&mut rng)).collect();
                        drawn.sort_unstable();
                        drawn.dedup();
                        lines = set(&drawn);
                        write = next(&mut rng).is_multiple_of(3);
                    }
                }
                let got = fast.vector_access(&lines, write, now);
                let want = full.walk_vector_batch(&lines, write, now);
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(fast.stats(), full.stats());
            }
            assert_same_state(&fast, &full);
            proptest::prop_assert!(repeats > 0);
        }
    }

    #[test]
    fn repeat_fast_path_fires_and_yields_to_back_invalidation() {
        let mut h = Hierarchy::default();
        let batch = set(&(0..64).collect::<Vec<u64>>());
        h.vector_access(&batch, false, 0);
        assert!(h.last_resident, "a batch that fits stays resident");
        let mut full = h.clone();
        let res = h.vector_access(&batch, false, 1_000);
        assert_eq!(res, full.walk_vector_batch(&batch, false, 1_000));
        assert_eq!(res.done_at, 1_000 + 16 + 12);
        assert_same_state(&h, &full);

        // Line 7 stays in the L2, hit by the vector path (which the LLC
        // does not see), while seven newer lines of its LLC set arrive. A
        // batch of line 7 and an eighth such line then hits 7 in the L2,
        // and the eighth line's LLC fill evicts 7 (the LLC's LRU line) and
        // back-invalidates the L2 copy: the repeat must walk and miss.
        let mut h = Hierarchy::default();
        let crowd: Vec<u64> = (0..9).map(|k| 7 + 4_096 * k).collect();
        h.vector_access(&set(&[7]), false, 0);
        for (i, &line) in crowd[1..8].iter().enumerate() {
            h.vector_access(&set(&[line]), false, 10 * i as u64 + 5);
            h.vector_access(&set(&[7]), false, 10 * i as u64 + 10);
        }
        let batch = set(&[7, crowd[8]]);
        assert_eq!(h.vector_access(&batch, false, 1_000).l2_hits, 1);
        assert!(!h.l2.probe(7), "the LLC victim left the L2 too");
        assert!(
            !h.last_resident,
            "a back-invalidated line rules the repeat out"
        );
        let mut full = h.clone();
        let res = h.vector_access(&batch, false, 2_000);
        assert_eq!(res, full.walk_vector_batch(&batch, false, 2_000));
        assert_eq!(res.l2_hits, 1);
        assert_same_state(&h, &full);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut h = Hierarchy::default();
        h.core_access(0x100, false, 0);
        assert!(h.stats().l1_misses > 0);
        h.reset_stats();
        assert_eq!(h.stats().l1_misses, 0);
        assert_eq!(h.stats().dram_accesses, 0);
    }
}
