//! LPDDR4X-class DRAM model — the Ramulator stand-in.
//!
//! Open-page bank/row model: each of `banks` banks tracks its open row and
//! the cycle at which it can next serve a command. A line access is a row
//! hit (CAS only), a row miss (PRE + ACT + CAS) or an empty-row activation
//! (ACT + CAS). Data transfer occupies the shared channel for
//! `burst_cycles`, which enforces the bandwidth ceiling.
//!
//! Default timings approximate LPDDR4X-3200 expressed in 2.8 GHz core
//! cycles: tRP ≈ 18 ns → 50, tRCD ≈ 18 ns → 50, tCL ≈ 18 ns → 50,
//! 64 B burst at ≈ 25.6 GB/s → 2.5 ns → 7 cycles.

/// DRAM timing/geometry parameters (all times in core cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks across all channels.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Precharge latency.
    pub t_rp: u64,
    /// Activate (row open) latency.
    pub t_rcd: u64,
    /// CAS (column read) latency.
    pub t_cl: u64,
    /// Channel occupancy per 64 B line transfer.
    pub burst_cycles: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            banks: 16,
            row_bytes: 2048,
            t_rp: 50,
            t_rcd: 50,
            t_cl: 50,
            burst_cycles: 7,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
}

/// Statistics kept by the DRAM model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (conflict: another row was open).
    pub row_misses: u64,
    /// Activations of idle banks.
    pub row_empty: u64,
    /// Total line transfers.
    pub accesses: u64,
}

/// The DRAM device model.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    channel_free_at: u64,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM model with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.banks > 0, "DRAM must have at least one bank");
        Self {
            banks: vec![Bank::default(); cfg.banks],
            channel_free_at: 0,
            cfg,
            stats: DramStats::default(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Issues a 64 B line access at time `now`; returns the completion cycle.
    ///
    /// Bank interleaving: consecutive lines map to different banks (low-order
    /// line-address bits select the bank), which is what gives vector gathers
    /// their bank-level parallelism.
    pub fn access(&mut self, line_addr: u64, now: u64) -> u64 {
        let lines_per_row = self.cfg.row_bytes / crate::LINE_BYTES;
        let bank_idx = (line_addr % self.cfg.banks as u64) as usize;
        let row = line_addr / (self.cfg.banks as u64 * lines_per_row);

        let bank = &mut self.banks[bank_idx];
        let start = now.max(bank.ready_at);
        let array_latency = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                self.cfg.t_cl
            }
            Some(_) => {
                self.stats.row_misses += 1;
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cl
            }
            None => {
                self.stats.row_empty += 1;
                self.cfg.t_rcd + self.cfg.t_cl
            }
        };
        bank.open_row = Some(row);
        let data_ready = start + array_latency;
        // The shared channel serialises bursts.
        let burst_start = data_ready.max(self.channel_free_at);
        let done = burst_start + self.cfg.burst_cycles;
        self.channel_free_at = done;
        bank.ready_at = data_ready;
        self.stats.accesses += 1;
        done
    }

    /// Forgets when the channel and every bank next fall idle, keeping the
    /// open rows: the clock of the next pass restarts at zero, and its
    /// first access must not queue behind the last pass's traffic.
    pub(crate) fn reset_busy(&mut self) {
        self.channel_free_at = 0;
        for bank in &mut self.banks {
            bank.ready_at = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut d = Dram::new(DramConfig::default());
        let banks = d.config().banks as u64;
        let lines_per_row = d.config().row_bytes / crate::LINE_BYTES;
        let first = d.access(0, 0);
        // Same bank, same row (line `banks` maps to bank 0, row 0).
        let hit = d.access(banks, first) - first;
        // Same bank, different row.
        let far = banks * lines_per_row * 4;
        let t0 = d.access(far, 10_000);
        let miss = t0 - 10_000;
        assert!(hit < miss, "row hit {hit} must beat row miss {miss}");
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn banks_overlap_but_channel_serialises() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        // 16 accesses to 16 different banks at t=0: array access overlaps,
        // bursts serialise on the channel.
        let mut last = 0;
        for i in 0..16u64 {
            last = d.access(i, 0);
        }
        let serial_all = 16 * (cfg.t_rcd + cfg.t_cl + cfg.burst_cycles);
        assert!(
            last < serial_all,
            "bank parallelism must help: {last} < {serial_all}"
        );
        let min_possible = cfg.t_rcd + cfg.t_cl + 16 * cfg.burst_cycles;
        assert!(
            last >= min_possible,
            "channel must serialise: {last} >= {min_possible}"
        );
    }

    #[test]
    fn stats_count_accesses() {
        let mut d = Dram::new(DramConfig::default());
        for i in 0..10 {
            d.access(i, 0);
        }
        assert_eq!(d.stats().accesses, 10);
    }
}
