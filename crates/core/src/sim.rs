//! Trace-driven timing simulation of the MVE system (Section V, Figure 6).
//!
//! The model consumes an [`Event`] stream against:
//!
//! * the **core issue model** — scalar blocks retire at the core IPC; MVE
//!   instructions issue in order at the head of the ROB, one per cycle;
//! * the **MVE controller** — a bounded Instruction-Q (2 KB ≈ 256 entries);
//!   per-CB program counters let control blocks run ahead independently on
//!   compute instructions, while vector memory accesses block all CBs
//!   (Section V-B: only one load/store executes in parallel across CBs);
//! * the **in-SRAM compute scheme** — per-op latency from
//!   [`mve_insram::LatencyModel`], with multi-pass execution when the scheme
//!   offers fewer lanes than the logical shape needs (BP/BH);
//! * the **memory hierarchy** — gathers/scatters walk the regular half of
//!   the L2 through the MSHRs, then stream through the per-CB TMU.
//!
//! Every cycle of the makespan is attributed to exactly one of the paper's
//! three buckets: **data access** (a vector memory operation in flight),
//! **compute** (≥ 1 CB executing an arithmetic µop) or **idle** — the
//! decomposition plotted in Figures 7(a), 10, 12 and 13.
//!
//! [`simulate_sweep`] is the one driver: it times a captured [`Trace`]
//! under any number of configurations with one warm pass per distinct
//! warming hierarchy and one walk of the trace. [`simulate`] is the sweep
//! of one configuration, and [`simulate_lines`] also charges the cycles to
//! the source lines the trace's markers name. Each configuration's state
//! machine keeps per-CB availability, the bounded Instruction-Q and an
//! online interval union for the compute bucket: O(configuration), not
//! O(trace length) (see DESIGN.md, "Streaming pipeline").

use std::collections::VecDeque;

use crate::trace::{Event, Trace};
use mve_coresim::CoreConfig;
use mve_insram::scheme::{EngineGeometry, Scheme};
use mve_insram::tmu;
use mve_insram::LatencyModel;
use mve_memsim::{Hierarchy, HierarchyConfig, MemStats};

/// Configuration of one timing-simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// In-SRAM computing scheme (Figure 13 sweeps this).
    pub scheme: Scheme,
    /// Engine geometry (Figure 12(b) sweeps the array count).
    pub geometry: EngineGeometry,
    /// Memory-hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Scalar-core parameters.
    pub core: CoreConfig,
    /// Instruction-Q capacity in entries (Table IV: 2 KB ≈ 256 × 8 B).
    pub queue_entries: usize,
    /// Core→controller command-channel occupancy per MVE instruction.
    ///
    /// Section V-A: MVE instructions issue **in order, non-speculatively at
    /// the head of the ROB** and travel the core→L2 interface; the channel
    /// accepts the next command only after the previous one is accepted.
    /// CALIBRATED to 4 cycles: the "instruction issue bottleneck" of
    /// Section III-A. At paper scale, 1, 2, 4 and 8 cycles move Figure
    /// 7(a)'s idle share only where issue bounds the kernel (zlib 36.7%,
    /// 37.4%, 38.7%, 41.2%; Opt. Routines 12.8% to 20.0%; other libraries
    /// by at most 0.3 points) and Figure 13's BP speedup (2.96x to 3.54x;
    /// BH moves only at 8). Figure 13's BS utilization (64.9%), Figure
    /// 10's average (6.13-6.14x) and Figure 7(a)'s average (1.85-1.87x)
    /// hardly move.
    pub issue_gap_cycles: u64,
    /// Crossbar words routed into the TMU per cycle.
    pub xb_words_per_cycle: usize,
    /// Charge the dirty-line flush for switching the L2 into compute mode
    /// (Section V-C) at time zero.
    pub include_mode_switch: bool,
    /// Pre-warm the caches with the trace's working set before timing.
    ///
    /// The Swan methodology measures kernels in steady state (each kernel
    /// runs for many iterations and the average is reported), so Table III
    /// datasets that fit in the L2/LLC are cache-resident. Disable for
    /// cold-start studies.
    pub warm_caches: bool,
    /// PUMICE-style out-of-order dispatch (Section VIII related work): a
    /// vector memory access blocks only the control blocks it touches,
    /// letting dimension-masked CBs keep computing. Off by default — the
    /// baseline MVE controller blocks all CBs on memory (Section V-B).
    pub ooo_dispatch: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            scheme: Scheme::BitSerial,
            geometry: EngineGeometry::default(),
            hierarchy: HierarchyConfig::default(),
            core: CoreConfig::default(),
            queue_entries: 256,
            issue_gap_cycles: 4,
            xb_words_per_cycle: 32,
            include_mode_switch: true,
            warm_caches: true,
            ooo_dispatch: false,
        }
    }
}

/// Builder-style variations of the Table IV default — the one place the
/// sweep and ablation harnesses derive their configurations from.
impl SimConfig {
    /// Same platform, different in-SRAM computing scheme (Figure 13).
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Same platform, different engine geometry.
    pub fn with_geometry(mut self, geometry: EngineGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Same platform, different SRAM-array count (Figure 12(b)).
    pub fn with_arrays(self, arrays: usize) -> Self {
        self.with_geometry(EngineGeometry::with_arrays(arrays))
    }

    /// Skip the compute-mode switch flush (micro-studies that start from an
    /// empty, clean hierarchy).
    pub fn without_mode_switch(mut self) -> Self {
        self.include_mode_switch = false;
        self
    }

    /// Cold-start measurement: no steady-state cache warming.
    pub fn without_cache_warming(mut self) -> Self {
        self.warm_caches = false;
        self
    }

    /// PUMICE-style per-CB dispatch (the Section VIII extension study).
    pub fn with_ooo_dispatch(mut self) -> Self {
        self.ooo_dispatch = true;
        self
    }
}

/// FNV-1a over `bytes` — the stable, std-only hash the result cache keys
/// are built from (the service layer composes it over kernel ids and
/// [`SimConfig::canonical_bytes`]).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content-addressing support: two `SimConfig`s describe the same
/// simulation iff their canonical encodings are equal, so the encoding (and
/// the [`SimConfig::cache_key`] digest over it) is the correctness
/// foundation of the service layer's result cache.
impl SimConfig {
    /// Canonical little-endian encoding of every timing-relevant field.
    ///
    /// Floats are canonicalized through their bit patterns (`-0.0`
    /// normalizes to `0.0`, every NaN to one pattern) and widths are pinned
    /// to `u64`, so the encoding — unlike `#[derive(Hash)]` — does not
    /// depend on platform pointer width, endianness, or hasher seeding.
    /// Configurations built by the builder methods and hand-built literals
    /// with the same field values encode identically.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        fn push(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn push_f(out: &mut Vec<u8>, x: f64) {
            let bits = if x == 0.0 {
                0
            } else if x.is_nan() {
                u64::MAX
            } else {
                x.to_bits()
            };
            push(out, bits);
        }
        let mut b = Vec::with_capacity(45 * 8);
        let scheme = Scheme::ALL
            .iter()
            .position(|s| *s == self.scheme)
            .expect("scheme listed in Scheme::ALL");
        push(&mut b, scheme as u64);
        for v in [
            self.geometry.arrays,
            self.geometry.bitlines_per_array,
            self.geometry.wordlines,
            self.geometry.arrays_per_cb,
        ] {
            push(&mut b, v as u64);
        }
        for c in [&self.hierarchy.l1d, &self.hierarchy.l2, &self.hierarchy.llc] {
            push(&mut b, c.size_bytes);
            push(&mut b, c.ways as u64);
            push(&mut b, c.line_bytes);
            push(&mut b, c.latency);
            push(&mut b, c.mshrs as u64);
        }
        let d = &self.hierarchy.dram;
        for v in [
            d.banks as u64,
            d.row_bytes,
            d.t_rp,
            d.t_rcd,
            d.t_cl,
            d.burst_cycles,
        ] {
            push(&mut b, v);
        }
        push_f(&mut b, self.core.freq_ghz);
        push(&mut b, u64::from(self.core.issue_width));
        push(&mut b, u64::from(self.core.rob_entries));
        push_f(&mut b, self.core.scalar_ipc);
        push(&mut b, self.queue_entries as u64);
        push(&mut b, self.issue_gap_cycles);
        push(&mut b, self.xb_words_per_cycle as u64);
        push(
            &mut b,
            u64::from(self.include_mode_switch)
                | u64::from(self.warm_caches) << 1
                | u64::from(self.ooo_dispatch) << 2,
        );
        b
    }

    /// Stable 64-bit content digest of the configuration (FNV-1a over
    /// [`SimConfig::canonical_bytes`]): the cache key of the service layer.
    pub fn cache_key(&self) -> u64 {
        fnv1a_64(&self.canonical_bytes())
    }
}

/// Equality IS canonical-encoding equality, so `Eq`/`Hash` are consistent
/// by construction (the float fields go through the same normalization:
/// `-0.0 == 0.0`, and the — never meaningful — NaN compares equal to
/// itself instead of poisoning map lookups).
impl PartialEq for SimConfig {
    fn eq(&self, other: &Self) -> bool {
        self.canonical_bytes() == other.canonical_bytes()
    }
}

impl Eq for SimConfig {}

impl std::hash::Hash for SimConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write(&self.canonical_bytes());
    }
}

/// Event counters from which the energy model computes joules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCounters {
    /// Σ over compute µops of (active SRAM arrays × latency cycles): the
    /// number of word-line-activation array-cycles.
    pub array_active_cycles: u64,
    /// Elements streamed through the TMUs (loads + stores).
    pub tmu_element_transfers: u64,
    /// Dynamic vector instructions issued by the core.
    pub vector_instrs: u64,
    /// Dynamic scalar instructions retired by the core.
    pub scalar_instrs: u64,
}

/// The outcome of a timing simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Makespan in core cycles.
    pub total_cycles: u64,
    /// Cycles with ≥ 1 CB computing (and no memory op in flight).
    pub compute_cycles: u64,
    /// Cycles with a vector memory operation in flight.
    pub data_cycles: u64,
    /// Cycles with the engine configured but entirely idle.
    pub idle_cycles: u64,
    /// Σ over CBs of cycles spent busy (compute µops + memory transfers);
    /// divides by `CBs × total` for the utilization of Section VII-B.
    pub cb_busy_cycles: u64,
    /// Control blocks in the simulated geometry.
    pub control_blocks: u64,
    /// Dynamic vector instruction count.
    pub vector_instrs: u64,
    /// Dynamic scalar instruction count.
    pub scalar_instrs: u64,
    /// Hierarchy statistics after the run.
    pub mem: MemStats,
    /// Energy event counters.
    pub energy: EnergyCounters,
}

impl SimReport {
    /// CB utilization: busy CB-cycles over total CB-cycles (Section VII-B:
    /// 23% for RVV vs 60% for MVE on bit-serial).
    pub fn utilization(&self) -> f64 {
        if self.total_cycles == 0 || self.control_blocks == 0 {
            0.0
        } else {
            self.cb_busy_cycles as f64 / (self.total_cycles * self.control_blocks) as f64
        }
    }

    /// Fractions `(idle, compute, data)` of the makespan.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        if self.total_cycles == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = self.total_cycles as f64;
        (
            self.idle_cycles as f64 / t,
            self.compute_cycles as f64 / t,
            self.data_cycles as f64 / t,
        )
    }
}

/// Online union of `(start, end)` intervals.
///
/// The batch model collected every per-CB compute interval into a `Vec`,
/// sorted it at the end and merged — O(trace) memory. This structure
/// exploits the simulator's monotonicity instead: intervals are inserted
/// with `start >= t_core` (the nondecreasing core clock), so any pending
/// interval that ends at or before the clock can never gain new overlap and
/// its length is settled immediately. What remains pending is bounded by
/// the Instruction-Q depth plus the CB count, independent of trace length.
#[derive(Debug, Default)]
struct IntervalUnion {
    /// Disjoint, non-touching intervals sorted by start, all ending after
    /// the last settle point.
    pending: VecDeque<(u64, u64)>,
    /// Total length of intervals already flushed.
    settled: u64,
}

impl IntervalUnion {
    /// Inserts `[s, e)`, merging with any overlapping or touching pending
    /// interval (touching merges keep long per-CB µop chains collapsed to a
    /// single entry).
    fn insert(&mut self, s: u64, e: u64) {
        // Fast path: strictly after everything pending.
        if self.pending.back().is_none_or(|&(_, pe)| pe < s) {
            self.pending.push_back((s, e));
            return;
        }
        let i = self.pending.partition_point(|&(_, pe)| pe < s);
        let (mut ns, mut ne) = (s, e);
        let mut j = i;
        while j < self.pending.len() {
            let (ps, pe) = self.pending[j];
            if ps > ne {
                break;
            }
            ns = ns.min(ps);
            ne = ne.max(pe);
            j += 1;
        }
        if j == i {
            self.pending.insert(i, (ns, ne));
        } else {
            self.pending[i] = (ns, ne);
            self.pending.drain(i + 1..j);
        }
    }

    /// Flushes every pending interval ending at or before `t` (safe once
    /// the clock has reached `t`: future inserts start at `>= t`).
    fn settle_before(&mut self, t: u64) {
        while let Some(&(s, e)) = self.pending.front() {
            if e > t {
                break;
            }
            self.settled += e - s;
            self.pending.pop_front();
        }
    }

    /// Total union length, consuming the remaining pending intervals.
    fn finish(self) -> u64 {
        self.settled + self.pending.iter().map(|(s, e)| e - s).sum::<u64>()
    }
}

/// The timing state machine of one configuration, advanced one event at a
/// time by the drivers below ([`simulate_sweep`], [`simulate_lines`]).
/// Its working state is O(configuration), not O(trace length).
#[derive(Debug)]
struct TimingSim {
    cfg: SimConfig,
    hier: Hierarchy,
    lat_model: LatencyModel,
    freq_scale: f64,
    n_cbs: usize,
    /// Mode-switch charged and `cb_avail` anchored (lazily, at the first
    /// vector event).
    started: bool,
    t_core: u64,
    cb_avail: Vec<u64>,
    inflight: VecDeque<u64>,
    compute: IntervalUnion,
    data_busy: u64,
    cb_busy: u64,
    energy: EnergyCounters,
    vec_instrs: u64,
    scalar_instrs: u64,
    /// Scalar blocks are coalesced before retiring. [`Trace::push`]
    /// already merges adjacent blocks, so this only merges blocks that an
    /// [`Event::SrcLine`] marker splits: a marked trace times the same as
    /// the unmarked one.
    pending_scalar: u64,
}

impl TimingSim {
    /// A fresh simulator over `cfg`, with a fresh (cold) hierarchy.
    fn new(cfg: SimConfig) -> Self {
        let hier = Hierarchy::new(cfg.hierarchy);
        let n_cbs = cfg.geometry.control_blocks();
        let lat_model = cfg.scheme.latency_model();
        let freq_scale = cfg.scheme.frequency_scale();
        Self {
            started: false,
            t_core: 0,
            cb_avail: vec![0; n_cbs],
            inflight: VecDeque::new(),
            compute: IntervalUnion::default(),
            data_busy: 0,
            cb_busy: 0,
            energy: EnergyCounters::default(),
            vec_instrs: 0,
            scalar_instrs: 0,
            pending_scalar: 0,
            hier,
            lat_model,
            freq_scale,
            n_cbs,
            cfg,
        }
    }

    /// The current completion frontier: the cycle at which every event
    /// consumed so far has retired (max of the core clock and every CB's
    /// availability). Monotone non-decreasing in events consumed, and
    /// after [`TimingSim::finish`]'s trailing flush it equals
    /// `total_cycles` — so frontier deltas sampled between events
    /// telescope exactly to the report total, which is what the per-line
    /// attribution in [`simulate_lines`] rests on. Scalar instructions
    /// still pending coalescing are *not* included; they enter the
    /// frontier where the block flushes.
    fn frontier(&self) -> u64 {
        self.cb_avail
            .iter()
            .copied()
            .max()
            .unwrap_or(self.t_core)
            .max(self.t_core)
    }

    /// Charges the mode switch and anchors the CB clocks; idempotent.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        if self.cfg.include_mode_switch {
            self.t_core += self.hier.enable_compute_mode();
        }
        self.cb_avail.fill(self.t_core);
        self.started = true;
    }

    /// Retires the coalesced pending scalar block.
    fn flush_scalar(&mut self) {
        if self.pending_scalar > 0 {
            self.scalar_instrs += self.pending_scalar;
            self.t_core += self.cfg.core.scalar_block_cycles(self.pending_scalar);
            self.pending_scalar = 0;
        }
    }

    /// Core→controller channel occupancy and Instruction-Q backpressure.
    fn issue_vec_instr(&mut self) {
        self.t_core += self.cfg.issue_gap_cycles.max(1);
        while self.inflight.front().is_some_and(|&c| c <= self.t_core) {
            self.inflight.pop_front();
        }
        if self.inflight.len() >= self.cfg.queue_entries {
            if let Some(front) = self.inflight.pop_front() {
                self.t_core = self.t_core.max(front);
            }
        }
    }

    /// Advances the model by one event.
    fn on_event(&mut self, event: &Event) {
        // Attribution markers carry no timing at all — returning before
        // `ensure_started`/`flush_scalar` keeps a marked trace's timing
        // bit-identical to the same trace without markers.
        if matches!(event, Event::SrcLine { .. }) {
            return;
        }
        if let Event::Scalar { instrs } = event {
            self.pending_scalar += instrs;
            return;
        }
        self.ensure_started();
        self.flush_scalar();
        self.compute.settle_before(self.t_core);
        match event {
            Event::Scalar { .. } | Event::SrcLine { .. } => unreachable!("handled above"),
            Event::Config { .. } => {
                self.vec_instrs += 1;
                self.energy.vector_instrs += 1;
                self.issue_vec_instr();
            }
            Event::Compute {
                alu,
                dtype,
                active_lanes,
                cb_mask,
                ..
            } => {
                self.vec_instrs += 1;
                self.energy.vector_instrs += 1;
                self.issue_vec_instr();
                if *active_lanes == 0 {
                    return;
                }
                let bits = dtype.bits();
                let engine_cycles = self.lat_model.op_latency(*alu, bits);
                let scheme_lanes = self.cfg.scheme.lanes(&self.cfg.geometry, bits).max(1);
                let passes = (*active_lanes as usize).div_ceil(scheme_lanes) as u64;
                let dur = ((engine_cycles * passes) as f64 / self.freq_scale).ceil() as u64;

                let mut completion = self.t_core;
                let mut active_cbs = 0u64;
                for cb in 0..self.n_cbs {
                    if cb_mask >> cb & 1 == 1 {
                        active_cbs += 1;
                        let start = self.t_core.max(self.cb_avail[cb]);
                        let end = start + dur;
                        self.cb_avail[cb] = end;
                        self.compute.insert(start, end);
                        self.cb_busy += dur;
                        completion = completion.max(end);
                    }
                }
                self.energy.array_active_cycles +=
                    active_cbs * self.cfg.geometry.arrays_per_cb as u64 * dur;
                self.inflight.push_back(completion);
            }
            Event::Memory {
                dtype,
                active_lanes,
                cb_mask,
                lines,
                write,
                ..
            } => {
                self.vec_instrs += 1;
                self.energy.vector_instrs += 1;
                self.issue_vec_instr();
                if *active_lanes == 0 && lines.is_empty() {
                    // A fully-masked access moves nothing: no lines reach
                    // the hierarchy and no elements stream through the TMU,
                    // so it must not stall the CBs or charge transfers —
                    // the timing-layer mirror of PR 2's predicated-store
                    // line-accounting fix.
                    return;
                }
                // A vector memory access blocks every CB (Section V-B);
                // with PUMICE-style dispatch only the touched CBs stall.
                let ready = if self.cfg.ooo_dispatch {
                    (0..self.n_cbs)
                        .filter(|cb| cb_mask >> cb & 1 == 1)
                        .map(|cb| self.cb_avail[cb])
                        .max()
                        .unwrap_or(self.t_core)
                } else {
                    self.cb_avail.iter().copied().max().unwrap_or(self.t_core)
                };
                let start = self.t_core.max(ready);
                let batch = self.hier.vector_access(lines, *write, start);
                // The TMU streams only the access's active elements; a
                // masked partial access fills proportionally fewer transpose
                // columns per CB, and a pointer-only access (all data lanes
                // masked off) streams none at all.
                let tmu = if *active_lanes == 0 {
                    0
                } else {
                    let active_cbs_for_tmu = (0..self.n_cbs)
                        .filter(|cb| cb_mask >> cb & 1 == 1)
                        .count()
                        .max(1);
                    let elems_per_cb = (*active_lanes as usize)
                        .div_ceil(active_cbs_for_tmu)
                        .min(self.cfg.geometry.bitlines_per_cb())
                        .max(1);
                    tmu::transfer_cycles(
                        elems_per_cb,
                        self.cfg.scheme.tmu_drain_slices(dtype.bits()),
                        self.cfg.xb_words_per_cycle,
                    )
                };
                let end = batch.done_at + tmu;
                if self.cfg.ooo_dispatch {
                    for cb in 0..self.n_cbs {
                        if cb_mask >> cb & 1 == 1 {
                            self.cb_avail[cb] = end;
                        }
                    }
                } else {
                    for avail in self.cb_avail.iter_mut() {
                        *avail = end;
                    }
                }
                self.data_busy += end - start;
                let active_cbs = (0..self.n_cbs).filter(|cb| cb_mask >> cb & 1 == 1).count() as u64;
                self.cb_busy += active_cbs * (end - start);
                self.energy.tmu_element_transfers += u64::from(*active_lanes);
                self.inflight.push_back(end);
            }
        }
    }

    /// Completes the run and produces the report.
    fn finish(mut self) -> SimReport {
        self.ensure_started();
        self.flush_scalar();
        let total_end = self.frontier();
        let compute = self.compute.finish();
        let idle = total_end.saturating_sub(compute + self.data_busy);
        self.energy.scalar_instrs = self.scalar_instrs;
        SimReport {
            total_cycles: total_end,
            compute_cycles: compute,
            data_cycles: self.data_busy,
            idle_cycles: idle,
            cb_busy_cycles: self.cb_busy,
            control_blocks: self.n_cbs as u64,
            vector_instrs: self.vec_instrs,
            scalar_instrs: self.scalar_instrs,
            mem: self.hier.stats(),
            energy: self.energy,
        }
    }
}

/// Warms every sim whose configuration asks for it ([`SimConfig::warm_caches`],
/// the Swan steady state): the first sim of each distinct hierarchy
/// configuration walks the trace's memory events through its hierarchy at
/// time zero, and later sims with the same hierarchy configuration take a
/// clone of it. Warming depends only on the memory events and the hierarchy
/// parameters, so the clone equals an independent warm pass.
///
/// The warm pass runs on a clock of its own, so it ends with
/// [`Hierarchy::end_warm_pass`]: its statistics and the DRAM's busy times
/// are cleared, cache contents and open rows kept.
fn warm(sims: &mut [TimingSim], trace: &Trace) {
    for i in 0..sims.len() {
        if !sims[i].cfg.warm_caches {
            continue;
        }
        let hierarchy = sims[i].cfg.hierarchy;
        let leader = sims[..i]
            .iter()
            .position(|s| s.cfg.warm_caches && s.cfg.hierarchy == hierarchy);
        match leader {
            Some(j) => sims[i].hier = sims[j].hier.clone(),
            None => {
                let hier = &mut sims[i].hier;
                for event in trace.events() {
                    if let Event::Memory { lines, write, .. } = event {
                        hier.vector_access(lines, *write, 0);
                    }
                }
                hier.end_warm_pass();
            }
        }
    }
}

/// Runs the timing model over a captured trace: the sweep of one
/// configuration.
///
/// ```
/// use mve_core::engine::Engine;
/// use mve_core::isa::StrideMode;
/// use mve_core::sim::{simulate, SimConfig};
///
/// let mut e = Engine::default_mobile();
/// e.vsetdimc(1);
/// e.vsetdiml(0, 8192);
/// let buf = e.mem_alloc_typed::<i32>(8192);
/// let v = e.vsld_dw(buf, &[StrideMode::One]);
/// let r = e.vadd_dw(v, v);
/// e.vsst_dw(r, buf, &[StrideMode::One]);
///
/// let report = simulate(&e.take_trace(), &SimConfig::default());
/// let (idle, compute, data) = report.breakdown();
/// assert!(report.total_cycles > 0);
/// assert!((idle + compute + data - 1.0).abs() < 1e-9);
/// ```
pub fn simulate(trace: &Trace, cfg: &SimConfig) -> SimReport {
    simulate_sweep(trace, std::slice::from_ref(cfg))
        .pop()
        .expect("one configuration, one report")
}

/// Simulates a trace and attributes cycles to source lines using the
/// [`Event::SrcLine`] markers it carries: the completion frontier is
/// sampled at every marker, and the delta since the previous sample is
/// charged to the line that was active. Events before the first marker
/// (and traces with no markers at all) land on line 0 — the
/// `<toplevel>` bucket.
///
/// Returns the ordinary [`SimReport`] (bit-identical to
/// [`simulate`] on the same trace, markers or not) plus the per-line
/// cycle map. Conservation holds by construction: the deltas telescope,
/// so the map's values sum exactly to `report.total_cycles`.
pub fn simulate_lines(
    trace: &Trace,
    cfg: &SimConfig,
) -> (SimReport, std::collections::BTreeMap<u32, u64>) {
    let mut sim = TimingSim::new(cfg.clone());
    warm(std::slice::from_mut(&mut sim), trace);
    let mut lines = std::collections::BTreeMap::new();
    let mut cur_line = 0u32;
    let mut last = sim.frontier();
    for event in trace.events() {
        if let Event::SrcLine { line } = event {
            let now = sim.frontier();
            *lines.entry(cur_line).or_insert(0) += now - last;
            last = now;
            cur_line = *line;
            continue;
        }
        sim.on_event(event);
    }
    let now = sim.frontier();
    *lines.entry(cur_line).or_insert(0) += now - last;
    last = now;
    // `finish` flushes the trailing scalar block and closes the clock;
    // whatever it adds past the last sampled frontier belongs to the
    // final active line.
    let report = sim.finish();
    *lines.entry(cur_line).or_insert(0) += report.total_cycles - last;
    (report, lines)
}

/// Simulates one trace under every configuration: one sim per
/// configuration, one warm pass per distinct warming hierarchy and a
/// single timed walk of the trace for all of them. Returns reports in
/// configuration order.
pub fn simulate_sweep(trace: &Trace, cfgs: &[SimConfig]) -> Vec<SimReport> {
    let mut sims: Vec<TimingSim> = cfgs.iter().cloned().map(TimingSim::new).collect();
    warm(&mut sims, trace);
    for event in trace.events() {
        for sim in &mut sims {
            sim.on_event(event);
        }
    }
    sims.into_iter().map(TimingSim::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::isa::StrideMode;

    fn quiet_cfg() -> SimConfig {
        SimConfig::default().without_mode_switch()
    }

    pub(super) fn small_kernel_trace(mul_count: usize) -> Trace {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, 8192);
        let a = e.mem_alloc_typed::<i32>(8192);
        let v = e.vsld_dw(a, &[StrideMode::One]);
        let mut acc = e.vsetdup_dw(1);
        for _ in 0..mul_count {
            let p = e.vmul_dw(acc, v);
            e.free(acc);
            acc = p;
            e.scalar(4);
        }
        let o = e.mem_alloc_typed::<i32>(8192);
        e.vsst_dw(acc, o, &[StrideMode::One]);
        e.take_trace()
    }

    /// Reference union for the property checks: the batch formulation the
    /// online [`IntervalUnion`] replaced.
    fn union_length_reference(mut iv: Vec<(u64, u64)>) -> u64 {
        iv.sort_unstable();
        let mut total = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in iv {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    cur = Some((s, e));
                    let _ = cs;
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }

    #[test]
    fn interval_union_matches_batch_reference() {
        let cases: Vec<Vec<(u64, u64)>> = vec![
            vec![],
            vec![(3, 3)],
            vec![(0, 10), (5, 15), (20, 30)],
            vec![(20, 30), (0, 10), (5, 15)],
            vec![(0, 5), (5, 9)],            // touching merges
            vec![(10, 20), (0, 4), (4, 10)], // touch chain out of order
            vec![(0, 100), (10, 20), (30, 40), (150, 160), (90, 155)],
        ];
        for case in cases {
            let mut u = IntervalUnion::default();
            for &(s, e) in &case {
                u.insert(s, e);
            }
            assert_eq!(
                u.finish(),
                union_length_reference(case.clone()),
                "case {case:?}"
            );
        }
    }

    #[test]
    fn interval_union_settles_without_changing_the_total() {
        let mut u = IntervalUnion::default();
        u.insert(0, 10);
        u.insert(20, 30);
        u.settle_before(15); // flushes (0,10)
        assert_eq!(u.pending.len(), 1);
        u.insert(25, 40);
        u.insert(50, 60);
        u.settle_before(45);
        assert_eq!(u.pending.len(), 1);
        assert_eq!(u.finish(), 10 + 20 + 10);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let trace = small_kernel_trace(8);
        let r = simulate(&trace, &quiet_cfg());
        assert_eq!(
            r.compute_cycles + r.data_cycles + r.idle_cycles,
            r.total_cycles
        );
        assert!(r.total_cycles > 0);
        assert!(r.data_cycles > 0, "loads/stores must show up");
        assert!(r.compute_cycles > 0, "multiplies must show up");
    }

    #[test]
    fn compute_bound_kernel_is_compute_heavy() {
        // Many multiplies per load: compute dominates (i32 mul = 1184 cyc).
        let trace = small_kernel_trace(64);
        let r = simulate(&trace, &quiet_cfg());
        assert!(
            r.compute_cycles > r.data_cycles,
            "compute {} vs data {}",
            r.compute_cycles,
            r.data_cycles
        );
        assert!(r.utilization() > 0.5, "util {}", r.utilization());
    }

    #[test]
    fn bit_parallel_needs_multiple_passes_but_less_latency() {
        let trace = small_kernel_trace(16);
        let bs = simulate(&trace, &quiet_cfg());
        let bp = simulate(&trace, &quiet_cfg().with_scheme(Scheme::BitParallel));
        // For 8192 32-bit lanes, BP runs 32 passes of a (n+5)/0.9-cycle mul;
        // BS runs 1 pass of n²+5n. BS still wins on throughput here.
        assert!(bp.total_cycles != bs.total_cycles);
        assert!(bp.compute_cycles > 0);
    }

    #[test]
    fn scalar_heavy_traces_idle_the_engine() {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, 8192);
        let v = e.vsetdup_dw(3);
        let w = e.vsetdup_dw(4);
        for _ in 0..4 {
            e.scalar(50_000); // huge scalar gaps
            let r = e.vadd_dw(v, w);
            e.free(r);
        }
        let r = simulate(&e.take_trace(), &quiet_cfg());
        let (idle, _, _) = r.breakdown();
        assert!(idle > 0.8, "idle fraction {idle} should dominate");
    }

    /// The warm pass runs on a clock of its own. After it issued DRAM
    /// fills, the timed pass's first DRAM fill must not queue behind them:
    /// it may find another row open in its bank (one precharge more than
    /// on a fresh hierarchy), but no busy channel or bank.
    #[test]
    fn warm_pass_leaves_no_dram_busy_time() {
        let read = |lines: &[u64]| Event::Memory {
            opcode: crate::isa::Opcode::StridedLoad,
            dtype: crate::dtype::DType::I32,
            active_lanes: 16,
            cb_mask: 1,
            lines: mve_memsim::LineSet::from_sorted(lines),
            write: false,
        };
        // More lines than the LLC holds: ~40,000 DRAM fills, which keep
        // the channel busy for ~280K cycles of the warm pass's clock.
        let warm_read = read(&(0..40_000).collect::<Vec<u64>>());
        let timed = read(&[1 << 30]);
        let cfg = quiet_cfg();
        let cold = {
            let mut sim = TimingSim::new(cfg.clone());
            sim.on_event(&timed);
            sim.finish().total_cycles
        };
        let bound = cold + cfg.hierarchy.dram.t_rp;
        // The first sim warms its own hierarchy; the second, with the same
        // hierarchy configuration, takes a clone of it, busy times cleared
        // too.
        let mut warm_trace = Trace::new();
        warm_trace.push(warm_read);
        let mut sims = [
            TimingSim::new(cfg.clone()),
            TimingSim::new(cfg.with_ooo_dispatch()),
        ];
        warm(&mut sims, &warm_trace);
        for mut sim in sims {
            sim.on_event(&timed);
            let warmed = sim.finish().total_cycles;
            assert!(warmed <= bound, "{warmed} cycles, fresh hierarchy {cold}");
        }
    }

    #[test]
    fn mode_switch_adds_cycles_only_when_dirty() {
        let trace = small_kernel_trace(2);
        let without = simulate(&trace, &quiet_cfg());
        let with = simulate(&trace, &SimConfig::default());
        // A fresh hierarchy has no dirty lines, so the flush is free.
        assert_eq!(without.total_cycles, with.total_cycles);
    }

    #[test]
    fn lower_precision_computes_faster() {
        let build = |dt_bits: u32| {
            let mut e = Engine::default_mobile();
            e.vsetdimc(1);
            e.vsetdiml(0, 8192);
            let a = e.mem_alloc_typed::<i32>(8192);
            let v = match dt_bits {
                8 => e.vsld_b(a, &[StrideMode::One]),
                16 => e.vsld_w(a, &[StrideMode::One]),
                _ => e.vsld_dw(a, &[StrideMode::One]),
            };
            for _ in 0..16 {
                let p = match dt_bits {
                    8 => e.vmul_b(v, v),
                    16 => e.vmul_w(v, v),
                    _ => e.vmul_dw(v, v),
                };
                e.free(p);
            }
            e.take_trace()
        };
        let t8 = simulate(&build(8), &quiet_cfg()).compute_cycles;
        let t16 = simulate(&build(16), &quiet_cfg()).compute_cycles;
        let t32 = simulate(&build(32), &quiet_cfg()).compute_cycles;
        assert!(
            t8 < t16 && t16 < t32,
            "quadratic precision scaling: {t8} {t16} {t32}"
        );
        // Bit-serial multiply is O(n²): 32-bit ≈ 10× the 8-bit latency.
        let ratio = t32 as f64 / t8 as f64;
        assert!((6.0..=16.0).contains(&ratio), "mul scaling ratio {ratio}");
    }

    #[test]
    fn report_counts_instructions() {
        let trace = small_kernel_trace(4);
        let r = simulate(&trace, &quiet_cfg());
        let mix = trace.instr_mix();
        assert_eq!(r.vector_instrs, mix.vector_total());
        assert_eq!(r.scalar_instrs, mix.scalar);
        assert!(r.energy.array_active_cycles > 0);
        assert!(r.energy.tmu_element_transfers > 0);
    }

    #[test]
    fn builder_and_literal_configs_hash_equal() {
        // The cache-key correctness foundation: a config assembled with the
        // PR 3 builder methods and a hand-built literal that is
        // semantically identical must compare equal, encode identically and
        // land on the same cache key.
        let built = SimConfig::default()
            .with_scheme(Scheme::BitParallel)
            .with_arrays(16)
            .without_mode_switch()
            .with_ooo_dispatch();
        let literal = SimConfig {
            scheme: Scheme::BitParallel,
            geometry: EngineGeometry::with_arrays(16),
            hierarchy: mve_memsim::HierarchyConfig::default(),
            core: CoreConfig::default(),
            queue_entries: 256,
            issue_gap_cycles: 4,
            xb_words_per_cycle: 32,
            include_mode_switch: false,
            warm_caches: true,
            ooo_dispatch: true,
        };
        assert_eq!(built, literal);
        assert_eq!(built.canonical_bytes(), literal.canonical_bytes());
        assert_eq!(built.cache_key(), literal.cache_key());
        // And the Hash impl agrees, so SimConfig works as a map key.
        let mut map = std::collections::HashMap::new();
        map.insert(built, "report");
        assert_eq!(map.get(&literal), Some(&"report"));
    }

    #[test]
    fn every_config_knob_lands_on_a_distinct_cache_key() {
        let base = SimConfig::default();
        let variants = [
            base.clone(),
            base.clone().with_scheme(Scheme::BitHybrid),
            base.clone().with_scheme(Scheme::BitParallel),
            base.clone().with_scheme(Scheme::Associative),
            base.clone().with_arrays(8),
            base.clone().with_arrays(64),
            base.clone().without_mode_switch(),
            base.clone().without_cache_warming(),
            base.clone().with_ooo_dispatch(),
            SimConfig {
                queue_entries: 128,
                ..base.clone()
            },
            SimConfig {
                issue_gap_cycles: 2,
                ..base.clone()
            },
            SimConfig {
                xb_words_per_cycle: 16,
                ..base
            },
        ];
        let keys: std::collections::HashSet<u64> =
            variants.iter().map(SimConfig::cache_key).collect();
        assert_eq!(keys.len(), variants.len(), "cache-key collision");
    }

    #[test]
    fn fnv_digest_is_stable() {
        // Pinned digests: the cache key must never silently change meaning
        // across platforms or releases (content-addressing contract).
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn dimension_masked_cbs_skip_work() {
        // Mask off half of an 8192-lane 2D shape: half the CBs see no lanes.
        let mut e = Engine::default_mobile();
        e.vsetdimc(2);
        e.vsetdiml(0, 1024);
        e.vsetdiml(1, 8);
        for w in 4..8 {
            e.vunsetmask(w);
        }
        let v = e.vsetdup_dw(1);
        for _ in 0..8 {
            let p = e.vmul_dw(v, v);
            e.free(p);
        }
        let masked = simulate(&e.take_trace(), &quiet_cfg());

        let mut e2 = Engine::default_mobile();
        e2.vsetdimc(2);
        e2.vsetdiml(0, 1024);
        e2.vsetdiml(1, 8);
        let v = e2.vsetdup_dw(1);
        for _ in 0..8 {
            let p = e2.vmul_dw(v, v);
            e2.free(p);
        }
        let full = simulate(&e2.take_trace(), &quiet_cfg());
        assert!(
            masked.energy.array_active_cycles < full.energy.array_active_cycles,
            "masked CBs must not burn array energy"
        );
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use crate::dtype::{CmpOp, DType};
    use crate::engine::Engine;
    use crate::isa::{Opcode, StrideMode};
    use mve_insram::AluOp;

    fn quiet_cfg() -> SimConfig {
        SimConfig::default().without_mode_switch()
    }

    /// Satellite regression (ISSUE 3): a fully-masked vector memory access
    /// streams no elements through the TMU and touches no lines — the old
    /// `elems_per_cb …  .max(1)` charged at least one element transfer per
    /// CB. Mirrors PR 2's predicated-store line-accounting fix at the
    /// timing layer.
    #[test]
    fn fully_masked_memory_access_charges_nothing() {
        let mut t = Trace::new();
        t.push(Event::Memory {
            opcode: Opcode::StridedStore,
            dtype: DType::I32,
            active_lanes: 0,
            cb_mask: 0,
            lines: mve_memsim::LineSet::new(),
            write: true,
        });
        let r = simulate(&t, &quiet_cfg());
        assert_eq!(r.vector_instrs, 1, "the instruction still issues");
        assert_eq!(r.data_cycles, 0, "nothing is in flight");
        assert_eq!(r.energy.tmu_element_transfers, 0);
        assert_eq!(r.mem.vector_lines_written, 0);
    }

    /// The engine-level mirror: predication that passes zero lanes emits a
    /// store event the simulator now times as free (beyond its issue slot).
    #[test]
    fn predicated_store_with_no_active_lanes_is_free() {
        let build = |with_store: bool| {
            let mut e = Engine::default_mobile();
            e.vsetdimc(1);
            e.vsetdiml(0, 32);
            let a = e.mem_alloc_typed::<i32>(32);
            let vals: Vec<i32> = (0..32).collect();
            e.mem_fill(a, &vals);
            let v = e.vsld_dw(a, &[StrideMode::One]);
            let thr = e.vsetdup_dw(100);
            e.compare(CmpOp::Gt, v, thr); // nothing exceeds 100 → empty Tag
            if with_store {
                e.set_predication(true);
                let out = e.mem_alloc_typed::<i32>(32);
                e.store(v, out, &[StrideMode::One]);
                e.set_predication(false);
            }
            e.take_trace()
        };
        let with = build(true);
        match with.events().last().expect("store event") {
            Event::Memory {
                active_lanes,
                lines,
                write: true,
                ..
            } => {
                assert_eq!(*active_lanes, 0);
                assert!(lines.is_empty());
            }
            other => panic!("unexpected event {other:?}"),
        }
        let cfg = quiet_cfg().without_cache_warming();
        let r_with = simulate(&with, &cfg);
        let r_without = simulate(&build(false), &cfg);
        assert_eq!(r_with.data_cycles, r_without.data_cycles);
        assert_eq!(
            r_with.energy.tmu_element_transfers,
            r_without.energy.tmu_element_transfers
        );
        // The dead store still occupies at most its issue slot (which may
        // hide entirely under the in-flight compute tail), nothing more.
        assert!(
            r_with.total_cycles - r_without.total_cycles <= cfg.issue_gap_cycles,
            "dead store cost {} vs {}",
            r_with.total_cycles,
            r_without.total_cycles
        );
    }

    /// A partially-masked access must keep charging transfers (the fix only
    /// exempts the fully-masked case).
    #[test]
    fn partially_masked_access_still_charges_transfers() {
        let mut t = Trace::new();
        t.push(Event::Memory {
            opcode: Opcode::StridedLoad,
            dtype: DType::I32,
            active_lanes: 16,
            cb_mask: 1,
            lines: mve_memsim::LineSet::from_sorted(&[1]),
            write: false,
        });
        let r = simulate(&t, &quiet_cfg());
        assert!(r.data_cycles > 0);
        assert_eq!(r.energy.tmu_element_transfers, 16);
    }

    /// A sweep produces, per configuration, exactly what independent
    /// runs produce — including the shared warm pass (equal hierarchies)
    /// and a non-warming member.
    #[test]
    fn sweep_matches_independent_simulations() {
        let trace = super::tests::small_kernel_trace(6);
        let cfgs = vec![
            SimConfig::default(),
            SimConfig::default().with_scheme(Scheme::BitParallel),
            SimConfig::default().with_ooo_dispatch(),
            SimConfig::default().without_cache_warming(),
            quiet_cfg().with_scheme(Scheme::BitHybrid),
        ];
        let swept = simulate_sweep(&trace, &cfgs);
        assert_eq!(swept.len(), cfgs.len());
        for (cfg, got) in cfgs.iter().zip(&swept) {
            assert_eq!(*got, simulate(&trace, cfg));
        }
    }

    /// The sim's state stays bounded by the configuration (Instruction-Q
    /// + CBs), not the trace length — the O(1)-memory property.
    #[test]
    fn resident_state_is_bounded_on_long_streams() {
        let cfg = quiet_cfg().without_cache_warming();
        let bound = cfg.queue_entries + cfg.geometry.control_blocks() + 1;
        let mut sim = TimingSim::new(cfg);
        let compute = Event::Compute {
            opcode: Opcode::Add,
            alu: AluOp::Add,
            dtype: DType::I32,
            active_lanes: 8192,
            cb_mask: 0xFF,
        };
        for i in 0..50_000u64 {
            sim.on_event(&compute);
            if i % 5 == 0 {
                sim.on_event(&Event::Scalar { instrs: 13 });
            }
            assert!(
                sim.compute.pending.len() <= bound,
                "unbounded interval buffer at event {i}: {}",
                sim.compute.pending.len()
            );
        }
        let r = sim.finish();
        assert_eq!(r.vector_instrs, 50_000);
        assert_eq!(
            r.compute_cycles + r.data_cycles + r.idle_cycles,
            r.total_cycles
        );
    }
}

#[cfg(test)]
mod pumice_tests {
    use super::*;
    use crate::engine::Engine;
    use crate::isa::StrideMode;

    /// A dimension-masked workload where half the CBs compute while the
    /// other half's memory traffic flows: PUMICE dispatch must not be
    /// slower, and should help when masked compute overlaps memory.
    #[test]
    fn ooo_dispatch_never_hurts_and_can_help() {
        let mut e = Engine::default_mobile();
        e.vsetdimc(2);
        e.vsetdiml(0, 1024);
        e.vsetdiml(1, 8);
        let buf = e.mem_alloc_typed::<i32>(8192);
        let v = e.vsetdup_dw(3);
        for round in 0..8 {
            // Mask to the lower half, compute there...
            for w in 4..8 {
                e.vunsetmask(w);
            }
            let p = e.vmul_dw(v, v);
            e.free(p);
            // ...then store the upper half only.
            e.vresetmask();
            for w in 0..4 {
                e.vunsetmask(w);
            }
            e.vsst_dw(
                v,
                buf + (round % 2) * 4,
                &[StrideMode::One, StrideMode::Seq],
            );
            e.vresetmask();
        }
        let trace = e.take_trace();
        // One trace walk, both dispatch models.
        let reports = simulate_sweep(
            &trace,
            &[
                SimConfig::default().without_mode_switch(),
                SimConfig::default()
                    .without_mode_switch()
                    .with_ooo_dispatch(),
            ],
        );
        let (base, pumice) = (&reports[0], &reports[1]);
        assert!(
            pumice.total_cycles <= base.total_cycles,
            "PUMICE {} must not exceed baseline {}",
            pumice.total_cycles,
            base.total_cycles
        );
        assert!(
            pumice.total_cycles < base.total_cycles,
            "masked compute should overlap disjoint-CB memory"
        );
    }
}
