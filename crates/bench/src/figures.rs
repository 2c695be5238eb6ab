//! The per-figure experiment functions.
//!
//! Figures 7, 8, 10-13 and the PUMICE study evaluate the same kernel set,
//! so every kernel run they need goes through one process-wide results
//! memo ([`evaluate`]) that keeps each run's reports per configuration.
//! A configuration the memo lacks costs a fresh kernel run, so [`fig7`],
//! the first figure of a pass to run every kernel, also runs Figure 13's
//! RVV kernels and times every MVE and RVV run under every configuration a
//! later figure reads (Figure 13's schemes and the PUMICE dispatch model):
//! in a full pass each kernel runs once per ISA. A lone Figure 10 stays
//! unwidened, so it times only the default configuration. Figure 12(b)'s
//! other array counts are different traces, not partial misses.
//!
//! The Neon baseline's steady state (Figures 7 and 12(c)) goes through a
//! second memo, of line-stream walks ([`neon_steady_state`]): a stream's
//! cycles depend only on its first line modulo the hierarchy's address
//! period and its length, so each distinct stream is walked once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::platform;
use mve_baselines::duality::{duality_from_mix, DualityConfig, DualityReport};
use mve_baselines::gpu::GpuConfig;
use mve_core::sim::{simulate, simulate_sweep, SimConfig, SimReport};
use mve_core::trace::InstrMix;
use mve_coresim::neon::{NeonModel, NeonOpClass, NeonProfile, NeonResult};
use mve_energy::{mve_energy, neon_energy, EnergyBreakdown, EnergyParams};
use mve_insram::Scheme;
use mve_kernels::common::engine_arrays;
use mve_kernels::precision::{self, Precision};
use mve_kernels::registry::{all_kernels, selected_kernels, Kernel, Library};
use mve_kernels::xnnpack::{Gemm, GemmSize, Spmm, SpmmSize};
use mve_kernels::{Checked, KernelRun, Scale};
use mve_memsim::{Hierarchy, HierarchyConfig, LINE_BYTES};

/// Core clock in GHz (Table IV) for cycle → µs conversion.
const FREQ_GHZ: f64 = 2.8;

fn cycles_to_us(cycles: u64) -> f64 {
    cycles as f64 / (FREQ_GHZ * 1e3)
}

/// Which implementation of a kernel an [`Evaluation`] ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// The multi-dimensional MVE implementation.
    Mve,
    /// The 1-D RVV-style implementation (selected kernels only).
    Rvv,
}

/// What the figures consume of one kernel run: its functional check, its
/// instruction mix, and one timing report per requested configuration.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Functional comparison against the scalar reference.
    pub checked: Checked,
    /// Dynamic instruction mix of the trace.
    pub mix: InstrMix,
    /// One report per requested configuration, in request order.
    pub reports: Vec<SimReport>,
}

/// A memo entry. Traces are never stored: the 53 paper-scale traces of a
/// pass (44 MVE, 9 RVV) hold 34.9 MB by `Trace::heap_bytes` (94.8 MB
/// when memory events kept one `u64` per line), above the process's
/// 22-23 MB peak RSS.
struct Memoized {
    checked: Checked,
    mix: InstrMix,
    reports: HashMap<SimConfig, SimReport>,
}

/// Kernel name (unique in the registry), implementation, scale and the
/// thread's engine array count: everything a kernel run depends on.
type MemoKey = (&'static str, Isa, Scale, usize);

/// The memo, recovered if poisoned: every update leaves it valid (an entry
/// lacking a report only misses on it).
fn memo() -> MutexGuard<'static, HashMap<MemoKey, Memoized>> {
    static MEMO: OnceLock<Mutex<HashMap<MemoKey, Memoized>>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Runs `kernel`'s `isa` implementation at `scale` and times it under each
/// of `cfgs`, through the process-wide results memo.
///
/// A hit returns the stored results. When any of `cfgs` has not been timed
/// yet, the kernel runs again (counted by [`kernel_runs`]) and only the
/// missing configurations are timed, in one fanned-out walk of its trace;
/// a caller that knows what later callers will ask for should request it
/// up front, as [`fig7`] does. The lock is not held while the kernel runs,
/// so concurrent misses on one key may both compute; the results are
/// deterministic, so either may be kept.
///
/// The check is returned, not asserted: each caller asserts
/// `checked.ok()` itself.
///
/// # Panics
///
/// Panics if `isa` is [`Isa::Rvv`] and the kernel has no RVV
/// implementation.
pub fn evaluate(kernel: &dyn Kernel, isa: Isa, scale: Scale, cfgs: &[SimConfig]) -> Evaluation {
    let name = kernel.info().name;
    let key = (name, isa, scale, engine_arrays());
    let missing: Vec<SimConfig> = {
        let memo = memo();
        let entry = memo.get(&key);
        let missing: Vec<SimConfig> = cfgs
            .iter()
            .filter(|c| !entry.is_some_and(|e| e.reports.contains_key(c)))
            .cloned()
            .collect();
        match entry {
            Some(e) if missing.is_empty() => {
                return Evaluation {
                    checked: e.checked,
                    mix: e.mix,
                    reports: cfgs.iter().map(|c| e.reports[c].clone()).collect(),
                }
            }
            _ => missing,
        }
    };
    KERNEL_RUNS[isa as usize].fetch_add(1, Ordering::Relaxed);
    let run = match isa {
        Isa::Mve => kernel.run_mve(scale),
        Isa::Rvv => kernel
            .run_rvv(scale)
            .unwrap_or_else(|| panic!("{name} has no RVV implementation")),
    };
    let fresh = simulate_sweep(&run.trace, &missing);
    let (checked, mix) = (run.checked, run.trace.instr_mix());
    drop(run);
    let mut memo = memo();
    let entry = memo.entry(key).or_insert_with(|| Memoized {
        checked,
        mix,
        reports: HashMap::new(),
    });
    entry.reports.extend(missing.into_iter().zip(fresh));
    Evaluation {
        checked,
        mix,
        reports: cfgs.iter().map(|c| entry.reports[c].clone()).collect(),
    }
}

/// Kernel runs [`evaluate`] has made, per [`Isa`], since the process
/// started.
static KERNEL_RUNS: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

/// How many times [`evaluate`] has run a kernel's `isa` implementation in
/// this process (every memo miss, across all threads).
pub fn kernel_runs(isa: Isa) -> usize {
    KERNEL_RUNS[isa as usize].load(Ordering::Relaxed)
}

/// Empties the results memo and the Neon stream memo, so the next
/// evaluation of every kernel runs it again (cost calibration times cold
/// renders).
pub fn clear_memo() {
    memo().clear();
    neon_streams().clear();
}

/// [`evaluate`], asserting the functional check: a figure must never be
/// produced from a wrong result.
fn evaluate_ok(kernel: &dyn Kernel, isa: Isa, scale: Scale, cfgs: &[SimConfig]) -> Evaluation {
    let ev = evaluate(kernel, isa, scale, cfgs);
    assert!(
        ev.checked.ok(),
        "{}: {isa:?} output mismatch {:?}",
        kernel.info().name,
        ev.checked
    );
    ev
}

/// [`evaluate_ok`] under one configuration.
fn timed(kernel: &dyn Kernel, isa: Isa, scale: Scale, cfg: SimConfig) -> (InstrMix, SimReport) {
    let mut ev = evaluate_ok(kernel, isa, scale, &[cfg]);
    (ev.mix, ev.reports.remove(0))
}

/// The cycle at which the measured pass of a Neon steady state starts.
const NEON_MEASURED_START: u64 = 1_000_000_000;

/// A Neon line stream's memo key: its first byte address modulo the
/// hierarchy's address period ([`HierarchyConfig::address_period_lines`])
/// and its length in lines, which together fix every cycle of its walk on
/// a fresh hierarchy.
type StreamKey = (u64, u64);

fn neon_stream_key(cfg: &HierarchyConfig, base_addr: u64, lines: u64) -> StreamKey {
    (base_addr % (cfg.address_period_lines() * LINE_BYTES), lines)
}

/// Steady-state cycles of each Neon line stream walked so far, recovered
/// if poisoned like [`memo`].
fn neon_streams() -> MutexGuard<'static, HashMap<StreamKey, u64>> {
    static STREAMS: OnceLock<Mutex<HashMap<StreamKey, u64>>> = OnceLock::new();
    STREAMS
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// `profile` on the Neon model in Swan-style steady state (mirroring
/// `SimConfig::warm_caches`): on a fresh Table IV hierarchy, a first
/// [`NeonModel::execute`] warms the caches and a second, at cycle 1e9, is
/// reported.
///
/// Only the line walk touches the hierarchy, so its measured cycles are
/// memoized per stream (`neon_stream_key`); the rest is closed-form
/// ([`NeonModel::finish`]). Like [`evaluate`], the lock is not held while
/// a stream is walked.
pub fn neon_steady_state(profile: &NeonProfile) -> NeonResult {
    let model = NeonModel::default();
    let cfg = HierarchyConfig::default();
    let lines = profile.stream_lines();
    let key = neon_stream_key(&cfg, profile.base_addr, lines);
    let cached = neon_streams().get(&key).copied();
    let stream_cycles = cached.unwrap_or_else(|| {
        let mut hier = Hierarchy::new(cfg);
        model.walk_stream(profile.base_addr, lines, &mut hier, 0);
        let cycles = model.walk_stream(profile.base_addr, lines, &mut hier, NEON_MEASURED_START);
        neon_streams().insert(key, cycles);
        cycles
    });
    model.finish(profile, &cfg, stream_cycles)
}

/// One Figure 7 row (per library averages).
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Library.
    pub library: Library,
    /// MVE execution time as a fraction of Neon's.
    pub time_frac: f64,
    /// (idle, compute, data) fractions of MVE's execution time.
    pub breakdown: (f64, f64, f64),
    /// MVE energy as a fraction of Neon's.
    pub energy_frac: f64,
    /// MVE energy split (compute, data, cpu) as fractions of Neon's total.
    pub energy_split: (f64, f64, f64),
}

/// The configurations [`fig7`] times a kernel's MVE run under: the default
/// one first, then every one a later figure reads at the default geometry
/// (Figure 13's schemes for its kernels, the PUMICE study's dispatch
/// models for the selected ones), so those figures hit the memo.
fn fig7_configs(kernel: &dyn Kernel) -> Vec<SimConfig> {
    let info = kernel.info();
    let mut later = Vec::new();
    if fig10_kernel_names().contains(&info.name) {
        later.extend(scheme_configs());
    }
    if info.selected {
        later.extend(pumice_configs());
    }
    default_then(later)
}

/// Figure 13's configurations, one per scheme in plot order.
fn scheme_configs() -> Vec<SimConfig> {
    platform::scheme_sweep()
        .into_iter()
        .map(|(_, cfg)| cfg)
        .collect()
}

/// The default configuration, then each of `later` not already listed.
fn default_then(later: Vec<SimConfig>) -> Vec<SimConfig> {
    let mut cfgs = vec![platform::mve_config()];
    for cfg in later {
        if !cfgs.contains(&cfg) {
            cfgs.push(cfg);
        }
    }
    cfgs
}

/// Figure 7: MVE vs Arm Neon across all 44 kernels, averaged per library.
///
/// It is the first figure of a pass to run every kernel, so it also fills
/// the memo for the later ones: each MVE run is timed under
/// `fig7_configs`, and then Figure 13's nine kernels run their RVV
/// implementation, timed under the default configuration (Figures 10 and
/// 11) and Figure 13's schemes. Its own rows read only the default
/// configuration's MVE reports.
pub fn fig7(scale: Scale) -> (Vec<Fig7Row>, Fig7Row) {
    let params = EnergyParams::default();
    let mut rows = Vec::new();
    let kernels = all_kernels();
    for lib in Library::ALL {
        let mut time_fracs = Vec::new();
        let mut e_fracs = Vec::new();
        let mut idle = 0.0;
        let mut comp = 0.0;
        let mut data = 0.0;
        let mut es = (0.0, 0.0, 0.0);
        let mut count = 0.0;
        for k in kernels.iter().filter(|k| k.info().library == lib) {
            let cfgs = fig7_configs(k.as_ref());
            let report = evaluate_ok(k.as_ref(), Isa::Mve, scale, &cfgs)
                .reports
                .swap_remove(0);
            let profile = k.neon_profile(scale);
            let neon = neon_steady_state(&profile);
            time_fracs.push(report.total_cycles as f64 / neon.cycles as f64);
            let me: EnergyBreakdown = mve_energy(&report, &params);
            let ne = neon_energy(&profile, &neon, &params);
            e_fracs.push(me.total_pj() / ne.total_pj());
            let (i, c, d) = report.breakdown();
            idle += i;
            comp += c;
            data += d;
            es.0 += me.compute_pj / ne.total_pj();
            es.1 += me.data_pj / ne.total_pj();
            es.2 += me.cpu_pj / ne.total_pj();
            count += 1.0;
        }
        rows.push(Fig7Row {
            library: lib,
            time_frac: crate::geomean(&time_fracs),
            breakdown: (idle / count, comp / count, data / count),
            energy_frac: crate::geomean(&e_fracs),
            energy_split: (es.0 / count, es.1 / count, es.2 / count),
        });
    }
    let rvv_cfgs = default_then(scheme_configs());
    // After every MVE run, not between them: interleaved, a paper-scale
    // pass peaked about 5 MB higher (32.8 against 27.5 MB).
    for k in kernels
        .iter()
        .filter(|k| fig10_kernel_names().contains(&k.info().name))
    {
        evaluate_ok(k.as_ref(), Isa::Rvv, scale, &rvv_cfgs);
    }
    let avg = Fig7Row {
        library: Library::Linpack, // placeholder tag for the average row
        time_frac: crate::geomean(&rows.iter().map(|r| r.time_frac).collect::<Vec<_>>()),
        breakdown: (
            rows.iter().map(|r| r.breakdown.0).sum::<f64>() / rows.len() as f64,
            rows.iter().map(|r| r.breakdown.1).sum::<f64>() / rows.len() as f64,
            rows.iter().map(|r| r.breakdown.2).sum::<f64>() / rows.len() as f64,
        ),
        energy_frac: crate::geomean(&rows.iter().map(|r| r.energy_frac).collect::<Vec<_>>()),
        energy_split: (0.0, 0.0, 0.0),
    };
    (rows, avg)
}

/// One Figure 8 row.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Kernel name.
    pub name: &'static str,
    /// GPU kernel-execution time (launch + compute), µs.
    pub gpu_kernel_us: f64,
    /// GPU host↔device transfer time, µs.
    pub gpu_transfer_us: f64,
    /// MVE end-to-end time, µs.
    pub mve_us: f64,
    /// GPU/MVE total-time ratio.
    pub time_ratio: f64,
    /// GPU/MVE energy ratio.
    pub energy_ratio: f64,
}

/// Figure 8: the 11 selected kernels against the Adreno-640-class GPU model.
pub fn fig8(scale: Scale) -> Vec<Fig8Row> {
    let gpu = GpuConfig::default();
    let params = EnergyParams::default();
    selected_kernels()
        .iter()
        .map(|k| {
            let (_, report) = timed(k.as_ref(), Isa::Mve, scale, platform::mve_config());
            let cost = k.gpu_cost(scale).expect("selected kernels have GPU costs");
            let g = gpu.execute(&cost);
            let mve_us = cycles_to_us(report.total_cycles);
            let me = mve_energy(&report, &params);
            Fig8Row {
                name: k.info().name,
                gpu_kernel_us: g.kernel_us,
                gpu_transfer_us: g.transfer_us,
                mve_us,
                time_ratio: g.total_us() / mve_us,
                energy_ratio: g.energy_uj / (me.total_pj() * 1e-6),
            }
        })
        .collect()
}

/// One point of the Figure 9 sweeps.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// MAC operation count ×2 (FLOPs), as the paper's x-axis.
    pub flops: u64,
    /// GPU end-to-end time, µs.
    pub gpu_us: f64,
    /// MVE time, µs.
    pub mve_us: f64,
}

/// Figure 9 (left): GEMM time vs FLOPs for MVE and GPU.
pub fn fig9_gemm() -> Vec<Fig9Row> {
    let gpu = GpuConfig::default();
    let sizes = [
        GemmSize {
            n: 16,
            k: 48,
            m: 64,
        },
        GemmSize {
            n: 32,
            k: 96,
            m: 128,
        },
        GemmSize {
            n: 64,
            k: 128,
            m: 192,
        },
        GemmSize {
            n: 64,
            k: 256,
            m: 384,
        },
        GemmSize {
            n: 128,
            k: 384,
            m: 512,
        },
    ];
    sizes
        .iter()
        .map(|&s| {
            let run = Gemm::run_mve_sized(s);
            assert!(run.checked.ok(), "gemm {s:?} mismatch");
            let report = simulate(&run.trace, &platform::mve_config());
            let g = gpu.execute(&Gemm::gpu_cost_sized(s));
            Fig9Row {
                flops: 2 * (s.n * s.k * s.m) as u64,
                gpu_us: g.total_us(),
                mve_us: cycles_to_us(report.total_cycles),
            }
        })
        .collect()
}

/// Figure 9 (right): SpMM time vs FLOPs.
pub fn fig9_spmm() -> Vec<Fig9Row> {
    let gpu = GpuConfig::default();
    let sizes = [
        SpmmSize {
            n: 8,
            k: 64,
            m: 32,
            density: 0.3,
        },
        SpmmSize {
            n: 16,
            k: 128,
            m: 64,
            density: 0.3,
        },
        SpmmSize {
            n: 32,
            k: 256,
            m: 64,
            density: 0.3,
        },
        SpmmSize {
            n: 64,
            k: 384,
            m: 128,
            density: 0.3,
        },
        SpmmSize {
            n: 96,
            k: 512,
            m: 128,
            density: 0.3,
        },
    ];
    sizes
        .iter()
        .map(|&s| {
            let run = Spmm::run_mve_sized(s);
            assert!(run.checked.ok(), "spmm mismatch");
            let report = simulate(&run.trace, &platform::mve_config());
            let nnz = (s.n * s.k) as f64 * s.density;
            let g = gpu.execute(&Spmm::gpu_cost_sized(s));
            Fig9Row {
                flops: (2.0 * nnz * s.m as f64) as u64,
                gpu_us: g.total_us(),
                mve_us: cycles_to_us(report.total_cycles),
            }
        })
        .collect()
}

/// Finds the FLOPs where MVE stops winning (linear interpolation between
/// the neighbouring sweep points); `None` if MVE wins everywhere.
pub fn crossover_flops(rows: &[Fig9Row]) -> Option<f64> {
    for w in rows.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let da = a.mve_us - a.gpu_us;
        let db = b.mve_us - b.gpu_us;
        if da < 0.0 && db >= 0.0 {
            let t = -da / (db - da);
            return Some(a.flops as f64 + t * (b.flops - a.flops) as f64);
        }
    }
    None
}

/// One Figure 10/11 row: MVE vs RVV on the same bit-serial engine.
#[derive(Debug)]
pub struct Fig10Row {
    /// Kernel name.
    pub name: &'static str,
    /// MVE timing report.
    pub mve: SimReport,
    /// RVV timing report.
    pub rvv: SimReport,
    /// MVE dynamic instruction mix.
    pub mve_mix: InstrMix,
    /// RVV dynamic instruction mix.
    pub rvv_mix: InstrMix,
}

/// The 9-kernel set of Figures 10/11 (FIR collapsed to FIR-V as in the
/// paper's plots).
fn fig10_kernel_names() -> [&'static str; 9] {
    [
        "csum", "lpack", "fir_v", "gemm", "spmm", "satd", "intra", "dct", "idct",
    ]
}

/// Figures 10 and 11: execution-time breakdown and instruction mix for MVE
/// vs an RVV-style 1-D ISA on the same engine.
pub fn fig10_11(scale: Scale) -> Vec<Fig10Row> {
    let names = fig10_kernel_names();
    selected_kernels()
        .iter()
        .filter(|k| names.contains(&k.info().name))
        .map(|k| {
            let (mve_mix, mve) = timed(k.as_ref(), Isa::Mve, scale, platform::mve_config());
            let (rvv_mix, rvv) = timed(k.as_ref(), Isa::Rvv, scale, platform::mve_config());
            Fig10Row {
                name: k.info().name,
                mve,
                rvv,
                mve_mix,
                rvv_mix,
            }
        })
        .collect()
}

/// One Figure 12(a) row.
#[derive(Debug)]
pub struct Fig12aRow {
    /// Kernel name.
    pub name: &'static str,
    /// MVE report.
    pub mve: SimReport,
    /// Duality-Cache SIMT cost breakdown.
    pub dc: DualityReport,
}

/// Figure 12(a): MVE vs the Duality Cache SIMT model on GEMM/SpMM/FIR.
pub fn fig12a(scale: Scale) -> Vec<Fig12aRow> {
    let names = ["gemm", "spmm", "fir_v", "fir_s", "fir_l"];
    selected_kernels()
        .iter()
        .filter(|k| names.contains(&k.info().name))
        .map(|k| {
            let (mix, mve) = timed(k.as_ref(), Isa::Mve, scale, platform::mve_config());
            let dc = duality_from_mix(&mix, &mve, &DualityConfig::default());
            Fig12aRow {
                name: k.info().name,
                mve,
                dc,
            }
        })
        .collect()
}

/// One Figure 12(b) cell.
#[derive(Debug)]
pub struct Fig12bRow {
    /// Kernel name.
    pub name: &'static str,
    /// SRAM array count.
    pub arrays: usize,
    /// Total cycles at that geometry.
    pub cycles: u64,
    /// Breakdown fractions (idle, compute, data).
    pub breakdown: (f64, f64, f64),
}

/// Figure 12(b): scalability over 8/16/32/64 SRAM arrays.
pub fn fig12b(scale: Scale) -> Vec<Fig12bRow> {
    let names = ["gemm", "spmm", "fir_v", "fir_s", "fir_l"];
    let mut rows = Vec::new();
    for &arrays in &[8usize, 16, 32, 64] {
        let _arrays = mve_kernels::common::EngineArraysGuard::new(arrays);
        for k in selected_kernels()
            .iter()
            .filter(|k| names.contains(&k.info().name))
        {
            let (_, report) = timed(k.as_ref(), Isa::Mve, scale, platform::arrays_config(arrays));
            rows.push(Fig12bRow {
                name: k.info().name,
                arrays,
                cycles: report.total_cycles,
                breakdown: report.breakdown(),
            });
        }
    }
    rows
}

/// One Figure 12(c) cell.
#[derive(Debug)]
pub struct Fig12cRow {
    /// Kernel name.
    pub name: &'static str,
    /// Precision.
    pub precision: Precision,
    /// MVE report at this precision.
    pub report: SimReport,
    /// Neon cycles at this precision (for the secondary axis).
    pub neon_cycles: u64,
}

/// Figure 12(c)'s kernels and their MAC counts.
const FIG12C_KERNELS: [(&str, u64); 5] = [
    ("gemm", 64 * 64 * 64),
    ("spmm", 32 * 256 * 64 / 3),
    ("fir_v", 64 * 1024 * 32),
    ("fir_s", 64 * 1024 * 16),
    ("fir_l", 64 * 1024 * 128),
];

/// Runs Figure 12(c)'s kernel `name` at `prec`.
fn fig12c_run(name: &str, prec: Precision, scale: Scale) -> KernelRun {
    match name {
        "gemm" => precision::run_gemm(prec, scale),
        "spmm" => precision::run_spmm(prec, scale),
        "fir_v" => precision::run_fir(prec, scale, 32),
        "fir_s" => precision::run_fir(prec, scale, 16),
        "fir_l" => precision::run_fir(prec, scale, 128),
        _ => unreachable!("{name} is not a Figure 12(c) kernel"),
    }
}

/// A precision-scaled Neon profile of `macs` multiply-accumulates: same
/// structure, lane count scaled by the element width.
fn fig12c_neon_profile(macs: u64, prec: Precision) -> NeonProfile {
    let dtype = prec.dtype();
    let v = macs / u64::from(128 / dtype.bits());
    let class = if dtype.is_float() {
        NeonOpClass::FpMac
    } else {
        NeonOpClass::IntMul
    };
    NeonProfile {
        ops: vec![(class, v)],
        chain_ops: vec![],
        loads: v,
        stores: v / 8,
        scalar_instrs: v,
        touched_bytes: macs / 4,
        base_addr: 0x3000_0000,
    }
}

/// Figure 12(c): precision sensitivity of GEMM/SpMM/FIR.
pub fn fig12c(scale: Scale) -> Vec<Fig12cRow> {
    let mut rows = Vec::new();
    for (name, macs) in FIG12C_KERNELS {
        for prec in Precision::ALL {
            let run = fig12c_run(name, prec, scale);
            assert!(run.checked.ok(), "{name} {} mismatch", prec.label());
            let report = simulate(&run.trace, &platform::mve_config());
            let neon = neon_steady_state(&fig12c_neon_profile(macs, prec));
            rows.push(Fig12cRow {
                name,
                precision: prec,
                report,
                neon_cycles: neon.cycles,
            });
        }
    }
    rows
}

/// One Figure 13 cell.
#[derive(Debug)]
pub struct Fig13Row {
    /// In-SRAM computing scheme.
    pub scheme: Scheme,
    /// Geometric-mean RVV/MVE speedup over the kernel set.
    pub speedup: f64,
    /// Average MVE CB utilization.
    pub mve_util: f64,
    /// Average RVV CB utilization.
    pub rvv_util: f64,
    /// Average breakdown fractions for MVE (idle, compute, data).
    pub mve_breakdown: (f64, f64, f64),
    /// Average breakdown fractions for RVV.
    pub rvv_breakdown: (f64, f64, f64),
}

/// Figure 13: MVE vs RVV across the four in-SRAM computing schemes.
pub fn fig13(scale: Scale) -> Vec<Fig13Row> {
    let names = fig10_kernel_names();
    let kernels: Vec<_> = selected_kernels()
        .into_iter()
        .filter(|k| names.contains(&k.info().name))
        .collect();
    let sweep = platform::scheme_sweep();
    let cfgs: Vec<_> = sweep.iter().map(|(_, cfg)| cfg.clone()).collect();

    #[derive(Default)]
    struct SchemeAcc {
        speedups: Vec<f64>,
        mu: f64,
        ru: f64,
        mb: (f64, f64, f64),
        rb: (f64, f64, f64),
    }
    let mut acc: Vec<SchemeAcc> = (0..cfgs.len()).map(|_| SchemeAcc::default()).collect();

    // In a full pass fig7 has already timed the MVE and RVV runs under
    // every scheme. Alone, or after a lone fig10, each ISA's missing
    // schemes are timed in one fanned-out walk of each trace (with a single
    // shared cache-warming pass).
    for k in &kernels {
        let mreps = evaluate_ok(k.as_ref(), Isa::Mve, scale, &cfgs).reports;
        let rreps = evaluate_ok(k.as_ref(), Isa::Rvv, scale, &cfgs).reports;
        for (a, (mrep, rrep)) in acc.iter_mut().zip(mreps.iter().zip(&rreps)) {
            a.speedups
                .push(rrep.total_cycles as f64 / mrep.total_cycles as f64);
            a.mu += mrep.utilization();
            a.ru += rrep.utilization();
            let (i, c, d) = mrep.breakdown();
            a.mb = (a.mb.0 + i, a.mb.1 + c, a.mb.2 + d);
            let (i, c, d) = rrep.breakdown();
            a.rb = (a.rb.0 + i, a.rb.1 + c, a.rb.2 + d);
        }
    }

    let n = kernels.len() as f64;
    sweep
        .iter()
        .map(|&(scheme, _)| scheme)
        .zip(acc)
        .map(|(scheme, a)| Fig13Row {
            scheme,
            speedup: crate::geomean(&a.speedups),
            mve_util: a.mu / n,
            rvv_util: a.ru / n,
            mve_breakdown: (a.mb.0 / n, a.mb.1 / n, a.mb.2 / n),
            rvv_breakdown: (a.rb.0 / n, a.rb.1 / n, a.rb.2 / n),
        })
        .collect()
}

/// The two dispatch models the PUMICE study compares: the baseline
/// controller, then per-CB out-of-order dispatch.
fn pumice_configs() -> [SimConfig; 2] {
    [
        platform::mve_config(),
        platform::mve_config().with_ooo_dispatch(),
    ]
}

/// The PUMICE extension study (Section VIII) over `kernels`: baseline vs
/// per-CB out-of-order dispatch. After [`fig7`] both reports of every
/// selected kernel are in the memo; otherwise each kernel runs once and
/// both models are timed in one fanned-out walk of its trace.
pub fn ext_pumice_report(scale: Scale, kernels: &[Box<dyn Kernel>]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Extension — PUMICE-style OoO dispatch vs baseline controller"
    );
    let _ = writeln!(
        s,
        "{:<8} {:>12} {:>12} {:>8}",
        "kernel", "base cyc", "pumice cyc", "gain"
    );
    let cfgs = pumice_configs();
    let mut gains = Vec::new();
    for k in kernels {
        let reports = evaluate_ok(k.as_ref(), Isa::Mve, scale, &cfgs).reports;
        let (base, pumice) = (&reports[0], &reports[1]);
        let gain = base.total_cycles as f64 / pumice.total_cycles as f64;
        gains.push(gain);
        let _ = writeln!(
            s,
            "{:<8} {:>12} {:>12} {:>7.3}x",
            k.info().name,
            base.total_cycles,
            pumice.total_cycles,
            gain
        );
    }
    let _ = writeln!(
        s,
        "geomean gain {:.3}x (helps dimension-masked kernels; ≥1.0 by construction)",
        crate::geomean(&gains)
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_to_us_sanity() {
        // 2800 cycles at 2.8 GHz = 1 µs.
        assert!((cycles_to_us(2800) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig9_crossover_interpolates() {
        let rows = vec![
            Fig9Row {
                flops: 1_000,
                gpu_us: 100.0,
                mve_us: 10.0,
            },
            Fig9Row {
                flops: 2_000,
                gpu_us: 100.0,
                mve_us: 200.0,
            },
        ];
        let x = crossover_flops(&rows).expect("crossover");
        assert!(x > 1_000.0 && x < 2_000.0);
        let none = crossover_flops(&rows[..1]);
        assert!(none.is_none());
    }

    #[test]
    fn fig8_test_scale_shapes() {
        let rows = fig8(Scale::Test);
        assert_eq!(rows.len(), 11);
        for r in &rows {
            assert!(r.mve_us > 0.0);
            assert!(r.gpu_kernel_us > 0.0);
        }
    }

    #[test]
    fn fig10_rvv_slower_on_multi_dim() {
        let rows = fig10_11(Scale::Test);
        assert_eq!(rows.len(), 9);
        let gemm = rows.iter().find(|r| r.name == "gemm").expect("gemm");
        assert!(
            gemm.rvv.total_cycles > gemm.mve.total_cycles,
            "RVV gemm {} must exceed MVE {}",
            gemm.rvv.total_cycles,
            gemm.mve.total_cycles
        );
        assert!(gemm.rvv_mix.vector_total() > gemm.mve_mix.vector_total());
    }

    /// Every Neon profile fig7 (at both scales) and fig12c time: the
    /// memoized steady state equals the direct two-pass execute on a fresh
    /// hierarchy it replaces.
    #[test]
    fn neon_steady_state_matches_a_direct_two_pass_execute() {
        let mut profiles: Vec<NeonProfile> = [Scale::Test, Scale::Paper]
            .into_iter()
            .flat_map(|scale| {
                all_kernels()
                    .into_iter()
                    .map(move |k| k.neon_profile(scale))
            })
            .collect();
        for (_, macs) in FIG12C_KERNELS {
            profiles.extend(Precision::ALL.map(|prec| fig12c_neon_profile(macs, prec)));
        }
        let model = NeonModel::default();
        for profile in &profiles {
            let mut hier = Hierarchy::default();
            let _ = model.execute(profile, &mut hier, 0);
            let direct = model.execute(profile, &mut hier, NEON_MEASURED_START);
            assert_eq!(neon_steady_state(profile), direct, "{profile:?}");
        }
    }

    #[test]
    fn neon_stream_keys_are_the_base_modulo_the_address_period() {
        let cfg = HierarchyConfig::default();
        let period_bytes = cfg.address_period_lines() * LINE_BYTES;
        assert_eq!(period_bytes, 256 << 10, "Table IV's period is 256 KB");
        let base = 0x3000_0000 + 5 * LINE_BYTES;
        let key = neon_stream_key(&cfg, base, 1000);
        assert_eq!(neon_stream_key(&cfg, base + 7 * period_bytes, 1000), key);
        // Negative control: any other offset is a stream of its own.
        for offset in [1, LINE_BYTES, period_bytes / 2, period_bytes - LINE_BYTES] {
            assert_ne!(neon_stream_key(&cfg, base + offset, 1000), key, "+{offset}");
        }
        assert_ne!(neon_stream_key(&cfg, base, 1001), key);
    }

    #[test]
    fn fig13_bit_serial_mve_beats_rvv() {
        let rows = fig13(Scale::Test);
        assert_eq!(rows.len(), 4);
        let bs = &rows[0];
        assert_eq!(bs.scheme, Scheme::BitSerial);
        assert!(bs.speedup > 1.0, "BS speedup {}", bs.speedup);
        assert!(
            bs.mve_util > bs.rvv_util,
            "util {} vs {}",
            bs.mve_util,
            bs.rvv_util
        );
    }
}
