//! Criterion benches timing each figure's experiment at test scale: one
//! bench per paper artefact, so `cargo bench` regenerates the full set.

use criterion::{criterion_group, criterion_main, Criterion};
use mve_bench::{ablations, figures, tables};
use mve_kernels::Scale;
use std::time::Duration;

/// One cold test-scale run of `figure` per iteration: without clearing the
/// results memo, every iteration after the first would only look it up.
fn cold<T>(figure: impl Fn(Scale) -> T) -> impl FnMut() -> T {
    move || {
        figures::clear_memo();
        figure(Scale::Test)
    }
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(8));
    g.bench_function("fig7_mve_vs_neon", |b| b.iter(cold(figures::fig7)));
    g.bench_function("fig8_mve_vs_gpu", |b| b.iter(cold(figures::fig8)));
    g.bench_function("fig9_gemm_sweep", |b| b.iter(figures::fig9_gemm));
    g.bench_function("fig9_spmm_sweep", |b| b.iter(figures::fig9_spmm));
    g.bench_function("fig10_11_mve_vs_rvv", |b| b.iter(cold(figures::fig10_11)));
    g.bench_function("fig12a_duality_cache", |b| b.iter(cold(figures::fig12a)));
    g.bench_function("fig12b_scalability", |b| b.iter(cold(figures::fig12b)));
    g.bench_function("fig12c_precision", |b| b.iter(cold(figures::fig12c)));
    g.bench_function("fig13_schemes", |b| b.iter(cold(figures::fig13)));
    g.finish();
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.bench_function("table1_features", |b| b.iter(tables::table1));
    g.bench_function("table2_latencies", |b| b.iter(tables::table2));
    g.bench_function("table3_libraries", |b| b.iter(tables::table3));
    g.bench_function("table5_area", |b| b.iter(tables::table5));
    g.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));
    g.bench_function("mask", |b| b.iter(ablations::mask_ablation));
    g.bench_function("stride", |b| b.iter(ablations::stride_ablation));
    g.bench_function("cb_granularity", |b| b.iter(ablations::cb_ablation));
    g.bench_function("flush", |b| b.iter(ablations::flush_ablation));
    g.finish();
}

criterion_group!(benches, bench_figures, bench_tables, bench_ablations);
criterion_main!(benches);
