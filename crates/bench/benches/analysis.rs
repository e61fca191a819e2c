//! Criterion benches for the analysis kernels: BFS metrics, Lanczos spectral gap, the full
//! spectral summary on a bipartite LPS graph, and the multilevel bisection partitioner —
//! including the multilevel-vs-flat ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, Criterion};
use spectralfly_graph::metrics::diameter_and_mean_distance;
use spectralfly_graph::partition::{bisect, BisectConfig};
use spectralfly_graph::spectral::{lambda2, spectral_summary};
use spectralfly_topology::{LpsGraph, SlimFlyGraph, Topology};

fn bench_metrics(c: &mut Criterion) {
    let lps = LpsGraph::new(23, 11).unwrap();
    let sf = SlimFlyGraph::new(17).unwrap();
    let mut group = c.benchmark_group("analysis/metrics");
    group.sample_size(10);
    group.bench_function("diameter_lps_23_11", |b| {
        b.iter(|| diameter_and_mean_distance(lps.graph()).unwrap())
    });
    group.bench_function("diameter_sf_17", |b| {
        b.iter(|| diameter_and_mean_distance(sf.graph()).unwrap())
    });
    group.finish();
}

fn bench_spectral(c: &mut Criterion) {
    let lps = LpsGraph::new(23, 11).unwrap();
    let mut group = c.benchmark_group("analysis/spectral");
    group.sample_size(10);
    for iters in [40usize, 80, 120] {
        group.bench_function(format!("lambda2_lps_23_11_iters{iters}"), |b| {
            b.iter(|| lambda2(lps.graph(), iters, 7))
        });
    }
    // The path `perfbench` measures: one Lanczos run that deflates both trivial
    // eigenvectors of a bipartite (PGL₂) LPS graph.
    let bipartite = LpsGraph::new(5, 13).unwrap();
    group.bench_function("spectral_summary_lps_5_13_iters100", |b| {
        b.iter(|| spectral_summary(bipartite.graph(), 100, 7))
    });
    group.finish();
}

fn bench_bisection_ablation(c: &mut Criterion) {
    let lps = LpsGraph::new(23, 11).unwrap();
    let mut group = c.benchmark_group("analysis/bisection");
    group.sample_size(10);
    group.bench_function("multilevel", |b| {
        let cfg = BisectConfig::default();
        b.iter(|| bisect(lps.graph(), &cfg, 3))
    });
    group.bench_function("flat_fm_only", |b| {
        let cfg = BisectConfig {
            multilevel: false,
            ..Default::default()
        };
        b.iter(|| bisect(lps.graph(), &cfg, 3))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_metrics,
    bench_spectral,
    bench_bisection_ablation
);
criterion_main!(benches);
