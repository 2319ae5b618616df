//! End-to-end analysis-cost benchmarks matching the paper's §V-B software
//! overhead claims:
//!
//! * autocorrelation analysis runs at the end of every OS time quantum and
//!   takes ≤ 1 ms per computation;
//! * pattern clustering runs every 51.2 s (512 quanta) and takes ≤ 0.25 s
//!   (0.02 s with feature dimension reduction).

use cchunter_bench::{covert_histogram, quantum_conflicts};
use cchunter_detector::cluster::{discretize, recurrence_from_levels, ClusterConfig, LevelString};
use cchunter_detector::pipeline::{symbol_series, CcHunter, CcHunterConfig};
use cchunter_detector::{BurstDetector, DensityHistogram};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// The per-quantum oscillation analysis (paper: 0.001 s worst case).
fn bench_autocorr_quantum(c: &mut Criterion) {
    // A busy quantum: 100 bits × 512 conflicts at 1000 bps.
    let records = quantum_conflicts(100, 256);
    let hunter = CcHunter::new(CcHunterConfig::default());
    let end = records.last().map(|r| r.cycle + 1).unwrap_or(1);
    c.bench_function("per_quantum_oscillation_analysis", |b| {
        b.iter(|| hunter.analyze_oscillation(black_box(&records), 0, end))
    });
    let series = symbol_series(&records, 0, end);
    c.bench_function("per_quantum_symbol_series_build", |b| {
        b.iter(|| symbol_series(black_box(&records), 0, end).len() + series.len())
    });
}

/// The per-window recurrence analysis (paper: 0.25 s worst case per 512
/// quanta).
fn bench_cluster_window(c: &mut Criterion) {
    let detector = BurstDetector::default();
    let histograms: Vec<DensityHistogram> = (0..512)
        .map(|i| covert_histogram(18 + (i % 5), 2_500))
        .collect();
    let bursty: Vec<LevelString> = histograms
        .iter()
        .filter(|h| detector.analyze(h).significant)
        .map(discretize)
        .collect();
    let config = ClusterConfig::default();
    c.bench_function("recurrence_over_512_quanta", |b| {
        b.iter(|| recurrence_from_levels(histograms.len(), black_box(&bursty), &config))
    });
}

/// The per-quantum burst verdict (runs on each harvested histogram).
fn bench_burst_quantum(c: &mut Criterion) {
    let detector = BurstDetector::default();
    let histograms: Vec<DensityHistogram> =
        (0..16).map(|i| covert_histogram(16 + i, 500_000)).collect();
    c.bench_function("per_quantum_burst_verdicts_x16", |b| {
        b.iter(|| {
            histograms
                .iter()
                .map(|h| detector.analyze(black_box(h)).likelihood_ratio)
                .sum::<f64>()
        })
    });
}

criterion_group!(
    benches,
    bench_autocorr_quantum,
    bench_cluster_window,
    bench_burst_quantum
);
criterion_main!(benches);
