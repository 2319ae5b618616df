//! Figure 6: event-density histograms for the memory-bus and
//! integer-divider covert channels, with the threshold-density split and
//! burst statistics.

use crate::harness::{paper, run_bus, run_divider, RunOptions};
use crate::output::{sparse_bins, write_csv, Table};
use cc_hunter::channels::Message;
use cc_hunter::detector::{BurstDetector, DensityHistogram};

/// Channel bandwidth (as figures 2/3).
pub const BANDWIDTH_BPS: f64 = 1_000.0;

/// Merges per-quantum histograms into one (the figure aggregates a full
/// transmission).
pub fn merge(histograms: &[DensityHistogram]) -> DensityHistogram {
    let mut merged =
        DensityHistogram::empty(histograms[0].delta_t()).expect("a histogram's Δt is nonzero");
    for h in histograms {
        merged
            .merge(h)
            .expect("every per-quantum histogram shares one Δt");
    }
    merged
}

/// Runs the experiment.
pub fn run() {
    super::banner(
        "Figure 6",
        "event density histograms: memory bus (Δt=100k) & divider (Δt=500)",
    );
    let message = Message::from_u64(paper::CREDIT_CARD);
    let detector = BurstDetector::default();

    let bus = run_bus(message.clone(), BANDWIDTH_BPS, &RunOptions::default());
    let bus_hist = merge(&bus.data.bus_histograms);
    let div = run_divider(message, BANDWIDTH_BPS, &RunOptions::default());
    let div_hist = merge(&div.data.divider_histograms);

    let mut table = Table::new(&[
        "channel",
        "Δt",
        "threshold",
        "burst range",
        "burst peak",
        "likelihood ratio",
    ]);
    for (name, hist, csv) in [
        ("memory bus", &bus_hist, "fig06_bus_histogram"),
        ("integer divider", &div_hist, "fig06_divider_histogram"),
    ] {
        let v = detector.analyze(hist);
        write_csv(
            csv,
            &["density_bin", "frequency"],
            hist.bins()
                .iter()
                .enumerate()
                .map(|(bin, &f)| vec![bin.to_string(), f.to_string()]),
        );
        table.row(vec![
            name.to_string(),
            hist.delta_t().to_string(),
            v.threshold_density
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            v.burst_range
                .map(|(a, b)| format!("bins {a}–{b}"))
                .unwrap_or_else(|| "-".into()),
            v.burst_peak
                .map(|p| format!("bin {p}"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.3}", v.likelihood_ratio),
        ]);
        println!("{name} nonzero bins: {}", sparse_bins(hist));
        assert!(v.significant, "{name} channel must show significant bursts");
    }
    println!();
    table.print();
    println!();
    println!("paper shape: bus burst near bin 20, divider burst high in the");
    println!("bin range (paper: 84–105), both with LR > 0.9 and huge bin 0");
}
