//! Figure 5: the worked illustration of an event train and its event
//! density histogram (the paper's 8-window example with densities
//! 3 3 0 0 0 3 1 3).

use crate::output::Table;
use cc_hunter::detector::{DensityHistogram, EventTrain};

/// Runs the illustration.
pub fn run() {
    super::banner(
        "Figure 5",
        "event train → event density histogram (worked example)",
    );
    // The paper's example train: per-Δt densities 3 3 0 0 0 3 1 3.
    let densities = [3u64, 3, 0, 0, 0, 3, 1, 3];
    let delta_t = 100u64;
    let mut train = EventTrain::new();
    for (window, &d) in densities.iter().enumerate() {
        for e in 0..d {
            train.push(window as u64 * delta_t + e * 10 + 5, 1);
        }
    }
    let histogram =
        DensityHistogram::from_train(&train, delta_t, 0, densities.len() as u64 * delta_t)
            .expect("nonzero Δt");

    println!("event train (Δt windows): {densities:?}");
    println!();
    let mut table = Table::new(&["event density in Δt", "frequency of Δt"]);
    for (bin, &freq) in histogram.bins().iter().enumerate().take(8) {
        table.row(vec![bin.to_string(), freq.to_string()]);
    }
    table.print();

    assert_eq!(histogram.frequency(0), 3);
    assert_eq!(histogram.frequency(1), 1);
    assert_eq!(histogram.frequency(3), 4);
    assert_eq!(histogram.total_windows(), 8);
    println!();
    println!("matches the paper's illustration: bin0=3, bin1=1, bin3=4");
}
