//! End-to-end: the integer-divider covert channel between SMT hyperthreads
//! works and is detected from cross-context divider-wait cycles.

mod common;

use cc_hunter::channels::{DecodeRule, Message};
use cc_hunter::detector::{CcHunter, CcHunterConfig, DeltaTPolicy};
use common::{run_divider_channel, QUANTUM};

fn hunter() -> CcHunter {
    CcHunter::new(CcHunterConfig {
        quantum_cycles: QUANTUM,
        // The paper's divider Δt: 500 cycles (200 ns).
        delta_t: DeltaTPolicy::Fixed(500),
        ..CcHunterConfig::default()
    })
}

#[test]
fn spy_decodes_and_hunter_detects() {
    let message = Message::from_u64(0x4929_1273_5521_8674);
    let run = run_divider_channel(message.clone(), 250_000, 8);
    let decoded = run.log.borrow().decode(DecodeRule::Midpoint, message.len());
    assert_eq!(
        message.bit_error_rate(&decoded),
        0.0,
        "channel must work: sent {message} got {decoded}"
    );
    let report = hunter().analyze_contention(run.data.divider_histograms);
    assert!(report.verdict.is_covert());
    assert!(
        report.peak_likelihood_ratio > 0.9,
        "LR = {}",
        report.peak_likelihood_ratio
    );
}

#[test]
fn burst_distribution_sits_in_the_upper_bins() {
    // Figure 6b: wait-cycle densities form a prominent second distribution
    // far right of the benign region (paper: bins ≈ 84–105 at Δt = 500).
    let run = run_divider_channel(Message::from_bits(vec![true; 8]), 250_000, 2);
    let report = hunter().analyze_contention(run.data.divider_histograms);
    let v = report
        .quantum_verdicts
        .iter()
        .find(|v| v.significant)
        .expect("at least one bursty quantum");
    let peak = v.burst_peak.expect("burst peak");
    assert!(
        peak >= 40,
        "divider contention density must be far from benign bins, got {peak}"
    );
}

#[test]
fn all_zero_message_stays_clean() {
    let run = run_divider_channel(Message::from_bits(vec![false; 8]), 250_000, 8);
    let report = hunter().analyze_contention(run.data.divider_histograms);
    assert!(!report.verdict.is_covert(), "{report:?}");
}

#[test]
fn rate_derived_delta_t_also_detects() {
    // Δt from α/rate instead of the paper's fixed pick: the detector must
    // not depend on hand-tuned Δt.
    let message = Message::alternating(8);
    let run = run_divider_channel(message, 250_000, 8);
    let hunter = CcHunter::new(CcHunterConfig {
        quantum_cycles: QUANTUM,
        delta_t: DeltaTPolicy::FromRate {
            alpha: 40.0,
            min: 100,
            max: 100_000,
        },
        ..CcHunterConfig::default()
    });
    let mut all = cc_hunter::detector::EventTrain::new();
    // Rebuild the raw train from histograms is impossible; instead rerun
    // the contention path over the harvested histograms directly — the
    // rate policy applies when building from trains, so exercise it on a
    // synthetic train with the same density here.
    for q in 0..8u64 {
        for b in 0..40u64 {
            for e in 0..50u64 {
                all.push(q * QUANTUM + b * 50_000 + e * 30, 1);
            }
        }
    }
    let report = hunter
        .analyze_contention_train(&all, 0, 8 * QUANTUM)
        .expect("valid Δt policy");
    assert!(report.verdict.is_covert());
    let _ = run;
}
