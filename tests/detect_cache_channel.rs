//! End-to-end: the shared-L2 cache covert channel works and is exposed by
//! oscillation analysis of the conflict-miss train, with both the
//! practical and the ideal conflict-miss tracker.

mod common;

use cc_hunter::audit::TrackerKind;
use cc_hunter::channels::{DecodeRule, Message};
use cc_hunter::detector::pipeline::symbol_series;
use cc_hunter::detector::{Autocorrelogram, CcHunter, CcHunterConfig};
use common::{run_cache_channel, QUANTUM};

fn hunter() -> CcHunter {
    CcHunter::new(CcHunterConfig {
        // The oscillation analysis window must span several bit intervals
        // (each bit contributes one period of the conflict train); the
        // daemon is free to aggregate several OS quanta per analysis.
        quantum_cycles: 8 * QUANTUM,
        ..CcHunterConfig::default()
    })
}

#[test]
fn spy_decodes_and_hunter_detects() {
    let message = Message::from_u64(0x4929_1273_5521_8674);
    let run = run_cache_channel(message.clone(), 2_500_000, 256, TrackerKind::Practical, 66);
    let decoded = run
        .log
        .borrow()
        .decode(DecodeRule::FixedThreshold(1.0), message.len());
    assert_eq!(
        message.bit_error_rate(&decoded),
        0.0,
        "channel must work: sent {message} got {decoded}"
    );
    let report = hunter()
        .analyze_oscillation(&run.data.conflicts, run.data.start, run.data.end)
        .unwrap();
    assert!(report.verdict.is_covert(), "{report:?}");
    let (_, value) = report.peak.expect("peak");
    assert!(value > 0.8, "strong periodicity expected, got {value}");
}

#[test]
fn autocorrelogram_peak_tracks_set_count() {
    // Figure 8/13: the dominant autocorrelation lag sits at (or slightly
    // above, due to noise) the total number of sets used by the channel.
    for &sets in &[128u32, 256] {
        let message = Message::alternating(16);
        let run = run_cache_channel(message, 2_500_000, sets, TrackerKind::Practical, 17);
        let series = symbol_series(&run.data.conflicts, run.data.start, run.data.end);
        let correlogram = Autocorrelogram::of_symbols(&series, 1000);
        let (lag, value) = correlogram.dominant_peak(8, 0.0).expect("periodic");
        assert!(
            lag >= sets as usize && lag <= sets as usize + sets as usize / 3,
            "{sets} sets: lag {lag} should sit at/above the set count"
        );
        assert!(value > 0.6, "{sets} sets: peak {value}");
    }
}

#[test]
fn ideal_and_practical_trackers_agree_on_the_verdict() {
    let message = Message::alternating(12);
    let practical = run_cache_channel(message.clone(), 2_500_000, 256, TrackerKind::Practical, 13);
    let ideal = run_cache_channel(message, 2_500_000, 256, TrackerKind::Ideal, 13);
    let h = hunter();
    let rp = h
        .analyze_oscillation(
            &practical.data.conflicts,
            practical.data.start,
            practical.data.end,
        )
        .unwrap();
    let ri = h
        .analyze_oscillation(&ideal.data.conflicts, ideal.data.start, ideal.data.end)
        .unwrap();
    assert!(rp.verdict.is_covert());
    assert!(ri.verdict.is_covert());
    // The practical tracker may over-report slightly (Bloom false
    // positives) but never misses the pattern: event counts are close.
    let np = practical.data.conflicts.len() as f64;
    let ni = ideal.data.conflicts.len() as f64;
    assert!(
        (np - ni).abs() / ni.max(1.0) < 0.25,
        "practical {np} vs ideal {ni} conflict records"
    );
}

#[test]
fn conflict_records_alternate_trojan_and_spy() {
    let run = run_cache_channel(
        Message::from_bits(vec![true; 6]),
        2_500_000,
        128,
        TrackerKind::Practical,
        7,
    );
    // Cross-context records only, in time order: symbols must alternate in
    // blocks (T→S runs followed by S→T runs), not randomly.
    let series = symbol_series(&run.data.conflicts, run.data.start, run.data.end);
    let symbols = series.symbols();
    assert!(symbols.len() > 200);
    let transitions = symbols.windows(2).filter(|w| w[0] != w[1]).count();
    // Perfect block structure of runs of 64 would give ~len/64 transitions;
    // allow generous noise but reject anything close to random (~len/2).
    assert!(
        transitions < symbols.len() / 8,
        "{transitions} transitions in {} symbols is too noisy",
        symbols.len()
    );
}

#[test]
fn quiet_cache_has_no_oscillation() {
    // Message of identical bits = trojan touches only one group; with an
    // all-zero message and no '1' sweeps the residual activity must not
    // register after the warm-up quanta are discarded.
    let run = run_cache_channel(
        Message::from_bits(vec![false; 6]),
        2_500_000,
        128,
        TrackerKind::Practical,
        7,
    );
    let report = hunter()
        .analyze_oscillation(&run.data.conflicts, run.data.start, run.data.end)
        .unwrap();
    // A constant-group channel still oscillates T→S/S→T on G0 — that IS a
    // covert channel pattern and may legitimately be flagged. What must
    // hold: the dominant lag reflects the G0 set count (64 × 2), not noise.
    if let Some((lag, _)) = report.peak {
        assert!(lag >= 100, "lag {lag} must reflect the sweep structure");
    }
}
