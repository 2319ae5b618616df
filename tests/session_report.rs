//! End-to-end session reporting: one audit session over a machine carrying
//! a bus channel plus benign divider load yields one detection per resource,
//! and only the guilty resource's detection convicts.

mod common;

use cc_hunter::channels::Message;
use cc_hunter::detector::{CcHunter, CcHunterConfig, DeltaTPolicy, Detection, Verdict};
use common::{run_bus_channel, run_divider_channel, QUANTUM};

#[test]
fn report_convicts_only_the_guilty_resource() {
    // Bus channel active; divider channel silent (all-zero message keeps
    // the trojan idle, so only benign-style spy sampling touches the bank).
    let bus = run_bus_channel(Message::alternating(64), 250_000, 8);
    let div = run_divider_channel(Message::from_bits(vec![false; 8]), 250_000, 8);

    let bus_report = CcHunter::new(CcHunterConfig {
        quantum_cycles: QUANTUM,
        delta_t: DeltaTPolicy::Fixed(100_000),
        ..CcHunterConfig::default()
    })
    .analyze_contention(bus.data.bus_histograms);
    let div_report = CcHunter::new(CcHunterConfig {
        quantum_cycles: QUANTUM,
        delta_t: DeltaTPolicy::Fixed(500),
        ..CcHunterConfig::default()
    })
    .analyze_contention(div.data.divider_histograms);

    let bus = Detection::from_contention("memory-bus", &bus_report);
    let div = Detection::from_contention("integer-divider(core0)", &div_report);

    assert_eq!(bus.verdict, Verdict::CovertTimingChannel);
    assert!(
        !div.verdict.is_covert(),
        "the silent divider must not convict"
    );

    let (bus, div) = (bus.to_string(), div.to_string());
    assert!(bus.contains("memory-bus"));
    assert!(bus.contains("COVERT TIMING CHANNEL"));
    assert!(div.contains("integer-divider(core0)"));
    assert!(!div.contains("COVERT TIMING CHANNEL"));
}
