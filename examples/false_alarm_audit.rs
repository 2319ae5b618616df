//! False-alarm audit: run every benign benchmark pair of the paper's
//! Figure 14 under a bus + divider audit (and a separate cache audit) and
//! show that CC-Hunter stays quiet on all of them.
//!
//! ```sh
//! cargo run --example false_alarm_audit
//! ```

use cc_hunter::audit::{AuditSession, QuantumRunner, TrackerKind};
use cc_hunter::detector::{CcHunter, CcHunterConfig, DeltaTPolicy};
use cc_hunter::sim::{Machine, MachineConfig};
use cc_hunter::workloads::figure14_pairs;
use cc_hunter::workloads::noise::spawn_standard_noise;

fn main() {
    let quantum = 2_500_000u64;
    let quanta = 8;
    let mut all_clean = true;

    for (label, a, b) in figure14_pairs() {
        // Contention audit: bus + divider of the pair's core.
        let config = MachineConfig::builder()
            .quantum_cycles(quantum)
            .build()
            .expect("valid config");
        let mut machine = Machine::new(config);
        machine.spawn(a, machine.config().context_id(0, 0));
        machine.spawn(b, machine.config().context_id(0, 1));
        spawn_standard_noise(&mut machine, 0, 3, 99);

        let mut session = AuditSession::new();
        session.audit_bus(100_000).expect("bus audit");
        session.audit_divider(0, 500).expect("divider audit");
        session.attach(&mut machine);
        let data = QuantumRunner::new(quantum)
            .expect("nonzero quantum")
            .run(&mut machine, &mut session, quanta)
            .expect("audit harvest");

        let hunter = CcHunter::new(CcHunterConfig {
            quantum_cycles: quantum,
            delta_t: DeltaTPolicy::Fixed(100_000),
            ..CcHunterConfig::default()
        });
        let bus = hunter.analyze_contention(data.bus_histograms);
        let div = hunter.analyze_contention(data.divider_histograms);

        // Cache audit needs the second run (the auditor monitors at most
        // two units at a time, §V-A).
        let (a2, b2) = rebuild_pair(label);
        let config = MachineConfig::builder()
            .quantum_cycles(quantum)
            .build()
            .expect("valid config");
        let mut machine = Machine::new(config);
        machine.spawn(a2, machine.config().context_id(0, 0));
        machine.spawn(b2, machine.config().context_id(0, 1));
        spawn_standard_noise(&mut machine, 0, 3, 99);
        let mut session = AuditSession::new();
        let blocks = machine.config().l2.total_blocks() as usize;
        session
            .audit_cache(0, blocks, TrackerKind::Practical)
            .expect("cache audit");
        session.attach(&mut machine);
        let data = QuantumRunner::new(quantum)
            .expect("nonzero quantum")
            .run(&mut machine, &mut session, quanta)
            .expect("audit harvest");
        let cache = hunter
            .analyze_oscillation(&data.conflicts, data.start, data.end)
            .expect("simulated contexts are 3-bit");

        let clean =
            !bus.verdict.is_covert() && !div.verdict.is_covert() && !cache.verdict.is_covert();
        all_clean &= clean;
        println!(
            "{label:24} bus LR {:.3} | divider LR {:.3} | cache peak {} | {}",
            bus.peak_likelihood_ratio,
            div.peak_likelihood_ratio,
            cache
                .peak
                .map(|(lag, v)| format!("r={v:.2}@{lag}"))
                .unwrap_or_else(|| "-".into()),
            if clean { "clean" } else { "FALSE ALARM" }
        );
    }
    assert!(all_clean, "no benign pair may trip the detector");
    println!("\nzero false alarms across all pairs — matching the paper");
}

/// Fresh instances of a pair (program boxes are consumed by spawning).
fn rebuild_pair(
    label: &str,
) -> (
    Box<dyn cc_hunter::sim::Program>,
    Box<dyn cc_hunter::sim::Program>,
) {
    let (_, a, b) = figure14_pairs()
        .into_iter()
        .find(|(l, _, _)| *l == label)
        .expect("known pair");
    (a, b)
}
