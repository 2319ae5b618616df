//! The Figure 14 false-alarm study as an integration test: every benign
//! benchmark pair must come out clean on all three audits.

mod common;

use cc_hunter::audit::{AuditSession, QuantumRunner, TrackerKind};
use cc_hunter::detector::{CcHunter, CcHunterConfig, DeltaTPolicy};
use cc_hunter::sim::{Machine, MachineConfig, Program};
use cc_hunter::workloads::figure14_pairs;
use cc_hunter::workloads::noise::spawn_standard_noise;
use common::QUANTUM;

fn machine() -> Machine {
    Machine::new(
        MachineConfig::builder()
            .quantum_cycles(QUANTUM)
            .build()
            .expect("valid config"),
    )
}

fn pair(label: &str) -> (Box<dyn Program>, Box<dyn Program>) {
    let (_, a, b) = figure14_pairs()
        .into_iter()
        .find(|(l, _, _)| *l == label)
        .expect("known pair");
    (a, b)
}

fn labels() -> Vec<&'static str> {
    figure14_pairs().into_iter().map(|(l, _, _)| l).collect()
}

#[test]
fn contention_audits_stay_clean_for_all_pairs() {
    for label in labels() {
        let (a, b) = pair(label);
        let mut m = machine();
        m.spawn(a, m.config().context_id(0, 0));
        m.spawn(b, m.config().context_id(0, 1));
        spawn_standard_noise(&mut m, 0, 3, 21);
        let mut session = AuditSession::new();
        session.audit_bus(100_000).unwrap();
        session.audit_divider(0, 500).unwrap();
        session.attach(&mut m);
        let data = QuantumRunner::new(QUANTUM)
            .expect("nonzero quantum")
            .run(&mut m, &mut session, 10)
            .expect("audit harvest");

        let hunter = CcHunter::new(CcHunterConfig {
            quantum_cycles: QUANTUM,
            delta_t: DeltaTPolicy::Fixed(100_000),
            ..CcHunterConfig::default()
        });
        let bus = hunter.analyze_contention(data.bus_histograms);
        assert!(
            !bus.verdict.is_covert(),
            "{label}: bus false alarm ({bus:?})"
        );
        let hunter_div = CcHunter::new(CcHunterConfig {
            quantum_cycles: QUANTUM,
            delta_t: DeltaTPolicy::Fixed(500),
            ..CcHunterConfig::default()
        });
        let div = hunter_div.analyze_contention(data.divider_histograms);
        assert!(
            !div.verdict.is_covert(),
            "{label}: divider false alarm (peak LR {})",
            div.peak_likelihood_ratio
        );
    }
}

#[test]
fn cache_audits_stay_clean_for_all_pairs() {
    for label in labels() {
        let (a, b) = pair(label);
        let mut m = machine();
        m.spawn(a, m.config().context_id(0, 0));
        m.spawn(b, m.config().context_id(0, 1));
        spawn_standard_noise(&mut m, 0, 3, 23);
        let mut session = AuditSession::new();
        let blocks = m.config().l2.total_blocks() as usize;
        session
            .audit_cache(0, blocks, TrackerKind::Practical)
            .unwrap();
        session.attach(&mut m);
        let data = QuantumRunner::new(QUANTUM)
            .expect("nonzero quantum")
            .run(&mut m, &mut session, 10)
            .expect("audit harvest");
        let hunter = CcHunter::new(CcHunterConfig {
            quantum_cycles: QUANTUM,
            ..CcHunterConfig::default()
        });
        let report = hunter
            .analyze_oscillation(&data.conflicts, data.start, data.end)
            .unwrap();
        assert!(
            !report.verdict.is_covert(),
            "{label}: cache false alarm ({report:?})"
        );
    }
}

#[test]
fn mailserver_second_distribution_is_rejected_by_likelihood_ratio() {
    // The paper's sharpest case: mailserver pairs show genuine burst mass
    // around densities 5–8, but the likelihood ratio stays below 0.5 in
    // the (large) majority of quanta and recurrence never confirms.
    let (a, b) = pair("mailserver_mailserver");
    let mut m = machine();
    m.spawn(a, m.config().context_id(0, 0));
    m.spawn(b, m.config().context_id(0, 1));
    spawn_standard_noise(&mut m, 0, 3, 25);
    let mut session = AuditSession::new();
    session.audit_bus(100_000).unwrap();
    session.attach(&mut m);
    let data = QuantumRunner::new(QUANTUM)
        .expect("nonzero quantum")
        .run(&mut m, &mut session, 12)
        .expect("audit harvest");
    let hunter = CcHunter::new(CcHunterConfig {
        quantum_cycles: QUANTUM,
        delta_t: DeltaTPolicy::Fixed(100_000),
        ..CcHunterConfig::default()
    });
    let report = hunter.analyze_contention(data.bus_histograms);
    // Activity exists…
    let contended: u64 = report
        .quantum_verdicts
        .iter()
        .map(|v| v.contended_windows)
        .sum();
    assert!(contended > 10, "mailserver must generate bus locks");
    // …but the channel verdict is clean.
    assert!(!report.verdict.is_covert(), "{report:?}");
    let low_lr = report
        .quantum_verdicts
        .iter()
        .filter(|v| v.contended_windows > 0 && v.likelihood_ratio < 0.5)
        .count();
    assert!(
        low_lr * 2 >= report.quantum_verdicts.len(),
        "most quanta should sit below the 0.5 threshold"
    );
}
