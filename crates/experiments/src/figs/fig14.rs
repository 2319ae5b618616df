//! Figure 14: the false-alarm study — benign SPEC2006/STREAM/Filebench
//! pairs under all three audits. The paper observes zero false alarms:
//! benign bursts are random or (mailserver) carry likelihood ratios below
//! 0.5, and no benign autocorrelogram shows sustained periodicity.

use crate::figs::fig06::merge;
use crate::harness::{fast_mode, paper};
use crate::output::{sparse_bins, write_csv, Table};
use cc_hunter::audit::{AuditSession, QuantumRunner, TrackerKind};
use cc_hunter::detector::{BurstDetector, CcHunter, CcHunterConfig, DeltaTPolicy};
use cc_hunter::sim::{Machine, MachineConfig, Program};
use cc_hunter::workloads::figure14_pairs;
use cc_hunter::workloads::noise::spawn_standard_noise;

/// Simulated quanta per pair (paper: full transmissions over many quanta).
pub fn quanta() -> usize {
    if fast_mode() {
        4
    } else {
        12
    }
}

fn machine() -> Machine {
    Machine::new(
        MachineConfig::builder()
            .quantum_cycles(paper::QUANTUM)
            .build()
            .expect("valid config"),
    )
}

fn fresh_pair(label: &str) -> (Box<dyn Program>, Box<dyn Program>) {
    let (_, a, b) = figure14_pairs()
        .into_iter()
        .find(|(l, _, _)| *l == label)
        .expect("known pair");
    (a, b)
}

/// Runs the experiment.
pub fn run() {
    super::banner(
        "Figure 14",
        "false-alarm study: benign benchmark pairs under audit",
    );
    let detector = BurstDetector::default();
    let mut table = Table::new(&["pair", "bus LR", "divider LR", "cache peak", "verdict"]);
    let mut all_clean = true;
    let mut csv_rows = Vec::new();

    for label in figure14_pairs().into_iter().map(|(l, _, _)| l) {
        // Run 1: bus + divider audits.
        let (a, b) = fresh_pair(label);
        let mut m = machine();
        m.spawn(a, m.config().context_id(0, 0));
        m.spawn(b, m.config().context_id(0, 1));
        spawn_standard_noise(&mut m, 0, 3, 4242);
        let mut session = AuditSession::new();
        session.audit_bus(paper::BUS_DELTA_T).expect("bus audit");
        session
            .audit_divider(0, paper::DIV_DELTA_T)
            .expect("divider audit");
        session.attach(&mut m);
        let data = QuantumRunner::new(paper::QUANTUM)
            .expect("nonzero quantum")
            .run(&mut m, &mut session, quanta())
            .expect("audit harvest");

        let bus_hist = merge(&data.bus_histograms);
        let div_hist = merge(&data.divider_histograms);
        let bus_v = detector.analyze(&bus_hist);
        let div_v = detector.analyze(&div_hist);
        write_csv(
            &format!("fig14_{label}_bus_histogram"),
            &["density_bin", "frequency"],
            bus_hist
                .bins()
                .iter()
                .enumerate()
                .map(|(bin, &f)| vec![bin.to_string(), f.to_string()]),
        );
        write_csv(
            &format!("fig14_{label}_divider_histogram"),
            &["density_bin", "frequency"],
            div_hist
                .bins()
                .iter()
                .enumerate()
                .map(|(bin, &f)| vec![bin.to_string(), f.to_string()]),
        );

        let hunter_bus = CcHunter::new(CcHunterConfig {
            quantum_cycles: paper::QUANTUM,
            delta_t: DeltaTPolicy::Fixed(paper::BUS_DELTA_T),
            ..CcHunterConfig::default()
        });
        let bus_report = hunter_bus.analyze_contention(data.bus_histograms);
        let hunter_div = CcHunter::new(CcHunterConfig {
            quantum_cycles: paper::QUANTUM,
            delta_t: DeltaTPolicy::Fixed(paper::DIV_DELTA_T),
            ..CcHunterConfig::default()
        });
        let div_report = hunter_div.analyze_contention(data.divider_histograms);

        // Run 2: cache audit (the auditor handles two units at a time).
        let (a, b) = fresh_pair(label);
        let mut m = machine();
        m.spawn(a, m.config().context_id(0, 0));
        m.spawn(b, m.config().context_id(0, 1));
        spawn_standard_noise(&mut m, 0, 3, 4242);
        let mut session = AuditSession::new();
        let blocks = m.config().l2.total_blocks() as usize;
        session
            .audit_cache(0, blocks, TrackerKind::Practical)
            .expect("cache audit");
        session.attach(&mut m);
        let cache_data = QuantumRunner::new(paper::QUANTUM)
            .expect("nonzero quantum")
            .run(&mut m, &mut session, quanta())
            .expect("audit harvest");
        let hunter_cache = CcHunter::new(CcHunterConfig {
            quantum_cycles: paper::QUANTUM,
            ..CcHunterConfig::default()
        });
        let cache_report = hunter_cache
            .analyze_oscillation(&cache_data.conflicts, cache_data.start, cache_data.end)
            .expect("simulated contexts are 3-bit");

        let clean = !bus_report.verdict.is_covert()
            && !div_report.verdict.is_covert()
            && !cache_report.verdict.is_covert();
        all_clean &= clean;
        let cache_peak = cache_report
            .peak
            .map(|(lag, r)| format!("r={r:.2}@{lag}"))
            .unwrap_or_else(|| "-".into());
        println!("{label}:");
        println!("  bus lock density bins     : {}", sparse_bins(&bus_hist));
        println!("  divider contention bins   : {}", sparse_bins(&div_hist));
        // A likelihood ratio is only meaningful when a burst distribution
        // exists at all (the paper reports LRs for the mailserver's real
        // second distribution; pairs with random scatter have none).
        let show = |v: &cc_hunter::detector::BurstVerdict| {
            if v.has_burst_distribution {
                format!("{:.3}", v.likelihood_ratio)
            } else {
                "no burst distribution".to_string()
            }
        };
        table.row(vec![
            label.to_string(),
            show(&bus_v),
            show(&div_v),
            cache_peak.clone(),
            if clean { "clean" } else { "FALSE ALARM" }.to_string(),
        ]);
        csv_rows.push(vec![
            label.to_string(),
            format!("{:.4}", bus_v.likelihood_ratio),
            format!("{:.4}", div_v.likelihood_ratio),
            cache_peak,
            clean.to_string(),
        ]);
    }
    println!();
    table.print();
    write_csv(
        "fig14_false_alarms",
        &["pair", "bus_lr", "divider_lr", "cache_peak", "clean"],
        csv_rows,
    );
    println!();
    assert!(all_clean, "the paper reports zero false alarms");
    println!("zero false alarms across all pairs — REPRODUCED");
}
