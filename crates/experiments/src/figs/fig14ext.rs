//! Extended false-alarm study: the paper tests "128 pair-wise combinations
//! of several standard SPEC2006, Stream and Filebench benchmarks" and shows
//! a representative subset in Figure 14. This experiment sweeps all 66
//! unordered pairs of the 11-workload roster under every audit and demands
//! zero false alarms.

use crate::harness::{fast_mode, paper};
use crate::output::{write_csv, Table};
use cc_hunter::audit::{AuditSession, QuantumRunner, TrackerKind};
use cc_hunter::detector::{CcHunter, CcHunterConfig, DeltaTPolicy};
use cc_hunter::sim::{Machine, MachineConfig};
use cc_hunter::workloads::noise::spawn_standard_noise;
use cc_hunter::workloads::{extended_pairs, workload_by_name};

/// Quanta per audit run.
fn quanta() -> usize {
    if fast_mode() {
        2
    } else {
        3
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

/// Runs the experiment.
pub fn run() {
    super::banner(
        "Figure 14 (extended)",
        "all 66 pairwise workload combinations under every audit",
    );
    let pairs: Vec<String> = extended_pairs().into_iter().map(|(l, _, _)| l).collect();
    let pairs = if fast_mode() {
        pairs.into_iter().step_by(4).collect::<Vec<_>>()
    } else {
        pairs
    };
    let hunter_bus = CcHunter::new(CcHunterConfig {
        quantum_cycles: paper::QUANTUM,
        delta_t: DeltaTPolicy::Fixed(paper::BUS_DELTA_T),
        ..CcHunterConfig::default()
    });
    let hunter_div = CcHunter::new(CcHunterConfig {
        quantum_cycles: paper::QUANTUM,
        delta_t: DeltaTPolicy::Fixed(paper::DIV_DELTA_T),
        ..CcHunterConfig::default()
    });
    let hunter_cache = CcHunter::new(CcHunterConfig {
        quantum_cycles: paper::QUANTUM,
        ..CcHunterConfig::default()
    });

    let mut false_alarms: Vec<String> = Vec::new();
    let mut csv_rows = Vec::new();
    let total = pairs.len();
    for (i, label) in pairs.iter().enumerate() {
        let (a_name, b_name) = label.split_once('_').expect("label format");
        // Run 1: bus + divider.
        let mut m = machine();
        m.spawn(
            workload_by_name(a_name, 10 + i as u64),
            m.config().context_id(0, 0),
        );
        m.spawn(
            workload_by_name(b_name, 90 + i as u64),
            m.config().context_id(0, 1),
        );
        spawn_standard_noise(&mut m, 0, 3, 7_000 + i as u64);
        let mut session = AuditSession::new();
        session.audit_bus(paper::BUS_DELTA_T).unwrap();
        session.audit_divider(0, paper::DIV_DELTA_T).unwrap();
        session.attach(&mut m);
        let data = QuantumRunner::new(paper::QUANTUM)
            .expect("nonzero quantum")
            .run(&mut m, &mut session, quanta())
            .expect("audit harvest");
        let bus = hunter_bus.analyze_contention(data.bus_histograms);
        let div = hunter_div.analyze_contention(data.divider_histograms);

        // Run 2: multiplier + cache.
        let mut m = machine();
        m.spawn(
            workload_by_name(a_name, 10 + i as u64),
            m.config().context_id(0, 0),
        );
        m.spawn(
            workload_by_name(b_name, 90 + i as u64),
            m.config().context_id(0, 1),
        );
        spawn_standard_noise(&mut m, 0, 3, 7_000 + i as u64);
        let mut session = AuditSession::new();
        session.audit_multiplier(0, paper::DIV_DELTA_T).unwrap();
        let blocks = m.config().l2.total_blocks() as usize;
        session
            .audit_cache(0, blocks, TrackerKind::Practical)
            .unwrap();
        session.attach(&mut m);
        let data = QuantumRunner::new(paper::QUANTUM)
            .expect("nonzero quantum")
            .run(&mut m, &mut session, quanta())
            .expect("audit harvest");
        let mul = hunter_div.analyze_contention(data.multiplier_histograms);
        let cache = hunter_cache
            .analyze_oscillation(&data.conflicts, data.start, data.end)
            .expect("simulated contexts are 3-bit");

        let clean = !bus.verdict.is_covert()
            && !div.verdict.is_covert()
            && !mul.verdict.is_covert()
            && !cache.verdict.is_covert();
        if !clean {
            false_alarms.push(label.clone());
        }
        csv_rows.push(vec![
            label.clone(),
            format!("{:.3}", bus.peak_likelihood_ratio),
            format!("{:.3}", div.peak_likelihood_ratio),
            format!("{:.3}", mul.peak_likelihood_ratio),
            cache
                .peak
                .map(|(lag, r)| format!("{r:.2}@{lag}"))
                .unwrap_or_else(|| "-".into()),
            clean.to_string(),
        ]);
        if (i + 1) % 10 == 0 {
            println!("  {}/{} pairs audited…", i + 1, total);
        }
    }
    write_csv(
        "fig14ext_all_pairs",
        &[
            "pair",
            "bus_lr",
            "divider_lr",
            "multiplier_lr",
            "cache_peak",
            "clean",
        ],
        csv_rows,
    );
    let mut table = Table::new(&["pairs audited", "false alarms"]);
    table.row(vec![total.to_string(), false_alarms.len().to_string()]);
    table.print();
    println!();
    assert!(false_alarms.is_empty(), "false alarms on: {false_alarms:?}");
    println!("zero false alarms across all {total} pairwise combinations");
}
