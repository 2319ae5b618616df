//! Thread migration (paper §V-A): the OS may reschedule the trojan or spy
//! onto different hardware contexts mid-transmission; with the daemon's
//! principal tracking, conflict labels keep identifying the same software
//! pair and detection is unaffected.

mod common;

use cc_hunter::audit::{AuditSession, QuantumRunner, TrackerKind};
use cc_hunter::channels::{
    BitClock, CacheChannelConfig, CacheSpy, CacheTrojan, DecodeRule, Message, SpyLog,
};
use cc_hunter::detector::{CcHunter, CcHunterConfig};
use cc_hunter::sim::{Machine, MachineConfig};
use common::QUANTUM;

#[test]
fn cache_channel_survives_smt_slot_swap() {
    let mut machine = Machine::new(
        MachineConfig::builder()
            .quantum_cycles(QUANTUM)
            .build()
            .unwrap(),
    );
    let message = Message::alternating(16);
    let clock = BitClock::new(1_000_000, 2_500_000);
    let config = CacheChannelConfig::new(message.clone(), clock, 256);
    let log = SpyLog::new_handle();
    let trojan_tid = machine.spawn(
        Box::new(CacheTrojan::new(config.clone())),
        machine.config().context_id(0, 0),
    );
    let spy_tid = machine.spawn(
        Box::new(CacheSpy::new(config, log.clone())),
        machine.config().context_id(0, 1),
    );

    let mut session = AuditSession::new();
    let blocks = machine.config().l2.total_blocks() as usize;
    session
        .audit_cache(0, blocks, TrackerKind::Practical)
        .unwrap();
    session.attach(&mut machine);

    // First half of the transmission on the original placement.
    let runner = QuantumRunner::new(QUANTUM).expect("nonzero quantum");
    let first = runner.run(&mut machine, &mut session, 9).expect("harvest");

    // The OS swaps the pair between the core's SMT slots: move the trojan
    // aside, the spy into slot 0, the trojan into slot 1.
    let parking = machine.config().context_id(1, 0);
    machine.migrate_thread(trojan_tid, parking);
    machine.run_for(1_000); // let in-flight ops drain and moves apply
    machine.migrate_thread(spy_tid, machine.config().context_id(0, 0));
    machine.migrate_thread(trojan_tid, machine.config().context_id(0, 1));
    machine.run_for(1_000);
    assert_eq!(machine.thread_context(spy_tid).smt(), 0);
    assert_eq!(machine.thread_context(trojan_tid).smt(), 1);
    // The daemon re-labels the hardware contexts with stable principals:
    // slot 0 now carries the spy (principal 1), slot 1 the trojan (0).
    session.set_principal(0, 1).expect("valid context");
    session.set_principal(1, 0).expect("valid context");

    let second = runner.run(&mut machine, &mut session, 9).expect("harvest");

    // The spy still decodes the message correctly across the swap.
    let decoded = log
        .borrow()
        .decode(DecodeRule::FixedThreshold(1.0), message.len());
    let ber = message.bit_error_rate(&decoded);
    assert!(
        ber <= 2.0 / message.len() as f64,
        "at most the in-swap bits may be lost, ber = {ber} ({message} vs {decoded})"
    );

    // With principal tracking, the T→S direction stays consistent: the
    // trojan (principal 0) keeps evicting the spy (principal 1) in both
    // halves.
    let t_to_s = |records: &[cc_hunter::detector::auditor::ConflictRecord]| {
        records
            .iter()
            .filter(|r| r.replacer == 0 && r.victim == 1)
            .count()
    };
    assert!(
        t_to_s(&first.conflicts) > 100,
        "first half: {}",
        t_to_s(&first.conflicts)
    );
    assert!(
        t_to_s(&second.conflicts) > 100,
        "second half must keep the same labels: {}",
        t_to_s(&second.conflicts)
    );

    // And CC-Hunter still flags the channel over the whole run.
    let mut all = first.conflicts;
    all.extend(second.conflicts);
    let hunter = CcHunter::new(CcHunterConfig {
        quantum_cycles: 8 * QUANTUM,
        ..CcHunterConfig::default()
    });
    let report = hunter
        .analyze_oscillation(&all, first.start, second.end)
        .unwrap();
    assert!(report.verdict.is_covert(), "{report:?}");
}
