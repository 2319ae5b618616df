//! The shared-L2 cache covert channel end-to-end: the spy decodes the
//! message from G1/G0 probe-latency ratios, while CC-Hunter's oscillation
//! detector exposes the channel from its conflict-miss autocorrelogram.
//!
//! ```sh
//! cargo run --example cache_covert_channel
//! ```

use cc_hunter::audit::{AuditSession, QuantumRunner, TrackerKind};
use cc_hunter::channels::{
    BitClock, CacheChannelConfig, CacheSpy, CacheTrojan, DecodeRule, Message, SpyLog,
};
use cc_hunter::detector::pipeline::Detection;
use cc_hunter::detector::{Autocorrelogram, CcHunter, CcHunterConfig};
use cc_hunter::sim::{Machine, MachineConfig};
use cc_hunter::workloads::noise::spawn_standard_noise;

fn main() {
    let quantum = 10_000_000u64;
    let config = MachineConfig::builder()
        .quantum_cycles(quantum)
        .build()
        .expect("valid config");
    let mut machine = Machine::new(config);

    // 256 cache sets split into G1/G0 — the largest configuration whose
    // working set fits any capacity-honest conflict tracker's recency
    // window (see EXPERIMENTS.md's Figure 8 note; the paper's own
    // Figure 13 sweeps 64–256 sets).
    let secret = Message::from_u64(0x5500_BEEF_1234_CAFE);
    let total_sets = 256;
    let clock = BitClock::new(1_000_000, 2_500_000);
    let channel = CacheChannelConfig::new(secret.clone(), clock, total_sets);
    let log = SpyLog::new_handle();
    // Trojan and spy are hyperthreads of core 0, sharing its L2.
    machine.spawn(
        Box::new(CacheTrojan::new(channel.clone())),
        machine.config().context_id(0, 0),
    );
    machine.spawn(
        Box::new(CacheSpy::new(channel, log.clone())),
        machine.config().context_id(0, 1),
    );
    spawn_standard_noise(&mut machine, 0, 3, 7);

    // Audit core 0's shared cache with the practical conflict-miss tracker.
    let total_blocks = machine.config().l2.total_blocks() as usize;
    let mut session = AuditSession::new();
    session
        .audit_cache(0, total_blocks, TrackerKind::Practical)
        .expect("cache audit");
    session.attach(&mut machine);

    let quanta = 18;
    let data = QuantumRunner::new(quantum)
        .expect("nonzero quantum")
        .run(&mut machine, &mut session, quanta)
        .expect("audit harvest");

    let decoded = log
        .borrow()
        .decode(DecodeRule::FixedThreshold(1.0), secret.len());
    println!("secret sent    : {secret}");
    println!("spy decoded    : {decoded}");
    println!(
        "bit error rate : {:.1}%",
        secret.bit_error_rate(&decoded) * 100.0
    );
    let (conflicts, total) = session.cache_miss_counts();
    println!("L2 misses      : {total} ({conflicts} classified conflict)");

    // The autocorrelogram of the conflict-miss symbol series.
    let series =
        cc_hunter::detector::pipeline::symbol_series(&data.conflicts, data.start, data.end);
    let correlogram = Autocorrelogram::of_symbols(&series, 1000);
    let (lag, value) = correlogram
        .dominant_peak(8, 0.0)
        .expect("periodic conflict train");
    println!(
        "autocorrelogram: dominant peak r = {value:.3} at lag {lag} (total sets = {total_sets})"
    );

    let hunter = CcHunter::new(CcHunterConfig {
        quantum_cycles: quantum,
        ..CcHunterConfig::default()
    });
    let report = hunter
        .analyze_oscillation(&data.conflicts, data.start, data.end)
        .expect("simulated contexts are 3-bit");
    println!("{}", Detection::from_oscillation("shared-L2", &report));
    assert!(report.verdict.is_covert(), "the channel must be detected");
}
