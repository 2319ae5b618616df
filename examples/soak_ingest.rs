//! Chaos soak for the hardened ingest layer: a supervised (one-shard) fleet fed for
//! thousands of OS quanta through admission queues, sanitizers, and
//! saturating accumulators while an adversary floods the buses, feeds
//! hostile event trains, and the analysis itself is made to panic.
//!
//! The harness asserts the robustness contract end to end: no panic
//! escapes, memory stays bounded by the admission capacity, per-push cost
//! stays O(1)-cheap, the benign pair never flips covert, the flooded
//! covert pair is still convicted under reservoir shedding, and every
//! shed/repair/drop is visible in the fleet's metrics snapshot. A summary
//! is written to `soak_ingest.json` for CI artifact upload.
//!
//! ```sh
//! cargo run --release --example soak_ingest        # full soak (2 500 quanta)
//! CCHUNTER_SOAK_QUICK=1 cargo run --example soak_ingest   # CI smoke (250)
//! ```

use cc_hunter::detector::policy::mix_seed;
use cc_hunter::detector::supervisor::{ChaosOp, PairInput, ProbeFault, SupervisorConfig};
use cc_hunter::detector::{
    AdmissionConfig, IngestConfig, IngestPipeline, RawEvent, ShardedFleet, ShardedFleetConfig,
    ShedPolicy, Verdict,
};
use cc_hunter::{FaultClass, FaultConfig, FaultInjector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const QUANTUM: u64 = 2_500_000;
const CAPACITY: usize = 512;
const PAIRS: usize = 4;

/// Per-(pair, tick) deterministic event streams.
///
/// * pair 0 — benign trickle: sparse well-formed events.
/// * pair 1 — flooded covert channel: bursty foreground + a ~5× uniform
///   benign flood that overwhelms the admission queue every quantum.
/// * pair 2 — hostile feed: duplicates, zero-Δt packing, time travel, and
///   out-of-range context IDs on top of a benign base train.
/// * pair 3 — benign trickle whose *harvest* is then mangled by the fault
///   injector (dropped/truncated read-outs).
fn events_for(pair: usize, tick: u64, start: u64, end: u64) -> Vec<RawEvent> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(0x50CC, pair as u64, tick));
    let span = end - start;
    let mut events = Vec::new();
    match pair {
        1 => {
            // The covert channel: 10 bursts of 30 back-to-back events.
            for burst in 0..10u64 {
                let base = start + burst * span / 10;
                for i in 0..30u64 {
                    events.push(RawEvent {
                        time: base + i * 97,
                        weight: 1,
                        context: (i % 2) as u8,
                    });
                }
            }
            // The flood: chatty neighbours at ~4× the channel's volume.
            for _ in 0..1_200 {
                events.push(RawEvent {
                    time: start + rng.gen_range(0..span),
                    weight: 1,
                    context: rng.gen_range(2..8u64) as u8,
                });
            }
            events.sort_by_key(|e| e.time);
        }
        2 => {
            for _ in 0..300 {
                events.push(RawEvent {
                    time: start + rng.gen_range(0..span),
                    weight: 1,
                    context: rng.gen_range(0..8u64) as u8,
                });
            }
            events.sort_by_key(|e| e.time);
            for i in 0..25usize {
                let dup = events[i * events.len() / 25];
                events.push(dup); // exact duplicates
            }
            let t = start + span / 2;
            for i in 0..2_000u64 {
                events.push(RawEvent {
                    time: t, // zero-Δt packing attack
                    weight: 1,
                    context: (i % 8) as u8,
                });
            }
            for _ in 0..20 {
                events.push(RawEvent {
                    time: start.saturating_sub(500_000), // time travel
                    weight: 1,
                    context: 0,
                });
            }
            for _ in 0..20 {
                events.push(RawEvent {
                    time: end - 1,
                    weight: 1,
                    context: 250, // out-of-range context
                });
            }
        }
        _ => {
            // Benign trickle (pairs 0 and 3).
            for _ in 0..rng.gen_range(10..40) {
                events.push(RawEvent {
                    time: start + rng.gen_range(0..span),
                    weight: 1,
                    context: rng.gen_range(0..8u64) as u8,
                });
            }
            events.sort_by_key(|e| e.time);
            if pair == 3 {
                // The flaky collector also delivers slightly out of order,
                // within the sanitizer's bounded repair tolerance.
                for i in (3..events.len()).step_by(5) {
                    events[i].time = events[i - 1].time.saturating_sub(300);
                }
            }
        }
    }
    events
}

fn main() {
    let quick = std::env::var("CCHUNTER_SOAK_QUICK").is_ok_and(|v| v == "1");
    let ticks: u64 = if quick { 250 } else { 2_500 };

    // The injected chaos panics are contained by the fleet's
    // watchdog; silence only those in the default panic hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos:"));
        if !expected {
            default_hook(info);
        }
    }));

    let mut fleet = ShardedFleet::new(ShardedFleetConfig {
        shards: 1,
        base: SupervisorConfig {
            window_quanta: 32,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    })
    .expect("valid fleet config");
    let labels = [
        "benign-bus: pid 8 <-> pid 31",
        "flooded-bus: pid 17 <-> pid 23",
        "hostile-feed: pid 50 <-> pid 51",
        "faulty-collector: pid 4 <-> pid 9",
    ];
    for label in labels {
        fleet.add_contention_pair(label).expect("valid pair");
    }

    let mut pipelines: Vec<IngestPipeline> = (0..PAIRS)
        .map(|pair| {
            IngestPipeline::new(IngestConfig {
                admission: AdmissionConfig {
                    capacity: CAPACITY,
                    policy: if pair == 1 {
                        ShedPolicy::Reservoir { seed: 0xD1CE }
                    } else {
                        ShedPolicy::DropOldest
                    },
                },
                // Δt per resource, following each pair's mean event rate.
                delta_t: if pair == 1 || pair == 2 {
                    100_000
                } else {
                    10_000
                },
                ..IngestConfig::default()
            })
            .expect("valid ingest config")
        })
        .collect();
    let stats: Vec<_> = pipelines.iter().map(|p| p.stats()).collect();
    for s in &stats {
        fleet.attach_ingest_stats(s.clone());
    }
    let mut injector = FaultInjector::new(
        FaultConfig::only(FaultClass::DroppedQuantum)
            .with_rate(FaultClass::DroppedQuantum, 0.1)
            .with_rate(FaultClass::TruncatedHistogram, 0.2),
        0xB5_0003,
    );

    let mut offers: u64 = 0;
    let mut offer_ns: u128 = 0;
    let mut max_queue = 0usize;

    let started = Instant::now();
    let mut benign_flips = 0u64;
    {
        let mut probe = |pair: usize, tick: u64, _attempt: u32| -> Result<PairInput, ProbeFault> {
            if pair == 2 && tick.is_multiple_of(97) {
                return Ok(PairInput::Chaos(ChaosOp::Panic));
            }
            let start = tick * QUANTUM;
            let end = start + QUANTUM;
            let pipeline = &mut pipelines[pair];
            let events = events_for(pair, tick, start, end);
            let t0 = Instant::now();
            for event in events {
                pipeline.offer(event);
                let len = pipeline.queue_len();
                assert!(len <= CAPACITY, "queue exceeded capacity: {len}");
                if len > max_queue {
                    max_queue = len;
                }
                offers += 1;
            }
            offer_ns += t0.elapsed().as_nanos();
            let (harvest, _report) = pipeline.end_quantum(start, end);
            if pair == 3 {
                // The collector between pipeline and daemon is flaky.
                if let Some(h) = harvest.histogram() {
                    return Ok(PairInput::Harvest(injector.perturb_harvest(h.clone())));
                }
            }
            Ok(PairInput::Harvest(harvest))
        };

        for tick in 0..ticks {
            fleet.tick(&mut probe);
            if tick.is_multiple_of(25) || tick + 1 == ticks {
                let statuses = fleet.pair_statuses();
                if statuses[0].verdict.is_covert() {
                    benign_flips += 1;
                }
                if tick.is_multiple_of(250) {
                    println!(
                        "tick {tick:>5}: verdicts [{}]",
                        statuses
                            .iter()
                            .map(|s| s.verdict.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
            }
        }
    }
    let elapsed = started.elapsed();

    let snap = fleet.metrics_snapshot();
    let statuses = fleet.pair_statuses();
    let mean_push_ns = offer_ns as f64 / offers.max(1) as f64;

    println!();
    println!("soak: {ticks} quanta x {PAIRS} pairs in {:.2?}", elapsed);
    println!(
        "ingest: {} offered, {} shed, {} repaired, {} dropped, {} partial, {} missed",
        snap.ingest.events_offered,
        snap.ingest.events_shed,
        snap.ingest.events_repaired,
        snap.ingest.events_dropped,
        snap.ingest.partial_harvests,
        snap.ingest.missed_harvests,
    );
    println!(
        "bounds: max queue {max_queue}/{CAPACITY}, mean push {:.0} ns, {} contained failures",
        mean_push_ns, snap.failures
    );
    for s in &statuses {
        println!("pair {}: {:<12} {}", s.pair, s.verdict.to_string(), s.label);
    }

    // The robustness contract, asserted every run.
    assert_eq!(benign_flips, 0, "benign pair must never flip covert");
    assert_eq!(
        statuses[0].verdict,
        Verdict::Clean,
        "benign pair ends affirmatively clean"
    );
    assert!(
        statuses[1].verdict.is_covert(),
        "flooded covert pair must still be convicted under reservoir shedding: {:?}",
        statuses[1]
    );
    assert!(max_queue <= CAPACITY, "admission memory is bounded");
    assert!(
        mean_push_ns < 10_000.0,
        "per-push cost must stay O(1)-cheap, got {mean_push_ns:.0} ns"
    );
    assert!(
        snap.failures > 0,
        "chaos panics were injected and contained"
    );
    assert!(
        !snap.ingest.is_empty(),
        "ingest activity visible in metrics"
    );
    assert!(snap.ingest.events_shed > 0 && snap.ingest.events_dropped > 0);
    assert!(snap.ingest.events_repaired > 0, "reorder repair exercised");
    let offered_via_handles: u64 = stats.iter().map(|s| s.events_offered.get()).sum();
    assert_eq!(snap.ingest.events_offered, offered_via_handles);
    assert_eq!(snap.ingest.events_offered, offers);

    // Machine-readable summary for the CI artifact.
    let pair_json: Vec<String> = statuses
        .iter()
        .map(|s| {
            format!(
                "    {{ \"pair\": {}, \"label\": \"{}\", \"verdict\": \"{}\", \"panics\": {}, \"failures\": {} }}",
                s.pair, s.label, s.verdict, s.panics, s.failures
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"ticks\": {ticks},\n  \"quick\": {quick},\n  \"elapsed_ms\": {},\n  \
         \"offers\": {offers},\n  \"mean_push_ns\": {mean_push_ns:.1},\n  \
         \"max_queue_len\": {max_queue},\n  \"capacity\": {CAPACITY},\n  \
         \"benign_covert_flips\": {benign_flips},\n  \"contained_failures\": {},\n  \
         \"ingest\": {{\n    \"events_offered\": {},\n    \"events_shed\": {},\n    \
         \"events_repaired\": {},\n    \"events_dropped\": {},\n    \
         \"saturated_quanta\": {},\n    \"quanta\": {},\n    \
         \"partial_harvests\": {},\n    \"missed_harvests\": {}\n  }},\n  \
         \"pairs\": [\n{}\n  ]\n}}\n",
        elapsed.as_millis(),
        snap.failures,
        snap.ingest.events_offered,
        snap.ingest.events_shed,
        snap.ingest.events_repaired,
        snap.ingest.events_dropped,
        snap.ingest.saturated_quanta,
        snap.ingest.quanta,
        snap.ingest.partial_harvests,
        snap.ingest.missed_harvests,
        pair_json.join(",\n"),
    );
    std::fs::write("soak_ingest.json", &json).expect("summary written");
    println!();
    println!("summary written to soak_ingest.json");
}
