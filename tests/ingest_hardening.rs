//! Hardened-ingest integration tests: the admission queue, sanitizer, and
//! saturating 16-bit accumulators sit between hostile/overloaded event
//! sources and the analysis core, and must convert every form of damage
//! into typed, quantified degradation — never a panic, unbounded memory,
//! or a silently wrong verdict.

mod common;

use cc_hunter::audit::TrackerKind;
use cc_hunter::channels::Message;
use cc_hunter::detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cc_hunter::detector::policy::mix_seed;
use cc_hunter::detector::supervisor::{PairInput, ProbeFault, SupervisorConfig};
use cc_hunter::detector::{
    AdmissionConfig, AdmissionQueue, CcHunter, CcHunterConfig, DeltaTPolicy, DrainedBatch,
    EventTrain, FleetFault, Harvest, IngestConfig, IngestPipeline, OnlineContentionDetector,
    RawEvent, Sanitizer, SanitizerConfig, SaturatingHistogram, ShardedFleet, ShardedFleetConfig,
    ShedPolicy, Verdict,
};
use common::{run_bus_channel, run_cache_channel, run_divider_channel, QUANTUM};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn hunter() -> CcHunter {
    CcHunter::new(CcHunterConfig {
        quantum_cycles: QUANTUM,
        delta_t: DeltaTPolicy::Fixed(100_000),
        ..CcHunterConfig::default()
    })
}

/// Routes per-quantum histograms through the paper's 16-bit accumulator
/// semantics, returning the reconstructed histograms and whether any bin
/// clamped.
fn through_saturating(histograms: &[DensityHistogram]) -> (Vec<DensityHistogram>, bool) {
    let mut any_saturated = false;
    let out = histograms
        .iter()
        .map(|h| {
            let mut hardware = SaturatingHistogram::new(h.delta_t()).unwrap();
            hardware.accumulate(h).unwrap();
            let (histogram, saturated) = hardware.finish();
            any_saturated |= saturated;
            histogram
        })
        .collect();
    (out, any_saturated)
}

/// The seeded bus channel still convicts when every harvested histogram is
/// routed through the saturating 16-bit accumulators (which, at the test
/// machine's scale, must be lossless — the clamp is a ceiling, not a tax).
#[test]
fn bus_channel_detected_through_saturating_accumulators() {
    let run = run_bus_channel(Message::from_u64(0x4929_1273_5521_8674), 250_000, 8);
    let (hardware, saturated) = through_saturating(&run.data.bus_histograms);
    assert!(!saturated, "25 windows/quantum cannot clamp a u16");
    for (software, hardware) in run.data.bus_histograms.iter().zip(&hardware) {
        assert_eq!(software.bins(), hardware.bins(), "lossless below the clamp");
    }
    let report = hunter().analyze_contention(hardware);
    assert!(report.verdict.is_covert(), "{report:?}");
    assert!(report.peak_likelihood_ratio > 0.9);
}

/// Same property for the integer-divider channel.
#[test]
fn divider_channel_detected_through_saturating_accumulators() {
    let run = run_divider_channel(Message::from_u64(0xA5A5_0F0F_3C3C_9999), 250_000, 8);
    let (hardware, saturated) = through_saturating(&run.data.divider_histograms);
    assert!(!saturated);
    let report = hunter().analyze_contention(hardware);
    assert!(report.verdict.is_covert(), "{report:?}");
}

/// The seeded cache channel still convicts when its conflict-record train
/// passes through the event sanitizer first (well-formed records must be
/// untouched), and the sanitizer's report proves it changed nothing.
#[test]
fn cache_channel_detected_through_conflict_sanitizer() {
    let run = run_cache_channel(
        Message::from_u64(0x4929_1273_5521_8674),
        2_500_000,
        256,
        TrackerKind::Practical,
        66,
    );
    let sanitizer = Sanitizer::new(SanitizerConfig::default());
    let (clean, report) = sanitizer.sanitize_conflicts(&run.data.conflicts);
    assert!(
        report.is_clean(),
        "the simulator's conflict train is well-formed: {report}"
    );
    assert_eq!(clean.len(), run.data.conflicts.len());
    let hunter = CcHunter::new(CcHunterConfig {
        quantum_cycles: 8 * QUANTUM,
        ..CcHunterConfig::default()
    });
    let report = hunter
        .analyze_oscillation(&clean, run.data.start, run.data.end)
        .unwrap();
    assert!(report.verdict.is_covert(), "{report:?}");
}

/// A paper-scale covert histogram: a 0.1 s quantum binned at a small Δt
/// yields hundreds of thousands of windows, so the empty-window bin
/// overflows a 16-bit accumulator while the burst-density bins stay small.
fn paper_scale_covert_bins(tick: u64) -> Vec<u64> {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 70_000 + (tick % 7) * 3; // > u16::MAX: the clamp fires
    bins[19] = 520;
    bins[20] = 3_900 + (tick % 5);
    bins[21] = 640;
    bins
}

/// With the u16 clamp genuinely exercised (bin 0 > 65 535), the covert
/// burst structure survives — the clamp is sticky and widens uncertainty,
/// it does not erase the burst bins — and a quiet workload under the same
/// clamp stays `Clean`, not spuriously covert.
#[test]
fn u16_clamp_widens_uncertainty_without_flipping_verdicts() {
    let saturation_penalty = IngestConfig::default().saturation_penalty;
    let daemon_config = CcHunterConfig {
        quantum_cycles: 25_000_000,
        delta_t: DeltaTPolicy::Fixed(100),
        ..CcHunterConfig::default()
    };

    // Covert workload: conviction must survive the clamp.
    let mut daemon = OnlineContentionDetector::new(daemon_config, 16).unwrap();
    let mut status = None;
    for tick in 0..16u64 {
        let software = DensityHistogram::from_bins(paper_scale_covert_bins(tick), 100).unwrap();
        let mut hardware = SaturatingHistogram::new(100).unwrap();
        hardware.accumulate(&software).unwrap();
        let (histogram, saturated) = hardware.finish();
        assert!(saturated, "bin 0 must clamp at u16::MAX");
        assert_eq!(histogram.bins()[0], u16::MAX as u64);
        assert_eq!(
            histogram.bins()[20],
            3_900 + (tick % 5),
            "burst bins intact"
        );
        status = Some(daemon.push_quantum(Harvest::Partial {
            histogram,
            lost_fraction: saturation_penalty,
        }));
    }
    let status = status.unwrap();
    assert!(status.verdict.is_covert(), "{status:?}");
    assert!(
        status.is_degraded() && status.confidence < 1.0,
        "saturation must widen the verdict's uncertainty: {status:?}"
    );

    // Quiet workload under the same clamp: degraded, but still Clean.
    let mut daemon = OnlineContentionDetector::new(daemon_config, 16).unwrap();
    let mut status = None;
    for tick in 0..16u64 {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 70_100 + tick % 9;
        bins[1] = 420;
        let software = DensityHistogram::from_bins(bins, 100).unwrap();
        let mut hardware = SaturatingHistogram::new(100).unwrap();
        hardware.accumulate(&software).unwrap();
        let (histogram, saturated) = hardware.finish();
        assert!(saturated);
        status = Some(daemon.push_quantum(Harvest::Partial {
            histogram,
            lost_fraction: saturation_penalty,
        }));
    }
    let status = status.unwrap();
    assert_eq!(
        status.verdict,
        Verdict::Clean,
        "a clamped but mostly-observed quiet window stays clean: {status:?}"
    );
    assert!(status.is_degraded());
}

/// Admission memory and latency bounds: a million-event flood through a
/// 4 096-slot queue never grows past capacity and keeps per-push cost far
/// below the harvest budget. Drop-oldest shedding past the bias tolerance
/// then refuses the truncated quantum instead of faking evidence.
#[test]
fn admission_queue_bounds_memory_and_per_push_latency() {
    let capacity = 4_096usize;
    let mut pipeline = IngestPipeline::new(IngestConfig {
        admission: AdmissionConfig {
            capacity,
            policy: ShedPolicy::DropOldest,
        },
        ..IngestConfig::default()
    })
    .unwrap();

    const FLOOD: u64 = 1_000_000;
    let started = Instant::now();
    for i in 0..FLOOD {
        pipeline.offer(RawEvent {
            time: i,
            weight: 1,
            context: (i % 8) as u8,
        });
        if i.is_multiple_of(4_096) {
            assert!(
                pipeline.queue_len() <= capacity,
                "queue grew past capacity at offer {i}"
            );
        }
    }
    let elapsed = started.elapsed();
    let mean_ns = elapsed.as_nanos() as f64 / FLOOD as f64;
    // The true cost is tens of nanoseconds; 10 µs leaves two orders of
    // magnitude of slack for a loaded CI machine.
    assert!(
        mean_ns < 10_000.0,
        "mean per-push cost must stay O(1)-cheap, got {mean_ns:.0} ns"
    );

    let (harvest, report) = pipeline.end_quantum(0, FLOOD);
    assert_eq!(report.offered, FLOOD);
    assert_eq!(report.admitted, capacity as u64);
    assert!(report.refused, "99.6% time-truncated loss must be refused");
    assert!(matches!(harvest, Harvest::Missed));
    assert_eq!(pipeline.queue_len(), 0, "drain must empty the queue");
}

const SOAK_TICKS: u64 = 300;
const SOAK_CAPACITY: usize = 2_048;

/// Deterministic per-(pair, tick) event-stream generators for the soak:
/// pair 0 benign, pair 1 flooded covert-ish bursts, pair 2 actively
/// hostile (duplicates, time travel, zero-Δt bursts, bad context IDs).
fn soak_events(pair: usize, tick: u64, start: u64, end: u64) -> Vec<RawEvent> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(0x50CC, pair as u64, tick));
    let span = end - start;
    let mut events = Vec::new();
    match pair {
        0 => {
            // Benign: a sparse, well-formed trickle (most Δt windows empty,
            // like the paper's benign workloads).
            for _ in 0..rng.gen_range(10..40) {
                events.push(RawEvent {
                    time: start + rng.gen_range(0..span),
                    weight: 1,
                    context: rng.gen_range(0..8u64) as u8,
                });
            }
            events.sort_by_key(|e| e.time);
        }
        1 => {
            // Flood: bursty foreground drowned in uniform background, well
            // past the admission capacity.
            for burst in 0..10u64 {
                let base = start + burst * span / 10;
                for i in 0..40u64 {
                    events.push(RawEvent {
                        time: base + i * 97,
                        weight: 1,
                        context: (i % 2) as u8,
                    });
                }
            }
            for _ in 0..3 * SOAK_CAPACITY {
                events.push(RawEvent {
                    time: start + rng.gen_range(0..span),
                    weight: 1,
                    context: rng.gen_range(2..8u64) as u8,
                });
            }
            events.sort_by_key(|e| e.time);
        }
        _ => {
            // Hostile: sorted base train laced with every abuse the
            // sanitizer knows about.
            for _ in 0..400 {
                events.push(RawEvent {
                    time: start + rng.gen_range(0..span),
                    weight: 1,
                    context: rng.gen_range(0..8u64) as u8,
                });
            }
            events.sort_by_key(|e| e.time);
            // Exact duplicates.
            for i in 0..40usize.min(events.len()) {
                let dup = events[i * events.len() / 40];
                events.push(dup);
            }
            // A zero-Δt packing attack on one cycle.
            let t = start + span / 2;
            for i in 0..5_000u64 {
                events.push(RawEvent {
                    time: t,
                    weight: 1,
                    context: (i % 8) as u8,
                });
            }
            // Time travel far beyond the reorder tolerance.
            for _ in 0..30 {
                events.push(RawEvent {
                    time: start.saturating_sub(1_000_000),
                    weight: 1,
                    context: 0,
                });
            }
            // Out-of-range context IDs.
            for _ in 0..30 {
                events.push(RawEvent {
                    time: end - 1,
                    weight: 1,
                    context: rng.gen_range(8..=255u64) as u8,
                });
            }
        }
    }
    events
}

/// Quick chaos soak: a three-pair supervised (one-shard) fleet fed exclusively through
/// hardened ingest pipelines for hundreds of quanta of benign + flood +
/// hostile traffic with injected analysis panics. The fleet must not
/// panic, the queues must stay capacity-bounded, every shed/repair/drop
/// must surface in `metrics_snapshot()`, and the benign pair must end
/// `Clean` — no false verdict flips under someone else's overload.
#[test]
fn chaos_soak_keeps_fleet_alive_and_benign_pair_clean() {
    let mut fleet = ShardedFleet::new(ShardedFleetConfig {
        shards: 1,
        base: SupervisorConfig {
            window_quanta: 32,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    })
    .unwrap();
    fleet.add_contention_pair("benign-bus").unwrap();
    fleet.add_contention_pair("flooded-bus").unwrap();
    fleet.add_contention_pair("hostile-feed").unwrap();

    let mut pipelines: Vec<IngestPipeline> = (0..3)
        .map(|pair| {
            IngestPipeline::new(IngestConfig {
                admission: AdmissionConfig {
                    capacity: SOAK_CAPACITY,
                    policy: if pair == 1 {
                        ShedPolicy::Reservoir { seed: 0xD1CE }
                    } else {
                        ShedPolicy::DropOldest
                    },
                },
                // Δt follows the pair's mean event rate (the paper derives
                // it per resource): the benign trickle gets a finer Δt so
                // its density histogram is a smooth Poisson tail rather
                // than a 25-window small-sample scatter.
                delta_t: if pair == 0 { 10_000 } else { 100_000 },
                ..IngestConfig::default()
            })
            .unwrap()
        })
        .collect();
    let stats: Vec<_> = pipelines.iter().map(|p| p.stats()).collect();
    for s in &stats {
        fleet.attach_ingest_stats(s.clone());
    }

    let mut probe = |pair: usize, tick: u64, _attempt: u32| -> Result<PairInput, ProbeFault> {
        let start = tick * QUANTUM;
        let end = start + QUANTUM;
        let pipeline = &mut pipelines[pair];
        for event in soak_events(pair, tick, start, end) {
            pipeline.offer(event);
            assert!(
                pipeline.queue_len() <= SOAK_CAPACITY,
                "pair {pair} queue grew past capacity at tick {tick}"
            );
        }
        let (harvest, _report) = pipeline.end_quantum(start, end);
        Ok(PairInput::Harvest(harvest))
    };

    for tick in 0..SOAK_TICKS {
        if tick.is_multiple_of(41) {
            // The analysis itself blows up; the watchdog must contain it.
            fleet.arm(FleetFault::PairPanic(2, 1)).unwrap();
        }
        fleet.tick(&mut probe);
        if tick.is_multiple_of(50) {
            let benign = &fleet.pair_statuses()[0];
            assert!(
                !benign.verdict.is_covert(),
                "benign pair flipped covert at tick {tick}: {benign:?}"
            );
        }
    }

    let snap = fleet.metrics_snapshot();
    assert_eq!(snap.ticks, SOAK_TICKS);
    assert!(snap.failures > 0, "injected panics must be counted");
    assert!(!snap.ingest.is_empty(), "ingest totals must be visible");
    assert!(snap.ingest.events_offered > 0);
    assert!(snap.ingest.events_shed > 0, "the flood must shed");
    assert!(snap.ingest.events_dropped > 0, "hostile events must drop");
    assert!(snap.ingest.partial_harvests > 0, "loss must be quantified");
    // The snapshot is exactly the sum of the attached pipeline handles.
    let offered: u64 = stats.iter().map(|s| s.events_offered.get()).sum();
    assert_eq!(snap.ingest.events_offered, offered);

    let statuses = fleet.pair_statuses();
    assert_eq!(
        statuses[0].verdict,
        Verdict::Clean,
        "benign pair must end affirmatively clean: {:?}",
        statuses[0]
    );
}

fn raw(time: u64, weight: u32, context: u8) -> RawEvent {
    RawEvent {
        time,
        weight,
        context,
    }
}

const POLICIES: [ShedPolicy; 3] = [
    ShedPolicy::DropOldest,
    ShedPolicy::DropNewest,
    ShedPolicy::Reservoir { seed: 0x5EED },
];

fn pipeline(policy: ShedPolicy, capacity: usize, delta_t: u64) -> IngestPipeline {
    IngestPipeline::new(IngestConfig {
        admission: AdmissionConfig { capacity, policy },
        delta_t,
        ..IngestConfig::default()
    })
    .unwrap()
}

/// A reservoir that sheds nothing hands the sanitizer its events in
/// arrival order, like the biased policies: an event backdated past the
/// reorder tolerance is dropped as time travel under every policy, instead
/// of being sorted into place and counted. The hostile quantum reads the
/// same under all three policies whether or not the queue shed in the
/// quantum before, and a quantum that does shed is sanitized in its own
/// arrival order under every policy.
#[test]
fn reservoir_drops_time_travel_like_the_biased_policies() {
    // The minimal case: the third offer is backdated 19 000 cycles.
    for policy in POLICIES {
        let mut p = pipeline(policy, 64, 10_000);
        for t in [10_000, 20_000, 1_000, 30_000] {
            p.offer(raw(t, 1, 0));
        }
        let (harvest, report) = p.end_quantum(0, 40_000);
        assert_eq!(report.sanitize.time_travel, 1, "{policy}");
        match harvest {
            Harvest::Partial { lost_fraction, .. } => assert_eq!(lost_fraction, 0.25, "{policy}"),
            other => panic!("{policy}: expected Partial, got {other:?}"),
        }
    }

    // Time travel, duplicates and bad contexts laced through a clean train.
    let mut hostile = Vec::new();
    for i in 0..300u64 {
        let e = raw(10_000 + i * 3_000, 1, (i % 8) as u8);
        hostile.push(e);
        match i % 5 {
            0 => hostile.push(raw(e.time.saturating_sub(50_000), 1, 0)),
            1 => hostile.push(e),
            2 => hostile.push(raw(e.time, 1, 9 + (i % 200) as u8)),
            _ => {}
        }
    }
    let flood: Vec<RawEvent> = (0..5_000u64).map(|i| raw(i * 200, 1, 1)).collect();
    for shed_before in [false, true] {
        let reports: Vec<_> = POLICIES
            .iter()
            .map(|&policy| {
                let mut p = pipeline(policy, 1_024, 10_000);
                if shed_before {
                    flood.iter().for_each(|&e| p.offer(e));
                    let (_, report) = p.end_quantum(0, 1_000_000);
                    assert!(report.shed > 0);
                }
                hostile.iter().for_each(|&e| p.offer(e));
                let (harvest, report) = p.end_quantum(0, 1_000_000);
                assert_eq!(report.shed, 0);
                (harvest, report.sanitize)
            })
            .collect();
        assert!(reports[0].1.time_travel > 0 && reports[0].1.duplicates > 0);
        assert!(reports[0].1.out_of_range > 0);
        for (i, r) in reports.iter().enumerate().skip(1) {
            assert_eq!(
                r, &reports[0],
                "{} vs {} (shed before {shed_before})",
                POLICIES[i], POLICIES[0]
            );
        }
    }

    // Shedding quanta: each policy sanitizes its own sample in arrival
    // order, so a reservoir sample keeps dropping the time travel.
    let stream: Vec<RawEvent> = hostile.iter().chain(&hostile).copied().collect();
    for policy in POLICIES {
        let mut p = pipeline(policy, 200, 10_000);
        let mut twin = AdmissionQueue::new(AdmissionConfig {
            capacity: 200,
            policy,
        })
        .unwrap();
        for &e in &stream {
            p.offer(e);
            twin.offer(e);
        }
        let (_, report) = p.end_quantum(0, 1_000_000);
        let batch = twin.drain();
        assert!(batch.shed > 0);
        let events = inflated(&batch, policy);
        let (_, expected) = Sanitizer::new(SanitizerConfig::default()).sanitize(&events);
        assert_eq!(report.sanitize, expected, "{policy}");
        assert!(
            report.sanitize.time_travel > 0,
            "{policy}: {}",
            report.sanitize
        );
    }
}

/// The drained batch with the pipeline's Horvitz–Thompson weights: a
/// reservoir that shed scales every weight by the inverse keep rate.
fn inflated(batch: &DrainedBatch, policy: ShedPolicy) -> Vec<RawEvent> {
    let mut events = batch.events.clone();
    if !policy.is_biased() && batch.shed > 0 && !events.is_empty() {
        let inflate =
            ((batch.offered as f64 / events.len() as f64).round() as u32).clamp(1, 1 << 16);
        for e in &mut events {
            e.weight = e.weight.saturating_mul(inflate);
        }
    }
    events
}

/// Per-window event counts by brute force: every unit event of every
/// in-range run, one at a time.
fn brute_force_bins(train: &EventTrain, delta_t: u64, start: u64, end: u64) -> Vec<u64> {
    let windows = (end - start).div_ceil(delta_t) as usize;
    let mut counts = vec![0u64; windows];
    for (&time, &weight) in train.times().iter().zip(train.weights()) {
        if time < start || time >= end {
            continue;
        }
        for cycle in time..(time + u64::from(weight)).min(end) {
            counts[((cycle - start) / delta_t) as usize] += 1;
        }
    }
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    for c in counts {
        bins[(c as usize).min(HISTOGRAM_BINS - 1)] += 1;
    }
    bins
}

/// One seeded hostile quantum: in-tolerance reorders, time travel,
/// duplicates, zero-Δt packs past the limit, bad contexts, weights 0–3
/// (runs crossing windows) and events outside `[start, end)`.
fn random_stream(rng: &mut SmallRng, start: u64, end: u64, len: usize) -> Vec<RawEvent> {
    let span = end - start;
    let mut t = start.saturating_sub(span / 8);
    let mut out: Vec<RawEvent> = Vec::with_capacity(len);
    while out.len() < len {
        let e = raw(t, rng.gen_range(0..4u32), rng.gen_range(0..8u8));
        match rng.gen_range(0..16u32) {
            0 => out.push(raw(
                t.saturating_sub(rng.gen_range(1..=1_000)),
                e.weight,
                e.context,
            )),
            1 => out.push(raw(t.saturating_sub(rng.gen_range(1_001..50_000)), 1, 0)),
            2 => {
                out.push(e);
                out.push(e);
            }
            3 => {
                for i in 0..rng.gen_range(1..40u32) {
                    out.push(raw(t, 1 + i % 3, (i % 8) as u8));
                }
            }
            4 => out.push(raw(t, e.weight, rng.gen_range(8..=255u8))),
            _ => out.push(e),
        }
        t += rng.gen_range(0..span * 5 / (2 * len as u64) + 1);
    }
    out.truncate(len);
    out
}

/// The one-pass harvest equals the same quantum assembled from public
/// pieces — a twin queue's drain, `Sanitizer::sanitize`,
/// `DensityHistogram::from_train` and the `SaturatingHistogram` register
/// model — bit for bit, for every policy with and without shedding. The
/// shared windowing routine and the 16-bit clamp are also checked against
/// a brute-force count of every window, saturating cases included.
#[test]
fn one_pass_harvest_matches_the_piecewise_reference() {
    let sanitizer_config = SanitizerConfig {
        reorder_tolerance: 1_000,
        zero_dt_burst_limit: 24,
        ..SanitizerConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(0x000E_9A55);
    for case in 0..240u64 {
        let policy = POLICIES[(case % 3) as usize];
        let shedding = case % 2 == 1;
        // Every eighth case binds one-cycle windows over more than
        // `u16::MAX` of them, so the 16-bit clamp fires.
        let (delta_t, quantum) = if case % 8 == 7 {
            (1, 70_000)
        } else {
            (rng.gen_range(1..300u64), rng.gen_range(1_000..200_000u64))
        };
        let start = rng.gen_range(0..1_000_000u64);
        let end = start + quantum;
        let len = rng.gen_range(50..600usize);
        let capacity = if shedding { len / 3 + 1 } else { len };
        let config = IngestConfig {
            admission: AdmissionConfig { capacity, policy },
            sanitizer: sanitizer_config,
            delta_t,
            ..IngestConfig::default()
        };
        let mut p = IngestPipeline::new(config).unwrap();
        let mut twin = AdmissionQueue::new(config.admission).unwrap();
        // A warm quantum first, so reused storage is exercised too.
        for round in 0..2 {
            for e in random_stream(&mut rng, start, end, len) {
                p.offer(e);
                twin.offer(e);
            }
            let (harvest, report) = p.end_quantum(start, end);
            let batch = twin.drain();
            assert_eq!(report.shed > 0, shedding, "case {case}");

            let (train, sanitize) =
                Sanitizer::new(sanitizer_config).sanitize(&inflated(&batch, policy));
            let software = DensityHistogram::from_train(&train, delta_t, start, end).unwrap();
            let oracle = brute_force_bins(&train, delta_t, start, end);
            assert_eq!(software.bins(), &oracle[..], "case {case}: windowing");
            // The CC-auditor's registers: every bin clamps at `u16::MAX`,
            // and the flag is set once the window total passes it.
            let clamped: Vec<u64> = oracle.iter().map(|&b| b.min(u64::from(u16::MAX))).collect();
            let oracle_saturated = oracle.iter().sum::<u64>() > u64::from(u16::MAX);
            assert_eq!(
                oracle_saturated,
                quantum.div_ceil(delta_t) > u64::from(u16::MAX)
            );
            let mut hardware = SaturatingHistogram::new(delta_t).unwrap();
            hardware.accumulate(&software).unwrap();
            let (histogram, saturated) = hardware.finish();
            let shed_fraction = batch.shed_fraction();
            let mut lost = 1.0 - (1.0 - shed_fraction) * (1.0 - sanitize.lost_fraction());
            if saturated {
                lost = 1.0 - (1.0 - lost) * (1.0 - config.saturation_penalty);
            }
            let lost = lost.clamp(0.0, 1.0);
            let refused = policy.is_biased() && shed_fraction > config.bias_tolerance;

            let at = format!("case {case} round {round} {policy}");
            assert_eq!(report.offered, batch.offered, "{at}");
            assert_eq!(report.admitted, batch.events.len() as u64, "{at}");
            assert_eq!(report.shed, batch.shed, "{at}");
            assert_eq!(
                report.shed_fraction.to_bits(),
                shed_fraction.to_bits(),
                "{at}"
            );
            assert_eq!(report.policy, policy, "{at}");
            assert_eq!(report.sanitize, sanitize, "{at}");
            assert_eq!(report.saturated, saturated, "{at}");
            assert_eq!(saturated, oracle_saturated, "{at}");
            assert_eq!(histogram.bins(), &clamped[..], "{at}");
            assert_eq!(report.refused, refused, "{at}");
            let reported_lost = if refused { 1.0f64 } else { lost };
            assert_eq!(
                report.lost_fraction.to_bits(),
                reported_lost.to_bits(),
                "{at}"
            );
            match harvest {
                Harvest::Missed => assert!(refused, "{at}"),
                Harvest::Complete(h) => {
                    assert!(!refused && lost == 0.0, "{at}");
                    assert_eq!(h, histogram, "{at}");
                }
                Harvest::Partial {
                    histogram: h,
                    lost_fraction,
                } => {
                    assert!(!refused && lost > 0.0, "{at}");
                    assert_eq!(lost_fraction.to_bits(), lost.to_bits(), "{at}");
                    assert_eq!(h, histogram, "{at}");
                    assert_eq!(h.total_windows(), histogram.total_windows(), "{at}");
                }
            }
        }
    }
}

/// Long overlapping runs, on either side of the last bin's density, match
/// the brute-force count too: the windowing routine's settled-window
/// shortcut is exact.
#[test]
fn windowing_matches_brute_force_for_long_overlapping_runs() {
    let mut rng = SmallRng::seed_from_u64(0x7A11);
    for case in 0..150u64 {
        let delta_t = if case % 2 == 0 {
            rng.gen_range(1..8u64)
        } else {
            rng.gen_range(100..400u64)
        };
        let start = rng.gen_range(0..10_000u64);
        let end = start + delta_t * rng.gen_range(1..2_000u64) + rng.gen_range(0..delta_t);
        let mut train = EventTrain::new();
        let mut t = start.saturating_sub(500);
        for _ in 0..rng.gen_range(0..120usize) {
            t += rng.gen_range(0..(end - start) / 48 + 1);
            let weight = match rng.gen_range(0..4u32) {
                0 => 0,
                1 => rng.gen_range(1..4u32),
                2 => rng.gen_range(100..2_000u32),
                _ => rng.gen_range(1..200u32),
            };
            train.push(t, weight);
        }
        let h = DensityHistogram::from_train(&train, delta_t, start, end).unwrap();
        assert_eq!(
            h.bins(),
            &brute_force_bins(&train, delta_t, start, end)[..],
            "case {case}: Δt {delta_t} [{start}, {end})"
        );
        assert_eq!(h.total_windows(), (end - start).div_ceil(delta_t));
    }
}
