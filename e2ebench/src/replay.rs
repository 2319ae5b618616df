//! Kernel replays for the traced run: the inputs a workload actually fed
//! its sampled pairs are pushed again through the public scoring functions
//! at the workload's window size, timing each layer's call on its own.

use crate::harness::Recording;
use cc_hunter::detector::cluster::{discretized_features, kmeans};
use cc_hunter::detector::pipeline::symbol_series;
use cc_hunter::detector::supervisor::PairInput;
use cc_hunter::detector::{
    Autocorrelogram, BurstDetector, CcHunterConfig, Harvest, OnlineContentionDetector,
    OnlineOscillationDetector,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Mean wall time per call of each replayed kernel (0 when the workload
/// fed that kernel nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTimes {
    /// `OnlineContentionDetector::push_quantum`, µs.
    pub contention_push_us: f64,
    /// `BurstDetector::analyze`, ns.
    pub burst_analyze_ns: f64,
    /// `cluster::kmeans` over the window's bursty features, µs.
    pub kmeans_us: f64,
    /// `OnlineOscillationDetector::push_quantum_degraded`, µs.
    pub oscillation_push_us: f64,
    /// `Autocorrelogram::of_symbols`, µs.
    pub autocorr_us: f64,
}

#[derive(Default)]
struct Acc {
    ns: u128,
    calls: u64,
}

impl Acc {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        self.ns += t.elapsed().as_nanos();
        self.calls += 1;
        out
    }

    fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Replays every sampled sequence of `recording`. The first `warmup`
/// inputs of each sequence only rebuild window state; the rest are timed.
pub fn replay(
    recording: &Recording,
    config: CcHunterConfig,
    window: usize,
    warmup: usize,
) -> KernelTimes {
    let mut contention = Acc::default();
    let mut burst = Acc::default();
    let mut kmeans_acc = Acc::default();
    let mut oscillation = Acc::default();
    let mut autocorr = Acc::default();
    let detector = BurstDetector::new(config.burst);
    for seq in recording.sequences() {
        let is_contention = seq.iter().any(|i| matches!(i, PairInput::Harvest(_)));
        if is_contention {
            let Ok(mut daemon) = OnlineContentionDetector::new(config, window) else {
                continue;
            };
            // The window's bursty features, as the daemon keeps them.
            let mut features: VecDeque<Option<Vec<f64>>> = VecDeque::with_capacity(window);
            for (tick, input) in seq.iter().enumerate() {
                let harvest = match input {
                    PairInput::Harvest(h) => h.clone(),
                    _ => Harvest::Missed,
                };
                let timed = tick >= warmup;
                let feature = harvest.histogram().and_then(|h| {
                    let verdict = if timed {
                        burst.time(|| detector.analyze(h))
                    } else {
                        detector.analyze(h)
                    };
                    verdict.significant.then(|| discretized_features(h))
                });
                if features.len() == window {
                    features.pop_front();
                }
                features.push_back(feature);
                if timed {
                    contention.time(|| daemon.push_quantum(harvest));
                    let bursty: Vec<&[f64]> =
                        features.iter().filter_map(|f| f.as_deref()).collect();
                    if bursty.len() >= config.cluster.min_recurring {
                        let c = &config.cluster;
                        kmeans_acc.time(|| kmeans(&bursty, c.k, c.seed, c.max_iterations));
                    }
                } else {
                    daemon.push_quantum(harvest);
                }
            }
        } else {
            let Ok(mut daemon) = OnlineOscillationDetector::new(config, window) else {
                continue;
            };
            for (tick, input) in seq.iter().enumerate() {
                let timed = tick >= warmup;
                match input {
                    PairInput::Conflicts {
                        records,
                        lost_fraction,
                    } => {
                        if timed {
                            let series = symbol_series(records, 0, u64::MAX);
                            autocorr.time(|| Autocorrelogram::of_symbols(&series, config.max_lag));
                            oscillation
                                .time(|| daemon.push_quantum_degraded(records, *lost_fraction));
                        } else {
                            daemon.push_quantum_degraded(records, *lost_fraction);
                        }
                    }
                    _ => {
                        daemon.push_missed();
                    }
                }
            }
        }
    }
    KernelTimes {
        contention_push_us: contention.mean_ns() / 1e3,
        burst_analyze_ns: burst.mean_ns(),
        kmeans_us: kmeans_acc.mean_ns() / 1e3,
        oscillation_push_us: oscillation.mean_ns() / 1e3,
        autocorr_us: autocorr.mean_ns() / 1e3,
    }
}
