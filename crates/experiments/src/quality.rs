//! Detection-quality sweeps: channel × bandwidth × noise grids scored into
//! ROC curves, AUC, detection latency, and false-positive rate.
//!
//! The sweep runs each covert channel (bus, divider, cache) through the sim
//! at one or more bandwidths, slices the audited event trains and
//! conflict-miss records into fixed scoring windows, and scores them with
//! the paper's detector ([`CcHunterIndicator`]). The
//! negative class comes from the Figure 14 benign pairs under the same
//! audits and the same slicing. The noise axis replays the PR 1
//! [`cchunter_detector::fault::FaultInjector`] degradations
//! (dropped/truncated harvests, conflict corruption, clock jitter) over the
//! *same* sim artifacts, so adding a noise level costs no extra simulation.
//!
//! Everything is seeded: two runs with the same seed (default 42, override
//! `CCHUNTER_QUALITY_SEED`) emit byte-identical `QUALITY_detector.json`
//! artifacts. `CCHUNTER_QUALITY_QUICK=1` shrinks the grid to the CI-sized
//! quick sweep — the shape the committed baseline records.
//!
//! The `--check` gate (see [`compare`]) mirrors the bench gate's contract:
//! per-cell AUC floor, FP-rate ceiling and detection-latency bound against
//! the committed baseline, a baseline cell missing from the fresh sweep
//! fails (a silently dropped cell would blind the gate), and a fresh-only
//! cell is informational.

use crate::harness::{
    paper, run_benign_pair, run_bus, run_cache, run_divider, BenignArtifacts, ChannelArtifacts,
    RunOptions,
};
use cc_hunter::audit::TrackerKind;
use cc_hunter::channels::Message;
use cc_hunter::detector::auditor::ConflictRecord;
use cc_hunter::detector::pipeline::symbol_series;
use cc_hunter::detector::{
    CcHunterIndicator, DensityHistogram, EventTrain, FaultClass, FaultConfig, FaultInjector,
    WindowObservation,
};
use cchunter_bench::check::Json;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Online score at which the monitor alarms: detection latency counts
/// windows until the running score first reaches this, and the FP rate
/// counts benign windows spent at or above it.
pub const DECISION_THRESHOLD: f64 = 0.5;

/// Gate: a cell fails when its fresh AUC drops more than this below the
/// committed baseline.
pub const AUC_SLACK: f64 = 0.03;

/// Gate: a cell fails when its fresh FP rate exceeds
/// `max(baseline + FP_SLACK, FP_FLOOR)`.
pub const FP_SLACK: f64 = 0.05;

/// Gate: FP rates at or below this floor always pass (a 0.00 baseline must
/// not make a single noisy benign window a hard failure).
pub const FP_FLOOR: f64 = 0.05;

/// Gate: a cell fails when its detection latency grows more than this many
/// windows past the baseline's, or when it never alarms where the baseline
/// did.
pub const LATENCY_SLACK_WINDOWS: i64 = 1;

/// Whether the CI-sized quick sweep was requested via
/// `CCHUNTER_QUALITY_QUICK=1`.
pub fn quick_mode() -> bool {
    std::env::var("CCHUNTER_QUALITY_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// The sweep seed (`CCHUNTER_QUALITY_SEED`, default 42).
pub fn sweep_seed() -> u64 {
    std::env::var("CCHUNTER_QUALITY_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// The three channel families under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Memory-bus lock channel.
    Bus,
    /// Integer-divider contention channel.
    Divider,
    /// Shared-L2 conflict-miss channel.
    Cache,
}

impl Channel {
    /// Every channel family, sweep order.
    pub const ALL: [Channel; 3] = [Channel::Bus, Channel::Divider, Channel::Cache];

    /// Stable cell-key label.
    pub fn label(self) -> &'static str {
        match self {
            Channel::Bus => "bus",
            Channel::Divider => "divider",
            Channel::Cache => "cache",
        }
    }
}

/// The noise (fault-injection) axis of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseLevel {
    /// Clean harvests: no injected degradation.
    Off,
    /// Every fault class at 40% of its hostile-deployment rate.
    Mild,
    /// The full hostile-deployment profile ([`FaultConfig::default`]).
    Hostile,
}

impl NoiseLevel {
    /// Stable cell-key label.
    pub fn label(self) -> &'static str {
        match self {
            NoiseLevel::Off => "noise-off",
            NoiseLevel::Mild => "noise-mild",
            NoiseLevel::Hostile => "noise-hostile",
        }
    }

    /// The injector profile for this level, or `None` for clean harvests.
    pub fn fault_config(self) -> Option<FaultConfig> {
        match self {
            NoiseLevel::Off => None,
            NoiseLevel::Mild => {
                let hostile = FaultConfig::default();
                let mut mild = FaultConfig::none();
                for class in FaultClass::ALL {
                    mild.set_rate(class, hostile.rate(class) * 0.4);
                }
                Some(mild)
            }
            NoiseLevel::Hostile => Some(FaultConfig::default()),
        }
    }
}

/// The full sweep grid.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Quick (CI-sized) grid?
    pub quick: bool,
    /// Master seed: message bits, injector streams.
    pub seed: u64,
    /// Transmitted message length in bits.
    pub message_bits: usize,
    /// Scoring-window span in bit periods.
    pub window_bits: u64,
    /// Channel bandwidths to sweep, in bits/s.
    pub bandwidths_bps: Vec<f64>,
    /// Noise levels to sweep.
    pub noise_levels: Vec<NoiseLevel>,
    /// Figure 14 benign pairs supplying the negative class.
    pub benign_pairs: Vec<&'static str>,
    /// OS quanta to run each benign pair for.
    pub benign_quanta: usize,
}

impl SweepConfig {
    /// The grid for the current environment: quick honors
    /// `CCHUNTER_QUALITY_QUICK`, the seed `CCHUNTER_QUALITY_SEED`.
    ///
    /// Both shapes cover 3 channels × ≥2 noise levels; the full grid adds a
    /// second bandwidth, the mild noise level, and a second benign pair.
    pub fn from_env() -> Self {
        let quick = quick_mode();
        let seed = sweep_seed();
        if quick {
            SweepConfig {
                quick,
                seed,
                message_bits: 96,
                window_bits: 4,
                bandwidths_bps: vec![2000.0],
                noise_levels: vec![NoiseLevel::Off, NoiseLevel::Hostile],
                benign_pairs: vec!["stream_stream"],
                benign_quanta: 1,
            }
        } else {
            SweepConfig {
                quick,
                seed,
                message_bits: 160,
                window_bits: 4,
                bandwidths_bps: vec![1000.0, 2000.0],
                noise_levels: vec![NoiseLevel::Off, NoiseLevel::Mild, NoiseLevel::Hostile],
                benign_pairs: vec!["stream_stream", "mailserver_mailserver"],
                benign_quanta: 2,
            }
        }
    }
}

/// One grid cell's quality metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Area under the ROC curve of per-window scores (Mann–Whitney; ties
    /// credit 0.5). 1.0 = perfect separation, 0.5 = chance.
    pub auc: f64,
    /// Fraction of benign windows the online monitor spends alarming
    /// (running score ≥ [`DECISION_THRESHOLD`]).
    pub fp_rate: f64,
    /// Windows of online scoring until the channel run first alarms;
    /// -1 when it never does.
    pub detection_latency_windows: i64,
    /// Positive (channel) windows scored.
    pub positives: usize,
    /// Negative (benign) windows scored.
    pub negatives: usize,
    /// Downsampled ROC polyline as `(fpr, tpr)` points, (0,0) → (1,1).
    pub roc: Vec<(f64, f64)>,
}

/// A finished sweep: the content of `QUALITY_detector.json`.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Whether the quick grid produced this.
    pub quick: bool,
    /// The master seed.
    pub seed: u64,
    /// Metrics per cell key (`channel/b<bps>/<noise>/cchunter`).
    pub cells: BTreeMap<String, CellMetrics>,
}

/// FNV-1a of a cell-role key, folded with the master seed — the per-cell
/// injector seed, so every cell's fault stream is independent but fully
/// reproducible.
fn derive_seed(master: u64, key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ master
}

/// Slices an event train into scoring-window histogram observations,
/// optionally degraded by `injector`.
fn train_observations(
    train: &EventTrain,
    delta_t: u64,
    start: u64,
    end: u64,
    window_cycles: u64,
    mut injector: Option<&mut FaultInjector>,
) -> Vec<WindowObservation> {
    let mut out = Vec::new();
    let mut w_start = start;
    while w_start + window_cycles <= end {
        let w_end = w_start + window_cycles;
        let histogram =
            DensityHistogram::from_train(train, delta_t, w_start, w_end).expect("nonzero Δt");
        let obs = match injector.as_deref_mut() {
            Some(inj) => WindowObservation::from_harvest(&inj.perturb_harvest(histogram)),
            None => WindowObservation::from_histogram(histogram),
        };
        out.push(obs);
        w_start = w_end;
    }
    out
}

/// Slices conflict records into scoring-window symbol-series observations,
/// optionally degraded by `injector`.
fn conflict_observations(
    records: &[ConflictRecord],
    start: u64,
    end: u64,
    window_cycles: u64,
    mut injector: Option<&mut FaultInjector>,
) -> Vec<WindowObservation> {
    let mut out = Vec::new();
    let mut w_start = start;
    while w_start + window_cycles <= end {
        let w_end = w_start + window_cycles;
        let window_records: Vec<ConflictRecord> = records
            .iter()
            .filter(|r| r.cycle >= w_start && r.cycle < w_end)
            .copied()
            .collect();
        let (window_records, weight) = match injector.as_deref_mut() {
            Some(inj) => {
                let (perturbed, lost) = inj.perturb_conflicts(window_records);
                (perturbed, (1.0 - lost).clamp(0.0, 1.0))
            }
            None => (window_records, 1.0),
        };
        let symbols = symbol_series(&window_records, w_start, w_end);
        out.push(WindowObservation::from_symbols(symbols).with_weight(weight));
        w_start = w_end;
    }
    out
}

/// Mann–Whitney AUC of positive vs negative scores (ties credit 0.5).
pub fn mann_whitney_auc(positives: &[f64], negatives: &[f64]) -> f64 {
    if positives.is_empty() || negatives.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0f64;
    for &p in positives {
        for &n in negatives {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    wins / (positives.len() as f64 * negatives.len() as f64)
}

/// ROC polyline of per-window scores, downsampled to at most `max_points`
/// interior thresholds and anchored at (0,0) and (1,1).
pub fn roc_points(positives: &[f64], negatives: &[f64], max_points: usize) -> Vec<(f64, f64)> {
    let mut thresholds: Vec<f64> = positives.iter().chain(negatives).copied().collect();
    thresholds.sort_by(|a, b| b.total_cmp(a));
    thresholds.dedup();
    let frac_at = |scores: &[f64], t: f64| {
        if scores.is_empty() {
            0.0
        } else {
            scores.iter().filter(|&&s| s >= t).count() as f64 / scores.len() as f64
        }
    };
    let mut curve = vec![(0.0, 0.0)];
    let step = thresholds.len().max(1).div_ceil(max_points);
    for (i, &t) in thresholds.iter().enumerate() {
        if i % step.max(1) == 0 || i + 1 == thresholds.len() {
            curve.push((frac_at(negatives, t), frac_at(positives, t)));
        }
    }
    curve.push((1.0, 1.0));
    curve.dedup();
    curve
}

/// Scores one cell: per-window ROC/AUC plus online FP rate and latency.
fn score_cell(
    positives: &[WindowObservation],
    negative_runs: &[Vec<WindowObservation>],
) -> CellMetrics {
    let mut ind = CcHunterIndicator::default();

    // One-shot per-window scores: the ROC sample sets.
    let pos_scores: Vec<f64> = positives
        .iter()
        .map(|w| ind.score_sequence(std::slice::from_ref(w)))
        .collect();
    let neg_scores: Vec<f64> = negative_runs
        .iter()
        .flatten()
        .map(|w| ind.score_sequence(std::slice::from_ref(w)))
        .collect();

    // Online trace over the channel run: detection latency.
    ind.reset();
    let mut latency = -1i64;
    for (i, w) in positives.iter().enumerate() {
        if ind.push(w) >= DECISION_THRESHOLD && latency < 0 {
            latency = (i + 1) as i64;
        }
    }

    // Online trace over each benign run: fraction of windows spent alarming.
    let mut alarming = 0usize;
    let mut total = 0usize;
    for run in negative_runs {
        ind.reset();
        for w in run {
            if ind.push(w) >= DECISION_THRESHOLD {
                alarming += 1;
            }
            total += 1;
        }
    }
    let fp_rate = if total == 0 {
        0.0
    } else {
        alarming as f64 / total as f64
    };

    CellMetrics {
        auc: mann_whitney_auc(&pos_scores, &neg_scores),
        fp_rate,
        detection_latency_windows: latency,
        positives: pos_scores.len(),
        negatives: neg_scores.len(),
        roc: roc_points(&pos_scores, &neg_scores, 16),
    }
}

fn run_channel(channel: Channel, message: Message, bandwidth_bps: f64) -> ChannelArtifacts {
    let opts = RunOptions {
        collect_events: true,
        ..RunOptions::default()
    };
    match channel {
        Channel::Bus => run_bus(message, bandwidth_bps, &opts),
        Channel::Divider => run_divider(message, bandwidth_bps, &opts),
        Channel::Cache => run_cache(message, bandwidth_bps, 64, TrackerKind::Practical, &opts),
    }
}

/// The positive-class observations of one channel run under one noise
/// level.
fn positive_observations(
    channel: Channel,
    arts: &ChannelArtifacts,
    window_cycles: u64,
    injector: Option<&mut FaultInjector>,
) -> Vec<WindowObservation> {
    // Score from the bit-0 epoch so the idle pre-amble doesn't dilute the
    // first window, and stop at the last bit: the sim rounds the run up to
    // a whole OS quantum, and the idle tail past the message would flood
    // the positive class with windows nobody transmitted in.
    let start = RunOptions::default().epoch;
    let message_end = start + arts.bit_cycles * arts.message.len() as u64;
    let end = arts.data.end.min(message_end);
    match channel {
        Channel::Bus => train_observations(
            arts.bus_lock_train
                .as_ref()
                .expect("collect_events was set"),
            paper::BUS_DELTA_T,
            start,
            end,
            window_cycles,
            injector,
        ),
        Channel::Divider => train_observations(
            arts.divider_wait_train
                .as_ref()
                .expect("collect_events was set"),
            paper::DIV_DELTA_T,
            start,
            end,
            window_cycles,
            injector,
        ),
        Channel::Cache => {
            conflict_observations(&arts.data.conflicts, start, end, window_cycles, injector)
        }
    }
}

/// The negative-class observations of one benign run, sliced to the same
/// window shape as the cell's positives.
fn negative_observations(
    channel: Channel,
    benign: &BenignArtifacts,
    window_cycles: u64,
    injector: Option<&mut FaultInjector>,
) -> Vec<WindowObservation> {
    match channel {
        Channel::Bus => train_observations(
            &benign.bus_lock_train,
            paper::BUS_DELTA_T,
            benign.start,
            benign.end,
            window_cycles,
            injector,
        ),
        Channel::Divider => train_observations(
            &benign.divider_wait_train,
            paper::DIV_DELTA_T,
            benign.start,
            benign.end,
            window_cycles,
            injector,
        ),
        Channel::Cache => conflict_observations(
            &benign.conflicts,
            benign.start,
            benign.end,
            window_cycles,
            injector,
        ),
    }
}

/// Runs the whole grid. Simulation happens once per channel × bandwidth
/// (positives) and once per benign pair (negatives); the noise axis reuses
/// those artifacts.
pub fn run_sweep(config: &SweepConfig) -> SweepResult {
    let mut msg_rng = SmallRng::seed_from_u64(config.seed ^ 0xC0DE_CAFE);
    let message = Message::random(&mut msg_rng, config.message_bits);

    eprintln!(
        "quality sweep: {} channels × {} bandwidths × {} noise levels ({})",
        Channel::ALL.len(),
        config.bandwidths_bps.len(),
        config.noise_levels.len(),
        if config.quick { "quick" } else { "full" },
    );

    let benign: Vec<BenignArtifacts> = config
        .benign_pairs
        .iter()
        .enumerate()
        .map(|(i, label)| {
            eprintln!("  benign pair {label} ({} quanta)...", config.benign_quanta);
            run_benign_pair(label, config.benign_quanta, 4242 + i as u64)
        })
        .collect();

    let mut cells = BTreeMap::new();
    for channel in Channel::ALL {
        for &bw in &config.bandwidths_bps {
            eprintln!("  channel {} at {bw} bps...", channel.label());
            let arts = run_channel(channel, message.clone(), bw);
            let window_cycles = config.window_bits * arts.bit_cycles;
            for &noise in &config.noise_levels {
                let cell_base = format!("{}/b{}/{}", channel.label(), bw as u64, noise.label());
                let fault = noise.fault_config();
                let positives = {
                    let mut inj = fault.map(|c| {
                        FaultInjector::new(c, derive_seed(config.seed, &format!("{cell_base}/pos")))
                    });
                    positive_observations(channel, &arts, window_cycles, inj.as_mut())
                };
                let negative_runs: Vec<Vec<WindowObservation>> = benign
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        let mut inj = fault.map(|c| {
                            FaultInjector::new(
                                c,
                                derive_seed(config.seed, &format!("{cell_base}/neg{i}")),
                            )
                        });
                        negative_observations(channel, b, window_cycles, inj.as_mut())
                    })
                    .collect();
                let metrics = score_cell(&positives, &negative_runs);
                cells.insert(format!("{cell_base}/cchunter"), metrics);
            }
        }
    }
    SweepResult {
        quick: config.quick,
        seed: config.seed,
        cells,
    }
}

// ---------------------------------------------------------------------------
// Artifact serialization / parsing
// ---------------------------------------------------------------------------

impl SweepResult {
    /// Serializes as the diffable `QUALITY_detector.json` document: stable
    /// cell order (BTreeMap), fixed-precision floats.
    pub fn render_json(&self) -> String {
        let mut json = String::from("{\n");
        writeln!(json, "  \"quick\": {},", self.quick).expect("string write");
        writeln!(json, "  \"seed\": {},", self.seed).expect("string write");
        writeln!(json, "  \"decision_threshold\": {DECISION_THRESHOLD},").expect("string write");
        json.push_str("  \"cells\": {\n");
        for (i, (key, m)) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            let roc: Vec<String> = m
                .roc
                .iter()
                .map(|(fpr, tpr)| format!("[{fpr:.6}, {tpr:.6}]"))
                .collect();
            writeln!(
                json,
                "    \"{key}\": {{\"auc\": {:.6}, \"fp_rate\": {:.6}, \
                 \"detection_latency_windows\": {}, \"positives\": {}, \"negatives\": {}, \
                 \"roc\": [{}]}}{comma}",
                m.auc,
                m.fp_rate,
                m.detection_latency_windows,
                m.positives,
                m.negatives,
                roc.join(", ")
            )
            .expect("string write");
        }
        json.push_str("  }\n}\n");
        json
    }

    /// The headline table: best AUC per channel family at the clean noise
    /// level, for logs and EXPERIMENTS.md.
    pub fn render_headline(&self) -> String {
        let mut out = format!("{:<10} {:>10}\n", "channel", "auc");
        for channel in Channel::ALL {
            let best = self
                .cells
                .iter()
                .filter(|(k, _)| {
                    k.starts_with(&format!("{}/", channel.label())) && k.contains("/noise-off/")
                })
                .map(|(_, m)| m.auc)
                .fold(f64::NAN, f64::max);
            let auc = if best.is_nan() {
                "-".to_string()
            } else {
                format!("{best:.3}")
            };
            out.push_str(&format!("{:<10} {auc:>10}\n", channel.label()));
        }
        out
    }
}

/// The gated figures of one cell: `(auc, fp_rate,
/// detection_latency_windows)`.
pub type CellScores = (f64, f64, i64);

impl CellMetrics {
    /// The figures the gate compares.
    pub fn scores(&self) -> CellScores {
        (self.auc, self.fp_rate, self.detection_latency_windows)
    }
}

/// Extracts the gated figures per cell from a parsed
/// `QUALITY_detector.json`.
///
/// # Errors
///
/// Returns a description when the `cells` object is missing or malformed.
pub fn parse_cells(doc: &Json) -> Result<BTreeMap<String, CellScores>, String> {
    let cells = doc.get("cells").ok_or("no cells object")?;
    match cells {
        Json::Obj(entries) => entries
            .iter()
            .map(|(key, v)| {
                let auc = v
                    .get("auc")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("cell {key:?} has no numeric auc"))?;
                let fp = v
                    .get("fp_rate")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("cell {key:?} has no numeric fp_rate"))?;
                let latency = v
                    .get("detection_latency_windows")
                    .and_then(Json::as_f64)
                    .filter(|l| l.fract() == 0.0)
                    .ok_or_else(|| format!("cell {key:?} has no whole detection latency"))?;
                Ok((key.clone(), (auc, fp, latency as i64)))
            })
            .collect(),
        _ => Err("cells is not an object".to_string()),
    }
}

// ---------------------------------------------------------------------------
// The quality gate
// ---------------------------------------------------------------------------

/// One cell's standing in the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Within the AUC floor and FP ceiling.
    Ok,
    /// AUC dropped more than [`AUC_SLACK`] below baseline: gate fails.
    AucRegressed,
    /// FP rate rose past the ceiling: gate fails.
    FpRegressed,
    /// Detection came more than [`LATENCY_SLACK_WINDOWS`] windows later
    /// than the baseline's, or never where the baseline detected: gate
    /// fails.
    LatencyRegressed,
    /// In the baseline but absent from the fresh sweep: gate fails.
    MissingFresh,
    /// In the fresh sweep but not the baseline (new cell): informational,
    /// passes — the same semantics as the bench gate's new suites.
    New,
}

impl CellStatus {
    /// Whether this status fails the gate.
    pub fn fails(self) -> bool {
        matches!(
            self,
            CellStatus::AucRegressed
                | CellStatus::FpRegressed
                | CellStatus::LatencyRegressed
                | CellStatus::MissingFresh
        )
    }

    fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::AucRegressed => "AUC REGRESSED",
            CellStatus::FpRegressed => "FP REGRESSED",
            CellStatus::LatencyRegressed => "LATENCY REGRESSED",
            CellStatus::MissingFresh => "MISSING",
            CellStatus::New => "new (informational)",
        }
    }
}

/// One row of the quality-gate report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellComparison {
    /// Cell key.
    pub name: String,
    /// Baseline figures, if the cell is in the baseline.
    pub baseline: Option<CellScores>,
    /// Fresh figures, if the cell was just swept.
    pub fresh: Option<CellScores>,
    /// The verdict for this cell.
    pub status: CellStatus,
}

/// The whole quality gate's result.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Per-cell rows, baseline order first, then new cells.
    pub cells: Vec<CellComparison>,
}

impl QualityReport {
    /// Whether any cell fails the gate.
    pub fn failed(&self) -> bool {
        self.cells.iter().any(|c| c.status.fails())
    }

    /// Renders the per-cell report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9}  status\n",
            "cell", "base auc", "auc", "base fp", "fp", "base lat", "lat"
        ));
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.3}"),
            None => "-".to_string(),
        };
        let lat = |v: Option<CellScores>| v.map_or("-".to_string(), |v| v.2.to_string());
        for c in &self.cells {
            out.push_str(&format!(
                "{:<44} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9}  {}\n",
                c.name,
                fmt(c.baseline.map(|b| b.0)),
                fmt(c.fresh.map(|f| f.0)),
                fmt(c.baseline.map(|b| b.1)),
                fmt(c.fresh.map(|f| f.1)),
                lat(c.baseline),
                lat(c.fresh),
                c.status.as_str(),
            ));
        }
        let new = self
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::New)
            .count();
        let verdict = if self.failed() {
            format!(
                "FAIL: a cell lost more than {AUC_SLACK:.2} AUC, exceeded its FP ceiling, \
                 detected later or not at all, or went missing"
            )
        } else if new > 0 {
            format!(
                "ok: all baseline cells within AUC {AUC_SLACK:.2} / FP +{FP_SLACK:.2} / \
                 latency +{LATENCY_SLACK_WINDOWS}; {new} new cell(s) skipped (informational)"
            )
        } else {
            format!(
                "ok: all cells within AUC {AUC_SLACK:.2} / FP +{FP_SLACK:.2} / \
                 latency +{LATENCY_SLACK_WINDOWS}"
            )
        };
        out.push_str(&verdict);
        out.push('\n');
        out
    }
}

/// Compares a fresh sweep against the committed baseline: per cell, the
/// AUC floor, the FP ceiling and the detection-latency bound (a cell that
/// never alarms where the baseline did fails too).
///
/// A baseline cell missing from the fresh sweep fails (a silently dropped
/// cell would blind the gate); a fresh-only cell is reported as
/// `new (informational)` and passes — exactly the bench gate's
/// new-vs-missing distinction.
pub fn compare(
    baseline: &BTreeMap<String, CellScores>,
    fresh: &BTreeMap<String, CellMetrics>,
) -> QualityReport {
    let mut cells = Vec::new();
    for (name, &base) in baseline {
        let (base_auc, base_fp, base_latency) = base;
        let status = match fresh.get(name) {
            None => CellStatus::MissingFresh,
            Some(m) if m.auc < base_auc - AUC_SLACK => CellStatus::AucRegressed,
            Some(m) if m.fp_rate > (base_fp + FP_SLACK).max(FP_FLOOR) => CellStatus::FpRegressed,
            Some(m)
                if base_latency >= 0
                    && (m.detection_latency_windows < 0
                        || m.detection_latency_windows > base_latency + LATENCY_SLACK_WINDOWS) =>
            {
                CellStatus::LatencyRegressed
            }
            Some(_) => CellStatus::Ok,
        };
        cells.push(CellComparison {
            name: name.clone(),
            baseline: Some(base),
            fresh: fresh.get(name).map(CellMetrics::scores),
            status,
        });
    }
    for (name, m) in fresh {
        if !baseline.contains_key(name) {
            cells.push(CellComparison {
                name: name.clone(),
                baseline: None,
                fresh: Some(m.scores()),
                status: CellStatus::New,
            });
        }
    }
    QualityReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_of_perfect_separation_is_one() {
        let pos = [0.9, 0.8, 0.95];
        let neg = [0.1, 0.2, 0.05, 0.3];
        assert_eq!(mann_whitney_auc(&pos, &neg), 1.0);
        assert_eq!(mann_whitney_auc(&neg, &pos), 0.0);
    }

    #[test]
    fn auc_of_identical_distributions_is_half() {
        let scores = [0.3, 0.5, 0.7];
        assert_eq!(mann_whitney_auc(&scores, &scores), 0.5);
        assert_eq!(mann_whitney_auc(&[], &scores), 0.5);
    }

    #[test]
    fn roc_is_monotone_and_anchored() {
        let pos = [0.9, 0.7, 0.6, 0.55];
        let neg = [0.1, 0.4, 0.65, 0.2];
        let roc = roc_points(&pos, &neg, 16);
        assert_eq!(*roc.first().unwrap(), (0.0, 0.0));
        assert_eq!(*roc.last().unwrap(), (1.0, 1.0));
        for pair in roc.windows(2) {
            assert!(pair[1].0 >= pair[0].0, "fpr must be nondecreasing");
            assert!(pair[1].1 >= pair[0].1, "tpr must be nondecreasing");
        }
    }

    fn metrics(auc: f64, fp: f64) -> CellMetrics {
        CellMetrics {
            auc,
            fp_rate: fp,
            detection_latency_windows: 1,
            positives: 10,
            negatives: 10,
            roc: vec![(0.0, 0.0), (1.0, 1.0)],
        }
    }

    #[test]
    fn gate_distinguishes_new_from_missing() {
        let mut baseline = BTreeMap::new();
        baseline.insert("bus/b2000/noise-off/cchunter".to_string(), (0.95, 0.0, 1));
        baseline.insert("gone/cell".to_string(), (0.9, 0.0, 1));
        let mut fresh = BTreeMap::new();
        fresh.insert(
            "bus/b2000/noise-off/cchunter".to_string(),
            metrics(0.94, 0.02),
        );
        fresh.insert("brand/new/cell".to_string(), metrics(0.5, 0.5));
        let report = compare(&baseline, &fresh);
        let by_name = |n: &str| {
            report
                .cells
                .iter()
                .find(|c| c.name == n)
                .expect("row exists")
                .status
        };
        assert_eq!(by_name("bus/b2000/noise-off/cchunter"), CellStatus::Ok);
        assert_eq!(by_name("gone/cell"), CellStatus::MissingFresh);
        assert_eq!(by_name("brand/new/cell"), CellStatus::New);
        assert!(report.failed(), "a missing baseline cell must fail");
        assert!(!CellStatus::New.fails(), "a new cell must not fail");
        assert!(report.render().contains("new (informational)"));
    }

    #[test]
    fn gate_fails_on_auc_and_fp_regressions() {
        let mut baseline = BTreeMap::new();
        baseline.insert("a".to_string(), (0.95, 0.0, 1));
        baseline.insert("b".to_string(), (0.9, 0.1, 1));
        let mut fresh = BTreeMap::new();
        fresh.insert("a".to_string(), metrics(0.95 - AUC_SLACK - 0.01, 0.0));
        fresh.insert("b".to_string(), metrics(0.9, 0.1 + FP_SLACK + 0.01));
        let report = compare(&baseline, &fresh);
        assert_eq!(report.cells[0].status, CellStatus::AucRegressed);
        assert_eq!(report.cells[1].status, CellStatus::FpRegressed);
        assert!(report.failed());
    }

    #[test]
    fn gate_fp_floor_forgives_tiny_rates() {
        let mut baseline = BTreeMap::new();
        baseline.insert("a".to_string(), (0.95, 0.0, 1));
        let mut fresh = BTreeMap::new();
        fresh.insert("a".to_string(), metrics(0.96, FP_FLOOR - 0.01));
        assert!(!compare(&baseline, &fresh).failed());
    }

    /// The gate's status for a baseline latency of `base` windows and a
    /// fresh one of `latency`.
    fn latency_status(base: i64, latency: i64) -> CellStatus {
        let baseline = BTreeMap::from([("a".to_string(), (0.95, 0.0, base))]);
        let mut m = metrics(0.95, 0.0);
        m.detection_latency_windows = latency;
        let fresh = BTreeMap::from([("a".to_string(), m)]);
        compare(&baseline, &fresh).cells[0].status
    }

    #[test]
    fn gate_allows_one_window_of_latency_slack() {
        assert_eq!(latency_status(3, 2), CellStatus::Ok);
        assert_eq!(latency_status(3, 3), CellStatus::Ok);
        assert_eq!(latency_status(3, 3 + LATENCY_SLACK_WINDOWS), CellStatus::Ok);
    }

    #[test]
    fn gate_fails_a_cell_detected_two_windows_later() {
        let status = latency_status(3, 5);
        assert_eq!(status, CellStatus::LatencyRegressed);
        assert!(status.fails());
    }

    #[test]
    fn gate_fails_a_lost_detection_but_not_a_new_one() {
        assert_eq!(latency_status(3, -1), CellStatus::LatencyRegressed);
        assert_eq!(latency_status(-1, -1), CellStatus::Ok);
        assert_eq!(latency_status(-1, 7), CellStatus::Ok);
    }

    #[test]
    fn artifact_round_trips_through_the_gate_parser() {
        let mut cells = BTreeMap::new();
        cells.insert(
            "bus/b2000/noise-off/cchunter".to_string(),
            metrics(0.9375, 0.0625),
        );
        let result = SweepResult {
            quick: true,
            seed: 42,
            cells,
        };
        let json = result.render_json();
        let doc = cchunter_bench::check::parse_json(&json).expect("valid JSON");
        let parsed = parse_cells(&doc).expect("cells parse");
        let (auc, fp, latency) = parsed["bus/b2000/noise-off/cchunter"];
        assert!((auc - 0.9375).abs() < 1e-9);
        assert!((fp - 0.0625).abs() < 1e-9);
        assert_eq!(latency, 1);
        assert_eq!(
            doc.get("quick").and_then(Json::as_f64),
            None,
            "quick is a bool, not a number"
        );
    }

    #[test]
    fn derive_seed_is_stable_and_key_sensitive() {
        let a = derive_seed(42, "bus/b2000/noise-off/pos");
        let b = derive_seed(42, "bus/b2000/noise-off/pos");
        let c = derive_seed(42, "bus/b2000/noise-off/neg0");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
