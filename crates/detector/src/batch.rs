//! The batched analysis engine: one reused transform for every
//! autocorrelogram, lane-accumulated inner-loop kernels, and per-thread
//! scratch so auditing many pairs per tick stops paying per-pair setup.
//!
//! Three ingredients:
//!
//! * [`FftPlan`] — the one transform in production: a structure-of-arrays
//!   real-input FFT with fused radix-2² stages, a decimation-in-frequency
//!   forward pass and a decimation-in-time inverse (so no bit-reversal
//!   pass), and one half-spectrum untangle that squares the spectrum in
//!   place. [`BatchPlanner`] caches plans keyed by length and owns the
//!   scratch (packed signal, lag sums, symbols, coefficients), so a
//!   steady-state correlogram allocates nothing.
//! * Lane kernels ([`sq_dist`]) — fixed 4-wide accumulator loops in stable
//!   Rust that the autovectorizer lowers to packed SIMD. Every caller uses
//!   the same canonical reduction shape
//!   `(lane0 + lane1) + (lane2 + lane3) + tail`, so serial and parallel
//!   paths compute bit-identical results; the plain scalar forms
//!   ([`sq_dist_scalar`]) stay as property-test oracles.
//! * [`with_planner`] — a per-thread planner instance. The deterministic
//!   `par_map` fan-out and the fleet's shards run on persistent threads, so
//!   each keeps its own warm plan cache and scratch with no locking; the
//!   determinism contract is unaffected because plans are pure functions of
//!   the transform length.
//!
//! Symbol series (the oscillation detector's input) get exact integer lag
//! sums, so their correlograms are the same bits whichever path built them
//! (`BatchPlanner::symbol_coefficients`). The textbook radix-2 transform
//! in the test-only `fft` module is the transform's oracle.

use crate::DetectorError;
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{Add, Mul, Sub};

/// Lane width of the accumulator kernels.
///
/// Four `f64` lanes map to two SSE2 registers (the portable baseline) or a
/// single AVX register; measured on the reference host, 4 lanes beat both
/// the scalar loop (~2×) and an 8-lane variant (extra reduction latency
/// dominates at 128-element feature vectors).
pub const LANE_WIDTH: usize = 4;

/// Squared Euclidean distance between two equal-length vectors, computed
/// with [`LANE_WIDTH`] independent accumulator lanes.
///
/// The reduction shape is fixed — `(l0 + l1) + (l2 + l3) + tail` — so every
/// caller (k-means assignment, seeding, serial or parallel) sees the same
/// floating-point result. Agrees with [`sq_dist_scalar`] to ≤1e-9 relative
/// on the detector's feature scales (property-tested).
///
/// # Panics
///
/// Panics (in debug builds) if the lengths differ; in release the shorter
/// length governs.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_available() {
        // SAFETY: gated on runtime AVX2 detection.
        return unsafe { x86::sq_dist_avx2(a, b) };
    }
    sq_dist_portable(a, b)
}

/// The portable lowering of [`sq_dist`]: stable-Rust 4-lane loop the
/// autovectorizer maps onto the baseline SIMD width (two SSE2 registers on
/// x86-64). The AVX2 path is bit-identical — one 256-bit register holds
/// exactly these four lanes — so which lowering runs never affects results.
pub(crate) fn sq_dist_portable(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist length mismatch");
    let n = a.len().min(b.len());
    let main = n - n % LANE_WIDTH;
    let mut lanes = [0.0f64; LANE_WIDTH];
    for (ca, cb) in a[..main]
        .chunks_exact(LANE_WIDTH)
        .zip(b[..main].chunks_exact(LANE_WIDTH))
    {
        for l in 0..LANE_WIDTH {
            let d = ca[l] - cb[l];
            lanes[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[main..n].iter().zip(&b[main..n]) {
        let d = x - y;
        tail += d * d;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// The straight-line scalar reference for [`sq_dist`]: one accumulator,
/// strict left-to-right summation. Kept as the property-test oracle.
pub fn sq_dist_scalar(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Element-wise `dst[i] += weight * src[i]` over the common prefix — the
/// k-means centroid update, which adds each distinct string times its
/// multiplicity. Each element's multiply and add are independent (no
/// reduction, no reassociation), so every lowering is bit-identical by
/// construction; the AVX2 path just does four at a time.
pub(crate) fn add_scaled(dst: &mut [f64], src: &[f64], weight: f64) {
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_available() {
        // SAFETY: gated on runtime AVX2 detection.
        unsafe { x86::add_scaled_avx2(dst, src, weight) };
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d += weight * s;
    }
}

/// How many [`LANE_WIDTH`] chunks the bounded kernels accumulate between
/// cutoff checks: often enough to abandon early, rarely enough that the
/// horizontal-reduction cost of the check stays invisible. Shared by the
/// portable and AVX2 lowerings so their abandonment points coincide.
const CHECK_EVERY: usize = 8;

/// [`sq_dist`] with early abandonment: returns as soon as the partial sum
/// strictly exceeds `cutoff`. Partial sums of squares are nondecreasing, so
/// an abandoned distance is guaranteed `> cutoff`; the returned partial is
/// only meaningful for that comparison. When the full distance is
/// `<= cutoff` the result is bit-identical to [`sq_dist`] (same lanes, same
/// reduction), which is what lets the k-means nearest-centroid search use
/// this without perturbing assignments or tie-breaks.
pub(crate) fn sq_dist_bounded(a: &[f64], b: &[f64], cutoff: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_available() {
        // SAFETY: gated on runtime AVX2 detection.
        return unsafe { x86::sq_dist_bounded_avx2(a, b, cutoff) };
    }
    sq_dist_bounded_portable(a, b, cutoff)
}

/// Portable lowering of [`sq_dist_bounded`]; see [`sq_dist_portable`].
pub(crate) fn sq_dist_bounded_portable(a: &[f64], b: &[f64], cutoff: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist length mismatch");
    let n = a.len().min(b.len());
    let main = n - n % LANE_WIDTH;
    let mut lanes = [0.0f64; LANE_WIDTH];
    let mut since_check = 0usize;
    for (ca, cb) in a[..main]
        .chunks_exact(LANE_WIDTH)
        .zip(b[..main].chunks_exact(LANE_WIDTH))
    {
        for l in 0..LANE_WIDTH {
            let d = ca[l] - cb[l];
            lanes[l] += d * d;
        }
        since_check += 1;
        if since_check == CHECK_EVERY {
            since_check = 0;
            let partial = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            if partial > cutoff {
                return partial;
            }
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[main..n].iter().zip(&b[main..n]) {
        let d = x - y;
        tail += d * d;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// Up to this many centroids the fused distance kernel handles in one pass;
/// the k-means assignment loop falls back to per-centroid [`sq_dist`] calls
/// for larger k (the detector's configs use k = 3).
pub(crate) const MAX_FUSED_K: usize = 4;

/// Squared distances from `point` to up to [`MAX_FUSED_K`] centroids,
/// computed in a single pass over `point`: each chunk of the point row is
/// loaded once and folded into every centroid's accumulator lanes, instead
/// of re-streaming the row per centroid. `out[j]` receives the distance to
/// `centroids[j]`; slots past `centroids.len()` are left untouched.
///
/// Each centroid's sum performs exactly the operations of [`sq_dist`] — the
/// same lane assignment per element, the same individually-rounded
/// subtract/multiply/add, the same `(l0 + l1) + (l2 + l3) + tail` reduction
/// — merely interleaved with the other centroids' arithmetic. Interleaving
/// independent accumulators changes no operand of any floating-point
/// operation, so `out[j]` is bit-identical to `sq_dist(point, &centroids[j])`
/// (asserted in the kernel equivalence tests).
///
/// # Panics
///
/// Panics (in debug builds) when `centroids.len() > MAX_FUSED_K` or any
/// centroid's length differs from the point's; release builds take the
/// shorter length per centroid like [`sq_dist`].
pub(crate) fn sq_dists_fused<C: AsRef<[f64]>>(
    point: &[f64],
    centroids: &[C],
    out: &mut [f64; MAX_FUSED_K],
) {
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_available() {
        // SAFETY: gated on runtime AVX2 detection.
        unsafe { x86::sq_dists_fused_avx2(point, centroids, out) };
        return;
    }
    sq_dists_fused_portable(point, centroids, out)
}

/// Portable lowering of [`sq_dists_fused`]; see [`sq_dist_portable`]. The
/// chunk loop is outermost — one pass over the point row folds into every
/// centroid's lanes — with a per-centroid [`sq_dist_portable`] fallback for
/// ragged lengths (which [`kmeans`](crate::cluster::kmeans) never produces).
pub(crate) fn sq_dists_fused_portable<C: AsRef<[f64]>>(
    point: &[f64],
    centroids: &[C],
    out: &mut [f64; MAX_FUSED_K],
) {
    debug_assert!(centroids.len() <= MAX_FUSED_K, "too many fused centroids");
    let k = centroids.len().min(MAX_FUSED_K);
    let n = point.len();
    if centroids.iter().take(k).any(|c| c.as_ref().len() != n) {
        debug_assert!(false, "sq_dist length mismatch");
        for (o, c) in out.iter_mut().zip(centroids) {
            *o = sq_dist_portable(point, c.as_ref());
        }
        return;
    }
    let main = n - n % LANE_WIDTH;
    let mut lanes = [[0.0f64; LANE_WIDTH]; MAX_FUSED_K];
    let mut base = 0usize;
    while base < main {
        let p = &point[base..base + LANE_WIDTH];
        for (j, lane) in lanes.iter_mut().enumerate().take(k) {
            let c = &centroids[j].as_ref()[base..base + LANE_WIDTH];
            for l in 0..LANE_WIDTH {
                let d = p[l] - c[l];
                lane[l] += d * d;
            }
        }
        base += LANE_WIDTH;
    }
    for (j, lane) in lanes.iter().enumerate().take(k) {
        let c = centroids[j].as_ref();
        let mut tail = 0.0;
        for (x, y) in point[main..n].iter().zip(&c[main..n]) {
            let d = x - y;
            tail += d * d;
        }
        out[j] = (lane[0] + lane[1]) + (lane[2] + lane[3]) + tail;
    }
}

/// AVX2 lowerings of the lane kernels, used when the running CPU has them.
///
/// Bit-identity argument: the portable kernels keep [`LANE_WIDTH`] = 4
/// independent `f64` accumulators, adding `(a[4c+l] - b[4c+l])²` to lane
/// `l` on chunk `c`. One 256-bit register *is* those four lanes, and
/// `vsubpd`/`vmulpd`/`vaddpd` perform the identical individually-rounded
/// operations per lane in the identical order (no FMA — a fused
/// multiply-add would round differently). The final horizontal reduction
/// uses the same canonical `(l0 + l1) + (l2 + l3) + tail` shape, and the
/// bounded variant checks the cutoff at the same chunk boundaries, so the
/// dispatch is unobservable in results (property-tested against the
/// portable forms).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{CHECK_EVERY, LANE_WIDTH};
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd,
    };

    /// AVX2 [`super::add_scaled`]: packed multiplies and adds (not fused,
    /// so each rounds as the portable loop's does), no reduction.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 ([`avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_scaled_avx2(dst: &mut [f64], src: &[f64], weight: f64) {
        let n = dst.len().min(src.len());
        let main = n - n % LANE_WIDTH;
        let w = _mm256_set1_pd(weight);
        let mut i = 0usize;
        while i < main {
            // SAFETY: i + LANE_WIDTH <= main <= both slice lengths.
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            let s = _mm256_mul_pd(w, _mm256_loadu_pd(src.as_ptr().add(i)));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_add_pd(d, s));
            i += LANE_WIDTH;
        }
        for (d, s) in dst[main..n].iter_mut().zip(&src[main..n]) {
            *d += weight * s;
        }
    }

    /// AVX2 lowering of [`super::lean_lag_sums`]: the portable loop,
    /// compiled for 256-bit registers. Integer sums are exact in any
    /// lowering.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 ([`avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn lean_lag_sums_avx2(x: &[u8], n: usize, lags: usize, out: &mut Vec<i64>) {
        super::lean_lag_sums_portable(x, n, lags, out);
    }

    /// Whether the running CPU supports AVX2 (the detection result is
    /// cached by the standard library; this is an atomic load after the
    /// first call).
    #[inline]
    pub fn avx2_available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// AVX2 [`super::sq_dist`]; bit-identical to [`super::sq_dist_portable`].
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 ([`avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dist_avx2(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "sq_dist length mismatch");
        let n = a.len().min(b.len());
        let main = n - n % LANE_WIDTH;
        let mut acc = _mm256_setzero_pd();
        let mut i = 0usize;
        while i < main {
            // SAFETY: i + LANE_WIDTH <= main <= both slice lengths.
            let va = _mm256_loadu_pd(a.as_ptr().add(i));
            let vb = _mm256_loadu_pd(b.as_ptr().add(i));
            let d = _mm256_sub_pd(va, vb);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
            i += LANE_WIDTH;
        }
        let mut lanes = [0.0f64; LANE_WIDTH];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0;
        for (x, y) in a[main..n].iter().zip(&b[main..n]) {
            let d = x - y;
            tail += d * d;
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
    }

    /// AVX2 [`super::sq_dists_fused`]: one pass over the point row with up
    /// to [`super::MAX_FUSED_K`] accumulator registers, each performing the
    /// exact per-lane operations of [`sq_dist_avx2`] for its centroid.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 ([`avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dists_fused_avx2<C: AsRef<[f64]>>(
        point: &[f64],
        centroids: &[C],
        out: &mut [f64; super::MAX_FUSED_K],
    ) {
        debug_assert!(
            centroids.len() <= super::MAX_FUSED_K,
            "too many fused centroids"
        );
        let k = centroids.len().min(super::MAX_FUSED_K);
        let n = point.len();
        if centroids.iter().take(k).any(|c| c.as_ref().len() != n) {
            debug_assert!(false, "sq_dist length mismatch");
            for (o, c) in out.iter_mut().zip(centroids) {
                *o = sq_dist_avx2(point, c.as_ref());
            }
            return;
        }
        let main = n - n % LANE_WIDTH;
        let mut acc = [_mm256_setzero_pd(); super::MAX_FUSED_K];
        let mut i = 0usize;
        while i < main {
            // SAFETY: i + LANE_WIDTH <= main <= every slice length.
            let p = _mm256_loadu_pd(point.as_ptr().add(i));
            for (j, a) in acc.iter_mut().enumerate().take(k) {
                let c = _mm256_loadu_pd(centroids[j].as_ref().as_ptr().add(i));
                let d = _mm256_sub_pd(p, c);
                *a = _mm256_add_pd(*a, _mm256_mul_pd(d, d));
            }
            i += LANE_WIDTH;
        }
        for (j, a) in acc.iter().enumerate().take(k) {
            let mut lanes = [0.0f64; LANE_WIDTH];
            _mm256_storeu_pd(lanes.as_mut_ptr(), *a);
            let c = centroids[j].as_ref();
            let mut tail = 0.0;
            for (x, y) in point[main..n].iter().zip(&c[main..n]) {
                let d = x - y;
                tail += d * d;
            }
            out[j] = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail;
        }
    }

    /// AVX2 [`super::sq_dist_bounded`]; abandons at the same chunk
    /// boundaries with the same partial sums as the portable form.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 ([`avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dist_bounded_avx2(a: &[f64], b: &[f64], cutoff: f64) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "sq_dist length mismatch");
        let n = a.len().min(b.len());
        let main = n - n % LANE_WIDTH;
        let mut acc = _mm256_setzero_pd();
        let mut lanes = [0.0f64; LANE_WIDTH];
        let mut since_check = 0usize;
        let mut i = 0usize;
        while i < main {
            // SAFETY: i + LANE_WIDTH <= main <= both slice lengths.
            let va = _mm256_loadu_pd(a.as_ptr().add(i));
            let vb = _mm256_loadu_pd(b.as_ptr().add(i));
            let d = _mm256_sub_pd(va, vb);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
            i += LANE_WIDTH;
            since_check += 1;
            if since_check == CHECK_EVERY {
                since_check = 0;
                _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
                let partial = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
                if partial > cutoff {
                    return partial;
                }
            }
        }
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0;
        for (x, y) in a[main..n].iter().zip(&b[main..n]) {
            let d = x - y;
            tail += d * d;
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
    }
}

/// Below this `n × lags` volume the direct lag-product loop beats the
/// transform's constant factor; above it correlograms go through [`FftPlan`].
pub(crate) const NAIVE_CUTOFF: usize = 1 << 14;

/// Symbol series whose energy `Σx²` exceeds this take the direct integer
/// loop at any volume, so the transform's rounding stays exact (see
/// [`BatchPlanner::exact_lag_sums`]). It is the largest energy the
/// exactness test covers, 2¹⁶ symbols of 255; real series (symbols below
/// 64, a few thousand of them) sit far under it. It is also below 2³², so
/// every lag sum of a series under it fits a `u32` (no `Sₖ` exceeds `Σx²`).
const EXACT_FFT_ENERGY: u64 = (1 << 16) * 255 * 255;

/// The longest symbol series whose correlogram is centred in `i64`: with
/// n ≤ 2¹⁵ symbols of at most 255, every intermediate of [`centre`] stays
/// below 2·255²·n³ < 2⁶³. Longer series centre in `i128`.
const I64_CENTRING_MAX: usize = 1 << 15;

/// The integers [`centre`] works in.
trait Centring:
    Copy + From<i64> + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self>
{
    fn to_f64(self) -> f64;
}

impl Centring for i64 {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Centring for i128 {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

/// Appends the coefficient `n²Cₖ / denom` of every exact lag sum `Sₖ` in
/// `sums` to `out`, centring in `T` (see
/// [`BatchPlanner::symbol_coefficients`]); `total` is `Σx` of `symbols`.
/// An integer converts to `f64` the same way from either width, so both
/// give the same bits wherever `T` holds every intermediate.
fn centre<T: Centring>(symbols: &[u8], sums: &[i64], total: i64, denom: f64, out: &mut Vec<f64>) {
    let n = symbols.len();
    let (len, total) = (T::from(n as i64), T::from(total));
    let (square, cross, offset) = (len * len, len * total, total * total);
    let (mut head, mut tail) = (total, total);
    for (k, &sum) in sums.iter().enumerate() {
        let rows = len - T::from(k as i64);
        let centred = square * T::from(sum) - cross * (head + tail) + rows * offset;
        out.push(centred.to_f64() / denom);
        head = head - T::from(i64::from(symbols[n - 1 - k]));
        tail = tail - T::from(i64::from(symbols[k]));
    }
}

/// A cached transform plan for one real length `n` (a power of two ≥ 2).
///
/// The `n/2`-point complex transform keeps its data as structure-of-arrays
/// (separate real and imaginary slices), so every butterfly loop walks
/// contiguous `f64`s the autovectorizer can pack. Its forward pass runs in
/// decimation-in-frequency order (natural in, bit-reversed out) and its
/// inverse in decimation-in-time order (bit-reversed in, natural out), two
/// radix-2 stages fused per pass, so no bit-reversal pass is made: the
/// spectrum is touched in between only by one pass that untangles the real
/// input's half-spectrum, squares it and re-tangles it for the inverse.
#[derive(Debug, Clone)]
pub struct FftPlan {
    /// Real transform length.
    n: usize,
    /// Per radix-2² stage, largest quarter `q` first (`n/8`, `n/32`, …):
    /// the turns `w^2j`, `w^j`, `w^3j` of outputs 1–3 (`j < q`,
    /// `w = e^{-iτ/4q}`), each as `q` real then `q` imaginary parts.
    twiddles: Vec<f64>,
    /// `(cos, sin)(τk/n)` of the bin at each position of the lower half of
    /// a bit-reversed block, blocks `b..2b` in order (see
    /// [`power_spectrum`](Self::power_spectrum)).
    untangle: Vec<[f64; 2]>,
}

impl FftPlan {
    /// Builds the plan for real transform length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `n` is not a power of
    /// two ≥ 2.
    pub fn new(n: usize) -> Result<Self, DetectorError> {
        if n < 2 || !n.is_power_of_two() {
            return Err(DetectorError::invalid(format!(
                "real FFT length must be a power of two >= 2, got {n}"
            )));
        }
        Ok(Self::build(n))
    }

    fn build(n: usize) -> Self {
        let (m, bits) = (n / 2, (n / 2).trailing_zeros());
        let turn = |k: usize, of: usize| (std::f64::consts::TAU * k as f64 / of as f64).sin_cos();
        let mut twiddles = Vec::new();
        for q in (0..bits / 2).map(|stage| m >> (2 * stage + 2)) {
            for power in [2, 1, 3] {
                let (sin, cos): (Vec<f64>, Vec<f64>) =
                    (0..q).map(|j| turn(power * j, 4 * q)).unzip();
                twiddles.extend(cos.into_iter().chain(sin.into_iter().map(|s| -s)));
            }
        }
        let untangle = (1..bits)
            .flat_map(|j| (1usize << j)..(3 << j >> 1))
            .map(|p| turn(p.reverse_bits() >> (usize::BITS - bits), n))
            .map(|(s, c)| [c, s])
            .collect();
        FftPlan {
            n,
            twiddles,
            untangle,
        }
    }

    /// The real transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Plans are never built for length 0; kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Overwrites `re`/`im` (`n/2` points each: the real signal's even
    /// samples in `re`, its odd ones in `im`) with its autocorrelation,
    /// circular over `n` and scaled by `4n`: even lags in `re`, odd in `im`.
    fn autocorrelate(&self, re: &mut [f64], im: &mut [f64]) {
        let m = self.n / 2;
        let odd = m.trailing_zeros() % 2 == 1;
        let (mut q, mut at) = (m / 4, 0);
        while q > 0 {
            radix4::<false>(re, im, &self.twiddles[at..at + 6 * q]);
            (at, q) = (at + 6 * q, q / 4);
        }
        if odd {
            radix2(re, im);
        }
        self.power_spectrum(re, im);
        if odd {
            radix2(re, im);
        }
        let mut q = if odd { 2 } else { 1 };
        while 4 * q <= m {
            radix4::<true>(re, im, &self.twiddles[at - 6 * q..at]);
            (at, q) = (at - 6 * q, q * 4);
        }
    }

    /// The one pass over the spectrum, in bit-reversed order. Bins `k` and
    /// `m − k` of the packed transform give the real spectrum's `X[k]` and
    /// `X[m − k]`; their squared magnitudes (the power spectrum) are
    /// re-tangled in place into the inverse's bins `k` and `m − k`.
    ///
    /// Positions 0 and 1 hold bins 0 and `m/2`, each its own partner. Any
    /// other bin sits in a block `b..2b` whose positions all reverse to
    /// odd multiples of `m/2b`, as does its partner, mirrored: position
    /// `b + t` pairs with `2b − 1 − t`. So the pass walks each block's two
    /// halves from both ends.
    fn power_spectrum(&self, re: &mut [f64], im: &mut [f64]) {
        let m = self.n / 2;
        [(re[0], im[0])] = power_pair([(re[0], im[0])], [1.0, 0.0]);
        if m > 1 {
            [(re[1], im[1])] = power_pair([(re[1], im[1])], [0.0, 1.0]);
        }
        let mut b = 2;
        while b < m {
            let (rl, rh) = re[b..2 * b].split_at_mut(b / 2);
            let (il, ih) = im[b..2 * b].split_at_mut(b / 2);
            let low = rl.iter_mut().zip(il);
            let high = rh.iter_mut().rev().zip(ih.iter_mut().rev());
            for (((rp, ip), (rr, ir)), &tw) in low.zip(high).zip(&self.untangle[b / 2 - 1..]) {
                [(*rp, *ip), (*rr, *ir)] = power_pair([(*rp, *ip), (*rr, *ir)], tw);
            }
            b *= 2;
        }
    }
}

/// [`FftPlan::power_spectrum`] for bin `k` at `z[0]` and bin `m − k` at
/// `z[N − 1]` (the same bin when `N` is 1), given `(cos, sin)(τk/n)`:
/// `2X = 2E ± 2W^k·O` from the even and odd samples' spectra `E`, `O`, and
/// every constant factor left for the caller's final scale.
#[inline(always)]
fn power_pair<const N: usize>(mut z: [Cx; N], [c, s]: [f64; 2]) -> [Cx; N] {
    let ((ar, ai), (br, bi)) = (z[0], z[N - 1]);
    let (er, ei, or, oi) = (ar + br, ai - bi, ai + bi, br - ar);
    let (tr, ti) = (c * or + s * oi, c * oi - s * or);
    let near = (er + tr) * (er + tr) + (ei + ti) * (ei + ti);
    let far = (er - tr) * (er - tr) + (ti - ei) * (ti - ei);
    let (sum, diff) = (near + far, near - far);
    z[N - 1] = (sum + diff * s, diff * c);
    z[0] = (sum - diff * s, diff * c);
    z
}

/// A complex value as `(re, im)`.
type Cx = (f64, f64);

/// `z · w`.
#[inline(always)]
fn turned((r, i): Cx, (wr, wi): Cx) -> Cx {
    (r * wr - i * wi, r * wi + i * wr)
}

/// The radix-2² butterfly: two radix-2 decimation-in-frequency butterflies
/// (spans `2q` and `q`) with the inner one's `−i` folded in, then outputs
/// 1–3 turned by `w`. The inverse runs it backwards (decimation in time)
/// with conjugated turns, to 4 times its input.
#[inline(always)]
fn butterfly<const INVERSE: bool>([x0, x1, x2, x3]: [Cx; 4], w: [Cx; 3]) -> [Cx; 4] {
    let add = |a: Cx, b: Cx| (a.0 + b.0, a.1 + b.1);
    let sub = |a: Cx, b: Cx| (a.0 - b.0, a.1 - b.1);
    let rot = |(r, i): Cx| (i, -r); // · −i
    if INVERSE {
        let conj = |(x, (wr, wi)): (Cx, Cx)| turned(x, (wr, -wi));
        let [u1, u2, u3] = [(x1, w[0]), (x2, w[1]), (x3, w[2])].map(conj);
        let (a, b, c, d) = (add(x0, u1), sub(x0, u1), add(u2, u3), rot(sub(u3, u2)));
        return [add(a, c), add(b, d), sub(a, c), sub(b, d)];
    }
    let (t0, t1, t2, t3) = (add(x0, x2), sub(x0, x2), add(x1, x3), rot(sub(x1, x3)));
    let [y1, y2, y3] = [sub(t0, t2), add(t1, t3), sub(t1, t3)];
    [
        add(t0, t2),
        turned(y1, w[0]),
        turned(y2, w[1]),
        turned(y3, w[2]),
    ]
}

/// One radix-2² stage over blocks of `4q`. The last forward stage
/// (`q = 1`) has only unit turns and runs as a plain loop over 4-point
/// blocks.
fn radix4<const INVERSE: bool>(re: &mut [f64], im: &mut [f64], tw: &[f64]) {
    let q = tw.len() / 6;
    if q == 1 {
        for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
            let x = [(r[0], i[0]), (r[1], i[1]), (r[2], i[2]), (r[3], i[3])];
            let y = butterfly::<INVERSE>(x, [(1.0, 0.0); 3]);
            (r[0], r[1], r[2], r[3]) = (y[0].0, y[1].0, y[2].0, y[3].0);
            (i[0], i[1], i[2], i[3]) = (y[0].1, y[1].1, y[2].1, y[3].1);
        }
        return;
    }
    let (w0, tw) = tw.split_at(q);
    let (w1, tw) = tw.split_at(q);
    let (w2, tw) = tw.split_at(q);
    let (w3, tw) = tw.split_at(q);
    let (w4, w5) = tw.split_at(q);
    let w5 = &w5[..q];
    for (re, im) in re.chunks_exact_mut(4 * q).zip(im.chunks_exact_mut(4 * q)) {
        let ([r0, r1, r2, r3], [i0, i1, i2, i3]) = (quarters(re, q), quarters(im, q));
        for j in 0..q {
            let x = [
                (r0[j], i0[j]),
                (r1[j], i1[j]),
                (r2[j], i2[j]),
                (r3[j], i3[j]),
            ];
            let y = butterfly::<INVERSE>(x, [(w0[j], w1[j]), (w2[j], w3[j]), (w4[j], w5[j])]);
            ((r0[j], i0[j]), (r1[j], i1[j])) = (y[0], y[1]);
            ((r2[j], i2[j]), (r3[j], i3[j])) = (y[2], y[3]);
        }
    }
}

/// The span-1 radix-2 stage an odd `log₂(n/2)` leaves over; it is its own
/// inverse up to a factor of 2.
fn radix2(re: &mut [f64], im: &mut [f64]) {
    for pair in re.chunks_exact_mut(2).chain(im.chunks_exact_mut(2)) {
        (pair[0], pair[1]) = (pair[0] + pair[1], pair[0] - pair[1]);
    }
}

/// A `4q` block as its four quarters.
fn quarters(block: &mut [f64], q: usize) -> [&mut [f64]; 4] {
    let (a, rest) = block.split_at_mut(q);
    let (b, rest) = rest.split_at_mut(q);
    let (c, d) = rest.split_at_mut(q);
    [a, b, c, &mut d[..q]]
}

/// Bytes [`dot_blocks`] multiplies at once: four `u32x4` lanes on the
/// baseline x86-64 vector width.
const BYTE_LANES: usize = 16;

/// The exact sum `Σᵢ a[i]·b[i]` of two byte series of whole
/// [`BYTE_LANES`] blocks. A byte product fits a `u16`, and a lane sums at
/// most 2¹² of them per 64 KiB chunk, so the lanes accumulate in `u32`s
/// the autovectorizer can pack.
fn dot_blocks(a: &[u8], b: &[u8]) -> u64 {
    debug_assert!(a.len() == b.len() && a.len().is_multiple_of(BYTE_LANES));
    let chunk_sum = |(a, b): (&[u8], &[u8])| {
        let mut lanes = [0u32; BYTE_LANES];
        for (a, b) in a.chunks_exact(BYTE_LANES).zip(b.chunks_exact(BYTE_LANES)) {
            for l in 0..BYTE_LANES {
                lanes[l] += u32::from(u16::from(a[l]) * u16::from(b[l]));
            }
        }
        lanes.iter().map(|&l| u64::from(l)).sum::<u64>()
    };
    let chunks = a.chunks(1 << 16).zip(b.chunks(1 << 16));
    chunks.map(chunk_sum).sum()
}

/// The exact lag sums `Sₖ = Σᵢ xᵢxᵢ₊ₖ`, `k ∈ 0..=lags`, of the first `n`
/// symbols of `x`, which carries [`BYTE_LANES`] zeros past them, appended
/// to `out`. One pass over the series per [`BYTE_LANES`] lags: each
/// symbol's products with its partners at those lags add into one `u32`
/// lane per lag, which the autovectorizer packs, and the zero tail ends
/// every lag's sum at `n`. Exact while `Σx² ≤ EXACT_FFT_ENERGY`, which
/// keeps every sum within a `u32`.
fn lean_lag_sums(x: &[u8], n: usize, lags: usize, out: &mut Vec<i64>) {
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_available() {
        // SAFETY: gated on runtime AVX2 detection.
        return unsafe { x86::lean_lag_sums_avx2(x, n, lags, out) };
    }
    lean_lag_sums_portable(x, n, lags, out);
}

/// The portable lowering of [`lean_lag_sums`].
#[inline(always)]
fn lean_lag_sums_portable(x: &[u8], n: usize, lags: usize, out: &mut Vec<i64>) {
    debug_assert!(lags < n && x.len() >= n + BYTE_LANES);
    for first in (0..=lags).step_by(BYTE_LANES) {
        let mut lanes = [0u32; BYTE_LANES];
        for (&a, partners) in x[..n - first].iter().zip(x[first..].windows(BYTE_LANES)) {
            let a = u16::from(a);
            for l in 0..BYTE_LANES {
                lanes[l] += u32::from(a * u16::from(partners[l]));
            }
        }
        let block = &lanes[..BYTE_LANES.min(lags + 1 - first)];
        out.extend(block.iter().map(|&sum| i64::from(sum)));
    }
}

/// A plan cache plus scratch buffers for spectral analysis.
///
/// One planner per thread (see [`with_planner`]) turns the allocation
/// profile of a correlogram (twiddle tables, padded buffers, spectra,
/// coefficients) into table lookups over warm memory. Plans are keyed by
/// padded transform length, and the buffers grow to the largest length
/// seen and are then reused verbatim.
#[derive(Debug, Default)]
pub struct BatchPlanner {
    plans: HashMap<usize, FftPlan>,
    /// The packed transform input and output: even and odd samples.
    re: Vec<f64>,
    im: Vec<f64>,
    /// Lag sums read out of the transform, and exact ones of symbols.
    sums: Vec<f64>,
    exact: Vec<i64>,
    /// A sample series minus its mean; a symbol series.
    centered: Vec<f64>,
    symbols: Vec<u8>,
    /// The coefficients of the last correlogram built.
    coefficients: Vec<f64>,
}

impl BatchPlanner {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct transform lengths planned so far.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Linear autocorrelation sums `r[lag] = Σᵢ x[i]·x[i+lag]` for
    /// `lag ∈ 0..=max_lag` of an already-centered series, via the
    /// Wiener–Khinchin theorem on cached plans and scratch. The returned
    /// slice lives in the planner's scratch until the next call.
    pub fn autocorrelation_sums(&mut self, centered: &[f64], max_lag: usize) -> &[f64] {
        self.lag_sums(centered, max_lag.min(centered.len().saturating_sub(1)))
    }

    /// The transform behind every correlogram: zero-pads `samples` past
    /// `n + lags` (so the circular sums are the linear ones) and returns the
    /// sums for lags `0..=lags`.
    fn lag_sums<T: Copy + Into<f64>>(&mut self, samples: &[T], lags: usize) -> &[f64] {
        let len = (samples.len() + lags).next_power_of_two().max(2);
        let plan = self.plans.entry(len).or_insert_with(|| FftPlan::build(len));
        let (re, im, sums) = (&mut self.re, &mut self.im, &mut self.sums);
        for (part, offset) in [(&mut *re, 0), (&mut *im, 1)] {
            part.clear();
            part.extend(samples.iter().skip(offset).step_by(2).map(|&x| x.into()));
            part.resize(len / 2, 0.0);
        }
        plan.autocorrelate(re, im);
        let scale = 1.0 / (4 * len) as f64;
        let interleaved = re.iter().zip(im.iter()).flat_map(|(&r, &i)| [r, i]);
        sums.clear();
        sums.extend(interleaved.take(lags + 1).map(|x| x * scale));
        sums
    }

    /// Autocorrelation coefficients of a raw (uncentered) series for lags
    /// `0..=min(max_lag, n − 2)`: centers the series in scratch, runs the
    /// direct loop when `direct` is set or the `n × lags` volume is below
    /// [`NAIVE_CUTOFF`] and the transform otherwise, and divides by the
    /// centered energy. Every lag past the returned slice is exactly zero.
    pub(crate) fn f64_coefficients(&mut self, x: &[f64], max_lag: usize, direct: bool) -> &[f64] {
        let (n, mut centered) = (x.len(), std::mem::take(&mut self.centered));
        let mean = x.iter().sum::<f64>() / n.max(1) as f64;
        centered.clear();
        centered.extend(x.iter().map(|x| x - mean));
        let denom: f64 = centered.iter().map(|x| x * x).sum();
        let lags = max_lag.min(n.saturating_sub(2));
        let mut out = std::mem::take(&mut self.coefficients);
        out.clear();
        if n < 2 || denom <= f64::EPSILON {
            out.push(if n < 2 { 0.0 } else { 1.0 });
        } else if direct || n.saturating_mul(lags) <= NAIVE_CUTOFF {
            let dot = |k: usize| centered.iter().zip(&centered[k..]).map(|(a, b)| a * b);
            out.extend((0..=lags).map(|k| dot(k).sum::<f64>() / denom));
        } else {
            out.extend(self.lag_sums(&centered, lags).iter().map(|s| s / denom));
        }
        out[0] = if n < 2 { 0.0 } else { 1.0 };
        (self.centered, self.coefficients) = (centered, out);
        &self.coefficients
    }

    /// Replaces the planner's symbol scratch with `symbols`; returns how
    /// many there are.
    pub(crate) fn load_symbols(&mut self, symbols: impl IntoIterator<Item = u8>) -> usize {
        self.symbols.clear();
        self.symbols.extend(symbols);
        self.symbols.len()
    }

    /// The autocorrelation coefficients of the loaded symbols for lags
    /// `0..=min(max_lag, n − 2)`: exact integer lag sums
    /// ([`exact_lag_sums`](Self::exact_lag_sums)) centred afterwards, in
    /// integers, with prefix sums,
    ///
    /// n²·Cₖ = n²Sₖ − nT(Aₖ + Bₖ) + (n − k)T²
    ///
    /// (T = Σx, Aₖ the sum of the first n − k symbols, Bₖ of the last
    /// n − k), so the coefficients Cₖ / C₀ are the same bits whichever path
    /// built the sums. The variance is zero exactly when nQ = T² (Q = Σx²),
    /// and then no sums are built. Every lag past the slice is exactly zero.
    pub(crate) fn symbol_coefficients(&mut self, max_lag: usize) -> &[f64] {
        let mut symbols = std::mem::take(&mut self.symbols);
        let mut exact = std::mem::take(&mut self.exact);
        let n = symbols.len();
        let energy: u64 = symbols.iter().map(|&x| u64::from(x) * u64::from(x)).sum();
        let total: i64 = symbols.iter().map(|&x| i64::from(x)).sum();
        let (len, wide) = (n as i128, i128::from(total));
        let denom = len * (len * i128::from(energy) - wide * wide);
        exact.clear();
        if n >= 2 && denom != 0 {
            let direct = energy > EXACT_FFT_ENERGY;
            self.exact_lag_sums(&mut symbols, max_lag.min(n - 2), direct, &mut exact);
        }
        let out = &mut self.coefficients;
        out.clear();
        if exact.is_empty() {
            out.push(if n < 2 { 0.0 } else { 1.0 });
        } else if n <= I64_CENTRING_MAX {
            centre::<i64>(&symbols, &exact, total, denom as f64, out);
        } else {
            centre::<i128>(&symbols, &exact, total, denom as f64, out);
        }
        (self.symbols, self.exact) = (symbols, exact);
        &self.coefficients
    }

    /// Appends the exact lag sums `Sₖ = Σᵢ xᵢxᵢ₊ₖ`, `k ∈ 0..=lags`, of
    /// `symbols` to `out`: one [`dot_blocks`] per lag when `direct` is
    /// set, from [`lean_lag_sums`] below [`NAIVE_CUTOFF`], otherwise from
    /// the transform of the uncentred symbols rounded to the nearest
    /// integer. The transform's absolute error is ≲ ε·log₂N·Σx²
    /// (ε = 2⁻⁵³, N the padded length): below 10⁻⁴ for n ≤ 2¹⁶ symbols up
    /// to 255, far below the ½ rounding tolerates. Callers set `direct`
    /// above [`EXACT_FFT_ENERGY`], the energy up to which that is tested
    /// and the lean sums fit their lanes, so every path gives the same
    /// integers.
    fn exact_lag_sums(&mut self, x: &mut Vec<u8>, lags: usize, direct: bool, out: &mut Vec<i64>) {
        let n = x.len();
        if direct || n.saturating_mul(lags) <= NAIVE_CUTOFF {
            x.resize(n + BYTE_LANES, 0); // every lag sums whole blocks
            if direct {
                out.extend((0..=lags).map(|k| {
                    let len = (n - k).next_multiple_of(BYTE_LANES);
                    dot_blocks(&x[..len], &x[k..k + len]) as i64
                }));
            } else {
                lean_lag_sums(x, n, lags, out);
            }
            x.truncate(n);
        } else {
            let sums = self.lag_sums(x, lags);
            out.extend(sums.iter().map(|s| s.round() as i64));
        }
    }
}

thread_local! {
    static PLANNER: RefCell<BatchPlanner> = RefCell::new(BatchPlanner::new());
}

/// Runs `f` with this thread's [`BatchPlanner`].
///
/// Worker threads of the vendored pool and the fleet's shards are
/// persistent, so each keeps a warm plan cache and scratch across calls,
/// without locks and without threading a planner handle through every call
/// site. A call made from inside `f` gets a fresh, cold planner instead of
/// the (borrowed) thread's one.
pub fn with_planner<R>(f: impl FnOnce(&mut BatchPlanner) -> R) -> R {
    PLANNER.with(|planner| match planner.try_borrow_mut() {
        Ok(mut planner) => f(&mut planner),
        Err(_) => f(&mut BatchPlanner::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lane_sq_dist_matches_scalar() {
        for len in [0usize, 1, 3, 4, 7, 8, 100, 128, 129] {
            let a: Vec<f64> = (0..len).map(|i| ((i * 37) % 13) as f64 - 6.0).collect();
            let b: Vec<f64> = (0..len).map(|i| ((i * 53) % 11) as f64 - 5.0).collect();
            let lane = sq_dist(&a, &b);
            let scalar = sq_dist_scalar(&a, &b);
            assert!(
                (lane - scalar).abs() <= 1e-9 * scalar.abs().max(1.0),
                "len {len}: {lane} vs {scalar}"
            );
        }
    }

    #[test]
    fn bounded_sq_dist_is_exact_below_cutoff_and_larger_above() {
        let a: Vec<f64> = (0..128).map(|i| (i % 16) as f64).collect();
        let b: Vec<f64> = (0..128).map(|i| ((i + 3) % 16) as f64).collect();
        let full = sq_dist(&a, &b);
        // Generous cutoff: must be bit-identical to the unbounded kernel.
        assert_eq!(sq_dist_bounded(&a, &b, full * 2.0), full);
        // Tight cutoff: whatever partial comes back must exceed it.
        assert!(sq_dist_bounded(&a, &b, full * 0.1) > full * 0.1);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_are_bit_identical_to_portable() {
        if !x86::avx2_available() {
            return; // Nothing to compare on this host.
        }
        for len in [0usize, 1, 3, 4, 7, 31, 32, 33, 128, 129, 517] {
            let a: Vec<f64> = (0..len)
                .map(|i| ((i * 37) % 13) as f64 / 3.0 - 2.0)
                .collect();
            let b: Vec<f64> = (0..len)
                .map(|i| ((i * 53) % 11) as f64 / 7.0 - 0.5)
                .collect();
            let portable = sq_dist_portable(&a, &b);
            // SAFETY: AVX2 presence checked above.
            let vector = unsafe { x86::sq_dist_avx2(&a, &b) };
            assert_eq!(portable.to_bits(), vector.to_bits(), "len {len}");
            for cutoff in [f64::INFINITY, portable, portable / 2.0, 0.0] {
                let pb = sq_dist_bounded_portable(&a, &b, cutoff);
                // SAFETY: AVX2 presence checked above.
                let vb = unsafe { x86::sq_dist_bounded_avx2(&a, &b, cutoff) };
                assert_eq!(pb.to_bits(), vb.to_bits(), "len {len} cutoff {cutoff}");
            }
        }
    }

    #[test]
    fn fused_distances_are_bit_identical_to_sq_dist() {
        for len in [0usize, 1, 3, 4, 7, 31, 32, 33, 128, 129] {
            let point: Vec<f64> = (0..len)
                .map(|i| ((i * 37) % 13) as f64 / 3.0 - 2.0)
                .collect();
            let centroids: Vec<Vec<f64>> = (0..MAX_FUSED_K)
                .map(|j| {
                    (0..len)
                        .map(|i| ((i * 53 + j * 17) % 11) as f64 / 7.0 - 0.5)
                        .collect()
                })
                .collect();
            for k in 0..=MAX_FUSED_K {
                let cs = &centroids[..k];
                let mut out = [f64::NAN; MAX_FUSED_K];
                sq_dists_fused_portable(&point, cs, &mut out);
                for (j, c) in cs.iter().enumerate() {
                    assert_eq!(
                        out[j].to_bits(),
                        sq_dist_portable(&point, c).to_bits(),
                        "len {len} k {k} centroid {j}"
                    );
                }
                #[cfg(target_arch = "x86_64")]
                if x86::avx2_available() {
                    let mut vout = [f64::NAN; MAX_FUSED_K];
                    // SAFETY: AVX2 presence checked above.
                    unsafe { x86::sq_dists_fused_avx2(&point, cs, &mut vout) };
                    for j in 0..k {
                        assert_eq!(
                            vout[j].to_bits(),
                            out[j].to_bits(),
                            "avx2 len {len} k {k} centroid {j}"
                        );
                    }
                }
            }
        }
    }

    /// `n` seeded symbols over `alphabet` distinct byte values, in runs so
    /// that some series oscillate.
    fn seeded_symbols(rng: &mut SmallRng, n: usize, alphabet: usize) -> Vec<u8> {
        let mut values: Vec<u8> = (0..=255).collect();
        for i in 0..alphabet {
            values.swap(i, rng.gen_range(i..256));
        }
        let run = rng.gen_range(1usize..300);
        (0..n)
            .map(|i| values[((i / run) * 7 + rng.gen_range(0..2)) % alphabet])
            .collect()
    }

    /// The property behind the exact oscillation scores: the transform's
    /// rounded lag sums are the direct loop's integers, lag for lag, for
    /// alphabets 1–255, n up to 2¹⁶ and lags up to 3 000 (an all-255 series
    /// among them), and the coefficients built on them stay within 1e-9 of
    /// the `f64` reference.
    #[test]
    fn transform_lag_sums_equal_the_direct_loop() {
        let mut planner = BatchPlanner::new();
        let mut rng = SmallRng::seed_from_u64(0xE7AC_7000);
        let mut cases: Vec<(Vec<u8>, usize)> = (0..24)
            .map(|case| {
                let n = rng.gen_range(2usize..4_000);
                let alphabet = if case < 2 {
                    1 + 254 * case
                } else {
                    rng.gen_range(1..=255)
                };
                (
                    seeded_symbols(&mut rng, n, alphabet),
                    rng.gen_range(50..=3_000),
                )
            })
            .collect();
        cases.push((seeded_symbols(&mut rng, 1 << 16, 255), 400));
        // The largest sums a 2¹⁶-symbol series can have, in closed form.
        let (mut saturated, mut sums) = (vec![255u8; 1 << 16], Vec::new());
        planner.exact_lag_sums(&mut saturated, 3_000, false, &mut sums);
        let closed: Vec<i64> = (0..=3_000).map(|k| 255 * 255 * ((1 << 16) - k)).collect();
        assert_eq!(sums, closed);
        for (case, (symbols, max_lag)) in cases.iter().enumerate() {
            let lags = (*max_lag).min(symbols.len() - 2);
            let (mut transform, mut direct) = (Vec::new(), Vec::new());
            let mut scratch = symbols.clone();
            planner.exact_lag_sums(&mut scratch, lags, false, &mut transform);
            planner.exact_lag_sums(&mut scratch, lags, true, &mut direct);
            assert_eq!(
                scratch, *symbols,
                "case {case}: the padding is taken off again"
            );
            assert_eq!(
                transform,
                direct,
                "case {case}: n {} lags {lags}",
                symbols.len()
            );
            if symbols.len() > 6_000 {
                continue; // The f64 reference is too slow for a debug build.
            }
            let series = crate::events::SymbolSeries::from_symbols(symbols.clone());
            let exact = crate::autocorr::Autocorrelogram::of_symbols(&series, *max_lag);
            let naive = crate::autocorr::Autocorrelogram::compute_naive(&series.as_f64(), *max_lag);
            for lag in 0..=*max_lag {
                let (e, r) = (exact.coefficient(lag), naive.coefficient(lag));
                assert!((e - r).abs() <= 1e-9, "case {case} lag {lag}: {e} vs {r}");
            }
        }
    }

    /// The lean lag sums, dispatched and portable, are the per-lag
    /// [`dot_blocks`] integers at the most lags the lean path takes, for
    /// every n in `sizes`, on seeded series over alphabets 1–255 and (every
    /// 7th n) on an alternating 0/255 series.
    fn assert_lean_lag_sums_equal_dot_blocks(sizes: impl Iterator<Item = usize>) {
        let mut rng = SmallRng::seed_from_u64(0x1EA7_5005);
        let (mut lean, mut portable, mut blocks) = (Vec::new(), Vec::new(), Vec::new());
        for n in sizes {
            let lags = (NAIVE_CUTOFF / n).min(n - 2);
            let mut x = if n % 7 == 0 {
                (0..n).map(|i| if i % 2 == 0 { 0 } else { 255 }).collect()
            } else {
                let alphabet = rng.gen_range(1..=255);
                seeded_symbols(&mut rng, n, alphabet)
            };
            x.resize(n + BYTE_LANES, 0);
            lean.clear();
            portable.clear();
            blocks.clear();
            lean_lag_sums(&x, n, lags, &mut lean);
            lean_lag_sums_portable(&x, n, lags, &mut portable);
            blocks.extend((0..=lags).map(|k| {
                let len = (n - k).next_multiple_of(BYTE_LANES);
                dot_blocks(&x[..len], &x[k..k + len]) as i64
            }));
            assert_eq!(lean, blocks, "n {n} lags {lags}");
            assert_eq!(portable, blocks, "n {n} lags {lags}");
        }
    }

    /// Every n up to 1 024 (every lag-block shape, tails included) and
    /// every 61st n above it up to [`NAIVE_CUTOFF`], where one block of at
    /// most 16 lags remains.
    #[test]
    fn lean_lag_sums_equal_dot_blocks_below_the_cutoff() {
        let sizes = (2..=1_024).chain((1_025..NAIVE_CUTOFF).step_by(61));
        assert_lean_lag_sums_equal_dot_blocks(sizes.chain([NAIVE_CUTOFF]));
    }

    /// Every n up to [`NAIVE_CUTOFF`]: under two seconds in a release build,
    /// over a minute in a debug one, which skips it.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "every n takes over a minute in a debug build"
    )]
    fn lean_lag_sums_equal_dot_blocks_at_every_n_below_the_cutoff() {
        assert_lean_lag_sums_equal_dot_blocks(2..=NAIVE_CUTOFF);
    }

    /// Centring in `i64` gives the `i128` centring's bits on seeded series
    /// of up to 2¹⁵ symbols up to 255 and on the alternating 0/255 series
    /// of 2¹⁵ (overflow would panic this debug build); one symbol longer,
    /// a series centres in `i128`.
    #[test]
    fn i64_centring_matches_i128_bit_for_bit() {
        let mut planner = BatchPlanner::new();
        let mut rng = SmallRng::seed_from_u64(0xCE47_1264);
        let alternating =
            |n: usize| -> Vec<u8> { (0..n).map(|i| if i % 2 == 0 { 0 } else { 255 }).collect() };
        let mut cases: Vec<Vec<u8>> = (0..12)
            .map(|case| {
                let n = match case {
                    0 => I64_CENTRING_MAX,
                    1 => 2,
                    _ => rng.gen_range(3..=I64_CENTRING_MAX),
                };
                let alphabet = if case == 0 {
                    255
                } else {
                    rng.gen_range(2..=255)
                };
                seeded_symbols(&mut rng, n, alphabet)
            })
            .collect();
        cases.push(alternating(I64_CENTRING_MAX));
        for (case, symbols) in cases.iter().enumerate() {
            let n = symbols.len();
            let total: i64 = symbols.iter().map(|&x| i64::from(x)).sum();
            let (mut scratch, mut sums) = (symbols.clone(), Vec::new());
            planner.exact_lag_sums(&mut scratch, n - 2, false, &mut sums);
            let (mut narrow, mut wide) = (Vec::new(), Vec::new());
            centre::<i64>(symbols, &sums, total, 3.0, &mut narrow);
            centre::<i128>(symbols, &sums, total, 3.0, &mut wide);
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&narrow), bits(&wide), "case {case}: n {n}");
        }
        let longer = alternating(I64_CENTRING_MAX + 1);
        let n = longer.len();
        assert!(n > I64_CENTRING_MAX);
        planner.load_symbols(longer.iter().copied());
        let built = planner.symbol_coefficients(64).to_vec();
        let (mut scratch, mut sums) = (longer.clone(), Vec::new());
        planner.exact_lag_sums(&mut scratch, 64, false, &mut sums);
        let total: i64 = longer.iter().map(|&x| i64::from(x)).sum();
        let energy = i128::from(total) * 255;
        let denom = n as i128 * (n as i128 * energy - i128::from(total) * i128::from(total));
        let mut wide = Vec::new();
        centre::<i128>(&longer, &sums, total, denom as f64, &mut wide);
        assert_eq!(built, wide);
    }

    #[test]
    fn fft_plan_rejects_lengths_it_cannot_transform() {
        for n in [0usize, 1, 3, 12, 1000] {
            assert!(
                matches!(FftPlan::new(n), Err(DetectorError::InvalidConfig { .. })),
                "{n}"
            );
        }
        assert_eq!(FftPlan::new(4096).map(|p| p.len()).ok(), Some(4096));
    }

    #[test]
    fn reentrant_with_planner_gets_a_fresh_planner() {
        let series: Vec<f64> = (0..300).map(|i| (i % 5) as f64).collect();
        let outer = with_planner(|p| {
            let inner = with_planner(|q| q.autocorrelation_sums(&series, 64).to_vec());
            (p.autocorrelation_sums(&series, 64).to_vec(), inner)
        });
        assert_eq!(outer.0, outer.1);
    }

    #[test]
    fn planned_sums_match_unplanned() {
        let mut planner = BatchPlanner::new();
        for n in [2usize, 3, 65, 300, 1024, 2077] {
            let series: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
            let reference = fft::autocorrelation_sums(&series, 900);
            let planned = planner.autocorrelation_sums(&series, 900).to_vec();
            assert_eq!(planned.len(), reference.len(), "n = {n}");
            for (lag, (p, r)) in planned.iter().zip(&reference).enumerate() {
                assert!(
                    (p - r).abs() <= 1e-9 * r.abs().max(1.0),
                    "n {n} lag {lag}: {p} vs {r}"
                );
            }
        }
        // 2077 + 900 pads to 4096; 1024 + 900 pads to 2048; etc.
        assert!(planner.cached_plans() >= 3);
    }

    #[test]
    fn plans_are_reused_across_same_length_calls() {
        let mut planner = BatchPlanner::new();
        let series: Vec<f64> = (0..500).map(|i| (i % 7) as f64).collect();
        planner.autocorrelation_sums(&series, 100);
        let plans_after_first = planner.cached_plans();
        for _ in 0..5 {
            planner.autocorrelation_sums(&series, 100);
        }
        assert_eq!(planner.cached_plans(), plans_after_first);
    }

    #[test]
    fn with_planner_is_reusable_per_thread() {
        let series: Vec<f64> = (0..300).map(|i| (i % 5) as f64).collect();
        let a = with_planner(|p| p.autocorrelation_sums(&series, 64).to_vec());
        let b = with_planner(|p| p.autocorrelation_sums(&series, 64).to_vec());
        assert_eq!(a, b);
    }
}
