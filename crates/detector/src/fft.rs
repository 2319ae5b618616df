//! The textbook iterative radix-2 real-input FFT, compiled only for the
//! crate's unit tests: the oracle that [`crate::batch::FftPlan`], the one
//! transform in production, is checked against.
//!
//! The Wiener–Khinchin theorem turns the O(n·max_lag) autocorrelogram into
//! two FFTs: the inverse transform of the power spectrum *is* the
//! (circular) autocorrelation, and zero-padding the series by at least
//! `max_lag` makes the circular sums equal the linear ones. The real-input
//! transform packs the 2M-point real sequence into an M-point complex FFT
//! (even samples → real parts, odd samples → imaginary parts) and untangles
//! the half-spectrum afterwards. This version keeps every step separate and
//! plain: an array-of-structs complex type, a bit-reversal permutation, and
//! twiddles by recurrence.

/// A complex number in rectangular form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates `re + i·im`.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The complex conjugate.
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// The squared magnitude `re² + im²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    pub(crate) fn add(self, other: Self) -> Self {
        Complex::new(self.re + other.re, self.im + other.im)
    }

    pub(crate) fn sub(self, other: Self) -> Self {
        Complex::new(self.re - other.re, self.im - other.im)
    }

    pub(crate) fn mul(self, other: Self) -> Self {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }

    pub(crate) fn scale(self, s: f64) -> Self {
        Complex::new(self.re * s, self.im * s)
    }
}

/// In-place iterative radix-2 FFT (decimation in time) over a
/// power-of-two-length buffer. `inverse` selects the inverse transform,
/// which includes the 1/N scaling.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let shift = usize::BITS - n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterfly passes: width doubles each stage.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut width = 2;
    while width <= n {
        let angle = sign * std::f64::consts::TAU / width as f64;
        let w_step = Complex::new(angle.cos(), angle.sin());
        for start in (0..n).step_by(width) {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..width / 2 {
                let even = data[start + k];
                let odd = data[start + k + width / 2].mul(w);
                data[start + k] = even.add(odd);
                data[start + k + width / 2] = even.sub(odd);
                w = w.mul(w_step);
            }
        }
        width *= 2;
    }
    if inverse {
        let scale = 1.0 / n as f64;
        for value in data.iter_mut() {
            *value = value.scale(scale);
        }
    }
}

/// Forward FFT of a real sequence of power-of-two length `N = 2M`, computed
/// through an M-point complex FFT. Returns the non-redundant half-spectrum
/// `X[0..=M]` (`X[0]` and the Nyquist bin `X[M]` are purely real; the rest
/// of the spectrum is the Hermitian mirror).
///
/// # Panics
///
/// Panics if `signal.len()` is not a power of two or is less than 2.
pub fn real_fft(signal: &[f64]) -> Vec<Complex> {
    let n = signal.len();
    assert!(
        n >= 2 && n.is_power_of_two(),
        "real FFT length must be a power of two >= 2"
    );
    let m = n / 2;
    // Pack: even samples into real parts, odd samples into imaginary parts.
    let mut packed: Vec<Complex> = (0..m)
        .map(|j| Complex::new(signal[2 * j], signal[2 * j + 1]))
        .collect();
    fft_in_place(&mut packed, false);
    // Untangle the even/odd sub-spectra and recombine.
    let mut spectrum = Vec::with_capacity(m + 1);
    for k in 0..=m {
        let z_k = packed[k % m];
        let z_mk = packed[(m - k) % m].conj();
        let even = z_k.add(z_mk).scale(0.5);
        // odd = (z_k - z_mk) / (2i)  ==  (z_k - z_mk) · (-i/2)
        let diff = z_k.sub(z_mk);
        let odd = Complex::new(diff.im * 0.5, -diff.re * 0.5);
        let angle = -std::f64::consts::TAU * k as f64 / n as f64;
        let twiddle = Complex::new(angle.cos(), angle.sin());
        spectrum.push(even.add(twiddle.mul(odd)));
    }
    spectrum
}

/// Inverse of [`real_fft`]: reconstructs the length-`n` real sequence from
/// its Hermitian half-spectrum `X[0..=n/2]`.
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 2 or `spectrum.len() != n/2 + 1`.
pub fn inverse_real_fft(spectrum: &[Complex], n: usize) -> Vec<f64> {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "real FFT length must be a power of two >= 2"
    );
    let m = n / 2;
    assert_eq!(
        spectrum.len(),
        m + 1,
        "half-spectrum must hold n/2 + 1 bins"
    );
    // Re-tangle the half-spectrum into the M-point packed spectrum.
    let mut packed = Vec::with_capacity(m);
    for k in 0..m {
        let x_k = spectrum[k];
        let x_mk = spectrum[m - k].conj();
        let even = x_k.add(x_mk).scale(0.5);
        let with_twiddle = x_k.sub(x_mk).scale(0.5);
        let angle = std::f64::consts::TAU * k as f64 / n as f64;
        let inv_twiddle = Complex::new(angle.cos(), angle.sin());
        let odd = inv_twiddle.mul(with_twiddle);
        // Z[k] = even + i·odd
        packed.push(Complex::new(even.re - odd.im, even.im + odd.re));
    }
    fft_in_place(&mut packed, true);
    let mut signal = Vec::with_capacity(n);
    for z in packed {
        signal.push(z.re);
        signal.push(z.im);
    }
    signal
}

/// Linear autocorrelation sums `r[lag] = Σᵢ x[i]·x[i+lag]` for
/// `lag ∈ 0..=max_lag`, via the Wiener–Khinchin theorem: zero-pad to kill
/// circular wrap-around, forward real FFT, power spectrum, inverse real FFT.
///
/// The caller centers the series (subtracts the mean) beforehand; dividing
/// `r[lag]` by `r[0]` then yields the autocorrelation coefficients.
pub fn autocorrelation_sums(centered: &[f64], max_lag: usize) -> Vec<f64> {
    let n = centered.len();
    let lags = max_lag.min(n.saturating_sub(1));
    // Padding to n + lags zeroes every wrapped product for lag <= lags.
    let len = (n + lags).next_power_of_two().max(2);
    let mut padded = vec![0.0; len];
    padded[..n].copy_from_slice(centered);
    let spectrum = real_fft(&padded);
    let power: Vec<Complex> = spectrum
        .iter()
        .map(|c| Complex::new(c.norm_sqr(), 0.0))
        .collect();
    let sums = inverse_real_fft(&power, len);
    sums[..=lags.min(len - 1)].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(signal: &[f64]) -> Vec<Complex> {
        let n = signal.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::default();
                for (j, &x) in signal.iter().enumerate() {
                    let angle = -std::f64::consts::TAU * (k * j) as f64 / n as f64;
                    acc = acc.add(Complex::new(angle.cos(), angle.sin()).scale(x));
                }
                acc
            })
            .collect()
    }

    #[test]
    fn real_fft_matches_naive_dft() {
        let signal: Vec<f64> = (0..64)
            .map(|i| ((i * 37 % 11) as f64) - 5.0 + (i as f64 * 0.25).sin())
            .collect();
        let full = naive_dft(&signal);
        let half = real_fft(&signal);
        for (k, bin) in half.iter().enumerate() {
            assert!(
                (bin.re - full[k].re).abs() < 1e-9 && (bin.im - full[k].im).abs() < 1e-9,
                "bin {k}: {bin:?} vs {:?}",
                full[k]
            );
        }
    }

    #[test]
    fn real_fft_roundtrips() {
        for len in [2usize, 4, 8, 64, 256, 1024] {
            let signal: Vec<f64> = (0..len).map(|i| ((i * 7919) % 23) as f64 - 11.0).collect();
            let spectrum = real_fft(&signal);
            let back = inverse_real_fft(&spectrum, len);
            for (a, b) in signal.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "len {len}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn autocorrelation_sums_match_direct_products() {
        let series: Vec<f64> = (0..300).map(|i| ((i % 17) as f64) - 8.0).collect();
        let sums = autocorrelation_sums(&series, 50);
        for (lag, &sum) in sums.iter().enumerate() {
            let direct: f64 = (0..series.len() - lag)
                .map(|i| series[i] * series[i + lag])
                .sum();
            assert!(
                (sum - direct).abs() < 1e-7 * direct.abs().max(1.0),
                "lag {lag}: {sum} vs {direct}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut data = vec![Complex::default(); 12];
        fft_in_place(&mut data, false);
    }
}
