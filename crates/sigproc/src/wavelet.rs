//! Wavelet transforms: orthogonal DWT filter banks and the integer
//! à-trous quadratic-spline transform.
//!
//! Two distinct consumers in the pipeline:
//!
//! * **Compressed sensing** ([`wavedec`]/[`waverec`]) needs an
//!   orthonormal sparsifying basis Ψ — ECG is highly compressible in
//!   Daubechies wavelets, which is what makes CS recovery work
//!   (references \[4\], \[16\] of the paper).
//! * **Delineation** ([`AtrousQspline`]) uses the undecimated
//!   quadratic-spline dyadic transform of Mallat, as adapted to integer
//!   arithmetic by Rincón et al. (BSN 2009, reference \[12\]): the filter
//!   bank `h = [1,3,3,1]/8`, `g = [1,-1]` turns wave peaks into
//!   zero-crossings flanked by modulus maxima.

use crate::{Result, SigprocError};

/// Supported orthogonal wavelet families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wavelet {
    /// Haar (2 taps) — cheapest, used for ablations.
    Haar,
    /// Daubechies with 2 vanishing moments (4 taps).
    Db2,
    /// Daubechies with 4 vanishing moments (8 taps) — the default ECG
    /// sparsifying basis.
    Db4,
}

// `len` is the filter length of a wavelet family; an "empty wavelet"
// does not exist, so no `is_empty` counterpart.
#[allow(clippy::len_without_is_empty)]
impl Wavelet {
    /// Scaling (low-pass decomposition) filter coefficients.
    pub fn scaling_filter(self) -> &'static [f64] {
        match self {
            Wavelet::Haar => &HAAR,
            Wavelet::Db2 => &DB2,
            Wavelet::Db4 => &DB4,
        }
    }

    /// Filter length.
    pub fn len(self) -> usize {
        self.scaling_filter().len()
    }

    /// Wavelet (high-pass) decomposition filter via the quadrature
    /// mirror relation `g[n] = (-1)^n h[L-1-n]`.
    pub fn wavelet_filter(self) -> &'static [f64] {
        match self {
            Wavelet::Haar => &HAAR_G,
            Wavelet::Db2 => &DB2_G,
            Wavelet::Db4 => &DB4_G,
        }
    }
}

const SQRT2_INV: f64 = core::f64::consts::FRAC_1_SQRT_2;
const HAAR: [f64; 2] = [SQRT2_INV, SQRT2_INV];
const DB2: [f64; 4] = [
    0.48296291314469025,
    0.836516303737469,
    0.22414386804185735,
    -0.12940952255092145,
];
const DB4: [f64; 8] = [
    0.23037781330885523,
    0.7148465705525415,
    0.6308807679295904,
    -0.02798376941698385,
    -0.18703481171888114,
    0.030841381835986965,
    0.032883011666982945,
    -0.010597401784997278,
];
const HAAR_G: [f64; 2] = quadrature_mirror(&HAAR);
const DB2_G: [f64; 4] = quadrature_mirror(&DB2);
const DB4_G: [f64; 8] = quadrature_mirror(&DB4);

/// `g[n] = (-1)^n h[L-1-n]`, evaluated once at compile time. Negation
/// is exact, so every tap equals the floating-point `±1.0 · h` product.
const fn quadrature_mirror<const L: usize>(h: &[f64; L]) -> [f64; L] {
    let mut g = [0.0; L];
    let mut n = 0;
    while n < L {
        g[n] = if n % 2 == 0 {
            h[L - 1 - n]
        } else {
            -h[L - 1 - n]
        };
        n += 1;
    }
    g
}

/// Reusable working memory for [`wavedec_into`]/[`waverec_into`]: the
/// approximation ping-pong buffers between levels. Sized on first use
/// and reused afterwards, so a warm caller allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct DwtScratch {
    buf: Vec<f64>,
}

/// Shared shape check of the multi-level transforms.
fn check_shape(what: &'static str, len: usize, out_len: usize, levels: usize) -> Result<()> {
    if levels == 0 {
        return Err(SigprocError::InvalidParameter {
            what: "levels",
            detail: "must be >= 1",
        });
    }
    if len == 0 || levels >= usize::BITS as usize || len % (1 << levels) != 0 {
        return Err(SigprocError::InvalidLength { what, got: len });
    }
    if out_len != len {
        return Err(SigprocError::InvalidLength {
            what: "DWT output (must match the input length)",
            got: out_len,
        });
    }
    Ok(())
}

/// Multi-level periodized DWT (analysis). Returns coefficients packed
/// as `[a_L | d_L | d_{L-1} | ... | d_1]`, total length = input length.
///
/// This is the orthonormal analysis operator Ψᵀ; [`waverec`] is its
/// exact inverse (and adjoint) Ψ. Allocating wrapper over
/// [`wavedec_into`].
///
/// # Errors
///
/// The input length must be divisible by `2^levels` and `levels ≥ 1`.
pub fn wavedec(x: &[f64], wavelet: Wavelet, levels: usize) -> Result<Vec<f64>> {
    let mut out = vec![0.0; x.len()];
    wavedec_into(x, wavelet, levels, &mut out, &mut DwtScratch::default())?;
    Ok(out)
}

/// [`wavedec`] into a caller-owned `out` (same length as `x`), with
/// the inter-level buffers in `scratch`: no allocation once the
/// scratch is sized. Bit-identical to [`wavedec`].
///
/// # Errors
///
/// Same conditions as [`wavedec`], plus `out.len() != x.len()`.
pub fn wavedec_into(
    x: &[f64],
    wavelet: Wavelet,
    levels: usize,
    out: &mut [f64],
    scratch: &mut DwtScratch,
) -> Result<()> {
    check_shape(
        "wavedec input (must be divisible by 2^levels)",
        x.len(),
        out.len(),
        levels,
    )?;
    match wavelet {
        Wavelet::Haar => analysis::<2>(&HAAR, &HAAR_G, x, levels, out, &mut scratch.buf),
        Wavelet::Db2 => analysis::<4>(&DB2, &DB2_G, x, levels, out, &mut scratch.buf),
        Wavelet::Db4 => analysis::<8>(&DB4, &DB4_G, x, levels, out, &mut scratch.buf),
    }
    Ok(())
}

/// Multi-level analysis: level `l` reads the previous approximation,
/// writes its detail band straight into `out[len/2..len]` and its
/// approximation into a ping-pong half of `buf` (the last level writes
/// it to `out[..len/2]`).
fn analysis<const L: usize>(
    h: &[f64; L],
    g: &[f64; L],
    x: &[f64],
    levels: usize,
    out: &mut [f64],
    buf: &mut Vec<f64>,
) {
    let n = x.len();
    buf.resize(n, 0.0);
    let (mut cur, mut next) = buf.split_at_mut(n / 2);
    for lev in 0..levels {
        let len = n >> lev;
        let half = len / 2;
        let (a_out, rest) = out.split_at_mut(half);
        let d_out = &mut rest[..half];
        let src: &[f64] = if lev == 0 { x } else { &cur[..len] };
        if lev + 1 == levels {
            analysis_level(h, g, src, a_out, d_out);
        } else {
            analysis_level(h, g, src, &mut next[..half], d_out);
            core::mem::swap(&mut cur, &mut next);
        }
    }
}

/// One periodized analysis level: `a[k] = Σ_j h[j]·x[(2k+j) mod n]`
/// (and `d[k]` with `g`), summed in ascending `j` from a `+0.0` seed.
/// Outputs whose taps stay inside `x` run modulo-free; only the last
/// few wrap, stepping their index back to 0 at `n`.
fn analysis_level<const L: usize>(
    h: &[f64; L],
    g: &[f64; L],
    x: &[f64],
    a: &mut [f64],
    d: &mut [f64],
) {
    let n = x.len();
    let mut k = 0;
    for ((ak, dk), w) in a.iter_mut().zip(d.iter_mut()).zip(x.windows(L).step_by(2)) {
        let mut sa = 0.0;
        let mut sd = 0.0;
        for ((&hj, &gj), &xv) in h.iter().zip(g).zip(w) {
            sa += hj * xv;
            sd += gj * xv;
        }
        *ak = sa;
        *dk = sd;
        k += 1;
    }
    for (ak, dk) in a.iter_mut().zip(d.iter_mut()).skip(k) {
        let mut idx = 2 * k;
        let mut sa = 0.0;
        let mut sd = 0.0;
        for (&hj, &gj) in h.iter().zip(g) {
            sa += hj * x[idx];
            sd += gj * x[idx];
            idx += 1;
            if idx == n {
                idx = 0;
            }
        }
        *ak = sa;
        *dk = sd;
        k += 1;
    }
}

/// Multi-level periodized inverse DWT (synthesis), inverse of
/// [`wavedec`] with the same `wavelet` and `levels`. Allocating wrapper
/// over [`waverec_into`].
///
/// # Errors
///
/// Same length constraints as [`wavedec`].
pub fn waverec(coeffs: &[f64], wavelet: Wavelet, levels: usize) -> Result<Vec<f64>> {
    let mut out = vec![0.0; coeffs.len()];
    waverec_into(
        coeffs,
        wavelet,
        levels,
        &mut out,
        &mut DwtScratch::default(),
    )?;
    Ok(out)
}

/// [`waverec`] into a caller-owned `out` (same length as `coeffs`),
/// with the inter-level buffers in `scratch`: no allocation once the
/// scratch is sized. Bit-identical to [`waverec`].
///
/// # Errors
///
/// Same conditions as [`waverec`], plus `out.len() != coeffs.len()`.
pub fn waverec_into(
    coeffs: &[f64],
    wavelet: Wavelet,
    levels: usize,
    out: &mut [f64],
    scratch: &mut DwtScratch,
) -> Result<()> {
    check_shape(
        "waverec input (must be divisible by 2^levels)",
        coeffs.len(),
        out.len(),
        levels,
    )?;
    match wavelet {
        Wavelet::Haar => synthesis::<2>(&HAAR, &HAAR_G, coeffs, levels, out, &mut scratch.buf),
        Wavelet::Db2 => synthesis::<4>(&DB2, &DB2_G, coeffs, levels, out, &mut scratch.buf),
        Wavelet::Db4 => synthesis::<8>(&DB4, &DB4_G, coeffs, levels, out, &mut scratch.buf),
    }
    Ok(())
}

/// Multi-level synthesis, coarsest level first: each level reads the
/// current approximation from one ping-pong half of `buf` and writes
/// the next into the other (the finest level writes `out`).
fn synthesis<const L: usize>(
    h: &[f64; L],
    g: &[f64; L],
    coeffs: &[f64],
    levels: usize,
    out: &mut [f64],
    buf: &mut Vec<f64>,
) {
    let n = coeffs.len();
    let coarsest = n >> levels;
    buf.resize(n, 0.0);
    let (mut cur, mut next) = buf.split_at_mut(n / 2);
    cur[..coarsest].copy_from_slice(&coeffs[..coarsest]);
    let mut offset = coarsest;
    for lev in (0..levels).rev() {
        let dn = n >> (lev + 1);
        let d = &coeffs[offset..offset + dn];
        offset += dn;
        if lev == 0 {
            synthesis_level(h, g, &cur[..dn], d, out);
        } else {
            synthesis_level(h, g, &cur[..dn], d, &mut next[..2 * dn]);
            core::mem::swap(&mut cur, &mut next);
        }
    }
}

/// One periodized synthesis level: for ascending `k`, then ascending
/// `j`, `out[(2k+j) mod n] += h[j]·a[k] + g[j]·d[k]` onto a zeroed
/// `out`. Splitting `k` into a modulo-free interior and a short
/// wrapped tail keeps that order, so every output accumulates its
/// terms in the same sequence as the single wrapped loop.
fn synthesis_level<const L: usize>(
    h: &[f64; L],
    g: &[f64; L],
    a: &[f64],
    d: &[f64],
    out: &mut [f64],
) {
    let n = out.len();
    out.fill(0.0);
    // Inputs whose taps land inside `out`: 2k + L - 1 < n.
    let interior = if n >= L { (n - L) / 2 + 1 } else { 0 };
    for (k, (&ak, &dk)) in a.iter().zip(d).enumerate().take(interior) {
        let o = &mut out[2 * k..2 * k + L];
        for ((ov, &hj), &gj) in o.iter_mut().zip(h).zip(g) {
            *ov += hj * ak + gj * dk;
        }
    }
    for (k, (&ak, &dk)) in a.iter().zip(d).enumerate().skip(interior) {
        let mut idx = 2 * k;
        for (&hj, &gj) in h.iter().zip(g) {
            out[idx] += hj * ak + gj * dk;
            idx += 1;
            if idx == n {
                idx = 0;
            }
        }
    }
}

/// Integer à-trous quadratic-spline dyadic wavelet transform.
///
/// Produces the undecimated detail signals `w_1 … w_levels` (same
/// length as the input) using the integer filter pair
/// `h = [1,3,3,1] / 8` (division by arithmetic shift) and `g = [1,-1]`,
/// with holes (zeros) inserted between taps at deeper scales.
///
/// Each detail stream is delay-compensated so that the zero-crossing
/// associated with a peak in the input appears *at* the peak index
/// (± rounding): the theoretical filter-bank delay at scale `k` is
/// `2^k - 3/2` for `w_k` (see Rincón et al., BSN 2009); rounding to
/// `2^k - 1` keeps sub-sample error below one sample at every scale.
#[derive(Debug, Clone)]
pub struct AtrousQspline {
    levels: usize,
}

/// Reusable working memory for [`AtrousQspline::transform_into`]: the
/// approximation ping-pong buffers of the filter bank.
#[derive(Debug, Clone, Default)]
pub struct AtrousScratch {
    approx: Vec<i64>,
    next: Vec<i64>,
}

impl AtrousQspline {
    /// Transform computing `levels` dyadic scales (1 ≤ levels ≤ 8).
    ///
    /// # Errors
    ///
    /// Fails if `levels` is 0 or greater than 8.
    pub fn new(levels: usize) -> Result<Self> {
        if levels == 0 || levels > 8 {
            return Err(SigprocError::InvalidParameter {
                what: "levels",
                detail: "must be in 1..=8",
            });
        }
        Ok(AtrousQspline { levels })
    }

    /// Number of computed scales.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Computes the detail signals `w_1 … w_levels`, index 0 = scale 2¹.
    ///
    /// Allocates every buffer; the per-beat streaming path should
    /// prefer [`AtrousQspline::transform_into`] with reused scratch.
    pub fn transform(&self, x: &[i32]) -> Vec<Vec<i32>> {
        let mut scratch = AtrousScratch::default();
        let mut details = Vec::new();
        self.transform_into(x, &mut scratch, &mut details);
        details
    }

    /// [`AtrousQspline::transform`] into caller-owned buffers:
    /// `details` is resized to `levels` signals of `x.len()` samples
    /// and `scratch` holds the approximation ping-pong buffers, so a
    /// warm caller allocates nothing. Outputs are bit-identical to
    /// [`AtrousQspline::transform`].
    ///
    /// Each level runs as two loops: a short clamped prologue for the
    /// indices whose filter taps would reach before the segment, and a
    /// branch-free steady-state sweep (the à-trous delay `2^{k+1}-1`
    /// is at least the hole spacing `2^k`, so the delay-compensated
    /// detail needs no boundary clamp at all).
    pub fn transform_into(
        &self,
        x: &[i32],
        scratch: &mut AtrousScratch,
        details: &mut Vec<Vec<i32>>,
    ) {
        let n = x.len();
        details.resize_with(self.levels, Vec::new);
        let approx = &mut scratch.approx;
        let next = &mut scratch.next;
        approx.clear();
        approx.extend(x.iter().map(|&v| v as i64));
        for (k, wk) in details.iter_mut().enumerate() {
            let hole = 1usize << k; // spacing between taps at this level
            let delay = (1usize << (k + 1)) - 1;
            // g = [1, -1] with holes, fused with the delay
            // compensation: wk[i] = a[i+delay] - a[i+delay-hole]
            // (i+delay ≥ delay ≥ hole, so the clamped-prologue case of
            // the unfused form never occurs; the tail stays zero as
            // before).
            wk.clear();
            wk.resize(n, 0);
            for (i, wv) in wk.iter_mut().enumerate().take(n.saturating_sub(delay)) {
                let j = i + delay;
                *wv = (approx[j] - approx[j - hole]) as i32;
            }
            // h = [1,3,3,1]/8 with holes: clamped prologue, then a
            // branch-free sweep.
            next.clear();
            next.resize(n, 0);
            let h3 = 3 * hole;
            for (i, a) in next.iter_mut().enumerate().take(h3.min(n)) {
                let tap = |off: usize| approx[i.saturating_sub(off)];
                let s = tap(0) + 3 * tap(hole) + 3 * tap(2 * hole) + tap(h3);
                // Round-to-nearest shift keeps the integer pipeline stable.
                *a = (s + 4) >> 3;
            }
            for (i, a) in next.iter_mut().enumerate().skip(h3) {
                let s =
                    approx[i] + 3 * approx[i - hole] + 3 * approx[i - 2 * hole] + approx[i - h3];
                *a = (s + 4) >> 3;
            }
            core::mem::swap(approx, next);
        }
    }

    /// RMS magnitude of each scale's detail signal — the adaptive
    /// thresholds of the delineator are proportional to these.
    pub fn scale_rms(details: &[Vec<i32>]) -> Vec<f64> {
        details
            .iter()
            .map(|w| {
                if w.is_empty() {
                    0.0
                } else {
                    let ss: f64 = w.iter().map(|&v| (v as f64) * (v as f64)).sum();
                    (ss / w.len() as f64).sqrt()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * core::f64::consts::PI * 3.0 * t).sin()
                    + 0.5 * (2.0 * core::f64::consts::PI * 17.0 * t).cos()
            })
            .collect()
    }

    #[test]
    fn perfect_reconstruction_all_wavelets() {
        let x = test_signal(256);
        for w in [Wavelet::Haar, Wavelet::Db2, Wavelet::Db4] {
            for levels in 1..=5 {
                let c = wavedec(&x, w, levels).unwrap();
                let y = waverec(&c, w, levels).unwrap();
                let err: f64 = x
                    .iter()
                    .zip(&y)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(err < 1e-9, "{w:?} L{levels}: max err {err}");
            }
        }
    }

    #[test]
    fn transform_preserves_energy() {
        // Orthonormality: ||Wx|| == ||x||.
        let x = test_signal(512);
        let c = wavedec(&x, Wavelet::Db4, 5).unwrap();
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ec: f64 = c.iter().map(|v| v * v).sum();
        assert!((ex - ec).abs() / ex < 1e-10);
    }

    #[test]
    fn adjoint_property_holds() {
        // <Wx, y> == <x, W^T y> where W^T = waverec (orthonormal).
        let x = test_signal(128);
        let y: Vec<f64> = (0..128).map(|i| ((i * 29 + 7) % 13) as f64 - 6.0).collect();
        let wx = wavedec(&x, Wavelet::Db4, 4).unwrap();
        let wty = waverec(&y, Wavelet::Db4, 4).unwrap();
        let lhs: f64 = wx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&wty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn smooth_signal_is_sparse_in_db4() {
        // An ECG-like smooth bump: most coefficient energy concentrates
        // in few coefficients.
        let n = 512;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let d = (i as f64 - 256.0) / 12.0;
                (-d * d / 2.0).exp()
            })
            .collect();
        let mut c = wavedec(&x, Wavelet::Db4, 5).unwrap();
        let total: f64 = c.iter().map(|v| v * v).sum();
        c.sort_by(|a, b| (b * b).partial_cmp(&(a * a)).unwrap());
        let top32: f64 = c[..32].iter().map(|v| v * v).sum();
        assert!(
            top32 / total > 0.999,
            "top 32 of 512 coeffs must hold >99.9% energy, got {}",
            top32 / total
        );
    }

    #[test]
    fn filters_are_quadrature_mirror() {
        for w in [Wavelet::Haar, Wavelet::Db2, Wavelet::Db4] {
            let h = w.scaling_filter();
            let g = w.wavelet_filter();
            // Orthogonality of h and g.
            let dot: f64 = h.iter().zip(g).map(|(a, b)| a * b).sum();
            assert!(dot.abs() < 1e-12, "{w:?}");
            // Unit norm.
            let nh: f64 = h.iter().map(|v| v * v).sum();
            assert!((nh - 1.0).abs() < 1e-10, "{w:?}");
        }
    }

    #[test]
    fn rejects_bad_lengths() {
        let x = vec![0.0; 100]; // not divisible by 2^3
        assert!(wavedec(&x, Wavelet::Haar, 3).is_err());
        assert!(wavedec(&[], Wavelet::Haar, 1).is_err());
        assert!(wavedec(&x, Wavelet::Haar, 0).is_err());
        assert!(waverec(&x, Wavelet::Haar, 3).is_err());
    }

    #[test]
    fn atrous_zero_crossing_at_peak() {
        // Symmetric triangular peak at index 100: w_k must cross zero
        // within ±2 samples of it at the small scales.
        let n = 256usize;
        let x: Vec<i32> = (0..n)
            .map(|i| {
                let d = (i as i32 - 100).abs();
                (30 - d).max(0) * 40
            })
            .collect();
        let t = AtrousQspline::new(4).unwrap();
        let details = t.transform(&x);
        for (k, w) in details.iter().enumerate().take(3) {
            // find sign change from + to - near the peak
            let mut crossing = None;
            for i in 80..120 {
                if w[i] > 0 && w[i + 1] <= 0 {
                    crossing = Some(i);
                    break;
                }
            }
            let c = crossing.unwrap_or(0) as i32;
            assert!(
                (c - 100).abs() <= 2 + k as i32,
                "scale {} crossing at {c}, want ≈100",
                k + 1
            );
        }
    }

    #[test]
    fn atrous_scales_smooth_progressively() {
        // High-frequency noise should fade at deeper scales.
        let mut state = 99u32;
        let x: Vec<i32> = (0..512)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 24) as i32) - 128
            })
            .collect();
        let t = AtrousQspline::new(5).unwrap();
        let d = t.transform(&x);
        let rms = AtrousQspline::scale_rms(&d);
        // Noise energy is strongest at scale 1-2 and must drop by scale 5.
        assert!(
            rms[4] < rms[0],
            "deep-scale rms {} must be below scale-1 rms {}",
            rms[4],
            rms[0]
        );
    }

    #[test]
    fn atrous_rejects_bad_levels() {
        assert!(AtrousQspline::new(0).is_err());
        assert!(AtrousQspline::new(9).is_err());
    }
}
