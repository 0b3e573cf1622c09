//! Bit-level oracle for the CS reconstruction path.
//!
//! The solver runs on scratch-buffered kernels (`wavedec_into`,
//! `waverec_into`, `SparseTernaryMatrix::apply_into`/`apply_t_into`)
//! and one reused `FistaWorkspace`. The `reference` module keeps the
//! allocating DWT and FISTA loop those replaced, written the
//! straightforward way: a fresh `Vec` per operator application and
//! `(2k + j) % n` on every filter tap. Pinned here:
//!
//! * each kernel equals its reference to the bit on random inputs:
//!   Haar/Db2/Db4, levels 1..=5, lengths down to `2^levels` (where the
//!   periodic wrap repeats), signed zeros, and dirty output buffers;
//! * `Fista::solve_with` on one reused workspace equals the reference
//!   loop to the bit, iteration counts included, across shapes,
//!   restart on/off, the tree model, and cold/warm starts;
//! * an FNV-1a digest of `x.to_bits()` plus iteration counts over a
//!   fixed warm stream equals the value captured from the allocating
//!   solver before the kernel rewrite.

use proptest::prelude::*;
use wbsn_cs::encoder::CsEncoder;
use wbsn_cs::solver::{Fista, FistaConfig, FistaState, FistaWorkspace};
use wbsn_ecg_synth::noise::NoiseConfig;
use wbsn_ecg_synth::RecordBuilder;
use wbsn_sigproc::wavelet::{wavedec_into, waverec_into, DwtScratch, Wavelet};
use wbsn_sigproc::SparseTernaryMatrix;

const WAVELETS: [Wavelet; 3] = [Wavelet::Haar, Wavelet::Db2, Wavelet::Db4];

/// The allocating kernels and solver loop, as written before the
/// scratch-buffered rewrite.
mod reference {
    use wbsn_cs::solver::{soft_threshold, FistaConfig};
    use wbsn_sigproc::wavelet::Wavelet;
    use wbsn_sigproc::SparseTernaryMatrix;

    fn wavelet_filter(w: Wavelet) -> Vec<f64> {
        let h = w.scaling_filter();
        let l = h.len();
        (0..l)
            .map(|n| {
                let sign = if n % 2 == 0 { 1.0 } else { -1.0 };
                sign * h[l - 1 - n]
            })
            .collect()
    }

    pub fn wavedec(x: &[f64], wavelet: Wavelet, levels: usize) -> Vec<f64> {
        let h = wavelet.scaling_filter();
        let g = wavelet_filter(wavelet);
        let mut approx = x.to_vec();
        let mut details: Vec<Vec<f64>> = Vec::with_capacity(levels);
        for _ in 0..levels {
            let n = approx.len();
            let half = n / 2;
            let mut a = vec![0.0; half];
            let mut d = vec![0.0; half];
            for k in 0..half {
                let mut sa = 0.0;
                let mut sd = 0.0;
                for (j, (&hj, &gj)) in h.iter().zip(&g).enumerate() {
                    let idx = (2 * k + j) % n;
                    sa += hj * approx[idx];
                    sd += gj * approx[idx];
                }
                a[k] = sa;
                d[k] = sd;
            }
            details.push(d);
            approx = a;
        }
        let mut out = approx;
        for d in details.into_iter().rev() {
            out.extend(d);
        }
        out
    }

    pub fn waverec(coeffs: &[f64], wavelet: Wavelet, levels: usize) -> Vec<f64> {
        let h = wavelet.scaling_filter();
        let g = wavelet_filter(wavelet);
        let n = coeffs.len();
        let coarsest = n >> levels;
        let mut approx = coeffs[..coarsest].to_vec();
        let mut offset = coarsest;
        for lev in (0..levels).rev() {
            let dn = n >> (lev + 1);
            let d = &coeffs[offset..offset + dn];
            offset += dn;
            let out_n = dn * 2;
            let mut out = vec![0.0; out_n];
            for k in 0..dn {
                for (j, (&hj, &gj)) in h.iter().zip(&g).enumerate() {
                    let idx = (2 * k + j) % out_n;
                    out[idx] += hj * approx[k] + gj * d[k];
                }
            }
            approx = out;
        }
        approx
    }

    /// Φ as per-column `(row, sign)` lists in ascending row order,
    /// read back from the dense expansion.
    pub struct Phi<'a> {
        pub sparse: &'a SparseTernaryMatrix,
        cols: Vec<Vec<(usize, bool)>>,
    }

    impl<'a> Phi<'a> {
        pub fn new(sparse: &'a SparseTernaryMatrix) -> Self {
            let dense = sparse.to_dense();
            let cols = (0..sparse.cols())
                .map(|c| {
                    (0..sparse.rows())
                        .filter(|&r| dense.at(r, c) != 0.0)
                        .map(|r| (r, dense.at(r, c) > 0.0))
                        .collect()
                })
                .collect();
            Phi { sparse, cols }
        }

        /// `Φ x` as a column-order scatter onto a fresh zero vector.
        pub fn apply(&self, x: &[f64]) -> Vec<f64> {
            let mut y = vec![0.0; self.sparse.rows()];
            for (col, &xv) in self.cols.iter().zip(x) {
                for &(r, pos) in col {
                    if pos {
                        y[r] += xv;
                    } else {
                        y[r] -= xv;
                    }
                }
            }
            y
        }

        /// `Φᵀ y`: its sums run in the matrix's stored row order, which
        /// only the matrix itself knows, so the reference defers to the
        /// allocating entry point.
        pub fn apply_t(&self, y: &[f64]) -> Vec<f64> {
            self.sparse.apply_t(y)
        }
    }

    fn enforce_tree(a: &mut [f64], n: usize, levels: usize) {
        let coarsest = n >> levels;
        let mut parent_start = coarsest;
        for lev in (1..levels).rev() {
            let child_start = n - (n >> lev);
            let child_len = n >> lev;
            for c in 0..child_len {
                if a[parent_start + c / 2] == 0.0 {
                    a[child_start + c] = 0.0;
                }
            }
            parent_start = child_start;
        }
    }

    /// Warm state of the reference loop: `(Lipschitz constant, warm
    /// coefficients)`.
    pub type State = (Option<f64>, Vec<f64>);

    pub fn solve(
        cfg: &FistaConfig,
        phi: &Phi<'_>,
        y: &[f64],
        state: Option<&mut State>,
    ) -> (Vec<f64>, usize) {
        let n = phi.sparse.cols();
        let w = cfg.wavelet;
        let lv = cfg.levels;
        let apply = |a: &[f64]| phi.apply(&waverec(a, w, lv));
        let apply_t = |r: &[f64]| wavedec(&phi.apply_t(r), w, lv);
        let lip = match state.as_ref().and_then(|s| s.0) {
            Some(l) => l,
            None => {
                let mut v = vec![1.0; n];
                let mut lam = 1.0f64;
                for _ in 0..12 {
                    let av = apply(&v);
                    let atav = apply_t(&av);
                    lam = atav.iter().map(|x| x * x).sum::<f64>().sqrt();
                    if lam <= 0.0 {
                        break;
                    }
                    for (vi, &ai) in v.iter_mut().zip(&atav) {
                        *vi = ai / lam;
                    }
                }
                lam.max(1e-12)
            }
        };
        let step = 1.0 / lip;
        let aty = apply_t(y);
        let linf = aty.iter().fold(0.0f64, |mx, &v| mx.max(v.abs()));
        let lambda = cfg.lambda_rel * linf;
        let mut a = match state.as_ref() {
            Some(s) if s.1.len() == n => s.1.clone(),
            _ => vec![0.0; n],
        };
        let mut z = a.clone();
        let mut t = 1.0f64;
        let mut prev_norm = 0.0f64;
        let mut iters = 0usize;
        for _ in 0..cfg.max_iters {
            iters += 1;
            let az = apply(&z);
            let resid: Vec<f64> = az.iter().zip(y).map(|(p, q)| p - q).collect();
            let grad = apply_t(&resid);
            let mut a_next: Vec<f64> = z
                .iter()
                .zip(&grad)
                .map(|(&zi, &gi)| soft_threshold(zi - step * gi, step * lambda))
                .collect();
            if cfg.tree_model {
                enforce_tree(&mut a_next, n, lv);
            }
            if cfg.restart {
                let overshoot: f64 = z
                    .iter()
                    .zip(&a_next)
                    .zip(&a)
                    .map(|((&zi, &an), &ao)| (zi - an) * (an - ao))
                    .sum();
                if overshoot > 0.0 {
                    t = 1.0;
                }
            }
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_next;
            z = a_next
                .iter()
                .zip(&a)
                .map(|(&an, &ao)| an + beta * (an - ao))
                .collect();
            let change: f64 = a_next
                .iter()
                .zip(&a)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            let norm: f64 = a_next.iter().map(|x| x * x).sum::<f64>().sqrt();
            a = a_next;
            t = t_next;
            if norm > 0.0 && change / norm.max(prev_norm) < cfg.tol {
                break;
            }
            prev_norm = norm;
        }
        let x = waverec(&a, w, lv);
        if let Some(s) = state {
            s.0 = Some(lip);
            s.1 = a;
        }
        (x, iters)
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `vals[..len]` with every third block of 8 samples replaced by zeros
/// whose signs come from `signs`: whole filter windows then read only
/// zeros, where the seed of a sum decides the sign of its result.
fn with_signed_zeros(vals: &[f64], len: usize, signs: u64) -> Vec<f64> {
    vals[..len]
        .iter()
        .enumerate()
        .map(|(i, &v)| match ((i / 8) % 3, signs >> (i % 64) & 1) {
            (0, 0) => 0.0,
            (0, _) => -0.0,
            _ => v,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dwt_kernels_match_reference_bits(
        levels in 1usize..6,
        blocks in 1usize..5,
        vals in prop::collection::vec(-1000.0f64..1000.0, 128),
        signs in 0u64..u64::MAX,
    ) {
        // blocks == 1 is the shortest legal length, 2^levels: the
        // coarsest level has 2 samples and every tap wraps repeatedly.
        let len = blocks << levels;
        let x = with_signed_zeros(&vals, len, signs);
        let mut scratch = DwtScratch::default();
        for w in WAVELETS {
            // Output buffers start dirty: the kernels must overwrite,
            // never read, them.
            let mut dec = vec![f64::NAN; len];
            wavedec_into(&x, w, levels, &mut dec, &mut scratch).unwrap();
            prop_assert_eq!(bits(&dec), bits(&reference::wavedec(&x, w, levels)));
            let mut rec = vec![f64::NAN; len];
            waverec_into(&x, w, levels, &mut rec, &mut scratch).unwrap();
            prop_assert_eq!(bits(&rec), bits(&reference::waverec(&x, w, levels)));
        }
    }

    #[test]
    fn matrix_kernels_match_reference_bits(
        rows in 1usize..40,
        cols in 1usize..80,
        d in 1usize..5,
        seed in 0u64..1000,
        vals in prop::collection::vec(-1000.0f64..1000.0, 80),
        signs in 0u64..u64::MAX,
    ) {
        let phi = SparseTernaryMatrix::random(rows, cols, d.min(rows), seed).unwrap();
        let reference = reference::Phi::new(&phi);
        let x = with_signed_zeros(&vals, cols, signs);
        let mut y = vec![f64::NAN; rows];
        phi.apply_into(&x, &mut y);
        prop_assert_eq!(bits(&y), bits(&reference.apply(&x)));
        let r = with_signed_zeros(&vals, rows, !signs);
        let mut xt = vec![f64::NAN; cols];
        phi.apply_t_into(&r, &mut xt);
        prop_assert_eq!(bits(&xt), bits(&reference.apply_t(&r)));
    }
}

#[test]
fn dwt_kernels_keep_the_sign_of_all_zero_inputs() {
    // A +0.0-seeded sum of `h·(−0.0)` terms is +0.0; a kernel that
    // seeded with the first product instead would return −0.0.
    let mut scratch = DwtScratch::default();
    for w in WAVELETS {
        for levels in 1..=5 {
            for zero in [0.0, -0.0] {
                let x = vec![zero; 2 << levels];
                let mut out = vec![f64::NAN; x.len()];
                wavedec_into(&x, w, levels, &mut out, &mut scratch).unwrap();
                assert_eq!(bits(&out), bits(&reference::wavedec(&x, w, levels)));
                waverec_into(&x, w, levels, &mut out, &mut scratch).unwrap();
                assert_eq!(bits(&out), bits(&reference::waverec(&x, w, levels)));
            }
        }
    }
}

fn gateway_cfg() -> FistaConfig {
    FistaConfig {
        lambda_rel: 0.001,
        max_iters: 800,
        tol: 3e-5,
        restart: true,
        ..FistaConfig::default()
    }
}

/// One measurement stream: consecutive windows of a synthetic
/// ambulatory ECG lead, encoded through a `(n, m, d)` Φ.
fn stream(seed: u64, n: usize, m: usize, d: usize, windows: usize) -> (CsEncoder, Vec<Vec<f64>>) {
    let rec = RecordBuilder::new(seed)
        .duration_s((n * windows) as f64 / 250.0 + 1.0)
        .n_leads(1)
        .noise(NoiseConfig::ambulatory(20.0))
        .build();
    let enc = CsEncoder::for_lead(n, m, d, seed, 0).unwrap();
    let ys = rec
        .lead(0)
        .chunks_exact(n)
        .take(windows)
        .map(|w| enc.encode(w).unwrap().iter().map(|&v| v as f64).collect())
        .collect();
    (enc, ys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn solve_with_matches_reference_loop_bits(
        seed in 0u64..1_000_000,
        log_n in 6usize..9,
        m_pct in 25usize..75,
        d in 2usize..6,
        restart in 0u8..2,
        tree in 0u8..2,
        lambda_rel in 0.001f64..0.03,
    ) {
        let cfg = FistaConfig {
            lambda_rel,
            max_iters: 60,
            tol: 3e-5,
            restart: restart == 1,
            tree_model: tree == 1,
            levels: log_n - 2,
            ..FistaConfig::default()
        };
        let fista = Fista::new(cfg);
        // One workspace across both shapes, as a gateway worker shares
        // it across sessions.
        let mut ws = FistaWorkspace::new();
        for n in [1usize << log_n, 1usize << (log_n - 1)] {
            let m = n * m_pct / 100;
            let (enc, ys) = stream(seed, n, m, d, 3);
            let reference_phi = reference::Phi::new(enc.sensing_matrix());
            let mut state = FistaState::new();
            let mut ref_state: reference::State = (None, Vec::new());
            for y in &ys {
                let cold = fista.solve_with(enc.sensing_matrix(), y, None, &mut ws).unwrap();
                let (ref_x, ref_iters) = reference::solve(&cfg, &reference_phi, y, None);
                prop_assert_eq!((bits(&cold.x), cold.iters), (bits(&ref_x), ref_iters));
                let warm = fista
                    .solve_with(enc.sensing_matrix(), y, Some(&mut state), &mut ws)
                    .unwrap();
                let (ref_x, ref_iters) =
                    reference::solve(&cfg, &reference_phi, y, Some(&mut ref_state));
                prop_assert_eq!((bits(&warm.x), warm.iters), (bits(&ref_x), ref_iters));
            }
        }
    }
}

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[test]
fn warm_stream_digest_is_pinned() {
    let restart_off = FistaConfig::default();
    let tree = FistaConfig {
        tree_model: true,
        lambda_rel: 0.02,
        ..FistaConfig::default()
    };
    let cases: [(FistaConfig, u64, usize, usize); 3] = [
        (gateway_cfg(), 31, 512, 179),
        (restart_off, 32, 256, 128),
        (tree, 33, 256, 110),
    ];
    let mut ws = FistaWorkspace::new();
    let mut h = Fnv::new();
    let mut iters = 0usize;
    for (cfg, seed, n, m) in cases {
        let fista = Fista::new(cfg);
        let (enc, ys) = stream(seed, n, m, 4, 6);
        // A cold solve of every window, then the warm stream whose
        // first window is cold as well.
        let mut state = FistaState::new();
        for warm in [false, true] {
            for y in &ys {
                let st = if warm { Some(&mut state) } else { None };
                let s = fista
                    .solve_with(enc.sensing_matrix(), y, st, &mut ws)
                    .unwrap();
                h.word(s.iters as u64);
                iters += s.iters;
                s.x.iter().for_each(|v| h.word(v.to_bits()));
            }
        }
    }
    // Captured from the allocating solver that preceded the
    // scratch-buffered kernels; any change to the arithmetic order of
    // the solve moves it.
    assert_eq!(
        (h.0, iters),
        (0xdda8_a3db_8edb_169a, 11665),
        "digest {:#018x}",
        h.0
    );
}
