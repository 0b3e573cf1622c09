//! Single-lead CS reconstruction: FISTA over a wavelet dictionary.
//!
//! Solves `min_a ½‖y − ΦΨa‖² + λ‖a‖₁` where Ψ is an orthonormal
//! Daubechies synthesis operator, then returns `x̂ = Ψâ`. The fast
//! iterative shrinkage-thresholding algorithm (Beck & Teboulle 2009)
//! is the standard decoder in the ECG-CS literature the paper builds
//! on; an optional wavelet-tree constraint implements the connected
//! tree model of Duarte et al. (reference \[17\]).

use crate::encoder::CsEncoder;
use crate::{CsError, Result};
use wbsn_sigproc::wavelet::{wavedec_into, waverec_into, DwtScratch, Wavelet};
use wbsn_sigproc::SparseTernaryMatrix;

/// FISTA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FistaConfig {
    /// Sparsifying wavelet.
    pub wavelet: Wavelet,
    /// Decomposition levels (window length must divide by `2^levels`).
    pub levels: usize,
    /// λ as a fraction of `‖Aᵀy‖∞` (adaptive regularization).
    pub lambda_rel: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Relative-change stopping tolerance.
    pub tol: f64,
    /// Adaptive (gradient) restart, O'Donoghue & Candès 2015: reset
    /// the momentum whenever it points against the descent direction
    /// (`⟨z − a⁺, a⁺ − a⟩ > 0`). Suppresses FISTA's objective ripples,
    /// giving near-monotone, locally linear convergence — which is
    /// what lets the movement tolerance [`FistaConfig::tol`] fire
    /// after a handful of iterations when a solve is warm-started
    /// close to its optimum. `false` preserves the historical
    /// plain-FISTA iterate sequence bit for bit.
    pub restart: bool,
    /// Enforce the parent-child wavelet tree model after shrinkage.
    pub tree_model: bool,
}

impl Default for FistaConfig {
    fn default() -> Self {
        FistaConfig {
            wavelet: Wavelet::Db4,
            levels: 5,
            lambda_rel: 0.005,
            max_iters: 200,
            tol: 1e-5,
            restart: false,
            tree_model: false,
        }
    }
}

/// Reusable per-stream solver state for warm-started solves.
///
/// A gateway decodes one window after another through the *same*
/// sensing matrix, and consecutive ECG windows share most of their
/// wavelet support. The state carries the two quantities that makes
/// the next solve cheap:
///
/// * the **Lipschitz constant** of `A = ΦΨ` — a property of the fixed
///   matrix, so the 12-round power iteration (24 operator
///   applications, ≈12 FISTA iterations' worth of work) runs once per
///   stream instead of once per window;
/// * the **previous window's coefficient solution**, which seeds the
///   next solve far closer to its optimum than the cold all-zeros
///   start, so the early-exit tolerance fires after a fraction of the
///   cold iteration count (pinned ≥2× by `tests/warm_start.rs`).
///
/// The state is only valid for a fixed `(Φ, FistaConfig)` pair —
/// [`FistaState::reset`] it when the sensing matrix changes (the
/// gateway does so on any handshake change). Both cached values are
/// stored with the operator shape `(m, n)` they were computed for; a
/// solve of any other shape drops them and starts cold, so a stale
/// state can degrade speed, never correctness.
///
/// The state holds no solver buffers: those live in one
/// [`FistaWorkspace`] per solving thread, shared by every stream it
/// serves.
#[derive(Debug, Clone, Default)]
pub struct FistaState {
    /// Operator shape `(m, n)` and the Lipschitz constant of `AᵀA`
    /// cached for it (`None` until the first solve).
    lip: Option<((usize, usize), f64)>,
    /// Previous solution in the coefficient domain.
    warm: Vec<f64>,
}

impl FistaState {
    /// Fresh (cold) state.
    pub fn new() -> Self {
        FistaState::default()
    }

    /// Forgets everything — required when the sensing matrix changes.
    pub fn reset(&mut self) {
        self.lip = None;
        self.warm.clear();
    }

    /// True when the state holds no warm vector (fresh or reset). A
    /// state cached for another operator shape also solves cold.
    pub fn is_cold(&self) -> bool {
        self.warm.is_empty()
    }
}

/// Working memory of [`Fista::solve_with`]: every iterate, gradient
/// and operator temporary of one solve, plus the DWT ping-pong
/// buffers. Sized lazily from the operator shape `(m, n)` and reused,
/// so a warm solve allocates nothing but its returned window.
///
/// Own one per solving thread (a gateway worker, a replay pass), not
/// one per session: the contents never outlive a solve, so its memory
/// does not grow with the number of streams.
#[derive(Debug, Clone, Default)]
pub struct FistaWorkspace {
    dwt: DwtScratch,
    /// Current iterate `a` (coefficient domain, `n`).
    a: Vec<f64>,
    /// Next iterate `a⁺` (`n`); the power iteration's vector.
    a_next: Vec<f64>,
    /// Extrapolated point `z` (`n`).
    z: Vec<f64>,
    /// Gradient `Aᵀ(Az − y)`, or `Aᵀy` before the loop (`n`).
    grad: Vec<f64>,
    /// Signal-domain temporary between Ψ and Φ (`n`).
    sig: Vec<f64>,
    /// Measurement-domain `Az`, then the residual `Az − y` (`m`).
    resid: Vec<f64>,
}

impl FistaWorkspace {
    /// Empty workspace; the first solve sizes it.
    pub fn new() -> Self {
        FistaWorkspace::default()
    }

    fn fit(&mut self, m: usize, n: usize) {
        for v in [
            &mut self.a,
            &mut self.a_next,
            &mut self.z,
            &mut self.grad,
            &mut self.sig,
        ] {
            v.resize(n, 0.0);
        }
        self.resid.resize(m, 0.0);
    }
}

/// `A = ΦΨ` and its adjoint over caller-owned buffers.
struct Operator<'a> {
    phi: &'a SparseTernaryMatrix,
    wavelet: Wavelet,
    levels: usize,
}

impl Operator<'_> {
    /// `out = Φ Ψ coef`, through the signal-domain temporary `sig`.
    fn apply(
        &self,
        coef: &[f64],
        sig: &mut [f64],
        dwt: &mut DwtScratch,
        out: &mut [f64],
    ) -> Result<()> {
        waverec_into(coef, self.wavelet, self.levels, sig, dwt)?;
        self.phi.apply_into(sig, out);
        Ok(())
    }

    /// `out = Ψᵀ Φᵀ r` (Ψ orthonormal), through `sig`.
    fn apply_t(
        &self,
        r: &[f64],
        sig: &mut [f64],
        dwt: &mut DwtScratch,
        out: &mut [f64],
    ) -> Result<()> {
        self.phi.apply_t_into(r, sig);
        wavedec_into(sig, self.wavelet, self.levels, out, dwt)?;
        Ok(())
    }
}

/// One reconstruction plus its diagnostics.
#[derive(Debug, Clone)]
pub struct FistaSolve {
    /// Reconstructed window samples (`x̂ = Ψâ`).
    pub x: Vec<f64>,
    /// FISTA iterations actually run (early exit counts fewer than
    /// [`FistaConfig::max_iters`]).
    pub iters: usize,
}

/// Single-lead FISTA solver.
#[derive(Debug, Clone)]
pub struct Fista {
    cfg: FistaConfig,
}

impl Fista {
    /// Creates a solver with the given configuration.
    pub fn new(cfg: FistaConfig) -> Self {
        Fista { cfg }
    }

    /// Configuration in use.
    pub fn config(&self) -> &FistaConfig {
        &self.cfg
    }

    /// Reconstructs a window from its measurements.
    ///
    /// # Errors
    ///
    /// Fails when shapes are inconsistent with the encoder or the
    /// window length is incompatible with the configured levels.
    pub fn reconstruct(&self, encoder: &CsEncoder, y: &[i64]) -> Result<Vec<f64>> {
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        self.reconstruct_f64(encoder.sensing_matrix(), &yf)
    }

    /// Warm-started solve: seeds from `state` (previous window's
    /// solution + cached Lipschitz constant) and updates it for the
    /// next window. The first call on a fresh state is an ordinary
    /// cold solve that additionally fills the state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fista::reconstruct`].
    pub fn reconstruct_warm(
        &self,
        encoder: &CsEncoder,
        y: &[i64],
        state: &mut FistaState,
    ) -> Result<FistaSolve> {
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        self.solve(encoder.sensing_matrix(), &yf, Some(state))
    }

    /// Float-measurement variant (used by the sweep machinery).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fista::reconstruct`].
    pub fn reconstruct_f64(&self, phi: &SparseTernaryMatrix, y: &[f64]) -> Result<Vec<f64>> {
        Ok(self.solve(phi, y, None)?.x)
    }

    /// [`Fista::solve_with`] on a one-off workspace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fista::reconstruct`].
    pub fn solve(
        &self,
        phi: &SparseTernaryMatrix,
        y: &[f64],
        state: Option<&mut FistaState>,
    ) -> Result<FistaSolve> {
        self.solve_with(phi, y, state, &mut FistaWorkspace::new())
    }

    /// The solver core: cold when `state` is `None` (or fresh, or
    /// cached for another shape), warm-started otherwise. Every buffer
    /// comes from `ws`, so once it is sized a solve allocates only the
    /// returned window.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fista::reconstruct`].
    pub fn solve_with(
        &self,
        phi: &SparseTernaryMatrix,
        y: &[f64],
        mut state: Option<&mut FistaState>,
        ws: &mut FistaWorkspace,
    ) -> Result<FistaSolve> {
        let n = phi.cols();
        let m = phi.rows();
        if y.len() != m {
            return Err(CsError::ShapeMismatch {
                what: "measurement vector",
                expected: m,
                got: y.len(),
            });
        }
        // `levels` can arrive from an archive header: a shift past the
        // word size is an error, not an overflow.
        let block = u32::try_from(self.cfg.levels)
            .ok()
            .and_then(|l| 1usize.checked_shl(l));
        if block.is_none_or(|b| n % b != 0) {
            return Err(CsError::InvalidParameter {
                what: "levels",
                detail: format!("window {n} not divisible by 2^{}", self.cfg.levels),
            });
        }
        if let Some(s) = state.as_deref_mut() {
            if s.lip.is_some_and(|(shape, _)| shape != (m, n)) {
                s.reset();
            }
        }
        ws.fit(m, n);
        let FistaWorkspace {
            dwt,
            a,
            a_next,
            z,
            grad,
            sig,
            resid,
        } = ws;
        let op = Operator {
            phi,
            wavelet: self.cfg.wavelet,
            levels: self.cfg.levels,
        };

        // Lipschitz constant of ∇f via power iteration on AᵀA — a
        // property of the fixed operator, so a warm state pays it once
        // per stream.
        let cached_lip = state.as_ref().and_then(|s| s.lip).map(|(_, l)| l);
        let lip = match cached_lip {
            Some(l) => l,
            None => {
                let v = &mut *a_next;
                v.fill(1.0);
                let mut lam = 1.0f64;
                for _ in 0..12 {
                    op.apply(v, sig, dwt, resid)?;
                    op.apply_t(resid, sig, dwt, grad)?;
                    lam = grad.iter().map(|x| x * x).sum::<f64>().sqrt();
                    if lam <= 0.0 {
                        break;
                    }
                    for (vi, &ai) in v.iter_mut().zip(grad.iter()) {
                        *vi = ai / lam;
                    }
                }
                lam.max(1e-12)
            }
        };
        let step = 1.0 / lip;

        op.apply_t(y, sig, dwt, grad)?;
        let linf = grad.iter().fold(0.0f64, |mx, &v| mx.max(v.abs()));
        let lambda = self.cfg.lambda_rel * linf;
        let thresh = step * lambda;

        // Warm start: the previous window's solution (the shape check
        // above already dropped a state cached for another operator).
        match state.as_ref() {
            Some(s) if s.warm.len() == n => a.copy_from_slice(&s.warm),
            _ => a.fill(0.0),
        }
        z.copy_from_slice(a);
        let mut t = 1.0f64;
        let mut prev_norm = 0.0f64;
        let mut iters = 0usize;
        for _ in 0..self.cfg.max_iters {
            iters += 1;
            op.apply(z, sig, dwt, resid)?;
            for (r, &q) in resid.iter_mut().zip(y) {
                *r -= q;
            }
            op.apply_t(resid, sig, dwt, grad)?;
            for ((an, &zi), &gi) in a_next.iter_mut().zip(z.iter()).zip(grad.iter()) {
                *an = soft_threshold(zi - step * gi, thresh);
            }
            if self.cfg.tree_model {
                enforce_tree(a_next, n, self.cfg.levels);
            }
            // Gradient restart: when the momentum direction `a⁺ − a`
            // opposes the step the prox-gradient actually took from z,
            // the extrapolation is overshooting — drop it.
            if self.cfg.restart {
                let overshoot: f64 = z
                    .iter()
                    .zip(a_next.iter())
                    .zip(a.iter())
                    .map(|((&zi, &an), &ao)| (zi - an) * (an - ao))
                    .sum();
                if overshoot > 0.0 {
                    t = 1.0;
                }
            }
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_next;
            for ((zi, &an), &ao) in z.iter_mut().zip(a_next.iter()).zip(a.iter()) {
                *zi = an + beta * (an - ao);
            }
            let change: f64 = a_next
                .iter()
                .zip(a.iter())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            let norm: f64 = a_next.iter().map(|x| x * x).sum::<f64>().sqrt();
            core::mem::swap(a, a_next);
            t = t_next;
            if norm > 0.0 && change / norm.max(prev_norm) < self.cfg.tol {
                break;
            }
            prev_norm = norm;
        }
        let mut x = vec![0.0; n];
        waverec_into(a, self.cfg.wavelet, self.cfg.levels, &mut x, dwt)?;
        if let Some(s) = state {
            s.lip = Some(((m, n), lip));
            s.warm.clear();
            s.warm.extend_from_slice(a);
        }
        Ok(FistaSolve { x, iters })
    }
}

/// Soft-thresholding (proximal operator of `λ‖·‖₁`).
pub fn soft_threshold(v: f64, thresh: f64) -> f64 {
    if v > thresh {
        v - thresh
    } else if v < -thresh {
        v + thresh
    } else {
        0.0
    }
}

/// Enforces the wavelet parent-child model: a detail coefficient may
/// survive only if its parent at the next-coarser scale survived.
/// Coefficients are packed `[a_L | d_L | d_{L-1} | … | d_1]`.
fn enforce_tree(a: &mut [f64], n: usize, levels: usize) {
    // Walk from the coarsest detail band to the finest.
    let coarsest = n >> levels;
    let mut parent_start = coarsest; // d_L
    for lev in (1..levels).rev() {
        let child_start = n - (n >> lev); // start of d_lev
        let child_len = n >> lev;
        let parent_len = child_len / 2;
        for c in 0..child_len {
            let p = parent_start + c / 2;
            debug_assert!(p < parent_start + parent_len);
            if a[p] == 0.0 {
                a[child_start + c] = 0.0;
            }
        }
        parent_start = child_start;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::CsEncoder;
    use wbsn_sigproc::stats::snr_db;

    /// An ECG-like window: two smooth bumps (QRS + T).
    fn ecg_like(n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| {
                let qrs = 900.0 * (-((i as f64 - n as f64 * 0.4) / 6.0).powi(2) / 2.0).exp();
                let t = 250.0 * (-((i as f64 - n as f64 * 0.62) / 20.0).powi(2) / 2.0).exp();
                (qrs + t) as i32
            })
            .collect()
    }

    #[test]
    fn soft_threshold_laws() {
        assert_eq!(soft_threshold(5.0, 2.0), 3.0);
        assert_eq!(soft_threshold(-5.0, 2.0), -3.0);
        assert_eq!(soft_threshold(1.0, 2.0), 0.0);
        assert_eq!(soft_threshold(0.0, 0.0), 0.0);
    }

    #[test]
    fn reconstructs_sparse_signal_at_moderate_cr() {
        let n = 256;
        let x = ecg_like(n);
        let enc = CsEncoder::new(n, 128, 4, 11).unwrap();
        let y = enc.encode(&x).unwrap();
        let solver = Fista::new(FistaConfig::default());
        let xr = solver.reconstruct(&enc, &y).unwrap();
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let snr = snr_db(&xf, &xr);
        assert!(snr > 18.0, "CR=50% snr {snr}");
    }

    #[test]
    fn quality_degrades_with_cr() {
        let n = 256;
        let x = ecg_like(n);
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let solver = Fista::new(FistaConfig::default());
        let snr_at = |m: usize| {
            let enc = CsEncoder::new(n, m, 4, 13).unwrap();
            let y = enc.encode(&x).unwrap();
            snr_db(&xf, &solver.reconstruct(&enc, &y).unwrap())
        };
        let hi = snr_at(160);
        let lo = snr_at(40);
        assert!(hi > lo + 5.0, "m=160 {hi} dB vs m=40 {lo} dB");
    }

    #[test]
    fn tree_model_runs_and_reconstructs() {
        let n = 256;
        let x = ecg_like(n);
        let enc = CsEncoder::new(n, 110, 4, 17).unwrap();
        let y = enc.encode(&x).unwrap();
        // The tree model pairs with a stronger threshold (it prunes
        // orphan coefficients; a small λ leaves too many parents alive
        // for the constraint to help).
        let solver = Fista::new(FistaConfig {
            tree_model: true,
            lambda_rel: 0.02,
            ..FistaConfig::default()
        });
        let xr = solver.reconstruct(&enc, &y).unwrap();
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        assert!(snr_db(&xf, &xr) > 10.0);
    }

    #[test]
    fn rejects_incompatible_levels() {
        let enc = CsEncoder::new(80, 40, 4, 1).unwrap(); // 80 not divisible by 32
        let y = enc.encode(&vec![0; 80]).unwrap();
        let solver = Fista::new(FistaConfig::default());
        assert!(solver.reconstruct(&enc, &y).is_err());
    }

    #[test]
    fn rejects_levels_past_the_word_size() {
        let enc = CsEncoder::new(128, 64, 4, 1).unwrap();
        let y = enc.encode(&vec![0; 128]).unwrap();
        for levels in [64, 200] {
            let solver = Fista::new(FistaConfig {
                levels,
                ..FistaConfig::default()
            });
            assert!(solver.reconstruct(&enc, &y).is_err(), "levels {levels}");
        }
    }

    #[test]
    fn rejects_wrong_measurement_length() {
        let enc = CsEncoder::new(128, 64, 4, 1).unwrap();
        let solver = Fista::new(FistaConfig::default());
        assert!(solver.reconstruct(&enc, &[0i64; 63]).is_err());
    }

    #[test]
    fn zero_measurements_give_zero_signal() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let solver = Fista::new(FistaConfig::default());
        let xr = solver.reconstruct(&enc, &vec![0i64; 64]).unwrap();
        assert!(xr.iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn warm_first_solve_matches_cold_bit_for_bit() {
        // A fresh state changes nothing about the first solve: same
        // power iteration, same zero start, same iterates.
        let n = 256;
        let x = ecg_like(n);
        let enc = CsEncoder::new(n, 128, 4, 11).unwrap();
        let y = enc.encode(&x).unwrap();
        let solver = Fista::new(FistaConfig::default());
        let cold = solver.reconstruct(&enc, &y).unwrap();
        let mut state = FistaState::new();
        assert!(state.is_cold());
        let warm = solver.reconstruct_warm(&enc, &y, &mut state).unwrap();
        assert!(!state.is_cold());
        let cold_bits: Vec<u64> = cold.iter().map(|v| v.to_bits()).collect();
        let warm_bits: Vec<u64> = warm.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(cold_bits, warm_bits);
    }

    #[test]
    fn warm_second_solve_converges_faster_on_a_repeated_window() {
        let n = 256;
        let x = ecg_like(n);
        let enc = CsEncoder::new(n, 128, 4, 11).unwrap();
        let y = enc.encode(&x).unwrap();
        let solver = Fista::new(FistaConfig::default());
        let mut state = FistaState::new();
        let first = solver.reconstruct_warm(&enc, &y, &mut state).unwrap();
        let second = solver.reconstruct_warm(&enc, &y, &mut state).unwrap();
        assert!(
            second.iters * 2 <= first.iters,
            "warm restart on an identical window should converge ≥2× \
             faster: cold {} iters, warm {}",
            first.iters,
            second.iters
        );
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        assert!(snr_db(&xf, &second.x) + 0.5 >= snr_db(&xf, &first.x));
    }

    #[test]
    fn stale_state_shape_is_ignored_not_trusted() {
        // A state warmed on a 256-window must not poison a 128-window
        // solve; the solver falls back to a cold start.
        let solver = Fista::new(FistaConfig::default());
        let big = CsEncoder::new(256, 128, 4, 5).unwrap();
        let mut state = FistaState::new();
        let x = ecg_like(256);
        let y = big.encode(&x).unwrap();
        solver.reconstruct_warm(&big, &y, &mut state).unwrap();
        // Lipschitz constants differ between the operators, so the
        // stale cached value must be dropped along with the warm
        // vector for the result to stay correct — reset does both.
        state.reset();
        assert!(state.is_cold());
        let small = CsEncoder::new(128, 64, 4, 5).unwrap();
        let xs = ecg_like(128);
        let ys = small.encode(&xs).unwrap();
        let warm = solver.reconstruct_warm(&small, &ys, &mut state).unwrap();
        let cold = solver.reconstruct(&small, &ys).unwrap();
        let warm_bits: Vec<u64> = warm.x.iter().map(|v| v.to_bits()).collect();
        let cold_bits: Vec<u64> = cold.iter().map(|v| v.to_bits()).collect();
        assert_eq!(warm_bits, cold_bits);
    }

    #[test]
    fn stale_state_shape_is_dropped_without_reset() {
        // The same shape change as above, but nobody calls reset(): the
        // cached Lipschitz constant belongs to the 256-window operator
        // and must be dropped along with the warm vector.
        let solver = Fista::new(FistaConfig::default());
        let big = CsEncoder::new(256, 128, 4, 5).unwrap();
        let mut state = FistaState::new();
        let y = big.encode(&ecg_like(256)).unwrap();
        solver.reconstruct_warm(&big, &y, &mut state).unwrap();
        let small = CsEncoder::new(128, 64, 4, 5).unwrap();
        let ys = small.encode(&ecg_like(128)).unwrap();
        let warm = solver.reconstruct_warm(&small, &ys, &mut state).unwrap();
        let cold = solver.reconstruct(&small, &ys).unwrap();
        let warm_bits: Vec<u64> = warm.x.iter().map(|v| v.to_bits()).collect();
        let cold_bits: Vec<u64> = cold.iter().map(|v| v.to_bits()).collect();
        assert_eq!(warm_bits, cold_bits);
        // Same window length, different measurement count: the warm
        // vector fits but belongs to another operator.
        let other = CsEncoder::new(128, 48, 4, 9).unwrap();
        let yo = other.encode(&ecg_like(128)).unwrap();
        let warm = solver.reconstruct_warm(&other, &yo, &mut state).unwrap();
        let cold = solver.reconstruct(&other, &yo).unwrap();
        let warm_bits: Vec<u64> = warm.x.iter().map(|v| v.to_bits()).collect();
        let cold_bits: Vec<u64> = cold.iter().map(|v| v.to_bits()).collect();
        assert_eq!(warm_bits, cold_bits);
    }
}
