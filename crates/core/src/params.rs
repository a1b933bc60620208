//! The paper's parameter schedule, in both paper-faithful and practical
//! calibrations.
//!
//! Appendix A defines, for a conductance parameter `φ` and edge count `m`:
//!
//! ```text
//! ℓ     = ⌈log₂ m⌉
//! t₀    = 49·ln(m·e²)/φ²
//! f(φ)  = φ³ / (144·ln²(m·e⁴))
//! γ     = 5φ / (7·7·8·ln(m·e⁴))
//! ε_b   = φ / (7·8·ln(m·e⁴)·t₀·2^b)
//! ```
//!
//! and §2 defines the decomposition-level schedule
//!
//! ```text
//! h(θ)  = Θ(θ^{1/3}·log^{5/3} n)        (output conductance of Theorem 3)
//! φ₀    = O(ε²/log⁷ n)  s.t. h(φ₀) ≤ (ε/6)/log(n²)
//! φ_i   = h⁻¹(φ_{i−1})
//! d     = smallest integer with (1−ε/12)^d·2·(n choose 2) < 1
//! β     = (ε/3)/d
//! τ     = ((ε/6)·Vol(U))^{1/k},  m₁ = (ε/6)·Vol(U),  m_{i+1} = m_i/τ
//! ```
//!
//! **Why two calibrations.** The faithful constants are astronomically
//! conservative: at `n = 10⁴`, `ε = 0.1` they give `φ₀ ≈ 10⁻¹⁰` and
//! `t₀ ≈ 10²²` — correct asymptotically, useless on any machine. The
//! [`ParamMode::Practical`] calibration keeps every *functional dependence*
//! (`t₀ ∝ log m/φ²`, `ε_b ∝ φ/(t₀·2^b·log m)`, `φ_i = h⁻¹(φ_{i−1})`, …)
//! but replaces the worst-case safety constants with small ones, and caps
//! the iteration counts that the w.h.p. analysis inflates. Every experiment
//! in the OPERATIONS.md experiment table reports which mode produced it;
//! the faithful formulas themselves are unit-tested below.

/// Which constant calibration to use. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParamMode {
    /// The paper's constants, verbatim. Only usable for formula inspection
    /// and asymptotic reasoning — the iteration counts are astronomical.
    PaperFaithful,
    /// Same functional forms with small constants and capped iteration
    /// counts; the default for every runnable experiment.
    #[default]
    Practical,
}

/// Parameters for one Nibble run at conductance parameter `φ` on a graph
/// with `m` edges (Appendix A.1–A.2).
#[derive(Debug, Clone, PartialEq)]
pub struct NibbleParams {
    /// Conductance parameter `φ` of this run.
    pub phi: f64,
    /// Number of volume scales `ℓ = ⌈log₂ m⌉` (the parameter `b` ranges
    /// over `1..=ell`).
    pub ell: u32,
    /// Walk length `t₀`.
    pub t0: usize,
    /// Sweep-condition constant `γ` (condition C.2).
    pub gamma: f64,
    /// `ε_b = eps_base / 2^b` — truncation threshold at scale `b`.
    pub eps_base: f64,
    /// Multiplier of the relaxed sweep condition (C.1*): candidates on
    /// geometric jumps must satisfy `Φ ≤ relaxed_factor·φ`. The paper uses
    /// 12; Practical mode uses 3 because with `φ` capped at `1/12` a
    /// factor of 12 makes the condition vacuous (`Φ ≤ 1`), admitting junk
    /// cuts.
    pub relaxed_factor: f64,
    /// Which calibration produced these values.
    pub mode: ParamMode,
}

impl NibbleParams {
    /// Builds the parameter set for conductance `phi` on an `m`-edge graph.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not in `(0, 1)` or `m == 0`.
    pub fn new(phi: f64, m: usize, mode: ParamMode) -> Self {
        assert!(phi > 0.0 && phi < 1.0, "phi = {phi} outside (0, 1)");
        assert!(m > 0, "graph has no edges");
        let ln_m = (m as f64).ln();
        let ell = (m as f64).log2().ceil().max(1.0) as u32;
        match mode {
            ParamMode::PaperFaithful => {
                let t0 = (49.0 * (ln_m + 2.0) / (phi * phi)).ceil() as usize;
                let gamma = 5.0 * phi / (7.0 * 7.0 * 8.0 * (ln_m + 4.0));
                let eps_base = phi / (7.0 * 8.0 * (ln_m + 4.0) * t0 as f64);
                NibbleParams {
                    phi,
                    ell,
                    t0,
                    gamma,
                    eps_base,
                    relaxed_factor: 12.0,
                    mode,
                }
            }
            ParamMode::Practical => {
                // Same shapes: t₀ ∝ ln m/φ², γ ∝ φ/ln m, ε_b ∝ φ/(ln m·t₀·2^b),
                // but t₀ capped at 512: the 1/φ² walk length is a worst-case
                // guarantee; cuts of conductance ≳ 1/√t₀ are still found, and
                // the experiments verify detection empirically.
                let t0 = ((ln_m + 2.0) / (phi * phi)).ceil().clamp(8.0, 512.0) as usize;
                let gamma = phi / (8.0 * (ln_m + 1.0));
                let eps_base = phi / (2.0 * (ln_m + 1.0) * t0 as f64);
                NibbleParams {
                    phi,
                    ell,
                    t0,
                    gamma,
                    eps_base,
                    relaxed_factor: 3.0,
                    mode,
                }
            }
        }
    }

    /// Truncation threshold `ε_b` for volume scale `b ∈ 1..=ell`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn eps_b(&self, b: u32) -> f64 {
        assert!(
            b >= 1 && b <= self.ell,
            "scale b = {b} outside 1..={}",
            self.ell
        );
        self.eps_base / (1u64 << b.min(63)) as f64
    }
}

/// Parameters for the nearly-most-balanced sparse cut (Theorem 3) and its
/// Partition driver (Appendix A.4).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCutParams {
    /// The *target* conductance `φ` of Theorem 3 (detection threshold).
    pub phi_target: f64,
    /// The conductance parameter the Partition loop actually runs Nibble
    /// with: `φ_run = min(f⁻¹(φ_target), 1/12)`.
    pub phi_run: f64,
    /// Nibble parameters at `phi_run`.
    pub nibble: NibbleParams,
    /// Number of parallel RandomNibble instances per ParallelNibble call.
    pub k_parallel: usize,
    /// Congestion cap `w`: abort if any edge participates in more than `w`
    /// instances.
    pub w_cap: usize,
    /// Number of sequential ParallelNibble iterations in Partition.
    pub s_iterations: usize,
    /// Practical-mode early exit: stop Partition after this many
    /// *consecutive* empty ParallelNibble results (each iteration uses
    /// fresh random starts, so a streak of empties is strong evidence the
    /// remaining graph is an expander). `usize::MAX` disables it
    /// (faithful mode).
    pub empty_streak_break: usize,
    /// Failure probability target `p` (drives `s_iterations` in the paper).
    pub p_fail: f64,
}

impl SparseCutParams {
    /// Builds the Theorem 3 parameter set for target conductance
    /// `phi_target` on an `m`-edge graph of volume `vol`.
    ///
    /// # Panics
    ///
    /// Panics if `phi_target` is not in `(0, 1)` or `m == 0`.
    pub fn new(phi_target: f64, m: usize, vol: usize, mode: ParamMode) -> Self {
        assert!(phi_target > 0.0 && phi_target < 1.0);
        assert!(m > 0);
        let ln_m = (m as f64).ln();
        // f(φ_run) = φ_target  ⇒  φ_run = (c_f·φ_target·ln²m)^{1/3}.
        let phi_run = match mode {
            ParamMode::PaperFaithful => {
                (144.0 * phi_target * (ln_m + 4.0) * (ln_m + 4.0)).powf(1.0 / 3.0)
            }
            ParamMode::Practical => (phi_target * (ln_m + 1.0) * (ln_m + 1.0)).powf(1.0 / 3.0),
        }
        .min(1.0 / 12.0);
        let nibble = NibbleParams::new(phi_run, m, mode);
        let t0 = nibble.t0 as f64;
        let ell = nibble.ell as f64;
        // k = ⌈Vol / (56·ℓ·(t₀+1)·t₀·ln(m·e⁴)·φ⁻¹)⌉  (A.4).
        let k_formula = (vol as f64 / (56.0 * ell * (t0 + 1.0) * t0 * (ln_m + 4.0) / phi_run))
            .ceil()
            .max(1.0) as usize;
        // w = 10·⌈ln Vol⌉.
        let w_cap = (10.0 * (vol.max(2) as f64).ln().ceil()) as usize;
        match mode {
            ParamMode::PaperFaithful => {
                let p_fail = 1.0 / (vol.max(2) as f64); // 1/poly(n)
                                                        // g = ⌈10·w·(56·ℓ·(t₀+1)·t₀·ln(m·e⁴)·φ⁻¹)⌉;
                                                        // s = 4·g·⌈log_{7/4}(1/p)⌉.
                let g =
                    (10.0 * w_cap as f64) * (56.0 * ell * (t0 + 1.0) * t0 * (ln_m + 4.0) / phi_run);
                let s = 4.0 * g.ceil() * (1.0 / p_fail).log(7.0 / 4.0).ceil();
                SparseCutParams {
                    phi_target,
                    phi_run,
                    nibble,
                    k_parallel: k_formula,
                    w_cap,
                    s_iterations: s as usize,
                    empty_streak_break: usize::MAX,
                    p_fail,
                }
            }
            ParamMode::Practical => {
                // Keep k's shape but allow more useful parallelism on small
                // graphs, and cap s at a workable number of sequential
                // sweeps. These caps trade the w.h.p. guarantee for
                // an empirically-checked constant failure probability.
                let k = k_formula.clamp(8, 32);
                SparseCutParams {
                    phi_target,
                    phi_run,
                    nibble,
                    k_parallel: k,
                    w_cap,
                    s_iterations: 24,
                    empty_streak_break: 4,
                    p_fail: 0.05,
                }
            }
        }
    }

    /// Builds a parameter set that runs Partition **directly** at
    /// `phi_run`, skipping the `f⁻¹` re-parameterization. Used by the
    /// decomposition, whose level schedule is expressed in run
    /// conductances. The nominal Theorem 3 target is reported as
    /// `f(phi_run)`.
    ///
    /// # Panics
    ///
    /// Panics if `phi_run` is not in `(0, 1/12]` or `m == 0`.
    pub fn from_phi_run(phi_run: f64, m: usize, vol: usize, mode: ParamMode) -> Self {
        assert!(phi_run > 0.0 && phi_run <= 1.0 / 12.0 + 1e-12);
        assert!(m > 0);
        let ln_m = (m as f64).ln();
        let phi_target = match mode {
            ParamMode::PaperFaithful => {
                (phi_run.powi(3) / (144.0 * (ln_m + 4.0) * (ln_m + 4.0))).max(1e-300)
            }
            ParamMode::Practical => (phi_run.powi(3) / ((ln_m + 1.0) * (ln_m + 1.0))).max(1e-300),
        };
        let mut params = Self::new(phi_target.min(0.999), m, vol, mode);
        // Overwrite the derived run conductance with the requested one and
        // rebuild the Nibble constants at that value.
        params.phi_run = phi_run;
        params.nibble = NibbleParams::new(phi_run, m, mode);
        params
    }

    /// `h(θ)`: the conductance guarantee of the cut Theorem 3 returns for a
    /// target `θ`, i.e. `O(φ_run·log n)` = `O(θ^{1/3}·log^{5/3} n)`.
    ///
    /// The multiplicative constant is `276·w` in Lemma 7 for the faithful
    /// mode and 1 for the practical mode (where the measured value is what
    /// experiments compare against).
    pub fn h_bound(&self, n: usize) -> f64 {
        let ln_n = (n.max(2) as f64).ln();
        let bound = match self.nibble.mode {
            ParamMode::PaperFaithful => 276.0 * self.w_cap as f64 * self.phi_run * ln_n,
            // Every constituent cut passes (C.1*) at relaxed_factor·φ_run;
            // the union loses at most the O(log n) congestion factor
            // (Lemma 7).
            ParamMode::Practical => self.nibble.relaxed_factor * self.phi_run * ln_n,
        };
        // Conductance never exceeds 1 (each boundary edge contributes at
        // least one unit to the small side's volume).
        bound.min(1.0)
    }
}

/// Parameters for the full expander decomposition (Theorem 1, §2).
#[derive(Debug, Clone, PartialEq)]
pub struct DecompositionParams {
    /// Inter-cluster edge budget `ε`.
    pub epsilon: f64,
    /// Trade-off integer `k ≥ 1` (`n^{2/k}` rounds vs `φ = (ε/log n)^{2^{O(k)}}`).
    pub k: usize,
    /// Nominal Theorem-3 *target* conductances `φ₀ > φ₁ > … > φ_k`
    /// (`φ_i = h⁻¹(φ_{i−1})`); the final component guarantee is `φ_k`.
    pub phi_schedule: Vec<f64>,
    /// The conductance parameters the Partition loop is actually run with
    /// at each level (`φ_run = f⁻¹(φ_i)` capped at 1/12). Practical mode
    /// calibrates `run₀ = ε/6` — the sparsest cuts the ε budget can afford
    /// to remove — and shrinks by `1/ln n` per
    /// level (a gentler shrink than the faithful cube, so multiple levels
    /// stay meaningful on laptop-scale graphs; the ε budget is enforced at
    /// runtime by the decomposition's budget guards).
    pub run_schedule: Vec<f64>,
    /// Phase 1 recursion depth bound `d`.
    pub d_max: usize,
    /// Low-diameter decomposition parameter `β = (ε/3)/d`.
    pub beta: f64,
    /// Calibration mode.
    pub mode: ParamMode,
}

impl DecompositionParams {
    /// Builds the Theorem 1 parameter set for an `n`-vertex graph.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon < 1` and `k ≥ 1`.
    pub fn new(epsilon: f64, k: usize, n: usize, mode: ParamMode) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon outside (0,1)");
        assert!(k >= 1, "k must be >= 1");
        let n = n.max(4);
        let ln_n = (n as f64).ln();
        // d: smallest integer with (1−ε/12)^d · 2·C(n,2) < 1.
        let pairs2 = (n * (n - 1)) as f64; // 2·(n choose 2)
        let d = (pairs2.ln() / -(1.0 - epsilon / 12.0).ln()).ceil().max(1.0) as usize;
        let beta = (epsilon / 3.0) / d as f64;
        // φ₀: h(φ₀) ≤ (ε/6)/log(n²)  ⇒ paper: φ₀ = O(ε²/log⁷n).
        // We solve h(φ₀) = target numerically via the h shape
        // h(θ) ≈ c·θ^{1/3}·ln^{5/3} n (same inversion both modes, the
        // constant differs).
        let target = (epsilon / 6.0) / (2.0 * (n as f64).log2());
        let c_h = match mode {
            ParamMode::PaperFaithful => 276.0 * 10.0 * ln_n.ceil(), // 276·w shape
            ParamMode::Practical => 1.0,
        };
        let h = |theta: f64| c_h * theta.powf(1.0 / 3.0) * ln_n.powf(5.0 / 3.0);
        let h_inv = |y: f64| {
            let base = y / (c_h * ln_n.powf(5.0 / 3.0));
            (base * base * base).clamp(1e-300, 0.5)
        };
        debug_assert!((h(h_inv(0.01)) - 0.01).abs() < 1e-9 || h_inv(0.01) == 0.5);
        let mut phi_schedule = Vec::with_capacity(k + 1);
        let phi0 = h_inv(target);
        phi_schedule.push(phi0);
        for i in 1..=k {
            let prev = phi_schedule[i - 1];
            phi_schedule.push(h_inv(prev).min(prev));
        }
        let run_schedule = match mode {
            ParamMode::PaperFaithful => {
                // φ_run_i = f⁻¹(φ_i) evaluated at the reference edge count
                // m = n² (an upper bound; per-component counts only shrink
                // the log factors).
                let ln_m = 2.0 * ln_n;
                phi_schedule
                    .iter()
                    .map(|&phi| {
                        (144.0 * phi * (ln_m + 4.0) * (ln_m + 4.0))
                            .powf(1.0 / 3.0)
                            .clamp(1e-12, 1.0 / 12.0)
                    })
                    .collect()
            }
            ParamMode::Practical => {
                // run₀ = ε/6: on laptop-scale graphs the candidate
                // sequence of A.2 degenerates to consecutive indices
                // (volume grows by ≥ one vertex per step, faster than the
                // (1+φ) geometric spacing), so candidates face the *exact*
                // condition Φ ≤ φ_run — the detection bar is φ_run itself.
                // ε/6 cuts exactly the cuts the ε budget can afford; the
                // runtime budget guards enforce the rest.
                let mut rs = Vec::with_capacity(k + 1);
                let mut r = (epsilon / 6.0).min(1.0 / 12.0);
                for _ in 0..=k {
                    rs.push(r.max(1e-6));
                    r /= ln_n;
                }
                rs
            }
        };
        DecompositionParams {
            epsilon,
            k,
            phi_schedule,
            run_schedule,
            d_max: d,
            beta,
            mode,
        }
    }

    /// `φ = φ_k`: the conductance every final component is guaranteed.
    ///
    /// Practical mode reports `f(run_k)` — the nominal Theorem-3 target of
    /// the last level actually run.
    pub fn phi_final(&self) -> f64 {
        match self.mode {
            ParamMode::PaperFaithful => *self.phi_schedule.last().expect("schedule non-empty"),
            ParamMode::Practical => {
                let r = *self.run_schedule.last().expect("schedule non-empty");
                r.powi(3).max(1e-300)
            }
        }
    }

    /// Phase 2 geometric scale `τ = ((ε/6)·vol)^{1/k}` for a component of
    /// volume `vol`.
    pub fn tau(&self, vol: usize) -> f64 {
        ((self.epsilon / 6.0) * vol as f64)
            .powf(1.0 / self.k as f64)
            .max(1.0 + 1e-9)
    }

    /// The Phase 2 volume thresholds `m₁ > m₂ > … > m_{k+1}` for a
    /// component of volume `vol` (`m₁ = (ε/6)·vol`, `m_{i+1} = m_i/τ`).
    pub fn volume_schedule(&self, vol: usize) -> Vec<f64> {
        let tau = self.tau(vol);
        let mut ms = Vec::with_capacity(self.k + 1);
        let mut m = (self.epsilon / 6.0) * vol as f64;
        for _ in 0..=self.k {
            ms.push(m);
            m /= tau;
        }
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_t0_matches_paper_formula() {
        // t₀ = 49·ln(m·e²)/φ² = 49·(ln m + 2)/φ².
        let p = NibbleParams::new(0.1, 1000, ParamMode::PaperFaithful);
        let want = (49.0 * ((1000.0f64).ln() + 2.0) / 0.01).ceil() as usize;
        assert_eq!(p.t0, want);
    }

    #[test]
    fn faithful_gamma_and_eps_match_paper() {
        let m = 4096usize;
        let phi = 0.05;
        let p = NibbleParams::new(phi, m, ParamMode::PaperFaithful);
        let ln_me4 = (m as f64).ln() + 4.0;
        let gamma_want = 5.0 * phi / (392.0 * ln_me4);
        assert!((p.gamma - gamma_want).abs() < 1e-15);
        let eps1_want = phi / (56.0 * ln_me4 * p.t0 as f64) / 2.0;
        assert!((p.eps_b(1) - eps1_want).abs() < 1e-18);
        // ε_b halves with each scale.
        assert!((p.eps_b(3) - p.eps_b(2) / 2.0).abs() < 1e-20);
    }

    #[test]
    fn ell_is_log2_m() {
        let p = NibbleParams::new(0.1, 1024, ParamMode::Practical);
        assert_eq!(p.ell, 10);
        let p = NibbleParams::new(0.1, 1025, ParamMode::Practical);
        assert_eq!(p.ell, 11);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1)")]
    fn rejects_bad_phi() {
        let _ = NibbleParams::new(1.5, 10, ParamMode::Practical);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn eps_b_range_checked() {
        let p = NibbleParams::new(0.1, 16, ParamMode::Practical);
        let _ = p.eps_b(p.ell + 1);
    }

    #[test]
    fn practical_t0_scales_inverse_square() {
        // Use φ values large enough that the 512-step cap stays inactive.
        let a = NibbleParams::new(0.4, 1000, ParamMode::Practical);
        let b = NibbleParams::new(0.2, 1000, ParamMode::Practical);
        let ratio = b.t0 as f64 / a.t0 as f64;
        assert!(
            (ratio - 4.0).abs() < 0.2,
            "t0 should scale as 1/φ²: {ratio}"
        );
        // And the cap engages for tiny φ.
        let c = NibbleParams::new(0.001, 1000, ParamMode::Practical);
        assert_eq!(c.t0, 512);
    }

    #[test]
    fn sparse_cut_run_phi_capped_at_twelfth() {
        let p = SparseCutParams::new(0.05, 10_000, 20_000, ParamMode::Practical);
        assert!(p.phi_run <= 1.0 / 12.0 + 1e-12);
        assert!(p.phi_run > 0.0);
    }

    #[test]
    fn sparse_cut_phi_run_is_cube_root_shape() {
        // Far below the cap, φ_run ∝ φ_target^{1/3}.
        let p1 = SparseCutParams::new(1e-9, 10_000, 20_000, ParamMode::Practical);
        let p2 = SparseCutParams::new(8e-9, 10_000, 20_000, ParamMode::Practical);
        let ratio = p2.phi_run / p1.phi_run;
        assert!(
            (ratio - 2.0).abs() < 1e-6,
            "expected cube-root scaling, ratio {ratio}"
        );
    }

    #[test]
    fn faithful_s_iterations_are_astronomical() {
        // Documents *why* Practical mode exists.
        let p = SparseCutParams::new(0.01, 10_000, 20_000, ParamMode::PaperFaithful);
        assert!(p.s_iterations > 1_000_000);
        let q = SparseCutParams::new(0.01, 10_000, 20_000, ParamMode::Practical);
        assert!(q.s_iterations <= 64);
    }

    #[test]
    fn w_cap_matches_formula() {
        let p = SparseCutParams::new(0.01, 1000, 5000, ParamMode::Practical);
        let want = (10.0 * (5000.0f64).ln().ceil()) as usize;
        assert_eq!(p.w_cap, want);
    }

    #[test]
    fn decomposition_schedule_is_decreasing() {
        let d = DecompositionParams::new(0.1, 3, 4096, ParamMode::Practical);
        assert_eq!(d.phi_schedule.len(), 4);
        assert_eq!(d.run_schedule.len(), 4);
        for w in d.phi_schedule.windows(2) {
            assert!(
                w[1] <= w[0],
                "targets must be non-increasing: {:?}",
                d.phi_schedule
            );
        }
        for w in d.run_schedule.windows(2) {
            assert!(
                w[1] <= w[0],
                "run schedule must be non-increasing: {:?}",
                d.run_schedule
            );
        }
        assert!(d.phi_final() > 0.0);
        assert!(d.run_schedule[0] <= 1.0 / 12.0 + 1e-12);
    }

    #[test]
    fn from_phi_run_roundtrip() {
        let p = SparseCutParams::from_phi_run(0.05, 1000, 2000, ParamMode::Practical);
        assert!((p.phi_run - 0.05).abs() < 1e-15);
        assert!((p.nibble.phi - 0.05).abs() < 1e-15);
        assert!(p.phi_target > 0.0);
    }

    #[test]
    fn decomposition_d_satisfies_defining_inequality() {
        let n = 2048;
        let eps = 0.2;
        let d = DecompositionParams::new(eps, 2, n, ParamMode::Practical);
        let shrink: f64 = 1.0 - eps / 12.0;
        let pairs2 = (n * (n - 1)) as f64;
        assert!(shrink.powi(d.d_max as i32) * pairs2 < 1.0);
        assert!(
            shrink.powi(d.d_max as i32 - 1) * pairs2 >= 1.0,
            "d not minimal"
        );
    }

    #[test]
    fn beta_is_eps_over_3d() {
        let d = DecompositionParams::new(0.3, 2, 1024, ParamMode::Practical);
        assert!((d.beta - (0.3 / 3.0) / d.d_max as f64).abs() < 1e-15);
    }

    #[test]
    fn tau_and_volume_schedule() {
        let d = DecompositionParams::new(0.3, 3, 1024, ParamMode::Practical);
        let vol = 10_000;
        let tau = d.tau(vol);
        let want = (0.05f64 * vol as f64).powf(1.0 / 3.0);
        assert!((tau - want).abs() < 1e-9);
        let ms = d.volume_schedule(vol);
        assert_eq!(ms.len(), 4);
        assert!((ms[0] - 500.0).abs() < 1e-9);
        for w in ms.windows(2) {
            assert!((w[1] - w[0] / tau).abs() < 1e-9);
        }
        // m_k/(2τ) < 1 — the paper's guarantee that L never exceeds k.
        assert!(ms[d.k] / (2.0 * tau) < 1.0);
    }

    #[test]
    fn larger_k_means_smaller_phi() {
        let d1 = DecompositionParams::new(0.1, 1, 4096, ParamMode::Practical);
        let d3 = DecompositionParams::new(0.1, 3, 4096, ParamMode::Practical);
        assert!(d3.phi_final() <= d1.phi_final());
    }

    #[test]
    fn modes_produce_comparable_shapes() {
        let f = DecompositionParams::new(0.1, 2, 4096, ParamMode::PaperFaithful);
        let p = DecompositionParams::new(0.1, 2, 4096, ParamMode::Practical);
        // Faithful φ₀ is (much) smaller, never larger.
        assert!(f.phi_schedule[0] <= p.phi_schedule[0]);
        assert_eq!(f.d_max, p.d_max); // d doesn't depend on the mode
    }
}
