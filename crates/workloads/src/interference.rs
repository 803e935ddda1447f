//! Unmanaged-resource interference: the disturbance Algorithm 2 rejects.
//!
//! Cores, LLC ways and frequency are *managed* (partitioned) resources.
//! Memory bandwidth is not, and neither are OS-level effects (interrupt
//! handling, kernel threads, TLB shootdowns). The paper's balancer exists
//! precisely because the predictor cannot foresee these (§IV, §VI).
//!
//! Two components:
//!
//! * **Bandwidth pressure** — deterministic coupling from the BE
//!   co-runner: its memory traffic inflates the LS service time, shielded
//!   in part by the LS service's own LLC share (more ways → higher hit
//!   rate → fewer DRAM-bound accesses exposed to contention). This is why
//!   "harvesting cache space indirectly regulates memory bandwidth"
//!   (§VII-C) works in our reproduction exactly as in the paper.
//! * **OS jitter** — random multiplicative latency spikes with a
//!   geometric duration, modelling interrupt storms and background
//!   daemons. Seeded, so every experiment is reproducible. Each node's
//!   [`JitterChain`] is sampled by sojourns: it draws from its RNG only
//!   when a quiet spell or a spike ends.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Tunables for the interference process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceParams {
    /// Scales BE memory traffic into LS service-time inflation.
    pub bw_coupling: f64,
    /// Scales BE memory traffic into an *additive* tail-latency term (ms):
    /// queueing on the memory controller and OS-level delays add to the
    /// response time directly rather than stretching every request.
    pub additive_coupling_ms: f64,
    /// Scales a BE application's *co-runners'* memory traffic into its own
    /// throughput loss (multi-app nodes only; the paper's single LS+BE
    /// pair has no BE co-runner). This is the unmanaged-resource coupling
    /// the co-runner *set* scorer learns from multi-env step outcomes.
    pub be_bw_coupling: f64,
    /// Per-interval probability that an OS jitter burst starts.
    pub spike_probability: f64,
    /// Per-interval probability that an ongoing burst ends.
    pub spike_end_probability: f64,
    /// Multiplicative latency inflation range while a burst is active.
    pub spike_magnitude: (f64, f64),
}

impl Default for InterferenceParams {
    fn default() -> Self {
        Self {
            bw_coupling: 0.20,
            additive_coupling_ms: 33.0,
            be_bw_coupling: 0.40,
            spike_probability: 0.02,
            spike_end_probability: 0.5,
            spike_magnitude: (1.10, 1.5),
        }
    }
}

impl InterferenceParams {
    /// A quiet environment (profiling on a dedicated cluster, §V-A: the
    /// offline training data is collected without co-location noise).
    pub fn none() -> Self {
        Self {
            bw_coupling: 0.0,
            additive_coupling_ms: 0.0,
            be_bw_coupling: 0.0,
            spike_probability: 0.0,
            spike_end_probability: 1.0,
            spike_magnitude: (1.0, 1.0),
        }
    }
}

/// The disturbance applied to one monitoring interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disturbance {
    /// Multiplicative service-time inflation (≥ 1).
    pub multiplier: f64,
    /// Additive tail-latency term in ms (≥ 0).
    pub additive_ms: f64,
}

impl Disturbance {
    /// No disturbance.
    pub fn none() -> Self {
        Self {
            multiplier: 1.0,
            additive_ms: 0.0,
        }
    }
}

/// The sojourn laws of the OS-jitter process, derived once from
/// [`InterferenceParams`] so that a chain's draw pays no logarithm of a
/// constant.
///
/// Quiet and spike sojourns alternate. A quiet sojourn lasts
/// Geometric0(p) intervals (possibly none), p = `spike_probability`. A
/// spike lasts 2 + Geometric0(q) intervals, q = `spike_end_probability`,
/// at one magnitude drawn uniformly from `spike_magnitude`: the interval
/// that starts it plus the intervals up to and including the one whose
/// end draw succeeds. In distribution this is the chain that draws a
/// start (quiet) or end (spike) Bernoulli every interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SojournLaw {
    quiet: Geometric0,
    spike_end: Geometric0,
    magnitude: (f64, f64),
}

impl SojournLaw {
    /// The law of the process `params` describes.
    pub(crate) fn new(params: &InterferenceParams) -> Self {
        Self {
            quiet: Geometric0::new(params.spike_probability),
            spike_end: Geometric0::new(params.spike_end_probability),
            magnitude: params.spike_magnitude,
        }
    }
}

/// Failures before the first success of a Bernoulli(`p`) sequence, by
/// inversion: `floor(ln U / ln(1 - p))` with U uniform on (0, 1].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Geometric0 {
    /// `p <= 0` or NaN: the sojourn saturates at `u32::MAX` (a chain with
    /// p = 0 stays quiet for 2³² − 1 intervals, 136 years of 1 s
    /// intervals). Draws nothing.
    Never,
    /// `p >= 1`: every sojourn is 0. Draws nothing.
    Certain,
    /// `0 < p < 1`, holding `ln(1 - p)` as `ln_1p(-p)`.
    Inversion(f64),
}

impl Geometric0 {
    fn new(p: f64) -> Self {
        if p.is_nan() || p <= 0.0 {
            Self::Never
        } else if p >= 1.0 {
            Self::Certain
        } else {
            Self::Inversion((-p).ln_1p())
        }
    }

    #[inline]
    fn sample(self, rng: &mut StdRng) -> u32 {
        match self {
            Self::Never => u32::MAX,
            Self::Certain => 0,
            Self::Inversion(ln_q) => {
                let u = 1.0 - rng.gen::<f64>();
                // A float-to-int `as` saturates, which caps sojourns of
                // tiny `p`.
                (u.ln() / ln_q).floor() as u32
            }
        }
    }
}

/// One node's OS-jitter process: a two-state Markov chain sampled by
/// sojourns under a [`SojournLaw`], so the RNG is drawn only when a
/// sojourn ends.
///
/// The chain holds no parameters, so a fleet keeps one [`SojournLaw`]
/// and a 48-byte chain per node.
#[derive(Debug, Clone)]
pub struct JitterChain {
    rng: StdRng,
    /// Jitter factor of the current sojourn (1.0 while quiet).
    level: f64,
    /// Intervals left in the current sojourn.
    remaining: u32,
    /// The current sojourn is a spike.
    spiking: bool,
}

impl JitterChain {
    /// A chain seeded deterministically; its first interval starts a
    /// quiet sojourn, as if a spike had just ended.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            level: 1.0,
            remaining: 0,
            spiking: true,
        }
    }

    /// Advances one interval under `law` and returns its multiplicative
    /// latency factor (1.0 when quiet).
    #[inline]
    pub fn step(&mut self, law: &SojournLaw) -> f64 {
        if self.remaining == 0 {
            self.next_sojourn(law);
        }
        self.remaining -= 1;
        self.level
    }

    /// Draws the sojourn that follows the one just ended; never leaves
    /// `remaining` at 0.
    #[cold]
    #[inline(never)]
    fn next_sojourn(&mut self, law: &SojournLaw) {
        if self.spiking {
            self.spiking = false;
            self.level = 1.0;
            self.remaining = law.quiet.sample(&mut self.rng);
            if self.remaining > 0 {
                return;
            }
        }
        let (lo, hi) = law.magnitude;
        self.level = if hi > lo {
            self.rng.gen_range(lo..hi)
        } else {
            lo
        };
        self.remaining = law.spike_end.sample(&mut self.rng).saturating_add(2);
        self.spiking = true;
    }
}

/// Stateful interference process; one per co-location run.
#[derive(Debug, Clone)]
pub struct InterferenceModel {
    params: InterferenceParams,
    law: SojournLaw,
    jitter: JitterChain,
}

impl InterferenceModel {
    /// Creates the process with a deterministic seed.
    pub fn new(params: InterferenceParams, seed: u64) -> Self {
        Self {
            params,
            law: SojournLaw::new(&params),
            jitter: JitterChain::new(seed),
        }
    }

    /// Parameters in force.
    pub fn params(&self) -> &InterferenceParams {
        &self.params
    }

    /// The OS-jitter sojourn law of the parameters in force.
    pub(crate) fn law(&self) -> &SojournLaw {
        &self.law
    }

    /// Deterministic component: LS service-time multiplier ≥ 1 induced by
    /// the BE co-runner's memory traffic, shielded by the LS cache share.
    ///
    /// `be_traffic` comes from [`crate::be::BeAppModel::memory_traffic`];
    /// `ls_ways_fraction` is the LS share of LLC ways in `[0, 1]`;
    /// `ls_bw_sensitivity` is the per-service constant.
    pub fn bandwidth_multiplier(
        &self,
        be_traffic: f64,
        ls_ways_fraction: f64,
        ls_bw_sensitivity: f64,
    ) -> f64 {
        // A bigger LS cache share shields it: at a full-cache share the
        // exposure drops to 30% of the unshielded value.
        let shield = 1.0 - 0.7 * ls_ways_fraction.clamp(0.0, 1.0);
        1.0 + self.params.bw_coupling * be_traffic.max(0.0) * shield * ls_bw_sensitivity
    }

    /// Advances the OS-jitter process one interval and returns its
    /// multiplicative latency factor (1.0 when quiet).
    pub fn step_jitter(&mut self) -> f64 {
        self.jitter.step(&self.law)
    }

    /// Deterministic additive tail-latency term (ms) from memory-system
    /// queueing induced by the BE co-runner.
    pub fn additive_ms(
        &self,
        be_traffic: f64,
        ls_ways_fraction: f64,
        ls_bw_sensitivity: f64,
    ) -> f64 {
        let shield = 1.0 - 0.7 * ls_ways_fraction.clamp(0.0, 1.0);
        self.params.additive_coupling_ms * be_traffic.max(0.0) * shield * ls_bw_sensitivity
    }

    /// Advances the process one interval and returns the combined
    /// disturbance.
    pub fn step(
        &mut self,
        be_traffic: f64,
        ls_ways_fraction: f64,
        ls_bw_sensitivity: f64,
    ) -> Disturbance {
        Disturbance {
            multiplier: self.bandwidth_multiplier(be_traffic, ls_ways_fraction, ls_bw_sensitivity)
                * self.step_jitter(),
            additive_ms: self.additive_ms(be_traffic, ls_ways_fraction, ls_bw_sensitivity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_params_give_unity() {
        let mut m = InterferenceModel::new(InterferenceParams::none(), 1);
        for _ in 0..100 {
            assert_eq!(m.step(0.8, 0.3, 0.8), Disturbance::none());
        }
    }

    #[test]
    fn additive_term_scales_with_traffic_and_shield() {
        let m = InterferenceModel::new(InterferenceParams::default(), 1);
        assert!(m.additive_ms(0.8, 0.3, 0.8) > m.additive_ms(0.2, 0.3, 0.8));
        assert!(m.additive_ms(0.8, 0.9, 0.8) < m.additive_ms(0.8, 0.1, 0.8));
        assert_eq!(m.additive_ms(0.0, 0.3, 0.8), 0.0);
    }

    #[test]
    fn bandwidth_multiplier_grows_with_traffic() {
        let m = InterferenceModel::new(InterferenceParams::default(), 1);
        let low = m.bandwidth_multiplier(0.1, 0.3, 0.6);
        let high = m.bandwidth_multiplier(0.9, 0.3, 0.6);
        assert!(high > low);
        assert!(low >= 1.0);
    }

    #[test]
    fn more_ls_ways_shield_interference() {
        let m = InterferenceModel::new(InterferenceParams::default(), 1);
        let unshielded = m.bandwidth_multiplier(0.8, 0.1, 0.8);
        let shielded = m.bandwidth_multiplier(0.8, 0.9, 0.8);
        assert!(shielded < unshielded);
    }

    #[test]
    fn jitter_spikes_occur_and_end() {
        let params = InterferenceParams {
            spike_probability: 0.5,
            spike_end_probability: 0.5,
            ..InterferenceParams::default()
        };
        let mut m = InterferenceModel::new(params, 42);
        let mut spiked = 0;
        let mut quiet = 0;
        for _ in 0..500 {
            if m.step_jitter() > 1.0 {
                spiked += 1;
            } else {
                quiet += 1;
            }
        }
        assert!(spiked > 50, "expected spikes, got {spiked}");
        assert!(quiet > 50, "expected quiet intervals, got {quiet}");
    }

    #[test]
    fn jitter_magnitude_in_range() {
        let params = InterferenceParams {
            spike_probability: 1.0,
            spike_end_probability: 1.0,
            spike_magnitude: (1.2, 1.5),
            ..InterferenceParams::default()
        };
        let mut m = InterferenceModel::new(params, 7);
        for _ in 0..100 {
            let j = m.step_jitter();
            assert!((1.2..=1.5).contains(&j) || j == 1.0);
        }
    }

    /// The per-interval Bernoulli chain the sojourn sampler replaced: a
    /// quiet interval starts a spike with probability p, a spike
    /// interval ends it with probability q.
    struct BernoulliChain {
        params: InterferenceParams,
        rng: StdRng,
        active_spike: Option<f64>,
    }

    impl BernoulliChain {
        fn new(params: InterferenceParams, seed: u64) -> Self {
            Self {
                params,
                rng: StdRng::seed_from_u64(seed),
                active_spike: None,
            }
        }

        fn step(&mut self) -> f64 {
            match self.active_spike {
                Some(mag) => {
                    if self.rng.gen_bool(self.params.spike_end_probability) {
                        self.active_spike = None;
                    }
                    mag
                }
                None if self.rng.gen_bool(self.params.spike_probability) => {
                    let (lo, hi) = self.params.spike_magnitude;
                    let mag = if hi > lo {
                        self.rng.gen_range(lo..hi)
                    } else {
                        lo
                    };
                    self.active_spike = Some(mag);
                    mag
                }
                None => 1.0,
            }
        }
    }

    /// Statistics of many seeded nodes' jitter sequences. A spike is a
    /// maximal run of one magnitude (magnitudes are continuous, so two
    /// back-to-back spikes split); the quiet run between two spikes may
    /// be empty. Runs cut by either end of the horizon are dropped.
    #[derive(Debug, Default)]
    struct ChainStats {
        intervals: u64,
        spike_intervals: u64,
        spike_runs: Vec<u64>,
        quiet_runs: Vec<u64>,
        magnitude_sum: f64,
    }

    impl ChainStats {
        fn collect(nodes: u64, horizon: usize, mut node: impl FnMut(u64) -> Vec<f64>) -> Self {
            let mut st = Self::default();
            for seed in 0..nodes {
                let seq = node(seed);
                assert_eq!(seq.len(), horizon);
                st.intervals += horizon as u64;
                st.spike_intervals += seq.iter().filter(|&&j| j != 1.0).count() as u64;
                let mut runs: Vec<(f64, u64)> = Vec::new();
                for &j in &seq {
                    match runs.last_mut() {
                        Some((v, len)) if *v == j => *len += 1,
                        _ => runs.push((j, 1)),
                    }
                }
                let inner = runs.len().saturating_sub(1);
                for w in runs[..inner].windows(2).skip(1) {
                    let ((prev, _), (v, len)) = (w[0], w[1]);
                    if v == 1.0 {
                        st.quiet_runs.push(len);
                    } else {
                        if prev != 1.0 {
                            st.quiet_runs.push(0);
                        }
                        st.spike_runs.push(len);
                        st.magnitude_sum += v;
                    }
                }
            }
            st
        }

        fn spike_share(&self) -> f64 {
            self.spike_intervals as f64 / self.intervals as f64
        }

        fn mean_magnitude(&self) -> f64 {
            self.magnitude_sum / self.spike_runs.len() as f64
        }

        /// Share of runs falling in each `[edges[i], edges[i + 1])`,
        /// the last bucket open-ended.
        fn histogram(runs: &[u64], edges: &[u64]) -> Vec<f64> {
            let mut counts = vec![0u64; edges.len()];
            for &len in runs {
                let b = edges
                    .iter()
                    .rposition(|&e| len >= e)
                    .expect("edges start at 0");
                counts[b] += 1;
            }
            counts
                .iter()
                .map(|&c| c as f64 / runs.len() as f64)
                .collect()
        }
    }

    const SPIKE_EDGES: [u64; 6] = [0, 2, 3, 4, 5, 7];
    const QUIET_EDGES: [u64; 7] = [0, 1, 5, 20, 50, 100, 200];

    fn sojourn_stats(params: InterferenceParams, nodes: u64, horizon: usize) -> ChainStats {
        ChainStats::collect(nodes, horizon, |seed| {
            let mut m = InterferenceModel::new(params, seed);
            (0..horizon).map(|_| m.step_jitter()).collect()
        })
    }

    #[test]
    fn sojourn_chain_matches_the_bernoulli_chain_in_distribution() {
        let params = InterferenceParams::default();
        let (nodes, horizon) = (4_000, 500);
        let old = ChainStats::collect(nodes, horizon, |seed| {
            // Disjoint seeds: the comparison is between two independent
            // samples, not two views of one RNG stream.
            let mut c = BernoulliChain::new(params, seed + 1_000_000);
            (0..horizon).map(|_| c.step()).collect()
        });
        let new = sojourn_stats(params, nodes, horizon);
        // Stationary spike share: E[spike] / (E[spike] + E[quiet]) with
        // E[spike] = 2 + (1 - q) / q = 3 and E[quiet] = (1 - p) / p = 49.
        let share = 3.0 / 52.0;
        for (label, st) in [("bernoulli", &old), ("sojourn", &new)] {
            assert!(
                (st.spike_share() - share).abs() < 0.002,
                "{label} spike share {} vs {share}",
                st.spike_share()
            );
            assert!(
                st.spike_runs.len() > 30_000,
                "{label}: {} spikes",
                st.spike_runs.len()
            );
        }
        assert!(
            (old.spike_share() - new.spike_share()).abs() < 0.002,
            "spike share {} (bernoulli) vs {} (sojourn)",
            old.spike_share(),
            new.spike_share()
        );
        assert!(
            (old.mean_magnitude() - new.mean_magnitude()).abs() < 0.005,
            "mean magnitude {} vs {}",
            old.mean_magnitude(),
            new.mean_magnitude()
        );
        for (runs_old, runs_new, edges, what) in [
            (&old.spike_runs, &new.spike_runs, &SPIKE_EDGES[..], "spike"),
            (&old.quiet_runs, &new.quiet_runs, &QUIET_EDGES[..], "quiet"),
        ] {
            let (h_old, h_new) = (
                ChainStats::histogram(runs_old, edges),
                ChainStats::histogram(runs_new, edges),
            );
            for (i, (a, b)) in h_old.iter().zip(&h_new).enumerate() {
                assert!(
                    (a - b).abs() < 0.01,
                    "{what} runs from {}: {a} (bernoulli) vs {b} (sojourn)",
                    edges[i]
                );
            }
        }
        // A spike lasts at least two intervals: the one that starts it
        // and the one whose end draw succeeds.
        assert_eq!(ChainStats::histogram(&new.spike_runs, &SPIKE_EDGES)[0], 0.0);
    }

    /// Geometric0(`p`) by inversion with `ln(1 - p)` taken on every draw,
    /// as the sampler computed it before [`SojournLaw`] held the constant.
    fn reference_geometric0(rng: &mut StdRng, p: f64) -> u32 {
        if p.is_nan() || p <= 0.0 {
            return u32::MAX;
        }
        if p >= 1.0 {
            return 0;
        }
        let u = 1.0 - rng.gen::<f64>();
        (u.ln() / (-p).ln_1p()).floor() as u32
    }

    /// The sojourn chain stepped straight from [`InterferenceParams`],
    /// one `reference_geometric0` per sojourn.
    struct PerDrawChain {
        params: InterferenceParams,
        rng: StdRng,
        level: f64,
        remaining: u32,
        spiking: bool,
    }

    impl PerDrawChain {
        fn new(params: InterferenceParams, seed: u64) -> Self {
            Self {
                params,
                rng: StdRng::seed_from_u64(seed),
                level: 1.0,
                remaining: 0,
                spiking: true,
            }
        }

        fn step(&mut self) -> f64 {
            if self.remaining == 0 {
                if self.spiking {
                    self.spiking = false;
                    self.level = 1.0;
                    self.remaining =
                        reference_geometric0(&mut self.rng, self.params.spike_probability);
                }
                if self.remaining == 0 {
                    let (lo, hi) = self.params.spike_magnitude;
                    self.level = if hi > lo {
                        self.rng.gen_range(lo..hi)
                    } else {
                        lo
                    };
                    self.remaining =
                        reference_geometric0(&mut self.rng, self.params.spike_end_probability)
                            .saturating_add(2);
                    self.spiking = true;
                }
            }
            self.remaining -= 1;
            self.level
        }
    }

    /// Steps `seeds` law-driven chains and their per-draw references for
    /// `horizon` intervals each; returns the spike intervals seen.
    fn assert_law_matches_reference(params: InterferenceParams, seeds: u64, horizon: usize) -> u64 {
        let law = SojournLaw::new(&params);
        let mut spikes = 0u64;
        for seed in 0..seeds {
            let mut chain = JitterChain::new(seed);
            let mut reference = PerDrawChain::new(params, seed);
            for t in 0..horizon {
                let (got, want) = (chain.step(&law), reference.step());
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{params:?}: seed {seed}, interval {t}"
                );
                spikes += u64::from(got != 1.0);
            }
        }
        spikes
    }

    #[test]
    fn law_stepped_chains_equal_the_per_draw_reference() {
        let default = InterferenceParams::default();
        let spikes = assert_law_matches_reference(default, 1_000, 10_000);
        // About 3/52 of 10⁷ intervals spike.
        assert!(
            (500_000..650_000).contains(&spikes),
            "{spikes} spike intervals"
        );
        // Degenerate probabilities keep their branches: p = 0 and NaN
        // never end a sojourn, p = 1 ends every one at once; a tiny p
        // saturates the inversion.
        for p in [0.0, 1.0, f64::NAN, 1e-12] {
            for params in [
                InterferenceParams {
                    spike_probability: p,
                    ..default
                },
                InterferenceParams {
                    spike_probability: 0.3,
                    spike_end_probability: p,
                    ..default
                },
            ] {
                assert_law_matches_reference(params, 50, 10_000);
            }
        }
        assert_law_matches_reference(InterferenceParams::none(), 50, 10_000);
    }

    #[test]
    fn step_jitter_expands_its_sojourns() {
        let params = InterferenceParams {
            spike_probability: 0.1,
            spike_end_probability: 0.3,
            ..InterferenceParams::default()
        };
        let horizon = 5_000;
        for seed in [0u64, 7, 42] {
            let mut m = InterferenceModel::new(params, seed);
            let got: Vec<f64> = (0..horizon).map(|_| m.step_jitter()).collect();
            // The same RNG stream, drawn one sojourn at a time.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut want = Vec::with_capacity(horizon + 64);
            while want.len() < horizon {
                let quiet = reference_geometric0(&mut rng, params.spike_probability);
                want.extend(std::iter::repeat_n(1.0, quiet as usize));
                let (lo, hi) = params.spike_magnitude;
                let mag = rng.gen_range(lo..hi);
                let spike = 2 + reference_geometric0(&mut rng, params.spike_end_probability);
                want.extend(std::iter::repeat_n(mag, spike as usize));
            }
            want.truncate(horizon);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn zero_start_probability_never_spikes() {
        let params = InterferenceParams {
            spike_probability: 0.0,
            ..InterferenceParams::default()
        };
        for seed in 0..20 {
            let mut m = InterferenceModel::new(params, seed);
            assert!((0..2_000).all(|_| m.step_jitter() == 1.0), "seed {seed}");
        }
    }

    #[test]
    fn certain_end_gives_two_interval_spikes() {
        let params = InterferenceParams {
            spike_probability: 0.2,
            spike_end_probability: 1.0,
            ..InterferenceParams::default()
        };
        let st = sojourn_stats(params, 200, 400);
        assert!(st.spike_runs.len() > 1_000);
        assert!(
            st.spike_runs.iter().all(|&len| len == 2),
            "{:?}",
            st.spike_runs
        );
    }

    #[test]
    fn certain_start_leaves_no_quiet_interval() {
        let params = InterferenceParams {
            spike_probability: 1.0,
            ..InterferenceParams::default()
        };
        let st = sojourn_stats(params, 50, 400);
        assert_eq!(st.spike_share(), 1.0);
        assert!(st.quiet_runs.iter().all(|&len| len == 0));
        let (lo, hi) = params.spike_magnitude;
        assert!((st.mean_magnitude() - (lo + hi) / 2.0).abs() < 0.02);
    }

    #[test]
    fn degenerate_magnitude_range_spikes_at_its_bound() {
        let params = InterferenceParams {
            spike_probability: 0.1,
            spike_magnitude: (1.3, 1.3),
            ..InterferenceParams::default()
        };
        let mut m = InterferenceModel::new(params, 3);
        let seq: Vec<f64> = (0..2_000).map(|_| m.step_jitter()).collect();
        assert!(seq.iter().all(|&j| j == 1.0 || j == 1.3));
        let spiking = seq.iter().filter(|&&j| j == 1.3).count();
        assert!((100..1_000).contains(&spiking), "{spiking} spike intervals");
    }

    #[test]
    fn a_node_chain_is_48_bytes() {
        assert_eq!(std::mem::size_of::<JitterChain>(), 48);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = InterferenceModel::new(InterferenceParams::default(), 99);
        let mut b = InterferenceModel::new(InterferenceParams::default(), 99);
        for _ in 0..200 {
            assert_eq!(a.step_jitter(), b.step_jitter());
        }
    }
}
