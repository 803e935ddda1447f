//! Multi-application Sturgeon: several LS services and several BE
//! applications on one node.
//!
//! The paper's §V-B closes with: "The algorithm can be extended to
//! support multiple LS/BE applications by independently searching the
//! configuration for each application." This module implements that
//! extension end to end:
//!
//! * [`MultiProfiler`] — offline profiling of every application on the
//!   multi-app environment;
//! * [`LsModelSet`] / [`BeModelSet`] — per-application predictor bundles
//!   (the same DT-classifier + KNN-regressor recipe the pairwise
//!   predictor uses);
//! * [`MultiSearch`] — per-LS "just enough" binary searches (independent,
//!   as the paper prescribes), followed by a greedy marginal-utility
//!   split of the leftover cores/ways among the BE applications and a
//!   water-filling frequency assignment under the shared power budget;
//! * [`MultiSturgeonController`] — the Algorithm 1 loop generalized to a
//!   vector of slacks, with a lightweight harvest step when any service
//!   violates at unchanged load.

use crate::predictor::{make_classifier, make_regressor, PredictorConfig, QOS_LOAD_MARGIN};
use crate::profiler::{feature_row, features};
use crate::scoring::SetScorer;
use crate::search::least_satisfying;
use crate::tables::BeLattice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use sturgeon_mlkit::{Classifier, Dataset, MlError, Regressor};
use sturgeon_simnode::{Allocation, NodeSpec};
use sturgeon_workloads::multienv::{MultiColocationEnv, MultiConfig, MultiObservation};

/// Per-LS-service trained models: QoS classifier + latency second opinion
/// + partition power.
pub struct LsModelSet {
    qos: Box<dyn Classifier + Send + Sync>,
    latency: Box<dyn Regressor + Send + Sync>,
    power: Box<dyn Regressor + Send + Sync>,
    qos_target_ms: f64,
    max_trained_qps: f64,
}

impl std::fmt::Debug for LsModelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsModelSet")
            .field("qos_target_ms", &self.qos_target_ms)
            .field("max_trained_qps", &self.max_trained_qps)
            .finish()
    }
}

impl LsModelSet {
    /// Predicted feasibility at a load (with the usual guard margin).
    pub fn feasible(&self, cores: u32, freq_ghz: f64, ways: u32, qps: f64) -> bool {
        if qps > 1.1 * self.max_trained_qps {
            return false;
        }
        let guarded = (qps * (1.0 + QOS_LOAD_MARGIN)).min(self.max_trained_qps);
        let x = feature_row(guarded, cores, freq_ghz, ways);
        self.qos.predict_label(&x) && self.latency.predict(&x) <= self.qos_target_ms
    }

    /// Predicted partition power (W).
    pub fn power_w(&self, cores: u32, freq_ghz: f64, ways: u32, qps: f64) -> f64 {
        self.power
            .predict(&feature_row(qps, cores, freq_ghz, ways))
            .max(0.0)
    }
}

/// Per-BE-application trained models: throughput + partition power.
pub struct BeModelSet {
    perf: Box<dyn Regressor + Send + Sync>,
    power: Box<dyn Regressor + Send + Sync>,
    input_level: f64,
    /// Dense `(cores, level, ways)` flattening of both regressors,
    /// built once at train time. On-lattice queries — which is all the
    /// water-fill and greedy-split search ever issues — become two array
    /// index computations instead of tree/KNN walks; off-lattice queries
    /// fall through to the live models.
    lattice: Option<BeLattice>,
}

impl std::fmt::Debug for BeModelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BeModelSet")
            .field("input_level", &self.input_level)
            .finish()
    }
}

impl BeModelSet {
    /// Predicted normalized throughput.
    pub fn throughput(&self, cores: u32, freq_ghz: f64, ways: u32) -> f64 {
        if let Some(lattice) = &self.lattice {
            if let Some(t) = lattice.throughput(cores, freq_ghz, ways) {
                return t;
            }
        }
        self.perf
            .predict(&feature_row(self.input_level, cores, freq_ghz, ways))
            .max(0.0)
    }

    /// Predicted partition power (W).
    pub fn power_w(&self, cores: u32, freq_ghz: f64, ways: u32) -> f64 {
        if let Some(lattice) = &self.lattice {
            if let Some(p) = lattice.power_w(cores, freq_ghz, ways) {
                return p;
            }
        }
        self.power
            .predict(&feature_row(self.input_level, cores, freq_ghz, ways))
            .max(0.0)
    }
}

/// Offline profiling of a multi-application environment.
#[derive(Debug, Clone)]
pub struct MultiProfilerConfig {
    /// Random configurations sampled per load level per LS service.
    pub ls_samples_per_load: usize,
    /// Load fractions swept per LS service.
    pub ls_load_fractions: Vec<f64>,
    /// Random configurations sampled per BE application.
    pub be_samples: usize,
    /// Sampler seed.
    pub seed: u64,
}

impl Default for MultiProfilerConfig {
    fn default() -> Self {
        Self {
            ls_samples_per_load: 120,
            ls_load_fractions: (1..=19).map(|i| i as f64 / 20.0).collect(),
            be_samples: 1200,
            seed: 0xA11,
        }
    }
}

/// Profiles and trains per-application model sets.
#[derive(Debug)]
pub struct MultiProfiler<'e> {
    env: &'e MultiColocationEnv,
    config: MultiProfilerConfig,
}

impl<'e> MultiProfiler<'e> {
    /// A profiler over the environment.
    pub fn new(env: &'e MultiColocationEnv, config: MultiProfilerConfig) -> Self {
        Self { env, config }
    }

    /// Trains model sets for every application.
    pub fn train(
        &self,
        predictor: PredictorConfig,
    ) -> Result<(Vec<LsModelSet>, Vec<BeModelSet>), MlError> {
        let spec = self.env.spec();
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        let mut ls_sets = Vec::with_capacity(self.env.ls_models().len());
        for (idx, model) in self.env.ls_models().iter().enumerate() {
            let mut x = Vec::new();
            let mut y_qos = Vec::new();
            let mut y_lat = Vec::new();
            let mut y_pow = Vec::new();
            let target = model.params.qos_target_ms;
            for &frac in &self.config.ls_load_fractions {
                let qps = frac * model.params.peak_qps;
                for _ in 0..self.config.ls_samples_per_load {
                    let alloc = Allocation::new(
                        rng.gen_range(1..spec.total_cores),
                        rng.gen_range(0..=spec.max_freq_level()),
                        rng.gen_range(1..spec.total_llc_ways),
                    );
                    let obs = self.env.profile_ls(idx, &alloc, qps);
                    x.push(features(
                        qps,
                        alloc.cores,
                        alloc.freq_ghz(spec),
                        alloc.llc_ways,
                    ));
                    y_qos.push(if obs.p95_ms <= target { 1.0 } else { 0.0 });
                    y_lat.push(obs.p95_ms.min(8.0 * target));
                    y_pow.push(self.env.ls_partition_power(idx, &alloc, qps));
                }
            }
            let qos_data = Dataset::new(x.clone(), y_qos)?;
            let lat_data = Dataset::new(x.clone(), y_lat)?;
            let pow_data = Dataset::new(x, y_pow)?;
            let mut qos = make_classifier(predictor.ls_qos);
            qos.fit(&qos_data)?;
            let mut latency = make_regressor(predictor.ls_latency);
            latency.fit(&lat_data)?;
            let mut power = make_regressor(predictor.ls_power);
            power.fit(&pow_data)?;
            let max_trained_qps = qos_data.x.iter().map(|r| r[0]).fold(0.0, f64::max);
            ls_sets.push(LsModelSet {
                qos,
                latency,
                power,
                qos_target_ms: target,
                max_trained_qps,
            });
        }

        let mut be_sets = Vec::with_capacity(self.env.be_models().len());
        for (idx, model) in self.env.be_models().iter().enumerate() {
            let input_level = model.params.input_level as f64;
            let mut x = Vec::new();
            let mut y_perf = Vec::new();
            let mut y_pow = Vec::new();
            for _ in 0..self.config.be_samples {
                let alloc = Allocation::new(
                    rng.gen_range(1..spec.total_cores),
                    rng.gen_range(0..=spec.max_freq_level()),
                    rng.gen_range(1..spec.total_llc_ways),
                );
                let f = alloc.freq_ghz(spec);
                x.push(features(input_level, alloc.cores, f, alloc.llc_ways));
                y_perf.push(model.normalized_throughput(alloc.cores, f, alloc.llc_ways));
                y_pow.push(self.env.be_partition_power(idx, &alloc));
            }
            let perf_data = Dataset::new(x.clone(), y_perf)?;
            let pow_data = Dataset::new(x, y_pow)?;
            let mut perf = make_regressor(predictor.be_perf);
            perf.fit(&perf_data)?;
            let mut power = make_regressor(predictor.be_power);
            power.fit(&pow_data)?;
            // Flatten both regressors over the node's full lattice so the
            // search loops hit arrays, not models. The evaluators are the
            // accessors' own fall-through paths, so tabled and live
            // answers are bit-identical.
            let lattice = BeLattice::build(
                spec,
                |c, ghz, w| perf.predict(&feature_row(input_level, c, ghz, w)).max(0.0),
                |c, ghz, w| power.predict(&feature_row(input_level, c, ghz, w)).max(0.0),
            );
            be_sets.push(BeModelSet {
                perf,
                power,
                input_level,
                lattice: Some(lattice),
            });
        }

        Ok((ls_sets, be_sets))
    }
}

/// The multi-application configuration search.
#[derive(Debug)]
pub struct MultiSearch<'m> {
    spec: NodeSpec,
    budget_w: f64,
    static_power_w: f64,
    ls: &'m [LsModelSet],
    be: &'m [BeModelSet],
    /// Power drift headroom, as in the pairwise search.
    power_load_headroom: f64,
    /// Learned co-runner set scorer plus the BE app names (row order of
    /// `be`); drives [`MultiSearch::best_admitted_config`].
    scoring: Option<(&'m SetScorer, Vec<String>)>,
}

impl<'m> MultiSearch<'m> {
    /// Builds the searcher.
    pub fn new(
        spec: NodeSpec,
        budget_w: f64,
        static_power_w: f64,
        ls: &'m [LsModelSet],
        be: &'m [BeModelSet],
    ) -> Self {
        Self {
            spec,
            budget_w,
            static_power_w,
            ls,
            be,
            power_load_headroom: 0.08,
            scoring: None,
        }
    }

    /// Attaches the learned set scorer; `names` must parallel the `be`
    /// model sets. Enables subset admission in
    /// [`MultiSearch::best_admitted_config`].
    pub fn with_set_scorer(mut self, scorer: &'m SetScorer, names: Vec<String>) -> Self {
        assert_eq!(names.len(), self.be.len(), "one name per BE model set");
        self.scoring = Some((scorer, names));
        self
    }

    /// Consistency-probed feasibility: genuine feasible points stay
    /// feasible with one more core, way or frequency step (performance is
    /// monotone); isolated classifier islands fail this and are rejected,
    /// exactly as in the pairwise search.
    fn trusted(&self, idx: usize, cores: u32, level: usize, ways: u32, qps: f64) -> bool {
        let m = &self.ls[idx];
        let f = self.spec.freq_ghz(level);
        if !m.feasible(cores, f, ways, qps) {
            return false;
        }
        let top = self.spec.max_freq_level();
        if level < top && !m.feasible(cores, self.spec.freq_ghz(level + 1), ways, qps) {
            return false;
        }
        if ways < self.spec.total_llc_ways && !m.feasible(cores, f, ways + 1, qps) {
            return false;
        }
        if cores < self.spec.total_cores && !m.feasible(cores + 1, f, ways, qps) {
            return false;
        }
        true
    }

    /// Minimal "just enough" allocation for LS `idx` at `qps`, found by
    /// the paper's independent binary searches (C → L → F at the node's
    /// remaining capacity ceilings). `None` when infeasible even with the
    /// given ceilings.
    fn just_enough_ls(
        &self,
        idx: usize,
        qps: f64,
        max_cores: u32,
        max_ways: u32,
    ) -> Option<Allocation> {
        let top = self.spec.max_freq_level();
        let cores = least_satisfying(1, max_cores, |c| self.trusted(idx, c, top, max_ways, qps))?;
        let ways = least_satisfying(1, max_ways, |l| self.trusted(idx, cores, top, l, qps))?;
        let level = least_satisfying(0, top as u32, |f| {
            self.trusted(idx, cores, f as usize, ways, qps)
        })? as usize;
        Some(Allocation::new(cores, level, ways))
    }

    /// Runs the full multi-application search. Returns `None` when the LS
    /// services alone cannot fit on the node.
    pub fn best_config(&self, qps: &[f64]) -> Option<MultiConfig> {
        self.config_for(qps, &vec![true; self.be.len()])
    }

    /// Subset admission: with a set scorer attached, every non-empty
    /// subset `S` of the BE applications is searched with the others
    /// parked on the mandatory minimal allocation, and valued
    ///
    /// ```text
    /// value(S) = Σ_{i∈S} tput_i(config_S) · score(S) / |S|
    /// ```
    ///
    /// — predicted partition throughputs discounted by the learned mean
    /// per-job contention efficiency of *that mix*. Returns the best
    /// `(config, admitted, value)`; without a scorer it degrades to the
    /// plain all-admitted search. `None` when even the LS services don't
    /// fit.
    pub fn best_admitted_config(&self, qps: &[f64]) -> Option<(MultiConfig, Vec<bool>, f64)> {
        let n = self.be.len();
        let Some((scorer, names)) = &self.scoring else {
            let admitted = vec![true; n];
            let cfg = self.config_for(qps, &admitted)?;
            let value = self.admitted_throughput(&cfg, &admitted);
            return Some((cfg, admitted, value));
        };
        assert!(n <= 16, "subset admission enumerates 2^n candidate sets");
        let mut best: Option<(MultiConfig, Vec<bool>, f64)> = None;
        for mask in 1u32..(1u32 << n) {
            let admitted: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            let Some(cfg) = self.config_for(qps, &admitted) else {
                continue;
            };
            let set: Vec<&str> = (0..n)
                .filter(|&i| admitted[i])
                .map(|i| names[i].as_str())
                .collect();
            let factor = scorer.score(&set) / set.len() as f64;
            let value = self.admitted_throughput(&cfg, &admitted) * factor;
            if best.as_ref().is_none_or(|&(_, _, v)| value > v) {
                best = Some((cfg, admitted, value));
            }
        }
        best
    }

    /// Sum of predicted partition throughputs over the admitted apps.
    fn admitted_throughput(&self, cfg: &MultiConfig, admitted: &[bool]) -> f64 {
        cfg.be
            .iter()
            .enumerate()
            .filter(|&(i, _)| admitted[i])
            .map(|(i, a)| self.be[i].throughput(a.cores, a.freq_ghz(&self.spec), a.llc_ways))
            .sum()
    }

    /// The search with an admission mask: parked (non-admitted) BE apps
    /// keep the mandatory minimal `(1 core, level 0, 1 way)` partition
    /// and receive no spare resources or frequency steps. All-admitted
    /// is bit-identical to the historical `best_config`.
    fn config_for(&self, qps: &[f64], admitted: &[bool]) -> Option<MultiConfig> {
        assert_eq!(qps.len(), self.ls.len());
        assert_eq!(admitted.len(), self.be.len());
        debug_assert!(admitted.iter().any(|&a| a), "at least one admitted app");
        let n_be = self.be.len() as u32;

        // Phase 1: independent just-enough searches per LS service, each
        // constrained by what the previous services left behind.
        let mut remaining_cores = self.spec.total_cores;
        let mut remaining_ways = self.spec.total_llc_ways;
        let mut ls_allocs = Vec::with_capacity(self.ls.len());
        for (idx, &q) in qps.iter().enumerate() {
            let max_cores = remaining_cores.checked_sub(n_be)?;
            let max_ways = remaining_ways.checked_sub(n_be)?;
            if max_cores == 0 || max_ways == 0 {
                return None;
            }
            let alloc = self.just_enough_ls(idx, q, max_cores, max_ways)?;
            remaining_cores -= alloc.cores;
            remaining_ways -= alloc.llc_ways;
            ls_allocs.push(alloc);
        }

        // Phase 2: greedy marginal split of leftover cores/ways among the
        // BE applications (reference frequency: mid level). The marginal
        // gains of each step are independent per BE, so the candidate
        // enumeration fans out across the rayon pool; the winner selection
        // stays sequential and keeps the serial tie-breaking (last max).
        let mid = self.spec.max_freq_level() / 2;
        let f_mid = self.spec.freq_ghz(mid);
        let mut be_allocs: Vec<Allocation> = (0..self.be.len())
            .map(|_| Allocation::new(1, 0, 1))
            .collect();
        let mut spare_cores = remaining_cores - n_be;
        let mut spare_ways = remaining_ways - n_be;
        while spare_cores > 0 {
            let best = (0..self.be.len())
                .into_par_iter()
                .map(|i| {
                    let g = if admitted[i] {
                        self.marginal_core_gain(i, &be_allocs[i], f_mid)
                    } else {
                        f64::NEG_INFINITY
                    };
                    (i, g)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one BE")
                .0;
            be_allocs[best].cores += 1;
            spare_cores -= 1;
        }
        while spare_ways > 0 {
            let best = (0..self.be.len())
                .into_par_iter()
                .map(|i| {
                    let g = if admitted[i] {
                        self.marginal_way_gain(i, &be_allocs[i], f_mid)
                    } else {
                        f64::NEG_INFINITY
                    };
                    (i, g)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one BE")
                .0;
            be_allocs[best].llc_ways += 1;
            spare_ways -= 1;
        }

        // Phase 3: water-fill frequencies under the power budget.
        let qps_power: Vec<f64> = qps
            .iter()
            .map(|q| q * (1.0 + self.power_load_headroom))
            .collect();
        let ls_power: f64 = ls_allocs
            .iter()
            .enumerate()
            .map(|(i, a)| {
                self.ls[i].power_w(a.cores, a.freq_ghz(&self.spec), a.llc_ways, qps_power[i])
            })
            .sum();
        let mut headroom = self.budget_w - self.static_power_w - ls_power;
        let mut be_power: Vec<f64> = be_allocs
            .iter()
            .enumerate()
            .map(|(i, a)| self.be[i].power_w(a.cores, a.freq_ghz(&self.spec), a.llc_ways))
            .collect();
        headroom -= be_power.iter().sum::<f64>();
        if headroom < 0.0 {
            // Even minimum frequencies overshoot: shrink BE partitions to
            // the bone (the LS side is non-negotiable).
            for a in &mut be_allocs {
                a.cores = 1;
                a.llc_ways = 1;
                a.freq_level = 0;
            }
        } else {
            let top = self.spec.max_freq_level();
            loop {
                // Candidate +1-level steps, scored by Δthroughput / ΔW.
                // Each candidate costs three model evaluations, so the scan
                // runs across the rayon pool; the in-order sequential
                // reduction preserves the serial first-best-wins rule.
                let steps: Vec<Option<(usize, f64, f64)>> = (0..self.be.len())
                    .into_par_iter()
                    .map(|i| {
                        let a = &be_allocs[i];
                        if !admitted[i] || a.freq_level >= top {
                            return None;
                        }
                        let f_next = self.spec.freq_ghz(a.freq_level + 1);
                        let f_cur = self.spec.freq_ghz(a.freq_level);
                        let dp = self.be[i].power_w(a.cores, f_next, a.llc_ways) - be_power[i];
                        if dp > headroom {
                            return None;
                        }
                        let dt = self.be[i].throughput(a.cores, f_next, a.llc_ways)
                            - self.be[i].throughput(a.cores, f_cur, a.llc_ways);
                        Some((i, dt / dp.max(1e-6), dp))
                    })
                    .collect();
                let mut best: Option<(usize, f64, f64)> = None;
                for (i, score, dp) in steps.into_iter().flatten() {
                    if best.is_none_or(|(_, s, _)| score > s) {
                        best = Some((i, score, dp));
                    }
                }
                let Some((i, _, dp)) = best else { break };
                be_allocs[i].freq_level += 1;
                be_power[i] += dp;
                headroom -= dp;
            }
        }

        let config = MultiConfig {
            ls: ls_allocs,
            be: be_allocs,
        };
        debug_assert!(config.validate(&self.spec).is_ok());
        Some(config)
    }

    fn marginal_core_gain(&self, idx: usize, a: &Allocation, f: f64) -> f64 {
        self.be[idx].throughput(a.cores + 1, f, a.llc_ways)
            - self.be[idx].throughput(a.cores, f, a.llc_ways)
    }

    fn marginal_way_gain(&self, idx: usize, a: &Allocation, f: f64) -> f64 {
        self.be[idx].throughput(a.cores, f, a.llc_ways + 1)
            - self.be[idx].throughput(a.cores, f, a.llc_ways)
    }
}

/// The generalized Algorithm 1 controller for multi-application nodes.
#[derive(Debug)]
pub struct MultiSturgeonController {
    spec: NodeSpec,
    budget_w: f64,
    static_power_w: f64,
    ls: Vec<LsModelSet>,
    be: Vec<BeModelSet>,
    alpha: f64,
    research_load_delta: f64,
    last_search_qps: Option<Vec<f64>>,
    searches: u64,
    harvests: u64,
}

impl MultiSturgeonController {
    /// Builds the controller from trained per-application model sets.
    pub fn new(
        spec: NodeSpec,
        budget_w: f64,
        static_power_w: f64,
        ls: Vec<LsModelSet>,
        be: Vec<BeModelSet>,
    ) -> Self {
        Self {
            spec,
            budget_w,
            static_power_w,
            ls,
            be,
            alpha: 0.10,
            research_load_delta: 0.05,
            last_search_qps: None,
            searches: 0,
            harvests: 0,
        }
    }

    /// Initial configuration: LS services split the node evenly; BE
    /// partitions hold the single mandatory core/way at minimum frequency.
    pub fn initial_config(&self) -> MultiConfig {
        let n_ls = self.ls.len() as u32;
        let n_be = self.be.len() as u32;
        let ls_cores = (self.spec.total_cores - n_be) / n_ls;
        let ls_ways = (self.spec.total_llc_ways - n_be) / n_ls;
        let mut config = MultiConfig {
            ls: (0..n_ls)
                .map(|_| Allocation::new(ls_cores, self.spec.max_freq_level(), ls_ways))
                .collect(),
            be: (0..n_be).map(|_| Allocation::new(1, 0, 1)).collect(),
        };
        // Distribute any remainder to the first LS service.
        let used_cores = config.total_cores();
        let used_ways = config.total_ways();
        config.ls[0].cores += self.spec.total_cores - used_cores;
        config.ls[0].llc_ways += self.spec.total_llc_ways - used_ways;
        debug_assert!(config.validate(&self.spec).is_ok());
        config
    }

    /// Number of full searches run.
    pub fn search_count(&self) -> u64 {
        self.searches
    }

    /// Number of harvest actions taken.
    pub fn harvest_count(&self) -> u64 {
        self.harvests
    }

    fn loads_changed(&self, qps: &[f64]) -> bool {
        match &self.last_search_qps {
            None => true,
            Some(prev) => prev
                .iter()
                .zip(qps)
                .any(|(&p, &q)| ((q - p) / p.max(1.0)).abs() > self.research_load_delta),
        }
    }

    /// One control interval.
    pub fn decide(&mut self, obs: &MultiObservation, current: &MultiConfig) -> MultiConfig {
        let qps: Vec<f64> = obs.ls.iter().map(|o| o.qps).collect();

        if self.loads_changed(&qps) {
            let search = MultiSearch::new(
                self.spec.clone(),
                self.budget_w,
                self.static_power_w,
                &self.ls,
                &self.be,
            );
            self.searches += 1;
            self.last_search_qps = Some(qps.clone());
            if let Some(next) = search.best_config(&qps) {
                return next;
            }
            return self.initial_config();
        }

        // Harvest path: any violated LS service at unchanged load pulls a
        // core from the BE partition with the lowest predicted marginal
        // throughput loss (and failing that, throttles the hottest BE).
        let violated: Vec<usize> = obs
            .ls
            .iter()
            .enumerate()
            .filter(|(i, o)| {
                let target = self.ls[*i].qos_target_ms;
                (target - o.p95_ms) / target < self.alpha
            })
            .map(|(i, _)| i)
            .collect();
        if violated.is_empty() {
            return current.clone();
        }

        let mut next = current.clone();
        for &ls_idx in &violated {
            // Donor BE: smallest throughput loss for giving up one core.
            let donor = (0..self.be.len())
                .filter(|&i| next.be[i].cores > 1)
                .min_by(|&a, &b| {
                    let la = self.core_loss(a, &next.be[a]);
                    let lb = self.core_loss(b, &next.be[b]);
                    la.total_cmp(&lb)
                });
            if let Some(d) = donor {
                next.be[d].cores -= 1;
                next.ls[ls_idx].cores += 1;
                self.harvests += 1;
            } else {
                // No cores to give: step down the fastest BE partition.
                if let Some(d) = (0..self.be.len()).max_by_key(|&i| next.be[i].freq_level) {
                    if next.be[d].freq_level > 0 {
                        next.be[d].freq_level -= 1;
                        next.ls[ls_idx].freq_level =
                            (next.ls[ls_idx].freq_level + 1).min(self.spec.max_freq_level());
                        self.harvests += 1;
                    }
                }
            }
        }
        debug_assert!(next.validate(&self.spec).is_ok());
        next
    }

    fn core_loss(&self, idx: usize, a: &Allocation) -> f64 {
        let f = a.freq_ghz(&self.spec);
        self.be[idx].throughput(a.cores, f, a.llc_ways)
            - self.be[idx].throughput(a.cores - 1, f, a.llc_ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sturgeon_simnode::PowerModel;
    use sturgeon_workloads::catalog::{be_app, ls_service, BeAppId, LsServiceId};
    use sturgeon_workloads::interference::InterferenceParams;

    fn env() -> MultiColocationEnv {
        MultiColocationEnv::new(
            NodeSpec::xeon_e5_2630_v4(),
            PowerModel::default(),
            vec![
                ls_service(LsServiceId::Xapian),
                ls_service(LsServiceId::ImgDnn),
            ],
            vec![be_app(BeAppId::Raytrace), be_app(BeAppId::Swaptions)],
            InterferenceParams::default(),
            1,
        )
    }

    fn trained(env: &MultiColocationEnv) -> (Vec<LsModelSet>, Vec<BeModelSet>) {
        MultiProfiler::new(
            env,
            MultiProfilerConfig {
                ls_samples_per_load: 70,
                ls_load_fractions: (1..=16).map(|i| i as f64 / 20.0).collect(),
                be_samples: 500,
                seed: 3,
            },
        )
        .train(PredictorConfig::default())
        .expect("training succeeds")
    }

    #[test]
    fn search_produces_valid_config_with_qos_feasible_ls() {
        let env = env();
        let (ls, be) = trained(&env);
        let search = MultiSearch::new(
            env.spec().clone(),
            env.budget_w(),
            env.static_power_w(),
            &ls,
            &be,
        );
        let qps = [0.3 * 3_500.0, 0.3 * 3_000.0];
        let cfg = search.best_config(&qps).expect("feasible");
        assert!(cfg.validate(env.spec()).is_ok());
        // Ground truth: both LS partitions meet their targets.
        for (i, a) in cfg.ls.iter().enumerate() {
            let obs = env.profile_ls(i, a, qps[i]);
            assert!(
                obs.p95_ms <= env.ls_models()[i].params.qos_target_ms,
                "LS {i} violated: {} ms with {a:?}",
                obs.p95_ms
            );
        }
        // Power within budget (ground truth, small tolerance for model error).
        let power = env.total_power(&cfg, &qps);
        assert!(
            power <= 1.03 * env.budget_w(),
            "power {power} vs budget {}",
            env.budget_w()
        );
        // Every BE partition got something beyond the mandatory minimum.
        assert!(cfg.be.iter().map(|a| a.cores).sum::<u32>() > 2);
    }

    #[test]
    fn be_lattice_matches_live_models_and_search_results() {
        let env = env();
        let (ls, mut be) = trained(&env);
        let spec = env.spec();
        // Tabled and live answers agree bit-for-bit across the lattice.
        for set in &be {
            for c in [1, spec.total_cores / 2, spec.total_cores] {
                for f in [0, spec.max_freq_level()] {
                    let ghz = spec.freq_ghz(f);
                    for w in [1, spec.total_llc_ways / 2, spec.total_llc_ways] {
                        let live_t = set.perf.predict(&feature_row(set.input_level, c, ghz, w));
                        let live_p = set.power.predict(&feature_row(set.input_level, c, ghz, w));
                        assert_eq!(
                            set.throughput(c, ghz, w).to_bits(),
                            live_t.max(0.0).to_bits()
                        );
                        assert_eq!(set.power_w(c, ghz, w).to_bits(), live_p.max(0.0).to_bits());
                    }
                }
            }
            // Off-lattice frequencies fall through to the model.
            let odd_ghz = spec.freq_ghz(0) + 0.0123;
            let live = set
                .perf
                .predict(&feature_row(set.input_level, 2, odd_ghz, 2));
            assert_eq!(
                set.throughput(2, odd_ghz, 2).to_bits(),
                live.max(0.0).to_bits()
            );
        }
        // The full search is indifferent to the lattice being present.
        let qps = [0.3 * 3_500.0, 0.3 * 3_000.0];
        let with_lattice =
            MultiSearch::new(spec.clone(), env.budget_w(), env.static_power_w(), &ls, &be)
                .best_config(&qps)
                .expect("feasible");
        for set in &mut be {
            set.lattice = None;
        }
        let without =
            MultiSearch::new(spec.clone(), env.budget_w(), env.static_power_w(), &ls, &be)
                .best_config(&qps)
                .expect("feasible");
        assert_eq!(with_lattice, without);
    }

    #[test]
    fn subset_admission_parks_contentious_apps() {
        let env = env();
        let (ls, be) = trained(&env);
        let names = vec!["raytrace".to_string(), "swaptions".to_string()];
        let qps = [0.3 * 3_500.0, 0.3 * 3_000.0];
        let search = || {
            MultiSearch::new(
                env.spec().clone(),
                env.budget_w(),
                env.static_power_w(),
                &ls,
                &be,
            )
        };
        // Pure time-sharing between any pair: admitting both halves the
        // per-job efficiency, so the best single app must win.
        let hostile = SetScorer::from_sigmas([("raytrace", 1.0), ("swaptions", 1.0)]);
        let s = search().with_set_scorer(&hostile, names.clone());
        let (cfg, admitted, value) = s.best_admitted_config(&qps).expect("feasible");
        assert_eq!(admitted.iter().filter(|&&a| a).count(), 1, "{admitted:?}");
        assert!(value > 0.0);
        let parked = admitted.iter().position(|&a| !a).unwrap();
        assert_eq!(cfg.be[parked], Allocation::new(1, 0, 1));
        // Frictionless co-running: the full mix wins.
        let free = SetScorer::from_sigmas([("raytrace", 0.0), ("swaptions", 0.0)]);
        let s = search().with_set_scorer(&free, names.clone());
        let (_, admitted, _) = s.best_admitted_config(&qps).expect("feasible");
        assert!(admitted.iter().all(|&a| a), "{admitted:?}");
    }

    #[test]
    fn admission_without_scorer_matches_plain_search() {
        let env = env();
        let (ls, be) = trained(&env);
        let search = MultiSearch::new(
            env.spec().clone(),
            env.budget_w(),
            env.static_power_w(),
            &ls,
            &be,
        );
        let qps = [0.3 * 3_500.0, 0.3 * 3_000.0];
        let (cfg, admitted, _) = search.best_admitted_config(&qps).expect("feasible");
        assert!(admitted.iter().all(|&a| a));
        assert_eq!(cfg, search.best_config(&qps).expect("feasible"));
    }

    #[test]
    fn search_respects_tight_budget() {
        let env = env();
        let (ls, be) = trained(&env);
        let qps = [0.3 * 3_500.0, 0.3 * 3_000.0];
        let tight = MultiSearch::new(
            env.spec().clone(),
            0.85 * env.budget_w(),
            env.static_power_w(),
            &ls,
            &be,
        )
        .best_config(&qps)
        .expect("still feasible");
        let normal = MultiSearch::new(
            env.spec().clone(),
            env.budget_w(),
            env.static_power_w(),
            &ls,
            &be,
        )
        .best_config(&qps)
        .expect("feasible");
        let level_sum = |c: &MultiConfig| c.be.iter().map(|a| a.freq_level).sum::<usize>();
        assert!(
            level_sum(&tight) <= level_sum(&normal),
            "tighter budget must not raise BE frequencies"
        );
    }

    #[test]
    fn controller_runs_a_stable_loop() {
        let mut env = env();
        let (ls, be) = trained(&env);
        let mut controller = MultiSturgeonController::new(
            env.spec().clone(),
            env.budget_w(),
            env.static_power_w(),
            ls,
            be,
        );
        let mut config = controller.initial_config();
        assert!(config.validate(env.spec()).is_ok());
        let mut qos_ok = 0usize;
        let mut total = 0usize;
        for t in 0..120 {
            let frac = 0.25 + 0.1 * ((t as f64) / 60.0).sin();
            let qps = [frac * 3_500.0, frac * 3_000.0];
            let obs = env.step(&config, &qps);
            for (i, o) in obs.ls.iter().enumerate() {
                total += 1;
                if o.p95_ms <= env.ls_models()[i].params.qos_target_ms {
                    qos_ok += 1;
                }
            }
            config = controller.decide(&obs, &config);
            assert!(config.validate(env.spec()).is_ok(), "t={t}");
        }
        assert!(controller.search_count() >= 1);
        let rate = qos_ok as f64 / total as f64;
        assert!(rate > 0.85, "joint QoS interval rate {rate}");
    }

    #[test]
    fn initial_config_covers_all_apps() {
        let env = env();
        let (ls, be) = trained(&env);
        let controller = MultiSturgeonController::new(
            env.spec().clone(),
            env.budget_w(),
            env.static_power_w(),
            ls,
            be,
        );
        let cfg = controller.initial_config();
        assert_eq!(cfg.ls.len(), 2);
        assert_eq!(cfg.be.len(), 2);
        assert_eq!(cfg.total_cores(), env.spec().total_cores);
        assert_eq!(cfg.total_ways(), env.spec().total_llc_ways);
    }

    #[test]
    fn violated_service_harvests_from_be() {
        let env = env();
        let (ls, be) = trained(&env);
        let mut controller = MultiSturgeonController::new(
            env.spec().clone(),
            env.budget_w(),
            env.static_power_w(),
            ls,
            be,
        );
        let current = MultiConfig {
            ls: vec![Allocation::new(4, 8, 6), Allocation::new(4, 8, 6)],
            be: vec![Allocation::new(7, 5, 4), Allocation::new(5, 5, 4)],
        };
        // Pin the load memory so the harvest path (not a re-search) runs.
        controller.last_search_qps = Some(vec![1_050.0, 900.0]);
        let obs = MultiObservation {
            t_s: 1.0,
            ls: vec![
                sturgeon_workloads::multienv::LsObservation {
                    qps: 1_050.0,
                    p95_ms: 16.0, // violated (target 15)
                    in_target_fraction: 0.8,
                    utilization: 0.95,
                },
                sturgeon_workloads::multienv::LsObservation {
                    qps: 900.0,
                    p95_ms: 8.0, // healthy (target 10)
                    in_target_fraction: 1.0,
                    utilization: 0.6,
                },
            ],
            be_throughput: vec![0.4, 0.3],
            power_w: 70.0,
        };
        let next = controller.decide(&obs, &current);
        assert_eq!(
            next.ls[0].cores,
            current.ls[0].cores + 1,
            "violated service must gain a core"
        );
        assert_eq!(next.ls[1], current.ls[1], "healthy service untouched");
        assert_eq!(controller.harvest_count(), 1);
    }
}
