//! The online performance/power predictor (paper §V).
//!
//! Four offline-trained models answer the Fig. 5 questions for a
//! configuration `<C1,F1,L1; C2,F2,L2>` at load Q:
//!
//! 1. **LS performance** — a classifier: does `<C1,F1,L1>` at Q meet the
//!    QoS target? (The paper notes the LS model "only needs to tell
//!    whether the QoS is violated or not", §V-C.)
//! 2. **LS power** — regression: watts drawn by the LS partition.
//! 3. **BE performance** — regression: throughput of `<C2,F2,L2>`.
//! 4. **BE power** — regression: watts drawn by the BE partition.
//!
//! A configuration is *feasible* when the QoS classifier approves it and
//! the summed power prediction (with a conservative margin, mirroring the
//! paper's peak-power training) stays within the budget.
//!
//! The [`evaluation`] submodule reproduces the Fig. 6 / Fig. 7 model-family
//! comparison (DT, KNN, SV, MLP, logistic/linear regression) and the
//! Lasso feature-selection step of §V-A.

use crate::cache::{Family, PredictionCache, QueryMeter};
use crate::profiler::{feature_row, ProfileDatasets, FEATURE_DIM};
use crate::tables::{LsSlab, LsSlabs, ModelTables};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sturgeon_mlkit::{
    Classifier, Dataset, DecisionTreeClassifier, DecisionTreeRegressor, KnnClassifier,
    KnnRegressor, LinearRegression, LogisticRegression, MlError, MlpClassifier, MlpRegressor,
    Regressor, SvmClassifier, SvmRegressor,
};
use sturgeon_simnode::{NodeSpec, PairConfig};

/// The model families evaluated in Figs. 6 and 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// CART decision tree.
    DecisionTree,
    /// K-nearest neighbours (k = 5).
    Knn,
    /// Linear support-vector model.
    Sv,
    /// Multi-layer perceptron.
    Mlp,
    /// "LR": logistic regression for classification, linear regression
    /// for regression (the paper's Fig. 6 caption makes the same split).
    Lr,
}

impl ModelKind {
    /// The five families of the paper's Figs. 6/7, in figure order.
    pub fn all() -> [ModelKind; 5] {
        [
            ModelKind::DecisionTree,
            ModelKind::Knn,
            ModelKind::Sv,
            ModelKind::Mlp,
            ModelKind::Lr,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::DecisionTree => "DT",
            ModelKind::Knn => "KNN",
            ModelKind::Sv => "SV",
            ModelKind::Mlp => "MLP",
            ModelKind::Lr => "LR",
        }
    }
}

/// Instantiates an untrained classifier of the given family.
pub fn make_classifier(kind: ModelKind) -> Box<dyn Classifier + Send + Sync> {
    match kind {
        ModelKind::DecisionTree => Box::new(DecisionTreeClassifier::default()),
        ModelKind::Knn => Box::new(KnnClassifier::new(5)),
        ModelKind::Sv => Box::new(SvmClassifier::default()),
        ModelKind::Mlp => Box::new(MlpClassifier::default()),
        ModelKind::Lr => Box::new(LogisticRegression::new()),
    }
}

/// Instantiates an untrained regressor of the given family.
pub fn make_regressor(kind: ModelKind) -> Box<dyn Regressor + Send + Sync> {
    match kind {
        ModelKind::DecisionTree => Box::new(DecisionTreeRegressor::default()),
        ModelKind::Knn => Box::new(KnnRegressor::weighted(5)),
        ModelKind::Sv => Box::new(SvmRegressor::default()),
        ModelKind::Mlp => Box::new(MlpRegressor::default()),
        ModelKind::Lr => Box::new(LinearRegression::new()),
    }
}

/// Per-model feature selection for the BE power model (paper §V-A): a BE
/// app's power draw is driven by its pinned cores and frequency, not by
/// its LLC partition, so the `ways` column is masked to a constant before
/// fitting. Leaving the irrelevant dimension in lets it dominate the
/// instance-based models' distance metric and inflates error at the
/// sparsely-sampled corners of the configuration grid.
fn mask_ways(data: &Dataset) -> Result<Dataset, MlError> {
    let x = data
        .x
        .iter()
        .map(|row| {
            let mut r = row.clone();
            if r.len() == FEATURE_DIM {
                r[3] = 0.0;
            }
            r
        })
        .collect();
    Dataset::new(x, data.y.clone())
}

/// One LS-side model query: [`Regressor::predict_drifting`] when the
/// caller repeats `<cores, freq, ways>` at drifting loads, else
/// [`Regressor::predict`]. Both return the same bits.
fn ls_predict(model: &dyn Regressor, x: &[f64], drifting: bool) -> f64 {
    if drifting {
        model.predict_drifting(x)
    } else {
        model.predict(x)
    }
}

/// Which family backs each of the four models, plus the safety margin.
#[derive(Debug, Clone, Copy)]
pub struct PredictorConfig {
    /// LS QoS classifier family (paper's pick: DT classification).
    pub ls_qos: ModelKind,
    /// LS latency regressor family used as a second opinion on
    /// feasibility (classifiers can hallucinate feasible islands in
    /// sparsely-profiled corners; an instance-based regressor cannot).
    pub ls_latency: ModelKind,
    /// LS power regressor family (paper's pick: KNN regression).
    pub ls_power: ModelKind,
    /// BE throughput regressor family (paper's pick: KNN/MLP regression).
    pub be_perf: ModelKind,
    /// BE power regressor family (paper's pick: KNN regression).
    pub be_power: ModelKind,
    /// Multiplicative headroom on power predictions; mirrors the paper's
    /// conservative peak-power training ("to resolve \[spikes\], Sturgeon
    /// builds power models based on their peak powers conservatively").
    pub power_margin: f64,
}

/// Relative load headroom applied when classifying QoS feasibility: the
/// classifier is queried at `qps · (1 + QOS_LOAD_MARGIN)` so the chosen
/// configuration does not sit exactly on the latency cliff.
pub const QOS_LOAD_MARGIN: f64 = 0.10;

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            ls_qos: ModelKind::DecisionTree,
            ls_latency: ModelKind::Knn,
            ls_power: ModelKind::Knn,
            be_perf: ModelKind::Knn,
            be_power: ModelKind::Knn,
            power_margin: 0.04,
        }
    }
}

/// The trained predictor. Thread-safe and read-only once trained, apart
/// from its fill-on-read caches. Each query advances its thread's query
/// meter, which a search's [`SearchStats`](crate::search::SearchStats)
/// reads for the §VII-E overhead accounting.
pub struct PerfPowerPredictor {
    config: PredictorConfig,
    ls_qos: Box<dyn Classifier + Send + Sync>,
    ls_latency: Box<dyn Regressor + Send + Sync>,
    ls_power: Box<dyn Regressor + Send + Sync>,
    be_perf: Box<dyn Regressor + Send + Sync>,
    be_power: Box<dyn Regressor + Send + Sync>,
    static_power_w: f64,
    be_input_level: f64,
    /// Highest LS load seen during profiling; loads beyond the trained
    /// domain (plus 10% headroom) are conservatively declared infeasible
    /// rather than extrapolated.
    max_trained_qps: f64,
    /// QoS target (ms) the latency second-opinion is compared against.
    qos_target_ms: f64,
    /// Memoized answers for the four hot query families. Keys are exact
    /// by default, so the cache never changes a result, only its cost.
    cache: PredictionCache,
    /// Lazily built flattened BE lattices (see [`ModelTables`]), rebuilt
    /// when a different node spec is asked for.
    tables: Mutex<Option<Arc<ModelTables>>>,
    /// How many times [`model_tables`](Self::model_tables) actually built
    /// tables (cache refreshes included). A fleet sharing one predictor
    /// reads this to prove table construction was paid exactly once.
    table_builds: AtomicU64,
    /// Lazily built QPS-slab family for the LS-side models (see
    /// [`LsSlabs`]), rebuilt when a different spec or headroom is asked for.
    slabs: Mutex<Option<Arc<LsSlabs>>>,
}

impl std::fmt::Debug for PerfPowerPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfPowerPredictor")
            .field("config", &self.config)
            .field("static_power_w", &self.static_power_w)
            .field("cache", &self.cache)
            .finish()
    }
}

impl PerfPowerPredictor {
    /// Trains all four models on profiled datasets.
    ///
    /// `static_power_w` is the node's uncore/static power (needed to turn
    /// two partition predictions into a total), `be_input_level` the BE
    /// app's input-size feature value at runtime.
    pub fn train(
        datasets: &ProfileDatasets,
        config: PredictorConfig,
        static_power_w: f64,
        be_input_level: f64,
        qos_target_ms: f64,
    ) -> Result<Self, MlError> {
        let mut ls_qos = make_classifier(config.ls_qos);
        ls_qos.fit(&datasets.ls_qos)?;
        let mut ls_latency = make_regressor(config.ls_latency);
        ls_latency.fit(&datasets.ls_latency)?;
        let mut ls_power = make_regressor(config.ls_power);
        ls_power.fit(&datasets.ls_power)?;
        let mut be_perf = make_regressor(config.be_perf);
        be_perf.fit(&datasets.be_throughput)?;
        let mut be_power = make_regressor(config.be_power);
        be_power.fit(&mask_ways(&datasets.be_power)?)?;
        // Feature 0 of the LS datasets is the offered load (QPS).
        let max_trained_qps = datasets.ls_qos.x.iter().map(|r| r[0]).fold(0.0, f64::max);
        Ok(Self {
            config,
            ls_qos,
            ls_latency,
            ls_power,
            be_perf,
            be_power,
            static_power_w,
            be_input_level,
            max_trained_qps,
            qos_target_ms,
            cache: PredictionCache::new(),
            tables: Mutex::new(None),
            table_builds: AtomicU64::new(0),
            slabs: Mutex::new(None),
        })
    }

    fn count(&self) {
        QueryMeter::bump(|m| m.calls += 1);
    }

    /// The prediction memo cache (enable/disable, entry count).
    pub fn cache(&self) -> &PredictionCache {
        &self.cache
    }

    /// Turns prediction memoization on or off (on by default). Results
    /// are identical either way; only the cost changes.
    pub fn set_caching(&self, enabled: bool) {
        self.cache.set_enabled(enabled);
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// The flattened QPS-independent model tables for `spec`, built on
    /// first use and cached until a different spec is asked for.
    ///
    /// Entries are computed by the same paths as
    /// [`be_throughput`](Self::be_throughput) / [`be_power_w`](Self::be_power_w)
    /// — same features, clamps and margins — so a table lookup is
    /// bit-identical to the model call it replaces. The build itself runs
    /// the raw models directly, one [`Regressor::predict_grid`] sweep per
    /// table: it neither advances the query meter nor touches the
    /// memo cache, keeping §VII-E per-search accounting clean.
    pub fn model_tables(&self, spec: &NodeSpec) -> Arc<ModelTables> {
        let mut slot = self.tables.lock();
        if let Some(tables) = slot.as_ref() {
            if tables.matches(spec) {
                return Arc::clone(tables);
            }
        }
        let cores: Vec<f64> = (1..=spec.total_cores).map(f64::from).collect();
        let ways: Vec<f64> = (1..=spec.total_llc_ways).map(f64::from).collect();
        let levels = &spec.freq_levels_ghz;
        let mut tput = vec![0.0; cores.len() * levels.len() * ways.len()];
        self.be_perf
            .predict_grid(self.be_input_level, &cores, levels, &ways, &mut tput);
        for t in &mut tput {
            *t = t.max(0.0);
        }
        // The BE power model is trained ways-masked: its ways feature is 0.
        let mut power = vec![0.0; cores.len() * levels.len()];
        self.be_power
            .predict_grid(self.be_input_level, &cores, levels, &[0.0], &mut power);
        let margin = 1.0 + self.config.power_margin;
        for p in &mut power {
            *p = p.max(0.0) * margin;
        }
        let built = Arc::new(ModelTables::build(spec, self.static_power_w, tput, power));
        *slot = Some(Arc::clone(&built));
        self.table_builds.fetch_add(1, Ordering::Relaxed);
        built
    }

    /// How many times table construction actually ran (as opposed to
    /// being served from the per-spec cache).
    pub fn table_builds(&self) -> u64 {
        self.table_builds.load(Ordering::Relaxed)
    }

    /// The QPS-slab family for `spec` with the given power-load headroom
    /// baked into its power lattices, created empty on first use and
    /// cached until a different spec or headroom is asked for.
    ///
    /// The bucket width is `max_trained_qps / 64` — 64 slabs across the
    /// profiled load domain — so any realistic load sits within one
    /// bucket of a slab center and the conservative bracket envelope
    /// stays tight.
    pub fn ls_slabs(&self, spec: &NodeSpec, power_load_headroom: f64) -> Arc<LsSlabs> {
        let mut slot = self.slabs.lock();
        if let Some(slabs) = slot.as_ref() {
            if slabs.matches(spec) && slabs.headroom().to_bits() == power_load_headroom.to_bits() {
                return Arc::clone(slabs);
            }
        }
        let quantum = if self.max_trained_qps > 0.0 {
            self.max_trained_qps / 64.0
        } else {
            1.0
        };
        let fresh = Arc::new(LsSlabs::new(
            spec,
            quantum,
            power_load_headroom,
            self.max_trained_qps,
        ));
        *slot = Some(Arc::clone(&fresh));
        fresh
    }

    /// The slab for one bucket of the family, allocated empty on first
    /// use. Its cells are filled one at a time by
    /// [`slab_feasible`](Self::slab_feasible) and
    /// [`slab_ls_power_w`](Self::slab_ls_power_w), outside any lock.
    ///
    /// `slabs` must be a family this predictor returned from
    /// [`ls_slabs`](Self::ls_slabs) for `spec`: a family for another spec
    /// would index wrongly. Debug builds assert it.
    pub fn ls_slab(&self, spec: &NodeSpec, slabs: &LsSlabs, bucket: u64) -> Arc<LsSlab> {
        debug_assert!(slabs.matches(spec), "slab family for another node spec");
        slabs.slab(bucket)
    }

    /// How many LS slabs were allocated across the current family (map
    /// hits excluded). Resets when a spec/headroom change replaces the
    /// family.
    pub fn slab_builds(&self) -> u64 {
        self.slabs.lock().as_ref().map_or(0, |s| s.builds())
    }

    /// Slab cell: does `<cores, level, ways>` meet QoS at the slab center?
    /// Equals [`ls_feasible`](Self::ls_feasible) at [`LsSlab::qps`] bit
    /// for bit; a fill advances neither the query meter nor the
    /// memo cache.
    pub fn slab_feasible(
        &self,
        spec: &NodeSpec,
        slab: &LsSlab,
        cores: u32,
        level: usize,
        ways: u32,
    ) -> bool {
        slab.feasible(cores, level, ways, || {
            self.raw_ls_feasible(cores, spec.freq_ghz(level), ways, slab.qps(), false)
        })
    }

    /// Slab cell: LS power of `<cores, level, ways>`, equal to
    /// [`ls_power_w`](Self::ls_power_w) at [`LsSlab::qps_power`] bit for
    /// bit; a fill advances neither the query meter nor the memo
    /// cache.
    pub fn slab_ls_power_w(
        &self,
        spec: &NodeSpec,
        slab: &LsSlab,
        cores: u32,
        level: usize,
        ways: u32,
    ) -> f64 {
        slab.ls_power_w(cores, level, ways, || {
            self.raw_ls_power_w(cores, spec.freq_ghz(level), ways, slab.qps_power(), false)
        })
    }

    /// The feasibility compute path shared by [`ls_feasible`](Self::ls_feasible)
    /// and slab fills: domain check, guarded load, classifier plus
    /// latency veto. With `drifting` the veto goes through
    /// [`Regressor::predict_drifting`], which returns the same bits. The
    /// memoized point queries set it: they ask each `<cores, freq, ways>`
    /// again at many nearby loads. Slab fills do not: each cell is filled
    /// once, so a candidate set stored for it would almost never be read.
    fn raw_ls_feasible(
        &self,
        cores: u32,
        freq_ghz: f64,
        ways: u32,
        qps: f64,
        drifting: bool,
    ) -> bool {
        if qps > 1.1 * self.max_trained_qps {
            // Never extrapolate a QoS promise beyond the profiled domain.
            return false;
        }
        let guarded = (qps * (1.0 + QOS_LOAD_MARGIN)).min(self.max_trained_qps);
        let x = feature_row(guarded, cores, freq_ghz, ways);
        // Dual check: the classifier answers the paper's yes/no question,
        // and the instance-based latency regressor vetoes feasible islands
        // the tree may hallucinate far from any training sample.
        self.ls_qos.predict_label(&x)
            && ls_predict(&*self.ls_latency, &x, drifting) <= self.qos_target_ms
    }

    /// The LS-power compute path shared by [`ls_power_w`](Self::ls_power_w)
    /// and slab fills: clamp and margin. `drifting` as in
    /// [`raw_ls_feasible`](Self::raw_ls_feasible).
    fn raw_ls_power_w(
        &self,
        cores: u32,
        freq_ghz: f64,
        ways: u32,
        qps: f64,
        drifting: bool,
    ) -> f64 {
        let x = feature_row(qps, cores, freq_ghz, ways);
        ls_predict(&*self.ls_power, &x, drifting).max(0.0) * (1.0 + self.config.power_margin)
    }

    /// Does `<cores, freq, ways>` meet the LS QoS target at `qps`?
    pub fn ls_feasible(&self, cores: u32, freq_ghz: f64, ways: u32, qps: f64) -> bool {
        self.count();
        if qps > 1.1 * self.max_trained_qps {
            // Cheap domain check — not worth a cache slot.
            return false;
        }
        // The feasibility verdict consumes two model rounds (classifier +
        // latency veto); the counter tracks queries, so it advances by two
        // whether the verdict is recomputed or memoized.
        self.count();
        self.cache
            .get_or_compute(Family::LsFeasible, cores, freq_ghz, ways, qps, || {
                f64::from(u8::from(
                    self.raw_ls_feasible(cores, freq_ghz, ways, qps, true),
                ))
            })
            != 0.0
    }

    /// Predicted LS partition power (W), margin included.
    pub fn ls_power_w(&self, cores: u32, freq_ghz: f64, ways: u32, qps: f64) -> f64 {
        self.count();
        self.cache
            .get_or_compute(Family::LsPower, cores, freq_ghz, ways, qps, || {
                self.raw_ls_power_w(cores, freq_ghz, ways, qps, true)
            })
    }

    /// Predicted BE throughput (normalized to the solo run).
    pub fn be_throughput(&self, cores: u32, freq_ghz: f64, ways: u32) -> f64 {
        self.count();
        self.cache
            .get_or_compute(Family::BeThroughput, cores, freq_ghz, ways, 0.0, || {
                self.be_perf
                    .predict(&feature_row(self.be_input_level, cores, freq_ghz, ways))
                    .max(0.0)
            })
    }

    /// Predicted BE partition power (W), margin included.
    ///
    /// The `ways` argument is accepted for feature-layout symmetry but
    /// ignored: the model is trained with the LLC column masked (see
    /// `mask_ways`), mirroring the paper's §V-A per-model feature
    /// selection — a BE app's power draw is set by its pinned cores and
    /// frequency, not its cache partition. The cache key normalizes `ways`
    /// to 0 for the same reason, so every way count hits one entry.
    pub fn be_power_w(&self, cores: u32, freq_ghz: f64, _ways: u32) -> f64 {
        self.count();
        self.cache
            .get_or_compute(Family::BePower, cores, freq_ghz, 0, 0.0, || {
                self.be_power
                    .predict(&feature_row(self.be_input_level, cores, freq_ghz, 0))
                    .max(0.0)
                    * (1.0 + self.config.power_margin)
            })
    }

    /// Predicted total node power for a pair configuration (W).
    pub fn total_power_w(&self, config: &PairConfig, spec: &NodeSpec, qps: f64) -> f64 {
        self.static_power_w
            + self.ls_power_w(
                config.ls.cores,
                config.ls.freq_ghz(spec),
                config.ls.llc_ways,
                qps,
            )
            + self.be_power_w(
                config.be.cores,
                config.be.freq_ghz(spec),
                config.be.llc_ways,
            )
    }

    /// Feasibility per the paper's definition: QoS met *and* power within
    /// budget.
    pub fn feasible(&self, config: &PairConfig, spec: &NodeSpec, qps: f64, budget_w: f64) -> bool {
        self.ls_feasible(
            config.ls.cores,
            config.ls.freq_ghz(spec),
            config.ls.llc_ways,
            qps,
        ) && self.total_power_w(config, spec, qps) <= budget_w
    }
}

/// Fig. 6 / Fig. 7 reproduction: scores every model family on held-out
/// data, plus the §V-A Lasso feature-selection step.
pub mod evaluation {
    use super::*;
    use sturgeon_mlkit::metrics::classification_r2;
    use sturgeon_mlkit::{accuracy, r2_score, train_test_split, Lasso};

    /// Held-out scores for one model family.
    #[derive(Debug, Clone, Copy)]
    pub struct FamilyScore {
        /// The family under evaluation.
        pub kind: ModelKind,
        /// LS QoS classifier: R² on the 0/1 labels (Fig. 6, LS panel).
        pub ls_qos_r2: f64,
        /// LS QoS classifier plain accuracy.
        pub ls_qos_accuracy: f64,
        /// BE throughput regressor R² (Fig. 6, BE panel).
        pub be_perf_r2: f64,
        /// LS power regressor R² (Fig. 7, LS panel).
        pub ls_power_r2: f64,
        /// BE power regressor R² (Fig. 7, BE panel).
        pub be_power_r2: f64,
    }

    /// Trains and scores every family on a 70/30 split of the datasets.
    pub fn score_families(
        datasets: &ProfileDatasets,
        seed: u64,
    ) -> Result<Vec<FamilyScore>, MlError> {
        let (qos_tr, qos_te) = train_test_split(&datasets.ls_qos, 0.3, seed)?;
        let (bp_tr, bp_te) = train_test_split(&datasets.be_throughput, 0.3, seed)?;
        let (lp_tr, lp_te) = train_test_split(&datasets.ls_power, 0.3, seed)?;
        let (bpw_tr, bpw_te) = train_test_split(&datasets.be_power, 0.3, seed)?;

        let mut out = Vec::with_capacity(5);
        for kind in ModelKind::all() {
            let mut clf = make_classifier(kind);
            clf.fit(&qos_tr)?;
            let labels: Vec<bool> = qos_te.x.iter().map(|r| clf.predict_label(r)).collect();
            let truth: Vec<bool> = qos_te.y.iter().map(|&v| v == 1.0).collect();
            let ls_qos_r2 = classification_r2(&qos_te.y, &labels);
            let ls_qos_accuracy = accuracy(&truth, &labels);

            let score_reg = |train: &Dataset, test: &Dataset| -> Result<f64, MlError> {
                let mut reg = make_regressor(kind);
                reg.fit(train)?;
                let pred = reg.predict_batch(&test.x);
                Ok(r2_score(&test.y, &pred))
            };
            out.push(FamilyScore {
                kind,
                ls_qos_r2,
                ls_qos_accuracy,
                be_perf_r2: score_reg(&bp_tr, &bp_te)?,
                ls_power_r2: score_reg(&lp_tr, &lp_te)?,
                be_power_r2: score_reg(&bpw_tr, &bpw_te)?,
            });
        }
        Ok(out)
    }

    /// The §V-A feature-selection step: Lasso over an extended candidate
    /// feature set (the four real features plus quadratic distractors);
    /// returns the indices of surviving base features.
    pub fn lasso_select_features(dataset: &Dataset, lambda: f64) -> Result<Vec<usize>, MlError> {
        // Augment with products that *derive* from the base features —
        // Lasso should keep the informative base set and prune the rest.
        let augmented: Vec<Vec<f64>> = dataset
            .x
            .iter()
            .map(|r| {
                let mut v = r.clone();
                v.push(r[1] * r[2]); // cores × freq
                v.push(r[3] * r[3]); // ways²
                v
            })
            .collect();
        let aug = Dataset::new(augmented, dataset.y.clone())?;
        let mut lasso = Lasso::new(lambda);
        lasso.fit(&aug)?;
        Ok(lasso
            .selected_features()
            .into_iter()
            .filter(|&i| i < crate::profiler::FEATURE_DIM)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, ProfilerConfig};
    use sturgeon_simnode::{Allocation, NodeSpec, PowerModel};
    use sturgeon_workloads::catalog::{be_app, ls_service, BeAppId, LsServiceId};
    use sturgeon_workloads::env::CoLocationEnv;
    use sturgeon_workloads::interference::InterferenceParams;

    fn env() -> CoLocationEnv {
        CoLocationEnv::new(
            NodeSpec::xeon_e5_2630_v4(),
            PowerModel::default(),
            ls_service(LsServiceId::Memcached),
            be_app(BeAppId::Raytrace),
            InterferenceParams::none(),
            0,
        )
    }

    fn datasets(e: &CoLocationEnv) -> ProfileDatasets {
        Profiler::new(
            e,
            ProfilerConfig {
                ls_samples_per_load: 80,
                ls_load_fractions: vec![0.2, 0.35, 0.5, 0.65, 0.8],
                be_samples: 400,
                seed: 3,
            },
        )
        .collect()
        .unwrap()
    }

    fn predictor(e: &CoLocationEnv) -> PerfPowerPredictor {
        let d = datasets(e);
        PerfPowerPredictor::train(
            &d,
            PredictorConfig::default(),
            e.static_power_w(),
            e.be().params.input_level as f64,
            e.ls().params.qos_target_ms,
        )
        .unwrap()
    }

    /// The per-point compute path behind `ls_feasible`, uncounted and
    /// unmemoized: the reference a slab cell must equal.
    fn raw_ls_feasible(p: &PerfPowerPredictor, cores: u32, ghz: f64, ways: u32, qps: f64) -> bool {
        if qps > 1.1 * p.max_trained_qps {
            return false;
        }
        let guarded = (qps * (1.0 + QOS_LOAD_MARGIN)).min(p.max_trained_qps);
        let x = feature_row(guarded, cores, ghz, ways);
        p.ls_qos.predict_label(&x) && p.ls_latency.predict(&x) <= p.qos_target_ms
    }

    /// The per-point compute path behind `ls_power_w`.
    fn raw_ls_power_w(p: &PerfPowerPredictor, cores: u32, ghz: f64, ways: u32, qps: f64) -> f64 {
        p.ls_power
            .predict(&feature_row(qps, cores, ghz, ways))
            .max(0.0)
            * (1.0 + p.config.power_margin)
    }

    /// A small node keeps per-cell reference sweeps of every bucket
    /// affordable in debug builds.
    fn small_node() -> (NodeSpec, PerfPowerPredictor) {
        let spec = NodeSpec {
            total_cores: 8,
            freq_levels_ghz: vec![1.2, 1.5, 1.8, 2.1],
            total_llc_ways: 6,
            llc_mb: 7.5,
        };
        let e = CoLocationEnv::new(
            spec.clone(),
            PowerModel::default(),
            ls_service(LsServiceId::Memcached),
            be_app(BeAppId::Raytrace),
            InterferenceParams::none(),
            0,
        );
        (spec, predictor(&e))
    }

    /// Every `(C1, F1, L1)` cell of `spec`.
    fn cells(spec: &NodeSpec) -> Vec<(u32, usize, u32)> {
        let mut out = Vec::new();
        for c in 1..=spec.total_cores {
            for level in 0..spec.freq_level_count() {
                out.extend((1..=spec.total_llc_ways).map(|w| (c, level, w)));
            }
        }
        out
    }

    /// One slab's cells, filled in `order`, as `(feasible, power bits)`
    /// in lattice order.
    fn fill(
        p: &PerfPowerPredictor,
        spec: &NodeSpec,
        slab: &LsSlab,
        order: &[(u32, usize, u32)],
    ) -> Vec<(bool, u64)> {
        for &(c, level, w) in order {
            p.slab_feasible(spec, slab, c, level, w);
            p.slab_ls_power_w(spec, slab, c, level, w);
        }
        let read = |&(c, level, w): &(u32, usize, u32)| {
            (
                p.slab_feasible(spec, slab, c, level, w),
                p.slab_ls_power_w(spec, slab, c, level, w).to_bits(),
            )
        };
        cells(spec).iter().map(read).collect()
    }

    #[test]
    fn lazy_slab_cells_equal_the_per_cell_model_call_for_every_bucket() {
        let (spec, p) = small_node();
        let slabs = p.ls_slabs(&spec, 0.08);
        let start = QueryMeter::current();
        let mut feasible_cells = 0;
        for bucket in 0..=slabs.max_bucket() {
            let qps = slabs.center(bucket);
            let qps_power = qps * (1.0 + slabs.headroom());
            let want: Vec<(bool, u64)> = cells(&spec)
                .into_iter()
                .map(|(c, level, w)| {
                    let ghz = spec.freq_ghz(level);
                    (
                        raw_ls_feasible(&p, c, ghz, w, qps),
                        raw_ls_power_w(&p, c, ghz, w, qps_power).to_bits(),
                    )
                })
                .collect();
            feasible_cells += want.iter().filter(|(ok, _)| *ok).count();
            let slab = p.ls_slab(&spec, &slabs, bucket);
            assert_eq!(
                fill(&p, &spec, &slab, &cells(&spec)),
                want,
                "bucket {bucket}"
            );
        }
        assert_eq!(p.slab_builds(), slabs.max_bucket() + 1);
        assert_eq!(
            QueryMeter::since(start).calls,
            0,
            "slab fills must not count"
        );
        assert!(p.cache().is_empty(), "slab fills must bypass the memo");
        assert!(feasible_cells > 0, "the sweep must cover feasible cells");
    }

    #[test]
    fn racing_fills_of_one_bucket_equal_a_serial_fill() {
        let (spec, p) = small_node();
        let slabs = p.ls_slabs(&spec, 0.08);
        let bucket = slabs.max_bucket() / 2;
        let qps = slabs.center(bucket);
        let serial = LsSlab::new(&spec, qps, qps * (1.0 + slabs.headroom()));
        let want = fill(&p, &spec, &serial, &cells(&spec));
        let shared = p.ls_slab(&spec, &slabs, bucket);
        // Four threads fill the shared bucket at once: forward, backward
        // and two interleaved strides, so every cell is raced on.
        let forward = cells(&spec);
        let backward: Vec<_> = forward.iter().rev().copied().collect();
        let stride = |k: usize| {
            let mut v: Vec<_> = forward.iter().skip(k).step_by(2).copied().collect();
            v.extend(forward.iter().skip(1 - k).step_by(2));
            v
        };
        let orders = [forward.clone(), backward, stride(0), stride(1)];
        let start = std::sync::Barrier::new(orders.len());
        std::thread::scope(|scope| {
            let runs: Vec<_> = orders
                .iter()
                .map(|order| {
                    let (p, spec, shared, start) = (&p, &spec, &shared, &start);
                    scope.spawn(move || {
                        start.wait();
                        fill(p, spec, shared, order)
                    })
                })
                .collect();
            for run in runs {
                assert_eq!(run.join().unwrap(), want);
            }
        });
    }

    #[test]
    fn feasibility_is_safe_and_mostly_accurate() {
        // The predictor is deliberately conservative (load margin +
        // latency second opinion), so it may reject truly-feasible
        // boundary configurations — but a configuration it *approves*
        // must almost always be truly feasible (QoS safety), and overall
        // agreement must stay high.
        let e = env();
        let p = predictor(&e);
        let ls = e.ls();
        let spec = e.spec();
        let mut agree = 0;
        let mut approved = 0;
        let mut approved_safe = 0;
        let mut total = 0;
        for cores in [2u32, 4, 6, 8, 12, 16] {
            for level in [0usize, 3, 6, 9] {
                for ways in [2u32, 6, 10, 14] {
                    for frac in [0.2, 0.4, 0.6, 0.8] {
                        let qps = frac * ls.params.peak_qps;
                        let f = spec.freq_ghz(level);
                        let truth = ls.meets_qos(cores, f, ways, qps);
                        let pred = p.ls_feasible(cores, f, ways, qps);
                        total += 1;
                        if truth == pred {
                            agree += 1;
                        }
                        if pred {
                            approved += 1;
                            if truth {
                                approved_safe += 1;
                            }
                        }
                    }
                }
            }
        }
        let agreement = agree as f64 / total as f64;
        assert!(agreement > 0.8, "agreement only {agreement}");
        let safety = approved_safe as f64 / approved.max(1) as f64;
        assert!(safety > 0.97, "approved-config safety only {safety}");
        assert!(approved > 0, "predictor approved nothing");
    }

    #[test]
    fn power_predictions_close_to_truth() {
        let e = env();
        let p = predictor(&e);
        let spec = e.spec();
        let mut rel_err = 0.0;
        let mut n = 0;
        for cores in [4u32, 8, 12, 16] {
            for level in [1usize, 5, 9] {
                let f = spec.freq_ghz(level);
                let truth = e.be_partition_power(cores, f);
                let pred = p.be_power_w(cores, f, 10);
                rel_err += ((pred - truth) / truth).abs();
                n += 1;
            }
        }
        let mean_err = rel_err / n as f64;
        assert!(mean_err < 0.15, "mean rel err {mean_err}");
    }

    #[test]
    fn throughput_prediction_orders_configs() {
        let e = env();
        let p = predictor(&e);
        // More resources must predict (weakly) more throughput.
        let small = p.be_throughput(6, 1.4, 6);
        let big = p.be_throughput(16, 2.2, 16);
        assert!(big > small);
    }

    #[test]
    fn prediction_counter_increments() {
        let e = env();
        let p = predictor(&e);
        let start = QueryMeter::current();
        // ls_feasible consults two models (classifier + latency veto).
        let _ = p.ls_feasible(4, 1.8, 6, 12_000.0);
        let _ = p.be_throughput(10, 2.0, 10);
        assert_eq!(QueryMeter::since(start).calls, 3);
        let cfg = PairConfig::new(Allocation::new(4, 5, 6), Allocation::new(16, 9, 14));
        let _ = p.total_power_w(&cfg, e.spec(), 12_000.0);
        assert_eq!(QueryMeter::since(start).calls, 5);
    }

    #[test]
    fn margin_makes_power_conservative() {
        let e = env();
        let d = datasets(&e);
        let tight = PerfPowerPredictor::train(
            &d,
            PredictorConfig {
                power_margin: 0.0,
                ..PredictorConfig::default()
            },
            e.static_power_w(),
            5.0,
            e.ls().params.qos_target_ms,
        )
        .unwrap();
        let wide = PerfPowerPredictor::train(
            &d,
            PredictorConfig {
                power_margin: 0.10,
                ..PredictorConfig::default()
            },
            e.static_power_w(),
            5.0,
            e.ls().params.qos_target_ms,
        )
        .unwrap();
        assert!(wide.be_power_w(10, 2.0, 10) > tight.be_power_w(10, 2.0, 10));
    }

    #[test]
    fn family_scores_cover_all_kinds() {
        let e = env();
        let d = datasets(&e);
        let scores = evaluation::score_families(&d, 11).unwrap();
        assert_eq!(scores.len(), 5);
        // The paper's headline picks should do well in our reproduction
        // too: DT classification for LS QoS, KNN regression for power.
        let dt = scores
            .iter()
            .find(|s| s.kind == ModelKind::DecisionTree)
            .unwrap();
        assert!(
            dt.ls_qos_accuracy > 0.9,
            "DT accuracy {}",
            dt.ls_qos_accuracy
        );
        let knn = scores.iter().find(|s| s.kind == ModelKind::Knn).unwrap();
        assert!(knn.ls_power_r2 > 0.9, "KNN LS-power R² {}", knn.ls_power_r2);
        assert!(knn.be_power_r2 > 0.9, "KNN BE-power R² {}", knn.be_power_r2);
    }

    #[test]
    fn lasso_keeps_informative_features() {
        let e = env();
        let d = datasets(&e);
        let kept = evaluation::lasso_select_features(&d.be_power, 0.01).unwrap();
        // Cores and frequency drive BE power; they must survive selection.
        assert!(kept.contains(&1), "cores dropped: {kept:?}");
        assert!(kept.contains(&2), "frequency dropped: {kept:?}");
    }
}
