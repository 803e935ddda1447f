//! Cold-start co-location scoring: predicting performance and power for
//! *unprofiled* applications, and valuing co-runner *sets* rather than
//! job counts.
//!
//! Sturgeon's offline profiler (§V-A) assumes every application can be
//! swept across the resource grid before deployment. Real fleets onboard
//! new best-effort apps continuously; profiling each against the full
//! `<C, F, L>` grid first would stall admission for hours. This module
//! follows the CuttleSys recipe: the fleet's profiled apps form an
//! app×configuration observation matrix, and a seeded biased matrix
//! factorization ([`sturgeon_mlkit::MatrixFactorization`]) fills the
//! unobserved cells — including entire rows for never-profiled apps that
//! contribute only a handful of online probe cells.
//!
//! Three layers:
//!
//! * [`ProfileMatrix`] — assembles the app×config matrices (throughput,
//!   IPC, power) from the workload catalog over a subsampled grid, with a
//!   manifest-controlled seeded mask hiding a fraction of cells and,
//!   optionally, all but a few probe cells of one "cold" app.
//! * [`ColdStartPredictor`] — fits one factorization per metric on the
//!   observed cells, reports reconstruction error on the held-out cells
//!   (ground truth is known in simulation), and synthesizes the BE
//!   training datasets the [`PerfPowerPredictor`] needs for an app whose
//!   row was never profiled.
//! * [`SetScorer`] — a learned replacement for the closed-form
//!   `co_runner_score(k, σ)`: per-app contention coefficients are
//!   regressed from the contended throughput of BE co-runner sets, and
//!   `score(S)` values a *heterogeneous* candidate set by its member
//!   apps, not just its cardinality. The score is permutation-invariant
//!   and monotonically decreasing in every member's σ by construction.
//!
//! Everything is deterministic for a given [`ScoringParams::seed`]: the
//! mask and the factorization derive from it, and the set-scorer
//! regression draws nothing random at all.

use std::collections::BTreeMap;

use crate::error::SturgeonError;
use crate::experiment::ExperimentSetup;
use crate::predictor::{PerfPowerPredictor, PredictorConfig};
use crate::profiler::{features, ProfileDatasets, ProfilerConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use sturgeon_mlkit::{Dataset, MatrixFactorization, MfCell, MfParams};
use sturgeon_simnode::power::{PartitionLoad, PowerModel};
use sturgeon_simnode::{Allocation, NodeSpec};
use sturgeon_workloads::be::{contended_throughput, BeAppModel, BE_BW_COUPLING};
use sturgeon_workloads::catalog::{be_apps, extended_be_app, ExtendedBeAppId};

/// Number of online probe cells revealed for a fully-masked cold app —
/// the few quick measurements admission control *can* afford before the
/// factorization extrapolates the rest of the row.
pub const PROBE_CELLS: usize = 24;

/// Uncertainty guardband applied to the cold-start *power* predictions,
/// in units of the power plane's held-out RMSE. Throughput and IPC
/// errors cost efficiency; a power under-prediction violates the node
/// budget, so admission shifts every synthesized power cell up by this
/// many "sigmas" of measured reconstruction error before training the
/// predictor on it.
pub const POWER_GUARDBAND_SIGMA: f64 = 2.0;

/// Manifest-facing controls for the scoring subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoringParams {
    /// Substitute collaborative-filtering predictions for the BE training
    /// datasets of the masked app (cold-start path).
    pub cold_start: bool,
    /// With `cold_start`, use the no-model column-statistics fallback
    /// ([`fallback_be_datasets`]) instead of the factorization — the
    /// conservative baseline the CF predictor is judged against.
    pub fallback: bool,
    /// Use the learned co-runner set scorer instead of the closed-form
    /// `co_runner_score(k, σ)` in placement.
    pub set_scorer: bool,
    /// Latent dimensionality of the factorization.
    pub latent_dim: usize,
    /// Fraction of (app, config) cells hidden uniformly at random.
    pub mask_fraction: f64,
    /// App whose matrix row is fully hidden (bar [`PROBE_CELLS`] probes),
    /// simulating a never-profiled application. Catalog app name.
    pub masked_app: Option<String>,
    /// Seed for masking and factorization (set-scorer training is
    /// seed-free).
    pub seed: u64,
}

impl Default for ScoringParams {
    fn default() -> Self {
        Self {
            cold_start: true,
            fallback: false,
            set_scorer: true,
            latent_dim: 8,
            mask_fraction: 0.25,
            masked_app: None,
            seed: 0x5C0E,
        }
    }
}

impl ScoringParams {
    /// Rejects out-of-range controls with a setup error.
    pub fn validate(&self) -> Result<(), SturgeonError> {
        if self.latent_dim == 0 || self.latent_dim > 64 {
            return Err(SturgeonError::setup("scoring latent_dim must be in 1..=64"));
        }
        if !(0.0..=0.9).contains(&self.mask_fraction) {
            return Err(SturgeonError::setup(
                "scoring mask_fraction must be in [0, 0.9]",
            ));
        }
        Ok(())
    }
}

/// Which observation matrix a cell belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreMetric {
    /// Solo-normalized BE throughput.
    Throughput,
    /// IPC proxy.
    Ipc,
    /// BE partition power (W).
    Power,
}

/// The app×configuration observation matrices assembled from the
/// workload catalog: the fleet's accumulated profiling knowledge.
///
/// Rows are the six base PARSEC apps plus the four extended apps; columns
/// are a strided subsample of the `<cores, freq level, ways>` grid. Three
/// parallel value planes (throughput, IPC, power) share one observation
/// mask, because a profiling run measures all three at once.
#[derive(Debug, Clone)]
pub struct ProfileMatrix {
    apps: Vec<String>,
    configs: Vec<(u32, usize, u32)>,
    spec: NodeSpec,
    tput: Vec<f64>,
    ipc: Vec<f64>,
    power: Vec<f64>,
    observed: Vec<bool>,
}

impl ProfileMatrix {
    /// Assembles the matrices over `spec` and masks cells per `params`.
    ///
    /// The uniform mask hides [`ScoringParams::mask_fraction`] of the
    /// cells; a [`ScoringParams::masked_app`] row is then hidden entirely
    /// except for [`PROBE_CELLS`] seeded probe columns. Every column is
    /// guaranteed at least one observed cell so no configuration's bias
    /// term is left at its random initialization.
    pub fn build(
        spec: &NodeSpec,
        power_model: &PowerModel,
        params: &ScoringParams,
    ) -> Result<Self, SturgeonError> {
        params.validate()?;
        let mut models: Vec<BeAppModel> = be_apps();
        for id in ExtendedBeAppId::all() {
            models.push(extended_be_app(id));
        }
        let apps: Vec<String> = models.iter().map(|m| m.params.name.to_string()).collect();

        // Strided axes, endpoints forced: the columns must reach the grid
        // corners the controller actually allocates (max cores, the top
        // DVFS level, max ways) or every downstream model extrapolates
        // beyond its training hull exactly where power peaks.
        let max_level = spec.max_freq_level();
        let axis = |stride: Vec<usize>, end: usize| -> Vec<usize> {
            let mut v = stride;
            if v.last() != Some(&end) {
                v.push(end);
            }
            v
        };
        let cores_axis = axis(
            (2..spec.total_cores as usize).step_by(2).collect(),
            spec.total_cores as usize - 1,
        );
        let level_axis = axis((0..=max_level).step_by(2).collect(), max_level);
        let ways_axis = axis(
            (2..spec.total_llc_ways as usize).step_by(4).collect(),
            spec.total_llc_ways as usize - 1,
        );
        let mut configs = Vec::new();
        for &cores in &cores_axis {
            for &level in &level_axis {
                for &ways in &ways_axis {
                    configs.push((cores as u32, level, ways as u32));
                }
            }
        }
        let n = apps.len() * configs.len();
        let mut tput = Vec::with_capacity(n);
        let mut ipc = Vec::with_capacity(n);
        let mut power = Vec::with_capacity(n);
        for m in &models {
            for &(cores, level, ways) in &configs {
                let f = spec.freq_ghz(level);
                tput.push(m.normalized_throughput(cores, f, ways));
                ipc.push(m.ipc(cores, f, ways));
                power.push(power_model.partition_power_w(&PartitionLoad {
                    cores,
                    freq_ghz: f,
                    activity: m.params.activity,
                    utilization: 1.0,
                }));
            }
        }

        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut observed: Vec<bool> = (0..n)
            .map(|_| rng.gen_range(0.0..1.0) >= params.mask_fraction)
            .collect();
        if let Some(name) = &params.masked_app {
            let row = apps
                .iter()
                .position(|a| a == name)
                .ok_or_else(|| SturgeonError::setup(format!("unknown masked app '{name}'")))?;
            let base = row * configs.len();
            for cell in observed[base..base + configs.len()].iter_mut() {
                *cell = false;
            }
            let mut cols: Vec<usize> = (0..configs.len()).collect();
            cols.shuffle(&mut rng);
            for &c in cols.iter().take(PROBE_CELLS.min(configs.len())) {
                observed[base + c] = true;
            }
        }
        // Re-reveal one seeded row in any column the mask left fully dark.
        for c in 0..configs.len() {
            if !(0..apps.len()).any(|r| observed[r * configs.len() + c]) {
                let r = rng.gen_range(0..apps.len());
                observed[r * configs.len() + c] = true;
            }
        }
        Ok(Self {
            apps,
            configs,
            spec: spec.clone(),
            tput,
            ipc,
            power,
            observed,
        })
    }

    /// App names, row order.
    pub fn apps(&self) -> &[String] {
        &self.apps
    }

    /// `<cores, freq level, ways>` columns.
    pub fn configs(&self) -> &[(u32, usize, u32)] {
        &self.configs
    }

    /// Row index of an app by catalog name.
    pub fn app_row(&self, name: &str) -> Option<usize> {
        self.apps.iter().position(|a| a == name)
    }

    /// Number of observed (unmasked) cells.
    pub fn cells_observed(&self) -> usize {
        self.observed.iter().filter(|&&o| o).count()
    }

    /// Number of hidden cells.
    pub fn cells_hidden(&self) -> usize {
        self.observed.len() - self.cells_observed()
    }

    fn plane(&self, metric: ScoreMetric) -> &[f64] {
        match metric {
            ScoreMetric::Throughput => &self.tput,
            ScoreMetric::Ipc => &self.ipc,
            ScoreMetric::Power => &self.power,
        }
    }

    /// Ground-truth value of a cell (simulation knows the full matrix).
    pub fn truth(&self, metric: ScoreMetric, row: usize, col: usize) -> f64 {
        self.plane(metric)[row * self.configs.len() + col]
    }

    /// The observed cells of one metric plane, as factorization input.
    pub fn observed_cells(&self, metric: ScoreMetric) -> Vec<MfCell> {
        self.cells(metric, true)
    }

    /// The hidden cells of one metric plane (held-out evaluation set).
    pub fn hidden_cells(&self, metric: ScoreMetric) -> Vec<MfCell> {
        self.cells(metric, false)
    }

    fn cells(&self, metric: ScoreMetric, want_observed: bool) -> Vec<MfCell> {
        let plane = self.plane(metric);
        let cols = self.configs.len();
        self.observed
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o == want_observed)
            .map(|(i, _)| (i / cols, i % cols, plane[i]))
            .collect()
    }
}

/// Reconstruction quality of one fitted metric plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneFit {
    /// RMSE over the observed (training) cells.
    pub rmse_observed: f64,
    /// RMSE over the hidden (held-out) cells.
    pub rmse_heldout: f64,
}

/// Collaborative-filtering predictor over a [`ProfileMatrix`]: one
/// factorization per metric plane, fitted on the observed cells only.
#[derive(Debug, Clone)]
pub struct ColdStartPredictor {
    matrix: ProfileMatrix,
    tput_mf: MatrixFactorization,
    ipc_mf: MatrixFactorization,
    power_mf: MatrixFactorization,
    fits: [(ScoreMetric, PlaneFit); 3],
}

impl ColdStartPredictor {
    /// Fits the three factorizations; fails on degenerate inputs.
    pub fn fit(matrix: ProfileMatrix, params: &ScoringParams) -> Result<Self, SturgeonError> {
        params.validate()?;
        let mf_params = MfParams {
            latent_dim: params.latent_dim,
            seed: params.seed,
            ..MfParams::default()
        };
        let rows = matrix.apps.len();
        let cols = matrix.configs.len();
        let fit_plane = |(metric, seed_offset): (ScoreMetric, u64)|
         -> Result<(MatrixFactorization, PlaneFit), SturgeonError> {
            let mut mf = MatrixFactorization::new(MfParams {
                seed: mf_params.seed.wrapping_add(seed_offset),
                ..mf_params
            })
            .map_err(SturgeonError::Ml)?;
            mf.fit(rows, cols, &matrix.observed_cells(metric))
                .map_err(SturgeonError::Ml)?;
            let fit = PlaneFit {
                rmse_observed: mf.rmse(&matrix.observed_cells(metric)),
                rmse_heldout: mf.rmse(&matrix.hidden_cells(metric)),
            };
            Ok((mf, fit))
        };
        // The planes are independent serial fits, each with its own
        // seed, so fitting them across the pool gives the same bits at
        // any worker count. Results come back in plane order, so the
        // first failing plane's error is the one returned.
        let planes: Vec<_> = vec![
            (ScoreMetric::Throughput, 0),
            (ScoreMetric::Ipc, 1),
            (ScoreMetric::Power, 2),
        ]
        .into_par_iter()
        .map(fit_plane)
        .collect::<Result<_, _>>()?;
        let [(tput_mf, tput_fit), (ipc_mf, ipc_fit), (power_mf, power_fit)]: [_; 3] =
            planes.try_into().expect("three planes in, three fits out");
        Ok(Self {
            matrix,
            tput_mf,
            ipc_mf,
            power_mf,
            fits: [
                (ScoreMetric::Throughput, tput_fit),
                (ScoreMetric::Ipc, ipc_fit),
                (ScoreMetric::Power, power_fit),
            ],
        })
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &ProfileMatrix {
        &self.matrix
    }

    /// Reconstruction quality of one metric plane.
    pub fn plane_fit(&self, metric: ScoreMetric) -> PlaneFit {
        self.fits
            .iter()
            .find(|(m, _)| *m == metric)
            .map(|&(_, f)| f)
            .expect("every metric has a fit")
    }

    /// CF-predicted value of a cell, clamped to the metric's domain.
    pub fn predict(&self, metric: ScoreMetric, row: usize, col: usize) -> f64 {
        let raw = match metric {
            ScoreMetric::Throughput => self.tput_mf.predict(row, col),
            ScoreMetric::Ipc => self.ipc_mf.predict(row, col),
            ScoreMetric::Power => self.power_mf.predict(row, col),
        };
        match metric {
            ScoreMetric::Power => raw.max(1.0),
            _ => raw.max(0.0),
        }
    }

    /// Synthesizes the three BE training datasets for one app row from
    /// CF predictions over the full column grid — the datasets a
    /// [`PerfPowerPredictor`] trains on when the app was never profiled.
    pub fn synth_be_datasets(
        &self,
        row: usize,
        input_level: f64,
    ) -> Result<(Dataset, Dataset, Dataset), SturgeonError> {
        if row >= self.matrix.apps.len() {
            return Err(SturgeonError::setup("app row out of range"));
        }
        let spec = &self.matrix.spec;
        let mut x = Vec::with_capacity(self.matrix.configs.len());
        let (mut t, mut i_y, mut p) = (Vec::new(), Vec::new(), Vec::new());
        for (col, &(cores, level, ways)) in self.matrix.configs.iter().enumerate() {
            x.push(features(input_level, cores, spec.freq_ghz(level), ways));
            t.push(self.predict(ScoreMetric::Throughput, row, col));
            i_y.push(self.predict(ScoreMetric::Ipc, row, col));
            p.push(self.predict(ScoreMetric::Power, row, col));
        }
        Ok((
            Dataset::new(x.clone(), t).map_err(SturgeonError::Ml)?,
            Dataset::new(x.clone(), i_y).map_err(SturgeonError::Ml)?,
            Dataset::new(x, p).map_err(SturgeonError::Ml)?,
        ))
    }
}

/// Synthesizes *naive* BE datasets for an unprofiled app: the no-model
/// baseline the cold-start path must beat. Throughput and IPC fall back
/// to the per-column mean over the *other* apps' observed cells (a
/// generic prior that ignores the app's identity); power falls back to
/// the per-column *maximum* (admission must be conservative about the
/// one quantity that can violate the node budget).
pub fn fallback_be_datasets(
    matrix: &ProfileMatrix,
    row: usize,
    input_level: f64,
) -> Result<(Dataset, Dataset, Dataset), SturgeonError> {
    if row >= matrix.apps.len() {
        return Err(SturgeonError::setup("app row out of range"));
    }
    let cols = matrix.configs.len();
    let spec = &matrix.spec;
    let column_stat = |metric: ScoreMetric, col: usize, max: bool| -> f64 {
        let mut vals = Vec::new();
        for r in 0..matrix.apps.len() {
            if r != row && matrix.observed[r * cols + col] {
                vals.push(matrix.truth(metric, r, col));
            }
        }
        if vals.is_empty() {
            for r in 0..matrix.apps.len() {
                if r != row {
                    vals.push(matrix.truth(metric, r, col));
                }
            }
        }
        if max {
            vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    let mut x = Vec::with_capacity(cols);
    let (mut t, mut i_y, mut p) = (Vec::new(), Vec::new(), Vec::new());
    for (col, &(cores, level, ways)) in matrix.configs.iter().enumerate() {
        x.push(features(input_level, cores, spec.freq_ghz(level), ways));
        t.push(column_stat(ScoreMetric::Throughput, col, false));
        i_y.push(column_stat(ScoreMetric::Ipc, col, false));
        p.push(column_stat(ScoreMetric::Power, col, true));
    }
    Ok((
        Dataset::new(x.clone(), t).map_err(SturgeonError::Ml)?,
        Dataset::new(x.clone(), i_y).map_err(SturgeonError::Ml)?,
        Dataset::new(x, p).map_err(SturgeonError::Ml)?,
    ))
}

/// Quality and volume report from a cold-start training run, exported
/// into fleet metrics and the `scoring_eval` bench artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdStartReport {
    /// Observed cells across the shared mask.
    pub cells_observed: u64,
    /// Hidden cells.
    pub cells_hidden: u64,
    /// Cells synthesized for the cold app's row.
    pub cold_start_cells: u64,
    /// Held-out RMSE of the throughput plane.
    pub rmse_heldout_tput: f64,
    /// Training-cell RMSE of the throughput plane.
    pub rmse_observed_tput: f64,
    /// Held-out RMSE of the power plane (W).
    pub rmse_heldout_power: f64,
    /// Training-cell RMSE of the power plane (W).
    pub rmse_observed_power: f64,
}

/// A trained predictor plus the cold-start quality report.
#[derive(Debug)]
pub struct ColdStartOutcome {
    /// Predictor whose BE models were trained on CF-synthesized data.
    pub predictor: PerfPowerPredictor,
    /// Matrix/factorization statistics.
    pub report: ColdStartReport,
}

fn replace_be_datasets(
    base: ProfileDatasets,
    (t, i, p): (Dataset, Dataset, Dataset),
) -> ProfileDatasets {
    ProfileDatasets {
        ls_qos: base.ls_qos,
        ls_latency: base.ls_latency,
        ls_power: base.ls_power,
        be_throughput: t,
        be_ipc: i,
        be_power: p,
    }
}

fn base_datasets_and_row(
    setup: &ExperimentSetup,
    params: &ScoringParams,
) -> Result<(ProfileDatasets, ProfileMatrix, usize), SturgeonError> {
    let be_name = setup.env().be().params.name.to_string();
    let masked = params.masked_app.clone().unwrap_or_else(|| be_name.clone());
    if masked != be_name {
        return Err(SturgeonError::setup(format!(
            "masked app '{masked}' is not the pair's BE app '{be_name}'"
        )));
    }
    let effective = ScoringParams {
        masked_app: Some(masked.clone()),
        ..params.clone()
    };
    let matrix = ProfileMatrix::build(setup.spec(), setup.env().power_model(), &effective)?;
    let row = matrix
        .app_row(&masked)
        .ok_or_else(|| SturgeonError::setup(format!("unknown masked app '{masked}'")))?;
    // The LS sweeps run first in the profiler and draw from the same
    // seeded RNG stream, so the LS datasets here are identical to a
    // fully-profiled run's — only the BE datasets get replaced.
    let base = setup.profile(ProfilerConfig::default())?;
    Ok((base, matrix, row))
}

/// Trains a predictor for `setup`'s pair with the BE datasets replaced by
/// collaborative-filtering predictions: the pair's BE app is treated as
/// never profiled (its matrix row hidden bar the probe cells).
pub fn train_cold_start_predictor(
    setup: &ExperimentSetup,
    params: &ScoringParams,
) -> Result<ColdStartOutcome, SturgeonError> {
    let (base, matrix, row) = base_datasets_and_row(setup, params)?;
    let cells_observed = matrix.cells_observed() as u64;
    let cells_hidden = matrix.cells_hidden() as u64;
    let cold_start_cells = matrix.configs().len() as u64;
    let effective = ScoringParams {
        masked_app: Some(matrix.apps()[row].clone()),
        ..params.clone()
    };
    let cf = ColdStartPredictor::fit(matrix, &effective)?;
    let input_level = setup.env().be().params.input_level as f64;
    let (t, i, mut p) = cf.synth_be_datasets(row, input_level)?;
    // Budget safety: bias the power plane by its own measured held-out
    // error so a flattering factorization cannot talk admission into
    // configurations that overshoot the node cap.
    let guard = POWER_GUARDBAND_SIGMA * cf.plane_fit(ScoreMetric::Power).rmse_heldout;
    for v in &mut p.y {
        *v += guard;
    }
    let datasets = replace_be_datasets(base, (t, i, p));
    let predictor = PerfPowerPredictor::train(
        &datasets,
        PredictorConfig::default(),
        setup.env().static_power_w(),
        input_level,
        setup.qos_target_ms(),
    )
    .map_err(SturgeonError::Ml)?;
    let tput = cf.plane_fit(ScoreMetric::Throughput);
    let power = cf.plane_fit(ScoreMetric::Power);
    Ok(ColdStartOutcome {
        predictor,
        report: ColdStartReport {
            cells_observed,
            cells_hidden,
            cold_start_cells,
            rmse_heldout_tput: tput.rmse_heldout,
            rmse_observed_tput: tput.rmse_observed,
            rmse_heldout_power: power.rmse_heldout,
            rmse_observed_power: power.rmse_observed,
        },
    })
}

/// Trains the no-model fallback predictor for `setup`'s pair: the BE
/// datasets come from [`fallback_be_datasets`] (column means, pessimistic
/// power) instead of the factorization.
pub fn train_fallback_predictor(
    setup: &ExperimentSetup,
    params: &ScoringParams,
) -> Result<PerfPowerPredictor, SturgeonError> {
    let (base, matrix, row) = base_datasets_and_row(setup, params)?;
    let input_level = setup.env().be().params.input_level as f64;
    let naive = fallback_be_datasets(&matrix, row, input_level)?;
    let datasets = replace_be_datasets(base, naive);
    PerfPowerPredictor::train(
        &datasets,
        PredictorConfig::default(),
        setup.env().static_power_w(),
        input_level,
        setup.qos_target_ms(),
    )
    .map_err(SturgeonError::Ml)
}

/// Looks up an app's closed-form contention coefficient in the catalog
/// (base or extended); unknown names get the fleet's legacy default.
pub fn catalog_sigma(app: &str) -> f64 {
    for m in be_apps() {
        if m.params.name == app {
            return m.params.contention_sigma();
        }
    }
    for id in ExtendedBeAppId::all() {
        let m = extended_be_app(id);
        if m.params.name == app {
            return m.params.contention_sigma();
        }
    }
    0.25
}

/// Learned co-runner *set* scorer.
///
/// Per-app contention coefficients `σ_a ∈ [0, 1]` are regressed from the
/// contended throughput of BE co-runner sets; a candidate set `S` of
/// `k` jobs is then valued
///
/// ```text
/// score(S) = k / (1 + mean_{a∈S}(σ_a) · (k − 1))
/// ```
///
/// — the same saturating family as the closed-form `co_runner_score`,
/// but with the coefficient reflecting *which* apps share the node. The
/// mean makes the score permutation-invariant, and `∂score/∂σ_a < 0`
/// for `k ≥ 2` makes it monotonically decreasing as any member's
/// contention rises.
#[derive(Debug, Clone, PartialEq)]
pub struct SetScorer {
    sigmas: BTreeMap<String, f64>,
}

impl SetScorer {
    /// A scorer with explicitly given coefficients (tests, manifests).
    pub fn from_sigmas<I, S>(sigmas: I) -> Self
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        Self {
            sigmas: sigmas
                .into_iter()
                .map(|(a, s)| (a.into(), s.clamp(0.0, 1.0)))
                .collect(),
        }
    }

    /// Trains the per-app coefficients from contended BE throughput.
    ///
    /// Every 2- and 3-app subset of the base catalog shares an
    /// equal-partition node (two cores and two ways left to the LS
    /// service) at the default BE↔BE bandwidth coupling; the delivered
    /// set efficiency `e_S = mean_i(tput_i / solo_i)` implies a blended
    /// coefficient `σ̄_S = (1/e_S − 1)/(k − 1)`, and the per-app
    /// coefficients solve the ridge system `mean_{a∈S}(σ_a) ≈ σ̄_S` over
    /// all samples.
    ///
    /// The power model and seed are unused: the contention law
    /// ([`contended_throughput`]) depends on neither power nor any random
    /// draw, so training is a pure function of `spec`.
    pub fn train(spec: &NodeSpec, _power: &PowerModel, _seed: u64) -> Result<Self, SturgeonError> {
        let models = be_apps();
        let names: Vec<String> = models.iter().map(|m| m.params.name.to_string()).collect();
        let n = models.len();
        let mut subsets: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                subsets.push(vec![i, j]);
                for l in (j + 1)..n {
                    subsets.push(vec![i, j, l]);
                }
            }
        }
        let mut rows: Vec<(Vec<usize>, f64)> = Vec::new();
        for set in &subsets {
            let k = set.len() as u32;
            let ls_cores = 2u32;
            let ls_ways = 2u32;
            let each_cores = ((spec.total_cores - ls_cores) / k).max(1);
            let each_ways = ((spec.total_llc_ways - ls_ways) / k).max(1);
            let level = spec.max_freq_level();
            let alloc = Allocation::new(each_cores, level, each_ways);
            let be: Vec<(&BeAppModel, Allocation)> =
                set.iter().map(|&i| (&models[i], alloc)).collect();
            let eff: f64 = contended_throughput(spec, BE_BW_COUPLING, &be)
                .iter()
                .zip(&be)
                .map(|(&t, (m, _))| {
                    let solo = m.normalized_throughput(each_cores, spec.freq_ghz(level), each_ways);
                    if solo > 0.0 {
                        (t / solo).clamp(1e-3, 1.0)
                    } else {
                        1.0
                    }
                })
                .sum::<f64>()
                / k as f64;
            let sigma_bar = ((1.0 / eff - 1.0) / (k as f64 - 1.0)).clamp(0.0, 1.0);
            rows.push((set.clone(), sigma_bar));
        }
        // Ridge normal equations: (XᵀX + λI) σ = Xᵀy with X[s][a] = 1/k.
        let lambda = 1e-6;
        let mut ata = vec![vec![0.0f64; n]; n];
        let mut aty = vec![0.0f64; n];
        for (set, y) in &rows {
            let w = 1.0 / set.len() as f64;
            for &a in set {
                aty[a] += w * y;
                for &b in set {
                    ata[a][b] += w * w;
                }
            }
        }
        for (d, row) in ata.iter_mut().enumerate() {
            row[d] += lambda;
        }
        let sigma = solve_linear(&mut ata, &mut aty)
            .ok_or_else(|| SturgeonError::setup("set-scorer regression is singular"))?;
        Ok(Self::from_sigmas(names.into_iter().zip(sigma)))
    }

    /// The learned coefficient for an app, if it was in the training set.
    pub fn sigma(&self, app: &str) -> Option<f64> {
        self.sigmas.get(app).copied()
    }

    /// Effective coefficient: learned when available, catalog otherwise.
    pub fn effective_sigma(&self, app: &str) -> f64 {
        self.sigma(app).unwrap_or_else(|| catalog_sigma(app))
    }

    /// Values a candidate co-runner set. Empty → 0; singleton → 1.
    ///
    /// The member coefficients are sorted before accumulation, so the
    /// score is bit-identical under any permutation of the set — not
    /// merely equal up to floating-point associativity.
    pub fn score<S: AsRef<str>>(&self, set: &[S]) -> f64 {
        let k = set.len();
        if k == 0 {
            return 0.0;
        }
        let mut sigmas: Vec<f64> = set
            .iter()
            .map(|a| self.effective_sigma(a.as_ref()))
            .collect();
        sigmas.sort_by(f64::total_cmp);
        let mean_sigma = sigmas.iter().sum::<f64>() / k as f64;
        k as f64 / (1.0 + mean_sigma * (k as f64 - 1.0))
    }
}

/// Gaussian elimination with partial pivoting for the tiny (n ≤ 10)
/// ridge systems above. Returns `None` on a (numerically) singular
/// matrix. Consumes its inputs as scratch space.
#[allow(clippy::needless_range_loop)] // elimination reads a[col] while writing a[row]
fn solve_linear(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut v = b[col];
        for k in (col + 1)..n {
            v -= a[col][k] * x[k];
        }
        x[col] = v / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sturgeon_workloads::catalog::BeAppId;

    fn spec() -> NodeSpec {
        NodeSpec::xeon_e5_2630_v4()
    }

    fn params() -> ScoringParams {
        ScoringParams {
            masked_app: Some(BeAppId::Raytrace.name().to_string()),
            ..ScoringParams::default()
        }
    }

    #[test]
    fn matrix_masks_cold_row_except_probes() {
        let m = ProfileMatrix::build(&spec(), &PowerModel::default(), &params()).unwrap();
        let row = m.app_row("raytrace").unwrap();
        let cols = m.configs().len();
        let observed_in_row = (0..cols).filter(|&c| m.observed[row * cols + c]).count();
        assert_eq!(observed_in_row, PROBE_CELLS);
        assert!(m.cells_hidden() > 0);
        assert_eq!(m.cells_observed() + m.cells_hidden(), m.apps().len() * cols);
        // Every column keeps at least one observation.
        for c in 0..cols {
            assert!((0..m.apps().len()).any(|r| m.observed[r * cols + c]));
        }
    }

    #[test]
    fn matrix_is_deterministic_per_seed() {
        let a = ProfileMatrix::build(&spec(), &PowerModel::default(), &params()).unwrap();
        let b = ProfileMatrix::build(&spec(), &PowerModel::default(), &params()).unwrap();
        assert_eq!(a.observed, b.observed);
        let other = ProfileMatrix::build(
            &spec(),
            &PowerModel::default(),
            &ScoringParams {
                seed: 99,
                ..params()
            },
        )
        .unwrap();
        assert_ne!(a.observed, other.observed);
    }

    #[test]
    fn cold_start_predictor_reconstructs_and_extrapolates() {
        let m = ProfileMatrix::build(&spec(), &PowerModel::default(), &params()).unwrap();
        let cf = ColdStartPredictor::fit(m, &params()).unwrap();
        let t = cf.plane_fit(ScoreMetric::Throughput);
        assert!(t.rmse_observed < 0.08, "observed rmse {}", t.rmse_observed);
        assert!(t.rmse_heldout < 0.20, "held-out rmse {}", t.rmse_heldout);
        // The cold row's predictions must beat a row-ignorant prior on
        // the app's own hidden cells.
        let row = cf.matrix().app_row("raytrace").unwrap();
        let cols = cf.matrix().configs().len();
        let mut se_cf = 0.0;
        let mut count = 0usize;
        for c in 0..cols {
            if !cf.matrix().observed[row * cols + c] {
                let truth = cf.matrix().truth(ScoreMetric::Throughput, row, c);
                let e = cf.predict(ScoreMetric::Throughput, row, c) - truth;
                se_cf += e * e;
                count += 1;
            }
        }
        let rmse_cold = (se_cf / count as f64).sqrt();
        assert!(rmse_cold < 0.15, "cold-row rmse {rmse_cold}");
    }

    #[test]
    fn parallel_plane_fits_equal_serial_fits() {
        let p = params();
        let m = ProfileMatrix::build(&spec(), &PowerModel::default(), &p).unwrap();
        let (rows, cols) = (m.apps().len(), m.configs().len());
        let serial_fits: Vec<_> = [
            ScoreMetric::Throughput,
            ScoreMetric::Ipc,
            ScoreMetric::Power,
        ]
        .into_iter()
        .zip(0..)
        .map(|(metric, seed_offset)| {
            let mut serial = MatrixFactorization::new(MfParams {
                latent_dim: p.latent_dim,
                seed: p.seed + seed_offset,
                ..MfParams::default()
            })
            .unwrap();
            serial.fit(rows, cols, &m.observed_cells(metric)).unwrap();
            (metric, serial)
        })
        .collect();
        // One worker fits the three planes in turn on the caller; two and
        // three split them into different chunks.
        for workers in 1..=3 {
            let cf = rayon::with_num_threads(workers, || {
                ColdStartPredictor::fit(m.clone(), &p).unwrap()
            });
            let fitted = [&cf.tput_mf, &cf.ipc_mf, &cf.power_mf];
            for ((metric, serial), fitted) in serial_fits.iter().zip(fitted) {
                for r in 0..rows {
                    for c in 0..cols {
                        assert_eq!(
                            fitted.predict(r, c).to_bits(),
                            serial.predict(r, c).to_bits(),
                            "{metric:?} cell ({r}, {c}) at worker count {workers}"
                        );
                    }
                }
                let fit = cf.plane_fit(*metric);
                assert_eq!(
                    fit.rmse_observed.to_bits(),
                    serial.rmse(&m.observed_cells(*metric)).to_bits()
                );
                assert_eq!(
                    fit.rmse_heldout.to_bits(),
                    serial.rmse(&m.hidden_cells(*metric)).to_bits()
                );
            }
        }
    }

    #[test]
    fn synth_datasets_cover_the_grid() {
        let m = ProfileMatrix::build(&spec(), &PowerModel::default(), &params()).unwrap();
        let cols = m.configs().len();
        let row = m.app_row("raytrace").unwrap();
        let cf = ColdStartPredictor::fit(m, &params()).unwrap();
        let (t, i, p) = cf.synth_be_datasets(row, 4.0).unwrap();
        assert_eq!(t.len(), cols);
        assert_eq!(i.len(), cols);
        assert_eq!(p.len(), cols);
        assert!(t.y.iter().all(|&v| v >= 0.0));
        assert!(p.y.iter().all(|&v| v >= 1.0));
        assert!(cf.synth_be_datasets(usize::MAX, 4.0).is_err());
    }

    #[test]
    fn fallback_power_is_pessimistic() {
        let m = ProfileMatrix::build(&spec(), &PowerModel::default(), &params()).unwrap();
        let row = m.app_row("raytrace").unwrap();
        let (_, _, p) = fallback_be_datasets(&m, row, 4.0).unwrap();
        // The column-max power prior must overestimate raytrace's true
        // power on (almost) every column.
        let over = m
            .configs()
            .iter()
            .enumerate()
            .filter(|&(c, _)| p.y[c] >= m.truth(ScoreMetric::Power, row, c))
            .count();
        assert!(
            over as f64 >= 0.95 * m.configs().len() as f64,
            "only {over}/{} columns overestimated",
            m.configs().len()
        );
    }

    #[test]
    fn set_scorer_is_permutation_invariant_and_sane() {
        let s = SetScorer::train(&spec(), &PowerModel::default(), 7).unwrap();
        let a = s.score(&["raytrace", "fluidanimate", "ferret"]);
        let b = s.score(&["ferret", "raytrace", "fluidanimate"]);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(s.score::<&str>(&[]), 0.0);
        assert_eq!(s.score(&["raytrace"]), 1.0);
        // Scores live in (1, k] for k ≥ 2 mixed sets with σ < 1.
        assert!(a > 1.0 && a <= 3.0, "score {a}");
        // Learned coefficients exist for every base app and are bounded.
        for m in be_apps() {
            let sig = s.sigma(m.params.name).unwrap();
            assert!((0.0..=1.0).contains(&sig), "{}: {sig}", m.params.name);
        }
    }

    #[test]
    fn set_scorer_orders_sets_by_contention() {
        let s = SetScorer::train(&spec(), &PowerModel::default(), 7).unwrap();
        // Low-traffic pair must outscore a high-traffic pair.
        let quiet = s.score(&["swaptions", "blackscholes"]);
        let loud = s.score(&["fluidanimate", "facesim"]);
        assert!(quiet > loud, "quiet {quiet} vs loud {loud}");
        // And the learned σ ordering must follow memory traffic.
        assert!(s.sigma("fluidanimate").unwrap() > s.sigma("swaptions").unwrap());
    }

    #[test]
    fn set_scorer_sigmas_are_pinned() {
        // Every learned coefficient of the default training, folded into
        // one value. A change to the BE contention law or the regression
        // that moves any bit changes it.
        let s = SetScorer::train(&spec(), &PowerModel::default(), 7).unwrap();
        let fold = s.sigmas.values().fold(0u64, |h, sigma| {
            (h ^ sigma.to_bits()).wrapping_mul(0x0100_0000_01B3)
        });
        assert_eq!(fold, 0x1428_0f64_00e8_bd47, "fold {fold:#018x}");
    }

    #[test]
    fn set_scorer_training_is_deterministic() {
        let a = SetScorer::train(&spec(), &PowerModel::default(), 7).unwrap();
        let b = SetScorer::train(&spec(), &PowerModel::default(), 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_apps_fall_back_to_catalog_sigma() {
        let s = SetScorer::from_sigmas([("raytrace", 0.3)]);
        assert_eq!(s.effective_sigma("raytrace"), 0.3);
        assert_eq!(
            s.effective_sigma("fluidanimate"),
            catalog_sigma("fluidanimate")
        );
        assert_eq!(s.effective_sigma("no-such-app"), 0.25);
    }

    #[test]
    fn params_validation_rejects_bad_controls() {
        assert!(ScoringParams {
            latent_dim: 0,
            ..ScoringParams::default()
        }
        .validate()
        .is_err());
        assert!(ScoringParams {
            mask_fraction: 0.95,
            ..ScoringParams::default()
        }
        .validate()
        .is_err());
        assert!(ScoringParams::default().validate().is_ok());
        let bad = ScoringParams {
            masked_app: Some("nope".into()),
            ..ScoringParams::default()
        };
        assert!(ProfileMatrix::build(&spec(), &PowerModel::default(), &bad).is_err());
    }
}
