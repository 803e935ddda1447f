//! Offline profiling: collecting the training samples the predictor's
//! models are fitted on (paper §V-A).
//!
//! In the paper, a dedicated cluster instruments each application across
//! resource configurations and loads; telemetry systems collect 95%-ile
//! latency, IPC and (peak) power. Here the profiler drives the
//! [`CoLocationEnv`]'s interference-free `profile` probe over a sampled
//! grid of configurations and packages the observations as
//! [`sturgeon_mlkit::Dataset`]s with the paper's four features:
//! **input size, cores, core frequency, LLC ways**.

use crate::error::SturgeonError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sturgeon_mlkit::Dataset;
use sturgeon_simnode::{Allocation, PairConfig};
use sturgeon_workloads::env::CoLocationEnv;

/// Feature vector layout shared by every model:
/// `[input_size, cores, freq_ghz, llc_ways]`.
pub const FEATURE_DIM: usize = 4;

/// Builds the canonical feature row on the stack, for model queries.
#[inline]
pub fn feature_row(input_size: f64, cores: u32, freq_ghz: f64, ways: u32) -> [f64; FEATURE_DIM] {
    [input_size, cores as f64, freq_ghz, ways as f64]
}

/// Builds the canonical feature row as a dataset row.
#[inline]
pub fn features(input_size: f64, cores: u32, freq_ghz: f64, ways: u32) -> Vec<f64> {
    feature_row(input_size, cores, freq_ghz, ways).to_vec()
}

/// Profiling controls.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Number of random configurations sampled per load level for the LS
    /// service (the grid is too big to sweep exhaustively, §V-B).
    pub ls_samples_per_load: usize,
    /// Load levels (fractions of peak) swept for the LS service.
    pub ls_load_fractions: Vec<f64>,
    /// Number of random configurations sampled for the BE application.
    pub be_samples: usize,
    /// RNG seed for the configuration sampler.
    pub seed: u64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        Self {
            ls_samples_per_load: 160,
            ls_load_fractions: (1..=19).map(|i| i as f64 / 20.0).collect(),
            be_samples: 1600,
            seed: 0xC0FFEE,
        }
    }
}

/// The four training datasets the predictor needs (paper Fig. 5).
#[derive(Debug, Clone)]
pub struct ProfileDatasets {
    /// LS performance: features → 1.0 if QoS met, else 0.0 (classification).
    pub ls_qos: Dataset,
    /// LS p95 latency in ms (regression; used by the Fig. 6 "regression
    /// flavour" comparisons).
    pub ls_latency: Dataset,
    /// LS partition power in watts (regression).
    pub ls_power: Dataset,
    /// BE normalized throughput (regression).
    pub be_throughput: Dataset,
    /// BE IPC proxy (regression; the paper's §V-A metric).
    pub be_ipc: Dataset,
    /// BE partition power in watts (regression).
    pub be_power: Dataset,
}

/// Collects training data from a co-location environment.
#[derive(Debug)]
pub struct Profiler<'e> {
    env: &'e CoLocationEnv,
    config: ProfilerConfig,
}

impl<'e> Profiler<'e> {
    /// A profiler over `env` with the given controls.
    pub fn new(env: &'e CoLocationEnv, config: ProfilerConfig) -> Self {
        Self { env, config }
    }

    /// Runs the offline profiling campaign and assembles all datasets.
    ///
    /// Fails with [`SturgeonError::Setup`] when the controls cannot
    /// produce a training set (no load levels, no samples, or a node too
    /// small to leave the BE partition any resources), and with
    /// [`SturgeonError::Ml`] when the collected rows are rejected by the
    /// dataset layer.
    pub fn collect(&self) -> Result<ProfileDatasets, SturgeonError> {
        if self.config.ls_load_fractions.is_empty() {
            return Err(SturgeonError::setup(
                "profiler needs at least one LS load fraction",
            ));
        }
        if self.config.ls_samples_per_load == 0 || self.config.be_samples == 0 {
            return Err(SturgeonError::setup(
                "profiler sample counts must be nonzero",
            ));
        }
        let spec = self.env.spec().clone();
        if spec.total_cores < 2 || spec.total_llc_ways < 2 {
            return Err(SturgeonError::setup(
                "profiling needs a node with at least 2 cores and 2 LLC ways",
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let max_level = spec.max_freq_level();

        // --- LS sweeps ------------------------------------------------
        let mut ls_x = Vec::new();
        let mut ls_qos_y = Vec::new();
        let mut ls_lat_y = Vec::new();
        let mut ls_pow_y = Vec::new();
        let peak = self.env.ls().params.peak_qps;
        for &frac in &self.config.ls_load_fractions {
            let qps = frac * peak;
            for _ in 0..self.config.ls_samples_per_load {
                let cores = rng.gen_range(1..spec.total_cores);
                let level = rng.gen_range(0..=max_level);
                let ways = rng.gen_range(1..spec.total_llc_ways);
                let f_ghz = spec.freq_ghz(level);
                let cfg = ls_only_config(&spec, cores, level, ways);
                let obs = self.env.profile(&cfg, qps);
                ls_x.push(features(qps, cores, f_ghz, ways));
                let target = self.env.ls().params.qos_target_ms;
                ls_qos_y.push(if obs.p95_ms <= target { 1.0 } else { 0.0 });
                // Clamp the saturated-regime latency so regression models
                // are not dominated by off-scale outliers.
                ls_lat_y.push(obs.p95_ms.min(8.0 * target));
                ls_pow_y.push(self.env.ls_partition_power(cores, f_ghz, ways, qps));
            }
        }

        // --- BE sweeps --------------------------------------------------
        let mut be_x = Vec::new();
        let mut be_tput_y = Vec::new();
        let mut be_ipc_y = Vec::new();
        let mut be_pow_y = Vec::new();
        let input_level = self.env.be().params.input_level as f64;
        // Stratified (cores, freq-level) coverage: cycle a shuffled grid
        // of cells instead of sampling both axes uniformly at random.
        // Uniform draws leave holes at sparsely hit cells (notably the
        // low-cores/low-frequency corner), which the instance-based power
        // models then interpolate across with large relative error; the
        // strata guarantee every cell is visited ⌊n/cells⌋ or ⌈n/cells⌉
        // times while LLC ways stay randomized within each visit.
        let mut cells: Vec<(u32, usize)> = (1..spec.total_cores)
            .flat_map(|c| (0..=max_level).map(move |l| (c, l)))
            .collect();
        for i in 0..self.config.be_samples {
            if i % cells.len() == 0 {
                cells.shuffle(&mut rng);
            }
            let (cores, level) = cells[i % cells.len()];
            let ways = rng.gen_range(1..spec.total_llc_ways);
            let f_ghz = spec.freq_ghz(level);
            be_x.push(features(input_level, cores, f_ghz, ways));
            be_tput_y.push(self.env.be().normalized_throughput(cores, f_ghz, ways));
            be_ipc_y.push(self.env.be().ipc(cores, f_ghz, ways));
            be_pow_y.push(self.env.be_partition_power(cores, f_ghz));
        }

        Ok(ProfileDatasets {
            ls_qos: Dataset::new(ls_x.clone(), ls_qos_y)?,
            ls_latency: Dataset::new(ls_x.clone(), ls_lat_y)?,
            ls_power: Dataset::new(ls_x, ls_pow_y)?,
            be_throughput: Dataset::new(be_x.clone(), be_tput_y)?,
            be_ipc: Dataset::new(be_x.clone(), be_ipc_y)?,
            be_power: Dataset::new(be_x, be_pow_y)?,
        })
    }
}

/// An LS-only probing configuration: the BE partition is parked on the
/// leftover resources at minimum frequency (idle during LS profiling).
fn ls_only_config(
    spec: &sturgeon_simnode::NodeSpec,
    cores: u32,
    level: usize,
    ways: u32,
) -> PairConfig {
    PairConfig::new(
        Allocation::new(cores, level, ways),
        Allocation::new(
            (spec.total_cores - cores).max(1),
            0,
            (spec.total_llc_ways - ways).max(1),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sturgeon_simnode::{NodeSpec, PowerModel};
    use sturgeon_workloads::catalog::{be_app, ls_service, BeAppId, LsServiceId};
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

    fn small_config() -> ProfilerConfig {
        ProfilerConfig {
            ls_samples_per_load: 40,
            ls_load_fractions: vec![0.2, 0.5, 0.8],
            be_samples: 100,
            seed: 7,
        }
    }

    #[test]
    fn collects_expected_row_counts() {
        let e = env();
        let d = Profiler::new(&e, small_config()).collect().unwrap();
        assert_eq!(d.ls_qos.len(), 120);
        assert_eq!(d.ls_latency.len(), 120);
        assert_eq!(d.ls_power.len(), 120);
        assert_eq!(d.be_throughput.len(), 100);
        assert_eq!(d.be_ipc.len(), 100);
        assert_eq!(d.be_power.len(), 100);
    }

    #[test]
    fn features_have_canonical_layout() {
        let f = features(12_000.0, 8, 1.8, 10);
        assert_eq!(f, vec![12_000.0, 8.0, 1.8, 10.0]);
        assert_eq!(f.len(), FEATURE_DIM);
    }

    #[test]
    fn qos_labels_are_binary_and_both_classes_present() {
        let e = env();
        let d = Profiler::new(&e, small_config()).collect().unwrap();
        assert!(d.ls_qos.y.iter().all(|&v| v == 0.0 || v == 1.0));
        let pos = d.ls_qos.y.iter().filter(|&&v| v == 1.0).count();
        assert!(pos > 0, "no feasible configurations sampled");
        assert!(pos < d.ls_qos.len(), "no infeasible configurations sampled");
    }

    #[test]
    fn power_labels_positive() {
        let e = env();
        let d = Profiler::new(&e, small_config()).collect().unwrap();
        assert!(d.ls_power.y.iter().all(|&v| v > 0.0));
        assert!(d.be_power.y.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let e = env();
        let a = Profiler::new(&e, small_config()).collect().unwrap();
        let b = Profiler::new(&e, small_config()).collect().unwrap();
        assert_eq!(a.ls_qos.y, b.ls_qos.y);
        assert_eq!(a.be_power.y, b.be_power.y);
    }

    #[test]
    fn degenerate_controls_are_setup_errors() {
        let e = env();
        let no_loads = ProfilerConfig {
            ls_load_fractions: vec![],
            ..small_config()
        };
        let err = Profiler::new(&e, no_loads).collect().unwrap_err();
        assert!(matches!(err, SturgeonError::Setup(_)), "got {err}");

        let no_samples = ProfilerConfig {
            be_samples: 0,
            ..small_config()
        };
        let err = Profiler::new(&e, no_samples).collect().unwrap_err();
        assert!(matches!(err, SturgeonError::Setup(_)), "got {err}");
    }

    #[test]
    fn latency_labels_clamped() {
        let e = env();
        let d = Profiler::new(&e, small_config()).collect().unwrap();
        let cap = 8.0 * e.ls().params.qos_target_ms;
        assert!(d.ls_latency.y.iter().all(|&v| v <= cap + 1e-9));
    }
}
