//! Online model adaptation: learn from live telemetry what offline
//! profiling could not see.
//!
//! The paper trains every model offline on a dedicated, interference-free
//! cluster (§V-A) and delegates *all* runtime error to the balancer. That
//! split leaves information on the floor: every production interval is a
//! labelled sample `(load, C1, F1, L1) → measured p95` under the *real*
//! interference regime. This module (an extension beyond the paper)
//! closes the loop:
//!
//! * [`OnlineAdaptor`] buffers live observations in a bounded ring;
//! * every `refit_every` accepted samples it refits a latency regressor
//!   on `offline ∪ online` data, weighting the online samples by
//!   duplication;
//! * [`OnlineAdaptor::corrected_feasible`] then answers feasibility with
//!   the adapted model — configurations that look fine offline but
//!   violate under the node's actual interference get rejected up front,
//!   reducing how often the balancer must fire.
//!
//! The `adaptation_reduces_misprediction` test quantifies the effect.

use crate::predictor::{make_regressor, ModelKind};
use crate::profiler::{feature_row, features};
use sturgeon_mlkit::{Dataset, MlError, Regressor};

/// One live observation the adaptor can learn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineSample {
    /// Offered LS load during the interval (QPS).
    pub qps: f64,
    /// LS partition at the time.
    pub cores: u32,
    /// LS frequency (GHz).
    pub freq_ghz: f64,
    /// LS LLC ways.
    pub ways: u32,
    /// Measured p95 latency (ms).
    pub p95_ms: f64,
}

/// Configuration of the adaptation loop.
#[derive(Debug, Clone, Copy)]
pub struct OnlineAdaptorConfig {
    /// Ring-buffer capacity for live samples.
    pub capacity: usize,
    /// Refit after this many new samples since the last fit.
    pub refit_every: usize,
    /// Weight of an online sample relative to an offline one (applied by
    /// duplication, so it must be a small positive integer).
    pub online_weight: usize,
    /// Regressor family for the adapted latency model.
    pub model: ModelKind,
    /// Latency labels are clamped to `clamp_factor × qos_target` so
    /// saturated outliers do not dominate the fit.
    pub clamp_factor: f64,
}

impl Default for OnlineAdaptorConfig {
    fn default() -> Self {
        Self {
            capacity: 2_000,
            refit_every: 50,
            online_weight: 3,
            model: ModelKind::Knn,
            clamp_factor: 8.0,
        }
    }
}

/// The adaptation engine. Owns a copy of the offline latency dataset and
/// maintains the adapted model.
pub struct OnlineAdaptor {
    config: OnlineAdaptorConfig,
    qos_target_ms: f64,
    offline: Dataset,
    ring: Vec<OnlineSample>,
    cursor: usize,
    filled: bool,
    since_fit: usize,
    model: Option<Box<dyn Regressor + Send + Sync>>,
    refits: u64,
    /// The last sample accepted into the ring, kept to drop verbatim
    /// repeats (a frozen telemetry collector replays the previous
    /// interval, which would otherwise overweight one operating point).
    last_accepted: Option<OnlineSample>,
    rejected: u64,
}

impl std::fmt::Debug for OnlineAdaptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineAdaptor")
            .field("config", &self.config)
            .field("online_samples", &self.len())
            .field("refits", &self.refits)
            .finish()
    }
}

impl OnlineAdaptor {
    /// Builds the adaptor around the offline latency dataset
    /// (`ProfileDatasets::ls_latency`).
    pub fn new(
        offline_latency: Dataset,
        qos_target_ms: f64,
        config: OnlineAdaptorConfig,
    ) -> Result<Self, MlError> {
        if config.capacity == 0 || config.refit_every == 0 || config.online_weight == 0 {
            return Err(MlError::InvalidParameter(
                "capacity, refit_every and online_weight must be ≥ 1".into(),
            ));
        }
        Ok(Self {
            config,
            qos_target_ms,
            offline: offline_latency,
            ring: Vec::with_capacity(config.capacity),
            cursor: 0,
            filled: false,
            since_fit: 0,
            model: None,
            refits: 0,
            last_accepted: None,
            rejected: 0,
        })
    }

    /// Number of buffered online samples.
    pub fn len(&self) -> usize {
        if self.filled {
            self.config.capacity
        } else {
            self.ring.len()
        }
    }

    /// True before any sample is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of refits performed.
    pub fn refit_count(&self) -> u64 {
        self.refits
    }

    /// True once an adapted model is available.
    pub fn is_adapted(&self) -> bool {
        self.model.is_some()
    }

    /// Samples rejected as unusable (non-finite fields or verbatim
    /// repeats of the previous accepted sample).
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// Records one live observation; refits when due. Returns `true` when
    /// a refit happened. Samples with non-finite measurements, and exact
    /// repeats of the previous sample (stale-telemetry replays), are
    /// dropped rather than learned from.
    pub fn observe(&mut self, sample: OnlineSample) -> Result<bool, MlError> {
        if !(sample.qps.is_finite() && sample.freq_ghz.is_finite() && sample.p95_ms.is_finite())
            || self.last_accepted == Some(sample)
        {
            self.rejected += 1;
            return Ok(false);
        }
        self.last_accepted = Some(sample);
        if self.ring.len() < self.config.capacity {
            self.ring.push(sample);
        } else {
            self.ring[self.cursor] = sample;
            self.cursor = (self.cursor + 1) % self.config.capacity;
            self.filled = true;
        }
        self.since_fit += 1;
        if self.since_fit >= self.config.refit_every {
            self.refit()?;
            self.since_fit = 0;
            return Ok(true);
        }
        Ok(false)
    }

    /// Refits the adapted model on offline ∪ weighted-online data.
    pub fn refit(&mut self) -> Result<(), MlError> {
        if self.ring.is_empty() {
            return Ok(());
        }
        let clamp = self.config.clamp_factor * self.qos_target_ms;
        let mut x = self.offline.x.clone();
        let mut y = self.offline.y.clone();
        for s in &self.ring {
            let row = features(s.qps, s.cores, s.freq_ghz, s.ways);
            let label = s.p95_ms.min(clamp);
            for _ in 0..self.config.online_weight {
                x.push(row.clone());
                y.push(label);
            }
        }
        let data = Dataset::new(x, y)?;
        let mut model = make_regressor(self.config.model);
        model.fit(&data)?;
        self.model = Some(model);
        self.refits += 1;
        Ok(())
    }

    /// Latency prediction from the adapted model (offline-only model
    /// before the first refit).
    pub fn predicted_p95_ms(
        &mut self,
        qps: f64,
        cores: u32,
        freq_ghz: f64,
        ways: u32,
    ) -> Result<f64, MlError> {
        if self.model.is_none() {
            // Lazily fit on offline data alone.
            let mut model = make_regressor(self.config.model);
            model.fit(&self.offline)?;
            self.model = Some(model);
        }
        Ok(self
            .model
            .as_ref()
            .expect("model fitted above")
            .predict(&feature_row(qps, cores, freq_ghz, ways)))
    }

    /// Feasibility under the adapted model: does the configuration keep
    /// the *measured-regime* p95 under target?
    pub fn corrected_feasible(
        &mut self,
        qps: f64,
        cores: u32,
        freq_ghz: f64,
        ways: u32,
    ) -> Result<bool, MlError> {
        Ok(self.predicted_p95_ms(qps, cores, freq_ghz, ways)? <= self.qos_target_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ColocationPair, ExperimentSetup};
    use crate::profiler::ProfilerConfig;
    use sturgeon_workloads::catalog::{BeAppId, LsServiceId};

    fn setup() -> (ExperimentSetup, Dataset, f64) {
        let setup = ExperimentSetup::new(
            ColocationPair::new(LsServiceId::Xapian, BeAppId::Fluidanimate),
            42,
        );
        let datasets = setup
            .profile(ProfilerConfig {
                ls_samples_per_load: 100,
                ls_load_fractions: (1..=16).map(|i| i as f64 / 20.0).collect(),
                be_samples: 200,
                seed: 9,
            })
            .unwrap();
        let target = setup.qos_target_ms();
        (setup, datasets.ls_latency, target)
    }

    #[test]
    fn rejects_bad_config() {
        let (_, data, target) = setup();
        assert!(OnlineAdaptor::new(
            data,
            target,
            OnlineAdaptorConfig {
                capacity: 0,
                ..OnlineAdaptorConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn refits_on_schedule_and_ring_wraps() {
        let (_, data, target) = setup();
        let mut a = OnlineAdaptor::new(
            data,
            target,
            OnlineAdaptorConfig {
                capacity: 30,
                refit_every: 10,
                ..OnlineAdaptorConfig::default()
            },
        )
        .unwrap();
        let mut refits = 0;
        for i in 0..45 {
            let s = OnlineSample {
                qps: 1_000.0 + i as f64,
                cores: 6,
                freq_ghz: 1.8,
                ways: 8,
                p95_ms: 9.0,
            };
            if a.observe(s).unwrap() {
                refits += 1;
            }
        }
        assert_eq!(refits, 4);
        assert_eq!(a.len(), 30, "ring must cap at capacity");
        assert!(a.is_adapted());
        assert_eq!(a.refit_count(), 4);
    }

    #[test]
    fn unusable_samples_are_rejected_not_learned() {
        let (_, data, target) = setup();
        let mut a = OnlineAdaptor::new(
            data,
            target,
            OnlineAdaptorConfig {
                capacity: 30,
                refit_every: 10,
                ..OnlineAdaptorConfig::default()
            },
        )
        .unwrap();
        let good = OnlineSample {
            qps: 1_000.0,
            cores: 6,
            freq_ghz: 1.8,
            ways: 8,
            p95_ms: 9.0,
        };
        assert!(!a.observe(good).unwrap());
        // A verbatim replay (frozen telemetry) is dropped.
        assert!(!a.observe(good).unwrap());
        assert_eq!(a.len(), 1);
        assert_eq!(a.rejected_count(), 1);
        // Non-finite measurements are dropped too.
        let bad = OnlineSample {
            p95_ms: f64::NAN,
            ..good
        };
        assert!(!a.observe(bad).unwrap());
        let bad = OnlineSample {
            qps: f64::INFINITY,
            ..good
        };
        assert!(!a.observe(bad).unwrap());
        assert_eq!(a.len(), 1);
        assert_eq!(a.rejected_count(), 3);
        // A changed sample is accepted again.
        let next = OnlineSample {
            qps: 1_001.0,
            ..good
        };
        assert!(!a.observe(next).unwrap());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn adaptation_reduces_misprediction_under_persistent_interference() {
        // Ground truth with a persistent +4 ms additive disturbance: the
        // offline model undershoots; after observing live samples the
        // adapted model should track the disturbed latency much better.
        let (setup, data, target) = setup();
        let ls = setup.env().ls().clone();
        let additive = 4.0;
        let disturbed =
            |c: u32, f: f64, w: u32, q: f64| ls.latency_disturbed(c, f, w, q, 1.0, additive).p95_ms;

        let mut adaptor = OnlineAdaptor::new(
            data,
            target,
            OnlineAdaptorConfig {
                refit_every: 40,
                ..OnlineAdaptorConfig::default()
            },
        )
        .unwrap();

        // Offline-only error at a probe point.
        let probe = (6u32, 1.8f64, 8u32, 1_200.0f64);
        let truth = disturbed(probe.0, probe.1, probe.2, probe.3);
        let before = (adaptor
            .predicted_p95_ms(probe.3, probe.0, probe.1, probe.2)
            .unwrap()
            - truth)
            .abs();

        // Live phase: observe disturbed reality across nearby operating
        // points (as a running controller would).
        for i in 0..200u32 {
            let cores = 4 + (i % 5);
            let ways = 6 + (i % 5);
            let qps = 900.0 + (i % 7) as f64 * 100.0;
            let p95 = disturbed(cores, 1.8, ways, qps);
            adaptor
                .observe(OnlineSample {
                    qps,
                    cores,
                    freq_ghz: 1.8,
                    ways,
                    p95_ms: p95,
                })
                .unwrap();
        }
        let after = (adaptor
            .predicted_p95_ms(probe.3, probe.0, probe.1, probe.2)
            .unwrap()
            - truth)
            .abs();
        assert!(
            after < before,
            "adaptation must reduce error: before {before:.2} ms, after {after:.2} ms"
        );
        assert!(after < 2.0, "adapted error still {after:.2} ms");
    }

    #[test]
    fn corrected_feasibility_flips_for_disturbed_boundary_configs() {
        let (setup, data, target) = setup();
        let ls = setup.env().ls().clone();
        let additive = 5.0;
        let mut adaptor = OnlineAdaptor::new(data, target, OnlineAdaptorConfig::default()).unwrap();

        // Find a configuration the *offline model* calls feasible but the
        // disturbed ground truth violates.
        let mut boundary = None;
        'outer: for cores in 2..=14u32 {
            for level in 0..10usize {
                for ways in [4u32, 6, 8, 10] {
                    let f = 1.2 + 0.1111111111111111 * level as f64;
                    let model_clean = adaptor.corrected_feasible(1_200.0, cores, f, ways).unwrap();
                    let dirty = ls
                        .latency_disturbed(cores, f, ways, 1_200.0, 1.0, additive)
                        .p95_ms;
                    if model_clean && dirty > target {
                        boundary = Some((cores, f, ways));
                        break 'outer;
                    }
                }
            }
        }
        let (cores, f, ways) = boundary.expect("a boundary config exists");
        // Feed disturbed observations at and around that point.
        for i in 0..120u32 {
            let c = (cores.saturating_sub(1) + (i % 3)).max(1);
            let p95 = ls
                .latency_disturbed(c, f, ways, 1_200.0, 1.0, additive)
                .p95_ms;
            adaptor
                .observe(OnlineSample {
                    qps: 1_200.0,
                    cores: c,
                    freq_ghz: f,
                    ways,
                    p95_ms: p95,
                })
                .unwrap();
        }
        assert!(
            !adaptor.corrected_feasible(1_200.0, cores, f, ways).unwrap(),
            "adapted model must reject the disturbed boundary config"
        );
    }
}
