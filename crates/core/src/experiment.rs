//! The co-location experiment harness: wires a controller to the
//! simulated node through the Table III actuator interfaces and produces
//! the paper's evaluation metrics.
//!
//! One [`ExperimentSetup`] owns a reproducible environment for a single
//! LS × BE pair; [`ExperimentSetup::runner`] starts a builder-configured
//! run against a fresh clone of that environment, so Sturgeon,
//! Sturgeon-NoB and PARTIES face the *identical* load and interference
//! sequence — the apples-to-apples comparison behind Figs. 9–11.
//!
//! ```no_run
//! # use sturgeon::prelude::*;
//! let setup = ExperimentSetup::new(
//!     ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
//!     42,
//! );
//! let controller = StaticReservationController;
//! let metrics = MetricsRegistry::new();
//! let result = setup
//!     .runner()
//!     .controller(controller)
//!     .load(LoadProfile::paper_fluctuating(600.0))
//!     .intervals(600)
//!     .faults(FaultPlan::everything(7))
//!     .metrics(&metrics)
//!     .go()
//!     .unwrap();
//! ```

use crate::controller::ResourceController;
use crate::error::SturgeonError;
use crate::obs::{MetricsRegistry, TraceEvent, TraceSink};
use crate::predictor::{PerfPowerPredictor, PredictorConfig};
use crate::profiler::{ProfileDatasets, Profiler, ProfilerConfig};
use serde::Serialize;
use sturgeon_simnode::{
    ActuationOutcome, AuditLog, FaultPlan, FaultyActuators, IntervalSample, NodeSpec, PowerModel,
    SimActuators, TelemetryFault, TelemetryLog,
};
use sturgeon_workloads::catalog::{be_app, ls_service, BeAppId, LsServiceId};
use sturgeon_workloads::env::{CoLocationEnv, Observation};
use sturgeon_workloads::interference::InterferenceParams;
use sturgeon_workloads::loadgen::LoadProfile;

/// One of the paper's 18 co-location pairs. Pairs order (LS-major, then
/// BE) and hash, so they can key maps and sorted reports directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColocationPair {
    /// The latency-sensitive service.
    pub ls: LsServiceId,
    /// The best-effort application.
    pub be: BeAppId,
}

impl ColocationPair {
    /// Convenience constructor.
    pub fn new(ls: LsServiceId, be: BeAppId) -> Self {
        Self { ls, be }
    }

    /// `"memcached+raytrace"`-style label.
    pub fn label(&self) -> String {
        format!("{}+{}", self.ls.name(), self.be.name())
    }

    /// All 18 pairs in paper order (LS-major, BE-minor), lazily.
    pub fn all() -> impl Iterator<Item = ColocationPair> {
        LsServiceId::all().into_iter().flat_map(|ls| {
            BeAppId::all()
                .into_iter()
                .map(move |be| ColocationPair::new(ls, be))
        })
    }
}

/// How the harness reacts to actuation failures. The hardened policy is
/// what a production deployment would run; the unhardened one is the
/// ablation that shows what silent actuation failures cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ActuationPolicy {
    /// Re-apply attempts after a failed actuation within the same
    /// interval (bounded: the loop must finish before the next sample).
    pub max_retries: u32,
    /// Verify actuations by reading the installed configuration back and
    /// adopting it as the believed state. Without this, a failed or
    /// partial apply silently desynchronizes the controller's belief from
    /// the node.
    pub verify: bool,
}

impl ActuationPolicy {
    /// Production policy: bounded retry plus read-back verification.
    pub fn hardened() -> Self {
        Self {
            max_retries: 3,
            verify: true,
        }
    }

    /// Fire-and-forget ablation: no retries, no read-back.
    pub fn unhardened() -> Self {
        Self {
            max_retries: 0,
            verify: false,
        }
    }
}

impl Default for ActuationPolicy {
    fn default() -> Self {
        Self::hardened()
    }
}

/// Everything fault-related that happened during one run: what the
/// injector threw at the system, how the harness's actuation policy
/// responded, and what the controller's own degradation machinery saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct FaultReport {
    /// Total injected faults of any class.
    pub faults_seen: u64,
    /// Intervals with noisy telemetry.
    pub telemetry_noise: u64,
    /// Intervals whose sample was a stale repeat.
    pub telemetry_dropouts: u64,
    /// Intervals whose actuations all failed.
    pub actuation_stuck: u64,
    /// Intervals whose first actuation attempt failed.
    pub actuation_transient: u64,
    /// Intervals whose actuations applied partially.
    pub actuation_partial: u64,
    /// Intervals with a QPS spike.
    pub qps_spikes: u64,
    /// Intervals with a power-budget cut.
    pub budget_cuts: u64,
    /// Re-apply attempts made by the actuation policy.
    pub retries: u64,
    /// Retries that got the configuration installed.
    pub retry_successes: u64,
    /// Intervals whose configuration change ultimately failed.
    pub failed_actuations: u64,
    /// Intervals the controller's believed configuration differed from
    /// the one actually installed (only the unhardened policy lets this
    /// stay nonzero).
    pub divergence_intervals: u64,
    /// Intervals the controller judged its telemetry stale.
    pub stale_intervals: u64,
    /// Times the controller dropped to its safe-mode configuration.
    pub safe_mode_entries: u64,
    /// Balancer feedback rounds that exhausted every harvest target.
    pub balancer_retry_rounds: u64,
}

/// Summary of one controller's run (one bar of Figs. 9/10).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Controller display name.
    pub controller: &'static str,
    /// Pair label.
    pub pair: String,
    /// Full per-interval telemetry (Fig. 11's raw material).
    pub log: TelemetryLog,
    /// QoS guarantee rate (Fig. 9's metric).
    pub qos_rate: f64,
    /// Mean normalized BE throughput (Fig. 10's metric).
    pub mean_be_throughput: f64,
    /// Fraction of intervals above the power budget.
    pub overload_fraction: f64,
    /// Peak power observed (W).
    pub peak_power_w: f64,
    /// The budget the run was subject to (W).
    pub budget_w: f64,
    /// Audit trail of every configuration change the controller applied.
    pub audit: AuditLog,
    /// Fault accounting (all zeros for a fault-free run).
    pub faults: FaultReport,
}

impl RunResult {
    /// §VII-B's binary judgement: did this pair "suffer from power
    /// overload" under this controller? More than 1% of intervals above
    /// budget counts as suffering.
    pub fn suffers_overload(&self) -> bool {
        self.overload_fraction > 0.01
    }

    /// Did the run keep the 95th-percentile guarantee (Fig. 9's bar above
    /// the 95% line)?
    pub fn meets_qos_guarantee(&self) -> bool {
        self.qos_rate >= 0.95
    }
}

/// A reproducible experiment context for one pair.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    pair: ColocationPair,
    env: CoLocationEnv,
    seed: u64,
}

impl ExperimentSetup {
    /// Paper-default setup: the Table II node, default power model and
    /// default interference.
    pub fn new(pair: ColocationPair, seed: u64) -> Self {
        let env = CoLocationEnv::new(
            NodeSpec::xeon_e5_2630_v4(),
            PowerModel::default(),
            ls_service(pair.ls),
            be_app(pair.be),
            InterferenceParams::default(),
            seed,
        );
        Self { pair, env, seed }
    }

    /// The pair under study.
    pub fn pair(&self) -> ColocationPair {
        self.pair
    }

    /// The power budget (W), defined as the LS service's solo peak power.
    pub fn budget_w(&self) -> f64 {
        self.env.budget_w()
    }

    /// The node spec.
    pub fn spec(&self) -> &NodeSpec {
        self.env.spec()
    }

    /// The environment (e.g. for direct probing in benches).
    pub fn env(&self) -> &CoLocationEnv {
        &self.env
    }

    /// The LS service's QoS target (ms).
    pub fn qos_target_ms(&self) -> f64 {
        self.env.ls().params.qos_target_ms
    }

    /// The LS service's peak load (QPS).
    pub fn peak_qps(&self) -> f64 {
        self.env.ls().params.peak_qps
    }

    /// Offline phase: collect profiling datasets with custom controls.
    pub fn profile(&self, config: ProfilerConfig) -> Result<ProfileDatasets, SturgeonError> {
        Profiler::new(&self.env, config).collect()
    }

    /// Offline phase: profile and train a predictor in one call.
    pub fn train_predictor(
        &self,
        profiler: ProfilerConfig,
        predictor: PredictorConfig,
    ) -> Result<PerfPowerPredictor, SturgeonError> {
        let datasets = self.profile(profiler)?;
        Ok(PerfPowerPredictor::train(
            &datasets,
            predictor,
            self.env.static_power_w(),
            self.env.be().params.input_level as f64,
            self.qos_target_ms(),
        )?)
    }

    /// Paper-default profiling + model families (§V-C picks).
    pub fn train_default_predictor(&self) -> PerfPowerPredictor {
        self.train_predictor(ProfilerConfig::default(), PredictorConfig::default())
            .expect("default profiling must produce valid datasets")
    }

    /// Starts configuring a run with the builder API.
    ///
    /// The builder replaces the positional `run(...)` / `run_with_faults(...)`
    /// calls: pick a controller, then chain whichever knobs the experiment
    /// needs and finish with [`ConfiguredRun::go`].
    pub fn runner(&self) -> RunBuilder<'_> {
        RunBuilder { setup: self }
    }

    /// The single run engine behind the builder. A zero [`FaultPlan`]
    /// (the builder default) makes the trajectory bit-identical to a
    /// fault-free run — the injected faults, not the harness, are the
    /// only source of divergence.
    ///
    /// Telemetry is logged from ground truth (the metrics judge what the
    /// node really did) while the controller sees the faulted stream; the
    /// environment always steps on the configuration *actually installed*,
    /// which under partial/failed actuations can differ from what the
    /// controller believes it requested.
    ///
    /// Tracing contract: when no sink is attached (or a disabled one, like
    /// [`crate::obs::NullSink`]) and no registry is given, no event is
    /// ever constructed — the control trajectory and [`RunResult`] are
    /// bit-identical to an unobserved run.
    // One parameter per builder knob; only `ConfiguredRun::go` calls this.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        mut controller: impl ResourceController,
        profile: LoadProfile,
        duration_s: u32,
        plan: &FaultPlan,
        policy: ActuationPolicy,
        mut sink: Option<&mut dyn TraceSink>,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<RunResult, SturgeonError> {
        fn dispatch(
            metrics: Option<&MetricsRegistry>,
            sink: &mut Option<&mut dyn TraceSink>,
            event: &TraceEvent,
        ) {
            if let Some(m) = metrics {
                m.observe_event(event);
            }
            if let Some(s) = sink.as_mut() {
                if s.enabled() {
                    s.record(event);
                }
            }
        }

        let tracing = metrics.is_some() || sink.as_ref().is_some_and(|s| s.enabled());
        if tracing {
            controller.set_tracing(true);
        }

        let mut env = self.env.clone();
        let mut actuators = FaultyActuators::new(SimActuators::new(env.spec().clone()));
        let mut injector = plan.injector();
        let mut log = TelemetryLog::new();
        let mut audit = AuditLog::new();
        let qos_target = self.qos_target_ms();
        let peak = self.peak_qps();
        let budget = self.budget_w();
        let mut report = FaultReport::default();
        let mut overloads: u64 = 0;

        // What the controller believes is installed. Under the hardened
        // policy this is re-synced from a read-back every interval; under
        // the unhardened one it is whatever the controller last requested.
        let mut believed = controller.initial_config(env.spec());
        actuators.apply(believed)?;
        // The last sample actually handed to the controller; a dropout
        // replays it verbatim (frozen collector).
        let mut last_delivered: Option<Observation> = None;

        for t in 0..duration_s {
            let fault = injector.next_interval();
            actuators.begin_interval(fault.actuation);

            let qps = profile.qps_at(t as f64, peak) * fault.qps_mult;
            let truth = env.step(&actuators.config(), qps);
            actuators.push_power(truth.power_w);
            if truth.power_w > budget * fault.budget_mult {
                overloads += 1;
            }
            log.push(IntervalSample {
                t_s: truth.t_s,
                qps: truth.qps,
                p95_ms: truth.p95_ms,
                in_target_fraction: truth.in_target_fraction.min(if truth.p95_ms <= qos_target {
                    1.0
                } else {
                    0.95
                }),
                power_w: truth.power_w,
                be_throughput_norm: truth.be_throughput_norm,
                config: actuators.config(),
            });
            if tracing {
                dispatch(
                    metrics,
                    &mut sink,
                    &TraceEvent::TelemetrySample {
                        t_s: truth.t_s,
                        qps: truth.qps,
                        p95_ms: truth.p95_ms,
                        power_w: truth.power_w,
                        be_throughput_norm: truth.be_throughput_norm,
                    },
                );
                if !fault.is_none() {
                    dispatch(
                        metrics,
                        &mut sink,
                        &TraceEvent::FaultInjected {
                            t_s: truth.t_s,
                            classes: fault.classes(),
                        },
                    );
                }
            }

            let delivered = match fault.telemetry {
                TelemetryFault::None => truth,
                TelemetryFault::Noise {
                    p95_mult,
                    power_mult,
                } => {
                    let mut o = truth;
                    o.p95_ms *= p95_mult;
                    o.power_w *= power_mult;
                    o
                }
                TelemetryFault::Dropout => match last_delivered {
                    // The measured channels repeat bit-for-bit; only the
                    // timestamp advances (the collector's clock still runs).
                    Some(prev) => Observation {
                        t_s: truth.t_s,
                        ..prev
                    },
                    None => truth,
                },
            };
            last_delivered = Some(delivered);

            let next = controller.decide(&delivered, believed);
            if tracing {
                for event in controller.take_trace() {
                    dispatch(metrics, &mut sink, &event);
                }
            }
            if next != believed {
                let mut result = actuators.apply(next);
                let mut attempts = 0;
                while result.is_err() && attempts < policy.max_retries {
                    attempts += 1;
                    report.retries += 1;
                    result = actuators.apply(next);
                    if result.is_ok() {
                        report.retry_successes += 1;
                    }
                }
                let installed = actuators.config();
                let outcome = match result {
                    Ok(()) if installed == next => ActuationOutcome::Applied,
                    Ok(()) => ActuationOutcome::Partial,
                    Err(_) => {
                        report.failed_actuations += 1;
                        ActuationOutcome::Failed
                    }
                };
                if tracing {
                    if attempts > 0 {
                        dispatch(
                            metrics,
                            &mut sink,
                            &TraceEvent::ActuationRetry {
                                t_s: truth.t_s,
                                attempts,
                                recovered: result.is_ok(),
                            },
                        );
                    }
                    dispatch(
                        metrics,
                        &mut sink,
                        &TraceEvent::ConfigApplied {
                            t_s: truth.t_s,
                            from: believed,
                            to: installed,
                            outcome,
                        },
                    );
                }
                // `installed == next` for a clean apply, so the audit's
                // `to` field always records what actually landed.
                audit.record_outcome(truth.t_s, controller.name(), believed, installed, outcome);
                believed = if policy.verify { installed } else { next };
            }
            if believed != actuators.config() {
                report.divergence_intervals += 1;
            }
        }

        let stats = injector.stats();
        report.faults_seen = stats.total();
        report.telemetry_noise = stats.telemetry_noise;
        report.telemetry_dropouts = stats.telemetry_dropouts;
        report.actuation_stuck = stats.actuation_stuck;
        report.actuation_transient = stats.actuation_transient;
        report.actuation_partial = stats.actuation_partial;
        report.qps_spikes = stats.qps_spikes;
        report.budget_cuts = stats.budget_cuts;
        let counters = controller.fault_counters();
        report.stale_intervals = counters.stale_intervals;
        report.safe_mode_entries = counters.safe_mode_entries;
        report.balancer_retry_rounds = counters.balancer_retry_rounds;

        if let Some(s) = sink.as_mut() {
            s.flush()?;
        }

        Ok(RunResult {
            controller: controller.name(),
            pair: self.pair.label(),
            qos_rate: log.qos_guarantee_rate(),
            mean_be_throughput: log.mean_be_throughput(),
            overload_fraction: if duration_s == 0 {
                0.0
            } else {
                overloads as f64 / duration_s as f64
            },
            peak_power_w: log.peak_power_w(),
            budget_w: budget,
            log,
            audit,
            faults: report,
        })
    }

    /// The RNG seed in use (printed by every experiment binary).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// First stage of the builder-style run API: names the controller.
///
/// Obtained from [`ExperimentSetup::runner`]; see the module docs for a
/// complete example.
#[derive(Debug, Clone, Copy)]
pub struct RunBuilder<'a> {
    setup: &'a ExperimentSetup,
}

impl<'a> RunBuilder<'a> {
    /// Chooses the controller under test and moves on to the run knobs.
    pub fn controller<C: ResourceController>(self, controller: C) -> ConfiguredRun<'a, C> {
        ConfiguredRun {
            setup: self.setup,
            controller,
            profile: None,
            duration_s: 600,
            plan: FaultPlan::none(0),
            policy: ActuationPolicy::hardened(),
            sink: None,
            metrics: None,
        }
    }
}

/// A fully described run, ready to [`go`](ConfiguredRun::go).
///
/// Defaults: the paper's fluctuating load over the run length, 600
/// one-second intervals, no injected faults, the hardened actuation
/// policy, and no observability (no trace sink, no metrics registry) —
/// i.e. the plain evaluation run of Figs. 9/10.
pub struct ConfiguredRun<'a, C: ResourceController> {
    setup: &'a ExperimentSetup,
    controller: C,
    profile: Option<LoadProfile>,
    duration_s: u32,
    plan: FaultPlan,
    policy: ActuationPolicy,
    sink: Option<&'a mut dyn TraceSink>,
    metrics: Option<&'a MetricsRegistry>,
}

impl<'a, C: ResourceController> ConfiguredRun<'a, C> {
    /// Drives the run with this load profile (default: the paper's
    /// 20% → 80% → 20% fluctuation across the whole run).
    pub fn load(mut self, profile: LoadProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Number of one-second control intervals to simulate (default 600).
    pub fn intervals(mut self, duration_s: u32) -> Self {
        self.duration_s = duration_s;
        self
    }

    /// Injects this deterministic fault plan (default: no faults).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// How the harness reacts to actuation failures (default: hardened).
    pub fn policy(mut self, policy: ActuationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Streams every [`TraceEvent`] of the run into `sink`.
    pub fn trace(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Aggregates the run's events into `registry` (counters, gauges and
    /// latency/power histograms; see [`MetricsRegistry::observe_event`]).
    pub fn metrics(mut self, registry: &'a MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Executes the run.
    pub fn go(self) -> Result<RunResult, SturgeonError> {
        let profile = self
            .profile
            .unwrap_or_else(|| LoadProfile::paper_fluctuating(self.duration_s as f64));
        self.setup.execute(
            self.controller,
            profile,
            self.duration_s,
            &self.plan,
            self.policy,
            self.sink,
            self.metrics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::StaticReservationController;
    use crate::controller::{ControllerParams, SturgeonController};

    fn fast_profiler() -> ProfilerConfig {
        ProfilerConfig {
            ls_samples_per_load: 90,
            ls_load_fractions: vec![0.15, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8],
            be_samples: 400,
            seed: 21,
        }
    }

    #[test]
    fn static_reservation_has_perfect_qos_and_no_throughput() {
        let setup = ExperimentSetup::new(
            ColocationPair::new(LsServiceId::Memcached, BeAppId::Blackscholes),
            1,
        );
        let r = setup
            .runner()
            .controller(StaticReservationController)
            .load(LoadProfile::Constant { fraction: 0.3 })
            .intervals(60)
            .go()
            .unwrap();
        assert!(r.qos_rate > 0.99, "QoS rate {}", r.qos_rate);
        assert!(r.mean_be_throughput < 0.05);
        assert!(!r.suffers_overload());
    }

    #[test]
    fn sturgeon_run_improves_throughput_and_keeps_qos() {
        let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
        let setup = ExperimentSetup::new(pair, 2);
        let predictor = setup
            .train_predictor(fast_profiler(), PredictorConfig::default())
            .unwrap();
        let controller = SturgeonController::new(
            predictor,
            setup.spec().clone(),
            setup.budget_w(),
            setup.qos_target_ms(),
            ControllerParams::default(),
        );
        let r = setup
            .runner()
            .controller(controller)
            .load(LoadProfile::Constant { fraction: 0.25 })
            .intervals(90)
            .go()
            .unwrap();
        assert!(r.qos_rate > 0.9, "QoS rate {}", r.qos_rate);
        assert!(
            r.mean_be_throughput > 0.3,
            "BE throughput {}",
            r.mean_be_throughput
        );
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let pair = ColocationPair::new(LsServiceId::Xapian, BeAppId::Ferret);
        let setup = ExperimentSetup::new(pair, 7);
        let run = || {
            setup
                .runner()
                .controller(StaticReservationController)
                .load(LoadProfile::paper_fluctuating(60.0))
                .intervals(60)
                .go()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.qos_rate, b.qos_rate);
        assert_eq!(a.peak_power_w, b.peak_power_w);
    }

    #[test]
    fn run_length_matches_duration() {
        let setup = ExperimentSetup::new(
            ColocationPair::new(LsServiceId::ImgDnn, BeAppId::Swaptions),
            3,
        );
        let r = setup
            .runner()
            .controller(StaticReservationController)
            .load(LoadProfile::Constant { fraction: 0.2 })
            .intervals(42)
            .go()
            .unwrap();
        assert_eq!(r.log.len(), 42);
    }

    #[test]
    fn zero_fault_plan_reproduces_fault_free_run() {
        let pair = ColocationPair::new(LsServiceId::Xapian, BeAppId::Ferret);
        let setup = ExperimentSetup::new(pair, 7);
        let clean = setup
            .runner()
            .controller(StaticReservationController)
            .load(LoadProfile::paper_fluctuating(60.0))
            .intervals(60)
            .go()
            .unwrap();
        let faulted = setup
            .runner()
            .controller(StaticReservationController)
            .load(LoadProfile::paper_fluctuating(60.0))
            .intervals(60)
            .faults(FaultPlan::none(123))
            .go()
            .unwrap();
        assert_eq!(clean.log.samples(), faulted.log.samples());
        assert_eq!(clean.qos_rate, faulted.qos_rate);
        assert_eq!(clean.overload_fraction, faulted.overload_fraction);
        assert_eq!(clean.audit.entries(), faulted.audit.entries());
        assert_eq!(faulted.faults, FaultReport::default());
    }

    #[test]
    fn actuation_faults_are_counted_and_retried() {
        let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
        let setup = ExperimentSetup::new(pair, 2);
        let predictor = setup
            .train_predictor(fast_profiler(), PredictorConfig::default())
            .unwrap();
        let controller = SturgeonController::new(
            predictor,
            setup.spec().clone(),
            setup.budget_w(),
            setup.qos_target_ms(),
            ControllerParams::hardened(),
        );
        let r = setup
            .runner()
            .controller(controller)
            .load(LoadProfile::paper_fluctuating(120.0))
            .intervals(120)
            .faults(FaultPlan::actuation_faults(5, 0.3))
            .go()
            .unwrap();
        let f = &r.faults;
        assert!(f.faults_seen > 0, "30% fault rate must fire in 120 s");
        assert_eq!(
            f.faults_seen,
            f.actuation_stuck + f.actuation_transient + f.actuation_partial
        );
        // The hardened policy re-syncs belief every interval, so the
        // controller never stays desynchronized from the node.
        assert_eq!(f.divergence_intervals, 0);
        // Every interval's installed config is valid.
        for s in r.log.samples() {
            assert!(s.config.validate(setup.spec()).is_ok());
        }
    }

    #[test]
    fn all_pairs_enumerates_18() {
        assert_eq!(ColocationPair::all().count(), 18);
    }

    #[test]
    fn labels_are_paper_style() {
        let p = ColocationPair::new(LsServiceId::Memcached, BeAppId::Blackscholes);
        assert_eq!(p.label(), "memcached+blackscholes");
    }
}
