//! The top-level Sturgeon controller (paper Algorithm 1).
//!
//! Every monitoring interval (1 s) the controller computes the latency
//! slack `(target − p95) / target`. When the slack leaves the `[α, β]`
//! band the predictor-driven search finds and applies a fresh
//! configuration; the preference-aware balancer then fine-tunes it
//! against the interference the predictor cannot see.

use crate::balancer::{BalancerParams, ResourceBalancer};
use crate::cache::FrontierCache;
use crate::obs::{SearchReason, TraceEvent};
use crate::predictor::PerfPowerPredictor;
use crate::search::{ConfigSearch, SearchParams, SearchStats, SearchStrategy};
use std::sync::Arc;
use sturgeon_simnode::{Allocation, NodeSpec, PairConfig};
use sturgeon_workloads::env::Observation;

/// Robustness counters a controller can expose to the run harness
/// (zeros for controllers without a degradation path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ControllerFaultCounters {
    /// Intervals whose telemetry the controller judged stale.
    pub stale_intervals: u64,
    /// Times the controller dropped into the safe-mode configuration.
    pub safe_mode_entries: u64,
    /// Balancer rounds that re-tried already-unhelpful harvest targets.
    pub balancer_retry_rounds: u64,
}

/// A per-interval resource-management policy. All evaluated systems
/// (Sturgeon, Sturgeon-NoB, PARTIES, static baselines) implement this.
pub trait ResourceController {
    /// Display name used in reports.
    fn name(&self) -> &'static str;

    /// Robustness counters accumulated so far (default: none).
    fn fault_counters(&self) -> ControllerFaultCounters {
        ControllerFaultCounters::default()
    }

    /// Configuration applied before the first observation. Algorithm 1
    /// line 1: "initialize resource allocation" — everything to the LS
    /// service, because the initial load is unknown.
    fn initial_config(&self, spec: &NodeSpec) -> PairConfig {
        PairConfig::new(
            Allocation::new(
                spec.total_cores - 1,
                spec.max_freq_level(),
                spec.total_llc_ways - 1,
            ),
            Allocation::new(1, 0, 1),
        )
    }

    /// Consumes the interval's observation and returns the configuration
    /// to apply for the next interval.
    fn decide(&mut self, obs: &Observation, current: PairConfig) -> PairConfig;

    /// Enables or disables decision-trace buffering. Controllers without
    /// instrumentation ignore this and simply emit no events.
    fn set_tracing(&mut self, _enabled: bool) {}

    /// Drains the [`TraceEvent`]s buffered since the last call. The run
    /// harness calls this once per interval when a sink or metrics
    /// registry is attached; the default is empty (and allocation-free —
    /// an empty `Vec` does not allocate).
    fn take_trace(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// Consecutive stale (bit-identical) observations tolerated before a
/// hardened controller stops trusting the feed and enters safe mode.
pub const STALENESS_WINDOW: u32 = 3;

/// Relative load change that forces a fresh search even while the
/// balancer is still converging (Algorithm 1 line 6).
pub const RESEARCH_LOAD_DELTA: f64 = 0.04;

/// Algorithm 1 tunables.
#[derive(Debug, Clone, Copy)]
pub struct ControllerParams {
    /// Search-space limits and the power guard band.
    pub search: SearchParams,
    /// The slack band `[α, β]` (paper defaults 10% / 20%), read by both
    /// Algorithm 1 and the balancer.
    pub balancer: BalancerParams,
    /// Disable to obtain the paper's *Sturgeon-NoB* ablation (§VII-C).
    pub balancer_enabled: bool,
    /// Graceful degradation (extension; DESIGN.md "Fault model and
    /// degradation policy"): detect stale telemetry (see
    /// [`STALENESS_WINDOW`]) and fall back to safe mode. Off by default
    /// because a noiseless simulation legitimately repeats observations
    /// bit for bit, which the staleness detector would misread as a
    /// frozen sensor; the robustness harness and `tab_robustness` enable
    /// it explicitly.
    pub hardened: bool,
}

impl Default for ControllerParams {
    fn default() -> Self {
        Self {
            search: SearchParams::default(),
            balancer: BalancerParams::default(),
            balancer_enabled: true,
            hardened: false,
        }
    }
}

impl ControllerParams {
    /// Paper defaults plus the hardened degradation path.
    pub fn hardened() -> Self {
        Self {
            hardened: true,
            ..Self::default()
        }
    }
}

/// The Sturgeon runtime: predictor + search + balancer.
#[derive(Debug)]
pub struct SturgeonController {
    /// The trained models, behind an `Arc` so a homogeneous fleet can
    /// train once and hand every controller the same artifact (the
    /// predictor is interior-mutable only through thread-safe caches, so
    /// sharing never changes a prediction). A solo controller simply owns
    /// the only reference.
    predictor: Arc<PerfPowerPredictor>,
    spec: NodeSpec,
    budget_w: f64,
    qos_target_ms: f64,
    params: ControllerParams,
    balancer: ResourceBalancer,
    last_search_qps: Option<f64>,
    last_search_config: Option<PairConfig>,
    last_search_stats: Option<SearchStats>,
    /// Seed for the warm-started search: the raw best configuration of the
    /// last *successful* search and the load it was found at. Fallback
    /// configs are never used as seeds.
    warm_hint: Option<(PairConfig, f64)>,
    /// Search results that violated QoS immediately after being applied
    /// at the current load: the model was wrong about them, so they are
    /// not trusted again until the load changes.
    rejected: Vec<PairConfig>,
    searches: u64,
    /// Bit-pattern signature of the previous observation's measured
    /// channels, used to detect frozen telemetry.
    last_obs_sig: Option<(u64, u64, u64)>,
    stale_streak: u32,
    stale_intervals: u64,
    safe_mode: bool,
    safe_mode_entries: u64,
    /// Decision-trace buffering: events accumulate in `trace` only while
    /// `tracing` is on, so an untraced run never allocates here.
    tracing: bool,
    trace: Vec<TraceEvent>,
    /// Cross-interval memo for the pruned engine: exact search outcomes
    /// keyed by slab bracket, budget and predictor generation. Unused
    /// under the heuristic strategy.
    frontiers: FrontierCache,
    /// Running totals across the run's pruned searches (zero under the
    /// heuristic strategy), exposed for fleet-level metrics aggregation.
    pruned_candidates_total: u64,
    pruned_subspaces_total: u64,
    frontier_reuses_total: u64,
    /// True while the placement layer has parked the BE side (no job
    /// assigned): the controller holds the power-feasible all-LS safe
    /// configuration instead of optimizing a throughput nobody counts.
    be_idle: bool,
}

impl SturgeonController {
    /// Builds the controller for one node/workload pair, taking sole
    /// ownership of the predictor.
    pub fn new(
        predictor: PerfPowerPredictor,
        spec: NodeSpec,
        budget_w: f64,
        qos_target_ms: f64,
        params: ControllerParams,
    ) -> Self {
        Self::with_shared_predictor(Arc::new(predictor), spec, budget_w, qos_target_ms, params)
    }

    /// Builds the controller around an already-shared predictor — the
    /// fleet path, where one trained artifact serves every node of a
    /// homogeneous (pair, spec) group. All per-node control state
    /// (balancer, warm hints, frontier cache, safe-mode machinery) stays
    /// private to this controller.
    pub fn with_shared_predictor(
        predictor: Arc<PerfPowerPredictor>,
        spec: NodeSpec,
        budget_w: f64,
        qos_target_ms: f64,
        params: ControllerParams,
    ) -> Self {
        let balancer = ResourceBalancer::new(params.balancer);
        Self {
            predictor,
            spec,
            budget_w,
            qos_target_ms,
            params,
            balancer,
            last_search_qps: None,
            last_search_config: None,
            last_search_stats: None,
            warm_hint: None,
            rejected: Vec::new(),
            searches: 0,
            last_obs_sig: None,
            stale_streak: 0,
            stale_intervals: 0,
            safe_mode: false,
            safe_mode_entries: 0,
            tracing: false,
            trace: Vec::new(),
            frontiers: FrontierCache::default(),
            pruned_candidates_total: 0,
            pruned_subspaces_total: 0,
            frontier_reuses_total: 0,
            be_idle: false,
        }
    }

    /// The per-node power budget (W) currently in force.
    pub fn budget_w(&self) -> f64 {
        self.budget_w
    }

    /// Installs a new power cap — the budget-cut (or relaxation)
    /// observation delivered by hierarchical reclamation
    /// ([`crate::budget::BudgetTree`]). When the cap actually changes,
    /// every plan anchored to the old budget is invalid: warm hints,
    /// the last search result and the rejected-config memory are
    /// dropped, so the next observation forces a fresh search under the
    /// new cap. Returns whether the cap changed.
    pub fn set_budget_w(&mut self, budget_w: f64) -> bool {
        if budget_w == self.budget_w {
            return false;
        }
        self.budget_w = budget_w;
        self.warm_hint = None;
        self.last_search_qps = None;
        self.last_search_config = None;
        self.rejected.clear();
        true
    }

    /// Parks or reactivates the BE side. While parked (the placement
    /// engine moved this unit's job elsewhere), [`decide`] holds the
    /// safe configuration: all resources to the LS service at a
    /// power-feasible frequency, leaving the freed watts for the budget
    /// tree to reclaim. Reactivation forces a fresh search.
    ///
    /// Parking also resets the robustness state: a parked controller
    /// makes no model-based decisions, so a safe-mode flag or stale
    /// streak frozen at park time is dead information — without the
    /// reset, a unit parked *while* in safe mode would report safe mode
    /// forever (the idle path never re-runs the staleness check) and
    /// the placement engine could never hand it a job again.
    ///
    /// [`decide`]: ResourceController::decide
    pub fn set_be_idle(&mut self, idle: bool) {
        if idle == self.be_idle {
            return;
        }
        self.be_idle = idle;
        self.safe_mode = false;
        self.stale_streak = 0;
        self.last_obs_sig = None;
        self.warm_hint = None;
        self.last_search_qps = None;
        self.last_search_config = None;
        self.rejected.clear();
    }

    /// True when the balancer has run out of harvest moves while QoS
    /// keeps violating — the placement layer's second migration trigger
    /// besides safe mode.
    pub fn balancer_exhausted(&self) -> bool {
        self.balancer.is_exhausted()
    }

    /// The trained predictor (for inspection and the overhead benches).
    pub fn predictor(&self) -> &PerfPowerPredictor {
        &self.predictor
    }

    /// A new handle on the shared predictor artifact.
    pub fn predictor_handle(&self) -> Arc<PerfPowerPredictor> {
        Arc::clone(&self.predictor)
    }

    /// Stats from the most recent configuration search.
    pub fn last_search_stats(&self) -> Option<SearchStats> {
        self.last_search_stats
    }

    /// Number of full searches run so far.
    pub fn search_count(&self) -> u64 {
        self.searches
    }

    /// Running totals over the run's pruned-engine searches, as
    /// `(pruned_candidates, pruned_subspaces, frontier_reuses)`, the last
    /// counting searches answered from the bracket memo. All zero under
    /// the default heuristic strategy.
    pub fn pruned_totals(&self) -> (u64, u64, u64) {
        (
            self.pruned_candidates_total,
            self.pruned_subspaces_total,
            self.frontier_reuses_total,
        )
    }

    /// Always `(0, 0)`: the pruned engine no longer re-searches slice by
    /// slice (whole outcomes are memoized per slab bracket instead; see
    /// [`pruned_totals`](Self::pruned_totals)). Kept only because the
    /// `perfbench` ledger still calls it.
    pub fn incremental_totals(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The balancer (for effectiveness accounting).
    pub fn balancer(&self) -> &ResourceBalancer {
        &self.balancer
    }

    /// The parameters the controller was built with.
    pub fn params(&self) -> &ControllerParams {
        &self.params
    }

    /// Intervals whose telemetry was judged stale so far.
    pub fn stale_intervals(&self) -> u64 {
        self.stale_intervals
    }

    /// Times the controller entered safe mode.
    pub fn safe_mode_entries(&self) -> u64 {
        self.safe_mode_entries
    }

    /// True while the controller is holding the safe-mode configuration.
    pub fn in_safe_mode(&self) -> bool {
        self.safe_mode
    }

    /// When QoS cannot be met at all, fall back to everything-to-LS.
    fn fallback(&self) -> PairConfig {
        PairConfig::new(
            Allocation::new(
                self.spec.total_cores - self.params.search.min_be_cores,
                self.spec.max_freq_level(),
                self.spec.total_llc_ways - self.params.search.min_be_ways,
            ),
            Allocation::new(
                self.params.search.min_be_cores,
                0,
                self.params.search.min_be_ways,
            ),
        )
    }

    /// The node budget less the search's relative guard band
    /// ([`SearchParams::power_guard`]): the ceiling for safe-mode and
    /// balancer power checks.
    fn guarded_budget_w(&self) -> f64 {
        self.budget_w * (1.0 - self.params.search.power_guard)
    }

    /// The safe-mode configuration: everything-to-LS (the one allocation
    /// that needs no model to justify — it is Algorithm 1's own
    /// initialization), with the LS frequency lowered until the predictor
    /// deems the power draw feasible at the last known load. Entered when
    /// telemetry goes blind or actuation keeps failing; the controller
    /// cannot optimize what it cannot observe, so it protects the LS
    /// service and the power budget instead.
    pub fn safe_config(&self, qps: f64) -> PairConfig {
        let mut cfg = self.fallback();
        let guarded = self.guarded_budget_w();
        while cfg.ls.freq_level > 0 && self.predictor.total_power_w(&cfg, &self.spec, qps) > guarded
        {
            cfg.ls.freq_level -= 1;
        }
        cfg
    }

    fn run_search(&mut self, qps: f64, t_s: f64, reason: SearchReason) -> PairConfig {
        let outcome = {
            let search = ConfigSearch::new(
                &self.predictor,
                self.spec.clone(),
                self.budget_w,
                self.params.search,
            );
            match self.params.search.strategy {
                // Warm start from the previous successful search when the
                // load drifted only a little (the common diurnal case): the
                // C1 window re-scan costs a fraction of the full §V-B pass
                // and falls back to it automatically when the seed no
                // longer applies.
                SearchStrategy::Heuristic => {
                    let previous = self.warm_hint.as_ref().map(|(cfg, q)| (cfg, *q));
                    search.best_config_warm(qps, previous)
                }
                // The table-driven branch-and-bound engine: exhaustive-
                // equivalent results, memoized across intervals per slab
                // bracket and budget.
                SearchStrategy::FrontierPruned => {
                    search.with_frontiers(&self.frontiers).pruned(qps)
                }
            }
        };
        self.pruned_candidates_total += outcome.stats.pruned_candidates;
        self.pruned_subspaces_total += outcome.stats.pruned_subspaces;
        self.frontier_reuses_total += outcome.stats.frontier_reuses;
        self.warm_hint = outcome.best.map(|cfg| (cfg, qps));
        self.last_search_stats = Some(outcome.stats);
        self.last_search_qps = Some(qps);
        self.searches += 1;
        self.balancer.reset();
        let config = outcome.best.unwrap_or_else(|| self.fallback());
        self.last_search_config = Some(config);
        if self.tracing {
            self.trace.push(TraceEvent::SearchRan {
                t_s,
                qps,
                reason,
                model_calls: outcome.stats.model_calls,
                candidates: outcome.stats.candidates,
                pruned_candidates: outcome.stats.pruned_candidates,
                pruned_subspaces: outcome.stats.pruned_subspaces,
                frontier_reuses: outcome.stats.frontier_reuses,
                chosen: outcome.best,
                predicted_throughput: outcome.predicted_throughput,
                predicted_power_w: self.predictor.total_power_w(&config, &self.spec, qps),
                fallback: outcome.best.is_none(),
            });
        }
        config
    }

    /// Buffers a `BalancerStep` event for the action the balancer just
    /// took (no-op when tracing is off or the balancer held position).
    fn trace_balancer_step(&mut self, t_s: f64, next: PairConfig) {
        if self.tracing {
            if let Some(action) = self.balancer.last_action() {
                self.trace.push(TraceEvent::BalancerStep {
                    t_s,
                    action,
                    config: next,
                });
            }
        }
    }

    fn load_changed(&self, qps: f64) -> bool {
        match self.last_search_qps {
            None => true,
            Some(prev) => {
                let base = prev.max(1.0);
                ((qps - prev) / base).abs() > RESEARCH_LOAD_DELTA
            }
        }
    }
}

impl ResourceController for SturgeonController {
    fn name(&self) -> &'static str {
        if self.params.balancer_enabled {
            "Sturgeon"
        } else {
            "Sturgeon-NoB"
        }
    }

    fn fault_counters(&self) -> ControllerFaultCounters {
        ControllerFaultCounters {
            stale_intervals: self.stale_intervals,
            safe_mode_entries: self.safe_mode_entries,
            balancer_retry_rounds: self.balancer.retry_rounds(),
        }
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
        if !enabled {
            self.trace.clear();
        }
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    fn decide(&mut self, obs: &Observation, current: PairConfig) -> PairConfig {
        // A parked BE side has nothing to optimize: hold the safe
        // configuration (all-LS at a power-feasible frequency) until the
        // placement engine assigns a job again.
        if self.be_idle {
            return self.safe_config(obs.qps);
        }

        // Stale-telemetry detection: a frozen collector replays the
        // previous sample verbatim, so the measured channels repeat
        // bit-for-bit. Decisions made on frozen data are decisions made
        // blind — hold position inside the staleness window, and beyond
        // it stop trusting every model-derived configuration and drop to
        // the safe-mode allocation.
        if self.params.hardened {
            let sig = (
                obs.qps.to_bits(),
                obs.p95_ms.to_bits(),
                obs.power_w.to_bits(),
            );
            let stale = self.last_obs_sig == Some(sig);
            self.last_obs_sig = Some(sig);
            if stale {
                self.stale_streak += 1;
                self.stale_intervals += 1;
                if self.stale_streak >= STALENESS_WINDOW {
                    if !self.safe_mode {
                        self.safe_mode = true;
                        self.safe_mode_entries += 1;
                        // The configs computed before the blackout are no
                        // longer anchored to reality.
                        self.warm_hint = None;
                        self.last_search_config = None;
                        if self.tracing {
                            self.trace.push(TraceEvent::SafeModeEntered {
                                t_s: obs.t_s,
                                reason: "stale_telemetry",
                                qps: obs.qps,
                            });
                        }
                    }
                    return self.safe_config(obs.qps);
                }
                return current;
            }
            self.stale_streak = 0;
            if self.safe_mode {
                // Fresh telemetry again: leave safe mode and force a full
                // re-search at the now-observable load.
                self.safe_mode = false;
                self.last_search_qps = None;
                self.rejected.clear();
                if self.tracing {
                    self.trace.push(TraceEvent::SafeModeExited { t_s: obs.t_s });
                }
            }
        }

        let slack = (self.qos_target_ms - obs.p95_ms) / self.qos_target_ms;

        // A materially different load always warrants a fresh prediction
        // (Algorithm 1 line 6): the predictor reacts faster and more
        // accurately than incremental feedback would.
        if self.load_changed(obs.qps) {
            let reason = if self.last_search_qps.is_none() {
                SearchReason::Initial
            } else {
                SearchReason::LoadChanged
            };
            self.rejected.clear();
            return self.run_search(obs.qps, obs.t_s, reason);
        }

        if slack < self.params.balancer.alpha {
            // If this configuration came straight from the search, the
            // model was wrong about it: remember that and do not let a
            // later β-branch re-search reinstall it at this load.
            if self.last_search_config == Some(current) && !self.rejected.contains(&current) {
                self.rejected.push(current);
            }
            // Residual violation at unchanged load: error the predictor
            // cannot fix — interference, OS jitter. Hand over to
            // Algorithm 2 (unless running the Sturgeon-NoB ablation,
            // where re-running the search would just return the same,
            // already-wrong configuration).
            if self.params.balancer_enabled {
                let guarded = self.guarded_budget_w();
                if let Some(next) = self.balancer.adjust(
                    &self.predictor,
                    &self.spec,
                    guarded,
                    obs,
                    self.qos_target_ms,
                    current,
                ) {
                    self.trace_balancer_step(obs.t_s, next);
                    return next;
                }
                // The balancer has run out of moves while QoS keeps
                // violating. Under the hardened policy that is the second
                // safe-mode trigger: give up on fine-tuning and fall back
                // to the known-feasible allocation.
                if self.params.hardened && self.balancer.is_exhausted() {
                    if !self.safe_mode {
                        self.safe_mode = true;
                        self.safe_mode_entries += 1;
                        if self.tracing {
                            self.trace.push(TraceEvent::SafeModeEntered {
                                t_s: obs.t_s,
                                reason: "balancer_exhausted",
                                qps: obs.qps,
                            });
                        }
                    }
                    return self.safe_config(obs.qps);
                }
            }
            return current;
        }

        if slack > self.params.balancer.beta {
            // Plenty of slack: release resources back to the BE
            // application (Algorithm 1's β branch). If the current
            // configuration already is the search optimum there is
            // nothing to release — tail latency simply sits far below
            // target at the throughput-optimal allocation.
            if self.params.balancer_enabled {
                let guarded = self.guarded_budget_w();
                if let Some(next) = self.balancer.adjust(
                    &self.predictor,
                    &self.spec,
                    guarded,
                    obs,
                    self.qos_target_ms,
                    current,
                ) {
                    self.trace_balancer_step(obs.t_s, next);
                    return next;
                }
            }
            if self.last_search_config != Some(current) {
                let fresh = self.run_search(obs.qps, obs.t_s, SearchReason::SlackRelease);
                if self.rejected.contains(&fresh) {
                    // The search keeps proposing a configuration observed
                    // to violate; stick with the balancer's fix.
                    self.last_search_config = Some(current);
                    return current;
                }
                return fresh;
            }
            return current;
        }

        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfig;
    use crate::profiler::{Profiler, ProfilerConfig};
    use sturgeon_simnode::PowerModel;
    use sturgeon_workloads::catalog::{be_app, ls_service, BeAppId, LsServiceId};
    use sturgeon_workloads::env::CoLocationEnv;
    use sturgeon_workloads::interference::InterferenceParams;

    fn make_env(seed: u64) -> CoLocationEnv {
        CoLocationEnv::new(
            NodeSpec::xeon_e5_2630_v4(),
            PowerModel::default(),
            ls_service(LsServiceId::Memcached),
            be_app(BeAppId::Raytrace),
            InterferenceParams::default(),
            seed,
        )
    }

    fn make_quiet_env() -> CoLocationEnv {
        CoLocationEnv::new(
            NodeSpec::xeon_e5_2630_v4(),
            PowerModel::default(),
            ls_service(LsServiceId::Memcached),
            be_app(BeAppId::Raytrace),
            InterferenceParams::none(),
            0,
        )
    }

    fn make_controller(env: &CoLocationEnv, params: ControllerParams) -> SturgeonController {
        let d = Profiler::new(
            env,
            ProfilerConfig {
                ls_samples_per_load: 100,
                ls_load_fractions: vec![0.15, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8],
                be_samples: 400,
                seed: 13,
            },
        )
        .collect()
        .unwrap();
        let p = PerfPowerPredictor::train(
            &d,
            PredictorConfig::default(),
            env.static_power_w(),
            env.be().params.input_level as f64,
            env.ls().params.qos_target_ms,
        )
        .unwrap();
        SturgeonController::new(
            p,
            env.spec().clone(),
            env.budget_w(),
            env.ls().params.qos_target_ms,
            params,
        )
    }

    #[test]
    fn initial_config_gives_everything_to_ls() {
        let env = make_env(1);
        let c = make_controller(&env, ControllerParams::default());
        let cfg = c.initial_config(env.spec());
        assert_eq!(cfg.ls.cores, 19);
        assert_eq!(cfg.ls.llc_ways, 19);
        assert_eq!(cfg.ls.freq_level, env.spec().max_freq_level());
        assert!(cfg.validate(env.spec()).is_ok());
    }

    #[test]
    fn first_observation_triggers_a_search() {
        let mut env = make_env(2);
        let mut c = make_controller(&env, ControllerParams::default());
        let initial = c.initial_config(env.spec());
        let obs = env.step(&initial, 12_000.0);
        let next = c.decide(&obs, initial);
        assert_eq!(c.search_count(), 1);
        // The over-provisioned initial allocation must shrink.
        assert!(next.ls.cores < initial.ls.cores);
        assert!(next.validate(env.spec()).is_ok());
    }

    #[test]
    fn stable_load_in_band_keeps_config() {
        let mut env = make_quiet_env();
        let mut c = make_controller(&env, ControllerParams::default());
        let mut cfg = c.initial_config(env.spec());
        // Let the controller settle on a constant load.
        for _ in 0..10 {
            let obs = env.step(&cfg, 12_000.0);
            cfg = c.decide(&obs, cfg);
        }
        let searches = c.search_count();
        // With unchanged load there is no reason for fresh searches.
        for _ in 0..10 {
            let obs = env.step(&cfg, 12_000.0);
            cfg = c.decide(&obs, cfg);
        }
        assert_eq!(c.search_count(), searches);
    }

    #[test]
    fn load_change_forces_research() {
        let mut env = make_env(4);
        let mut c = make_controller(&env, ControllerParams::default());
        let mut cfg = c.initial_config(env.spec());
        let obs = env.step(&cfg, 12_000.0);
        cfg = c.decide(&obs, cfg);
        let searches = c.search_count();
        let obs = env.step(&cfg, 30_000.0);
        let _ = c.decide(&obs, cfg);
        assert_eq!(c.search_count(), searches + 1);
    }

    #[test]
    fn nob_never_invokes_balancer() {
        let mut env = make_env(5);
        let mut c = make_controller(
            &env,
            ControllerParams {
                balancer_enabled: false,
                ..ControllerParams::default()
            },
        );
        assert_eq!(c.name(), "Sturgeon-NoB");
        let mut cfg = c.initial_config(env.spec());
        for _ in 0..30 {
            let obs = env.step(&cfg, 12_000.0);
            cfg = c.decide(&obs, cfg);
        }
        assert_eq!(c.balancer().harvest_count(), 0);
    }

    #[test]
    fn decisions_always_valid() {
        let mut env = make_env(6);
        let mut c = make_controller(&env, ControllerParams::default());
        let mut cfg = c.initial_config(env.spec());
        for i in 0..60 {
            let frac = 0.2 + 0.01 * (i as f64 % 40.0);
            let obs = env.step(&cfg, frac * 60_000.0);
            cfg = c.decide(&obs, cfg);
            assert!(cfg.validate(env.spec()).is_ok(), "interval {i}: {cfg}");
        }
    }

    #[test]
    fn impossible_qos_falls_back_to_all_ls() {
        let env = make_env(7);
        let mut c = make_controller(&env, ControllerParams::default());
        // Far beyond peak: no configuration can serve it.
        let obs = Observation {
            t_s: 1.0,
            qps: 5.0 * 60_000.0,
            p95_ms: 80.0,
            in_target_fraction: 0.1,
            ls_utilization: 3.0,
            power_w: 70.0,
            be_throughput_norm: 0.1,
            be_ipc: 0.1,
            interference: 1.0,
        };
        let cfg = c.decide(&obs, c.initial_config(env.spec()));
        assert_eq!(cfg.ls.cores, 19);
        assert_eq!(cfg.ls.freq_level, env.spec().max_freq_level());
    }

    /// A hand-built observation for stale-telemetry tests (bit-identical
    /// replays stand in for a frozen collector).
    fn obs_at(t_s: f64, qps: f64, p95_ms: f64, power_w: f64) -> Observation {
        Observation {
            t_s,
            qps,
            p95_ms,
            in_target_fraction: 1.0,
            ls_utilization: 0.5,
            power_w,
            be_throughput_norm: 0.5,
            be_ipc: 1.0,
            interference: 0.1,
        }
    }

    #[test]
    fn stale_telemetry_holds_config_within_window() {
        let env = make_env(8);
        let mut c = make_controller(&env, ControllerParams::hardened());
        let mut cfg = c.initial_config(env.spec());
        // Fresh observation first (triggers the initial search).
        cfg = c.decide(&obs_at(1.0, 12_000.0, 4.0, 80.0), cfg);
        // Two bit-identical replays: inside the window (3), config held.
        for t in 2..4 {
            let next = c.decide(&obs_at(t as f64, 12_000.0, 4.0, 80.0), cfg);
            assert_eq!(next, cfg, "config must hold inside staleness window");
        }
        assert_eq!(c.stale_intervals(), 2);
        assert!(!c.in_safe_mode());
        assert_eq!(c.safe_mode_entries(), 0);
    }

    #[test]
    fn prolonged_staleness_enters_safe_mode_then_recovers() {
        let env = make_env(9);
        let mut c = make_controller(&env, ControllerParams::hardened());
        let mut cfg = c.initial_config(env.spec());
        cfg = c.decide(&obs_at(1.0, 12_000.0, 4.0, 80.0), cfg);
        // Replay the same observation past the staleness window.
        for t in 2..8 {
            cfg = c.decide(&obs_at(t as f64, 12_000.0, 4.0, 80.0), cfg);
        }
        assert!(c.in_safe_mode());
        assert_eq!(c.safe_mode_entries(), 1);
        // Safe mode keeps every resource with the LS service.
        assert_eq!(cfg.ls.cores, env.spec().total_cores - 1);
        // Fresh telemetry exits safe mode and forces a re-search.
        let searches = c.search_count();
        let _ = c.decide(&obs_at(8.0, 12_100.0, 4.1, 81.0), cfg);
        assert!(!c.in_safe_mode());
        assert_eq!(c.search_count(), searches + 1);
        // Re-entry later counts as a second entry.
        for t in 9..14 {
            cfg = c.decide(&obs_at(t as f64, 12_100.0, 4.1, 81.0), cfg);
        }
        assert!(c.in_safe_mode());
        assert_eq!(c.safe_mode_entries(), 2);
    }

    #[test]
    fn safe_config_is_power_feasible() {
        let env = make_env(10);
        let c = make_controller(&env, ControllerParams::hardened());
        let guarded = env.budget_w() * (1.0 - c.params().search.power_guard);
        for qps in [1_000.0, 12_000.0, 30_000.0, 55_000.0] {
            let cfg = c.safe_config(qps);
            assert!(cfg.validate(env.spec()).is_ok());
            let p = c.predictor().total_power_w(&cfg, env.spec(), qps);
            assert!(
                p <= guarded + 1e-9 || cfg.ls.freq_level == 0,
                "qps {qps}: predicted {p:.1} W exceeds guarded budget {guarded:.1} W"
            );
        }
    }

    #[test]
    fn default_params_ignore_repeated_observations() {
        // Quiet environments legitimately produce bit-identical samples;
        // the robustness layer must stay out of the way unless enabled.
        let mut env = make_quiet_env();
        let mut c = make_controller(&env, ControllerParams::default());
        let mut cfg = c.initial_config(env.spec());
        for t in 0..10 {
            let mut obs = env.step(&cfg, 12_000.0);
            obs.t_s = t as f64;
            cfg = c.decide(&obs, cfg);
        }
        assert_eq!(c.stale_intervals(), 0);
        assert_eq!(c.safe_mode_entries(), 0);
        assert!(!c.in_safe_mode());
    }

    #[test]
    fn fault_counters_surface_through_trait() {
        let env = make_env(11);
        let mut c = make_controller(&env, ControllerParams::hardened());
        let mut cfg = c.initial_config(env.spec());
        for t in 0..8 {
            cfg = c.decide(&obs_at(t as f64, 12_000.0, 4.0, 80.0), cfg);
        }
        let counters = c.fault_counters();
        assert!(counters.stale_intervals >= 3);
        assert_eq!(counters.safe_mode_entries, 1);
    }
}
