//! The preference-aware resource balancer (paper Algorithm 2, §VI).
//!
//! The predictor cannot foresee contention on unmanaged resources or OS
//! interference, so a configuration it deems feasible can still violate
//! QoS. The balancer compensates with *binary harvest*: take half of the
//! BE application's holding of whichever resource type costs the least
//! throughput (cores, cache ways, or "power" — i.e. shifting frequency
//! headroom from BE to LS, Fig. 8), watch the next interval, revert half
//! if the harvest overshot, and halve the granularity each round until
//! the tail latency settles into the slack band.

use crate::predictor::PerfPowerPredictor;
use sturgeon_simnode::{NodeSpec, PairConfig};
use sturgeon_workloads::env::Observation;

/// Slack band shared with the top-level controller (paper defaults:
/// α = 10%, β = 20%).
#[derive(Debug, Clone, Copy)]
pub struct BalancerParams {
    /// Lower slack bound: below this the LS service needs help.
    pub alpha: f64,
    /// Upper slack bound: above this resources were over-harvested.
    pub beta: f64,
}

impl Default for BalancerParams {
    fn default() -> Self {
        Self {
            alpha: 0.10,
            beta: 0.20,
        }
    }
}

/// The three harvest targets of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum HarvestTarget {
    /// Move cores from the BE partition to the LS partition.
    Cores,
    /// Move LLC ways from the BE partition to the LS partition.
    Cache,
    /// Move power: lower the BE frequency, raise the LS frequency.
    Power,
}

impl HarvestTarget {
    /// All three targets.
    pub fn all() -> [HarvestTarget; 3] {
        [
            HarvestTarget::Cores,
            HarvestTarget::Cache,
            HarvestTarget::Power,
        ]
    }
}

/// One past harvest, kept so an overshoot can be partially reverted.
#[derive(Debug, Clone, Copy)]
struct PendingHarvest {
    target: HarvestTarget,
    /// How many units (cores / ways / levels) were moved.
    amount: u32,
}

/// The externally visible record of one balancer action, consumed by the
/// decision trace (`TraceEvent::BalancerStep`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum BalancerAction {
    /// Moved `amount` units of `target` from the BE partition to the LS
    /// partition (Algorithm 2's binary harvest).
    Harvest {
        /// The resource type that moved.
        target: HarvestTarget,
        /// Units (cores / ways / frequency levels) moved.
        amount: u32,
    },
    /// Returned `amount` units of `target` to the BE partition after an
    /// overshoot (Algorithm 2 lines 11–14).
    Revert {
        /// The resource type that moved back.
        target: HarvestTarget,
        /// Units moved back.
        amount: u32,
    },
}

/// Algorithm 2 as a per-interval state machine. The controller calls
/// [`ResourceBalancer::adjust`] once per monitoring interval; the balancer
/// returns a new configuration when it decides to act.
#[derive(Debug, Clone)]
pub struct ResourceBalancer {
    params: BalancerParams,
    /// Current harvest granularity as a fraction of the BE holding
    /// (Algorithm 2 line 2 initializes it to 0.5).
    granularity: f64,
    pending: Option<PendingHarvest>,
    /// Targets whose last harvest failed to restore the slack; skipped
    /// until every target has been tried (feedback-driven retry).
    unhelpful: Vec<HarvestTarget>,
    harvests: u64,
    reverts: u64,
    /// Full feedback rounds burned without settling: incremented each time
    /// every harvest target has been tried once and found unhelpful.
    retry_rounds: u64,
    /// Consecutive violating intervals in which no harvest was possible
    /// (every candidate move was illegal or over budget). Cleared by any
    /// successful action or by [`ResourceBalancer::reset`].
    failed_adjusts: u32,
    /// What the most recent [`ResourceBalancer::adjust`] call did, for
    /// the decision trace. `None` when it held position.
    last_action: Option<BalancerAction>,
}

/// Consecutive no-move violations after which the balancer declares
/// itself out of options (see [`ResourceBalancer::is_exhausted`]).
const EXHAUSTION_THRESHOLD: u32 = 3;

impl ResourceBalancer {
    /// A balancer with the given slack band.
    pub fn new(params: BalancerParams) -> Self {
        Self {
            params,
            granularity: 0.5,
            pending: None,
            unhelpful: Vec::new(),
            harvests: 0,
            reverts: 0,
            retry_rounds: 0,
            failed_adjusts: 0,
            last_action: None,
        }
    }

    /// Forgets history and restores the initial granularity; called by
    /// the controller whenever the predictor installs a fresh
    /// configuration. The lifetime effectiveness counters
    /// ([`harvest_count`](Self::harvest_count),
    /// [`revert_count`](Self::revert_count),
    /// [`retry_rounds`](Self::retry_rounds)) survive resets — they
    /// account for the whole run, not one configuration epoch — while the
    /// per-epoch exhaustion state clears with the rest of the history.
    pub fn reset(&mut self) {
        self.granularity = 0.5;
        self.pending = None;
        self.unhelpful.clear();
        self.failed_adjusts = 0;
        self.last_action = None;
    }

    /// What the most recent [`ResourceBalancer::adjust`] call did;
    /// `None` when it held position (or never ran).
    pub fn last_action(&self) -> Option<BalancerAction> {
        self.last_action
    }

    /// Total harvest actions taken (for the effectiveness analysis).
    pub fn harvest_count(&self) -> u64 {
        self.harvests
    }

    /// Total (partial) reverts taken.
    pub fn revert_count(&self) -> u64 {
        self.reverts
    }

    /// Full retry rounds in which every harvest target was tried and
    /// found unhelpful before starting over.
    pub fn retry_rounds(&self) -> u64 {
        self.retry_rounds
    }

    /// True when the balancer has faced several consecutive violating
    /// intervals without a single legal, budget-respecting move to make —
    /// the controller's cue to stop fine-tuning and fall back.
    pub fn is_exhausted(&self) -> bool {
        self.failed_adjusts >= EXHAUSTION_THRESHOLD
    }

    /// Applies one harvest of `amount` units of `target`, if legal.
    fn harvested(
        spec: &NodeSpec,
        cfg: &PairConfig,
        target: HarvestTarget,
        amount: u32,
    ) -> Option<PairConfig> {
        if amount == 0 {
            return None;
        }
        let mut next = *cfg;
        match target {
            HarvestTarget::Cores => {
                if cfg.be.cores <= amount {
                    return None; // BE partition must stay non-empty
                }
                next.be.cores -= amount;
                next.ls.cores += amount;
            }
            HarvestTarget::Cache => {
                if cfg.be.llc_ways <= amount {
                    return None;
                }
                next.be.llc_ways -= amount;
                next.ls.llc_ways += amount;
            }
            HarvestTarget::Power => {
                let amount = amount as usize;
                if cfg.be.freq_level < amount {
                    return None;
                }
                next.be.freq_level -= amount;
                next.ls.freq_level = (cfg.ls.freq_level + amount).min(spec.max_freq_level());
                if next == *cfg {
                    return None; // nothing actually moved
                }
            }
        }
        next.validate(spec).ok()?;
        Some(next)
    }

    /// The inverse move, used for partial reverts.
    fn reverted(
        spec: &NodeSpec,
        cfg: &PairConfig,
        target: HarvestTarget,
        amount: u32,
    ) -> Option<PairConfig> {
        if amount == 0 {
            return None;
        }
        let mut next = *cfg;
        match target {
            HarvestTarget::Cores => {
                if cfg.ls.cores <= amount {
                    return None;
                }
                next.ls.cores -= amount;
                next.be.cores += amount;
            }
            HarvestTarget::Cache => {
                if cfg.ls.llc_ways <= amount {
                    return None;
                }
                next.ls.llc_ways -= amount;
                next.be.llc_ways += amount;
            }
            HarvestTarget::Power => {
                let amount = amount as usize;
                next.be.freq_level = (cfg.be.freq_level + amount).min(spec.max_freq_level());
                next.ls.freq_level = cfg.ls.freq_level.saturating_sub(amount);
                if next == *cfg {
                    return None;
                }
            }
        }
        next.validate(spec).ok()?;
        Some(next)
    }

    /// Units to harvest for a target at the current granularity
    /// (Algorithm 2: half of what the BE application owns, then halving).
    fn amount_for(&self, cfg: &PairConfig, target: HarvestTarget) -> u32 {
        let holding = match target {
            HarvestTarget::Cores => cfg.be.cores,
            HarvestTarget::Cache => cfg.be.llc_ways,
            HarvestTarget::Power => cfg.be.freq_level as u32,
        };
        ((holding as f64 * self.granularity).round() as u32).max(1)
    }

    /// One Algorithm 2 step. Returns `Some(new_config)` when the balancer
    /// acts, `None` when the slack is healthy (in `[α, β]`) and nothing
    /// needs fine-tuning. Every move must keep the predicted power within
    /// `guarded_budget_w` — the controller passes the budget less the
    /// search's guard band, so both agree on the headroom.
    pub fn adjust(
        &mut self,
        predictor: &PerfPowerPredictor,
        spec: &NodeSpec,
        guarded_budget_w: f64,
        obs: &Observation,
        qos_target_ms: f64,
        current: PairConfig,
    ) -> Option<PairConfig> {
        let slack = (qos_target_ms - obs.p95_ms) / qos_target_ms;
        self.last_action = None;

        if slack >= self.params.alpha && slack <= self.params.beta {
            // Settled: forget pending state, keep granularity for the next
            // disturbance within this configuration epoch.
            self.pending = None;
            self.unhelpful.clear();
            self.failed_adjusts = 0;
            return None;
        }

        if slack > self.params.beta {
            // Excessive harvest (Algorithm 2 lines 11–14): give half of
            // the last harvest back, provided power stays within budget.
            let pending = self.pending.take()?;
            let back = (pending.amount / 2).max(1);
            let next = Self::reverted(spec, &current, pending.target, back)?;
            // Power check at a drifted load against the guarded budget,
            // mirroring the search's headroom: the load can keep rising
            // before the next decision.
            if predictor.total_power_w(&next, spec, obs.qps * 1.08) > guarded_budget_w {
                return None;
            }
            self.granularity = (self.granularity * 0.5).max(0.05);
            self.reverts += 1;
            self.failed_adjusts = 0;
            self.last_action = Some(BalancerAction::Revert {
                target: pending.target,
                amount: back,
            });
            return Some(next);
        }

        // slack < α: the previous harvest (if any) failed to restore the
        // slack — feedback says that resource type is not what the LS
        // service is starving for, so deprioritize it.
        if let Some(p) = self.pending.take() {
            if !self.unhelpful.contains(&p.target) {
                self.unhelpful.push(p.target);
            }
            if self.unhelpful.len() >= HarvestTarget::all().len() {
                // Everything tried once: start a fresh round.
                self.unhelpful.clear();
                self.retry_rounds += 1;
            }
        }

        // Harvest the not-yet-unhelpful target with the least predicted
        // throughput loss that does not overload the budget
        // (Algorithm 2 lines 4–9).
        let mut best: Option<(PairConfig, f64, HarvestTarget, u32)> = None;
        for target in HarvestTarget::all() {
            if self.unhelpful.contains(&target) {
                continue;
            }
            let amount = self.amount_for(&current, target);
            let Some(next) = Self::harvested(spec, &current, target, amount) else {
                continue;
            };
            if predictor.total_power_w(&next, spec, obs.qps * 1.08) > guarded_budget_w {
                continue;
            }
            let throughput = predictor.be_throughput(
                next.be.cores,
                spec.freq_ghz(next.be.freq_level),
                next.be.llc_ways,
            );
            if best.as_ref().is_none_or(|(_, t, _, _)| throughput > *t) {
                best = Some((next, throughput, target, amount));
            }
        }
        let Some((next, _, target, amount)) = best else {
            // Violation with no legal move: remember the dead end so the
            // controller can tell a momentary corner from true exhaustion.
            self.failed_adjusts = self.failed_adjusts.saturating_add(1);
            return None;
        };
        self.pending = Some(PendingHarvest { target, amount });
        self.granularity = (self.granularity * 0.5).max(0.05);
        self.harvests += 1;
        self.failed_adjusts = 0;
        self.last_action = Some(BalancerAction::Harvest { target, amount });
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{PerfPowerPredictor, PredictorConfig};
    use crate::profiler::{Profiler, ProfilerConfig};
    use sturgeon_simnode::{Allocation, NodeSpec, PowerModel};
    use sturgeon_workloads::catalog::{be_app, ls_service, BeAppId, LsServiceId};
    use sturgeon_workloads::env::CoLocationEnv;
    use sturgeon_workloads::interference::InterferenceParams;

    fn setup() -> (CoLocationEnv, PerfPowerPredictor) {
        let env = CoLocationEnv::new(
            NodeSpec::xeon_e5_2630_v4(),
            PowerModel::default(),
            ls_service(LsServiceId::Memcached),
            be_app(BeAppId::Raytrace),
            InterferenceParams::none(),
            0,
        );
        let d = Profiler::new(
            &env,
            ProfilerConfig {
                ls_samples_per_load: 80,
                ls_load_fractions: vec![0.2, 0.4, 0.6, 0.8],
                be_samples: 300,
                seed: 9,
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
        (env, p)
    }

    fn obs_with(p95_ms: f64, qps: f64) -> Observation {
        Observation {
            t_s: 1.0,
            qps,
            p95_ms,
            in_target_fraction: 0.9,
            ls_utilization: 0.8,
            power_w: 70.0,
            be_throughput_norm: 0.5,
            be_ipc: 0.5,
            interference: 1.0,
        }
    }

    fn cfg(c1: u32, f1: usize, l1: u32) -> PairConfig {
        PairConfig::new(
            Allocation::new(c1, f1, l1),
            Allocation::new(20 - c1, 9, 20 - l1),
        )
    }

    #[test]
    fn healthy_slack_means_no_action() {
        let (env, p) = setup();
        let mut b = ResourceBalancer::new(BalancerParams::default());
        // target 10ms, p95 8.7ms → slack 13%, inside [10%, 20%].
        let out = b.adjust(
            &p,
            env.spec(),
            env.budget_w(),
            &obs_with(8.7, 12_000.0),
            10.0,
            cfg(6, 7, 8),
        );
        assert!(out.is_none());
    }

    #[test]
    fn violation_triggers_harvest_towards_ls() {
        let (env, p) = setup();
        let mut b = ResourceBalancer::new(BalancerParams::default());
        let before = cfg(6, 7, 8);
        let out = b
            .adjust(
                &p,
                env.spec(),
                env.budget_w(),
                &obs_with(11.5, 12_000.0),
                10.0,
                before,
            )
            .expect("balancer must act on a violation");
        // The LS partition must have gained *something*.
        let gained_cores = out.ls.cores > before.ls.cores;
        let gained_ways = out.ls.llc_ways > before.ls.llc_ways;
        let gained_freq = out.ls.freq_level > before.ls.freq_level;
        assert!(gained_cores || gained_ways || gained_freq);
        assert!(out.validate(env.spec()).is_ok());
        assert_eq!(b.harvest_count(), 1);
    }

    #[test]
    fn harvest_respects_power_budget() {
        let (env, p) = setup();
        let mut b = ResourceBalancer::new(BalancerParams::default());
        let before = cfg(6, 7, 8);
        let obs = obs_with(11.5, 12_000.0);
        if let Some(out) = b.adjust(&p, env.spec(), env.budget_w(), &obs, 10.0, before) {
            assert!(
                p.total_power_w(&out, env.spec(), obs.qps) <= env.budget_w(),
                "balancer produced an overloaded config"
            );
        }
    }

    #[test]
    fn excessive_harvest_is_partially_reverted() {
        let (env, p) = setup();
        let mut b = ResourceBalancer::new(BalancerParams::default());
        let before = cfg(6, 7, 8);
        // First, a violation provokes a harvest.
        let harvested = b
            .adjust(
                &p,
                env.spec(),
                env.budget_w(),
                &obs_with(11.5, 12_000.0),
                10.0,
                before,
            )
            .unwrap();
        // Then the latency collapses (slack ≫ β) → partial revert.
        let reverted = b.adjust(
            &p,
            env.spec(),
            env.budget_w(),
            &obs_with(2.0, 12_000.0),
            10.0,
            harvested,
        );
        if let Some(r) = reverted {
            assert!(r.validate(env.spec()).is_ok());
            // The BE partition got something back.
            let be_gained = r.be.cores > harvested.be.cores
                || r.be.llc_ways > harvested.be.llc_ways
                || r.be.freq_level > harvested.be.freq_level;
            assert!(be_gained);
            assert_eq!(b.revert_count(), 1);
        }
    }

    #[test]
    fn granularity_halves_per_action() {
        let (env, p) = setup();
        let mut b = ResourceBalancer::new(BalancerParams::default());
        let c0 = cfg(4, 5, 6);
        let first = b
            .adjust(
                &p,
                env.spec(),
                env.budget_w(),
                &obs_with(12.0, 12_000.0),
                10.0,
                c0,
            )
            .unwrap();
        let second = b
            .adjust(
                &p,
                env.spec(),
                env.budget_w(),
                &obs_with(12.0, 12_000.0),
                10.0,
                first,
            )
            .unwrap();
        // The second harvest moves at most as many units as the first
        // (halved granularity on a smaller holding).
        let first_moved = (first.ls.cores - c0.ls.cores)
            + (first.ls.llc_ways - c0.ls.llc_ways)
            + (first.ls.freq_level - c0.ls.freq_level) as u32;
        let second_moved = (second.ls.cores - first.ls.cores)
            + (second.ls.llc_ways - first.ls.llc_ways)
            + (second.ls.freq_level.saturating_sub(first.ls.freq_level)) as u32;
        assert!(
            second_moved <= first_moved,
            "{second_moved} > {first_moved}"
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let (env, p) = setup();
        let mut b = ResourceBalancer::new(BalancerParams::default());
        let _ = b.adjust(
            &p,
            env.spec(),
            env.budget_w(),
            &obs_with(12.0, 12_000.0),
            10.0,
            cfg(4, 5, 6),
        );
        b.reset();
        assert!((b.granularity - 0.5).abs() < 1e-12);
        assert!(b.pending.is_none());
    }

    #[test]
    fn reset_preserves_lifetime_counters_and_clears_epoch_state() {
        let (env, p) = setup();
        let mut b = ResourceBalancer::new(BalancerParams::default());
        // A harvest then a revert, so both lifetime counters are nonzero.
        let harvested = b
            .adjust(
                &p,
                env.spec(),
                env.budget_w(),
                &obs_with(12.0, 12_000.0),
                10.0,
                cfg(6, 7, 8),
            )
            .unwrap();
        let _ = b.adjust(
            &p,
            env.spec(),
            env.budget_w(),
            &obs_with(2.0, 12_000.0),
            10.0,
            harvested,
        );
        // Manufacture an exhausted epoch: a starved BE partition leaves no
        // legal harvest, so violating intervals pile up failed adjusts.
        let tiny = PairConfig::new(Allocation::new(19, 9, 19), Allocation::new(1, 0, 1));
        for _ in 0..3 {
            let out = b.adjust(
                &p,
                env.spec(),
                env.budget_w(),
                &obs_with(12.0, 48_000.0),
                10.0,
                tiny,
            );
            assert!(out.is_none());
        }
        assert!(b.is_exhausted());
        let harvests = b.harvest_count();
        let reverts = b.revert_count();
        let rounds = b.retry_rounds();
        assert!(harvests >= 1);

        b.reset();
        // Lifetime effectiveness counters survive the reset…
        assert_eq!(b.harvest_count(), harvests);
        assert_eq!(b.revert_count(), reverts);
        assert_eq!(b.retry_rounds(), rounds);
        // …while the per-epoch state (incl. exhaustion) clears.
        assert!(!b.is_exhausted());
        assert!((b.granularity - 0.5).abs() < 1e-12);
        assert!(b.pending.is_none());
        assert!(b.unhelpful.is_empty());
    }

    #[test]
    fn exhaustion_requires_consecutive_failures() {
        let (env, p) = setup();
        let mut b = ResourceBalancer::new(BalancerParams::default());
        let tiny = PairConfig::new(Allocation::new(19, 9, 19), Allocation::new(1, 0, 1));
        for _ in 0..2 {
            let _ = b.adjust(
                &p,
                env.spec(),
                env.budget_w(),
                &obs_with(12.0, 48_000.0),
                10.0,
                tiny,
            );
        }
        assert!(!b.is_exhausted());
        // A successful harvest from a roomier config breaks the streak.
        let _ = b
            .adjust(
                &p,
                env.spec(),
                env.budget_w(),
                &obs_with(12.0, 12_000.0),
                10.0,
                cfg(6, 7, 8),
            )
            .unwrap();
        assert!(!b.is_exhausted());
        assert_eq!(b.failed_adjusts, 0);
    }

    #[test]
    fn never_empties_the_be_partition() {
        let (env, p) = setup();
        let mut b = ResourceBalancer::new(BalancerParams::default());
        // Start with a BE partition already at the minimum.
        let tiny = PairConfig::new(Allocation::new(19, 9, 19), Allocation::new(1, 0, 1));
        let out = b.adjust(
            &p,
            env.spec(),
            env.budget_w(),
            &obs_with(12.0, 48_000.0),
            10.0,
            tiny,
        );
        if let Some(o) = out {
            assert!(o.be.cores >= 1);
            assert!(o.be.llc_ways >= 1);
        }
    }
}
