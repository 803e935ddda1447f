//! BE placement: which best-effort job runs where, fleet-wide.
//!
//! The paper's cluster scheduler (Fig. 4) dispatches queries; something
//! must also decide which batch job lands on which node — and, once
//! upstream power caps start moving ([`crate::budget::BudgetTree`]),
//! *keep* deciding: a node that falls into safe mode or loses its cap
//! produces no BE throughput, so its job should run somewhere else.
//!
//! [`ScoredPlacementEngine`] is that fleet-level optimizer, and
//! [`crate::fleet::Fleet`] calls it directly at shard-interval
//! boundaries: it is handed a [`FleetView`] (one [`UnitView`] per
//! serving unit — a fleet shard) and returns a [`PlacementPlan`] of
//! assign/migrate/evict actions, greedy marginal-gain moves away from
//! safe-mode/exhausted units that never target a unit in safe mode or
//! without a free slot. Candidates are scored with the same machinery
//! the per-node controller trusts — the §V-B search over the predictor
//! (table-backed under [`SearchStrategy::FrontierPruned`], where the
//! `ModelTables` lattices drive the pruning) — times a **co-runner
//! interference score** ([`co_runner_score`]): jobs multiplexed onto one
//! BE partition contribute diminishing throughput, the scoring-mechanism
//! template from the large-cluster interference literature.
//!
//! When the `[scoring]` subsystem is active, the closed-form
//! [`co_runner_score`] gives way to per-app coefficients or the learned
//! [`SetScorer`] (see [`PlacementScoring`]): a candidate *set* of jobs
//! is valued by which applications it mixes, not just how many. The
//! fleet counts a multiplexed partition's throughput with the same
//! [`ScoredPlacementEngine::score_jobs`] the plan values it with.

use crate::predictor::PerfPowerPredictor;
use crate::scoring::{catalog_sigma, SetScorer};
use crate::search::{ConfigSearch, SearchParams, SearchStrategy};
use std::sync::Arc;
use sturgeon_simnode::NodeSpec;
use sturgeon_workloads::catalog::BeAppId;

/// Everything the placement engine may know about one serving unit (a
/// fleet shard: a contiguous node range under one controller).
#[derive(Debug, Clone, PartialEq)]
pub struct UnitView {
    /// Unit index within the fleet (shard index).
    pub unit: usize,
    /// Global index of the unit's first node.
    pub first_node: usize,
    /// Physical nodes in the unit.
    pub nodes: usize,
    /// Offered load per node (QPS) in the most recent interval.
    pub qps_per_node: f64,
    /// Effective per-node power cap (W) after budget reclamation.
    pub cap_w: f64,
    /// True while the unit's controller holds the safe configuration —
    /// a migration *source*, never a target.
    pub safe_mode: bool,
    /// True when the unit's balancer ran out of harvest moves while QoS
    /// kept violating — the second migration trigger.
    pub exhausted: bool,
    /// BE jobs currently multiplexed on the unit's BE partition.
    pub be_jobs: u32,
    /// Job capacity of the unit's BE partition.
    pub be_slots: u32,
    /// Measured per-node normalized BE throughput, last interval.
    pub last_be_tput: f64,
}

/// The fleet snapshot handed to [`ScoredPlacementEngine::plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetView {
    /// Interval timestamp (s).
    pub t_s: f64,
    /// The BE application whose jobs are being placed (homogeneous
    /// fleet).
    pub be: BeAppId,
    /// One view per serving unit, in unit order.
    pub units: Vec<UnitView>,
    /// Evicted jobs waiting in the batch queue for a free slot.
    pub queued_jobs: u32,
}

/// One step of a placement plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementAction {
    /// Take one queued job and start it on `unit`.
    Assign {
        /// Target unit.
        unit: usize,
        /// The job's application.
        be: BeAppId,
    },
    /// Move one job from `from` to `to`.
    Migrate {
        /// Source unit (loses one job).
        from: usize,
        /// Target unit (gains one job).
        to: usize,
        /// The job's application.
        be: BeAppId,
    },
    /// Stop one job on `unit` and return it to the batch queue.
    Evict {
        /// Source unit.
        unit: usize,
        /// The job's application.
        be: BeAppId,
    },
}

/// An ordered list of actions; the fleet applies them in order, skipping
/// any that became invalid (stale view, concurrent cap change).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementPlan {
    /// Actions in application order.
    pub actions: Vec<PlacementAction>,
}

impl PlacementPlan {
    /// True when the plan changes nothing.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Normalized total throughput of `jobs` identical jobs multiplexed on
/// one BE partition, in units of a single dedicated job: `k / (1 + σ·(k
/// − 1))`. One job scores exactly 1; every additional co-runner adds a
/// diminishing share, with `sigma` the pairwise interference
/// coefficient (0 = perfect scaling, 1 = pure time-sharing). This is
/// the per-candidate co-runner score the plan ranks target units with.
pub fn co_runner_score(jobs: u32, sigma: f64) -> f64 {
    if jobs == 0 {
        return 0.0;
    }
    let k = jobs as f64;
    k / (1.0 + sigma * (k - 1.0))
}

/// Tunables for [`ScoredPlacementEngine`] (and the fleet's placement
/// boundary cadence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementParams {
    /// Run the engine every `interval_s` stepped intervals.
    pub interval_s: u32,
    /// Job capacity per unit's BE partition.
    pub be_slots: u32,
    /// Most actions per plan (bounds churn per boundary).
    pub max_moves: usize,
    /// Pairwise co-runner interference coefficient (see
    /// [`co_runner_score`]).
    pub sigma: f64,
}

impl Default for PlacementParams {
    fn default() -> Self {
        Self {
            interval_s: 30,
            be_slots: 2,
            max_moves: 8,
            sigma: 0.25,
        }
    }
}

/// How [`ScoredPlacementEngine`] values a set of jobs multiplexed on one
/// BE partition. Absent (the legacy default), the closed-form
/// [`co_runner_score`] with the global `[placement].sigma` applies —
/// bit-identical to pre-scoring runs.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementScoring {
    /// Closed-form score, but with the app's *own* catalog contention
    /// coefficient ([`sturgeon_workloads::be::BeAppParams::contention_sigma`])
    /// instead of the global `[placement].sigma` knob.
    PerAppSigma,
    /// The learned co-runner set scorer: `score(S)` over the actual
    /// candidate set.
    Learned(SetScorer),
}

impl PlacementScoring {
    /// Normalized total-throughput score of `jobs` jobs of `be` sharing
    /// one BE partition under this scoring mode.
    pub fn factor(&self, be: BeAppId, jobs: u32) -> f64 {
        match self {
            Self::PerAppSigma => co_runner_score(jobs, catalog_sigma(be.name())),
            Self::Learned(scorer) => {
                let set = vec![be.name(); jobs as usize];
                scorer.score(&set)
            }
        }
    }
}

/// The fleet placement engine: scores every unit's per-job value with
/// the predictor-backed search at the unit's own load and cap, applies
/// the co-runner interference score for multiplexing, and greedily
/// takes the largest positive marginal gains — which is exactly what
/// turns a safe-mode entry from a dead-end counter into a migration:
/// a parked unit's jobs are worth zero where they are and their full
/// marginal value anywhere healthy.
///
/// The model alone is not enough: a unit thrashing in and out of safe
/// mode can look clean at the instant a boundary samples it, and its
/// predicted throughput is exactly the number its own balancer just
/// proved wrong. The engine therefore keeps a per-unit **health EWMA**
/// across boundaries: units hosting jobs are scored by how much of
/// their modeled throughput they actually delivered last interval,
/// idle units by their control-state flags. A unit only regains full
/// trust by delivering, which is what stops jobs sloshing back onto an
/// overloaded unit the moment it momentarily exits safe mode.
pub struct ScoredPlacementEngine {
    predictor: Arc<PerfPowerPredictor>,
    spec: NodeSpec,
    search: SearchParams,
    params: PlacementParams,
    scoring: Option<PlacementScoring>,
    /// Per-unit trust in the model's value estimate (EWMA across
    /// boundaries, 0 = never delivers, 1 = delivers as modeled).
    health: Vec<f64>,
    /// Scratch: per-unit per-job base value, refilled every plan.
    base: Vec<f64>,
    /// Scratch: per-unit job counts as the plan is built.
    jobs: Vec<u32>,
    /// Scratch: co-runner score by job count for the plan's app,
    /// refilled every plan (index = k).
    score_k: Vec<f64>,
}

impl std::fmt::Debug for ScoredPlacementEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoredPlacementEngine")
            .field("params", &self.params)
            .finish()
    }
}

/// Marginal gain below which a move is churn, not progress.
const MIN_GAIN: f64 = 1e-6;

/// Per-boundary smoothing of the health EWMA: each boundary keeps half
/// the prior trust and folds in half of the fresh evidence, so a unit
/// recovers (or decays) over a few placement intervals rather than
/// flapping with the instantaneous safe-mode flag.
const HEALTH_ALPHA: f64 = 0.5;

/// Smoothing for units that produced *no* evidence this boundary (idle,
/// no flags raised). Absence of evidence is not good evidence: an idle
/// unit drifts back toward full trust only slowly, so a freshly vacated
/// unit cannot out-score the units actually delivering jobs a boundary
/// later and pull its job straight back (placement ping-pong).
const IDLE_ALPHA: f64 = 0.1;

/// A migration must beat the value it destroys at the source by this
/// relative margin (on top of [`MIN_GAIN`]). Delivery ratios carry a
/// few percent of measurement noise; a move that wins by less than the
/// noise floor is churn with a migration cost and no expected payoff.
const MOVE_MARGIN: f64 = 0.1;

impl ScoredPlacementEngine {
    /// Builds the engine around a (typically shared) predictor artifact.
    pub fn new(
        predictor: Arc<PerfPowerPredictor>,
        spec: NodeSpec,
        search: SearchParams,
        params: PlacementParams,
    ) -> Self {
        Self {
            predictor,
            spec,
            search,
            params,
            scoring: None,
            health: Vec::new(),
            base: Vec::new(),
            jobs: Vec::new(),
            score_k: Vec::new(),
        }
    }

    /// Switches the co-runner valuation away from the closed-form
    /// global-σ score (see [`PlacementScoring`]).
    pub fn with_scoring(mut self, scoring: PlacementScoring) -> Self {
        self.scoring = Some(scoring);
        self
    }

    /// The engine's tunables.
    pub fn params(&self) -> &PlacementParams {
        &self.params
    }

    /// The scoring mode in force (`None` = legacy closed-form).
    pub fn scoring(&self) -> Option<&PlacementScoring> {
        self.scoring.as_ref()
    }

    /// Normalized total-throughput score of `jobs` jobs of `be` sharing
    /// one BE partition, under the engine's scoring mode.
    pub fn score_jobs(&self, be: BeAppId, jobs: u32) -> f64 {
        match &self.scoring {
            None => co_runner_score(jobs, self.params.sigma),
            Some(scoring) => scoring.factor(be, jobs),
        }
    }

    /// Modeled per-job value of running on `unit`: the search's
    /// predicted best feasible BE throughput at the unit's load under
    /// its *current effective cap*, per node, times the node count.
    fn modeled_value(&self, unit: &UnitView) -> f64 {
        let search = ConfigSearch::new(&self.predictor, self.spec.clone(), unit.cap_w, self.search);
        let outcome = match self.search.strategy {
            SearchStrategy::Heuristic => search.best_config(unit.qps_per_node),
            SearchStrategy::FrontierPruned => search.pruned(unit.qps_per_node),
        };
        outcome.predicted_throughput * unit.nodes as f64
    }

    /// Fresh health evidence for one unit this boundary, as `(target,
    /// alpha)` for the EWMA update. A unit hosting jobs is judged on
    /// delivery — the fraction of its expected throughput (modeled base
    /// times the co-runner score of its job count) it actually produced
    /// last interval — because an overloaded unit's model is precisely
    /// the number its balancer keeps failing to realize. An idle unit
    /// can only be judged on its control state: safe mode is worth
    /// nothing, an exhausted balancer means the model overpromises
    /// (half trust), and a clean idle unit yields no evidence at all —
    /// it drifts back toward full trust at the slow [`IDLE_ALPHA`]
    /// rate.
    fn health_target(&self, unit: &UnitView, modeled: f64) -> (f64, f64) {
        if unit.safe_mode {
            return (0.0, HEALTH_ALPHA);
        }
        let flag_cap = if unit.exhausted { 0.5 } else { 1.0 };
        let expected = modeled * self.score_k[unit.be_jobs as usize];
        if unit.be_jobs > 0 && expected > f64::EPSILON {
            (
                (unit.last_be_tput / expected).clamp(0.0, flag_cap),
                HEALTH_ALPHA,
            )
        } else if unit.exhausted {
            (flag_cap, HEALTH_ALPHA)
        } else {
            (flag_cap, IDLE_ALPHA)
        }
    }

    /// Total value of `jobs` jobs on unit `i`.
    fn value(&self, i: usize, jobs: u32) -> f64 {
        self.base[i] * self.score_k[jobs as usize]
    }

    /// Marginal value of adding one job to unit `i` holding `jobs`.
    fn gain_add(&self, i: usize, jobs: u32) -> f64 {
        self.value(i, jobs + 1) - self.value(i, jobs)
    }

    /// Value lost by removing one job from unit `i` holding `jobs`.
    fn loss_remove(&self, i: usize, jobs: u32) -> f64 {
        debug_assert!(jobs > 0);
        self.value(i, jobs) - self.value(i, jobs - 1)
    }

    /// Computes the actions to apply at this boundary: look at every
    /// serving unit, return the job moves worth making.
    pub fn plan(&mut self, view: &FleetView) -> PlacementPlan {
        let n = view.units.len();
        self.health.resize(n, 1.0);
        self.base.clear();
        self.jobs.clear();
        // Tabulate the co-runner score once per plan: the view's app is
        // homogeneous, so a set is fully described by its cardinality.
        let max_k = view
            .units
            .iter()
            .map(|u| u.be_slots.max(u.be_jobs))
            .max()
            .unwrap_or(0)
            + 1;
        self.score_k = (0..=max_k).map(|k| self.score_jobs(view.be, k)).collect();
        for (i, u) in view.units.iter().enumerate() {
            let modeled = self.modeled_value(u);
            let (target, alpha) = self.health_target(u, modeled);
            self.health[i] = (1.0 - alpha) * self.health[i] + alpha * target;
            // Safe mode is a hard zero regardless of history: the
            // partition is parked *right now*.
            let base = if u.safe_mode {
                0.0
            } else {
                modeled * self.health[i]
            };
            self.base.push(base);
        }
        self.jobs.extend(view.units.iter().map(|u| u.be_jobs));
        let mut queued = view.queued_jobs;
        let mut plan = PlacementPlan::default();

        // A unit may receive a job only when healthy and not full.
        let can_host = |units: &[UnitView], jobs: &[u32], i: usize| -> bool {
            !units[i].safe_mode && jobs[i] < units[i].be_slots
        };

        while plan.actions.len() < self.params.max_moves {
            // Best assignment of a queued job (no source cost).
            let mut best_assign: Option<(usize, f64)> = None;
            if queued > 0 {
                for i in 0..n {
                    if !can_host(&view.units, &self.jobs, i) {
                        continue;
                    }
                    let g = self.gain_add(i, self.jobs[i]);
                    if g > best_assign.map_or(MIN_GAIN, |(_, bg)| bg) {
                        best_assign = Some((i, g));
                    }
                }
            }
            // Best migration: max over (source with jobs, healthy
            // target) of marginal gain minus source loss. The gain must
            // clear a relative margin over the destroyed source value —
            // a move that wins by less than the evidence noise floor is
            // churn, not progress.
            let mut best_move: Option<(usize, usize, f64)> = None;
            for from in 0..n {
                if self.jobs[from] == 0 {
                    continue;
                }
                let loss = self.loss_remove(from, self.jobs[from]);
                let threshold = MIN_GAIN.max(MOVE_MARGIN * loss);
                for to in 0..n {
                    if to == from || !can_host(&view.units, &self.jobs, to) {
                        continue;
                    }
                    let g = self.gain_add(to, self.jobs[to]) - loss;
                    if g > threshold && g > best_move.map_or(f64::NEG_INFINITY, |(_, _, bg)| bg) {
                        best_move = Some((from, to, g));
                    }
                }
            }
            match (best_assign, best_move) {
                (Some((i, ga)), m) if m.is_none_or(|(_, _, gm)| ga >= gm) => {
                    self.jobs[i] += 1;
                    queued -= 1;
                    plan.actions.push(PlacementAction::Assign {
                        unit: i,
                        be: view.be,
                    });
                }
                (_, Some((from, to, _))) => {
                    self.jobs[from] -= 1;
                    self.jobs[to] += 1;
                    plan.actions.push(PlacementAction::Migrate {
                        from,
                        to,
                        be: view.be,
                    });
                }
                _ => break,
            }
        }

        // Jobs stranded on safe-mode units with nowhere to go return to
        // the queue — a later plan re-assigns them once capacity
        // recovers, instead of leaving them pinned to a parked
        // partition.
        for i in 0..n {
            if plan.actions.len() >= self.params.max_moves {
                break;
            }
            while view.units[i].safe_mode
                && self.jobs[i] > 0
                && plan.actions.len() < self.params.max_moves
            {
                self.jobs[i] -= 1;
                plan.actions.push(PlacementAction::Evict {
                    unit: i,
                    be: view.be,
                });
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ColocationPair, ExperimentSetup};
    use sturgeon_workloads::catalog::LsServiceId;

    #[test]
    fn score_jobs_has_three_tiers() {
        let setup = ExperimentSetup::new(
            ColocationPair::new(LsServiceId::Memcached, BeAppId::Fluidanimate),
            42,
        );
        let predictor = Arc::new(setup.train_default_predictor());
        let engine = |scoring: Option<PlacementScoring>| {
            let mut e = ScoredPlacementEngine::new(
                predictor.clone(),
                setup.spec().clone(),
                SearchParams::default(),
                PlacementParams::default(),
            );
            if let Some(s) = scoring {
                e = e.with_scoring(s);
            }
            e
        };
        // Tier 1: scoring absent → the global-σ closed form, exactly.
        let legacy = engine(None);
        for k in 0..4 {
            assert_eq!(
                legacy.score_jobs(BeAppId::Fluidanimate, k).to_bits(),
                co_runner_score(k, 0.25).to_bits()
            );
        }
        // Tier 2: per-app σ — fluidanimate (σ = 0.5) scores lower than
        // the global default; raytrace (σ = 0.25) matches it exactly.
        let per_app = engine(Some(PlacementScoring::PerAppSigma));
        assert!(
            per_app.score_jobs(BeAppId::Fluidanimate, 2)
                < legacy.score_jobs(BeAppId::Fluidanimate, 2)
        );
        assert_eq!(
            per_app.score_jobs(BeAppId::Raytrace, 3).to_bits(),
            legacy.score_jobs(BeAppId::Raytrace, 3).to_bits()
        );
        // Tier 3: the learned scorer drives the valuation.
        let learned = engine(Some(PlacementScoring::Learned(SetScorer::from_sigmas([(
            "fluidanimate",
            0.9,
        )]))));
        assert!(
            learned.score_jobs(BeAppId::Fluidanimate, 2)
                < per_app.score_jobs(BeAppId::Fluidanimate, 2)
        );
        assert_eq!(learned.score_jobs(BeAppId::Fluidanimate, 1), 1.0);
        assert_eq!(learned.score_jobs(BeAppId::Fluidanimate, 0), 0.0);
    }

    #[test]
    fn co_runner_score_diminishes() {
        assert_eq!(co_runner_score(0, 0.25), 0.0);
        assert_eq!(co_runner_score(1, 0.25), 1.0);
        let two = co_runner_score(2, 0.25);
        assert!(two > 1.0 && two < 2.0, "{two}");
        // Pure time-sharing: no gain from co-running.
        assert!((co_runner_score(3, 1.0) - 1.0).abs() < 1e-12);
        // Perfect scaling: linear.
        assert_eq!(co_runner_score(3, 0.0), 3.0);
        // Monotone in k for sub-unity sigma.
        for k in 1..8 {
            assert!(co_runner_score(k + 1, 0.4) > co_runner_score(k, 0.4));
        }
    }
}
