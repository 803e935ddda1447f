//! Fleet-scale control plane: the one runtime for many Sturgeon nodes.
//!
//! The paper's deployment model (Fig. 4) is per-node autonomy under a
//! cluster-level dispatcher. [`crate::cluster::Cluster`] spells that loop
//! out literally — every node trains a predictor and keeps a full
//! in-memory telemetry log — and is kept only as the reference the
//! equivalence tests pin [`Fleet`] against. A 100k-node sweep cannot
//! afford 100k trainings or O(nodes × intervals) sample storage, so
//! [`Fleet`] restructures the same control loop around four ideas:
//!
//! * **One training** — the profiler runs interference-free with its own
//!   seed, so the predictor a node trains does not depend on the node.
//!   A homogeneous fleet serves one (pair, spec): offline training and
//!   `ModelTables` construction are paid once and shared through `Arc`,
//!   bit-identical to per-node training. Per-shard control state
//!   (balancer, warm hints, `FrontierCache`) stays private.
//! * **Sharded stepping** — nodes are partitioned into contiguous
//!   shards, stepped in parallel. One Sturgeon controller
//!   runs per shard, driven by the shard-mean observation. Every node
//!   of a shard runs the shard's configuration at the shard's load
//!   under the fleet's one environment model, so power, counted BE
//!   throughput and the over-cap test are shard-uniform and kept once
//!   per shard. A node keeps only what can differ: its own OS-jitter
//!   chain, so node telemetry still diverges the way real machines
//!   do, and its in-target query sum. A quiet node costs a countdown
//!   and the sums of one shared observation per interval; only a
//!   spiking node evaluates its own latency. With one node per shard this
//!   degenerates to exactly the `Cluster` control loop.
//! * **Segments** — shards interact only at coupling events: a due
//!   budget event, a placement boundary, or (under
//!   [`DispatchPolicy::LatencyAware`]) the dispatcher reading last
//!   interval's shard latencies. Between them each shard's load is a
//!   pure function of time, so one parallel stage advances every shard
//!   through a whole segment of intervals; an uncoupled fleet runs one
//!   stage per run. Each worker steps one contiguous group of shards
//!   interval by interval, so the group's shards query the shared
//!   prediction cache at one load level together.
//! * **Streaming aggregation** — shards fold telemetry into running
//!   sums and fixed-bucket histograms as they step; nothing is replayed
//!   after the run, so memory is O(nodes + shards), independent of the
//!   interval count. One shard can stream decision traces to a
//!   [`TraceSink`].
//!
//! Regions map to contiguous shard groups: each region has its own
//! dispatcher and can follow its own [`LoadProfile`], which is how the
//! regional-failover composition drives part of the fleet to zero while
//! the survivors absorb the traffic.
//!
//! With [`FleetParams::placement`] set, the fleet holds one
//! [`ScoredPlacementEngine`] and calls its `plan` directly every
//! `interval_s` intervals. The engine owns the cadence, the slot count
//! and the scoring tier; each shard's counted BE throughput is scaled by
//! the engine's own [`ScoredPlacementEngine::score_jobs`], so what the
//! fleet counts and what the plan values cannot drift apart.

use crate::budget::{even_split, BudgetEvent, BudgetTree};
use crate::cluster::NodeResult;
use crate::controller::{
    ControllerFaultCounters, ControllerParams, ResourceController, SturgeonController,
};
use crate::dispatch::{DispatchPolicy, Dispatcher};
use crate::error::SturgeonError;
use crate::experiment::{ColocationPair, ExperimentSetup};
use crate::obs::{Histogram, MetricsRegistry, TraceEvent, TraceSink, DEFAULT_BUCKETS};
use crate::placement::{
    FleetView, PlacementAction, PlacementParams, PlacementScoring, ScoredPlacementEngine, UnitView,
};
use crate::predictor::PerfPowerPredictor;
use crate::scoring::{
    train_cold_start_predictor, train_fallback_predictor, ColdStartReport, ScoringParams, SetScorer,
};
use rayon::prelude::*;
use std::sync::Arc;
use sturgeon_simnode::{NodeSpec, PairConfig};
use sturgeon_workloads::catalog::BeAppId;
use sturgeon_workloads::env::{CoLocationEnv, Observation};
use sturgeon_workloads::interference::JitterChain;
use sturgeon_workloads::loadgen::LoadProfile;

/// Bucket bounds of the fleet's BE-throughput histogram (normalized
/// throughput lives in `[0, 1]`).
pub(crate) const BE_THROUGHPUT_BUCKETS: [f64; 10] =
    [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Hierarchical budget configuration for a fleet: the tree's leaves are
/// the fleet's shards, its racks are the fleet's regions, `rows` groups
/// the racks, and a single datacenter root spans everything. `events`
/// schedules cap changes; each one is applied at its interval boundary
/// followed by a headroom-proportional reclamation pass that lands the
/// new per-node caps on every shard controller as a budget-cut
/// observation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBudget {
    /// Row count grouping the racks/regions (0 or 1 = one row).
    pub rows: usize,
    /// Scheduled cap changes, applied in `at_s` order.
    pub events: Vec<BudgetEvent>,
}

impl Default for FleetBudget {
    fn default() -> Self {
        Self {
            rows: 1,
            events: Vec::new(),
        }
    }
}

/// Fleet construction knobs.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// Shard count; 0 picks one shard per ~256 nodes (at least 1, at
    /// most 512). Must not exceed the node count.
    pub shards: usize,
    /// Contiguous shard groups with independent dispatchers and load
    /// profiles (regional failover). Must not exceed the shard count.
    pub regions: usize,
    /// How each region's dispatcher splits load across its shards.
    pub policy: DispatchPolicy,
    /// Controller tunables applied to every shard controller.
    pub controller: ControllerParams,
    /// Stream this shard's decision trace (telemetry samples plus its
    /// controller's events) through the sink passed to
    /// [`Fleet::run_regional_traced`].
    pub traced_shard: Option<usize>,
    /// Hierarchical power budgets over the shard/region geometry.
    /// `None` keeps the flat per-node caps (bit-identical to earlier
    /// fleets).
    pub budget: Option<FleetBudget>,
    /// BE job placement/migration at shard-interval boundaries. `None`
    /// pins one always-on job per shard (the earlier static
    /// assignment).
    pub placement: Option<PlacementParams>,
    /// Cold-start scoring: collaborative-filtering BE prediction for a
    /// masked (never-profiled) app and/or the learned co-runner set
    /// scorer. `None` keeps the legacy closed-form scoring bit for bit.
    pub scoring: Option<ScoringParams>,
}

impl Default for FleetParams {
    fn default() -> Self {
        Self {
            shards: 0,
            regions: 1,
            policy: DispatchPolicy::Even,
            controller: ControllerParams::default(),
            traced_shard: None,
            budget: None,
            placement: None,
            scoring: None,
        }
    }
}

/// Sums of one interval's observations across a shard's nodes.
#[derive(Debug, Clone, Copy, Default)]
struct ObsSums {
    t_s: f64,
    qps: f64,
    p95_ms: f64,
    in_target_fraction: f64,
    ls_utilization: f64,
    power_w: f64,
    be_throughput_norm: f64,
    be_ipc: f64,
    interference: f64,
}

impl ObsSums {
    fn add(&mut self, o: &Observation) {
        self.t_s += o.t_s;
        self.qps += o.qps;
        self.p95_ms += o.p95_ms;
        self.in_target_fraction += o.in_target_fraction;
        self.ls_utilization += o.ls_utilization;
        self.power_w += o.power_w;
        self.be_throughput_norm += o.be_throughput_norm;
        self.be_ipc += o.be_ipc;
        self.interference += o.interference;
    }

    fn mean(&self, n: f64) -> Observation {
        Observation {
            t_s: self.t_s / n,
            qps: self.qps / n,
            p95_ms: self.p95_ms / n,
            in_target_fraction: self.in_target_fraction / n,
            ls_utilization: self.ls_utilization / n,
            power_w: self.power_w / n,
            be_throughput_norm: self.be_throughput_norm / n,
            be_ipc: self.be_ipc / n,
            interference: self.interference / n,
        }
    }
}

/// One shard: a contiguous node range stepped on one worker thread,
/// controlled by one Sturgeon controller fed the shard-mean observation.
/// Its nodes share the configuration, the load and the environment
/// model, so every per-node channel but the jitter-driven latency is
/// shard-uniform and kept here once.
struct Shard {
    /// Global index of the shard's first node.
    first_node: usize,
    /// Per-node OS-jitter chains (node `n` seeded `seed + n`), stepped
    /// under the environment model's sojourn law.
    jitter: Vec<JitterChain>,
    /// Per-node running sums of in-target queries.
    sum_in_target_qps: Vec<f64>,
    controller: SturgeonController,
    /// The configuration in force on every node of the shard.
    config: PairConfig,
    /// Per-node power budget of this shard's nodes (its budget-tree
    /// leaf cap split evenly; the flat node budget without a tree).
    budget_w: f64,
    intervals_stepped: u32,
    /// Node-intervals whose OS jitter was not 1.0, which evaluated their
    /// own latency instead of copying the shard's quiet latency.
    jitter_node_intervals: u64,
    /// Each node's last-interval power and counted BE throughput (feed
    /// budget demand and placement).
    last_power_w: f64,
    last_be_tput: f64,
    /// Each node's running sums, accumulated in time order so the
    /// end-of-run per-node aggregates reproduce
    /// [`sturgeon_simnode::TelemetryLog`]'s formulas exactly.
    sum_qps: f64,
    sum_be_tput: f64,
    sum_power_w: f64,
    overload_intervals: u32,
    /// Streaming histograms, merged into the registry after the run.
    p95_hist: Histogram,
    power_hist: Histogram,
    tput_hist: Histogram,
    /// Shard-mean p95 of the last stepped interval (dispatch summary).
    last_mean_p95: f64,
    /// Index of the region whose dispatcher and load profile feed it.
    region: usize,
    /// The shard's dispatch weight within its region, staged for the
    /// segment being stepped.
    weight: f64,
    /// Per-node load share of the interval being (or last) stepped.
    qps_per_node: f64,
    /// BE jobs multiplexed on this shard's BE partition (1 without a
    /// placement engine — the static assignment).
    be_jobs: u32,
    /// Counted-throughput factor for the current job count: the
    /// co-runner interference score (exactly 1.0 for one job, 0.0 for a
    /// parked partition).
    job_factor: f64,
    /// Trace buffer drained by the run loop after each segment (traced
    /// shard only; stays empty otherwise).
    traced: bool,
    trace: Vec<TraceEvent>,
}

impl Shard {
    fn len(&self) -> usize {
        self.jitter.len()
    }

    /// The sum over the shard's nodes of a shard-uniform per-node value,
    /// added node by node: `v * len` can round differently.
    fn node_sum(&self, v: f64) -> f64 {
        std::iter::repeat_n(v, self.len()).sum()
    }

    /// One monitor → decide → actuate interval `t` for every node of the
    /// shard under the environment model `env`, streaming telemetry into
    /// the shard aggregates. The per-node load is the region's offered
    /// load at `t` (`profile` against the region's `peak_qps`) split by
    /// the shard's staged weight, exactly as a per-interval dispatch
    /// would stage it.
    fn step_interval(&mut self, env: &CoLocationEnv, profile: &LoadProfile, peak_qps: f64, t: u32) {
        let total_qps = profile.qps_at(t as f64, peak_qps);
        self.qps_per_node = total_qps * self.weight / self.len() as f64;
        let qps = self.qps_per_node;
        let config = self.config;
        // Everything that depends only on (config, qps) is identical
        // across the shard's nodes: evaluate it once, replay per node.
        let invariants = env.step_invariants(&config, qps);
        // Counted BE throughput: the measured partition throughput times
        // the co-runner score for the jobs multiplexed on it. With the
        // default single pinned job the factor is exactly 1.0 and the
        // product is bit-identical to the raw value.
        let counted_tput = invariants.be_throughput_norm * self.job_factor;
        self.intervals_stepped += 1;
        let t_s = f64::from(self.intervals_stepped);
        // A quiet node's observation is shard-uniform: build it once. Per
        // quiet node the loop only counts down its chain and adds the
        // shared values; a spiking node evaluates its own latency. The
        // sums still fold node by node in node order, so each node's
        // in-target sum and the shard mean keep the bits of a per-node
        // evaluation.
        let quiet = env.observe(t_s, &config, qps, &invariants, 1.0);
        let quiet_in_target = quiet.qps * quiet.in_target_fraction;
        let law = env.sojourn_law();
        let mut sums = ObsSums::default();
        let mut spiking = 0u64;
        for (chain, in_target) in self.jitter.iter_mut().zip(&mut self.sum_in_target_qps) {
            let jitter = chain.step(law);
            if jitter == 1.0 {
                *in_target += quiet_in_target;
                sums.add(&quiet);
            } else {
                let obs = env.observe(t_s, &config, qps, &invariants, jitter);
                spiking += 1;
                *in_target += obs.qps * obs.in_target_fraction;
                self.p95_hist.observe(obs.p95_ms);
                sums.add(&obs);
            }
        }
        self.jitter_node_intervals += spiking;
        self.p95_hist
            .observe_repeated(quiet.p95_ms, self.len() as u64 - spiking);
        self.last_power_w = invariants.power_w;
        self.last_be_tput = counted_tput;
        self.sum_qps += qps;
        self.sum_be_tput += counted_tput;
        self.sum_power_w += invariants.power_w;
        if invariants.power_w > self.budget_w {
            self.overload_intervals += 1;
        }
        // Power and counted throughput are shard-uniform: one bucket
        // search each, bit-identical to observing them once per node.
        let n = self.len();
        self.power_hist
            .observe_repeated(invariants.power_w, n as u64);
        self.tput_hist.observe_repeated(counted_tput, n as u64);
        let mean = sums.mean(n as f64);
        self.last_mean_p95 = mean.p95_ms;
        if self.traced {
            self.trace.push(TraceEvent::TelemetrySample {
                t_s: mean.t_s,
                qps: mean.qps,
                p95_ms: mean.p95_ms,
                power_w: mean.power_w,
                be_throughput_norm: mean.be_throughput_norm,
            });
        }
        let next = self.controller.decide(&mean, config);
        if next != config {
            debug_assert!(
                next.validate(env.spec()).is_ok(),
                "controller returned invalid config"
            );
            self.config = next;
        }
        if self.traced {
            self.trace.extend(self.controller.take_trace());
        }
    }
}

/// One region: a contiguous shard group with its own dispatcher.
struct Region {
    /// Shard index range `[lo, hi)`.
    lo: usize,
    hi: usize,
    /// Aggregate peak capacity (QPS) of the region's nodes.
    peak_qps: f64,
    dispatcher: Dispatcher,
    /// Reusable per-shard p95 summary buffer.
    p95_buf: Vec<f64>,
}

/// Fleet-wide results: the [`crate::cluster::ClusterResult`] aggregates
/// plus the artifact-reuse counters that prove the fleet paid its offline
/// costs once.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-node summaries, in node order.
    pub nodes: Vec<NodeResult>,
    /// Query-weighted fleet QoS guarantee rate.
    pub qos_rate: f64,
    /// Sum of mean normalized BE throughput across nodes.
    pub total_be_throughput: f64,
    /// Mean total fleet power (W).
    pub mean_fleet_power_w: f64,
    /// Sum of per-node budgets (W).
    pub fleet_budget_w: f64,
    /// Robustness counters summed across shard controllers.
    pub fault_counters: ControllerFaultCounters,
    /// Offline predictor trainings paid during construction (always 1:
    /// the fleet trains once).
    pub trainings: u64,
    /// `ModelTables` constructions run on the shared predictor (0 until a
    /// pruned search needs them; 1 no matter how many shards search).
    pub table_builds: u64,
    /// LS QPS slabs allocated on the shared predictor's current slab
    /// family (0 unless a pruned search ran; one per load bucket visited,
    /// its cells filled lazily).
    pub slab_builds: u64,
    /// Configuration searches run across all shard controllers.
    pub searches: u64,
    /// Budget reclamation passes that changed at least one leaf cap.
    pub budget_reclaims: u64,
    /// BE jobs the placement engine moved between shards.
    pub migrations: u64,
    /// BE jobs evicted back to the batch queue.
    pub evictions: u64,
    /// Queued BE jobs (re)assigned to a shard.
    pub assignments: u64,
    /// Hidden profile-matrix cells the CF predictor filled for the
    /// masked app (0 without cold-start scoring).
    pub cold_start_cells: u64,
    /// Learned set-scorer evaluations at placement boundaries (0
    /// without the learned scorer).
    pub set_scores: u64,
}

/// BE-placement runtime state: the engine (which owns the cadence, slot
/// count and scoring tier) and the queue of evicted jobs awaiting
/// reassignment.
struct PlacementRuntime {
    engine: ScoredPlacementEngine,
    queued_jobs: u32,
    migrations: u64,
    evictions: u64,
    assignments: u64,
}

/// A homogeneous fleet of Sturgeon nodes stepped in shards.
pub struct Fleet {
    shards: Vec<Shard>,
    regions: Vec<Region>,
    /// The one predictor every shard controller shares, kept for the
    /// table-build accounting in [`FleetResult`].
    predictor: Arc<PerfPowerPredictor>,
    /// The environment model every node steps under; nodes differ only
    /// in their shard's jitter processes.
    env: CoLocationEnv,
    peak_qps_per_node: f64,
    node_count: usize,
    /// The BE application whose jobs the placement engine moves.
    be: BeAppId,
    /// The power-delivery tree (leaves = shards); `None` keeps flat
    /// per-node caps.
    budget: Option<BudgetTree>,
    /// Cap events sorted by `at_s`, with the cursor of the next one due.
    budget_events: Vec<BudgetEvent>,
    events_applied: usize,
    budget_reclaims: u64,
    placement: Option<PlacementRuntime>,
    /// Cold-start artifacts: the masked app and its CF fit report,
    /// surfaced as a `ColdStartPredicted` trace event and counters.
    cold_start: Option<(String, ColdStartReport)>,
    /// `ColdStartPredicted` already streamed to a sink this run.
    cold_start_traced: bool,
    set_scores: u64,
    /// Parallel stages run: one per segment between coupling events.
    segments: u64,
}

impl Fleet {
    /// Builds a fleet of `nodes` nodes for one co-location pair. Panics
    /// on invalid parameters; use [`Fleet::try_new`] for user input.
    pub fn new(pair: ColocationPair, nodes: usize, params: FleetParams, seed: u64) -> Self {
        Self::try_new(pair, nodes, params, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: validates the shard/region/policy geometry
    /// and reports failures as [`SturgeonError::Setup`].
    pub fn try_new(
        pair: ColocationPair,
        nodes: usize,
        params: FleetParams,
        seed: u64,
    ) -> Result<Self, SturgeonError> {
        if nodes == 0 {
            return Err(SturgeonError::setup("fleet needs at least one node"));
        }
        let shard_count = match params.shards {
            0 => (nodes / 256).clamp(1, 512).min(nodes),
            s if s > nodes => {
                return Err(SturgeonError::setup("more shards than nodes"));
            }
            s => s,
        };
        if params.regions == 0 || params.regions > shard_count {
            return Err(SturgeonError::setup(
                "region count must be in 1..=shard count",
            ));
        }
        if let Some(t) = params.traced_shard {
            if t >= shard_count {
                return Err(SturgeonError::setup("traced shard out of range"));
            }
        }

        if let Some(sp) = &params.scoring {
            sp.validate()?;
        }

        // The fleet is homogeneous: pair-level properties and the
        // environment model come from one setup; nodes differ only in
        // their OS-jitter seed.
        let first = ExperimentSetup::new(pair, seed);
        let peak = first.peak_qps();
        let qos_target = first.qos_target_ms();
        let budget_w = first.budget_w();
        let spec = first.spec().clone();

        // One training for the whole fleet: the profiler is
        // interference-free with its own seed, so every node would train
        // this same predictor.
        let mut cold_start: Option<(String, ColdStartReport)> = None;
        let predictor = match params.scoring.as_ref().filter(|sp| sp.cold_start) {
            Some(sp) => {
                let mut sp = sp.clone();
                if sp.masked_app.is_none() {
                    sp.masked_app = Some(pair.be.name().to_string());
                }
                if sp.fallback {
                    train_fallback_predictor(&first, &sp)?
                } else {
                    let outcome = train_cold_start_predictor(&first, &sp)?;
                    cold_start = Some((sp.masked_app.clone().expect("defaulted"), outcome.report));
                    outcome.predictor
                }
            }
            None => first.train_default_predictor(),
        };
        let predictor = Arc::new(predictor);

        let mut shards = Vec::with_capacity(shard_count);
        let base = nodes / shard_count;
        let extra = nodes % shard_count;
        let mut first_node = 0usize;
        for s in 0..shard_count {
            let len = base + usize::from(s < extra);
            let controller = SturgeonController::with_shared_predictor(
                Arc::clone(&predictor),
                spec.clone(),
                budget_w,
                qos_target,
                params.controller,
            );
            let config = controller.initial_config(&spec);
            config.validate(&spec).map_err(|e| {
                SturgeonError::setup(format!("shard {s}: initial config rejected: {e}"))
            })?;
            // Seeded exactly as `ExperimentSetup::new` seeds node n's
            // environment.
            let jitter = (first_node..first_node + len)
                .map(|n| JitterChain::new(seed.wrapping_add(n as u64)))
                .collect();
            let mut controller = controller;
            let traced = params.traced_shard == Some(s);
            if traced {
                controller.set_tracing(true);
            }
            shards.push(Shard {
                first_node,
                jitter,
                sum_in_target_qps: vec![0.0; len],
                controller,
                config,
                budget_w,
                intervals_stepped: 0,
                jitter_node_intervals: 0,
                last_power_w: 0.0,
                last_be_tput: 0.0,
                sum_qps: 0.0,
                sum_be_tput: 0.0,
                sum_power_w: 0.0,
                overload_intervals: 0,
                p95_hist: Histogram::new(&DEFAULT_BUCKETS),
                power_hist: Histogram::new(&DEFAULT_BUCKETS),
                tput_hist: Histogram::new(&BE_THROUGHPUT_BUCKETS),
                last_mean_p95: 0.0,
                region: 0,
                weight: 0.0,
                qps_per_node: 0.0,
                be_jobs: 1,
                job_factor: 1.0,
                traced,
                trace: Vec::new(),
            });
            first_node += len;
        }

        // Regions: contiguous shard groups, sized as evenly as possible.
        let mut regions = Vec::with_capacity(params.regions);
        let rbase = shard_count / params.regions;
        let rextra = shard_count % params.regions;
        let mut lo = 0usize;
        for r in 0..params.regions {
            let rlen = rbase + usize::from(r < rextra);
            let hi = lo + rlen;
            let region_nodes: usize = shards[lo..hi].iter().map(Shard::len).sum();
            for shard in &mut shards[lo..hi] {
                shard.region = r;
            }
            regions.push(Region {
                lo,
                hi,
                peak_qps: peak * region_nodes as f64,
                dispatcher: Dispatcher::try_new(params.policy.clone(), rlen, qos_target)?,
                p95_buf: vec![0.0; rlen],
            });
            lo = hi;
        }

        // Budget tree: leaves are the shards (leaf cap = per-node budget
        // times the shard's node count), racks are the regions, rows
        // group the racks, one datacenter root. Events are validated
        // against the geometry here so a bad manifest fails at
        // construction, not mid-run.
        let (budget, budget_events) = match &params.budget {
            Some(spec) => {
                let leaf_caps: Vec<f64> =
                    shards.iter().map(|s| budget_w * s.len() as f64).collect();
                let rack_sizes: Vec<usize> = regions.iter().map(|r| r.hi - r.lo).collect();
                let rows = spec.rows.max(1);
                let row_sizes = even_split(rack_sizes.len(), rows).map_err(|_| {
                    SturgeonError::setup(format!(
                        "budget rows must be in 1..={}, got {rows}",
                        rack_sizes.len()
                    ))
                })?;
                let tree = BudgetTree::new(&leaf_caps, &rack_sizes, &row_sizes)?;
                let mut events = spec.events.clone();
                for e in &events {
                    if e.index >= tree.len(e.level) {
                        return Err(SturgeonError::setup(format!(
                            "budget event targets {} {} but the tree has {}",
                            e.level.as_str(),
                            e.index,
                            tree.len(e.level)
                        )));
                    }
                    if !e.at_s.is_finite() || e.at_s < 0.0 {
                        return Err(SturgeonError::setup("budget event at_s must be >= 0"));
                    }
                }
                events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
                (Some(tree), events)
            }
            None => (None, Vec::new()),
        };

        // Scoring tier for placement valuation: the learned set scorer
        // when enabled, else the per-app catalog σ. Scoring absent (or
        // no placement engine to consume it) keeps the legacy global-σ
        // closed form bit for bit.
        let placement_scoring = match &params.scoring {
            Some(sp) if params.placement.is_some() && sp.set_scorer => {
                Some(PlacementScoring::Learned(SetScorer::train(
                    &spec,
                    first.env().power_model(),
                    sp.seed,
                )?))
            }
            Some(_) if params.placement.is_some() => Some(PlacementScoring::PerAppSigma),
            _ => None,
        };

        let placement = match params.placement {
            Some(p) => {
                if p.interval_s == 0 {
                    return Err(SturgeonError::setup("placement interval_s must be >= 1"));
                }
                if p.be_slots == 0 {
                    return Err(SturgeonError::setup("placement be_slots must be >= 1"));
                }
                if !(0.0..=1.0).contains(&p.sigma) {
                    return Err(SturgeonError::setup("placement sigma must be in [0, 1]"));
                }
                let mut engine = ScoredPlacementEngine::new(
                    shards[0].controller.predictor_handle(),
                    spec.clone(),
                    params.controller.search,
                    p,
                );
                if let Some(scoring) = placement_scoring {
                    engine = engine.with_scoring(scoring);
                }
                Some(PlacementRuntime {
                    engine,
                    queued_jobs: 0,
                    migrations: 0,
                    evictions: 0,
                    assignments: 0,
                })
            }
            None => None,
        };

        Ok(Self {
            shards,
            regions,
            predictor,
            env: first.env().clone(),
            peak_qps_per_node: peak,
            node_count: nodes,
            be: pair.be,
            budget,
            budget_events,
            events_applied: 0,
            budget_reclaims: 0,
            placement,
            cold_start,
            cold_start_traced: false,
            set_scores: 0,
            segments: 0,
        })
    }

    /// The cold-start CF fit report, when [`FleetParams::scoring`]
    /// enabled the cold-start path: `(masked app, report)`.
    pub fn cold_start_report(&self) -> Option<(&str, &ColdStartReport)> {
        self.cold_start.as_ref().map(|(app, r)| (app.as_str(), r))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.node_count
    }

    /// True when the fleet has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The node spec shared by the whole fleet.
    pub fn spec(&self) -> &NodeSpec {
        self.env.spec()
    }

    /// Aggregate peak capacity (QPS) of the fleet.
    pub fn peak_qps(&self) -> f64 {
        self.peak_qps_per_node * self.node_count as f64
    }

    /// Runs the fleet for `duration_s` intervals under one fleet-wide
    /// load profile (every region follows it against its own capacity).
    pub fn run(&mut self, profile: LoadProfile, duration_s: u32) -> FleetResult {
        let profiles = vec![profile; self.regions.len()];
        self.run_impl(&profiles, duration_s, None)
            .expect("region count matches by construction")
    }

    /// Runs the fleet with one load profile per region — the
    /// regional-failover composition: give the failing region a profile
    /// that drops to zero and the survivors one that absorbs the spill.
    pub fn run_regional(
        &mut self,
        profiles: &[LoadProfile],
        duration_s: u32,
    ) -> Result<FleetResult, SturgeonError> {
        self.run_impl(profiles, duration_s, None)
    }

    /// Like [`Fleet::run_regional`], but streams the traced shard's
    /// decision trace (see [`FleetParams::traced_shard`]) into `sink`.
    pub fn run_regional_traced(
        &mut self,
        profiles: &[LoadProfile],
        duration_s: u32,
        sink: &mut dyn TraceSink,
    ) -> Result<FleetResult, SturgeonError> {
        self.run_impl(profiles, duration_s, Some(sink))
    }

    fn run_impl(
        &mut self,
        profiles: &[LoadProfile],
        duration_s: u32,
        mut sink: Option<&mut dyn TraceSink>,
    ) -> Result<FleetResult, SturgeonError> {
        if profiles.len() != self.regions.len() {
            return Err(SturgeonError::setup("one load profile per region"));
        }
        // The cold-start prediction happened at construction; surface it
        // once at the head of the first traced run.
        if !self.cold_start_traced {
            if let (Some(sink), Some((app, report))) =
                (sink.as_deref_mut(), self.cold_start.as_ref())
            {
                sink.record(&TraceEvent::ColdStartPredicted {
                    t_s: 0.0,
                    app: app.clone(),
                    cells: report.cold_start_cells as usize,
                    rmse_heldout: report.rmse_heldout_tput,
                });
                self.cold_start_traced = true;
            }
        }
        let mut t = 0;
        while t < duration_s {
            // Budget events due at or before this interval tighten (or
            // relax) tree caps and push the reclaimed per-node budgets
            // into the shard controllers before load is dispatched.
            self.apply_budget_events(t as f64, &mut sink);
            let end = self.segment_end(t, duration_s);
            // Dispatch: per region, weight the shards from last-interval
            // summaries. Even weights never change and a
            // LatencyAware segment is one interval long, so the weights
            // hold for the whole segment; each shard stages its per-node
            // share interval by interval from the region's load profile.
            for region in &mut self.regions {
                for (slot, shard) in region
                    .p95_buf
                    .iter_mut()
                    .zip(&self.shards[region.lo..region.hi])
                {
                    *slot = shard.last_mean_p95;
                }
                let weights = region.dispatcher.fill_weights(&region.p95_buf);
                for (shard, &w) in self.shards[region.lo..region.hi].iter_mut().zip(weights) {
                    shard.weight = w;
                }
            }
            // One parallel stage steps the segment: one contiguous shard
            // group per worker, stepped interval by interval.
            let env = &self.env;
            let regions = &self.regions;
            let group_len = self.shards.len().div_ceil(rayon::current_num_threads());
            let mut groups: Vec<&mut [Shard]> = self.shards.chunks_mut(group_len).collect();
            groups.par_iter_mut().for_each(|group| {
                for interval in t..end {
                    for shard in group.iter_mut() {
                        let peak_qps = regions[shard.region].peak_qps;
                        shard.step_interval(env, &profiles[shard.region], peak_qps, interval);
                    }
                }
            });
            self.segments += 1;
            // Drain the traced shard serially, keeping event order
            // deterministic regardless of shard scheduling. No budget
            // event or placement boundary falls inside a segment, so the
            // trace order equals a per-interval drain's.
            if let Some(sink) = sink.as_deref_mut() {
                for shard in self.shards.iter_mut().filter(|s| s.traced) {
                    for event in shard.trace.drain(..) {
                        sink.record(&event);
                    }
                }
            }
            // Placement boundary: consult the engine on fresh telemetry,
            // apply its plan, and re-apportion the budget so watts follow
            // the jobs.
            let due = self
                .placement
                .as_ref()
                .is_some_and(|rt| end.is_multiple_of(rt.engine.params().interval_s));
            if due {
                self.run_placement(end as f64, &mut sink);
            }
            t = end;
        }
        Ok(self.result())
    }

    /// The exclusive end of the segment starting at interval `t`: the
    /// first later coupling event, or the run end. The next budget
    /// event applies at the first interval at or after its `at_s`; a
    /// placement round runs after every `interval_s`-th interval; a
    /// dispatcher that reads shard latencies reweights every interval.
    fn segment_end(&self, t: u32, duration_s: u32) -> u32 {
        if self.regions.iter().any(|r| r.dispatcher.reads_feedback()) {
            return t + 1;
        }
        let mut end = u64::from(duration_s);
        if let Some(event) = self.budget_events.get(self.events_applied) {
            // Every event at or before `t` was applied, so this is > t.
            end = end.min(event.at_s.ceil() as u64);
        }
        if let Some(rt) = &self.placement {
            let every = u64::from(rt.engine.params().interval_s);
            end = end.min((u64::from(t) / every + 1) * every);
        }
        end as u32
    }

    /// Applies every budget event due at or before `t_s`, then
    /// re-apportions the tree against the latest measured per-shard
    /// power demand and pushes the resulting per-node caps into the
    /// shard controllers as budget-cut observations.
    fn apply_budget_events(&mut self, t_s: f64, sink: &mut Option<&mut dyn TraceSink>) {
        let Some(tree) = self.budget.as_mut() else {
            return;
        };
        let mut applied = Vec::new();
        while let Some(event) = self.budget_events.get(self.events_applied) {
            if event.at_s > t_s {
                break;
            }
            // Index and cap were validated at construction.
            if let Ok(cap_w) = tree.set_cap(event.level, event.index, event.cap) {
                applied.push((event.level, event.index, cap_w));
            }
            self.events_applied += 1;
        }
        if applied.is_empty() {
            return;
        }
        self.reapportion_budget();
        if let (Some(sink), Some(tree)) = (sink.as_deref_mut(), self.budget.as_ref()) {
            let reclaimed_w = tree.reclaimed_w();
            for (level, index, cap_w) in applied {
                sink.record(&TraceEvent::BudgetReclaimed {
                    t_s,
                    level: level.as_str(),
                    index,
                    cap_w,
                    reclaimed_w,
                });
            }
        }
    }

    /// One placement round: snapshot the fleet, let the engine plan,
    /// apply the valid actions, then refresh each shard's co-runner
    /// factor / idle flag and re-apportion the budget so reclaimed watts
    /// follow the jobs.
    fn run_placement(&mut self, t_s: f64, sink: &mut Option<&mut dyn TraceSink>) {
        let Some(rt) = self.placement.as_mut() else {
            return;
        };
        let be_slots = rt.engine.params().be_slots;
        let view = FleetView {
            t_s,
            be: self.be,
            units: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| UnitView {
                    unit: i,
                    first_node: s.first_node,
                    nodes: s.len(),
                    qps_per_node: s.qps_per_node,
                    cap_w: s.budget_w,
                    safe_mode: s.controller.in_safe_mode(),
                    exhausted: s.controller.balancer_exhausted(),
                    be_jobs: s.be_jobs,
                    be_slots,
                    last_be_tput: s.node_sum(s.last_be_tput),
                })
                .collect(),
            queued_jobs: rt.queued_jobs,
        };
        let plan = rt.engine.plan(&view);
        for action in &plan.actions {
            match *action {
                PlacementAction::Assign { unit, .. } => {
                    let Some(shard) = self.shards.get_mut(unit) else {
                        continue;
                    };
                    if rt.queued_jobs == 0 || shard.be_jobs >= be_slots {
                        continue;
                    }
                    rt.queued_jobs -= 1;
                    shard.be_jobs += 1;
                    rt.assignments += 1;
                    if let Some(sink) = sink.as_deref_mut() {
                        sink.record(&TraceEvent::BeMigrated {
                            t_s,
                            action: "assign",
                            from: None,
                            to: Some(unit),
                            be: self.be.name(),
                        });
                    }
                }
                PlacementAction::Migrate { from, to, .. } => {
                    if from == to || from >= self.shards.len() || to >= self.shards.len() {
                        continue;
                    }
                    if self.shards[from].be_jobs == 0 || self.shards[to].be_jobs >= be_slots {
                        continue;
                    }
                    self.shards[from].be_jobs -= 1;
                    self.shards[to].be_jobs += 1;
                    rt.migrations += 1;
                    if let Some(sink) = sink.as_deref_mut() {
                        sink.record(&TraceEvent::BeMigrated {
                            t_s,
                            action: "migrate",
                            from: Some(from),
                            to: Some(to),
                            be: self.be.name(),
                        });
                    }
                }
                PlacementAction::Evict { unit, .. } => {
                    let Some(shard) = self.shards.get_mut(unit) else {
                        continue;
                    };
                    if shard.be_jobs == 0 {
                        continue;
                    }
                    shard.be_jobs -= 1;
                    rt.queued_jobs += 1;
                    rt.evictions += 1;
                    if let Some(sink) = sink.as_deref_mut() {
                        sink.record(&TraceEvent::BeMigrated {
                            t_s,
                            action: "evict",
                            from: Some(unit),
                            to: None,
                            be: self.be.name(),
                        });
                    }
                }
            }
        }
        // Refresh counted-throughput factors and park/unpark partitions.
        // The factor is the engine's own valuation, so counted throughput
        // and placement agree on what a multiplexed partition is worth.
        let learned = matches!(rt.engine.scoring(), Some(PlacementScoring::Learned(_)));
        for (unit, shard) in self.shards.iter_mut().enumerate() {
            shard.job_factor = rt.engine.score_jobs(self.be, shard.be_jobs);
            shard.controller.set_be_idle(shard.be_jobs == 0);
            if learned && shard.be_jobs > 0 {
                self.set_scores += 1;
                if let Some(sink) = sink.as_deref_mut() {
                    sink.record(&TraceEvent::SetScored {
                        t_s,
                        unit,
                        k: shard.be_jobs as usize,
                        score: shard.job_factor,
                    });
                }
            }
        }
        // Watts follow the jobs: parked partitions stop drawing BE power,
        // so a fresh demand-aware apportionment shifts their headroom to
        // job-holding shards (never above nominal per-node caps).
        self.reapportion_budget();
    }

    /// Re-apportions the budget tree against each shard's last-interval
    /// measured power (zero before the first step, which degrades to
    /// pro-rata on nominal caps), pushes the resulting per-node caps into
    /// the shard controllers, and counts the round as a reclaim when any
    /// cap moved. A no-op without a budget tree.
    fn reapportion_budget(&mut self) {
        let Some(tree) = self.budget.as_mut() else {
            return;
        };
        let demands: Vec<f64> = self
            .shards
            .iter()
            .map(|s| s.node_sum(s.last_power_w))
            .collect();
        tree.reclaim(Some(&demands));
        let mut changed = false;
        for (shard, leaf_eff) in self.shards.iter_mut().zip(tree.leaf_caps_w()) {
            let per_node = leaf_eff / shard.len() as f64;
            if shard.controller.set_budget_w(per_node) {
                shard.budget_w = per_node;
                changed = true;
            }
        }
        if changed {
            self.budget_reclaims += 1;
        }
    }

    /// Folds the current streaming aggregates and the run summary into
    /// `registry` after a run: the per-shard histogram buckets are merged
    /// in shard order, so the registry contents are deterministic even
    /// though shards step in parallel.
    pub fn export_metrics(&self, result: &FleetResult, registry: &MetricsRegistry) {
        registry.set_gauge("fleet.nodes", self.node_count as f64);
        registry.set_gauge("fleet.shards", self.shards.len() as f64);
        registry.set_gauge("fleet.regions", self.regions.len() as f64);
        registry.add("fleet.segments", self.segments);
        let mut intervals = 0u64;
        let mut jitter_intervals = 0u64;
        for shard in &self.shards {
            intervals += shard.intervals_stepped as u64 * shard.len() as u64;
            jitter_intervals += shard.jitter_node_intervals;
            registry.merge_histogram("interval.p95_ms", &shard.p95_hist);
            registry.merge_histogram("interval.power_w", &shard.power_hist);
            registry.merge_histogram("interval.be_throughput", &shard.tput_hist);
        }
        registry.add("run.intervals", intervals);
        let mut pruned_cells = 0u64;
        let mut pruned_slices = 0u64;
        let mut frontier_reuses = 0u64;
        for shard in &self.shards {
            let (cells, slices, reuses) = shard.controller.pruned_totals();
            pruned_cells += cells;
            pruned_slices += slices;
            frontier_reuses += reuses;
        }
        registry.add("search.pruned_candidates", pruned_cells);
        registry.add("search.pruned_subspaces", pruned_slices);
        registry.add("search.frontier_reuses", frontier_reuses);
        registry.add(
            "controller.stale_intervals",
            result.fault_counters.stale_intervals,
        );
        registry.add(
            "controller.safe_mode_entries",
            result.fault_counters.safe_mode_entries,
        );
        registry.add(
            "balancer.retry_rounds",
            result.fault_counters.balancer_retry_rounds,
        );
        registry.add("fleet.trainings", result.trainings);
        registry.add("fleet.table_builds", result.table_builds);
        registry.add("fleet.slab_builds", result.slab_builds);
        registry.add("fleet.jitter_node_intervals", jitter_intervals);
        registry.add("search.runs", result.searches);
        registry.add("budget.reclaims", result.budget_reclaims);
        registry.add("placement.migrations", result.migrations);
        registry.add("placement.evictions", result.evictions);
        registry.add("placement.assignments", result.assignments);
        if let Some((_, report)) = &self.cold_start {
            registry.add("scoring.cold_starts", 1);
            registry.add("scoring.cells_observed", report.cells_observed);
            registry.add("scoring.cells_hidden", report.cells_hidden);
            registry.add("scoring.cold_start_cells", report.cold_start_cells);
            registry.set_gauge("scoring.rmse_heldout", report.rmse_heldout_tput);
        }
        registry.add("scoring.set_scores", result.set_scores);
        registry.set_gauge("fleet.qos_rate", result.qos_rate);
        registry.set_gauge("fleet.total_be_throughput", result.total_be_throughput);
        registry.set_gauge("fleet.mean_power_w", result.mean_fleet_power_w);
        registry.set_gauge("fleet.budget_w", result.fleet_budget_w);
    }

    /// Aggregates the per-node running sums into the run summary. Node
    /// order and formulas mirror [`crate::cluster::Cluster`] exactly, so
    /// a one-node-per-shard fleet reproduces `ClusterResult` bit for
    /// bit.
    fn result(&self) -> FleetResult {
        let mut nodes = Vec::with_capacity(self.node_count);
        let mut total_q = 0.0;
        let mut in_target_q = 0.0;
        let mut total_tput = 0.0;
        let mut total_power = 0.0;
        let mut budget = 0.0;
        let mut fault_counters = ControllerFaultCounters::default();
        let mut searches = 0u64;
        for shard in &self.shards {
            let c = shard.controller.fault_counters();
            fault_counters.stale_intervals += c.stale_intervals;
            fault_counters.safe_mode_entries += c.safe_mode_entries;
            fault_counters.balancer_retry_rounds += c.balancer_retry_rounds;
            searches += shard.controller.search_count();
            // The same aggregates TelemetryLog computes, from the
            // streamed running sums.
            let q = shard.sum_qps;
            let intervals = f64::from(shard.intervals_stepped);
            let (tput, mean_power, overload) = if shard.intervals_stepped == 0 {
                (0.0, 0.0, 0.0)
            } else {
                (
                    shard.sum_be_tput / intervals,
                    shard.sum_power_w / intervals,
                    f64::from(shard.overload_intervals) / intervals,
                )
            };
            for (i, &node_in_target) in shard.sum_in_target_qps.iter().enumerate() {
                let qos = if q == 0.0 { 1.0 } else { node_in_target / q };
                total_q += q;
                in_target_q += q * qos;
                total_tput += tput;
                total_power += mean_power;
                budget += shard.budget_w;
                nodes.push(NodeResult {
                    node: shard.first_node + i,
                    qos_rate: qos,
                    mean_be_throughput: tput,
                    overload_fraction: overload,
                    mean_power_w: mean_power,
                    safe_mode_entries: c.safe_mode_entries,
                });
            }
        }
        FleetResult {
            nodes,
            qos_rate: if total_q > 0.0 {
                in_target_q / total_q
            } else {
                1.0
            },
            total_be_throughput: total_tput,
            mean_fleet_power_w: total_power,
            fleet_budget_w: budget,
            fault_counters,
            trainings: 1,
            table_builds: self.predictor.table_builds(),
            slab_builds: self.predictor.slab_builds(),
            searches,
            budget_reclaims: self.budget_reclaims,
            migrations: self.placement.as_ref().map_or(0, |rt| rt.migrations),
            evictions: self.placement.as_ref().map_or(0, |rt| rt.evictions),
            assignments: self.placement.as_ref().map_or(0, |rt| rt.assignments),
            cold_start_cells: self
                .cold_start
                .as_ref()
                .map_or(0, |(_, r)| r.cold_start_cells),
            set_scores: self.set_scores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{SearchParams, SearchStrategy};
    use sturgeon_workloads::catalog::{BeAppId, LsServiceId};

    fn pair() -> ColocationPair {
        ColocationPair::new(LsServiceId::Xapian, BeAppId::Swaptions)
    }

    fn pruned_params() -> ControllerParams {
        ControllerParams {
            search: SearchParams {
                strategy: SearchStrategy::FrontierPruned,
                ..SearchParams::default()
            },
            ..ControllerParams::default()
        }
    }

    #[test]
    fn shared_fleet_trains_once_and_builds_tables_once() {
        let params = FleetParams {
            shards: 4,
            controller: pruned_params(),
            ..FleetParams::default()
        };
        let mut fleet = Fleet::new(pair(), 16, params, 42);
        assert_eq!(fleet.shard_count(), 4);
        let r = fleet.run(LoadProfile::Constant { fraction: 0.3 }, 40);
        assert!(r.qos_rate > 0.9, "fleet QoS {}", r.qos_rate);
        assert_eq!(r.trainings, 1, "the fleet must train exactly once");
        assert_eq!(
            r.table_builds, 1,
            "4 pruned shard searches must share one table build"
        );
        assert!(r.searches >= 4, "every shard searches at least once");
        assert_eq!(r.nodes.len(), 16);
        // Constant load keeps every shard in the same few buckets, and the
        // shared family allocates each bucket once.
        assert!(r.slab_builds >= 1, "pruned searches build slabs");
        assert!(
            r.slab_builds <= 2,
            "4 shards at one load share slab builds, got {}",
            r.slab_builds
        );
        let registry = MetricsRegistry::new();
        fleet.export_metrics(&r, &registry);
        assert_eq!(registry.counter("fleet.slab_builds"), r.slab_builds);
    }

    #[test]
    fn pruned_fleet_exports_prune_counters() {
        let params = FleetParams {
            shards: 2,
            controller: pruned_params(),
            ..FleetParams::default()
        };
        let mut fleet = Fleet::new(pair(), 2, params, 42);
        let registry = MetricsRegistry::new();
        // A triangle wave revisits its load levels on the way back down,
        // so later searches land in QPS buckets the frontier cache has
        // already seen.
        let r = fleet.run(LoadProfile::paper_fluctuating(80.0), 80);
        fleet.export_metrics(&r, &registry);
        // The exact engine optimizes over the whole space, so the fleet
        // must still hold QoS (lenient: the exhaustive-equivalent pick can
        // sit closer to the feasibility edge than the hardened heuristic).
        assert!(r.qos_rate > 0.8, "pruned fleet QoS {}", r.qos_rate);
        assert!(
            registry.counter("search.pruned_candidates") > 0,
            "table bounds must prune at fleet scale"
        );
        assert!(
            registry.counter("search.frontier_reuses") > 0,
            "revisited load levels must hit the frontier cache"
        );
    }

    #[test]
    fn streaming_memory_is_independent_of_duration() {
        let params = FleetParams {
            shards: 2,
            ..FleetParams::default()
        };
        let mut fleet = Fleet::new(pair(), 8, params, 11);
        let r = fleet.run(LoadProfile::paper_fluctuating(60.0), 120);
        // The streamed aggregates saw every node-interval.
        let registry = MetricsRegistry::new();
        fleet.export_metrics(&r, &registry);
        assert_eq!(registry.counter("run.intervals"), 8 * 120);
        assert_eq!(
            registry.histogram("interval.p95_ms").unwrap().count,
            8 * 120
        );
        assert_eq!(registry.gauge("fleet.qos_rate"), Some(r.qos_rate));
    }

    #[test]
    fn jittered_node_intervals_are_counted() {
        let params = FleetParams {
            shards: 2,
            ..FleetParams::default()
        };
        let mut fleet = Fleet::new(pair(), 8, params, 5);
        let r = fleet.run(LoadProfile::Constant { fraction: 0.4 }, 100);
        let registry = MetricsRegistry::new();
        fleet.export_metrics(&r, &registry);
        // About 5.8% of node-intervals see a jitter spike (a 3-interval
        // mean spike per 52-interval cycle): some, but far from all,
        // leave the shared quiet-latency path.
        let jittered = registry.counter("fleet.jitter_node_intervals");
        assert!(
            0 < jittered && jittered < 8 * 100,
            "jittered node-intervals {jittered}"
        );
    }

    #[test]
    fn regional_failover_moves_load_to_survivors() {
        let params = FleetParams {
            shards: 4,
            regions: 2,
            ..FleetParams::default()
        };
        let mut fleet = Fleet::new(pair(), 8, params, 3);
        assert_eq!(fleet.region_count(), 2);
        let base = LoadProfile::Constant { fraction: 0.4 };
        let failing = LoadProfile::Failover {
            base: Box::new(base.clone()),
            at_s: 20.0,
            outage_s: 40.0,
            takeover: 0.5,
            role: sturgeon_workloads::loadgen::FailoverRole::Failing,
        };
        let surviving = LoadProfile::Failover {
            base: Box::new(base),
            at_s: 20.0,
            outage_s: 40.0,
            takeover: 0.5,
            role: sturgeon_workloads::loadgen::FailoverRole::Survivor,
        };
        let r = fleet
            .run_regional(&[failing, surviving], 80)
            .expect("two profiles, two regions");
        assert!(r.qos_rate > 0.85, "failover fleet QoS {}", r.qos_rate);
        // The failing region's nodes (first half) served fewer queries;
        // check via the survivors' higher mean power draw under load.
        let first_half: f64 = r.nodes[..4].iter().map(|n| n.mean_power_w).sum();
        let second_half: f64 = r.nodes[4..].iter().map(|n| n.mean_power_w).sum();
        assert!(
            second_half > first_half,
            "survivors must absorb load: {first_half:.1} vs {second_half:.1}"
        );
    }

    #[test]
    fn try_new_rejects_bad_geometry() {
        let err = |p: FleetParams, n: usize| Fleet::try_new(pair(), n, p, 1).err().unwrap();
        assert!(matches!(
            err(FleetParams::default(), 0),
            SturgeonError::Setup(_)
        ));
        let e = err(
            FleetParams {
                shards: 5,
                ..FleetParams::default()
            },
            3,
        );
        assert!(e.to_string().contains("shards"), "{e}");
        let e = err(
            FleetParams {
                shards: 2,
                regions: 3,
                ..FleetParams::default()
            },
            4,
        );
        assert!(e.to_string().contains("region"), "{e}");
    }

    #[test]
    fn auto_shards_scale_with_nodes() {
        let f = Fleet::new(pair(), 1, FleetParams::default(), 1);
        assert_eq!(f.shard_count(), 1);
        let params = FleetParams {
            shards: 2,
            ..FleetParams::default()
        };
        let f = Fleet::new(pair(), 3, params, 1);
        assert_eq!(f.shard_count(), 2);
        // Contiguous split: 2 + 1.
        assert_eq!(f.shards[0].len(), 2);
        assert_eq!(f.shards[1].len(), 1);
        assert_eq!(f.shards[1].first_node, 2);
    }

    #[test]
    fn node_sum_folds_node_by_node() {
        // The perfbench ledger replay keeps one value per node and sums
        // them node by node (`iter().sum()`), so a shard-uniform value
        // must be folded the same way to reproduce it bit for bit. 0.1
        // folded ten times is 0.9999999999999999; `0.1 * 10.0` is 1.0.
        let params = FleetParams {
            shards: 1,
            ..FleetParams::default()
        };
        let f = Fleet::new(pair(), 10, params, 1);
        let shard = &f.shards[0];
        assert_eq!(shard.len(), 10);
        let folded: f64 = [0.1; 10].iter().sum();
        assert_eq!(folded, 0.9999999999999999);
        assert_ne!(folded, 0.1 * 10.0);
        assert_eq!(shard.node_sum(0.1).to_bits(), folded.to_bits());
    }
}
