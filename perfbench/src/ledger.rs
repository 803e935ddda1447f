//! The traced run: a per-layer ledger of where host time goes.
//!
//! Spans are recorded by this package around calls into each module's
//! public functions; no crate source is instrumented. The traced run is
//! separate from the untraced run that produces the end-to-end metrics:
//!
//! * **Setup layers** are timed by calling them directly: profiling,
//!   predictor training, `model_tables`, cold-start (CF) training and
//!   `SetScorer::train`, and — after the run — `ls_slab` for every QPS
//!   bucket the run visited, on a predictor whose slabs are still cold.
//! * **Fleets** are replayed single-threaded from public calls
//!   (per-node environments, `Dispatcher::fill_weights`,
//!   `step_invariants`/`step_with`, `SturgeonController::decide` on the
//!   shard mean, `BudgetTree::reclaim`, `ScoredPlacementEngine::plan`).
//!   Being single-threaded, the replay can read per-search model-call
//!   and cache counters without picking up other shards' calls. The
//!   replay is checked against an untraced `Fleet` run of the same seed.
//! * **The node** runs through `RunBuilder` with its controller wrapped
//!   in a `ResourceController` that times each `decide`.

use crate::cases::{split, Case, FleetCase, Geometry, NodeCase, PAIR};
use crate::measure::{same_node, same_run};
use crate::util::{median, percentile, ratio, timed, Metric, Report};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use sturgeon::cluster::NodeResult;
use sturgeon::prelude::*;
use sturgeon_workloads::env::{CoLocationEnv, Observation};

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Decide-call accounting shared by the fleet replay and the node wrapper.
#[derive(Default)]
struct Decides {
    total_s: f64,
    calls: u64,
    /// Decide time (µs) of calls that ran a search and built no slab.
    search_us: Vec<f64>,
    /// Decide time minus the search's own duration (µs), every call.
    self_us: Vec<f64>,
    searches: u64,
    candidates: u64,
    model_calls: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Decides {
    fn record(&mut self, dt: f64, search: Option<SearchStats>, built_slab: bool) {
        self.total_s += dt;
        self.calls += 1;
        let Some(s) = search else {
            self.self_us.push(dt * 1e6);
            return;
        };
        self.searches += 1;
        self.candidates += s.candidates as u64;
        self.model_calls += s.model_calls;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        if !built_slab {
            self.search_us.push(dt * 1e6);
        }
        self.self_us
            .push((dt - s.duration.as_secs_f64()).max(0.0) * 1e6);
    }

    fn fill(&self, l: &mut Layers) {
        l.search_us_p50 = percentile(&self.search_us, 0.50);
        l.search_us_p99 = percentile(&self.search_us, 0.99);
        l.candidates_per_search = ratio(self.candidates as f64, self.searches as f64);
        l.model_calls_per_search = ratio(self.model_calls as f64, self.searches as f64);
        l.prediction_hit_rate = ratio(
            self.cache_hits as f64,
            (self.cache_hits + self.cache_misses) as f64,
        );
        l.decide_self_us_p50 = percentile(&self.self_us, 0.50);
        l.decisions = self.calls as f64;
        eprintln!(
            "decides: {} calls, {} searches ({} timed without slab builds); \
             cache {} hits / {} lookups",
            self.calls,
            self.searches,
            self.search_us.len(),
            self.cache_hits,
            self.cache_hits + self.cache_misses
        );
    }
}

/// Every per-layer metric; zero where a workload does not reach a layer.
#[derive(Default)]
struct Layers {
    collect_ms: f64,
    train_ms: f64,
    model_tables_ms: f64,
    cf_train_ms: f64,
    set_scorer_train_ms: f64,
    slab_builds: f64,
    slab_build_ms_p50: f64,
    slab_build_ms_total: f64,
    search_runs: f64,
    search_us_p50: f64,
    search_us_p99: f64,
    candidates_per_search: f64,
    model_calls_per_search: f64,
    prediction_hit_rate: f64,
    incremental_reuse_ratio: f64,
    frontier_reuses: f64,
    pruned_candidates: f64,
    decide_self_us_p50: f64,
    decisions: f64,
    safe_mode_entries: f64,
    stale_intervals: f64,
    balancer_steps: f64,
    balancer_retry_rounds: f64,
    faults_seen: f64,
    actuation_retries: f64,
    retry_success_ratio: f64,
    env_build_ms: f64,
    step_ns_per_node: f64,
    step_invariants_us: f64,
    step_share: f64,
    fill_weights_ns: f64,
    reclaim_us: f64,
    reclaims: f64,
    plan_us: f64,
    plans: f64,
    migrations: f64,
    set_scores: f64,
    overhead_s: f64,
    unattributed_s: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        let m = Metric::new;
        vec![
            m("profiler.collect_ms", "ms", self.collect_ms),
            m("predictor.train_ms", "ms", self.train_ms),
            m("tables.model_tables_ms", "ms", self.model_tables_ms),
            m("scoring.cf_train_ms", "ms", self.cf_train_ms),
            m(
                "scoring.set_scorer_train_ms",
                "ms",
                self.set_scorer_train_ms,
            ),
            m("tables.slab_builds", "count", self.slab_builds),
            m("tables.slab_build_ms_p50", "ms", self.slab_build_ms_p50),
            m("tables.slab_build_ms_total", "ms", self.slab_build_ms_total),
            m("search.runs", "count", self.search_runs),
            m("search.us_p50", "us", self.search_us_p50),
            m("search.us_p99", "us", self.search_us_p99),
            m(
                "search.candidates_per_search",
                "count",
                self.candidates_per_search,
            ),
            m(
                "search.model_calls_per_search",
                "count",
                self.model_calls_per_search,
            ),
            m(
                "cache.prediction_hit_rate",
                "ratio",
                self.prediction_hit_rate,
            ),
            m(
                "search.incremental_reuse_ratio",
                "ratio",
                self.incremental_reuse_ratio,
            ),
            m("search.frontier_reuses", "count", self.frontier_reuses),
            m("search.pruned_candidates", "count", self.pruned_candidates),
            m(
                "controller.decide_self_us_p50",
                "us",
                self.decide_self_us_p50,
            ),
            m("controller.decisions", "count", self.decisions),
            m(
                "controller.safe_mode_entries",
                "count",
                self.safe_mode_entries,
            ),
            m("controller.stale_intervals", "count", self.stale_intervals),
            m("balancer.steps", "count", self.balancer_steps),
            m("balancer.retry_rounds", "count", self.balancer_retry_rounds),
            m("simnode.faults_seen", "count", self.faults_seen),
            m("simnode.actuation_retries", "count", self.actuation_retries),
            m(
                "simnode.retry_success_ratio",
                "ratio",
                self.retry_success_ratio,
            ),
            m("workloads.env_build_ms", "ms", self.env_build_ms),
            m("workloads.step_ns_per_node", "ns", self.step_ns_per_node),
            m(
                "workloads.step_invariants_us",
                "us",
                self.step_invariants_us,
            ),
            m("workloads.step_share", "ratio", self.step_share),
            m("dispatch.fill_weights_ns", "ns", self.fill_weights_ns),
            m("budget.reclaim_us", "us", self.reclaim_us),
            m("budget.reclaims", "count", self.reclaims),
            m("placement.plan_us", "us", self.plan_us),
            m("placement.plans", "count", self.plans),
            m("placement.migrations", "count", self.migrations),
            m("scoring.set_scores", "count", self.set_scores),
            m("trace.overhead_s", "s", self.overhead_s),
            m("trace.unattributed_s", "s", self.unattributed_s),
        ]
    }
}

pub fn run(case: &Case) -> Result<Report, String> {
    match case {
        Case::Fleet(c) => fleet(c),
        Case::Node(c) => node(c),
    }
}

/// Profiles the pair and trains the default predictor, timing each.
fn profile_and_train(
    setup: &ExperimentSetup,
    l: &mut Layers,
) -> Result<(ProfileDatasets, PerfPowerPredictor, f64), String> {
    let (datasets, collect_s) = timed(|| setup.profile(ProfilerConfig::default()));
    let datasets = datasets.map_err(err)?;
    let (predictor, train_s) = timed(|| train(setup, &datasets));
    l.collect_ms = collect_s * 1e3;
    l.train_ms = train_s * 1e3;
    Ok((datasets, predictor?, collect_s + train_s))
}

/// `ExperimentSetup::train_default_predictor`, from given datasets.
fn train(
    setup: &ExperimentSetup,
    datasets: &ProfileDatasets,
) -> Result<PerfPowerPredictor, String> {
    PerfPowerPredictor::train(
        datasets,
        PredictorConfig::default(),
        setup.env().static_power_w(),
        setup.env().be().params.input_level as f64,
        setup.qos_target_ms(),
    )
    .map_err(err)
}

fn fleet(case: &FleetCase) -> Result<Report, String> {
    // The untraced reference run of the same seed.
    let start = Instant::now();
    let mut built = case.build().map_err(err)?;
    let reference = built
        .run_regional(&case.profiles, case.intervals)
        .map_err(err)?;
    let untraced_s = start.elapsed().as_secs_f64();
    let registry = MetricsRegistry::new();
    built.export_metrics(&reference, &registry);
    drop(built);

    let start = Instant::now();
    let mut l = Layers::default();
    let first = ExperimentSetup::new(PAIR, case.seed);
    let spec = first.spec().clone();
    let (datasets, cold, mut spans_s) = profile_and_train(&first, &mut l)?;
    // The replay's own predictor: the cold-start (CF) one when the fleet
    // trains it, else a second default training (the first stays cold
    // for the slab timings below).
    let scoring = case.params.scoring.clone();
    let (predictor, s) = match scoring.as_ref().filter(|sp| sp.cold_start) {
        Some(sp) => {
            let mut sp = sp.clone();
            sp.masked_app
                .get_or_insert_with(|| PAIR.be.name().to_string());
            let (outcome, s) = timed(|| train_cold_start_predictor(&first, &sp));
            l.cf_train_ms = s * 1e3;
            (outcome.map_err(err)?.predictor, s)
        }
        None => {
            let (p, s) = timed(|| train(&first, &datasets));
            (p?, s)
        }
    };
    spans_s += s;
    let predictor = Arc::new(predictor);
    let (_, s) = timed(|| predictor.model_tables(&spec));
    l.model_tables_ms = s * 1e3;
    spans_s += s;
    let placement_scoring = match &scoring {
        Some(sp) if case.params.placement.is_some() && sp.set_scorer => {
            let (scorer, s) = timed(|| SetScorer::train(&spec, first.env().power_model(), sp.seed));
            l.set_scorer_train_ms = s * 1e3;
            spans_s += s;
            Some(PlacementScoring::Learned(scorer.map_err(err)?))
        }
        Some(_) if case.params.placement.is_some() => Some(PlacementScoring::PerAppSigma),
        _ => None,
    };

    let (replay, env_s) = timed(|| Replay::new(case, &first, &predictor, placement_scoring));
    let mut replay = replay?;
    let (_, loop_s) = timed(|| replay.run(&case.profiles, case.intervals));

    // Slab builds, one by one, on the cold predictor.
    let slabs = cold.ls_slabs(&spec, case.params.controller.search.power_load_headroom);
    let slab_ms: Vec<f64> = replay
        .visited
        .iter()
        .map(|&bucket| timed(|| cold.ls_slab(&spec, &slabs, bucket)).1 * 1e3)
        .collect();
    let traced_s = start.elapsed().as_secs_f64();

    // Bit-exactness against the untraced fleet.
    let nodes = replay.nodes();
    let shard0 = replay.shards[0].envs.len();
    let same: Vec<bool> = nodes
        .iter()
        .zip(&reference.nodes)
        .map(|(a, b)| same_node(a, b))
        .collect();
    let mismatched = same.iter().filter(|s| !**s).count();
    let shard0_exact = same[..shard0].iter().all(|s| *s);
    // Budget cuts and placement are replayed too, but only the plain
    // diurnal fleets are required to reproduce the run exactly.
    let exact_required = case.params.budget.is_none() && case.params.placement.is_none();
    eprintln!(
        "replay: shard 0 ({shard0} nodes) bit-exact: {}; {mismatched} of {} nodes differ{}",
        if shard0_exact { "yes" } else { "NO" },
        reference.nodes.len(),
        if exact_required {
            ""
        } else {
            " (not required to be exact on this workload)"
        }
    );
    if replay.visited.len() as u64 != predictor.slab_builds() {
        eprintln!(
            "note: {} slab buckets visited, {} built",
            replay.visited.len(),
            predictor.slab_builds()
        );
    }

    let d = &replay.decides;
    let sp = &replay.spans;
    let slab_total_ms = slab_ms.iter().fold(0.0, |a, b| a + b);
    spans_s += env_s
        + slab_total_ms / 1e3
        + sp.fill_s
        + sp.invariants_s
        + sp.step_s
        + d.total_s
        + sp.reclaim_s
        + sp.plan_s;
    d.fill(&mut l);
    l.slab_builds = predictor.slab_builds() as f64;
    l.slab_build_ms_p50 = median(&slab_ms);
    l.slab_build_ms_total = slab_total_ms;
    // Fleet-wide search totals come from the untraced fleet: its
    // per-controller counters are exact even with shards in parallel.
    l.search_runs = reference.searches as f64;
    let reused = registry.counter("search.incremental_slices_reused") as f64;
    let rescanned = registry.counter("search.incremental_slices_rescanned") as f64;
    l.incremental_reuse_ratio = ratio(reused, reused + rescanned);
    l.frontier_reuses = registry.counter("search.frontier_reuses") as f64;
    l.pruned_candidates = registry.counter("search.pruned_candidates") as f64;
    l.safe_mode_entries = reference.fault_counters.safe_mode_entries as f64;
    l.stale_intervals = reference.fault_counters.stale_intervals as f64;
    l.balancer_retry_rounds = reference.fault_counters.balancer_retry_rounds as f64;
    l.balancer_steps = replay
        .shards
        .iter()
        .map(|s| s.controller.balancer().harvest_count() + s.controller.balancer().revert_count())
        .sum::<u64>() as f64;
    l.env_build_ms = env_s * 1e3;
    l.step_ns_per_node = ratio(sp.step_s * 1e9, sp.node_steps as f64);
    l.step_invariants_us = ratio(sp.invariants_s * 1e6, sp.invariant_calls as f64);
    l.step_share = ratio(sp.step_s + sp.invariants_s, loop_s);
    l.fill_weights_ns = ratio(sp.fill_s * 1e9, sp.fills as f64);
    l.reclaim_us = ratio(sp.reclaim_s * 1e6, sp.reclaim_calls as f64);
    l.reclaims = reference.budget_reclaims as f64;
    l.plan_us = ratio(sp.plan_s * 1e6, sp.plans as f64);
    l.plans = sp.plans as f64;
    l.migrations = reference.migrations as f64;
    l.set_scores = reference.set_scores as f64;
    l.overhead_s = traced_s - untraced_s;
    l.unattributed_s = traced_s - spans_s;
    eprintln!("untraced {untraced_s:.3} s, traced {traced_s:.3} s (replay loop {loop_s:.3} s)");

    let correct = shard0_exact || !exact_required;
    let per_run = case.node_intervals();
    Ok(Report {
        correct,
        attempted: 2 * per_run,
        failed: if correct { 0 } else { per_run },
        metrics: l.metrics(),
    })
}

/// Sums of one interval's observations across a shard, in the field
/// layout the fleet uses, so the shard mean rounds identically.
#[derive(Default)]
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

/// One replayed shard: its nodes' environments, its controller, and the
/// per-node running sums the fleet's result is computed from.
struct Shard {
    first_node: usize,
    envs: Vec<CoLocationEnv>,
    controller: SturgeonController,
    config: PairConfig,
    budget_w: f64,
    power_w: Vec<f64>,
    be_tput: Vec<f64>,
    sum_qps: Vec<f64>,
    sum_in_target_qps: Vec<f64>,
    sum_be_tput: Vec<f64>,
    sum_power_w: Vec<f64>,
    overload: Vec<u32>,
    intervals: u32,
    last_mean_p95: f64,
    qps_per_node: f64,
    be_jobs: u32,
    job_factor: f64,
}

struct Region {
    lo: usize,
    hi: usize,
    peak_qps: f64,
    dispatcher: Dispatcher,
    p95: Vec<f64>,
}

struct Budget {
    tree: BudgetTree,
    events: Vec<BudgetEvent>,
    applied: usize,
}

struct Placement {
    engine: ScoredPlacementEngine,
    params: PlacementParams,
    scoring: Option<PlacementScoring>,
    queued: u32,
}

/// Time spent in each replayed layer, with call counts.
#[derive(Default)]
struct Spans {
    fill_s: f64,
    fills: u64,
    invariants_s: f64,
    invariant_calls: u64,
    step_s: f64,
    node_steps: u64,
    reclaim_s: f64,
    reclaim_calls: u64,
    plan_s: f64,
    plans: u64,
}

/// A single-threaded replay of one fleet run from public calls.
struct Replay {
    spec: NodeSpec,
    predictor: Arc<PerfPowerPredictor>,
    headroom: f64,
    pruned: bool,
    shards: Vec<Shard>,
    regions: Vec<Region>,
    budget: Option<Budget>,
    placement: Option<Placement>,
    /// QPS buckets whose LS slabs the run's pruned searches needed.
    visited: BTreeSet<u64>,
    decides: Decides,
    spans: Spans,
}

impl Replay {
    fn new(
        case: &FleetCase,
        first: &ExperimentSetup,
        predictor: &Arc<PerfPowerPredictor>,
        scoring: Option<PlacementScoring>,
    ) -> Result<Self, String> {
        let params = &case.params;
        let spec = first.spec().clone();
        let budget_w = first.budget_w();
        let qos_target = first.qos_target_ms();
        let geometry = Geometry::new(case.nodes, params.shards, params.regions);
        let mut shards = Vec::with_capacity(geometry.shard_lens.len());
        for (&len, &first_node) in geometry.shard_lens.iter().zip(&geometry.first_nodes) {
            let controller = SturgeonController::with_shared_predictor(
                Arc::clone(predictor),
                spec.clone(),
                budget_w,
                qos_target,
                params.controller,
            );
            let config = controller.initial_config(&spec);
            let envs = (0..len)
                .map(|i| {
                    ExperimentSetup::new(PAIR, case.seed.wrapping_add((first_node + i) as u64))
                        .env()
                        .clone()
                })
                .collect();
            shards.push(Shard {
                first_node,
                envs,
                controller,
                config,
                budget_w,
                power_w: vec![0.0; len],
                be_tput: vec![0.0; len],
                sum_qps: vec![0.0; len],
                sum_in_target_qps: vec![0.0; len],
                sum_be_tput: vec![0.0; len],
                sum_power_w: vec![0.0; len],
                overload: vec![0; len],
                intervals: 0,
                last_mean_p95: 0.0,
                qps_per_node: 0.0,
                be_jobs: 1,
                job_factor: 1.0,
            });
        }
        let regions = geometry
            .regions
            .iter()
            .enumerate()
            .map(|(r, &(lo, hi))| {
                Ok(Region {
                    lo,
                    hi,
                    peak_qps: first.peak_qps() * geometry.region_nodes(r) as f64,
                    dispatcher: Dispatcher::try_new(params.policy.clone(), hi - lo, qos_target)
                        .map_err(err)?,
                    p95: vec![0.0; hi - lo],
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let budget = match &params.budget {
            Some(b) => {
                let leaf_caps: Vec<f64> = shards
                    .iter()
                    .map(|s| budget_w * s.envs.len() as f64)
                    .collect();
                let racks: Vec<usize> = regions.iter().map(|r| r.hi - r.lo).collect();
                let rows = split(racks.len(), b.rows.max(1));
                let mut events = b.events.clone();
                events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
                Some(Budget {
                    tree: BudgetTree::new(&leaf_caps, &racks, &rows).map_err(err)?,
                    events,
                    applied: 0,
                })
            }
            None => None,
        };
        let placement = params.placement.map(|p| {
            let mut engine = ScoredPlacementEngine::new(
                Arc::clone(predictor),
                spec.clone(),
                params.controller.search,
                p,
            );
            if let Some(s) = scoring.clone() {
                engine = engine.with_scoring(s);
            }
            Placement {
                engine,
                params: p,
                scoring,
                queued: 0,
            }
        });
        Ok(Self {
            spec,
            predictor: Arc::clone(predictor),
            headroom: params.controller.search.power_load_headroom,
            pruned: params.controller.search.strategy == SearchStrategy::FrontierPruned,
            shards,
            regions,
            budget,
            placement,
            visited: BTreeSet::new(),
            decides: Decides::default(),
            spans: Spans::default(),
        })
    }

    fn run(&mut self, profiles: &[LoadProfile], intervals: u32) {
        for t in 0..intervals {
            self.apply_budget_events(f64::from(t));
            for (region, profile) in self.regions.iter_mut().zip(profiles) {
                let total_qps = profile.qps_at(f64::from(t), region.peak_qps);
                for (slot, shard) in region
                    .p95
                    .iter_mut()
                    .zip(&self.shards[region.lo..region.hi])
                {
                    *slot = shard.last_mean_p95;
                }
                let start = Instant::now();
                let weights = region.dispatcher.fill_weights(&region.p95);
                self.spans.fill_s += start.elapsed().as_secs_f64();
                self.spans.fills += 1;
                for (shard, w) in self.shards[region.lo..region.hi].iter_mut().zip(weights) {
                    shard.qps_per_node = total_qps * w / shard.envs.len() as f64;
                }
            }
            for s in 0..self.shards.len() {
                let mean = step(&mut self.shards[s], &mut self.spans);
                self.decide(s, &mean);
            }
            let due = self
                .placement
                .as_ref()
                .is_some_and(|p| (t + 1) % p.params.interval_s == 0);
            if due {
                self.placement_round(f64::from(t + 1));
            }
        }
    }

    fn decide(&mut self, s: usize, mean: &Observation) {
        let shard = &mut self.shards[s];
        let searches = shard.controller.search_count();
        let slabs = if self.pruned {
            self.predictor.slab_builds()
        } else {
            0
        };
        let start = Instant::now();
        let next = shard.controller.decide(mean, shard.config);
        let dt = start.elapsed().as_secs_f64();
        shard.config = next;
        let search = if shard.controller.search_count() > searches {
            shard.controller.last_search_stats()
        } else {
            None
        };
        let built = self.pruned && self.predictor.slab_builds() > slabs;
        self.decides.record(dt, search, built);
        if search.is_some() {
            self.visit(mean.qps);
        }
    }

    /// Records the slab buckets a pruned search at `qps` reads.
    fn visit(&mut self, qps: f64) {
        if self.pruned {
            let (lo, hi) = self
                .predictor
                .ls_slabs(&self.spec, self.headroom)
                .bracket(qps);
            self.visited.insert(lo);
            self.visited.insert(hi);
        }
    }

    fn apply_budget_events(&mut self, t_s: f64) {
        let Some(b) = self.budget.as_mut() else {
            return;
        };
        let mut applied = false;
        while let Some(e) = b.events.get(b.applied) {
            if e.at_s > t_s {
                break;
            }
            applied |= b.tree.set_cap(e.level, e.index, e.cap).is_ok();
            b.applied += 1;
        }
        if applied {
            self.reclaim();
        }
    }

    /// Re-apportions the budget tree on last-interval demand and pushes
    /// the per-node caps into the shard controllers.
    fn reclaim(&mut self) {
        let Some(b) = self.budget.as_mut() else {
            return;
        };
        let demands: Vec<f64> = self.shards.iter().map(|s| s.power_w.iter().sum()).collect();
        let start = Instant::now();
        b.tree.reclaim(Some(&demands));
        self.spans.reclaim_s += start.elapsed().as_secs_f64();
        self.spans.reclaim_calls += 1;
        for (shard, leaf) in self.shards.iter_mut().zip(b.tree.leaf_caps_w()) {
            let per_node = leaf / shard.envs.len() as f64;
            if shard.controller.set_budget_w(per_node) {
                shard.budget_w = per_node;
            }
        }
    }

    fn placement_round(&mut self, t_s: f64) {
        let Some(p) = self.placement.as_mut() else {
            return;
        };
        let view = FleetView {
            t_s,
            be: PAIR.be,
            units: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| UnitView {
                    unit: i,
                    first_node: s.first_node,
                    nodes: s.envs.len(),
                    qps_per_node: s.qps_per_node,
                    cap_w: s.budget_w,
                    safe_mode: s.controller.in_safe_mode(),
                    exhausted: s.controller.balancer_exhausted(),
                    be_jobs: s.be_jobs,
                    be_slots: p.params.be_slots,
                    last_be_tput: s.be_tput.iter().sum(),
                })
                .collect(),
            queued_jobs: p.queued,
        };
        let start = Instant::now();
        let plan = p.engine.plan(&view);
        self.spans.plan_s += start.elapsed().as_secs_f64();
        self.spans.plans += 1;
        let n = self.shards.len();
        for action in &plan.actions {
            match *action {
                PlacementAction::Assign { unit, .. } => {
                    let Some(shard) = self.shards.get_mut(unit) else {
                        continue;
                    };
                    if p.queued > 0 && shard.be_jobs < p.params.be_slots {
                        p.queued -= 1;
                        shard.be_jobs += 1;
                    }
                }
                PlacementAction::Migrate { from, to, .. } => {
                    if from != to
                        && from < n
                        && to < n
                        && self.shards[from].be_jobs > 0
                        && self.shards[to].be_jobs < p.params.be_slots
                    {
                        self.shards[from].be_jobs -= 1;
                        self.shards[to].be_jobs += 1;
                    }
                }
                PlacementAction::Evict { unit, .. } => {
                    let Some(shard) = self.shards.get_mut(unit) else {
                        continue;
                    };
                    if shard.be_jobs > 0 {
                        shard.be_jobs -= 1;
                        p.queued += 1;
                    }
                }
            }
        }
        for shard in &mut self.shards {
            shard.job_factor = match &p.scoring {
                None => co_runner_score(shard.be_jobs, p.params.sigma),
                Some(scoring) => scoring.factor(PAIR.be, shard.be_jobs),
            };
            shard.controller.set_be_idle(shard.be_jobs == 0);
        }
        // The plan searched every unit at its own load.
        for unit in &view.units {
            self.visit(unit.qps_per_node);
        }
        self.reclaim();
    }

    /// Per-node summaries, computed the way the fleet computes them.
    fn nodes(&self) -> Vec<NodeResult> {
        let mut out = Vec::new();
        for s in &self.shards {
            let safe_mode_entries = s.controller.fault_counters().safe_mode_entries;
            let n = f64::from(s.intervals);
            for i in 0..s.envs.len() {
                let q = s.sum_qps[i];
                let (tput, power, overload) = if s.intervals == 0 {
                    (0.0, 0.0, 0.0)
                } else {
                    (
                        s.sum_be_tput[i] / n,
                        s.sum_power_w[i] / n,
                        f64::from(s.overload[i]) / n,
                    )
                };
                out.push(NodeResult {
                    node: s.first_node + i,
                    qos_rate: if q == 0.0 {
                        1.0
                    } else {
                        s.sum_in_target_qps[i] / q
                    },
                    mean_be_throughput: tput,
                    overload_fraction: overload,
                    mean_power_w: power,
                    safe_mode_entries,
                });
            }
        }
        out
    }
}

/// Steps every node of a shard through one interval and returns the
/// shard-mean observation its controller decides on.
fn step(shard: &mut Shard, spans: &mut Spans) -> Observation {
    let qps = shard.qps_per_node;
    let start = Instant::now();
    let invariants = shard.envs[0].step_invariants(&shard.config, qps);
    spans.invariants_s += start.elapsed().as_secs_f64();
    spans.invariant_calls += 1;
    let start = Instant::now();
    let mut sums = ObsSums::default();
    for (i, env) in shard.envs.iter_mut().enumerate() {
        let obs = env.step_with(&shard.config, qps, &invariants);
        let counted = obs.be_throughput_norm * shard.job_factor;
        shard.power_w[i] = obs.power_w;
        shard.be_tput[i] = counted;
        shard.sum_qps[i] += obs.qps;
        shard.sum_in_target_qps[i] += obs.qps * obs.in_target_fraction;
        shard.sum_be_tput[i] += counted;
        shard.sum_power_w[i] += obs.power_w;
        if obs.power_w > shard.budget_w {
            shard.overload[i] += 1;
        }
        sums.add(&obs);
    }
    spans.step_s += start.elapsed().as_secs_f64();
    spans.node_steps += shard.envs.len() as u64;
    shard.intervals += 1;
    let mean = sums.mean(shard.envs.len() as f64);
    shard.last_mean_p95 = mean.p95_ms;
    mean
}

/// A controller wrapper that times every `decide` and reads the search
/// counters the wrapped controller exposes.
struct Timed<'a> {
    inner: &'a mut SturgeonController,
    decides: &'a mut Decides,
}

impl ResourceController for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fault_counters(&self) -> ControllerFaultCounters {
        self.inner.fault_counters()
    }

    fn initial_config(&self, spec: &NodeSpec) -> PairConfig {
        self.inner.initial_config(spec)
    }

    fn decide(&mut self, obs: &Observation, current: PairConfig) -> PairConfig {
        let searches = self.inner.search_count();
        let start = Instant::now();
        let next = self.inner.decide(obs, current);
        let dt = start.elapsed().as_secs_f64();
        let search = if self.inner.search_count() > searches {
            self.inner.last_search_stats()
        } else {
            None
        };
        self.decides.record(dt, search, false);
        next
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.inner.set_tracing(enabled);
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.inner.take_trace()
    }
}

fn node(case: &NodeCase) -> Result<Report, String> {
    // The untraced reference run of the same seed.
    let start = Instant::now();
    let (setup, controller, _) = case.build();
    let reference = case.run(&setup, controller).map_err(err)?;
    let untraced_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut l = Layers::default();
    let setup = ExperimentSetup::new(PAIR, case.seed);
    let (_, predictor, mut spans_s) = profile_and_train(&setup, &mut l)?;
    let predictor = Arc::new(predictor);
    let (_, s) = timed(|| predictor.model_tables(setup.spec()));
    l.model_tables_ms = s * 1e3;
    spans_s += s;
    let mut controller = case.controller(&setup, Arc::clone(&predictor));
    let mut decides = Decides::default();
    let (r, run_s) = timed(|| {
        let timed = Timed {
            inner: &mut controller,
            decides: &mut decides,
        };
        case.run(&setup, timed)
    });
    let r = r.map_err(err)?;
    // Environment stepping happens inside the run harness, so it is
    // timed by re-stepping a fresh clone of the environment through the
    // logged (configuration, load) sequence.
    let mut env = setup.env().clone();
    let (mut invariants_s, mut step_s, mut steps_exact) = (0.0, 0.0, true);
    for sample in r.log.samples() {
        let (invariants, a) = timed(|| env.step_invariants(&sample.config, sample.qps));
        let (obs, b) = timed(|| env.step_with(&sample.config, sample.qps, &invariants));
        invariants_s += a;
        step_s += b;
        steps_exact &= obs.p95_ms.to_bits() == sample.p95_ms.to_bits()
            && obs.power_w.to_bits() == sample.power_w.to_bits();
    }
    let traced_s = start.elapsed().as_secs_f64();
    spans_s += decides.total_s + invariants_s + step_s;

    let exact = same_run(&reference, &r) && steps_exact;
    eprintln!(
        "traced run bit-exact with untraced: {}; untraced {untraced_s:.3} s, traced {traced_s:.3} s",
        if exact { "yes" } else { "NO" }
    );
    decides.fill(&mut l);
    l.search_runs = controller.search_count() as f64;
    let (reused, rescanned) = controller.incremental_totals();
    l.incremental_reuse_ratio = ratio(reused as f64, (reused + rescanned) as f64);
    let (pruned, _, frontier) = controller.pruned_totals();
    l.frontier_reuses = frontier as f64;
    l.pruned_candidates = pruned as f64;
    l.slab_builds = predictor.slab_builds() as f64;
    let f = &r.faults;
    l.safe_mode_entries = f.safe_mode_entries as f64;
    l.stale_intervals = f.stale_intervals as f64;
    l.balancer_steps =
        (controller.balancer().harvest_count() + controller.balancer().revert_count()) as f64;
    l.balancer_retry_rounds = f.balancer_retry_rounds as f64;
    l.faults_seen = f.faults_seen as f64;
    l.actuation_retries = f.retries as f64;
    l.retry_success_ratio = ratio(f.retry_successes as f64, f.retries as f64);
    let intervals = f64::from(case.intervals);
    l.step_ns_per_node = step_s * 1e9 / intervals;
    l.step_invariants_us = invariants_s * 1e6 / intervals;
    l.step_share = ratio(invariants_s + step_s, run_s);
    l.overhead_s = traced_s - untraced_s;
    l.unattributed_s = traced_s - spans_s;

    let per_run = u64::from(case.intervals);
    Ok(Report {
        correct: exact,
        attempted: 2 * per_run,
        failed: if exact { 0 } else { per_run },
        metrics: l.metrics(),
    })
}
