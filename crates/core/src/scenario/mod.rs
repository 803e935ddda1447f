//! Scenario manifests: a declarative, TOML-driven description of one
//! benchmark run, lowered onto the exact same [`RunBuilder`]/[`Fleet`]
//! calls the hand-written bins make.
//!
//! The experiment surface (controllers, load-profile algebra, fault
//! plans, search strategies, fleet geometries) is described by one
//! reviewable file: a [`Scenario`] is the only way to configure a
//! `scenario_run` run, node or fleet. The contract
//! that makes manifests trustworthy is **bit-identity**: lowering a
//! manifest produces the same controller construction and the same
//! builder chain as the equivalent hand-built run, so the two paths
//! cannot drift apart (pinned by `tests/scenario_roundtrip.rs`).
//!
//! ```toml
//! name = "smoke-node"
//! seed = 42
//! intervals = 120
//!
//! [workload]
//! ls = "memcached"
//! be = "raytrace"
//!
//! [controller]
//! kind = "sturgeon"      # sturgeon|sturgeon-nob|parties|parties-orig|heracles|reserved
//! search = "heuristic"   # heuristic|pruned
//!
//! [load]
//! profile = "triangle"
//! low = 0.2
//! high = 0.8
//! period_s = 120
//! ```
//!
//! [`Scenario::run`] executes the manifest and distills the run into a
//! [`ScenarioMetrics`] row; [`gate`] compares a batch of such rows
//! against a committed baseline with per-metric tolerances — together
//! they turn every `BENCH_*.json` snapshot into a regression gate.
//!
//! [`RunBuilder`]: crate::experiment::RunBuilder

pub mod gate;
pub mod toml;

pub use gate::Tolerance;

use crate::baselines::{PartiesController, PartiesParams, StaticReservationController};
use crate::budget::{BudgetCap, BudgetEvent, BudgetLevel};
use crate::controller::{ControllerParams, ResourceController, SturgeonController};
use crate::dispatch::DispatchPolicy;
use crate::error::SturgeonError;
use crate::experiment::{ActuationPolicy, ColocationPair, ExperimentSetup, RunResult};
use crate::fleet::{Fleet, FleetBudget, FleetParams, FleetResult};
use crate::heracles::{HeraclesController, HeraclesParams};
use crate::obs::{MetricsRegistry, TraceSink};
use crate::placement::PlacementParams;
use crate::scoring::ScoringParams;
use crate::search::{ConfigSearch, SearchParams, SearchStrategy};
use serde::Value;
use std::sync::Arc;
use std::time::Instant;
use sturgeon_simnode::FaultPlan;
use sturgeon_workloads::catalog::{BeAppId, LsServiceId};
use sturgeon_workloads::loadgen::{FailoverRole, LoadProfile};

/// What a scenario drives: one simulated node, or a sharded fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// One [`ExperimentSetup`] run through the builder API.
    Node,
    /// A [`Fleet`] stepped under per-region load profiles.
    Fleet,
}

impl ScenarioKind {
    /// Canonical manifest spelling.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Node => "node",
            ScenarioKind::Fleet => "fleet",
        }
    }
}

/// Which controller family the scenario evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// Full Sturgeon (predictor + search + balancer).
    Sturgeon,
    /// Sturgeon with the balancer disabled (§VII-C ablation).
    SturgeonNoB,
    /// Enhanced (power-aware) PARTIES.
    Parties,
    /// Original PARTIES (no power awareness).
    PartiesOrig,
    /// The Heracles-style baseline.
    Heracles,
    /// Static LS-only reservation.
    Reserved,
}

impl ControllerKind {
    /// Canonical manifest spelling (`[controller] kind`).
    pub fn name(self) -> &'static str {
        match self {
            ControllerKind::Sturgeon => "sturgeon",
            ControllerKind::SturgeonNoB => "sturgeon-nob",
            ControllerKind::Parties => "parties",
            ControllerKind::PartiesOrig => "parties-orig",
            ControllerKind::Heracles => "heracles",
            ControllerKind::Reserved => "reserved",
        }
    }

    /// Parses a canonical controller name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sturgeon" => ControllerKind::Sturgeon,
            "sturgeon-nob" => ControllerKind::SturgeonNoB,
            "parties" => ControllerKind::Parties,
            "parties-orig" => ControllerKind::PartiesOrig,
            "heracles" => ControllerKind::Heracles,
            "reserved" => ControllerKind::Reserved,
            _ => return None,
        })
    }

    /// True for the two Sturgeon variants (the kinds that train a
    /// predictor and run configuration searches).
    pub fn is_sturgeon(self) -> bool {
        matches!(self, ControllerKind::Sturgeon | ControllerKind::SturgeonNoB)
    }
}

/// The controller section of a manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerSpec {
    /// Controller family.
    pub kind: ControllerKind,
    /// Search engine for the Sturgeon kinds (ignored by the baselines).
    pub strategy: SearchStrategy,
    /// Use [`ControllerParams::hardened`] (stale-telemetry detection +
    /// safe mode) instead of the paper defaults. Sturgeon kinds only.
    pub hardened: bool,
}

impl Default for ControllerSpec {
    fn default() -> Self {
        Self {
            kind: ControllerKind::Sturgeon,
            strategy: SearchStrategy::Heuristic,
            hardened: false,
        }
    }
}

/// How a fleet region's dispatcher splits load across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetDispatch {
    /// Uniform split.
    Even,
    /// Latency-aware split from last-interval shard p95 summaries.
    LatencyAware,
}

impl FleetDispatch {
    /// Canonical manifest spelling (`[fleet] dispatch`).
    pub fn name(self) -> &'static str {
        match self {
            FleetDispatch::Even => "even",
            FleetDispatch::LatencyAware => "latency",
        }
    }

    /// Parses a canonical dispatch-policy name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "even" => FleetDispatch::Even,
            "latency" => FleetDispatch::LatencyAware,
            _ => return None,
        })
    }

    /// The core dispatch policy this manifest value lowers to.
    pub fn to_policy(self) -> DispatchPolicy {
        match self {
            FleetDispatch::Even => DispatchPolicy::Even,
            FleetDispatch::LatencyAware => DispatchPolicy::LatencyAware,
        }
    }
}

/// The `[fleet]` section: geometry and dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSpec {
    /// Node count.
    pub nodes: usize,
    /// Shard count (0 = auto, one shard per ~256 nodes).
    pub shards: usize,
    /// Region count.
    pub regions: usize,
    /// Per-region dispatch policy.
    pub dispatch: FleetDispatch,
}

impl Default for FleetSpec {
    fn default() -> Self {
        Self {
            nodes: 1,
            shards: 0,
            regions: 1,
            dispatch: FleetDispatch::Even,
        }
    }
}

/// The `[search_probe]` section: after the main run, time the
/// configuration search at fixed load points (the §VII-E overhead
/// accounting, with latency percentiles for the gate).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchProbe {
    /// Load points as fractions of peak QPS.
    pub load_fractions: Vec<f64>,
    /// Repetitions per load point (more reps → stabler percentiles).
    pub reps: u32,
}

/// A fully described benchmark scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (the row key in metrics/baseline JSON).
    pub name: String,
    /// Node or fleet.
    pub kind: ScenarioKind,
    /// RNG seed (environment + profiling).
    pub seed: u64,
    /// One-second control intervals to simulate.
    pub intervals: u32,
    /// The co-location pair.
    pub pair: ColocationPair,
    /// Controller family and knobs.
    pub controller: ControllerSpec,
    /// The load profile (fleet: applied to every region unless
    /// `region_loads` is present).
    pub load: LoadProfile,
    /// Per-region load profiles (fleet only; one per region).
    pub region_loads: Vec<LoadProfile>,
    /// Deterministic fault plan (node only; fleet runs are fault-free).
    pub faults: FaultPlan,
    /// Actuation policy of the node harness.
    pub policy: ActuationPolicy,
    /// Fleet geometry (fleet kind only).
    pub fleet: Option<FleetSpec>,
    /// Power-delivery budget tree and scheduled cap events (fleet only).
    pub budget: Option<FleetBudget>,
    /// Fleet-aware BE placement engine knobs (fleet only).
    pub placement: Option<PlacementParams>,
    /// Cold-start scoring: CF prediction for a masked app and/or the
    /// learned co-runner set scorer (fleet only).
    pub scoring: Option<ScoringParams>,
    /// Optional search-overhead probe (node Sturgeon kinds only).
    pub probe: Option<SearchProbe>,
}

/// What a scenario run produced: the distilled metrics row plus the raw
/// artifacts for callers that want them (exports, traces).
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The gate-ready metrics row.
    pub metrics: ScenarioMetrics,
    /// Node scenarios: the full run result.
    pub node: Option<RunResult>,
    /// Fleet scenarios: the fleet result.
    pub fleet: Option<FleetResult>,
}

/// The canonical metrics row emitted by `scenario_run` and compared by
/// the `stats` gate. Field order is the JSON key order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioMetrics {
    /// Scenario name (the row key).
    pub scenario: String,
    /// `node` or `fleet`.
    pub kind: &'static str,
    /// Pair label.
    pub pair: String,
    /// Controller kind name.
    pub controller: &'static str,
    /// Search strategy name.
    pub search: &'static str,
    /// Load-profile name.
    pub load: String,
    /// RNG seed.
    pub seed: u64,
    /// Intervals simulated.
    pub intervals: u32,
    /// Node count (1 for node scenarios).
    pub nodes: usize,
    /// QoS guarantee rate.
    pub qos_rate: f64,
    /// 95th percentile of per-interval p95 latency (ms). Node runs use
    /// exact order statistics; fleet runs the streamed histogram.
    pub qos_p95_ms: f64,
    /// 99th percentile of per-interval p95 latency (ms).
    pub qos_p99_ms: f64,
    /// Node: mean normalized BE throughput. Fleet: total across nodes.
    pub be_throughput: f64,
    /// Mean power (node) / mean total fleet power (W).
    pub mean_power_w: f64,
    /// Peak observed per-node power (W).
    pub peak_power_w: f64,
    /// Power budget (node budget / summed fleet budget, W).
    pub budget_w: f64,
    /// Fraction of intervals above budget (fleet: mean across nodes).
    pub overload_fraction: f64,
    /// QoS guarantee rate of the worst node (node runs: `qos_rate`).
    pub worst_node_qos: f64,
    /// Total injected faults (0 for fault-free and fleet runs).
    pub faults_seen: u64,
    /// Actuation retries spent by the policy.
    pub retries: u64,
    /// Intervals whose configuration change ultimately failed.
    pub failed_actuations: u64,
    /// Intervals the controller judged its telemetry stale.
    pub stale_intervals: u64,
    /// Safe-mode entries.
    pub safe_mode_entries: u64,
    /// Balancer feedback rounds that exhausted every target.
    pub balancer_retry_rounds: u64,
    /// Fleet: offline predictor trainings paid.
    pub trainings: Option<u64>,
    /// Fleet: `ModelTables` builds paid.
    pub table_builds: Option<u64>,
    /// Fleet: configuration searches run across shard controllers.
    pub searches: Option<u64>,
    /// Fleet: shard count the geometry resolved to.
    pub shards: Option<usize>,
    /// Fleet: region count.
    pub regions: Option<usize>,
    /// Fleet: node-intervals stepped per second of the run phase
    /// (construction and training excluded).
    pub node_intervals_per_s: Option<f64>,
    /// Fleet: the process's peak resident set (`VmHWM`, MiB) when the
    /// row finished; -1 where `/proc` is unavailable (the gate's
    /// missing-data sentinel).
    pub peak_rss_mib: Option<f64>,
    /// Fleet: budget reclamation passes that changed at least one leaf
    /// cap (present only when the scenario has a `[budget]` table, so
    /// pre-budget baselines stay comparable).
    pub budget_reclaims: Option<u64>,
    /// Fleet: jobs moved between units by the placement engine (present
    /// only with a `[placement]` table).
    pub migrations: Option<u64>,
    /// Fleet: jobs evicted back to the batch queue.
    pub evictions: Option<u64>,
    /// Fleet: queued jobs assigned to a unit.
    pub assignments: Option<u64>,
    /// Scoring: observed profile-matrix cells (present only with a
    /// `[scoring]` table, so pre-scoring baselines stay comparable).
    pub cells_observed: Option<u64>,
    /// Scoring: masked profile-matrix cells.
    pub cells_hidden: Option<u64>,
    /// Scoring: hidden cells the CF predictor filled for the masked app.
    pub cold_start_cells: Option<u64>,
    /// Scoring: learned set-scorer evaluations at placement boundaries.
    pub set_scores: Option<u64>,
    /// Scoring: held-out throughput RMSE of the CF fit.
    pub rmse_heldout: Option<f64>,
    /// Probe: median search latency (µs).
    pub search_p50_us: Option<f64>,
    /// Probe: 95th-percentile search latency (µs).
    pub search_p95_us: Option<f64>,
    /// Probe: 99th-percentile search latency (µs).
    pub search_p99_us: Option<f64>,
    /// Probe: prediction queries across all probe searches (stable with
    /// caching on or off — the deterministic measure of search work).
    pub probe_model_calls: Option<u64>,
    /// Probe: candidate configurations fully evaluated.
    pub probe_candidates: Option<u64>,
    /// Wall-clock for the whole scenario (build + run + probe, s).
    pub wall_s: f64,
}

impl ScenarioMetrics {
    /// The row as an ordered JSON object ( `None` fields omitted).
    pub fn to_value(&self) -> Value {
        let mut f: Vec<(String, Value)> = Vec::new();
        let s = |v: &str| Value::String(v.to_string());
        f.push(("scenario".into(), s(&self.scenario)));
        f.push(("kind".into(), s(self.kind)));
        f.push(("pair".into(), s(&self.pair)));
        f.push(("controller".into(), s(self.controller)));
        f.push(("search".into(), s(self.search)));
        f.push(("load".into(), s(&self.load)));
        f.push(("seed".into(), Value::Number(self.seed as f64)));
        f.push(("intervals".into(), Value::Number(self.intervals as f64)));
        f.push(("nodes".into(), Value::Number(self.nodes as f64)));
        f.push(("qos_rate".into(), Value::Number(self.qos_rate)));
        f.push(("qos_p95_ms".into(), Value::Number(self.qos_p95_ms)));
        f.push(("qos_p99_ms".into(), Value::Number(self.qos_p99_ms)));
        f.push(("be_throughput".into(), Value::Number(self.be_throughput)));
        f.push(("mean_power_w".into(), Value::Number(self.mean_power_w)));
        f.push(("peak_power_w".into(), Value::Number(self.peak_power_w)));
        f.push(("budget_w".into(), Value::Number(self.budget_w)));
        f.push((
            "overload_fraction".into(),
            Value::Number(self.overload_fraction),
        ));
        f.push(("worst_node_qos".into(), Value::Number(self.worst_node_qos)));
        // The in-cap share of (node-)intervals, the tail view of
        // `overload_fraction` that perfbench reports as `in_cap_frac`.
        f.push((
            "in_cap_frac".into(),
            Value::Number(1.0 - self.overload_fraction),
        ));
        let counters = [
            ("faults_seen", self.faults_seen),
            ("retries", self.retries),
            ("failed_actuations", self.failed_actuations),
            ("stale_intervals", self.stale_intervals),
            ("safe_mode_entries", self.safe_mode_entries),
            ("balancer_retry_rounds", self.balancer_retry_rounds),
        ];
        for (k, v) in counters {
            f.push((k.into(), Value::Number(v as f64)));
        }
        let opt_counters = [
            ("shards", self.shards.map(|n| n as u64)),
            ("regions", self.regions.map(|n| n as u64)),
            ("trainings", self.trainings),
            ("table_builds", self.table_builds),
            ("searches", self.searches),
            ("budget_reclaims", self.budget_reclaims),
            ("migrations", self.migrations),
            ("evictions", self.evictions),
            ("assignments", self.assignments),
            ("cells_observed", self.cells_observed),
            ("cells_hidden", self.cells_hidden),
            ("cold_start_cells", self.cold_start_cells),
            ("set_scores", self.set_scores),
            ("probe_model_calls", self.probe_model_calls),
            ("probe_candidates", self.probe_candidates),
        ];
        for (k, v) in opt_counters {
            if let Some(v) = v {
                f.push((k.into(), Value::Number(v as f64)));
            }
        }
        let opt_floats = [
            ("rmse_heldout", self.rmse_heldout),
            ("search_p50_us", self.search_p50_us),
            ("search_p95_us", self.search_p95_us),
            ("search_p99_us", self.search_p99_us),
            ("node_intervals_per_s", self.node_intervals_per_s),
            ("peak_rss_mib", self.peak_rss_mib),
        ];
        for (k, v) in opt_floats {
            if let Some(v) = v {
                f.push((k.into(), Value::Number(v)));
            }
        }
        f.push(("wall_s".into(), Value::Number(self.wall_s)));
        Value::Object(f)
    }
}

/// Serializes a batch of metrics rows as the pretty JSON array the
/// `stats` gate consumes.
pub fn metrics_json(rows: &[ScenarioMetrics]) -> String {
    let array = Value::Array(rows.iter().map(ScenarioMetrics::to_value).collect());
    serde_json::to_string_pretty(&array).expect("metrics rows always serialize")
}

// ---------------------------------------------------------------------
// Manifest name parsing.
// ---------------------------------------------------------------------

/// Parses an LS service by its canonical name.
pub fn parse_ls(s: &str) -> Option<LsServiceId> {
    LsServiceId::all().into_iter().find(|id| id.name() == s)
}

/// Parses a BE app by name or paper abbreviation.
pub fn parse_be(s: &str) -> Option<BeAppId> {
    BeAppId::all()
        .into_iter()
        .find(|id| id.name() == s || id.abbrev() == s)
}

/// Parses a search strategy (`heuristic` / `pruned`).
pub fn parse_search_strategy(s: &str) -> Option<SearchStrategy> {
    Some(match s {
        "heuristic" => SearchStrategy::Heuristic,
        "pruned" => SearchStrategy::FrontierPruned,
        _ => return None,
    })
}

/// Canonical name of a search strategy.
pub fn search_strategy_name(s: SearchStrategy) -> &'static str {
    match s {
        SearchStrategy::Heuristic => "heuristic",
        SearchStrategy::FrontierPruned => "pruned",
    }
}

/// The per-region load profiles of a named fleet scenario (`constant`,
/// `triangle`, `diurnal`, `flash`, `failover`) over `intervals` seconds,
/// as the committed `BENCH_fleet.json` rows and the benchmark harness
/// build them. `failover` needs at least two regions (region 0 fails,
/// the rest absorb its traffic).
pub fn regional_profiles(
    name: &str,
    fraction: f64,
    intervals: u32,
    regions: usize,
) -> Option<Vec<LoadProfile>> {
    let day = intervals as f64;
    let base = match name {
        "constant" => LoadProfile::Constant { fraction },
        "triangle" => LoadProfile::paper_fluctuating(day),
        "diurnal" => LoadProfile::Diurnal {
            low: 0.2,
            high: 0.8,
            day_s: day,
        },
        "flash" => LoadProfile::FlashCrowd {
            base: Box::new(LoadProfile::Diurnal {
                low: 0.2,
                high: 0.6,
                day_s: day,
            }),
            at_s: day * 0.25,
            ramp_s: day * 0.05,
            hold_s: day * 0.10,
            decay_s: day * 0.10,
            magnitude: 1.8,
        },
        "failover" => {
            if regions < 2 {
                return None;
            }
            let steady = LoadProfile::Constant { fraction: 0.4 };
            let takeover = 1.0 / (regions - 1) as f64;
            let mut out = vec![LoadProfile::Failover {
                base: Box::new(steady.clone()),
                at_s: day * 0.3,
                outage_s: day * 0.3,
                takeover,
                role: FailoverRole::Failing,
            }];
            for _ in 1..regions {
                out.push(LoadProfile::Failover {
                    base: Box::new(steady.clone()),
                    at_s: day * 0.3,
                    outage_s: day * 0.3,
                    takeover,
                    role: FailoverRole::Survivor,
                });
            }
            return Some(out);
        }
        _ => return None,
    };
    Some(vec![base; regions])
}

// ---------------------------------------------------------------------
// Value <-> schema conversion.
// ---------------------------------------------------------------------

fn bad(msg: impl Into<String>) -> SturgeonError {
    SturgeonError::setup(msg)
}

fn fields<'v>(v: &'v Value, ctx: &str) -> Result<&'v Vec<(String, Value)>, SturgeonError> {
    match v {
        Value::Object(f) => Ok(f),
        _ => Err(bad(format!("`{ctx}` must be a table"))),
    }
}

fn check_keys(v: &Value, allowed: &[&str], ctx: &str) -> Result<(), SturgeonError> {
    for (k, _) in fields(v, ctx)? {
        if !allowed.contains(&k.as_str()) {
            return Err(bad(format!(
                "unknown key `{k}` in `{ctx}` (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn str_key<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<Option<&'v str>, SturgeonError> {
    match v.get(key) {
        None => Ok(None),
        Some(s) => s
            .as_str()
            .map(Some)
            .ok_or_else(|| bad(format!("`{ctx}.{key}` must be a string"))),
    }
}

fn f64_key(v: &Value, key: &str, ctx: &str) -> Result<Option<f64>, SturgeonError> {
    match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad(format!("`{ctx}.{key}` must be a number"))),
    }
}

fn req_f64(v: &Value, key: &str, ctx: &str) -> Result<f64, SturgeonError> {
    f64_key(v, key, ctx)?.ok_or_else(|| bad(format!("`{ctx}` needs a `{key}` number")))
}

fn u64_key(v: &Value, key: &str, ctx: &str) -> Result<Option<u64>, SturgeonError> {
    match f64_key(v, key, ctx)? {
        None => Ok(None),
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= 9.0e15 => Ok(Some(n as u64)),
        Some(_) => Err(bad(format!(
            "`{ctx}.{key}` must be a non-negative integer below 2^53"
        ))),
    }
}

fn bool_key(v: &Value, key: &str, ctx: &str) -> Result<Option<bool>, SturgeonError> {
    match v.get(key) {
        None => Ok(None),
        Some(b) => b
            .as_bool()
            .map(Some)
            .ok_or_else(|| bad(format!("`{ctx}.{key}` must be a boolean"))),
    }
}

/// Parses one `[[budget.event]]` table: `at_s`, `level`, `index`, and
/// exactly one of `cap_w` (absolute watts) or `cap_frac` (fraction of
/// the element's nominal cap).
fn budget_event_from_value(v: &Value) -> Result<BudgetEvent, SturgeonError> {
    check_keys(
        v,
        &["at_s", "level", "index", "cap_w", "cap_frac"],
        "budget.event",
    )?;
    let at_s = f64_key(v, "at_s", "budget.event")?
        .ok_or_else(|| bad("`budget.event` needs an `at_s` timestamp"))?;
    if !at_s.is_finite() || at_s < 0.0 {
        return Err(bad("`budget.event.at_s` must be >= 0"));
    }
    let level = match str_key(v, "level", "budget.event")? {
        None => BudgetLevel::Datacenter,
        Some(l) => BudgetLevel::parse(l).ok_or_else(|| {
            bad(format!(
                "unknown budget level `{l}` (node/rack/row/datacenter)"
            ))
        })?,
    };
    let index = u64_key(v, "index", "budget.event")?.unwrap_or(0) as usize;
    let cap = match (
        f64_key(v, "cap_w", "budget.event")?,
        f64_key(v, "cap_frac", "budget.event")?,
    ) {
        (Some(w), None) => {
            if !w.is_finite() || w < 0.0 {
                return Err(bad("`budget.event.cap_w` must be >= 0"));
            }
            BudgetCap::Watts(w)
        }
        (None, Some(frac)) => {
            if !frac.is_finite() || frac < 0.0 {
                return Err(bad("`budget.event.cap_frac` must be >= 0"));
            }
            BudgetCap::FractionOfNominal(frac)
        }
        (None, None) => return Err(bad("`budget.event` needs `cap_w` or `cap_frac`")),
        (Some(_), Some(_)) => {
            return Err(bad("`budget.event` takes `cap_w` or `cap_frac`, not both"))
        }
    };
    Ok(BudgetEvent {
        at_s,
        level,
        index,
        cap,
    })
}

/// The canonical `[[budget.event]]` table (inverse of
/// [`budget_event_from_value`]).
fn budget_event_to_value(e: &BudgetEvent) -> Value {
    let mut f: Vec<(String, Value)> = vec![
        ("at_s".into(), Value::Number(e.at_s)),
        ("level".into(), Value::String(e.level.as_str().to_string())),
        ("index".into(), Value::Number(e.index as f64)),
    ];
    match e.cap {
        BudgetCap::Watts(w) => f.push(("cap_w".into(), Value::Number(w))),
        BudgetCap::FractionOfNominal(frac) => f.push(("cap_frac".into(), Value::Number(frac))),
    }
    Value::Object(f)
}

/// Converts a load profile into its manifest table.
pub fn load_to_value(p: &LoadProfile) -> Value {
    let mut f: Vec<(String, Value)> = vec![("profile".into(), Value::String(p.name().to_string()))];
    let n = |fields: &mut Vec<(String, Value)>, k: &str, v: f64| {
        fields.push((k.to_string(), Value::Number(v)));
    };
    match p {
        LoadProfile::Constant { fraction } => n(&mut f, "fraction", *fraction),
        LoadProfile::Ramp {
            from,
            to,
            duration_s,
        } => {
            n(&mut f, "from", *from);
            n(&mut f, "to", *to);
            n(&mut f, "duration_s", *duration_s);
        }
        LoadProfile::Triangle {
            low,
            high,
            period_s,
        } => {
            n(&mut f, "low", *low);
            n(&mut f, "high", *high);
            n(&mut f, "period_s", *period_s);
        }
        LoadProfile::Diurnal { low, high, day_s } => {
            n(&mut f, "low", *low);
            n(&mut f, "high", *high);
            n(&mut f, "day_s", *day_s);
        }
        LoadProfile::Step {
            before,
            after,
            at_s,
        } => {
            n(&mut f, "before", *before);
            n(&mut f, "after", *after);
            n(&mut f, "at_s", *at_s);
        }
        LoadProfile::Trace { samples, dt_s } => {
            f.push((
                "samples".into(),
                Value::Array(samples.iter().map(|&s| Value::Number(s)).collect()),
            ));
            n(&mut f, "dt_s", *dt_s);
        }
        LoadProfile::FlashCrowd {
            base,
            at_s,
            ramp_s,
            hold_s,
            decay_s,
            magnitude,
        } => {
            n(&mut f, "at_s", *at_s);
            n(&mut f, "ramp_s", *ramp_s);
            n(&mut f, "hold_s", *hold_s);
            n(&mut f, "decay_s", *decay_s);
            n(&mut f, "magnitude", *magnitude);
            f.push(("base".into(), load_to_value(base)));
        }
        LoadProfile::Failover {
            base,
            at_s,
            outage_s,
            takeover,
            role,
        } => {
            n(&mut f, "at_s", *at_s);
            n(&mut f, "outage_s", *outage_s);
            n(&mut f, "takeover", *takeover);
            f.push((
                "role".into(),
                Value::String(
                    match role {
                        FailoverRole::Failing => "failing",
                        FailoverRole::Survivor => "survivor",
                    }
                    .to_string(),
                ),
            ));
            f.push(("base".into(), load_to_value(base)));
        }
    }
    Value::Object(f)
}

/// Parses a load-profile table (the inverse of [`load_to_value`]).
pub fn load_from_value(v: &Value) -> Result<LoadProfile, SturgeonError> {
    let ctx = "load";
    let profile =
        str_key(v, "profile", ctx)?.ok_or_else(|| bad("`load` needs a `profile` name"))?;
    let p = match profile {
        "constant" => {
            check_keys(v, &["profile", "fraction"], ctx)?;
            LoadProfile::Constant {
                fraction: req_f64(v, "fraction", ctx)?,
            }
        }
        "ramp" => {
            check_keys(v, &["profile", "from", "to", "duration_s"], ctx)?;
            LoadProfile::Ramp {
                from: req_f64(v, "from", ctx)?,
                to: req_f64(v, "to", ctx)?,
                duration_s: req_f64(v, "duration_s", ctx)?,
            }
        }
        "triangle" => {
            check_keys(v, &["profile", "low", "high", "period_s"], ctx)?;
            LoadProfile::Triangle {
                low: req_f64(v, "low", ctx)?,
                high: req_f64(v, "high", ctx)?,
                period_s: req_f64(v, "period_s", ctx)?,
            }
        }
        "diurnal" => {
            check_keys(v, &["profile", "low", "high", "day_s"], ctx)?;
            LoadProfile::Diurnal {
                low: req_f64(v, "low", ctx)?,
                high: req_f64(v, "high", ctx)?,
                day_s: req_f64(v, "day_s", ctx)?,
            }
        }
        "step" => {
            check_keys(v, &["profile", "before", "after", "at_s"], ctx)?;
            LoadProfile::Step {
                before: req_f64(v, "before", ctx)?,
                after: req_f64(v, "after", ctx)?,
                at_s: req_f64(v, "at_s", ctx)?,
            }
        }
        "trace" => {
            check_keys(v, &["profile", "samples", "dt_s"], ctx)?;
            let samples = v
                .get("samples")
                .and_then(Value::as_array)
                .ok_or_else(|| bad("`load.samples` must be an array of numbers"))?
                .iter()
                .map(|s| {
                    s.as_f64()
                        .ok_or_else(|| bad("`load.samples` must be an array of numbers"))
                })
                .collect::<Result<Vec<f64>, _>>()?;
            LoadProfile::Trace {
                samples,
                dt_s: req_f64(v, "dt_s", ctx)?,
            }
        }
        "flash_crowd" => {
            check_keys(
                v,
                &[
                    "profile",
                    "base",
                    "at_s",
                    "ramp_s",
                    "hold_s",
                    "decay_s",
                    "magnitude",
                ],
                ctx,
            )?;
            let base = v
                .get("base")
                .ok_or_else(|| bad("`load` profile flash_crowd needs a `base` table"))?;
            LoadProfile::FlashCrowd {
                base: Box::new(load_from_value(base)?),
                at_s: req_f64(v, "at_s", ctx)?,
                ramp_s: req_f64(v, "ramp_s", ctx)?,
                hold_s: req_f64(v, "hold_s", ctx)?,
                decay_s: req_f64(v, "decay_s", ctx)?,
                magnitude: req_f64(v, "magnitude", ctx)?,
            }
        }
        "failover" => {
            check_keys(
                v,
                &["profile", "base", "at_s", "outage_s", "takeover", "role"],
                ctx,
            )?;
            let base = v
                .get("base")
                .ok_or_else(|| bad("`load` profile failover needs a `base` table"))?;
            let role = match str_key(v, "role", ctx)? {
                Some("failing") => FailoverRole::Failing,
                Some("survivor") => FailoverRole::Survivor,
                _ => return Err(bad("`load.role` must be \"failing\" or \"survivor\"")),
            };
            LoadProfile::Failover {
                base: Box::new(load_from_value(base)?),
                at_s: req_f64(v, "at_s", ctx)?,
                outage_s: req_f64(v, "outage_s", ctx)?,
                takeover: req_f64(v, "takeover", ctx)?,
                role,
            }
        }
        other => return Err(bad(format!("unknown load profile `{other}`"))),
    };
    Ok(p)
}

/// Converts a fault plan into its manifest table (always the explicit
/// per-field form — presets are parse-time sugar).
pub fn faults_to_value(p: &FaultPlan) -> Value {
    let n = |v: f64| Value::Number(v);
    Value::Object(vec![
        ("seed".into(), Value::Number(p.seed as f64)),
        ("telemetry_noise_rate".into(), n(p.telemetry_noise_rate)),
        ("telemetry_noise_frac".into(), n(p.telemetry_noise_frac)),
        ("telemetry_dropout_rate".into(), n(p.telemetry_dropout_rate)),
        ("actuation_stuck_rate".into(), n(p.actuation_stuck_rate)),
        (
            "actuation_transient_rate".into(),
            n(p.actuation_transient_rate),
        ),
        ("actuation_partial_rate".into(), n(p.actuation_partial_rate)),
        ("qps_spike_rate".into(), n(p.qps_spike_rate)),
        ("qps_spike_mult".into(), n(p.qps_spike_mult)),
        ("budget_cut_rate".into(), n(p.budget_cut_rate)),
        ("budget_cut_frac".into(), n(p.budget_cut_frac)),
    ])
}

/// Parses a `[faults]` table: either a `preset` (with optional `rate` /
/// `frac` knobs) or the explicit [`FaultPlan`] fields. `default_seed`
/// (the scenario seed) applies when no `seed` key is present.
pub fn faults_from_value(v: &Value, default_seed: u64) -> Result<FaultPlan, SturgeonError> {
    let ctx = "faults";
    let seed = u64_key(v, "seed", ctx)?.unwrap_or(default_seed);
    if let Some(preset) = str_key(v, "preset", ctx)? {
        check_keys(v, &["preset", "seed", "rate", "frac"], ctx)?;
        let rate = f64_key(v, "rate", ctx)?;
        let frac = f64_key(v, "frac", ctx)?;
        let plan = match preset {
            "none" => FaultPlan::none(seed),
            "telemetry-noise" => {
                FaultPlan::telemetry_noise(seed, rate.unwrap_or(0.1), frac.unwrap_or(0.25))
            }
            "telemetry-dropout" => FaultPlan::telemetry_dropout(seed, rate.unwrap_or(0.1)),
            "actuation" => FaultPlan::actuation_faults(seed, rate.unwrap_or(0.2)),
            "shocks" => FaultPlan::shocks(seed, rate.unwrap_or(0.1)),
            "everything" => FaultPlan::everything(seed),
            other => return Err(bad(format!("unknown fault preset `{other}`"))),
        };
        return Ok(plan);
    }
    check_keys(
        v,
        &[
            "seed",
            "telemetry_noise_rate",
            "telemetry_noise_frac",
            "telemetry_dropout_rate",
            "actuation_stuck_rate",
            "actuation_transient_rate",
            "actuation_partial_rate",
            "qps_spike_rate",
            "qps_spike_mult",
            "budget_cut_rate",
            "budget_cut_frac",
        ],
        ctx,
    )?;
    let base = FaultPlan::none(seed);
    Ok(FaultPlan {
        seed,
        telemetry_noise_rate: f64_key(v, "telemetry_noise_rate", ctx)?
            .unwrap_or(base.telemetry_noise_rate),
        telemetry_noise_frac: f64_key(v, "telemetry_noise_frac", ctx)?
            .unwrap_or(base.telemetry_noise_frac),
        telemetry_dropout_rate: f64_key(v, "telemetry_dropout_rate", ctx)?
            .unwrap_or(base.telemetry_dropout_rate),
        actuation_stuck_rate: f64_key(v, "actuation_stuck_rate", ctx)?
            .unwrap_or(base.actuation_stuck_rate),
        actuation_transient_rate: f64_key(v, "actuation_transient_rate", ctx)?
            .unwrap_or(base.actuation_transient_rate),
        actuation_partial_rate: f64_key(v, "actuation_partial_rate", ctx)?
            .unwrap_or(base.actuation_partial_rate),
        qps_spike_rate: f64_key(v, "qps_spike_rate", ctx)?.unwrap_or(base.qps_spike_rate),
        qps_spike_mult: f64_key(v, "qps_spike_mult", ctx)?.unwrap_or(base.qps_spike_mult),
        budget_cut_rate: f64_key(v, "budget_cut_rate", ctx)?.unwrap_or(base.budget_cut_rate),
        budget_cut_frac: f64_key(v, "budget_cut_frac", ctx)?.unwrap_or(base.budget_cut_frac),
    })
}

impl Scenario {
    /// Parses a manifest document.
    pub fn from_toml_str(text: &str) -> Result<Self, SturgeonError> {
        let value = toml::parse(text).map_err(|e| bad(format!("manifest parse error: {e}")))?;
        Self::from_value(&value)
    }

    /// Reads and parses a manifest file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, SturgeonError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| bad(format!("cannot read manifest {}: {e}", path.display())))?;
        Self::from_toml_str(&text).map_err(|e| bad(format!("manifest {}: {e}", path.display())))
    }

    /// Lowers a parsed manifest tree into a validated scenario.
    pub fn from_value(v: &Value) -> Result<Self, SturgeonError> {
        check_keys(
            v,
            &[
                "name",
                "kind",
                "seed",
                "intervals",
                "workload",
                "controller",
                "load",
                "region_load",
                "faults",
                "policy",
                "fleet",
                "budget",
                "placement",
                "scoring",
                "search_probe",
            ],
            "manifest",
        )?;
        let name = str_key(v, "name", "manifest")?
            .ok_or_else(|| bad("manifest needs a `name`"))?
            .to_string();
        let seed = u64_key(v, "seed", "manifest")?.unwrap_or(42);
        let intervals = u64_key(v, "intervals", "manifest")?.unwrap_or(600) as u32;
        if intervals == 0 {
            return Err(bad("`intervals` must be at least 1"));
        }

        let workload = v
            .get("workload")
            .ok_or_else(|| bad("manifest needs a `[workload]` table"))?;
        check_keys(workload, &["ls", "be"], "workload")?;
        let ls =
            str_key(workload, "ls", "workload")?.ok_or_else(|| bad("`[workload]` needs `ls`"))?;
        let be =
            str_key(workload, "be", "workload")?.ok_or_else(|| bad("`[workload]` needs `be`"))?;
        let pair = ColocationPair::new(
            parse_ls(ls).ok_or_else(|| bad(format!("unknown LS service `{ls}`")))?,
            parse_be(be).ok_or_else(|| bad(format!("unknown BE app `{be}`")))?,
        );

        let controller = match v.get("controller") {
            None => ControllerSpec::default(),
            Some(c) => {
                check_keys(c, &["kind", "search", "hardened"], "controller")?;
                let kind = match str_key(c, "kind", "controller")? {
                    None => ControllerKind::Sturgeon,
                    Some(k) => ControllerKind::parse(k)
                        .ok_or_else(|| bad(format!("unknown controller kind `{k}`")))?,
                };
                let strategy = match str_key(c, "search", "controller")? {
                    None => SearchStrategy::Heuristic,
                    Some(s) => parse_search_strategy(s)
                        .ok_or_else(|| bad(format!("unknown search strategy `{s}`")))?,
                };
                ControllerSpec {
                    kind,
                    strategy,
                    hardened: bool_key(c, "hardened", "controller")?.unwrap_or(false),
                }
            }
        };

        let load = match v.get("load") {
            None => LoadProfile::paper_fluctuating(intervals as f64),
            Some(l) => load_from_value(l)?,
        };
        let region_loads = match v.get("region_load") {
            None => Vec::new(),
            Some(Value::Array(items)) => items
                .iter()
                .map(load_from_value)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(bad("`region_load` must be an array of tables")),
        };

        let faults = match v.get("faults") {
            None => FaultPlan::none(seed),
            Some(f) => faults_from_value(f, seed)?,
        };

        let policy = match v.get("policy") {
            None => ActuationPolicy::hardened(),
            Some(p) => {
                check_keys(p, &["hardened", "max_retries", "verify"], "policy")?;
                let mut policy = match bool_key(p, "hardened", "policy")? {
                    None | Some(true) => ActuationPolicy::hardened(),
                    Some(false) => ActuationPolicy::unhardened(),
                };
                if let Some(r) = u64_key(p, "max_retries", "policy")? {
                    policy.max_retries = r as u32;
                }
                if let Some(verify) = bool_key(p, "verify", "policy")? {
                    policy.verify = verify;
                }
                policy
            }
        };

        let fleet = match v.get("fleet") {
            None => None,
            Some(f) => {
                check_keys(
                    f,
                    &["nodes", "shards", "regions", "training", "dispatch"],
                    "fleet",
                )?;
                let nodes = u64_key(f, "nodes", "fleet")?
                    .ok_or_else(|| bad("`[fleet]` needs a `nodes` count"))?
                    as usize;
                // A fleet always trains once; the key survives only so
                // manifests that spell out `training = "shared"` still parse.
                if let Some(t) = str_key(f, "training", "fleet")? {
                    if t != "shared" {
                        return Err(bad(format!(
                            "`fleet.training` must be \"shared\" (a fleet trains once), got `{t}`"
                        )));
                    }
                }
                let dispatch = match str_key(f, "dispatch", "fleet")? {
                    None => FleetDispatch::Even,
                    Some(d) => FleetDispatch::parse(d)
                        .ok_or_else(|| bad(format!("unknown dispatch policy `{d}`")))?,
                };
                Some(FleetSpec {
                    nodes,
                    shards: u64_key(f, "shards", "fleet")?.unwrap_or(0) as usize,
                    regions: u64_key(f, "regions", "fleet")?.unwrap_or(1) as usize,
                    dispatch,
                })
            }
        };

        let budget = match v.get("budget") {
            None => None,
            Some(b) => {
                check_keys(b, &["rows", "event"], "budget")?;
                let rows = u64_key(b, "rows", "budget")?.unwrap_or(1) as usize;
                if rows == 0 {
                    return Err(bad("`budget.rows` must be at least 1"));
                }
                let events = match b.get("event") {
                    None => Vec::new(),
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(budget_event_from_value)
                        .collect::<Result<Vec<_>, _>>()?,
                    Some(_) => return Err(bad("`budget.event` must be an array of tables")),
                };
                Some(FleetBudget { rows, events })
            }
        };

        let placement = match v.get("placement") {
            None => None,
            Some(p) => {
                check_keys(
                    p,
                    &["interval_s", "be_slots", "max_moves", "sigma"],
                    "placement",
                )?;
                let defaults = PlacementParams::default();
                let params = PlacementParams {
                    interval_s: u64_key(p, "interval_s", "placement")?
                        .unwrap_or(defaults.interval_s as u64)
                        as u32,
                    be_slots: u64_key(p, "be_slots", "placement")?
                        .unwrap_or(defaults.be_slots as u64) as u32,
                    max_moves: u64_key(p, "max_moves", "placement")?
                        .unwrap_or(defaults.max_moves as u64)
                        as usize,
                    sigma: f64_key(p, "sigma", "placement")?.unwrap_or(defaults.sigma),
                };
                if params.interval_s == 0 {
                    return Err(bad("`placement.interval_s` must be at least 1"));
                }
                if params.be_slots == 0 {
                    return Err(bad("`placement.be_slots` must be at least 1"));
                }
                if !(0.0..=1.0).contains(&params.sigma) {
                    return Err(bad("`placement.sigma` must be in [0, 1]"));
                }
                Some(params)
            }
        };

        let scoring = match v.get("scoring") {
            None => None,
            Some(s) => {
                check_keys(
                    s,
                    &[
                        "cold_start",
                        "fallback",
                        "set_scorer",
                        "latent_dim",
                        "mask_fraction",
                        "masked_app",
                        "seed",
                    ],
                    "scoring",
                )?;
                let d = ScoringParams::default();
                let params = ScoringParams {
                    cold_start: bool_key(s, "cold_start", "scoring")?.unwrap_or(d.cold_start),
                    fallback: bool_key(s, "fallback", "scoring")?.unwrap_or(d.fallback),
                    set_scorer: bool_key(s, "set_scorer", "scoring")?.unwrap_or(d.set_scorer),
                    latent_dim: u64_key(s, "latent_dim", "scoring")?
                        .map_or(d.latent_dim, |v| v as usize),
                    mask_fraction: f64_key(s, "mask_fraction", "scoring")?
                        .unwrap_or(d.mask_fraction),
                    masked_app: str_key(s, "masked_app", "scoring")?.map(str::to_string),
                    seed: u64_key(s, "seed", "scoring")?.unwrap_or(d.seed),
                };
                params.validate()?;
                Some(params)
            }
        };

        let kind = match str_key(v, "kind", "manifest")? {
            None => {
                if fleet.is_some() {
                    ScenarioKind::Fleet
                } else {
                    ScenarioKind::Node
                }
            }
            Some("node") => ScenarioKind::Node,
            Some("fleet") => ScenarioKind::Fleet,
            Some(other) => return Err(bad(format!("unknown scenario kind `{other}`"))),
        };

        let probe = match v.get("search_probe") {
            None => None,
            Some(p) => {
                check_keys(p, &["load_fractions", "reps"], "search_probe")?;
                let fractions = p
                    .get("load_fractions")
                    .and_then(Value::as_array)
                    .ok_or_else(|| bad("`[search_probe]` needs a `load_fractions` array"))?
                    .iter()
                    .map(|f| {
                        f.as_f64()
                            .filter(|f| *f > 0.0 && *f <= 1.0)
                            .ok_or_else(|| bad("`load_fractions` must be fractions in (0, 1]"))
                    })
                    .collect::<Result<Vec<f64>, _>>()?;
                if fractions.is_empty() {
                    return Err(bad("`load_fractions` must not be empty"));
                }
                Some(SearchProbe {
                    load_fractions: fractions,
                    reps: u64_key(p, "reps", "search_probe")?.unwrap_or(3) as u32,
                })
            }
        };

        let scenario = Self {
            name,
            kind,
            seed,
            intervals,
            pair,
            controller,
            load,
            region_loads,
            faults,
            policy,
            fleet,
            budget,
            placement,
            scoring,
            probe,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Cross-field validation (also run by [`Scenario::from_value`]).
    pub fn validate(&self) -> Result<(), SturgeonError> {
        match self.kind {
            ScenarioKind::Node => {
                if self.fleet.is_some() {
                    return Err(bad("a node scenario cannot have a `[fleet]` table"));
                }
                if !self.region_loads.is_empty() {
                    return Err(bad("`region_load` is only valid for fleet scenarios"));
                }
                if self.budget.is_some() {
                    return Err(bad("`[budget]` is only valid for fleet scenarios"));
                }
                if self.placement.is_some() {
                    return Err(bad("`[placement]` is only valid for fleet scenarios"));
                }
                if self.scoring.is_some() {
                    return Err(bad("`[scoring]` is only valid for fleet scenarios"));
                }
            }
            ScenarioKind::Fleet => {
                let fleet = self
                    .fleet
                    .as_ref()
                    .ok_or_else(|| bad("a fleet scenario needs a `[fleet]` table"))?;
                if fleet.nodes == 0 {
                    return Err(bad("`fleet.nodes` must be at least 1"));
                }
                if fleet.regions == 0 {
                    return Err(bad("`fleet.regions` must be at least 1"));
                }
                if !self.controller.kind.is_sturgeon() {
                    return Err(bad(
                        "fleet scenarios run Sturgeon controllers (sturgeon / sturgeon-nob)",
                    ));
                }
                if !self.faults.is_zero() {
                    return Err(bad("fleet scenarios do not support fault injection"));
                }
                if self.probe.is_some() {
                    return Err(bad("`[search_probe]` is only valid for node scenarios"));
                }
                if !self.region_loads.is_empty() && self.region_loads.len() != fleet.regions {
                    return Err(bad(format!(
                        "`region_load` has {} entries for {} regions",
                        self.region_loads.len(),
                        fleet.regions
                    )));
                }
            }
        }
        if self.probe.is_some() && !self.controller.kind.is_sturgeon() {
            return Err(bad(
                "`[search_probe]` requires a Sturgeon controller (it probes the search engine)",
            ));
        }
        Ok(())
    }

    /// Serializes the scenario as its canonical manifest tree (the
    /// inverse of [`Scenario::from_value`]).
    pub fn to_value(&self) -> Value {
        let mut f: Vec<(String, Value)> = vec![
            ("name".into(), Value::String(self.name.clone())),
            ("kind".into(), Value::String(self.kind.name().to_string())),
            ("seed".into(), Value::Number(self.seed as f64)),
            ("intervals".into(), Value::Number(self.intervals as f64)),
        ];
        f.push((
            "workload".into(),
            Value::Object(vec![
                ("ls".into(), Value::String(self.pair.ls.name().to_string())),
                ("be".into(), Value::String(self.pair.be.name().to_string())),
            ]),
        ));
        f.push((
            "controller".into(),
            Value::Object(vec![
                (
                    "kind".into(),
                    Value::String(self.controller.kind.name().to_string()),
                ),
                (
                    "search".into(),
                    Value::String(search_strategy_name(self.controller.strategy).to_string()),
                ),
                ("hardened".into(), Value::Bool(self.controller.hardened)),
            ]),
        ));
        f.push(("load".into(), load_to_value(&self.load)));
        f.push(("faults".into(), faults_to_value(&self.faults)));
        f.push((
            "policy".into(),
            Value::Object(vec![
                (
                    "max_retries".into(),
                    Value::Number(self.policy.max_retries as f64),
                ),
                ("verify".into(), Value::Bool(self.policy.verify)),
            ]),
        ));
        if let Some(fleet) = &self.fleet {
            f.push((
                "fleet".into(),
                Value::Object(vec![
                    ("nodes".into(), Value::Number(fleet.nodes as f64)),
                    ("shards".into(), Value::Number(fleet.shards as f64)),
                    ("regions".into(), Value::Number(fleet.regions as f64)),
                    (
                        "dispatch".into(),
                        Value::String(fleet.dispatch.name().to_string()),
                    ),
                ]),
            ));
        }
        if !self.region_loads.is_empty() {
            f.push((
                "region_load".into(),
                Value::Array(self.region_loads.iter().map(load_to_value).collect()),
            ));
        }
        if let Some(budget) = &self.budget {
            f.push((
                "budget".into(),
                Value::Object(vec![
                    ("rows".into(), Value::Number(budget.rows as f64)),
                    (
                        "event".into(),
                        Value::Array(budget.events.iter().map(budget_event_to_value).collect()),
                    ),
                ]),
            ));
        }
        if let Some(p) = &self.placement {
            f.push((
                "placement".into(),
                Value::Object(vec![
                    ("interval_s".into(), Value::Number(p.interval_s as f64)),
                    ("be_slots".into(), Value::Number(p.be_slots as f64)),
                    ("max_moves".into(), Value::Number(p.max_moves as f64)),
                    ("sigma".into(), Value::Number(p.sigma)),
                ]),
            ));
        }
        if let Some(sp) = &self.scoring {
            let mut fields = vec![
                ("cold_start".into(), Value::Bool(sp.cold_start)),
                ("fallback".into(), Value::Bool(sp.fallback)),
                ("set_scorer".into(), Value::Bool(sp.set_scorer)),
                ("latent_dim".into(), Value::Number(sp.latent_dim as f64)),
                ("mask_fraction".into(), Value::Number(sp.mask_fraction)),
            ];
            if let Some(app) = &sp.masked_app {
                fields.push(("masked_app".into(), Value::String(app.clone())));
            }
            fields.push(("seed".into(), Value::Number(sp.seed as f64)));
            f.push(("scoring".into(), Value::Object(fields)));
        }
        if let Some(probe) = &self.probe {
            f.push((
                "search_probe".into(),
                Value::Object(vec![
                    (
                        "load_fractions".into(),
                        Value::Array(
                            probe
                                .load_fractions
                                .iter()
                                .map(|&f| Value::Number(f))
                                .collect(),
                        ),
                    ),
                    ("reps".into(), Value::Number(probe.reps as f64)),
                ]),
            ));
        }
        Value::Object(f)
    }

    /// Renders the canonical manifest document.
    pub fn to_toml_string(&self) -> String {
        toml::render(&self.to_value())
    }

    // -----------------------------------------------------------------
    // Lowering.
    // -----------------------------------------------------------------

    /// The experiment context this scenario runs against.
    pub fn setup(&self) -> ExperimentSetup {
        ExperimentSetup::new(self.pair, self.seed)
    }

    /// The controller tunables, composed exactly as the hand-written
    /// bins compose them: the hardened or default base, the Sturgeon /
    /// Sturgeon-NoB balancer switch, and the search-strategy override.
    pub fn controller_params(&self) -> ControllerParams {
        let base = if self.controller.hardened {
            ControllerParams::hardened()
        } else {
            ControllerParams::default()
        };
        ControllerParams {
            balancer_enabled: self.controller.kind != ControllerKind::SturgeonNoB,
            search: SearchParams {
                strategy: self.controller.strategy,
                ..base.search
            },
            ..base
        }
    }

    /// The fleet construction parameters (fleet scenarios only;
    /// `traced_shard` is left `None` — [`Scenario::run`] sets it when a
    /// sink is attached).
    pub fn fleet_params(&self) -> Result<FleetParams, SturgeonError> {
        let fleet = self
            .fleet
            .as_ref()
            .ok_or_else(|| bad("not a fleet scenario"))?;
        Ok(FleetParams {
            shards: fleet.shards,
            regions: fleet.regions,
            policy: fleet.dispatch.to_policy(),
            controller: self.controller_params(),
            traced_shard: None,
            budget: self.budget.clone(),
            placement: self.placement,
            scoring: self.scoring.clone(),
        })
    }

    /// The per-region load profiles a fleet run steps under.
    pub fn fleet_profiles(&self) -> Vec<LoadProfile> {
        if !self.region_loads.is_empty() {
            return self.region_loads.clone();
        }
        let regions = self.fleet.map_or(1, |f| f.regions);
        vec![self.load.clone(); regions]
    }

    /// Drives one node controller through the builder under the
    /// manifest's load, faults and actuation policy.
    fn go<C: ResourceController>(
        &self,
        setup: &ExperimentSetup,
        controller: C,
        sink: Option<&mut dyn TraceSink>,
        registry: Option<&MetricsRegistry>,
    ) -> Result<RunResult, SturgeonError> {
        let mut run = setup
            .runner()
            .controller(controller)
            .load(self.load.clone())
            .intervals(self.intervals)
            .faults(self.faults)
            .policy(self.policy);
        if let Some(sink) = sink {
            run = run.trace(sink);
        }
        if let Some(registry) = registry {
            run = run.metrics(registry);
        }
        run.go()
    }

    /// Executes the scenario and distills it into a metrics row — the
    /// one entry point for node and fleet runs alike.
    ///
    /// `sink` receives the decision trace: every event of a node run, or
    /// shard 0's events of a fleet run. `registry` receives the run's
    /// metrics: a node run folds every event into it, a fleet exports
    /// its aggregates into it at the end. Attaching either never
    /// perturbs the trajectory (the harness's zero-cost-observability
    /// contract).
    pub fn run(
        &self,
        sink: Option<&mut dyn TraceSink>,
        registry: Option<&MetricsRegistry>,
    ) -> Result<ScenarioOutcome, SturgeonError> {
        let started = Instant::now();
        match self.kind {
            ScenarioKind::Node => self.run_node(started, sink, registry),
            ScenarioKind::Fleet => self.run_fleet(started, sink, registry),
        }
    }

    fn run_node(
        &self,
        started: Instant,
        sink: Option<&mut dyn TraceSink>,
        registry: Option<&MetricsRegistry>,
    ) -> Result<ScenarioOutcome, SturgeonError> {
        let setup = self.setup();
        let predictor = self
            .controller
            .kind
            .is_sturgeon()
            .then(|| Arc::new(setup.train_default_predictor()));
        let spec = setup.spec().clone();
        let budget = setup.budget_w();
        let qos = setup.qos_target_ms();
        let result = match self.controller.kind {
            ControllerKind::Sturgeon | ControllerKind::SturgeonNoB => {
                let controller = SturgeonController::with_shared_predictor(
                    predictor.clone().expect("Sturgeon kinds train a predictor"),
                    spec,
                    budget,
                    qos,
                    self.controller_params(),
                );
                self.go(&setup, controller, sink, registry)
            }
            ControllerKind::Parties | ControllerKind::PartiesOrig => {
                let controller = PartiesController::new(
                    spec,
                    budget,
                    qos,
                    PartiesParams {
                        power_aware: self.controller.kind == ControllerKind::Parties,
                        ..PartiesParams::default()
                    },
                );
                self.go(&setup, controller, sink, registry)
            }
            ControllerKind::Heracles => {
                let controller =
                    HeraclesController::new(spec, budget, qos, HeraclesParams::default());
                self.go(&setup, controller, sink, registry)
            }
            ControllerKind::Reserved => {
                self.go(&setup, StaticReservationController, sink, registry)
            }
        }?;

        let mut p95s: Vec<f64> = result.log.samples().iter().map(|s| s.p95_ms).collect();
        p95s.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));

        let mut metrics = ScenarioMetrics {
            scenario: self.name.clone(),
            kind: self.kind.name(),
            pair: result.pair.clone(),
            controller: self.controller.kind.name(),
            search: search_strategy_name(self.controller.strategy),
            load: self.load.name().to_string(),
            seed: self.seed,
            intervals: self.intervals,
            nodes: 1,
            qos_rate: result.qos_rate,
            qos_p95_ms: percentile(&p95s, 0.95),
            qos_p99_ms: percentile(&p95s, 0.99),
            be_throughput: result.mean_be_throughput,
            mean_power_w: result.log.mean_power_w(),
            peak_power_w: result.peak_power_w,
            budget_w: result.budget_w,
            overload_fraction: result.overload_fraction,
            worst_node_qos: result.qos_rate,
            faults_seen: result.faults.faults_seen,
            retries: result.faults.retries,
            failed_actuations: result.faults.failed_actuations,
            stale_intervals: result.faults.stale_intervals,
            safe_mode_entries: result.faults.safe_mode_entries,
            balancer_retry_rounds: result.faults.balancer_retry_rounds,
            ..ScenarioMetrics::default()
        };

        if let (Some(probe), Some(predictor)) = (&self.probe, &predictor) {
            let params = self.controller_params().search;
            let mut durations_us: Vec<f64> = Vec::new();
            let mut model_calls = 0u64;
            let mut candidates = 0u64;
            for &frac in &probe.load_fractions {
                let qps = frac * setup.peak_qps();
                for _ in 0..probe.reps.max(1) {
                    let search = ConfigSearch::new(
                        predictor.as_ref(),
                        setup.spec().clone(),
                        setup.budget_w(),
                        params,
                    );
                    let outcome = match params.strategy {
                        SearchStrategy::Heuristic => search.best_config(qps),
                        SearchStrategy::FrontierPruned => search.pruned(qps),
                    };
                    durations_us.push(outcome.stats.duration.as_secs_f64() * 1e6);
                    model_calls += outcome.stats.model_calls;
                    candidates += outcome.stats.candidates as u64;
                }
            }
            durations_us.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
            metrics.search_p50_us = Some(percentile(&durations_us, 0.50));
            metrics.search_p95_us = Some(percentile(&durations_us, 0.95));
            metrics.search_p99_us = Some(percentile(&durations_us, 0.99));
            metrics.probe_model_calls = Some(model_calls);
            metrics.probe_candidates = Some(candidates);
        }

        metrics.wall_s = started.elapsed().as_secs_f64();
        Ok(ScenarioOutcome {
            metrics,
            node: Some(result),
            fleet: None,
        })
    }

    fn run_fleet(
        &self,
        started: Instant,
        sink: Option<&mut dyn TraceSink>,
        registry: Option<&MetricsRegistry>,
    ) -> Result<ScenarioOutcome, SturgeonError> {
        let fleet_spec = self
            .fleet
            .as_ref()
            .ok_or_else(|| bad("fleet scenario without a `[fleet]` table"))?;
        let mut params = self.fleet_params()?;
        params.traced_shard = sink.as_ref().map(|_| 0);
        let profiles = self.fleet_profiles();
        let mut fleet = Fleet::try_new(self.pair, fleet_spec.nodes, params, self.seed)?;
        let run_started = Instant::now();
        let result = match sink {
            Some(sink) => fleet.run_regional_traced(&profiles, self.intervals, sink)?,
            None => fleet.run_regional(&profiles, self.intervals)?,
        };
        let run_s = run_started.elapsed().as_secs_f64();
        let node_intervals = fleet.len() as f64 * f64::from(self.intervals);

        if let Some(registry) = registry {
            fleet.export_metrics(&result, registry);
        }
        // The row reads its histograms from a registry of its own, so a
        // caller's registry can never leak into the gated numbers.
        let registry = MetricsRegistry::new();
        fleet.export_metrics(&result, &registry);
        let p95 = registry.histogram("interval.p95_ms");
        let power = registry.histogram("interval.power_w");
        let overload = if result.nodes.is_empty() {
            0.0
        } else {
            result
                .nodes
                .iter()
                .map(|n| n.overload_fraction)
                .sum::<f64>()
                / result.nodes.len() as f64
        };

        let load_name = self
            .region_loads
            .first()
            .unwrap_or(&self.load)
            .name()
            .to_string();
        let metrics = ScenarioMetrics {
            scenario: self.name.clone(),
            kind: self.kind.name(),
            pair: self.pair.label(),
            controller: self.controller.kind.name(),
            search: search_strategy_name(self.controller.strategy),
            load: load_name,
            seed: self.seed,
            intervals: self.intervals,
            nodes: fleet.len(),
            qos_rate: result.qos_rate,
            qos_p95_ms: p95.as_ref().map_or(0.0, |h| h.p95),
            qos_p99_ms: p95.as_ref().map_or(0.0, |h| h.p99),
            be_throughput: result.total_be_throughput,
            mean_power_w: result.mean_fleet_power_w,
            peak_power_w: power.and_then(|h| h.max).unwrap_or(0.0),
            budget_w: result.fleet_budget_w,
            overload_fraction: overload,
            worst_node_qos: result.nodes.iter().map(|n| n.qos_rate).fold(1.0, f64::min),
            stale_intervals: result.fault_counters.stale_intervals,
            safe_mode_entries: result.fault_counters.safe_mode_entries,
            balancer_retry_rounds: result.fault_counters.balancer_retry_rounds,
            trainings: Some(result.trainings),
            table_builds: Some(result.table_builds),
            searches: Some(result.searches),
            shards: Some(fleet.shard_count()),
            regions: Some(fleet.region_count()),
            node_intervals_per_s: Some(node_intervals / run_s),
            peak_rss_mib: Some(peak_rss_mib().unwrap_or(-1.0)),
            budget_reclaims: self.budget.as_ref().map(|_| result.budget_reclaims),
            migrations: self.placement.map(|_| result.migrations),
            evictions: self.placement.map(|_| result.evictions),
            assignments: self.placement.map(|_| result.assignments),
            cells_observed: fleet.cold_start_report().map(|(_, r)| r.cells_observed),
            cells_hidden: fleet.cold_start_report().map(|(_, r)| r.cells_hidden),
            cold_start_cells: fleet.cold_start_report().map(|(_, r)| r.cold_start_cells),
            set_scores: self.scoring.as_ref().map(|_| result.set_scores),
            rmse_heldout: fleet.cold_start_report().map(|(_, r)| r.rmse_heldout_tput),
            wall_s: started.elapsed().as_secs_f64(),
            ..ScenarioMetrics::default()
        };
        Ok(ScenarioOutcome {
            metrics,
            node: None,
            fleet: Some(result),
        })
    }
}

/// Peak resident set size (MiB) of this process so far, from
/// `/proc/self/status` (`VmHWM`); `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nearest-rank percentile on already-sorted data (`q` in `[0, 1]`) —
/// the shared definition behind the scenario search probes and the
/// `tab_overhead` latency rows, so their gates measure the same thing.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODE_MANIFEST: &str = r#"
name = "smoke"
seed = 7
intervals = 60

[workload]
ls = "xapian"
be = "ferret"

[controller]
kind = "sturgeon-nob"
search = "pruned"
hardened = true

[load]
profile = "constant"
fraction = 0.3

[faults]
preset = "actuation"
rate = 0.1
seed = 1309

[policy]
hardened = false
"#;

    #[test]
    fn node_manifest_parses_and_roundtrips() {
        let s = Scenario::from_toml_str(NODE_MANIFEST).unwrap();
        assert_eq!(s.name, "smoke");
        assert_eq!(s.kind, ScenarioKind::Node);
        assert_eq!(s.seed, 7);
        assert_eq!(s.intervals, 60);
        assert_eq!(s.pair.label(), "xapian+ferret");
        assert_eq!(s.controller.kind, ControllerKind::SturgeonNoB);
        assert_eq!(s.controller.strategy, SearchStrategy::FrontierPruned);
        assert!(s.controller.hardened);
        assert_eq!(s.load, LoadProfile::Constant { fraction: 0.3 });
        assert_eq!(s.faults, FaultPlan::actuation_faults(1309, 0.1));
        assert_eq!(s.policy, ActuationPolicy::unhardened());
        // Canonical serialize → parse is the identity.
        let round = Scenario::from_toml_str(&s.to_toml_string()).unwrap();
        assert_eq!(round, s);
    }

    #[test]
    fn fleet_manifest_parses_and_roundtrips() {
        let text = r#"
name = "fleet-smoke"
seed = 42
intervals = 100

[workload]
ls = "memcached"
be = "raytrace"

[controller]
search = "pruned"

[fleet]
nodes = 64
shards = 4
regions = 2
dispatch = "latency"

[[region_load]]
profile = "constant"
fraction = 0.4

[[region_load]]
profile = "diurnal"
low = 0.2
high = 0.8
day_s = 100
"#;
        let s = Scenario::from_toml_str(text).unwrap();
        assert_eq!(s.kind, ScenarioKind::Fleet);
        let fleet = s.fleet.unwrap();
        assert_eq!(fleet.nodes, 64);
        assert_eq!(fleet.shards, 4);
        assert_eq!(fleet.regions, 2);
        assert_eq!(fleet.dispatch, FleetDispatch::LatencyAware);
        assert_eq!(s.region_loads.len(), 2);
        let round = Scenario::from_toml_str(&s.to_toml_string()).unwrap();
        assert_eq!(round, s);
    }

    #[test]
    fn nested_load_profiles_roundtrip() {
        for load in [
            LoadProfile::FlashCrowd {
                base: Box::new(LoadProfile::Diurnal {
                    low: 0.2,
                    high: 0.6,
                    day_s: 100.0,
                }),
                at_s: 25.0,
                ramp_s: 5.0,
                hold_s: 10.0,
                decay_s: 10.0,
                magnitude: 1.8,
            },
            LoadProfile::Failover {
                base: Box::new(LoadProfile::Constant { fraction: 0.4 }),
                at_s: 30.0,
                outage_s: 30.0,
                takeover: 0.5,
                role: FailoverRole::Survivor,
            },
            LoadProfile::Trace {
                samples: vec![0.2, 0.5, 0.9],
                dt_s: 10.0,
            },
        ] {
            let v = load_to_value(&load);
            assert_eq!(load_from_value(&v).unwrap(), load);
        }
    }

    #[test]
    fn validation_rejects_bad_combinations() {
        let err = |text: &str| Scenario::from_toml_str(text).unwrap_err().to_string();
        // Unknown key.
        assert!(err(
            "name = \"x\"\nbogus = 1\n[workload]\nls = \"memcached\"\nbe = \"raytrace\"\n"
        )
        .contains("bogus"));
        // Fleet kind without a fleet table.
        assert!(err(
            "name = \"x\"\nkind = \"fleet\"\n[workload]\nls = \"memcached\"\nbe = \"raytrace\"\n"
        )
        .contains("fleet"));
        // Fleet scenarios cannot inject faults.
        let text = "name = \"x\"\n[workload]\nls = \"memcached\"\nbe = \"raytrace\"\n\
                    [fleet]\nnodes = 4\n[faults]\npreset = \"everything\"\n";
        assert!(err(text).contains("fault"));
        // Probe needs a Sturgeon controller.
        let text = "name = \"x\"\n[workload]\nls = \"memcached\"\nbe = \"raytrace\"\n\
                    [controller]\nkind = \"reserved\"\n[search_probe]\nload_fractions = [0.2]\n";
        assert!(err(text).contains("search_probe"));
        // Baseline controllers on a fleet.
        let text = "name = \"x\"\n[workload]\nls = \"memcached\"\nbe = \"raytrace\"\n\
                    [controller]\nkind = \"parties\"\n[fleet]\nnodes = 4\n";
        assert!(err(text).contains("Sturgeon"));
        // A fleet trains once: only `training = "shared"` is accepted.
        let text = "name = \"x\"\n[workload]\nls = \"memcached\"\nbe = \"raytrace\"\n\
                    [fleet]\nnodes = 4\ntraining = \"per-node\"\n";
        assert!(err(text).contains("training"));
        // `sampled_nodes` is not a fleet key: the unknown-key error names it.
        let text = "name = \"x\"\n[workload]\nls = \"memcached\"\nbe = \"raytrace\"\n\
                    [fleet]\nnodes = 4\nsampled_nodes = 1\n";
        assert!(err(text).contains("sampled_nodes"));
    }

    #[test]
    fn regional_profiles_match_legacy_semantics() {
        // Failover needs two regions and splits takeover across survivors.
        assert!(regional_profiles("failover", 0.3, 100, 1).is_none());
        let profiles = regional_profiles("failover", 0.3, 100, 3).unwrap();
        assert_eq!(profiles.len(), 3);
        match &profiles[2] {
            LoadProfile::Failover { takeover, role, .. } => {
                assert!((takeover - 0.5).abs() < 1e-12);
                assert_eq!(*role, FailoverRole::Survivor);
            }
            other => panic!("unexpected {other:?}"),
        }
        let flash = regional_profiles("flash", 0.3, 100, 2).unwrap();
        assert_eq!(flash.len(), 2);
        assert_eq!(flash[0].name(), "flash_crowd");
    }

    #[test]
    fn default_sections_are_optional() {
        let text = "name = \"mini\"\n[workload]\nls = \"memcached\"\nbe = \"swaptions\"\n";
        let s = Scenario::from_toml_str(text).unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.intervals, 600);
        assert_eq!(s.controller, ControllerSpec::default());
        assert_eq!(s.load, LoadProfile::paper_fluctuating(600.0));
        assert!(s.faults.is_zero());
        assert_eq!(s.policy, ActuationPolicy::hardened());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&data, 0.50), 5.0);
        assert_eq!(percentile(&data, 0.95), 10.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_row_serializes_in_stable_order() {
        let m = ScenarioMetrics {
            scenario: "s".into(),
            kind: "node",
            pair: "memcached+raytrace".into(),
            controller: "sturgeon",
            search: "heuristic",
            load: "triangle".into(),
            seed: 42,
            intervals: 10,
            nodes: 1,
            qos_rate: 0.99,
            qos_p95_ms: 8.0,
            qos_p99_ms: 9.0,
            be_throughput: 0.5,
            mean_power_w: 100.0,
            peak_power_w: 120.0,
            budget_w: 130.0,
            overload_fraction: 0.0,
            worst_node_qos: 0.99,
            search_p50_us: Some(10.0),
            search_p95_us: Some(20.0),
            search_p99_us: Some(30.0),
            probe_model_calls: Some(100),
            probe_candidates: Some(5),
            wall_s: 1.5,
            ..ScenarioMetrics::default()
        };
        let v = m.to_value();
        assert_eq!(v["scenario"], "s");
        assert_eq!(v["seed"], 42);
        assert_eq!(v["probe_model_calls"], 100);
        // Fleet-only counters are omitted for node rows.
        assert!(v.get("trainings").is_none());

        let fleet = ScenarioMetrics {
            scenario: "f".into(),
            kind: "fleet",
            nodes: 1000,
            trainings: Some(1),
            table_builds: Some(1),
            searches: Some(165),
            shards: Some(3),
            regions: Some(1),
            node_intervals_per_s: Some(2.5e5),
            peak_rss_mib: Some(6.7),
            wall_s: 1.5,
            ..ScenarioMetrics::default()
        };
        let f = fleet.to_value();
        assert_eq!(f["shards"], 3);
        assert_eq!(f["regions"], 1);
        assert_eq!(f["node_intervals_per_s"], 2.5e5);
        assert_eq!(f["peak_rss_mib"], 6.7);
        // The four fleet-only keys appear on fleet rows and nowhere else.
        for key in ["shards", "regions", "node_intervals_per_s", "peak_rss_mib"] {
            assert!(v.get(key).is_none(), "node row carries `{key}`");
            assert!(f.get(key).is_some(), "fleet row lacks `{key}`");
        }
        let json = metrics_json(&[m, fleet]);
        assert!(json.starts_with('['));
        assert!(json.contains("\"wall_s\""));
        assert!(json.contains("\"peak_rss_mib\""));
    }
}
