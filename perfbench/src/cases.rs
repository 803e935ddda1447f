//! The four workloads and the inputs each derives from `--seed`.
//!
//! Every workload co-locates memcached with raytrace and, on fleets,
//! shares one trained predictor across shards. Load is a simulated open
//! loop: the offered QPS follows the profile whatever the nodes do.

use std::sync::Arc;
use sturgeon::prelude::*;
use sturgeon::scenario;

/// The co-location pair every workload serves.
pub const PAIR: ColocationPair = ColocationPair {
    ls: LsServiceId::Memcached,
    be: BeAppId::Raytrace,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DiurnalPruned,
    DiurnalHeuristic,
    BudgetPlacement,
    NodeFaults,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DiurnalPruned,
        Workload::DiurnalHeuristic,
        Workload::BudgetPlacement,
        Workload::NodeFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DiurnalPruned => "fleet-diurnal-pruned",
            Workload::DiurnalHeuristic => "fleet-diurnal-heuristic",
            Workload::BudgetPlacement => "fleet-budget-placement",
            Workload::NodeFaults => "node-faults",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A fleet workload: everything `Fleet::try_new` and `run_regional` take.
pub struct FleetCase {
    pub nodes: usize,
    pub params: FleetParams,
    pub profiles: Vec<LoadProfile>,
    pub intervals: u32,
    pub seed: u64,
}

impl FleetCase {
    pub fn node_intervals(&self) -> u64 {
        self.nodes as u64 * u64::from(self.intervals)
    }

    pub fn pruned(&self) -> bool {
        self.params.controller.search.strategy == SearchStrategy::FrontierPruned
    }

    /// Builds the fleet (the measured set-up phase).
    pub fn build(&self) -> Result<Fleet, SturgeonError> {
        Fleet::try_new(PAIR, self.nodes, self.params.clone(), self.seed)
    }
}

/// The single-node workload: a hardened controller under every fault
/// class, driven through `RunBuilder`.
pub struct NodeCase {
    pub params: ControllerParams,
    pub load: LoadProfile,
    pub intervals: u32,
    pub faults: FaultPlan,
    pub seed: u64,
}

impl NodeCase {
    /// Trains the predictor and builds the controller (the measured
    /// set-up phase). The predictor handle is returned for the
    /// `table_builds` check.
    pub fn build(&self) -> (ExperimentSetup, SturgeonController, Arc<PerfPowerPredictor>) {
        let setup = ExperimentSetup::new(PAIR, self.seed);
        let predictor = Arc::new(setup.train_default_predictor());
        let controller = self.controller(&setup, Arc::clone(&predictor));
        (setup, controller, predictor)
    }

    pub fn controller(
        &self,
        setup: &ExperimentSetup,
        predictor: Arc<PerfPowerPredictor>,
    ) -> SturgeonController {
        SturgeonController::with_shared_predictor(
            predictor,
            setup.spec().clone(),
            setup.budget_w(),
            setup.qos_target_ms(),
            self.params,
        )
    }

    /// Runs `controller` through the public run builder.
    pub fn run<C: ResourceController>(
        &self,
        setup: &ExperimentSetup,
        controller: C,
    ) -> Result<RunResult, SturgeonError> {
        setup
            .runner()
            .controller(controller)
            .load(self.load.clone())
            .intervals(self.intervals)
            .faults(self.faults)
            .policy(ActuationPolicy::hardened())
            .go()
    }
}

pub enum Case {
    Fleet(FleetCase),
    Node(NodeCase),
}

/// `golden_rack_cut` traffic and budget cuts on a 4,800-node, 24-shard,
/// two-region fleet, with `golden_cold_start`'s scoring table and
/// pruned search. The seed is set from `--seed` after parsing.
const BUDGET_PLACEMENT: &str = r#"
name = "perfbench-budget-placement"
kind = "fleet"
seed = 42
intervals = 240

[workload]
ls = "memcached"
be = "raytrace"

[controller]
kind = "sturgeon"
search = "pruned"
hardened = false

[[region_load]]
profile = "flash_crowd"
at_s = 60
ramp_s = 20
hold_s = 120
decay_s = 40
magnitude = 2.4

[region_load.base]
profile = "constant"
fraction = 0.35

[[region_load]]
profile = "constant"
fraction = 0.35

[fleet]
nodes = 4800
shards = 24
regions = 2
training = "shared"
dispatch = "even"

[budget]
rows = 2

[[budget.event]]
at_s = 80
level = "rack"
index = 0
cap_frac = 0.78

[[budget.event]]
at_s = 160
level = "row"
index = 1
cap_frac = 0.75

[placement]
interval_s = 30
be_slots = 2
max_moves = 8
sigma = 0.25

[scoring]
cold_start = true
set_scorer = true
latent_dim = 8
mask_fraction = 0.25
seed = 23566
"#;

/// The 10,000-node diurnal fleet (the committed `BENCH_fleet` 10k row)
/// under one search strategy.
fn diurnal(strategy: SearchStrategy, seed: u64) -> FleetCase {
    let intervals = 1000;
    let profiles = scenario::regional_profiles("diurnal", 0.3, intervals, 1)
        .expect("diurnal is a known profile");
    let controller = ControllerParams {
        search: SearchParams {
            strategy,
            ..SearchParams::default()
        },
        ..ControllerParams::default()
    };
    FleetCase {
        nodes: 10_000,
        params: FleetParams {
            controller,
            ..FleetParams::default()
        },
        profiles,
        intervals,
        seed,
    }
}

fn budget_placement(seed: u64) -> Result<FleetCase, String> {
    let mut s = Scenario::from_toml_str(BUDGET_PLACEMENT).map_err(|e| e.to_string())?;
    s.seed = seed;
    s.validate().map_err(|e| e.to_string())?;
    let nodes = s.fleet.map(|f| f.nodes).ok_or("fleet table missing")?;
    Ok(FleetCase {
        nodes,
        params: s.fleet_params().map_err(|e| e.to_string())?,
        profiles: s.fleet_profiles(),
        intervals: s.intervals,
        seed,
    })
}

fn node_faults(seed: u64) -> NodeCase {
    let params = ControllerParams {
        search: SearchParams {
            strategy: SearchStrategy::Heuristic,
            ..SearchParams::default()
        },
        ..ControllerParams::hardened()
    };
    NodeCase {
        params,
        load: LoadProfile::paper_fluctuating(600.0),
        intervals: 3600,
        // The fault stream gets its own seed, derived the way
        // `tab_robustness` derives it.
        faults: FaultPlan::everything(seed.wrapping_mul(31).wrapping_add(7)),
        seed,
    }
}

pub fn case(workload: Workload, seed: u64) -> Result<Case, String> {
    Ok(match workload {
        Workload::DiurnalPruned => Case::Fleet(diurnal(SearchStrategy::FrontierPruned, seed)),
        Workload::DiurnalHeuristic => Case::Fleet(diurnal(SearchStrategy::Heuristic, seed)),
        Workload::BudgetPlacement => Case::Fleet(budget_placement(seed)?),
        Workload::NodeFaults => Case::Node(node_faults(seed)),
    })
}

/// The fleet's shard and region split, computed the way `Fleet::try_new`
/// computes it.
pub struct Geometry {
    pub shard_lens: Vec<usize>,
    pub first_nodes: Vec<usize>,
    /// Shard index range `[lo, hi)` of each region.
    pub regions: Vec<(usize, usize)>,
}

impl Geometry {
    pub fn new(nodes: usize, shards: usize, regions: usize) -> Self {
        let count = match shards {
            0 => (nodes / 256).clamp(1, 512).min(nodes),
            s => s,
        };
        let shard_lens: Vec<usize> = split(nodes, count);
        let first_nodes = shard_lens
            .iter()
            .scan(0, |next, &len| {
                let first = *next;
                *next += len;
                Some(first)
            })
            .collect();
        let mut lo = 0;
        let regions = split(count, regions)
            .into_iter()
            .map(|len| {
                lo += len;
                (lo - len, lo)
            })
            .collect();
        Self {
            shard_lens,
            first_nodes,
            regions,
        }
    }

    pub fn region_nodes(&self, region: usize) -> usize {
        let (lo, hi) = self.regions[region];
        self.shard_lens[lo..hi].iter().sum()
    }
}

/// `n` items in `groups` contiguous groups, remainders to the earliest.
pub fn split(n: usize, groups: usize) -> Vec<usize> {
    (0..groups)
        .map(|g| n / groups + usize::from(g < n % groups))
        .collect()
}
