//! Property-based tests over the budget-tree reclamation and placement
//! invariants: after any sequence of cap tighten/relax events and any
//! demand profile, every level's children sum to no more than their
//! parent's effective cap and no element exceeds its set cap; and the
//! scored placement engine never assigns or migrates a job onto a
//! safe-mode unit, no matter how the fleet snapshot looks.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use sturgeon::budget::{BudgetCap, BudgetLevel, BudgetTree};
use sturgeon::placement::{
    FleetView, PlacementAction, PlacementParams, ScoredPlacementEngine, UnitView,
};
use sturgeon::predictor::PerfPowerPredictor;
use sturgeon::prelude::*;
use sturgeon_simnode::NodeSpec;

// ---------------------------------------------------------------------
// Reclamation invariants.
// ---------------------------------------------------------------------

/// A random but valid tree geometry: `leaves` leaves split into `racks`
/// contiguous racks, racks split into `rows` rows.
fn geometry() -> impl Strategy<Value = (Vec<f64>, Vec<usize>, Vec<usize>)> {
    (
        prop::collection::vec(50.0f64..400.0, 1..10),
        1usize..4,
        1usize..3,
    )
        .prop_map(|(caps, racks, rows)| {
            let racks = racks.min(caps.len());
            let rows = rows.min(racks);
            let split = |n: usize, groups: usize| -> Vec<usize> {
                let base = n / groups;
                let extra = n % groups;
                (0..groups).map(|i| base + usize::from(i < extra)).collect()
            };
            let rack_sizes = split(caps.len(), racks);
            let row_sizes = split(racks, rows);
            (caps, rack_sizes, row_sizes)
        })
}

/// A random cap event: some level, some index (wrapped into range), a
/// tighten or relax expressed either in watts or as a nominal fraction.
fn cap_events() -> impl Strategy<Value = Vec<(u8, usize, bool, f64)>> {
    prop::collection::vec((0u8..4, 0usize..16, any::<bool>(), 0.1f64..1.5), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reclamation_holds_tree_invariants(
        geometry in geometry(),
        events in cap_events(),
        demand_frac in prop::collection::vec(0.0f64..1.2, 1..10),
    ) {
        let (caps, rack_sizes, row_sizes) = geometry;
        let mut tree = BudgetTree::new(&caps, &rack_sizes, &row_sizes).expect("valid geometry");
        let levels = [
            BudgetLevel::Node,
            BudgetLevel::Rack,
            BudgetLevel::Row,
            BudgetLevel::Datacenter,
        ];
        for (lvl, ix, as_fraction, amount) in events {
            let level = levels[lvl as usize];
            let index = ix % tree.len(level);
            let cap = if as_fraction {
                BudgetCap::FractionOfNominal(amount)
            } else {
                BudgetCap::Watts(amount * tree.nominal_cap_w(level, index))
            };
            tree.set_cap(level, index, cap).expect("in-range event");
            let demands: Vec<f64> = (0..tree.len(BudgetLevel::Node))
                .map(|i| {
                    let f = demand_frac[i % demand_frac.len()];
                    f * tree.nominal_cap_w(BudgetLevel::Node, i)
                })
                .collect();
            tree.reclaim(Some(&demands));
            if let Err(msg) = tree.check_invariants() {
                prop_assert!(false, "invariant violated after event: {msg}");
            }
            // Reclamation never *grants* beyond nominal.
            for i in 0..tree.len(BudgetLevel::Node) {
                let eff = tree.effective_cap_w(BudgetLevel::Node, i);
                let nominal = tree.nominal_cap_w(BudgetLevel::Node, i);
                prop_assert!(
                    eff <= nominal * (1.0 + 1e-9) + 1e-9,
                    "leaf {i}: effective {eff} W above nominal {nominal} W"
                );
            }
        }
        // Relaxing everything back to nominal restores full caps.
        for (ix, level) in levels.into_iter().enumerate() {
            for i in 0..tree.len(level) {
                tree.set_cap(level, i, BudgetCap::FractionOfNominal(1.0))
                    .expect("in-range");
            }
            let _ = ix;
        }
        tree.reclaim(None);
        for i in 0..tree.len(BudgetLevel::Node) {
            let eff = tree.effective_cap_w(BudgetLevel::Node, i);
            let nominal = tree.nominal_cap_w(BudgetLevel::Node, i);
            prop_assert!(
                (eff - nominal).abs() <= nominal * 1e-9 + 1e-9,
                "leaf {i}: relax did not restore nominal ({eff} vs {nominal})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Placement safety.
// ---------------------------------------------------------------------

/// One trained predictor shared across all proptest cases (training is
/// the expensive part; engine construction is free).
fn shared_artifacts() -> &'static (Arc<PerfPowerPredictor>, NodeSpec, f64) {
    static ARTIFACTS: OnceLock<(Arc<PerfPowerPredictor>, NodeSpec, f64)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let setup = ExperimentSetup::new(
            ColocationPair::new(LsServiceId::Xapian, BeAppId::Swaptions),
            17,
        );
        let predictor = Arc::new(setup.train_default_predictor());
        let peak = setup.peak_qps();
        (predictor, setup.spec().clone(), peak)
    })
}

/// A random fleet snapshot: a handful of units with arbitrary health
/// flags, loads, caps and job counts, plus some queued jobs.
fn fleet_view() -> impl Strategy<Value = FleetView> {
    let unit = (
        any::<bool>(),  // safe_mode
        any::<bool>(),  // exhausted
        0u32..3,        // be_jobs
        0.1f64..0.9,    // load fraction of peak
        40.0f64..120.0, // cap_w
    );
    (prop::collection::vec(unit, 2..5), 0u32..3).prop_map(|(units, queued)| {
        let (_, _, peak) = shared_artifacts();
        FleetView {
            t_s: 30.0,
            be: BeAppId::Swaptions,
            units: units
                .into_iter()
                .enumerate()
                .map(
                    |(i, (safe_mode, exhausted, be_jobs, frac, cap_w))| UnitView {
                        unit: i,
                        first_node: i,
                        nodes: 1,
                        qps_per_node: frac * peak,
                        cap_w,
                        safe_mode,
                        exhausted,
                        be_jobs,
                        be_slots: 2,
                        last_be_tput: 0.5,
                    },
                )
                .collect(),
            queued_jobs: queued,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn migration_never_targets_a_safe_mode_unit(view in fleet_view()) {
        let (predictor, spec, _) = shared_artifacts();
        let mut engine = ScoredPlacementEngine::new(
            Arc::clone(predictor),
            spec.clone(),
            SearchParams::default(),
            PlacementParams::default(),
        );
        let plan = engine.plan(&view);
        let mut jobs: Vec<u32> = view.units.iter().map(|u| u.be_jobs).collect();
        let mut queued = view.queued_jobs;
        for action in &plan.actions {
            match *action {
                PlacementAction::Assign { unit, .. } => {
                    prop_assert!(
                        !view.units[unit].safe_mode,
                        "assigned a job to safe-mode unit {unit}"
                    );
                    prop_assert!(queued > 0, "assign without a queued job");
                    prop_assert!(jobs[unit] < view.units[unit].be_slots);
                    queued -= 1;
                    jobs[unit] += 1;
                }
                PlacementAction::Migrate { from, to, .. } => {
                    prop_assert!(
                        !view.units[to].safe_mode,
                        "migrated a job onto safe-mode unit {to}"
                    );
                    prop_assert!(from != to, "self-migration");
                    prop_assert!(jobs[from] > 0, "migration from an empty unit");
                    prop_assert!(jobs[to] < view.units[to].be_slots);
                    jobs[from] -= 1;
                    jobs[to] += 1;
                }
                PlacementAction::Evict { unit, .. } => {
                    prop_assert!(jobs[unit] > 0, "eviction from an empty unit");
                    jobs[unit] -= 1;
                    queued += 1;
                }
            }
        }
        // Jobs are conserved: every plan only moves them around.
        let before: u32 = view.units.iter().map(|u| u.be_jobs).sum::<u32>() + view.queued_jobs;
        let after: u32 = jobs.iter().sum::<u32>() + queued;
        prop_assert_eq!(before, after, "plan created or destroyed jobs");
        prop_assert!(plan.actions.len() <= PlacementParams::default().max_moves);
    }
}
