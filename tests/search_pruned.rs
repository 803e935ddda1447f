//! Equivalence tests for the latticed frontier-pruned search engine.
//!
//! The engine answers from QPS-slab envelopes, so its oracle is layered:
//! at *arbitrary* loads it must return the same bits as the unpruned
//! envelope sweep (`exhaustive_latticed`); at *slab-center* loads the
//! envelope degenerates to the live models and the engine must match
//! the live exhaustive serial oracle bit for bit. The property sweep
//! additionally checks the slabs cell-by-cell against the live
//! predictor, that the between-slab envelope is never optimistic, and
//! that a memoized engine walking the load stays bit-identical to the
//! stateless sweep. The bracket-memo test pins that a memo hit is exact
//! and that no budget, guard band, BE core or way floor, or power-load
//! headroom ever reads another key's outcome.

use proptest::prelude::*;
use std::sync::OnceLock;
use sturgeon::prelude::*;
use sturgeon::profiler::{Profiler, ProfilerConfig};
use sturgeon_workloads::catalog::{be_app, ls_service};
use sturgeon_workloads::env::CoLocationEnv;
use sturgeon_workloads::interference::InterferenceParams;

/// Shared production-recipe predictor (training once keeps the suite fast).
fn shared_predictor() -> &'static (PerfPowerPredictor, ExperimentSetup) {
    static CELL: OnceLock<(PerfPowerPredictor, ExperimentSetup)> = OnceLock::new();
    CELL.get_or_init(|| {
        let setup = ExperimentSetup::new(
            ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
            2024,
        );
        let predictor = setup.train_default_predictor();
        (predictor, setup)
    })
}

#[test]
fn pruned_matches_envelope_oracle_on_pinned_production_setup() {
    let (predictor, setup) = shared_predictor();
    let search = ConfigSearch::new(
        predictor,
        setup.spec().clone(),
        setup.budget_w(),
        SearchParams::default(),
    );
    for frac in [0.1, 0.2, 0.35, 0.5, 0.65, 0.8] {
        let qps = frac * setup.peak_qps();
        let full = search.exhaustive_latticed(qps);
        let pruned = search.pruned(qps);
        assert_eq!(pruned.best, full.best, "config mismatch at frac {frac}");
        assert_eq!(
            pruned.predicted_throughput.to_bits(),
            full.predicted_throughput.to_bits()
        );
        assert!(
            pruned.stats.candidates <= full.stats.candidates,
            "frac {frac}: envelope sweep evaluated {} candidates, pruned {}",
            full.stats.candidates,
            pruned.stats.candidates
        );
        assert_eq!(
            pruned.stats.model_calls, 0,
            "the latticed inner loop must not touch the live models"
        );
    }
}

#[test]
fn pruned_matches_envelope_oracle_under_tight_budgets() {
    // Tight budgets are where the bound order differs most from C1 order:
    // the budget, not LS feasibility, decides which cells can win.
    let (predictor, setup) = shared_predictor();
    for budget_frac in [0.6, 0.7, 0.8, 0.9, 1.0] {
        let search = ConfigSearch::new(
            predictor,
            setup.spec().clone(),
            budget_frac * setup.budget_w(),
            SearchParams::default(),
        );
        for frac in [0.1, 0.25, 0.4, 0.55, 0.7, 0.85] {
            let qps = frac * setup.peak_qps();
            let full = search.exhaustive_latticed(qps);
            let pruned = search.pruned(qps);
            let tag = format!("budget {budget_frac}, load {frac}");
            assert_eq!(pruned.best, full.best, "{tag}: config mismatch");
            assert_eq!(
                pruned.predicted_throughput.to_bits(),
                full.predicted_throughput.to_bits(),
                "{tag}: throughput bits differ"
            );
            assert!(pruned.stats.candidates <= full.stats.candidates, "{tag}");
            assert_eq!(pruned.stats.model_calls, 0, "{tag}");
        }
    }
}

#[test]
fn pruned_matches_live_oracle_at_slab_centers() {
    let (predictor, setup) = shared_predictor();
    let params = SearchParams::default();
    let search = ConfigSearch::new(predictor, setup.spec().clone(), setup.budget_w(), params);
    let slabs = predictor.ls_slabs(setup.spec(), params.power_load_headroom);
    for bucket in [6u64, 13, 26, 40, 51] {
        let qps = slabs.center(bucket);
        let live = search.exhaustive_serial(qps);
        let pruned = search.pruned(qps);
        assert_eq!(pruned.best, live.best, "config mismatch at bucket {bucket}");
        assert_eq!(
            pruned.predicted_throughput.to_bits(),
            live.predicted_throughput.to_bits(),
            "throughput bits differ at bucket {bucket}"
        );
    }
}

#[test]
fn frontier_seeded_search_stays_oracle_equal_across_load_drift() {
    let (predictor, setup) = shared_predictor();
    let params = SearchParams::default();
    let frontiers = FrontierCache::default();
    let search = ConfigSearch::new(predictor, setup.spec().clone(), setup.budget_w(), params)
        .with_frontiers(&frontiers);
    let slabs = predictor.ls_slabs(setup.spec(), params.power_load_headroom);
    // Walk a small diurnal-style load path; every step must stay
    // bit-identical to the envelope oracle, whether it swept or was
    // answered from the bracket memo, and every return to a bracket
    // already solved must be a memo hit.
    let mut seen = std::collections::HashSet::new();
    let mut reuses = 0;
    let mut revisits = 0;
    for frac in [0.30, 0.31, 0.33, 0.40, 0.33, 0.31, 0.30] {
        let qps = frac * setup.peak_qps();
        let pruned = search.pruned(qps);
        let full = search.exhaustive_latticed(qps);
        assert_eq!(pruned.best, full.best, "mismatch at frac {frac}");
        assert_eq!(
            pruned.predicted_throughput.to_bits(),
            full.predicted_throughput.to_bits(),
            "throughput bits differ at frac {frac}"
        );
        reuses += pruned.stats.frontier_reuses;
        revisits += u64::from(!seen.insert(slabs.bracket(qps)));
    }
    assert!(reuses > 0, "revisited loads must reuse the memo");
    assert_eq!(reuses, revisits, "exactly the revisited brackets must hit");
}

#[test]
fn incremental_walk_is_bit_identical_to_full_pruned() {
    let (predictor, setup) = shared_predictor();
    let params = SearchParams::default();
    let frontiers = FrontierCache::default();
    let warm = ConfigSearch::new(predictor, setup.spec().clone(), setup.budget_w(), params)
        .with_frontiers(&frontiers);
    let cold = ConfigSearch::new(predictor, setup.spec().clone(), setup.budget_w(), params);
    let slabs = predictor.ls_slabs(setup.spec(), params.power_load_headroom);
    let q = slabs.quantum();
    // An arbitrary one-bucket QPS walk (steps of at most one quantum):
    // the memoized engine answers revisited brackets from the memo, the
    // stateless one re-sweeps, and they must agree bit for bit at every
    // step.
    let mut qps = 20.4 * q;
    for delta in [0.9, -0.3, 1.0, 0.6, -1.0, -0.8, 0.2, 1.0, -0.5, 0.95] {
        qps += delta * q;
        let inc = warm.pruned(qps);
        let full = cold.pruned(qps);
        assert_eq!(inc.best, full.best, "config mismatch at qps {qps}");
        assert_eq!(
            inc.predicted_throughput.to_bits(),
            full.predicted_throughput.to_bits(),
            "throughput bits differ at qps {qps}"
        );
    }
}

#[test]
fn bracket_memo_is_exact_on_revisits_and_never_crosses_keys() {
    let (predictor, setup) = shared_predictor();
    let params = SearchParams::default();
    let frontiers = FrontierCache::default();
    let memo = ConfigSearch::new(predictor, setup.spec().clone(), setup.budget_w(), params)
        .with_frontiers(&frontiers);
    let oracle = ConfigSearch::new(predictor, setup.spec().clone(), setup.budget_w(), params);
    let slabs = predictor.ls_slabs(setup.spec(), params.power_load_headroom);
    let q = slabs.quantum();

    // A load walk that keeps coming back to brackets it has solved: every
    // step must match the envelope oracle bit for bit, and exactly the
    // revisits must be answered from the memo.
    let mut seen = std::collections::HashSet::new();
    let mut revisits = 0;
    let mut qps = 20.4 * q;
    for delta in [
        0.9, -0.3, 1.0, 0.6, -1.0, -0.8, 0.2, 1.0, -0.5, 0.95, 2.5, -2.4,
    ] {
        qps += delta * q;
        let got = memo.pruned(qps);
        let want = oracle.exhaustive_latticed(qps);
        assert_eq!(got.best, want.best, "config mismatch at qps {qps}");
        assert_eq!(
            got.predicted_throughput.to_bits(),
            want.predicted_throughput.to_bits(),
            "throughput bits differ at qps {qps}"
        );
        let revisit = !seen.insert(slabs.bracket(qps));
        assert_eq!(got.stats.frontier_reuses, u64::from(revisit), "qps {qps}");
        revisits += u64::from(revisit);
    }
    assert!(revisits > 0, "the walk must revisit a bracket");

    // One memo shared by searches that differ from a base in one key
    // field each — budget, guard band, BE core floor, BE way floor,
    // power-load headroom — all at one load (so one bracket): each
    // key's first search must sweep and match its own oracle, and its
    // repeat must hit. The headroom variant replaces its predictor's slab
    // family, so the leg trains its own rather than churn the shared one.
    let own = setup
        .train_predictor(
            ProfilerConfig {
                ls_samples_per_load: 60,
                ls_load_fractions: vec![0.2, 0.4, 0.6, 0.8],
                be_samples: 200,
                seed: 1,
            },
            PredictorConfig::default(),
        )
        .expect("training succeeds");
    let qps = 0.5 * setup.peak_qps();
    let budget = setup.budget_w();
    let base = SearchParams::default();
    let variants = [
        ("base", budget, base),
        (
            "guard band",
            budget,
            SearchParams {
                power_guard: 0.10,
                ..base
            },
        ),
        ("budget", 0.9 * budget, base),
        (
            "BE core floor",
            budget,
            SearchParams {
                min_be_cores: 13,
                ..base
            },
        ),
        (
            "BE way floor",
            budget,
            SearchParams {
                min_be_ways: 8,
                ..base
            },
        ),
        (
            "headroom",
            budget,
            SearchParams {
                power_load_headroom: 0.3,
                ..base
            },
        ),
    ];
    let shared = FrontierCache::default();
    let visit = |expect_hit: bool| {
        variants
            .iter()
            .map(|&(name, budget_w, params)| {
                let want = ConfigSearch::new(&own, setup.spec().clone(), budget_w, params)
                    .exhaustive_latticed(qps);
                let got = ConfigSearch::new(&own, setup.spec().clone(), budget_w, params)
                    .with_frontiers(&shared)
                    .pruned(qps);
                let tag = format!("{name}, hit {expect_hit}");
                assert_eq!(got.best, want.best, "{tag}: config mismatch");
                assert_eq!(
                    got.predicted_throughput.to_bits(),
                    want.predicted_throughput.to_bits(),
                    "{tag}: throughput bits differ"
                );
                assert_eq!(got.stats.frontier_reuses, u64::from(expect_hit), "{tag}");
                (want.best, want.predicted_throughput.to_bits())
            })
            .collect::<Vec<_>>()
    };
    let first = visit(false);
    assert_eq!(visit(true), first);
    // The key only discriminates if the variants' answers differ. The
    // base answer gives the LS partition 8 of 20 cores and 13 of 20 ways,
    // so a BE floor of 13 cores leaves no feasible configuration (a
    // memoized `None`) and one of 8 ways forces a different LS cache
    // share.
    for (&(name, ..), outcome) in variants.iter().zip(&first).skip(1) {
        assert_ne!(*outcome, first[0], "{name} must change the outcome");
    }
    assert_eq!(shared.len(), variants.len());
}

/// Trains a small (but real) predictor on an arbitrary node geometry.
fn train_on(
    spec: NodeSpec,
    ls_idx: usize,
    be_idx: usize,
    seed: u64,
) -> (CoLocationEnv, PerfPowerPredictor) {
    let ls_ids = LsServiceId::all();
    let be_ids = BeAppId::all();
    let env = CoLocationEnv::new(
        spec,
        PowerModel::default(),
        ls_service(ls_ids[ls_idx % ls_ids.len()]),
        be_app(be_ids[be_idx % be_ids.len()]),
        InterferenceParams::none(),
        seed,
    );
    let d = Profiler::new(
        &env,
        ProfilerConfig {
            ls_samples_per_load: 40,
            ls_load_fractions: vec![0.2, 0.4, 0.6, 0.8],
            be_samples: 200,
            seed,
        },
    )
    .collect()
    .expect("profiling succeeds");
    let p = PerfPowerPredictor::train(
        &d,
        PredictorConfig::default(),
        env.static_power_w(),
        env.be().params.input_level as f64,
        env.ls().params.qos_target_ms,
    )
    .expect("training succeeds");
    (env, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole equivalence property, over random node geometries
    /// (core counts, DVFS tables, LLC sizes), workload pairs and loads:
    ///
    /// 1. slab cells agree with the live predictor bit for bit at slab
    ///    centers (feasibility and LS power);
    /// 2. the between-slab envelope is never optimistic — an
    ///    envelope-feasible cell is feasible at *both* bracketing
    ///    centers, and envelope power is never below either center's;
    /// 3. the pruned engine equals the envelope oracle at the probed
    ///    load and the live serial oracle at a slab center;
    /// 4. a one-bucket QPS walk on a memoized engine stays bit-identical
    ///    to the stateless full sweep.
    #[test]
    fn latticed_engine_equals_oracles_on_random_nodes_and_workloads(
        cores in 8u32..15,
        n_freqs in 6usize..9,
        ways in 8u32..13,
        base_centi in 100u32..140,
        step_centi in 5u32..20,
        ls_idx in 0usize..8,
        be_idx in 0usize..8,
        seed in 0u64..1_000,
        frac_pct in 15u32..80,
    ) {
        let spec = NodeSpec {
            total_cores: cores,
            freq_levels_ghz: (0..n_freqs)
                .map(|i| (base_centi as f64 + (i as f64) * step_centi as f64) / 100.0)
                .collect(),
            total_llc_ways: ways,
            llc_mb: 1.25 * ways as f64,
        };
        prop_assert!(spec.validate().is_ok());
        let (env, p) = train_on(spec.clone(), ls_idx, be_idx, seed);
        let params = SearchParams::default();
        let search = ConfigSearch::new(&p, spec.clone(), env.budget_w(), params);
        let qps = (frac_pct as f64 / 100.0) * env.ls().params.peak_qps;

        // (1) + (2): slab cells vs the live predictor at the probed
        // load's bracketing centers.
        let slabs = p.ls_slabs(&spec, params.power_load_headroom);
        let (k_lo, k_hi) = slabs.bracket(qps);
        let lo = p.ls_slab(&spec, &slabs, k_lo);
        let hi = p.ls_slab(&spec, &slabs, k_hi);
        for (slab, k) in [(&lo, k_lo), (&hi, k_hi)] {
            let center = slabs.center(k);
            let center_power = center * (1.0 + slabs.headroom());
            for c in 1..=spec.total_cores {
                for f in 0..spec.freq_level_count() {
                    let ghz = spec.freq_ghz(f);
                    for w in 1..=spec.total_llc_ways {
                        prop_assert_eq!(
                            p.slab_feasible(&spec, slab, c, f, w),
                            p.ls_feasible(c, ghz, w, center),
                            "feasibility differs at bucket {} cell ({}, {}, {})", k, c, f, w
                        );
                        prop_assert_eq!(
                            p.slab_ls_power_w(&spec, slab, c, f, w).to_bits(),
                            p.ls_power_w(c, ghz, w, center_power).to_bits(),
                            "LS power bits differ at bucket {} cell ({}, {}, {})", k, c, f, w
                        );
                    }
                }
            }
        }
        // (2) follows structurally (the envelope is AND / max of the two
        // slabs just verified); spot-check the composition anyway.
        let feasible = |slab, c, f, w| p.slab_feasible(&spec, slab, c, f, w);
        let power = |slab, c, f, w| p.slab_ls_power_w(&spec, slab, c, f, w);
        for c in 1..=spec.total_cores {
            for w in 1..=spec.total_llc_ways {
                let f = spec.max_freq_level();
                let env_feasible = feasible(&lo, c, f, w) && feasible(&hi, c, f, w);
                if env_feasible {
                    prop_assert!(feasible(&lo, c, f, w) && feasible(&hi, c, f, w));
                }
                let env_power = power(&lo, c, f, w).max(power(&hi, c, f, w));
                prop_assert!(env_power >= power(&lo, c, f, w));
                prop_assert!(env_power >= power(&hi, c, f, w));
            }
        }

        // (3): engine vs envelope oracle at the probed load, and vs the
        // live oracle at a slab center.
        let full = search.exhaustive_latticed(qps);
        let pruned = search.pruned(qps);
        prop_assert_eq!(pruned.best, full.best);
        prop_assert_eq!(
            pruned.predicted_throughput.to_bits(),
            full.predicted_throughput.to_bits()
        );
        prop_assert!(pruned.stats.candidates <= full.stats.candidates);
        let center_qps = slabs.center(k_lo);
        let live = search.exhaustive_serial(center_qps);
        let at_center = search.pruned(center_qps);
        prop_assert_eq!(at_center.best, live.best);
        prop_assert_eq!(
            at_center.predicted_throughput.to_bits(),
            live.predicted_throughput.to_bits()
        );

        // (4): one-bucket walk, memoized vs stateless.
        let frontiers = FrontierCache::default();
        let warm = ConfigSearch::new(&p, spec.clone(), env.budget_w(), params)
            .with_frontiers(&frontiers);
        let q = slabs.quantum();
        let mut walk_qps = qps;
        for (i, delta) in [0.7, -1.0, 0.4, 1.0, -0.6].into_iter().enumerate() {
            walk_qps = (walk_qps + delta * q).max(0.0);
            let inc = warm.pruned(walk_qps);
            let fresh = search.pruned(walk_qps);
            prop_assert_eq!(inc.best, fresh.best, "walk step {} diverged", i);
            prop_assert_eq!(
                inc.predicted_throughput.to_bits(),
                fresh.predicted_throughput.to_bits()
            );
        }
    }
}
