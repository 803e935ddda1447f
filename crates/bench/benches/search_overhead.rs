//! Criterion bench backing the §VII-E overhead table: wall-clock time of
//! the O(N log N) binary configuration search, the O(N⁴) exhaustive
//! sweep, and the frontier-pruned engine (exhaustive-equivalent results)
//! at low and high LS load — each in cached and uncached flavours (the
//! prediction memo cache), with warm-start / bracket-memo variants, and
//! for the exhaustive oracle serial vs parallel (the rayon C1 fan-out).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use sturgeon::prelude::*;

fn bench_search(c: &mut Criterion) {
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
    let setup = ExperimentSetup::new(pair, 42);
    let predictor = setup.train_default_predictor();
    let spec = setup.spec().clone();
    let budget = setup.budget_w();
    let peak = setup.peak_qps();

    let mut group = c.benchmark_group("search");
    for frac in [0.2, 0.5, 0.8] {
        let qps = frac * peak;
        group.bench_function(format!("binary_{:.0}pct", frac * 100.0), |b| {
            let search =
                ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default());
            b.iter(|| black_box(search.best_config(black_box(qps))))
        });
    }
    // Memo-cache ablation on the fast path: same search with the
    // prediction cache disabled (every query runs the models).
    group.bench_function("binary_50pct_uncached", |b| {
        let search = ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default());
        predictor.set_caching(false);
        b.iter(|| black_box(search.best_config(black_box(0.5 * peak))));
        predictor.set_caching(true);
    });
    // Warm start: the previous interval's config seeds a narrow C1 window.
    group.bench_function("binary_50pct_warm", |b| {
        let search = ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default());
        let prev_qps = 0.48 * peak;
        let prev = search.best_config(prev_qps).best.expect("feasible");
        b.iter(|| {
            black_box(search.best_config_warm(black_box(0.5 * peak), Some((&prev, prev_qps))))
        })
    });
    // The frontier-pruned engine: exhaustive-equivalent answers from the
    // table-driven branch-and-bound sweep.
    for frac in [0.2, 0.5] {
        let qps = frac * peak;
        group.bench_function(format!("pruned_{:.0}pct", frac * 100.0), |b| {
            let search =
                ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default());
            b.iter(|| black_box(search.pruned(black_box(qps))))
        });
    }
    group.bench_function("pruned_50pct_uncached", |b| {
        let search = ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default());
        predictor.set_caching(false);
        b.iter(|| black_box(search.pruned(black_box(0.5 * peak))));
        predictor.set_caching(true);
    });
    // Steady state: the load stays in one slab bracket, so the bracket
    // memo answers and no sweep runs.
    group.bench_function("pruned_50pct_frontier_warm", |b| {
        let frontiers = FrontierCache::default();
        let search = ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default())
            .with_frontiers(&frontiers);
        let _ = search.pruned(0.5 * peak);
        b.iter(|| black_box(search.pruned(black_box(0.5 * peak))))
    });
    // The exhaustive sweep is orders of magnitude slower; keep one load and
    // a reduced sample count so the bench suite stays tractable.
    group.sample_size(10);
    group.bench_function("exhaustive_20pct", |b| {
        let search = ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default());
        b.iter(|| black_box(search.exhaustive(black_box(0.2 * peak))))
    });
    // The pre-optimization baseline: single-threaded sweep, no memo cache.
    group.bench_function("exhaustive_20pct_serial_uncached", |b| {
        let search = ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default());
        predictor.set_caching(false);
        b.iter(|| black_box(search.exhaustive_serial(black_box(0.2 * peak))));
        predictor.set_caching(true);
    });
    // Isolate the two layers: parallel-only (cache off) and cached-only
    // (serial) exhaustive sweeps.
    group.bench_function("exhaustive_20pct_parallel_uncached", |b| {
        let search = ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default());
        predictor.set_caching(false);
        b.iter(|| black_box(search.exhaustive(black_box(0.2 * peak))));
        predictor.set_caching(true);
    });
    group.bench_function("exhaustive_20pct_serial_cached", |b| {
        let search = ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default());
        b.iter(|| black_box(search.exhaustive_serial(black_box(0.2 * peak))))
    });
    group.finish();

    // Per-node control sweep: the searches a 16-node fleet issues in one
    // control interval (16 nearby loads), cached vs uncached — the case
    // the shared memo cache is built for.
    let mut group = c.benchmark_group("node_sweep");
    group.sample_size(10);
    let loads: Vec<f64> = (0..16).map(|i| (0.30 + 0.01 * i as f64) * peak).collect();
    group.bench_function("sweep16_cached", |b| {
        let search = ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default());
        b.iter(|| {
            for &q in &loads {
                black_box(search.best_config(black_box(q)));
            }
        })
    });
    group.bench_function("sweep16_uncached", |b| {
        let search = ConfigSearch::new(&predictor, spec.clone(), budget, SearchParams::default());
        predictor.set_caching(false);
        b.iter(|| {
            for &q in &loads {
                black_box(search.best_config(black_box(q)));
            }
        });
        predictor.set_caching(true);
    });
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
