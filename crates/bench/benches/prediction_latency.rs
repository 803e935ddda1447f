//! Criterion bench: per-prediction latency of the trained models. The
//! paper measures 0.04 ms (40 µs) per model call on its platform and the
//! whole §VII-E overhead argument rests on it; this bench verifies our
//! models predict in comparable (or better) time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use sturgeon::predictor::{make_classifier, make_regressor};
use sturgeon::prelude::*;
use sturgeon::profiler::ProfilerConfig;

fn bench_prediction(c: &mut Criterion) {
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
    let setup = ExperimentSetup::new(pair, 42);
    let datasets = setup
        .profile(ProfilerConfig::default())
        .expect("profiling succeeds");

    let mut group = c.benchmark_group("predict");
    // Individual families on full-size training sets.
    for kind in ModelKind::all() {
        let mut clf = make_classifier(kind);
        clf.fit(&datasets.ls_qos).expect("fit succeeds");
        group.bench_function(format!("classifier_{}", kind.name()), |b| {
            b.iter(|| black_box(clf.predict_score(black_box(&[12_000.0, 8.0, 1.8, 10.0]))))
        });
        let mut reg = make_regressor(kind);
        reg.fit(&datasets.be_throughput).expect("fit succeeds");
        group.bench_function(format!("regressor_{}", kind.name()), |b| {
            b.iter(|| black_box(reg.predict(black_box(&[5.0, 8.0, 1.8, 10.0]))))
        });
    }
    group.finish();

    // The composed predictor operations the search actually issues — with
    // the memo cache on (steady-state repeat queries) and off (every call
    // runs the models), quantifying what a cache hit saves.
    let predictor = setup.train_default_predictor();
    let spec = setup.spec().clone();
    let mut group = c.benchmark_group("predictor_ops");
    let cfg = PairConfig::new(Allocation::new(6, 5, 8), Allocation::new(14, 8, 12));
    group.bench_function("ls_feasible_cached", |b| {
        b.iter(|| black_box(predictor.ls_feasible(8, 1.8, 10, black_box(12_000.0))))
    });
    group.bench_function("be_throughput_cached", |b| {
        b.iter(|| black_box(predictor.be_throughput(12, 2.0, 12)))
    });
    group.bench_function("total_power_cached", |b| {
        b.iter(|| black_box(predictor.total_power_w(&cfg, &spec, black_box(12_000.0))))
    });
    predictor.set_caching(false);
    group.bench_function("ls_feasible_uncached", |b| {
        b.iter(|| black_box(predictor.ls_feasible(8, 1.8, 10, black_box(12_000.0))))
    });
    group.bench_function("be_throughput_uncached", |b| {
        b.iter(|| black_box(predictor.be_throughput(12, 2.0, 12)))
    });
    group.bench_function("total_power_uncached", |b| {
        b.iter(|| black_box(predictor.total_power_w(&cfg, &spec, black_box(12_000.0))))
    });
    predictor.set_caching(true);
    group.finish();
}

criterion_group!(benches, bench_prediction);
criterion_main!(benches);
