//! Criterion bench: offline training cost of each model family on a real
//! profiling dataset (the paper's Fig. 6/7 candidates). Training runs
//! offline in a dedicated cluster, so this is not on the control path —
//! the bench documents that even the slowest family trains in well under
//! a control interval.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use sturgeon::predictor::{make_classifier, make_regressor};
use sturgeon::prelude::*;
use sturgeon::profiler::ProfilerConfig;

fn bench_training(c: &mut Criterion) {
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
    let setup = ExperimentSetup::new(pair, 42);
    let datasets = setup
        .profile(ProfilerConfig {
            ls_samples_per_load: 80,
            ls_load_fractions: vec![0.2, 0.4, 0.6, 0.8],
            be_samples: 400,
            seed: 7,
        })
        .expect("profiling succeeds");

    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    for kind in ModelKind::all() {
        group.bench_function(format!("classifier_{}", kind.name()), |b| {
            b.iter(|| {
                let mut m = make_classifier(kind);
                m.fit(black_box(&datasets.ls_qos)).expect("fit succeeds");
                black_box(m.predict_score(&[12_000.0, 8.0, 1.8, 10.0]))
            })
        });
        group.bench_function(format!("regressor_{}", kind.name()), |b| {
            b.iter(|| {
                let mut m = make_regressor(kind);
                m.fit(black_box(&datasets.be_power)).expect("fit succeeds");
                black_box(m.predict(&[5.0, 8.0, 1.8, 10.0]))
            })
        });
    }
    group.finish();

    // End-to-end offline phase: profiling + training all five models.
    let mut group = c.benchmark_group("offline_phase");
    group.sample_size(10);
    group.bench_function("profile_and_train_default", |b| {
        b.iter(|| {
            black_box(
                setup
                    .train_predictor(
                        ProfilerConfig {
                            ls_samples_per_load: 60,
                            ls_load_fractions: vec![0.2, 0.5, 0.8],
                            be_samples: 200,
                            seed: 9,
                        },
                        PredictorConfig::default(),
                    )
                    .expect("training succeeds"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
