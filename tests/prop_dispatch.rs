//! Property-based tests over the dispatcher's weight invariants: for
//! every policy and any (finite, plausible) p95 history, the weights a
//! region hands its shards must be non-negative, sum to one, and — for
//! the LatencyAware policy — never spread further than the 2:1 bound
//! its bounded headroom target promises.

use proptest::prelude::*;
use sturgeon::dispatch::{DispatchPolicy, Dispatcher};

const QOS_TARGET_MS: f64 = 20.0;

/// Strategy for a plausible per-unit p95 history: values span healthy
/// (far under target), saturated (far over target), and edge cases.
fn p95_values(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..200.0, n..n + 1)
}

fn check_weights(weights: &[f64]) -> Result<(), TestCaseError> {
    let sum: f64 = weights.iter().sum();
    prop_assert!((sum - 1.0).abs() < 1e-9, "weights must sum to 1, got {sum}");
    for &w in weights {
        prop_assert!(w >= 0.0, "negative weight {w}");
        prop_assert!(w.is_finite(), "non-finite weight {w}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn even_weights_are_uniform_and_normalized(
        n in 1usize..64,
        intervals in 1usize..8,
    ) {
        let mut d = Dispatcher::try_new(DispatchPolicy::Even, n, QOS_TARGET_MS)
            .expect("valid setup");
        let p95 = vec![0.0; n];
        for _ in 0..intervals {
            let w = d.fill_weights(&p95).to_vec();
            check_weights(&w)?;
            for &x in &w {
                prop_assert!((x - 1.0 / n as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn latency_aware_stays_normalized_and_bounded(n in 2usize..32) {
        let mut d = Dispatcher::try_new(DispatchPolicy::LatencyAware, n, QOS_TARGET_MS)
            .expect("valid setup");
        let mut runner_p95 = vec![0.0; n];
        for step in 0..32usize {
            // Deterministic but varied pattern: mix saturated and idle
            // units, shifting each interval.
            for (i, slot) in runner_p95.iter_mut().enumerate() {
                *slot = ((i + step) % n) as f64 * 200.0 / n as f64;
            }
            let w = d.fill_weights(&runner_p95).to_vec();
            check_weights(&w)?;
            let max = w.iter().cloned().fold(f64::MIN, f64::max);
            let min = w.iter().cloned().fold(f64::MAX, f64::min);
            prop_assert!(
                max / min <= 2.0 + 1e-9,
                "spread {} exceeds the 2:1 bound", max / min
            );
        }
    }

    #[test]
    fn latency_aware_bounded_after_arbitrary_histories(
        p95s in prop::collection::vec(p95_values(8), 1..16),
    ) {
        let mut d = Dispatcher::try_new(DispatchPolicy::LatencyAware, 8, QOS_TARGET_MS)
            .expect("valid setup");
        for interval in &p95s {
            let w = d.fill_weights(interval).to_vec();
            check_weights(&w)?;
            let max = w.iter().cloned().fold(f64::MIN, f64::max);
            let min = w.iter().cloned().fold(f64::MAX, f64::min);
            prop_assert!(
                max / min <= 2.0 + 1e-9,
                "spread {} exceeds the 2:1 bound after {} intervals",
                max / min,
                p95s.len()
            );
        }
    }

    #[test]
    fn latency_aware_shifts_load_toward_headroom(
        slow_p95 in 25.0f64..200.0,
        fast_p95 in 0.0f64..10.0,
    ) {
        let mut d = Dispatcher::try_new(DispatchPolicy::LatencyAware, 2, QOS_TARGET_MS)
            .expect("valid setup");
        let mut w = Vec::new();
        for _ in 0..100 {
            w = d.fill_weights(&[slow_p95, fast_p95]).to_vec();
        }
        check_weights(&w)?;
        prop_assert!(
            w[1] > w[0],
            "unit with headroom must receive more load: {w:?}"
        );
    }
}

#[test]
fn dispatcher_rejects_invalid_setups() {
    assert!(Dispatcher::try_new(DispatchPolicy::Even, 0, QOS_TARGET_MS).is_err());
    assert!(Dispatcher::try_new(DispatchPolicy::LatencyAware, 0, QOS_TARGET_MS).is_err());
}
