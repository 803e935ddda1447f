//! Quickstart: co-locate memcached with raytrace on a power-constrained
//! node and let Sturgeon manage the shared resources.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sturgeon::prelude::*;

fn main() {
    // 1. Pick a co-location pair. The node (Table II Xeon), the power
    //    budget (LS solo peak power) and the interference environment all
    //    come from the paper's defaults.
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
    let setup = ExperimentSetup::new(pair, 42);
    println!(
        "node: {} cores, {} LLC ways, {:.1}–{:.1} GHz",
        setup.spec().total_cores,
        setup.spec().total_llc_ways,
        setup.spec().min_freq_ghz(),
        setup.spec().max_freq_ghz()
    );
    println!(
        "pair: {} (QoS target {} ms, peak {} QPS), power budget {:.1} W",
        pair.label(),
        setup.qos_target_ms(),
        setup.peak_qps(),
        setup.budget_w()
    );

    // 2. Offline phase: profile the applications on a "dedicated cluster"
    //    and train the performance/power models (paper §V-A).
    println!("\nprofiling and training the predictor (offline phase)...");
    let predictor = setup.train_default_predictor();

    // 3. Online phase: run the Algorithm 1 controller for ten minutes of
    //    the paper's fluctuating load (20% → 80% → 20% of peak), keeping
    //    the last few hundred decision-trace events and an aggregate
    //    metrics registry on the side.
    let controller = SturgeonController::new(
        predictor,
        setup.spec().clone(),
        setup.budget_w(),
        setup.qos_target_ms(),
        ControllerParams::default(),
    );
    let mut trace = RingSink::new(512);
    let metrics = MetricsRegistry::new();
    let result = setup
        .runner()
        .controller(controller)
        .load(LoadProfile::paper_fluctuating(600.0))
        .intervals(600)
        .trace(&mut trace)
        .metrics(&metrics)
        .go()
        .expect("run succeeds");

    // 4. The paper's three success criteria.
    println!("\n== results over {} intervals ==", result.log.len());
    println!(
        "QoS guarantee rate:        {:.2}%  (target ≥ 95%)",
        result.qos_rate * 100.0
    );
    println!(
        "mean BE throughput:        {:.3}   (normalized to raytrace's solo run)",
        result.mean_be_throughput
    );
    println!(
        "power: peak {:.1} W vs budget {:.1} W — overloaded intervals: {:.1}%",
        result.peak_power_w,
        result.budget_w,
        result.overload_fraction * 100.0
    );
    assert!(result.qos_rate >= 0.95, "QoS guarantee violated");
    assert!(!result.suffers_overload(), "power budget violated");
    println!("\nSturgeon kept the tail latency under target, never overloaded the budget,");
    println!(
        "and still extracted {:.0}% of raytrace's solo throughput from the leftovers.",
        result.mean_be_throughput * 100.0
    );

    // 5. What the observability layer saw: the searches the controller
    //    ran, the balancer's harvest/revert steps, per-interval telemetry
    //    — all without touching the control trajectory.
    println!("\n== decision trace (last {} events kept) ==", trace.len());
    for kind in TraceEvent::kinds() {
        let n = trace.count_of(kind);
        if n > 0 {
            println!("{kind:<16} {n}");
        }
    }
    println!("\n{}", metrics.text_summary());
}
