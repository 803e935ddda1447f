//! Integration tests for the observability layer: golden-trace
//! determinism (same seed → byte-identical JSONL), the zero-cost contract
//! (a null sink leaves the run bit-identical to an unobserved one), and
//! metrics/trace consistency with the run's own fault accounting.

use sturgeon::profiler::ProfilerConfig;
use sturgeon::{obs::JsonlSink, prelude::*};

fn fast_profiler() -> ProfilerConfig {
    ProfilerConfig {
        ls_samples_per_load: 160,
        ls_load_fractions: (1..=16).map(|i| i as f64 / 20.0).collect(),
        be_samples: 1000,
        seed: 77,
    }
}

fn sturgeon_for(setup: &ExperimentSetup) -> SturgeonController {
    let predictor = setup
        .train_predictor(fast_profiler(), PredictorConfig::default())
        .expect("training succeeds");
    SturgeonController::new(
        predictor,
        setup.spec().clone(),
        setup.budget_w(),
        setup.qos_target_ms(),
        ControllerParams::hardened(),
    )
}

fn flagship_setup() -> ExperimentSetup {
    ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        42,
    )
}

/// A fault-stressed Sturgeon run with the trace streamed into an
/// in-memory JSONL sink; returns the raw bytes.
fn traced_run_bytes(setup: &ExperimentSetup) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    setup
        .runner()
        .controller(sturgeon_for(setup))
        .load(LoadProfile::paper_fluctuating(60.0))
        .intervals(240)
        .faults(FaultPlan::everything(1309))
        .trace(&mut sink)
        .go()
        .expect("traced run succeeds");
    sink.into_inner()
}

#[test]
fn golden_trace_is_byte_identical_across_runs() {
    let setup = flagship_setup();
    let a = traced_run_bytes(&setup);
    let b = traced_run_bytes(&setup);
    assert!(!a.is_empty());
    assert_eq!(a, b, "pinned-seed JSONL traces must be byte-identical");

    // The stressed run must exercise a healthy slice of the taxonomy:
    // at least 5 distinct event types.
    let text = String::from_utf8(a).expect("JSONL is UTF-8");
    let mut kinds_seen = Vec::new();
    for line in text.lines() {
        let v = serde_json::from_str(line).expect("every line parses");
        match v {
            serde_json::Value::Object(fields) => {
                assert_eq!(fields.len(), 1, "one event-type key per line");
                let kind = fields[0].0.clone();
                assert!(
                    TraceEvent::kinds().contains(&kind.as_str()),
                    "unknown event type {kind}"
                );
                if !kinds_seen.contains(&kind) {
                    kinds_seen.push(kind);
                }
            }
            other => panic!("line is not an object: {other:?}"),
        }
    }
    assert!(
        kinds_seen.len() >= 5,
        "stressed run covered only {kinds_seen:?}"
    );
}

#[test]
fn null_sink_run_is_bit_identical_to_unobserved_run() {
    let setup = flagship_setup();
    let load = LoadProfile::paper_fluctuating(60.0);
    let plain = setup
        .runner()
        .controller(sturgeon_for(&setup))
        .load(load.clone())
        .intervals(120)
        .go()
        .unwrap();
    let mut null = NullSink;
    let nulled = setup
        .runner()
        .controller(sturgeon_for(&setup))
        .load(load.clone())
        .intervals(120)
        .trace(&mut null)
        .go()
        .unwrap();
    assert_eq!(plain.log.samples(), nulled.log.samples());
    assert_eq!(plain.audit.entries(), nulled.audit.entries());
    assert_eq!(plain.qos_rate, nulled.qos_rate);
    assert_eq!(plain.mean_be_throughput, nulled.mean_be_throughput);
    assert_eq!(plain.overload_fraction, nulled.overload_fraction);
    assert_eq!(plain.peak_power_w, nulled.peak_power_w);
    assert_eq!(plain.faults, nulled.faults);
}

#[test]
fn ring_sink_keeps_the_tail_and_counts_drops() {
    let setup = flagship_setup();
    let mut ring = RingSink::new(16);
    setup
        .runner()
        .controller(sturgeon_for(&setup))
        .load(LoadProfile::paper_fluctuating(60.0))
        .intervals(120)
        .trace(&mut ring)
        .go()
        .unwrap();
    assert_eq!(ring.len(), 16, "ring keeps exactly its capacity");
    assert!(ring.dropped() > 0, "120 intervals must overflow 16 slots");
    // The tail of the run ends at the last interval's timestamp.
    let last_t = ring.events().last().unwrap().t_s();
    assert_eq!(last_t, 120.0);
}

#[test]
fn metrics_registry_agrees_with_fault_report() {
    let setup = flagship_setup();
    let metrics = MetricsRegistry::new();
    let r = setup
        .runner()
        .controller(sturgeon_for(&setup))
        .load(LoadProfile::paper_fluctuating(60.0))
        .intervals(240)
        .faults(FaultPlan::everything(1309))
        .metrics(&metrics)
        .go()
        .unwrap();
    assert_eq!(metrics.counter("run.intervals"), 240);
    // `faults.injected` counts faulted intervals; the per-class counters
    // must reproduce the injector's own ledger exactly (an interval can
    // carry several classes, so the interval count is a lower bound).
    assert!(metrics.counter("faults.injected") > 0);
    assert!(metrics.counter("faults.injected") <= r.faults.faults_seen);
    assert_eq!(
        metrics.counter("faults.telemetry_noise"),
        r.faults.telemetry_noise
    );
    assert_eq!(
        metrics.counter("faults.telemetry_dropout"),
        r.faults.telemetry_dropouts
    );
    assert_eq!(
        metrics.counter("faults.actuation_stuck"),
        r.faults.actuation_stuck
    );
    assert_eq!(
        metrics.counter("faults.actuation_transient"),
        r.faults.actuation_transient
    );
    assert_eq!(
        metrics.counter("faults.actuation_partial"),
        r.faults.actuation_partial
    );
    assert_eq!(metrics.counter("faults.qps_spike"), r.faults.qps_spikes);
    assert_eq!(metrics.counter("faults.budget_cut"), r.faults.budget_cuts);
    assert_eq!(metrics.counter("actuation.retries"), r.faults.retries);
    assert_eq!(
        metrics.counter("actuation.retry_successes"),
        r.faults.retry_successes
    );
    assert_eq!(
        metrics.counter("actuation.failed_applies"),
        r.faults.failed_actuations
    );
    assert_eq!(
        metrics.counter("controller.safe_mode_entries"),
        r.faults.safe_mode_entries
    );
    assert!(metrics.counter("search.runs") > 0);
    let p95 = metrics.histogram("interval.p95_ms").expect("histogram");
    assert_eq!(p95.count, 240);
    // The JSON export round-trips through the serde shim.
    let json = metrics.to_json().to_string();
    let v = serde_json::from_str(&json).expect("metrics JSON parses");
    assert!(v["counters"].is_object());
    assert!(v["histograms"]["interval.p95_ms"]["count"]
        .as_u64()
        .is_some());
}

#[test]
fn builder_reports_invalid_runs_instead_of_panicking() {
    // A zero-length run is legal (empty report)…
    let setup = flagship_setup();
    let r = setup
        .runner()
        .controller(StaticReservationController)
        .load(LoadProfile::Constant { fraction: 0.3 })
        .intervals(0)
        .go()
        .unwrap();
    assert_eq!(r.log.len(), 0);
    assert_eq!(r.overload_fraction, 0.0);
}

/// A fleet of three shards on the given search engine, traced through
/// the manifest runner (shard 0's events); returns the raw JSONL bytes.
fn traced_fleet_bytes(search: &str) -> Vec<u8> {
    let scenario = Scenario::from_toml_str(&format!(
        r#"
name = "traced-fleet"
seed = 42
intervals = 60

[workload]
ls = "memcached"
be = "raytrace"

[controller]
search = "{search}"

[load]
profile = "diurnal"
low = 0.2
high = 0.8
day_s = 60

[fleet]
nodes = 48
shards = 3
"#
    ))
    .expect("manifest parses");
    let mut sink = JsonlSink::new(Vec::new());
    scenario
        .run(Some(&mut sink), None)
        .expect("traced fleet run succeeds");
    sink.into_inner()
}

#[test]
fn traced_fleet_is_byte_identical_across_runs() {
    // The other shards step concurrently with the traced one against a
    // shared predictor and prediction cache; nothing they do may leak
    // into shard 0's trace, on either engine.
    for search in ["pruned", "heuristic"] {
        let a = traced_fleet_bytes(search);
        let b = traced_fleet_bytes(search);
        let text = std::str::from_utf8(&a).expect("JSONL is UTF-8");
        assert!(text.contains("\"SearchRan\"") && !text.contains("cache_"));
        assert_eq!(a, b, "{search}: fleet traces must be byte-identical");
    }
}
