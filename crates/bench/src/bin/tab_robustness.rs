//! Robustness experiment (DESIGN.md fault model): QoS guarantee rate and
//! power overload per injected fault class, against the fault-free
//! baseline, on the paper's flagship pair (memcached+raytrace) under the
//! fluctuating load.
//!
//! The headline comparison is the actuator-failure scenario run twice:
//! once with the hardened stack (bounded retry + read-back verification +
//! stale-telemetry safe mode) and once with every defence disabled. The
//! hardened controller should stay within a few points of the fault-free
//! QoS guarantee rate while the unhardened one measurably degrades —
//! silent actuation failures desynchronize its believed configuration
//! from the node.
//!
//! Usage: `tab_robustness [duration_s] [seed]` (defaults 600 / 42). Exits
//! with status 1 when hardening does not reduce the actuator-fault
//! degradation, so CI can gate on the verdict.

use sturgeon::prelude::*;
use sturgeon_bench::{duration_from_args, robust_sturgeon_controller, seed_from_args};

struct Scenario {
    label: &'static str,
    plan: FaultPlan,
    hardened: bool,
}

fn main() {
    let duration = duration_from_args();
    let seed = seed_from_args();
    let fault_seed = seed.wrapping_mul(31).wrapping_add(7);
    println!("tab_robustness  duration={duration}s  seed={seed}  fault_seed={fault_seed}");
    println!("pair memcached+raytrace, paper fluctuating load\n");

    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        seed,
    );
    // Four load cycles per run (not one): every rise and fall forces
    // reconfigurations, which is exactly when actuation faults bite.
    let load = LoadProfile::paper_fluctuating((duration as f64 / 4.0).max(60.0));

    let scenarios = [
        Scenario {
            label: "baseline (fault-free)",
            plan: FaultPlan::none(fault_seed),
            hardened: true,
        },
        Scenario {
            label: "telemetry noise 15%/±25%",
            plan: FaultPlan::telemetry_noise(fault_seed, 0.15, 0.25),
            hardened: true,
        },
        Scenario {
            label: "telemetry dropout 10%",
            plan: FaultPlan::telemetry_dropout(fault_seed, 0.10),
            hardened: true,
        },
        Scenario {
            label: "actuator faults 10% (hardened)",
            plan: FaultPlan::actuation_faults(fault_seed, 0.10),
            hardened: true,
        },
        Scenario {
            label: "actuator faults 10% (unhardened)",
            plan: FaultPlan::actuation_faults(fault_seed, 0.10),
            hardened: false,
        },
        Scenario {
            label: "load/power shocks 5%",
            plan: FaultPlan::shocks(fault_seed, 0.05),
            hardened: true,
        },
        Scenario {
            label: "everything (stress)",
            plan: FaultPlan::everything(fault_seed),
            hardened: true,
        },
    ];

    println!(
        "{:<34} {:>7} {:>9} {:>8} {:>7} {:>8} {:>10}",
        "scenario", "qos%", "overload%", "be-tput", "faults", "retries", "safe-mode"
    );
    let mut baseline_qos = 0.0;
    let mut hardened_qos = 0.0;
    let mut unhardened_qos = 0.0;
    for s in &scenarios {
        let controller = robust_sturgeon_controller(&setup, s.hardened);
        let policy = if s.hardened {
            ActuationPolicy::hardened()
        } else {
            ActuationPolicy::unhardened()
        };
        let r = setup
            .runner()
            .controller(controller)
            .load(load.clone())
            .intervals(duration)
            .faults(s.plan)
            .policy(policy)
            .go()
            .expect("robustness run");
        println!(
            "{:<34} {:>7.2} {:>9.2} {:>8.3} {:>7} {:>8} {:>10}",
            s.label,
            r.qos_rate * 100.0,
            r.overload_fraction * 100.0,
            r.mean_be_throughput,
            r.faults.faults_seen,
            r.faults.retries,
            r.faults.safe_mode_entries,
        );
        match s.label {
            "baseline (fault-free)" => baseline_qos = r.qos_rate,
            "actuator faults 10% (hardened)" => hardened_qos = r.qos_rate,
            "actuator faults 10% (unhardened)" => unhardened_qos = r.qos_rate,
            _ => {}
        }
    }

    let hardened_gap = (baseline_qos - hardened_qos) * 100.0;
    let unhardened_gap = (baseline_qos - unhardened_qos) * 100.0;
    println!();
    println!("hardened QoS gap vs fault-free:   {hardened_gap:+.2} points");
    println!("unhardened QoS gap vs fault-free: {unhardened_gap:+.2} points");
    let reduces = unhardened_gap > hardened_gap;
    println!(
        "verdict: hardening {} the actuator-fault degradation ({}{:.2} points recovered)",
        if reduces {
            "reduces"
        } else {
            "does not reduce"
        },
        if reduces { "" } else { "-" },
        (unhardened_gap - hardened_gap).abs()
    );
    if !reduces {
        std::process::exit(1);
    }
}
