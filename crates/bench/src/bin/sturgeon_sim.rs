//! `sturgeon_sim` — runs one node scenario manifest.
//!
//! ```text
//! sturgeon_sim --manifest scenario.toml [--export PATH_STEM]
//!              [--trace PATH.jsonl] [--metrics PATH.json]
//! ```
//!
//! The manifest (see `scenarios/` and [`sturgeon::scenario`]) describes
//! the whole run: pair, controller, load, faults, duration and seed.
//! Runs one experiment and prints the paper's three metrics; `--export`
//! additionally writes `<stem>.json` (summary) and `<stem>.csv`
//! (per-interval telemetry) via `sturgeon::report`. `--trace` streams
//! every decision-trace event of the run as JSON Lines, and `--metrics`
//! dumps the aggregated metrics registry as JSON (with a one-page text
//! summary on stderr).

use std::path::PathBuf;
use std::process::ExitCode;
use sturgeon::prelude::*;
use sturgeon::report;

#[derive(Debug)]
struct Args {
    manifest: PathBuf,
    export: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut manifest = None;
    let mut export = None;
    let mut trace = None;
    let mut metrics = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(String::new()); // triggers usage
        }
        let slot = match flag {
            "--manifest" => &mut manifest,
            "--export" => &mut export,
            "--trace" => &mut trace,
            "--metrics" => &mut metrics,
            other => return Err(format!("unknown flag {other}")),
        };
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?;
        *slot = Some(PathBuf::from(value));
        i += 2;
    }
    Ok(Args {
        manifest: manifest.ok_or("--manifest is required")?,
        export,
        trace,
        metrics,
    })
}

fn usage() {
    eprintln!(
        "usage: sturgeon_sim --manifest scenario.toml [--export PATH_STEM] \\
                    [--trace PATH.jsonl] [--metrics PATH.json]"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    let scenario = match Scenario::load(&args.manifest) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if scenario.kind != ScenarioKind::Node {
        eprintln!("error: fleet scenarios run under `fleet_sim --manifest`");
        return ExitCode::FAILURE;
    }

    eprintln!(
        "running {} under `{}` for {}s (load {}, seed {})...",
        scenario.pair.label(),
        scenario.controller.kind.name(),
        scenario.intervals,
        scenario.load.name(),
        scenario.seed
    );
    if scenario.controller.kind.is_sturgeon() {
        eprintln!("offline phase: profiling + training the predictor...");
    }

    let registry = MetricsRegistry::new();
    let metrics_ref = args.metrics.as_ref().map(|_| &registry);
    let mut trace_sink = match &args.trace {
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("error: cannot open trace file {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let sink_ref = trace_sink.as_mut().map(|sink| sink as &mut dyn TraceSink);

    let result = match scenario.run_node_observed(sink_ref, metrics_ref) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("{}", report::run_summary_json(&result));
    eprintln!(
        "\nQoS {:.2}% | BE throughput {:.3} | peak {:.1} W / budget {:.1} W | overload {:.2}%",
        result.qos_rate * 100.0,
        result.mean_be_throughput,
        result.peak_power_w,
        result.budget_w,
        result.overload_fraction * 100.0
    );
    if let Some(stem) = &args.export {
        if let Err(e) = report::export_run(&result, stem) {
            eprintln!("error: export failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "exported {} and {}",
            stem.with_extension("json").display(),
            stem.with_extension("csv").display()
        );
    }
    if let Some(path) = &args.trace {
        eprintln!("wrote decision trace to {}", path.display());
    }
    if let Some(path) = &args.metrics {
        if let Err(e) = std::fs::write(path, registry.to_json().to_string()) {
            eprintln!("error: cannot write metrics file {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprint!("{}", registry.text_summary());
        eprintln!("wrote metrics to {}", path.display());
    }
    ExitCode::SUCCESS
}
