//! `scenario_run` — the one runner for node and fleet manifests; emits
//! the canonical metrics rows the `stats` gate consumes.
//!
//! ```text
//! scenario_run MANIFEST.toml [MANIFEST.toml ...] [--out PATH.json]
//!              [--trace PATH.jsonl] [--metrics PATH.json] [--export PATH_STEM]
//! ```
//!
//! Each manifest runs through `Scenario::run` and becomes one
//! `ScenarioMetrics` row; the batch goes to stdout (or `--out`) as a
//! pretty JSON array, with a one-line summary per scenario on stderr.
//! `BENCH_fleet.json` is such a batch. The output flags take exactly
//! one manifest: `--trace` streams the decision trace as JSON Lines (a
//! fleet traces shard 0), `--metrics` writes the metrics registry as
//! JSON (text summary on stderr), and `--export`, for node manifests
//! only, writes `<stem>.json` and `<stem>.csv` via `sturgeon::report`.
//!
//! ```text
//! scenario_run scenarios/smoke_node.toml --out current.json
//! stats baselines/smoke.json current.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use sturgeon::prelude::*;
use sturgeon::report;
use sturgeon::scenario::metrics_json;

#[derive(Default)]
struct Args {
    manifests: Vec<PathBuf>,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    export: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let slot = match flag {
            "--help" | "-h" => return Err(String::new()),
            "--out" => &mut args.out,
            "--trace" => &mut args.trace,
            "--metrics" => &mut args.metrics,
            "--export" => &mut args.export,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => {
                args.manifests.push(PathBuf::from(path));
                i += 1;
                continue;
            }
        };
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?;
        *slot = Some(PathBuf::from(value));
        i += 2;
    }
    if args.manifests.is_empty() {
        return Err("no manifests given".into());
    }
    for (flag, set) in [
        ("--trace", args.trace.is_some()),
        ("--metrics", args.metrics.is_some()),
        ("--export", args.export.is_some()),
    ] {
        if set && args.manifests.len() != 1 {
            return Err(format!(
                "{flag} takes exactly one manifest, got {}",
                args.manifests.len()
            ));
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: scenario_run MANIFEST.toml [MANIFEST.toml ...] [--out PATH.json]
                    [--trace PATH.jsonl] [--metrics PATH.json] [--export PATH_STEM]";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let registry = MetricsRegistry::new();
    let mut sink = match &args.trace {
        Some(path) => Some(
            JsonlSink::create(path)
                .map_err(|e| format!("cannot open trace file {}: {e}", path.display()))?,
        ),
        None => None,
    };

    let mut rows = Vec::new();
    for path in &args.manifests {
        let scenario = Scenario::load(path).map_err(|e| e.to_string())?;
        if args.export.is_some() && scenario.kind != ScenarioKind::Node {
            return Err(format!(
                "--export takes a node manifest; `{}` is a fleet",
                scenario.name
            ));
        }
        eprintln!(
            "running `{}` ({}, {} under {}, {} intervals, seed {})...",
            scenario.name,
            scenario.kind.name(),
            scenario.pair.label(),
            scenario.controller.kind.name(),
            scenario.intervals,
            scenario.seed
        );
        let outcome = scenario
            .run(
                sink.as_mut().map(|s| s as &mut dyn TraceSink),
                args.metrics.as_ref().map(|_| &registry),
            )
            .map_err(|e| format!("scenario `{}` failed: {e}", scenario.name))?;
        let m = &outcome.metrics;
        eprintln!(
            "  QoS {:.2}% (p95 {:.2} ms, p99 {:.2} ms) | BE {:.3} | power {:.0}/{:.0} W | {:.2}s",
            m.qos_rate * 100.0,
            m.qos_p95_ms,
            m.qos_p99_ms,
            m.be_throughput,
            m.mean_power_w,
            m.budget_w,
            m.wall_s
        );
        if let (Some(shards), Some(rate), Some(rss)) =
            (m.shards, m.node_intervals_per_s, m.peak_rss_mib)
        {
            eprintln!(
                "  {} nodes in {shards} shards | {:.2} M node-intervals/s | peak RSS {rss:.0} MiB",
                m.nodes,
                rate / 1e6
            );
        }
        if let (Some(stem), Some(result)) = (&args.export, &outcome.node) {
            report::export_run(result, stem).map_err(|e| format!("export failed: {e}"))?;
            eprintln!(
                "exported {} and {}",
                stem.with_extension("json").display(),
                stem.with_extension("csv").display()
            );
        }
        rows.push(outcome.metrics);
    }

    if let (Some(sink), Some(path)) = (sink.as_mut(), &args.trace) {
        sink.flush()
            .map_err(|e| format!("cannot write trace file {}: {e}", path.display()))?;
        eprintln!("wrote decision trace to {}", path.display());
    }
    if let Some(path) = &args.metrics {
        std::fs::write(path, registry.to_json().to_string())
            .map_err(|e| format!("cannot write metrics file {}: {e}", path.display()))?;
        eprint!("{}", registry.text_summary());
        eprintln!("wrote metrics to {}", path.display());
    }
    let json = metrics_json(&rows);
    match &args.out {
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {} rows to {}", rows.len(), path.display());
        }
        None => println!("{json}"),
    }
    Ok(())
}
