//! `stats` — the regression gate: compares a metrics JSON document
//! against a committed baseline with per-metric tolerances.
//!
//! ```text
//! stats BASELINE.json CURRENT.json [--tolerances FILE.toml] [--subset]
//! ```
//!
//! Deterministic metrics (QoS, throughput, counters) gate tightly;
//! wall-clock-derived metrics get loose multiplicative bands (see
//! `sturgeon::scenario::gate::default_rules`). Arrays of rows align by
//! row identity (`label` / `scenario` / `name`, else the composite of
//! string fields), not position. `--subset` lets a quick smoke run
//! check against a larger committed baseline: unexercised baseline rows
//! are noted instead of failing. `--tolerances` prepends overrides from
//! a `[tolerances]` TOML table (`key = "exact" | "ignore" |
//! { rel = 0.05 } | { ceiling = 8 } | { floor = 8 }`).
//!
//! Exit codes: `0` within tolerance, `1` regression detected (with a
//! readable diff table on stderr), `2` usage or parse failure.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use sturgeon::scenario::gate;

struct Args {
    baseline: PathBuf,
    current: PathBuf,
    tolerances: Option<PathBuf>,
    subset: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut tolerances = None;
    let mut subset = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--subset" => {
                subset = true;
                i += 1;
            }
            "--tolerances" => {
                let value = argv.get(i + 1).ok_or("missing value for --tolerances")?;
                tolerances = Some(PathBuf::from(value));
                i += 2;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => {
                positional.push(PathBuf::from(path));
                i += 1;
            }
        }
    }
    match positional.len() {
        2 => {
            let mut it = positional.into_iter();
            Ok(Args {
                baseline: it.next().expect("two positionals"),
                current: it.next().expect("two positionals"),
                tolerances,
                subset,
            })
        }
        n => Err(format!("expected BASELINE and CURRENT, got {n} paths")),
    }
}

fn usage() {
    eprintln!("usage: stats BASELINE.json CURRENT.json [--tolerances FILE.toml] [--subset]");
}

fn read_json(path: &Path) -> Result<serde::Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::from(2);
        }
    };

    let (baseline, current) = match (read_json(&args.baseline), read_json(&args.current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rules = match &args.tolerances {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match gate::parse_tolerance_overrides(&text) {
                Ok(rules) => rules,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => Vec::new(),
    };
    rules.extend(gate::default_rules());

    let report = gate::compare(&baseline, &current, &rules, args.subset);
    eprint!("{}", report.table());
    if report.passed() {
        eprintln!(
            "gate passed: {} metrics within tolerance ({} vs {})",
            report.checks,
            args.current.display(),
            args.baseline.display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "gate FAILED: {} of {} metrics out of tolerance ({} vs {})",
            report.violations.len(),
            report.checks,
            args.current.display(),
            args.baseline.display()
        );
        ExitCode::FAILURE
    }
}
