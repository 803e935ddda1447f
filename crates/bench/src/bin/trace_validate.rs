//! `trace_validate` — checks a decision-trace JSONL file (as written by
//! `scenario_run --trace` or [`sturgeon::obs::JsonlSink`]) for structural
//! integrity.
//!
//! ```text
//! trace_validate PATH.jsonl [--min-types N]
//! ```
//!
//! Every line must be a JSON object with exactly one top-level key naming
//! a known [`sturgeon::obs::TraceEvent`] variant, that variant's required
//! fields must be present with the right JSON types, and timestamps must
//! be non-decreasing. With `--min-types N` the file must additionally
//! cover at least `N` distinct event types (CI uses this to prove a run
//! exercised the taxonomy). Exits nonzero on the first violation.

use std::collections::BTreeMap;
use std::process::ExitCode;
use sturgeon::obs::TraceEvent;

fn field_is_number(body: &serde_json::Value, field: &str) -> bool {
    body[field].as_f64().is_some()
}

/// Validates one event body against its variant's schema; returns an
/// error message naming the offending field.
fn validate_body(kind: &str, body: &serde_json::Value) -> Result<(), String> {
    if !body.is_object() {
        return Err(format!("{kind}: body is not an object"));
    }
    let numbers: &[&str] = match kind {
        "TelemetrySample" => &["t_s", "qps", "p95_ms", "power_w", "be_throughput_norm"],
        "SearchRan" => &[
            "t_s",
            "qps",
            "model_calls",
            "cache_hits",
            "cache_misses",
            "candidates",
            "predicted_throughput",
            "predicted_power_w",
        ],
        "BalancerStep" => &["t_s"],
        "SafeModeEntered" => &["t_s", "qps"],
        "SafeModeExited" => &["t_s"],
        "ActuationRetry" => &["t_s", "attempts"],
        "ConfigApplied" => &["t_s"],
        "FaultInjected" => &["t_s"],
        "SearchPruned" => &[
            "t_s",
            "evaluated",
            "pruned_candidates",
            "pruned_subspaces",
            "frontier_reuses",
        ],
        "CacheSnapshot" => &["t_s", "hits", "misses"],
        other => return Err(format!("unknown event type {other}")),
    };
    for field in numbers {
        if !field_is_number(body, field) {
            return Err(format!("{kind}: missing or non-numeric field `{field}`"));
        }
    }
    let ok = match kind {
        "SearchRan" => {
            body["reason"].as_str().is_some()
                && body["fallback"].as_bool().is_some()
                && (body["chosen"].is_object() || body["chosen"].is_null())
        }
        "BalancerStep" => body["action"].is_object() && body["config"].is_object(),
        "SafeModeEntered" => body["reason"].as_str().is_some(),
        "ActuationRetry" => body["recovered"].as_bool().is_some(),
        "ConfigApplied" => {
            body["from"].is_object() && body["to"].is_object() && body["outcome"].as_str().is_some()
        }
        "FaultInjected" => body["classes"].is_array(),
        _ => true,
    };
    if !ok {
        return Err(format!("{kind}: malformed variant-specific fields"));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut min_types = 0usize;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--min-types" => {
                let v = argv
                    .get(i + 1)
                    .ok_or_else(|| "missing value for --min-types".to_string())?;
                min_types = v.parse().map_err(|_| format!("bad --min-types {v}"))?;
                i += 2;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            p => {
                path = Some(p.to_string());
                i += 1;
            }
        }
    }
    let path =
        path.ok_or_else(|| "usage: trace_validate PATH.jsonl [--min-types N]".to_string())?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let known = TraceEvent::kinds();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut last_t = f64::NEG_INFINITY;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            return Err(format!("line {n}: empty line"));
        }
        let value = serde_json::from_str(line).map_err(|e| format!("line {n}: bad JSON: {e:?}"))?;
        let fields = match &value {
            serde_json::Value::Object(fields) if fields.len() == 1 => fields,
            _ => {
                return Err(format!(
                    "line {n}: expected an object with exactly one event-type key"
                ))
            }
        };
        let (kind, body) = &fields[0];
        let kind = *known
            .iter()
            .find(|k| *k == kind)
            .ok_or_else(|| format!("line {n}: unknown event type {kind}"))?;
        validate_body(kind, body).map_err(|e| format!("line {n}: {e}"))?;
        let t_s = body["t_s"].as_f64().expect("validated above");
        if t_s < last_t {
            return Err(format!(
                "line {n}: timestamp {t_s} goes backwards (previous {last_t})"
            ));
        }
        last_t = t_s;
        *counts.entry(kind).or_insert(0) += 1;
    }

    let total: u64 = counts.values().sum();
    println!("{total} events, {} distinct types:", counts.len());
    for (kind, count) in &counts {
        println!("  {kind:<16} {count}");
    }
    if counts.len() < min_types {
        return Err(format!(
            "only {} distinct event types, need at least {min_types}",
            counts.len()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
