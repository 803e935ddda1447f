//! `trace_validate` — checks a decision-trace JSONL file (as written by
//! `scenario_run --trace` or [`sturgeon::obs::JsonlSink`]) for structural
//! integrity.
//!
//! ```text
//! trace_validate PATH.jsonl [--min-types N]
//! ```
//!
//! Every line must be a JSON object with exactly one top-level key naming
//! a known [`sturgeon::obs::TraceEvent`] variant, the body must carry
//! exactly that variant's fields with the JSON types the program renders,
//! and timestamps must be non-decreasing. With `--min-types N` the file
//! must additionally cover at least `N` distinct event types (CI uses this
//! to prove a run exercised the taxonomy). Exits nonzero on the first
//! violation.

use serde_json::Value;
use std::collections::BTreeMap;
use std::mem::discriminant;
use std::process::ExitCode;
use std::sync::LazyLock;
use sturgeon::balancer::{BalancerAction, HarvestTarget};
use sturgeon::obs::{SearchReason, TraceEvent};
use sturgeon_simnode::{ActuationOutcome, Allocation, PairConfig};

/// The `Option` fields, which render `null` when `None`.
const NULLABLE: [(&str, &str); 3] = [
    ("SearchRan", "chosen"),
    ("BeMigrated", "from"),
    ("BeMigrated", "to"),
];

/// One event of every kind the program emits, in [`TraceEvent::kinds`]
/// order: each rendered example is its kind's schema. Optional fields
/// hold `Some`, so the example shows the type a non-null value takes.
fn examples() -> Vec<TraceEvent> {
    let config = PairConfig::new(Allocation::new(10, 5, 10), Allocation::new(10, 5, 10));
    vec![
        TraceEvent::TelemetrySample {
            t_s: 1.0,
            qps: 12_000.0,
            p95_ms: 4.5,
            power_w: 80.0,
            be_throughput_norm: 0.5,
        },
        TraceEvent::SearchRan {
            t_s: 1.0,
            qps: 12_000.0,
            reason: SearchReason::Initial,
            model_calls: 900,
            candidates: 40,
            pruned_candidates: 0,
            pruned_subspaces: 0,
            frontier_reuses: 0,
            chosen: Some(config),
            predicted_throughput: 0.4,
            predicted_power_w: 90.0,
            fallback: false,
        },
        TraceEvent::BalancerStep {
            t_s: 2.0,
            action: BalancerAction::Harvest {
                target: HarvestTarget::Cores,
                amount: 2,
            },
            config,
        },
        TraceEvent::SafeModeEntered {
            t_s: 3.0,
            reason: "stale_telemetry",
            qps: 12_000.0,
        },
        TraceEvent::SafeModeExited { t_s: 4.0 },
        TraceEvent::ActuationRetry {
            t_s: 4.0,
            attempts: 2,
            recovered: true,
        },
        TraceEvent::ConfigApplied {
            t_s: 4.0,
            from: config,
            to: config,
            outcome: ActuationOutcome::Partial,
        },
        TraceEvent::FaultInjected {
            t_s: 5.0,
            classes: vec!["telemetry_dropout"],
        },
        TraceEvent::BudgetReclaimed {
            t_s: 5.0,
            level: "rack",
            index: 1,
            cap_w: 900.0,
            reclaimed_w: 120.0,
        },
        TraceEvent::BeMigrated {
            t_s: 6.0,
            action: "assign",
            from: Some(1),
            to: Some(3),
            be: "raytrace",
        },
        TraceEvent::ColdStartPredicted {
            t_s: 6.0,
            app: "fluidanimate".to_string(),
            cells: 64,
            rmse_heldout: 0.05,
        },
        TraceEvent::SetScored {
            t_s: 7.0,
            unit: 3,
            k: 2,
            score: 0.8,
        },
    ]
}

/// Each kind's schema: the body of its rendered example.
static SCHEMAS: LazyLock<Vec<(&str, Value)>> = LazyLock::new(|| {
    examples()
        .iter()
        .map(|e| (e.kind(), serde_json::to_value(e)[e.kind()].clone()))
        .collect()
});

/// Validates one event body against its kind's schema: the same fields,
/// each with the schema's JSON type, or `null` where [`NULLABLE`] allows.
fn validate_body(kind: &str, body: &Value, schema: &Value) -> Result<(), String> {
    let (Value::Object(fields), Value::Object(expected)) = (body, schema) else {
        return Err(format!("{kind}: body is not an object"));
    };
    for (field, want) in expected {
        let got = &body[field.as_str()];
        let nullable = got.is_null() && NULLABLE.contains(&(kind, field.as_str()));
        if discriminant(got) != discriminant(want) && !nullable {
            return Err(format!("{kind}: missing or mistyped field `{field}`"));
        }
    }
    match fields.iter().find(|(f, _)| schema.get(f).is_none()) {
        Some((field, _)) => Err(format!("{kind}: unknown field `{field}`")),
        None => Ok(()),
    }
}

/// Validates one JSONL record; returns its event type and timestamp.
fn validate_line(line: &str) -> Result<(&'static str, f64), String> {
    let value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e:?}"))?;
    let fields = match &value {
        Value::Object(fields) if fields.len() == 1 => fields,
        _ => return Err("expected an object with exactly one event-type key".to_string()),
    };
    let (kind, body) = &fields[0];
    let (kind, schema) = SCHEMAS
        .iter()
        .find(|(k, _)| k == kind)
        .ok_or_else(|| format!("unknown event type {kind}"))?;
    validate_body(kind, body, schema)?;
    Ok((kind, body["t_s"].as_f64().expect("validated above")))
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

    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut last_t = f64::NEG_INFINITY;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            return Err(format!("line {n}: empty line"));
        }
        let (kind, t_s) = validate_line(line).map_err(|e| format!("line {n}: {e}"))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use sturgeon::obs::{JsonlSink, TraceSink};

    #[test]
    fn every_kind_renders_to_a_valid_record() {
        let mut sink = JsonlSink::new(Vec::new());
        for event in &examples() {
            sink.record(event);
        }
        sink.flush().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let kinds: Vec<&str> = text
            .lines()
            .map(|line| {
                validate_line(line)
                    .unwrap_or_else(|e| panic!("{line}: {e}"))
                    .0
            })
            .collect();
        assert_eq!(kinds, TraceEvent::kinds());
    }

    #[test]
    fn optional_fields_alone_may_be_null() {
        let check = |line: &str| validate_line(line).map(|(kind, _)| kind);
        let assign = r#"{"BeMigrated":{"t_s":1,"action":"assign","from":null,"to":2,"be":"x"}}"#;
        assert_eq!(check(assign), Ok("BeMigrated"));
        assert!(check(&assign.replace("\"to\":2", "\"to\":\"a\"")).is_err());
        assert!(check(r#"{"SetScored":{"t_s":1,"unit":2,"k":3,"score":null}}"#).is_err());
        assert!(check(r#"{"SetScored":{"t_s":1,"unit":2,"k":3}}"#).is_err());
        assert!(check(r#"{"SetScored":{"t_s":1,"unit":2,"k":3,"score":1,"x":0}}"#).is_err());
        assert!(check(r#"{"CacheSnapshot":{"t_s":1,"hits":2,"misses":3}}"#).is_err());
    }
}
