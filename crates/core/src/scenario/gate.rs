//! The regression gate: compares a metrics JSON document against a
//! committed baseline with per-metric tolerances.
//!
//! Deterministic metrics (QoS rates, throughput, counters pinned by the
//! seeded simulation) are held to exact or near-exact equality, while
//! wall-clock-derived metrics get loose multiplicative bands — a CI
//! runner being 4× slower is noise, a QoS rate moving 1% is a
//! regression. The [`compare`] walker aligns objects by key and arrays
//! of objects by row identity, so one baseline file can gate a whole
//! batch of scenario rows, and `--subset` lets a quick smoke run check
//! against a larger committed baseline.

use super::toml;
use crate::error::SturgeonError;
use serde::Value;
use std::fmt;

/// Absolute slack added to every wall-clock band so sub-second
/// baselines (a 2 ms build step) can never flake the gate.
const TIME_SLACK: f64 = 5.0;

/// How far a metric may drift from its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Bitwise equality (numbers, strings, booleans).
    Exact,
    /// `|current - baseline| <= r * max(|baseline|, |current|) + 1e-12`.
    Relative(f64),
    /// `current <= baseline * f + 5.0` — for "bigger is worse" timing
    /// metrics. Negative values are missing-data sentinels and pass.
    Ceiling(f64),
    /// `current >= baseline / f - 5.0` — for "smaller is worse"
    /// throughput-rate metrics. Negative values pass (sentinel).
    Floor(f64),
    /// Never gate this metric.
    Ignore,
}

impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tolerance::Exact => write!(f, "exact"),
            Tolerance::Relative(r) => write!(f, "rel {r}"),
            Tolerance::Ceiling(c) => write!(f, "ceil x{c}"),
            Tolerance::Floor(x) => write!(f, "floor /{x}"),
            Tolerance::Ignore => write!(f, "ignore"),
        }
    }
}

impl Tolerance {
    /// Does `current` stay within this tolerance of `baseline`?
    pub fn accepts(self, baseline: f64, current: f64) -> bool {
        match self {
            Tolerance::Exact => baseline == current,
            Tolerance::Relative(r) => {
                (current - baseline).abs() <= r * baseline.abs().max(current.abs()) + 1e-12
            }
            Tolerance::Ceiling(f) => {
                baseline < 0.0 || current < 0.0 || current <= baseline * f + TIME_SLACK
            }
            Tolerance::Floor(f) => {
                baseline < 0.0 || current < 0.0 || current >= baseline / f - TIME_SLACK
            }
            Tolerance::Ignore => true,
        }
    }
}

/// One `(key pattern, tolerance)` rule. Patterns match the **leaf key**
/// of a metric (not its path) and may contain a single `*` wildcard.
pub type Rule = (String, Tolerance);

fn rule(pattern: &str, tolerance: Tolerance) -> Rule {
    (pattern.to_string(), tolerance)
}

/// The built-in ruleset. First match wins; [`default_rules`] ends with
/// a catch-all `Relative(1e-6)` for numbers, so committed deterministic
/// metrics gate tightly by default.
pub fn default_rules() -> Vec<Rule> {
    let mut rules = Vec::new();
    // Wall-clock-derived metrics: loose multiplicative bands.
    for key in ["wall_s", "build_s", "run_s", "duration_ms", "per_pred_us"] {
        rules.push(rule(key, Tolerance::Ceiling(16.0)));
    }
    rules.push(rule("search_p*_us", Tolerance::Ceiling(16.0)));
    rules.push(rule("node_intervals_per_s", Tolerance::Floor(16.0)));
    rules.push(rule("peak_rss_mib", Tolerance::Ceiling(4.0)));
    // Determinism-pinned integer counters and run configuration.
    for key in [
        "seed",
        "intervals",
        "nodes",
        "shards",
        "regions",
        "trainings",
        "table_builds",
        "searches",
        "faults_seen",
        "retries",
        "failed_actuations",
        "stale_intervals",
        "safe_mode_entries",
        "balancer_retry_rounds",
        "budget_reclaims",
        "migrations",
        "evictions",
        "assignments",
        "cells_observed",
        "cells_hidden",
        "cold_start_cells",
        "set_scores",
        "prediction_count",
        "candidates",
        "probe_model_calls",
        "probe_candidates",
    ] {
        rules.push(rule(key, Tolerance::Exact));
    }
    // Everything else numeric is deterministic output: near-exact.
    rules.push(rule("*", Tolerance::Relative(1e-6)));
    rules
}

/// Matches a leaf key against a rule pattern (`*` = any substring,
/// at most one per pattern).
fn pattern_matches(pattern: &str, key: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == key,
        Some((prefix, suffix)) => {
            key.len() >= prefix.len() + suffix.len()
                && key.starts_with(prefix)
                && key.ends_with(suffix)
        }
    }
}

/// Resolves the tolerance for a leaf key (first matching rule wins;
/// no match → `Exact`).
pub fn tolerance_for(rules: &[Rule], key: &str) -> Tolerance {
    rules
        .iter()
        .find(|(p, _)| pattern_matches(p, key))
        .map(|&(_, t)| t)
        .unwrap_or(Tolerance::Exact)
}

/// Parses a tolerance-override file: a TOML document whose
/// `[tolerances]` table maps key patterns to either a string
/// (`"exact"` / `"ignore"`) or an inline table (`{ rel = 0.05 }`,
/// `{ ceiling = 8 }`, `{ floor = 8 }`). Overrides are prepended to
/// [`default_rules`], so they win.
pub fn parse_tolerance_overrides(text: &str) -> Result<Vec<Rule>, SturgeonError> {
    let doc = toml::parse(text)
        .map_err(|e| SturgeonError::setup(format!("tolerance file parse error: {e}")))?;
    let table = match doc.get("tolerances") {
        Some(Value::Object(fields)) => fields,
        Some(_) => {
            return Err(SturgeonError::setup("`[tolerances]` must be a table"));
        }
        None => return Ok(Vec::new()),
    };
    let mut rules = Vec::new();
    for (key, spec) in table {
        let tolerance = match spec {
            Value::String(s) => match s.as_str() {
                "exact" => Tolerance::Exact,
                "ignore" => Tolerance::Ignore,
                other => {
                    return Err(SturgeonError::setup(format!(
                        "unknown tolerance `{other}` for `{key}` (use \"exact\" or \"ignore\")"
                    )));
                }
            },
            Value::Object(_) => {
                let knob = |name: &str| spec.get(name).and_then(Value::as_f64);
                if let Some(r) = knob("rel") {
                    Tolerance::Relative(r)
                } else if let Some(c) = knob("ceiling") {
                    Tolerance::Ceiling(c)
                } else if let Some(f) = knob("floor") {
                    Tolerance::Floor(f)
                } else {
                    return Err(SturgeonError::setup(format!(
                        "tolerance for `{key}` needs `rel`, `ceiling` or `floor`"
                    )));
                }
            }
            _ => {
                return Err(SturgeonError::setup(format!(
                    "tolerance for `{key}` must be a string or inline table"
                )));
            }
        };
        rules.push((key.clone(), tolerance));
    }
    Ok(rules)
}

/// One gate violation, with everything needed for the diff table.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Dotted path of the metric (row key included for array rows).
    pub path: String,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Current value, rendered.
    pub current: String,
    /// The tolerance that was applied.
    pub tolerance: String,
    /// Human-readable cause.
    pub detail: String,
}

/// The outcome of a [`compare`] run.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Metrics compared (leaves visited).
    pub checks: usize,
    /// Violations, in document order.
    pub violations: Vec<Violation>,
    /// Non-fatal notes (skipped baseline rows in subset mode, ignored
    /// metrics, sentinel passes).
    pub notes: Vec<String>,
}

impl GateReport {
    /// True when every compared metric stayed within tolerance.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the readable diff table (empty string when passing and
    /// there are no notes).
    pub fn table(&self) -> String {
        let mut out = String::new();
        if !self.violations.is_empty() {
            out.push_str(&format!(
                "{:<44} {:>16} {:>16} {:>12}  {}\n",
                "metric", "baseline", "current", "tolerance", "detail"
            ));
            for v in &self.violations {
                out.push_str(&format!(
                    "{:<44} {:>16} {:>16} {:>12}  {}\n",
                    v.path, v.baseline, v.current, v.tolerance, v.detail
                ));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    fn violate(&mut self, path: &str, b: &Value, c: &Value, tol: &str, detail: impl Into<String>) {
        self.violations.push(Violation {
            path: path.to_string(),
            baseline: render_short(b),
            current: render_short(c),
            tolerance: tol.to_string(),
            detail: detail.into(),
        });
    }
}

fn render_short(v: &Value) -> String {
    let s = v.to_string();
    if s.chars().count() > 16 {
        let cut: String = s.chars().take(15).collect();
        format!("{cut}…")
    } else {
        s
    }
}

/// The identity of an array row, for aligning baseline and current
/// batches: a dedicated key field when present, otherwise the composite
/// of its string fields plus the geometry/seed numbers.
fn row_key(v: &Value) -> String {
    if let Value::Object(fields) = v {
        for key in ["label", "scenario", "name"] {
            if let Some(s) = v.get(key).and_then(Value::as_str) {
                return s.to_string();
            }
        }
        let mut parts: Vec<String> = Vec::new();
        for (k, val) in fields {
            if let Value::String(s) = val {
                parts.push(s.clone());
            } else if matches!(k.as_str(), "nodes" | "intervals" | "seed") {
                parts.push(val.to_string());
            }
        }
        if !parts.is_empty() {
            return parts.join("/");
        }
    }
    v.to_string()
}

/// Compares `current` against `baseline` under the given rules.
///
/// With `subset = true`, baseline rows/keys with no counterpart in
/// `current` are noted instead of failing — for gating a quick smoke
/// run against a larger committed baseline. Rows or keys present in
/// `current` but absent from the baseline always fail: new metrics
/// require a re-baseline, not a silent pass.
pub fn compare(baseline: &Value, current: &Value, rules: &[Rule], subset: bool) -> GateReport {
    let mut report = GateReport::default();
    walk(baseline, current, rules, subset, "$", &mut report);
    report
}

fn walk(
    baseline: &Value,
    current: &Value,
    rules: &[Rule],
    subset: bool,
    path: &str,
    report: &mut GateReport,
) {
    match (baseline, current) {
        (Value::Object(b_fields), Value::Object(_)) => {
            for (key, b_val) in b_fields {
                let child = format!("{path}.{key}");
                match current.get(key) {
                    Some(c_val) => walk(b_val, c_val, rules, subset, &child, report),
                    None if subset => report.notes.push(format!("{child}: absent from current")),
                    None => report.violate(
                        &child,
                        b_val,
                        &Value::Null,
                        "presence",
                        "metric missing from current",
                    ),
                }
            }
            if let Value::Object(c_fields) = current {
                for (key, c_val) in c_fields {
                    if baseline.get(key).is_none() {
                        report.violate(
                            &format!("{path}.{key}"),
                            &Value::Null,
                            c_val,
                            "presence",
                            "metric not in baseline (re-baseline to accept)",
                        );
                    }
                }
            }
        }
        (Value::Array(b_rows), Value::Array(c_rows))
            if b_rows.iter().any(|r| matches!(r, Value::Object(_))) =>
        {
            for c_row in c_rows {
                let key = row_key(c_row);
                match b_rows.iter().find(|b| row_key(b) == key) {
                    Some(b_row) => {
                        walk(
                            b_row,
                            c_row,
                            rules,
                            subset,
                            &format!("{path}[{key}]"),
                            report,
                        );
                    }
                    None => report.violate(
                        &format!("{path}[{key}]"),
                        &Value::Null,
                        c_row,
                        "presence",
                        "row not in baseline (re-baseline to accept)",
                    ),
                }
            }
            for b_row in b_rows {
                let key = row_key(b_row);
                if !c_rows.iter().any(|c| row_key(c) == key) {
                    if subset {
                        report
                            .notes
                            .push(format!("{path}[{key}]: baseline row not exercised"));
                    } else {
                        report.violate(
                            &format!("{path}[{key}]"),
                            b_row,
                            &Value::Null,
                            "presence",
                            "baseline row missing from current",
                        );
                    }
                }
            }
        }
        (Value::Array(b_items), Value::Array(c_items)) => {
            if b_items.len() != c_items.len() {
                report.violate(
                    path,
                    baseline,
                    current,
                    "presence",
                    format!("length {} vs {}", b_items.len(), c_items.len()),
                );
                return;
            }
            for (i, (b, c)) in b_items.iter().zip(c_items).enumerate() {
                walk(b, c, rules, subset, &format!("{path}[{i}]"), report);
            }
        }
        _ => leaf(baseline, current, rules, path, report),
    }
}

fn leaf(baseline: &Value, current: &Value, rules: &[Rule], path: &str, report: &mut GateReport) {
    report.checks += 1;
    let key = path.rsplit('.').next().unwrap_or(path);
    let key = key.split('[').next().unwrap_or(key);
    let tol = tolerance_for(rules, key);
    if tol == Tolerance::Ignore {
        return;
    }
    match (baseline, current) {
        (Value::Number(b), Value::Number(c)) => {
            if !tol.accepts(*b, *c) {
                let detail = match tol {
                    Tolerance::Exact => "differs (tolerance: exact)".to_string(),
                    Tolerance::Relative(r) => {
                        let denom = b.abs().max(c.abs()).max(f64::MIN_POSITIVE);
                        format!("drift {:.3e} exceeds rel {r:.0e}", (c - b).abs() / denom)
                    }
                    Tolerance::Ceiling(f) => format!("exceeds {:.3} (x{f} band)", b * f + 5.0),
                    Tolerance::Floor(f) => format!("below {:.3} (/{f} band)", b / f - 5.0),
                    Tolerance::Ignore => unreachable!(),
                };
                report.violate(path, baseline, current, &tol.to_string(), detail);
            }
        }
        _ => {
            // Non-numeric leaves (and type mismatches) compare exactly.
            if baseline != current {
                report.violate(
                    path,
                    baseline,
                    current,
                    "exact",
                    "value differs (non-numeric metrics gate exactly)",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(json: &str) -> Value {
        serde_json::from_str(json).unwrap()
    }

    #[test]
    fn default_rules_classify_keys() {
        let rules = default_rules();
        assert_eq!(tolerance_for(&rules, "wall_s"), Tolerance::Ceiling(16.0));
        assert_eq!(
            tolerance_for(&rules, "search_p95_us"),
            Tolerance::Ceiling(16.0)
        );
        assert_eq!(
            tolerance_for(&rules, "node_intervals_per_s"),
            Tolerance::Floor(16.0)
        );
        // Each exhaustive slice queries its own keys, so the cache split
        // is deterministic and gates like any other output.
        assert_eq!(
            tolerance_for(&rules, "cache_hits"),
            Tolerance::Relative(1e-6)
        );
        assert_eq!(tolerance_for(&rules, "safe_mode_entries"), Tolerance::Exact);
        assert_eq!(tolerance_for(&rules, "qos_rate"), Tolerance::Relative(1e-6));
    }

    #[test]
    fn identical_documents_pass() {
        let b = doc(r#"[{"scenario":"s","qos_rate":0.99,"wall_s":3.2,"retries":4}]"#);
        let report = compare(&b, &b, &default_rules(), false);
        assert!(report.passed(), "{}", report.table());
        assert!(report.checks >= 4);
    }

    #[test]
    fn perturbed_metric_fails_with_named_diff() {
        let b = doc(r#"[{"scenario":"s","qos_rate":0.99,"retries":4}]"#);
        let c = doc(r#"[{"scenario":"s","qos_rate":0.90,"retries":4}]"#);
        let report = compare(&b, &c, &default_rules(), false);
        assert!(!report.passed());
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].path.contains("qos_rate"));
        assert!(report.table().contains("qos_rate"));
    }

    #[test]
    fn wall_clock_band_tolerates_slow_runners() {
        let b = doc(r#"{"wall_s": 10.0}"#);
        assert!(compare(&b, &doc(r#"{"wall_s": 40.0}"#), &default_rules(), false).passed());
        assert!(!compare(&b, &doc(r#"{"wall_s": 1000.0}"#), &default_rules(), false).passed());
        // Fast runs never violate a ceiling; negative sentinels pass.
        assert!(compare(&b, &doc(r#"{"wall_s": 0.01}"#), &default_rules(), false).passed());
        let rss = doc(r#"{"peak_rss_mib": -1.0}"#);
        assert!(compare(
            &rss,
            &doc(r#"{"peak_rss_mib": 840.0}"#),
            &default_rules(),
            false
        )
        .passed());
    }

    #[test]
    fn exact_counters_reject_off_by_one() {
        let b = doc(r#"{"safe_mode_entries": 3}"#);
        let c = doc(r#"{"safe_mode_entries": 4}"#);
        assert!(!compare(&b, &c, &default_rules(), false).passed());
    }

    #[test]
    fn rows_align_by_label_not_position() {
        let b = doc(r#"[{"label":"a","candidates":5},{"label":"b","candidates":7}]"#);
        let c = doc(r#"[{"label":"b","candidates":7},{"label":"a","candidates":5}]"#);
        assert!(compare(&b, &c, &default_rules(), false).passed());
    }

    #[test]
    fn subset_mode_skips_unexercised_baseline_rows() {
        let b = doc(r#"[{"label":"a","candidates":5},{"label":"b","candidates":7}]"#);
        let c = doc(r#"[{"label":"a","candidates":5}]"#);
        assert!(!compare(&b, &c, &default_rules(), false).passed());
        let report = compare(&b, &c, &default_rules(), true);
        assert!(report.passed(), "{}", report.table());
        assert_eq!(report.notes.len(), 1);
        // A current row unknown to the baseline still fails in subset mode.
        let c2 = doc(r#"[{"label":"zz","candidates":5}]"#);
        assert!(!compare(&b, &c2, &default_rules(), true).passed());
    }

    #[test]
    fn missing_and_extra_keys_fail() {
        let b = doc(r#"{"qos_rate":0.99,"retries":4}"#);
        assert!(!compare(&b, &doc(r#"{"qos_rate":0.99}"#), &default_rules(), false).passed());
        assert!(!compare(
            &b,
            &doc(r#"{"qos_rate":0.99,"retries":4,"shiny":1}"#),
            &default_rules(),
            false
        )
        .passed());
    }

    #[test]
    fn overrides_win_over_defaults() {
        let text = "[tolerances]\nqos_rate = { rel = 0.5 }\nretries = \"ignore\"\n";
        let mut rules = parse_tolerance_overrides(text).unwrap();
        rules.extend(default_rules());
        let b = doc(r#"{"qos_rate":0.99,"retries":4}"#);
        let c = doc(r#"{"qos_rate":0.60,"retries":9}"#);
        assert!(compare(&b, &c, &rules, false).passed());
        assert!(parse_tolerance_overrides("[tolerances]\nx = \"wat\"\n").is_err());
        assert!(parse_tolerance_overrides("[tolerances]\nx = { bogus = 1 }\n").is_err());
    }

    #[test]
    fn composite_row_keys_use_config_fields() {
        let row = doc(
            r#"{"nodes":1000,"intervals":100,"profile":"diurnal","policy":"even","seed":42,"qos_rate":0.96}"#,
        );
        let key = row_key(&row);
        assert!(key.contains("diurnal") && key.contains("even"));
        assert!(key.contains("1000") && key.contains("42"));
    }
}
