//! Result export: turn run artifacts into JSON summaries and CSV
//! time series for external plotting/analysis tools.
//!
//! The paper's figures are bar charts and time series; these helpers emit
//! the exact data a plotting script needs, with stable column orders and
//! no runtime dependencies beyond `serde`.

use crate::experiment::RunResult;
use crate::search::SearchStats;
use serde::Serialize;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use sturgeon_simnode::TelemetryLog;

/// Flat, serializable summary of one run (the telemetry log is exported
/// separately as CSV; embedding it in JSON would bloat the summary).
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// Controller display name.
    pub controller: String,
    /// Pair label (e.g. `memcached+raytrace`).
    pub pair: String,
    /// Number of 1 s intervals.
    pub intervals: usize,
    /// QoS guarantee rate.
    pub qos_rate: f64,
    /// Mean normalized BE throughput.
    pub mean_be_throughput: f64,
    /// Fraction of intervals above budget.
    pub overload_fraction: f64,
    /// Peak power (W).
    pub peak_power_w: f64,
    /// Budget (W).
    pub budget_w: f64,
    /// §VII-B verdict.
    pub suffers_overload: bool,
    /// Fig. 9 verdict.
    pub meets_qos_guarantee: bool,
    /// Total injected faults (0 for a fault-free run).
    pub faults_seen: u64,
    /// Actuation retries spent by the hardened policy.
    pub retries: u64,
    /// Times the controller dropped to its safe-mode configuration.
    pub safe_mode_entries: u64,
}

impl From<&RunResult> for RunSummary {
    fn from(r: &RunResult) -> Self {
        Self {
            controller: r.controller.to_string(),
            pair: r.pair.clone(),
            intervals: r.log.len(),
            qos_rate: r.qos_rate,
            mean_be_throughput: r.mean_be_throughput,
            overload_fraction: r.overload_fraction,
            peak_power_w: r.peak_power_w,
            budget_w: r.budget_w,
            suffers_overload: r.suffers_overload(),
            meets_qos_guarantee: r.meets_qos_guarantee(),
            faults_seen: r.faults.faults_seen,
            retries: r.faults.retries,
            safe_mode_entries: r.faults.safe_mode_entries,
        }
    }
}

/// §VII-E overhead accounting for one search: prediction-query volume,
/// memo-cache effectiveness and wall-clock, in export-ready form. Built
/// from a [`SearchStats`] by `tab_overhead` and the overhead benches.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadSummary {
    /// What was measured (e.g. `binary@20%` or `exhaustive@20%`).
    pub label: String,
    /// Prediction queries issued by the search (cached or not) — the
    /// stable measure of search work, identical with caching on or off.
    pub prediction_count: u64,
    /// Queries answered from the memo cache (no model executed).
    pub cache_hits: u64,
    /// Queries that ran the underlying models.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`; 0 when the cache saw
    /// no lookups (disabled, or every query short-circuited).
    pub cache_hit_rate: f64,
    /// Candidate configurations fully evaluated.
    pub candidates: usize,
    /// Wall-clock duration in milliseconds.
    pub duration_ms: f64,
    /// Median per-search latency (µs) across the measured repetitions.
    /// `None` (serialized as `null`) for single-shot rows.
    pub search_p50_us: Option<f64>,
    /// 95th-percentile per-search latency (µs).
    pub search_p95_us: Option<f64>,
    /// 99th-percentile per-search latency (µs).
    pub search_p99_us: Option<f64>,
}

impl OverheadSummary {
    /// Builds the summary from one search's stats.
    pub fn from_stats(label: impl Into<String>, stats: &SearchStats) -> Self {
        let lookups = stats.cache_hits + stats.cache_misses;
        Self {
            label: label.into(),
            prediction_count: stats.model_calls,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            cache_hit_rate: if lookups > 0 {
                stats.cache_hits as f64 / lookups as f64
            } else {
                0.0
            },
            candidates: stats.candidates,
            duration_ms: stats.duration.as_secs_f64() * 1e3,
            search_p50_us: None,
            search_p95_us: None,
            search_p99_us: None,
        }
    }

    /// Attaches per-search latency percentiles (µs) computed over a
    /// repetition loop — `sorted_us` must be ascending.
    pub fn with_percentiles(mut self, sorted_us: &[f64]) -> Self {
        if !sorted_us.is_empty() {
            self.search_p50_us = Some(crate::scenario::percentile(sorted_us, 0.50));
            self.search_p95_us = Some(crate::scenario::percentile(sorted_us, 0.95));
            self.search_p99_us = Some(crate::scenario::percentile(sorted_us, 0.99));
        }
        self
    }

    /// One aligned text row for the overhead tables.
    pub fn row(&self) -> String {
        let mut row = format!(
            "{:<18} {:>8} queries  {:>8} hits  {:>8} misses  ({:>5.1}% hit)  {:>10.3} ms",
            self.label,
            self.prediction_count,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate * 100.0,
            self.duration_ms
        );
        if let (Some(p50), Some(p95), Some(p99)) =
            (self.search_p50_us, self.search_p95_us, self.search_p99_us)
        {
            row.push_str(&format!(
                "  p50 {p50:>8.1} us  p95 {p95:>8.1} us  p99 {p99:>8.1} us"
            ));
        }
        row
    }
}

/// Serializes a batch of overhead summaries as a JSON array.
pub fn overhead_summary_json(summaries: &[OverheadSummary]) -> String {
    serde_json::to_string_pretty(&summaries.to_vec()).expect("overhead summaries serialize")
}

/// Serializes one run summary as pretty JSON.
pub fn run_summary_json(result: &RunResult) -> String {
    serde_json::to_string_pretty(&RunSummary::from(result)).expect("summary serializes")
}

/// Renders a telemetry log as CSV (one row per interval) — the raw
/// material of Fig. 11-style time-series plots.
pub fn telemetry_csv(log: &TelemetryLog) -> String {
    let mut out = String::with_capacity(64 * (log.len() + 1));
    out.push_str(
        "t_s,qps,p95_ms,in_target_fraction,power_w,be_throughput_norm,\
         ls_cores,ls_freq_level,ls_llc_ways,be_cores,be_freq_level,be_llc_ways\n",
    );
    for s in log.samples() {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            s.t_s,
            s.qps,
            s.p95_ms,
            s.in_target_fraction,
            s.power_w,
            s.be_throughput_norm,
            s.config.ls.cores,
            s.config.ls.freq_level,
            s.config.ls.llc_ways,
            s.config.be.cores,
            s.config.be.freq_level,
            s.config.be.llc_ways
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Writes a run's summary JSON and telemetry CSV next to each other:
/// `<stem>.json` and `<stem>.csv`.
pub fn export_run(result: &RunResult, stem: &Path) -> io::Result<()> {
    std::fs::write(stem.with_extension("json"), run_summary_json(result))?;
    std::fs::write(stem.with_extension("csv"), telemetry_csv(&result.log))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::StaticReservationController;
    use crate::experiment::{ColocationPair, ExperimentSetup};
    use sturgeon_workloads::catalog::{BeAppId, LsServiceId};
    use sturgeon_workloads::loadgen::LoadProfile;

    fn sample_run() -> RunResult {
        let setup = ExperimentSetup::new(
            ColocationPair::new(LsServiceId::Xapian, BeAppId::Swaptions),
            1,
        );
        setup
            .runner()
            .controller(StaticReservationController)
            .load(LoadProfile::Constant { fraction: 0.3 })
            .intervals(10)
            .go()
            .unwrap()
    }

    #[test]
    fn summary_json_roundtrips_fields() {
        let r = sample_run();
        let json = run_summary_json(&r);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["pair"], "xapian+swaptions");
        assert_eq!(v["controller"], "LS-reserved");
        assert_eq!(v["intervals"], 10);
        assert!(v["qos_rate"].as_f64().unwrap() > 0.9);
        // Fault counters surface in the summary and are zero for a
        // fault-free run.
        assert_eq!(v["faults_seen"], 0);
        assert_eq!(v["retries"], 0);
        assert_eq!(v["safe_mode_entries"], 0);
    }

    #[test]
    fn csv_has_header_plus_one_row_per_interval() {
        let r = sample_run();
        let csv = telemetry_csv(&r.log);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 11);
        assert!(lines[0].starts_with("t_s,qps,p95_ms"));
        assert_eq!(lines[1].split(',').count(), 12);
    }

    #[test]
    fn overhead_summary_computes_hit_rate() {
        let stats = SearchStats {
            model_calls: 100,
            candidates: 7,
            duration: std::time::Duration::from_millis(3),
            cache_hits: 60,
            cache_misses: 20,
            ..SearchStats::default()
        };
        let s = OverheadSummary::from_stats("binary@20%", &stats);
        assert_eq!(s.prediction_count, 100);
        assert_eq!(s.cache_hits, 60);
        assert_eq!(s.cache_misses, 20);
        assert!((s.cache_hit_rate - 0.75).abs() < 1e-12);
        assert!((s.duration_ms - 3.0).abs() < 0.5);
        let row = s.row();
        assert!(row.contains("binary@20%"));
        assert!(row.contains("60"));
        // No lookups → rate 0, not NaN.
        let empty = OverheadSummary::from_stats("x", &SearchStats::default());
        assert_eq!(empty.cache_hit_rate, 0.0);
        // JSON export round-trips the fields.
        let json = overhead_summary_json(&[s]);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v[0]["prediction_count"], 100);
        assert_eq!(v[0]["cache_hits"], 60);
    }

    #[test]
    fn export_writes_both_files() {
        let r = sample_run();
        let dir = std::env::temp_dir().join("sturgeon_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("run");
        export_run(&r, &stem).unwrap();
        assert!(stem.with_extension("json").exists());
        assert!(stem.with_extension("csv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
