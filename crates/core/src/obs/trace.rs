//! Typed decision-trace events and the pluggable sinks they flow into.

use crate::balancer::BalancerAction;
use serde::Serialize;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use sturgeon_simnode::{ActuationOutcome, PairConfig};

/// Why the controller ran a fresh configuration search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SearchReason {
    /// First observation of the run: no prior load to compare against.
    Initial,
    /// The offered load moved past `RESEARCH_LOAD_DELTA` (Algorithm 1
    /// line 6).
    LoadChanged,
    /// Slack above β with a balancer-modified configuration installed:
    /// re-optimize for throughput.
    SlackRelease,
}

/// One record of the per-interval decision trace.
///
/// Every variant serializes as `{"VariantName": {fields...}}` — one JSON
/// object per event, with the variant name as the single top-level key.
/// Events carry the interval timestamp `t_s` but never wall-clock
/// durations, so a pinned-seed trace is byte-identical across runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    /// Ground-truth telemetry of one monitoring interval.
    TelemetrySample {
        /// Interval timestamp (s).
        t_s: f64,
        /// Offered load (QPS).
        qps: f64,
        /// Measured p95 latency (ms).
        p95_ms: f64,
        /// Measured package power (W).
        power_w: f64,
        /// Normalized BE throughput.
        be_throughput_norm: f64,
    },
    /// The §V-B search ran and proposed a configuration.
    SearchRan {
        /// Interval timestamp (s).
        t_s: f64,
        /// Load the search optimized for (QPS).
        qps: f64,
        /// What triggered the search.
        reason: SearchReason,
        /// Prediction queries consumed (cached or not).
        model_calls: u64,
        /// Candidate configurations fully evaluated.
        candidates: usize,
        /// Pruned engine only (0 under the heuristic): `(C1, F1, L1)`
        /// cells cut by the admissible table bound.
        pruned_candidates: u64,
        /// Pruned engine only: whole `(C1, L1)` cells cut by the bound.
        pruned_subspaces: u64,
        /// Pruned engine only: 1 when the bracket memo answered.
        frontier_reuses: u64,
        /// The configuration the controller will install (`None` only
        /// when even all-to-LS cannot meet QoS and the fallback applies).
        chosen: Option<PairConfig>,
        /// Predicted normalized BE throughput of the chosen config.
        predicted_throughput: f64,
        /// Predicted package power of the installed config (W).
        predicted_power_w: f64,
        /// True when no feasible configuration existed and the
        /// all-to-LS fallback was installed instead.
        fallback: bool,
    },
    /// Algorithm 2 acted: a binary harvest or a partial revert.
    BalancerStep {
        /// Interval timestamp (s).
        t_s: f64,
        /// What moved, which direction, and by how much.
        action: BalancerAction,
        /// The configuration after the step.
        config: PairConfig,
    },
    /// The controller dropped to its safe-mode configuration.
    SafeModeEntered {
        /// Interval timestamp (s).
        t_s: f64,
        /// `"stale_telemetry"` or `"balancer_exhausted"`.
        reason: &'static str,
        /// Load at entry (QPS), which sizes the safe configuration.
        qps: f64,
    },
    /// Fresh telemetry ended a safe-mode episode.
    SafeModeExited {
        /// Interval timestamp (s).
        t_s: f64,
    },
    /// The actuation policy re-applied a failed configuration write.
    ActuationRetry {
        /// Interval timestamp (s).
        t_s: f64,
        /// Re-apply attempts made this interval.
        attempts: u32,
        /// True when a retry got the configuration installed.
        recovered: bool,
    },
    /// A configuration change was pushed to the node.
    ConfigApplied {
        /// Interval timestamp (s).
        t_s: f64,
        /// The configuration believed installed before the change.
        from: PairConfig,
        /// The configuration actually installed after the change.
        to: PairConfig,
        /// How the actuation went.
        outcome: ActuationOutcome,
    },
    /// The fault injector perturbed this interval.
    FaultInjected {
        /// Interval timestamp (s).
        t_s: f64,
        /// Active fault classes (e.g. `"telemetry_dropout"`).
        classes: Vec<&'static str>,
    },
    /// A budget-tree cap changed and the reclaimed apportionment was
    /// pushed into the node controllers.
    BudgetReclaimed {
        /// Interval timestamp (s).
        t_s: f64,
        /// Tree level the cap event targeted (see
        /// [`crate::budget::BudgetLevel::as_str`]).
        level: &'static str,
        /// Index within the level.
        index: usize,
        /// The new cap at that level (W, resolved).
        cap_w: f64,
        /// Watts currently withheld from the leaves fleet-wide.
        reclaimed_w: f64,
    },
    /// The placement engine moved a best-effort job.
    BeMigrated {
        /// Interval timestamp (s).
        t_s: f64,
        /// `"assign"`, `"migrate"`, or `"evict"`.
        action: &'static str,
        /// Source unit (`None` for an assignment from the queue).
        from: Option<usize>,
        /// Target unit (`None` for an eviction to the queue).
        to: Option<usize>,
        /// The job's application.
        be: &'static str,
    },
    /// Collaborative filtering synthesized a cold-start row: the fleet
    /// admitted an app whose profile matrix row was never measured.
    ColdStartPredicted {
        /// Interval timestamp (s; 0 for offline training-time events).
        t_s: f64,
        /// The unprofiled application.
        app: String,
        /// Cells synthesized for its row.
        cells: usize,
        /// Held-out reconstruction RMSE of the throughput plane.
        rmse_heldout: f64,
    },
    /// The learned set scorer valued a co-runner candidate set.
    SetScored {
        /// Interval timestamp (s).
        t_s: f64,
        /// Placement unit the set was evaluated on.
        unit: usize,
        /// Candidate set cardinality.
        k: usize,
        /// The learned `score(S)` value.
        score: f64,
    },
}

impl TraceEvent {
    /// The variant name — the single top-level key of the JSONL record.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TelemetrySample { .. } => "TelemetrySample",
            TraceEvent::SearchRan { .. } => "SearchRan",
            TraceEvent::BalancerStep { .. } => "BalancerStep",
            TraceEvent::SafeModeEntered { .. } => "SafeModeEntered",
            TraceEvent::SafeModeExited { .. } => "SafeModeExited",
            TraceEvent::ActuationRetry { .. } => "ActuationRetry",
            TraceEvent::ConfigApplied { .. } => "ConfigApplied",
            TraceEvent::FaultInjected { .. } => "FaultInjected",
            TraceEvent::BudgetReclaimed { .. } => "BudgetReclaimed",
            TraceEvent::BeMigrated { .. } => "BeMigrated",
            TraceEvent::ColdStartPredicted { .. } => "ColdStartPredicted",
            TraceEvent::SetScored { .. } => "SetScored",
        }
    }

    /// Every variant name, in a stable order (`trace_validate` keeps one
    /// example event of each as its schema).
    pub fn kinds() -> [&'static str; 12] {
        [
            "TelemetrySample",
            "SearchRan",
            "BalancerStep",
            "SafeModeEntered",
            "SafeModeExited",
            "ActuationRetry",
            "ConfigApplied",
            "FaultInjected",
            "BudgetReclaimed",
            "BeMigrated",
            "ColdStartPredicted",
            "SetScored",
        ]
    }

    /// The interval timestamp the event belongs to.
    pub fn t_s(&self) -> f64 {
        match self {
            TraceEvent::TelemetrySample { t_s, .. }
            | TraceEvent::SearchRan { t_s, .. }
            | TraceEvent::BalancerStep { t_s, .. }
            | TraceEvent::SafeModeEntered { t_s, .. }
            | TraceEvent::SafeModeExited { t_s }
            | TraceEvent::ActuationRetry { t_s, .. }
            | TraceEvent::ConfigApplied { t_s, .. }
            | TraceEvent::FaultInjected { t_s, .. }
            | TraceEvent::BudgetReclaimed { t_s, .. }
            | TraceEvent::BeMigrated { t_s, .. }
            | TraceEvent::ColdStartPredicted { t_s, .. }
            | TraceEvent::SetScored { t_s, .. } => *t_s,
        }
    }
}

/// Where trace events go. The harness checks [`TraceSink::enabled`]
/// before building any event, so a disabled sink costs one branch per
/// interval and nothing else.
pub trait TraceSink {
    /// Cheap gate: when false the producer skips event construction
    /// entirely. Defaults to true.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event. Sinks that can fail (e.g. file-backed ones)
    /// must latch the error internally and surface it from
    /// [`TraceSink::flush`] — `record` is on the per-interval hot path.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes buffered output and reports any latched write error.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The default sink: reports itself disabled, so attaching it is
/// indistinguishable from attaching nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &TraceEvent) {}
}

/// A bounded in-memory buffer keeping the most recent events — the test
/// and debugging sink.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    /// Events discarded because the buffer was full.
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered events of one kind (see [`TraceEvent::kind`]).
    pub fn count_of(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
    }
}

/// Writes one compact JSON object per line — the bench/offline-analysis
/// sink. Write errors latch and surface from [`TraceSink::flush`]; once
/// latched, later events are discarded.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer (e.g. `Vec<u8>` in tests).
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            error: None,
        }
    }

    /// Consumes the sink and returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = match serde_json::to_string(event) {
            Ok(line) => line,
            Err(_) => return,
        };
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::HarvestTarget;

    fn sample(t_s: f64) -> TraceEvent {
        TraceEvent::TelemetrySample {
            t_s,
            qps: 12_000.0,
            p95_ms: 4.5,
            power_w: 80.0,
            be_throughput_norm: 0.5,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn ring_sink_keeps_the_most_recent_events() {
        let mut ring = RingSink::new(3);
        for t in 0..5 {
            ring.record(&sample(t as f64));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let first = ring.events().next().unwrap();
        assert_eq!(first.t_s(), 2.0);
        assert_eq!(ring.count_of("TelemetrySample"), 3);
        assert_eq!(ring.count_of("SearchRan"), 0);
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&sample(1.0));
        sink.record(&TraceEvent::BalancerStep {
            t_s: 2.0,
            action: BalancerAction::Harvest {
                target: HarvestTarget::Cores,
                amount: 2,
            },
            config: sturgeon_simnode::PairConfig::new(
                sturgeon_simnode::Allocation::new(10, 5, 10),
                sturgeon_simnode::Allocation::new(10, 5, 10),
            ),
        });
        sink.flush().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = serde_json::from_str(lines[0]).unwrap();
        assert!(v.get("TelemetrySample").is_some());
        assert_eq!(v["TelemetrySample"]["qps"], 12_000.0);
        let v = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(v["BalancerStep"]["action"]["Harvest"]["amount"], 2);
    }

    #[test]
    fn every_kind_is_listed() {
        assert!(TraceEvent::kinds().contains(&sample(0.0).kind()));
        assert_eq!(TraceEvent::kinds().len(), 12);
    }
}
