//! Structured observability: decision traces and a metrics registry.
//!
//! Sturgeon's value lies in *why* the controller picked each
//! `<C1,F1,L1; C2,F2,L2>` configuration; end-of-run aggregates cannot
//! answer that. This module gives every run an optional instrumentation
//! spine:
//!
//! * [`TraceEvent`] — one typed record per controller decision or
//!   harness action (searches, balancer harvests, safe-mode entries,
//!   actuation retries, cache snapshots, per-interval telemetry).
//! * [`TraceSink`] — where events go: [`NullSink`] (default, free),
//!   [`RingSink`] (bounded in-memory buffer for tests), [`JsonlSink`]
//!   (one JSON object per line, for benches and offline analysis).
//! * [`MetricsRegistry`] — counters / gauges / fixed-bucket histograms
//!   derived from the same event stream, exportable as JSON or a
//!   one-page text summary.
//!
//! The layer is zero-cost when disabled: with no sink and no registry
//! attached the harness never constructs an event and the controller
//! never buffers one, so a traced-off run is bit-identical to a pre-
//! observability run (asserted by `tests/observability.rs`).
//!
//! Events deliberately carry no wall-clock fields (durations, machine
//! timestamps): a pinned-seed trace is byte-identical across runs and
//! machines, which makes JSONL traces diffable test artifacts.

mod metrics;
mod trace;

pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry, DEFAULT_BUCKETS};
pub use trace::{JsonlSink, NullSink, RingSink, SearchReason, TraceEvent, TraceSink};
