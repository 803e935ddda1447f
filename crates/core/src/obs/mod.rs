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
//! machines, which makes JSONL traces diffable test artifacts. Cache
//! counts are the emitting controller's own (`SearchRan` per search,
//! `CacheSnapshot` as its running sums), never the predictor-wide
//! totals that concurrently stepping fleet shards advance.
//!
//! One known exception: a fleet on `search = "heuristic"` shares one
//! prediction cache across its shards, and whether a search counts a
//! key as a hit or a miss depends on which shard queried that key
//! first. Three traced runs of the 1000-node smoke fleet switched to
//! the heuristic differed in 12–17 of their 55 `SearchRan` lines, all
//! in the `cache_hits`/`cache_misses` split (and so in the
//! `CacheSnapshot` sums); `model_calls` and every other line matched.
//! The pruned engine answers from slab cells whose values, and so its
//! counters, do not depend on which shard filled them, so its fleet
//! traces are byte-identical (`tests/observability.rs`).

mod metrics;
mod trace;

pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry, DEFAULT_BUCKETS};
pub use trace::{JsonlSink, NullSink, RingSink, SearchReason, TraceEvent, TraceSink};
