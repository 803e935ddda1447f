//! Configuration search (paper §V-B): find the feasible configuration
//! maximizing BE throughput without sweeping the O(N⁴) space.
//!
//! The key insight is monotonicity: application performance rises with
//! every resource, so "just enough for the LS service" is a binary-search
//! target, and the maximum BE frequency under the power budget is another.
//! The resulting complexity is O(N log N) model calls:
//!
//! 1. fix F1 and L1 at maximum, binary-search the minimum C1 meeting QoS;
//! 2. binary-search the minimum L1, then minimum F1;
//! 3. C2 and L2 follow by subtraction; binary-search the maximum F2 that
//!    keeps total power within budget;
//! 4. grow C1 from its minimum, rebuilding each candidate the same way,
//!    until the BE application reaches maximum frequency;
//! 5. pick the candidate with the highest predicted BE throughput.
//!
//! An exhaustive-search oracle is provided for the §VII-E overhead
//! comparison and for validating the fast path in tests.
//!
//! ## The frontier-pruned engine ([`ConfigSearch::pruned`])
//!
//! The heuristic above is fast but inexact: it only visits minimal-LS
//! frontier points. The pruned engine returns the latticed oracle's exact
//! answer with zero virtual predictor calls, via three layers:
//!
//! 1. **dense BE tables** ([`ModelTables`]): the QPS-independent BE
//!    throughput and BE power models are flattened per (re)train into
//!    contiguous arrays, so the inner loop's model calls become loads and
//!    admissible throughput upper bounds come free;
//! 2. **lazy QPS-slab lattices** ([`crate::tables::LsSlabs`]): the
//!    QPS-dependent LS feasibility and LS power models are answered per
//!    quantized load bucket, one cell at a time — a cell runs the raw
//!    model path on its first read and is stored, so a bucket costs only
//!    the cells some search read. A search at load `q` takes the two
//!    slabs whose centers bracket `q` and reads their conservative
//!    *envelope*: feasibility is the AND of the two cells (never
//!    optimistically interpolated) and LS power their `max`. At a slab
//!    center the bracket degenerates and every value is bit-identical to
//!    the live model call, so the engine equals
//!    [`ConfigSearch::exhaustive_serial`] there; at every load it is
//!    bit-identical to the envelope oracle
//!    [`ConfigSearch::exhaustive_latticed`];
//! 3. **best-first over `(C1, L1)` cells**: each cell's admissible bound
//!    is the best BE throughput over the F2 levels whose power fits the
//!    guarded budget with zero LS power. Cells are visited in descending
//!    bound order, F1 ascending within a cell, and the search stops at the
//!    first cell whose bound is below the incumbent. The sorted order
//!    depends only on the tables, the guarded budget and the `C1`/`L1`
//!    limits, so the tables memoize it per budget. Envelope cells it
//!    never reaches are never filled ([`SearchStats::pruned_candidates`]
//!    counts the `(C1, F1, L1)` cells cut by the bound,
//!    [`SearchStats::pruned_subspaces`] the `(C1, L1)` cells).
//!
//! Exactness argument (vs the envelope oracle, whose strict-`>` scan keeps
//! the first `(C1, F1, L1)` in lexicographic order with the highest
//! throughput): a candidate's throughput never exceeds its cell's bound,
//! because LS power is non-negative and float addition is monotone. The
//! incumbent keeps the highest throughput, and the lexicographically
//! first position among equals. A cell is cut only when its bound is
//! below the incumbent, or equal to it with every remaining position
//! after the incumbent's; neither can hold the oracle's answer.
//!
//! On top sits one cross-interval **bracket memo** ([`FrontierCache`],
//! attached with [`ConfigSearch::with_frontiers`]). The oracle reads the
//! load only through its slab bracket `(k_lo, k_hi)`, so the outcome is a
//! pure function of its key: predictor generation, guarded budget,
//! power-load headroom, the `C1`/`L1` limits and the bracket. A
//! hit returns the stored outcome ([`SearchStats::frontier_reuses`] = 1,
//! zero candidates); a miss runs the sweep and stores its result.

use crate::cache::{BracketKey, FrontierCache, QueryMeter};
use crate::predictor::PerfPowerPredictor;
use crate::tables::{LsSlab, LsSlabs, ModelTables};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sturgeon_simnode::{Allocation, NodeSpec, PairConfig};

/// Which engine the controller's per-interval search runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// The paper's §V-B bisection heuristic with warm starts — the
    /// historical default, kept for trajectory stability. Uses the
    /// island-hardened `ls_trusted` feasibility probe.
    #[default]
    Heuristic,
    /// The frontier-pruned branch-and-bound engine: oracle-exact result
    /// (bit-identical to [`ConfigSearch::exhaustive_latticed`], and to
    /// [`ConfigSearch::exhaustive_serial`] at slab centers) with
    /// table-driven pruning and a cross-interval bracket memo.
    FrontierPruned,
}

/// Maximum relative load drift under which
/// [`ConfigSearch::best_config_warm`] trusts the previous interval's
/// configuration as a seed; beyond it the warm path falls back to the full
/// §V-B search.
const WARM_START_DRIFT: f64 = 0.20;

/// Half-width of the C1 window scanned around the previous configuration's
/// LS core count on the warm path.
const WARM_START_WINDOW: u32 = 2;

/// Search-space limits and toggles.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams {
    /// Keep at least this many cores for the BE partition (≥ 1: cpuset
    /// partitions cannot be empty).
    pub min_be_cores: u32,
    /// Keep at least this many LLC ways for the BE partition.
    pub min_be_ways: u32,
    /// Relative load drift the power check anticipates: between two
    /// searches the load can keep rising, and the LS partition's power
    /// rises with it, so budget feasibility is evaluated at
    /// `qps · (1 + power_load_headroom)`.
    pub power_load_headroom: f64,
    /// Relative guard band subtracted from the budget before any
    /// feasibility check: configurations are accepted against
    /// `budget · (1 − power_guard)`. Covers residual model error on
    /// boundary-hugging configurations (the power models interpolate from
    /// interior samples and systematically under-predict at the
    /// max-frequency edge of the trained domain), the same way RAPL
    /// deployments keep a guard band under the package limit.
    pub power_guard: f64,
    /// Which engine [`crate::controller::SturgeonController`] dispatches
    /// its per-interval searches to.
    pub strategy: SearchStrategy,
}

impl Default for SearchParams {
    fn default() -> Self {
        Self {
            min_be_cores: 1,
            min_be_ways: 1,
            power_load_headroom: 0.08,
            power_guard: 0.02,
            strategy: SearchStrategy::default(),
        }
    }
}

/// Instrumentation for the §VII-E overhead accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Prediction queries consumed by the search (cached or not).
    pub model_calls: u64,
    /// Candidate configurations fully evaluated.
    pub candidates: usize,
    /// Wall-clock duration of the search.
    pub duration: Duration,
    /// Of this search's queries, those answered from the prediction
    /// memo cache. Under a predictor shared across threads the hit/miss
    /// split depends on their interleaving, so it is never traced; it
    /// stays for the single-threaded ledgers (`tab_overhead`, perfbench).
    pub cache_hits: u64,
    /// Of this search's queries, those that ran the underlying models.
    pub cache_misses: u64,
    /// Pruned engine only: `(C1, F1, L1)` cells never evaluated because
    /// their `(C1, L1)` cell's admissible table bound proved they cannot
    /// win.
    pub pruned_candidates: u64,
    /// Pruned engine only: whole `(C1, L1)` cells cut by their bound.
    pub pruned_subspaces: u64,
    /// Pruned engine only: 1 when the outcome came from the attached
    /// [`FrontierCache`] memo instead of a sweep.
    pub frontier_reuses: u64,
}

/// The search result.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best feasible configuration, if any exists. `None` means even
    /// giving the LS service everything cannot meet QoS (the controller
    /// then applies the all-to-LS fallback).
    pub best: Option<PairConfig>,
    /// Predicted BE throughput of `best` (0 when `best` is `None`).
    pub predicted_throughput: f64,
    /// Instrumentation.
    pub stats: SearchStats,
}

/// Pruning counters accumulated by the frontier-pruned engine.
#[derive(Debug, Clone, Copy, Default)]
struct PruneTally {
    cells: u64,
    slices: u64,
    frontier_reuses: u64,
}

/// Binary-search the least `x` in `[lo, hi]` with `pred(x)` true, given
/// that `pred` is monotone (false…false true…true). `None` if all false.
pub fn least_satisfying(lo: u32, hi: u32, mut pred: impl FnMut(u32) -> bool) -> Option<u32> {
    if lo > hi || !pred(hi) {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Binary-search the greatest `x` in `[lo, hi]` with `pred(x)` true, given
/// that `pred` is monotone (true…true false…false). `None` if all false.
pub fn greatest_satisfying(lo: u32, hi: u32, mut pred: impl FnMut(u32) -> bool) -> Option<u32> {
    if lo > hi || !pred(lo) {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if pred(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

/// The configuration searcher. Borrows the predictor; cheap to construct
/// per control interval.
#[derive(Debug)]
pub struct ConfigSearch<'p> {
    predictor: &'p PerfPowerPredictor,
    spec: NodeSpec,
    budget_w: f64,
    params: SearchParams,
    frontiers: Option<&'p FrontierCache>,
}

impl<'p> ConfigSearch<'p> {
    /// A searcher over the node `spec` with the given power budget.
    pub fn new(
        predictor: &'p PerfPowerPredictor,
        spec: NodeSpec,
        budget_w: f64,
        params: SearchParams,
    ) -> Self {
        Self {
            predictor,
            spec,
            budget_w,
            params,
            frontiers: None,
        }
    }

    /// Attaches a cross-interval bracket memo: [`pruned`](Self::pruned)
    /// answers from it when the same slab bracket was solved before under
    /// the same budget and models, and stores every fresh outcome in it. Results are unchanged
    /// with or without the memo — only their cost is.
    pub fn with_frontiers(mut self, cache: &'p FrontierCache) -> Self {
        self.frontiers = Some(cache);
        self
    }

    fn max_c1(&self) -> u32 {
        self.spec.total_cores - self.params.min_be_cores
    }

    /// The budget after subtracting the guard band; every feasibility
    /// check in both search paths uses this.
    fn guarded_budget(&self) -> f64 {
        self.budget_w * (1.0 - self.params.power_guard)
    }

    fn max_l1(&self) -> u32 {
        self.spec.total_llc_ways - self.params.min_be_ways
    }

    fn ls_ok(&self, c1: u32, level: usize, l1: u32, qps: f64) -> bool {
        self.predictor
            .ls_feasible(c1, self.spec.freq_ghz(level), l1, qps)
    }

    /// Consistency-checked feasibility: performance is monotone in every
    /// resource, so a genuinely feasible point must still be feasible
    /// with one more frequency step, way, or core. Isolated "feasible
    /// islands" produced by classifier noise fail this probe and are
    /// rejected rather than trusted by the binary search.
    fn ls_trusted(&self, c1: u32, level: usize, l1: u32, qps: f64) -> bool {
        if !self.ls_ok(c1, level, l1, qps) {
            return false;
        }
        let top = self.spec.max_freq_level();
        if level < top && !self.ls_ok(c1, level + 1, l1, qps) {
            return false;
        }
        if l1 < self.max_l1() && !self.ls_ok(c1, level, l1 + 1, qps) {
            return false;
        }
        if c1 < self.max_c1() && !self.ls_ok(c1 + 1, level, l1, qps) {
            return false;
        }
        true
    }

    /// Completes a fixed `<C1, L1>` choice into a full candidate: minimal
    /// F1 for QoS, complement for the BE side, maximal F2 under the
    /// budget. Returns the configuration with its predicted BE throughput.
    fn candidate_for_c1_l1(&self, c1: u32, l1: u32, qps: f64) -> Option<(PairConfig, f64)> {
        let top = self.spec.max_freq_level();
        // Minimal frequency at this way count.
        let f1 =
            least_satisfying(0, top as u32, |f| self.ls_trusted(c1, f as usize, l1, qps))? as usize;
        let ls = Allocation::new(c1, f1, l1);
        let c2 = self.spec.total_cores - c1;
        let l2 = self.spec.total_llc_ways - l1;
        // Maximal BE frequency within the power budget, evaluated at the
        // drifted load the configuration may face before the next search.
        let qps_power = qps * (1.0 + self.params.power_load_headroom);
        let f2 = greatest_satisfying(0, top as u32, |f| {
            let cfg = PairConfig::new(ls, Allocation::new(c2, f as usize, l2));
            self.predictor.total_power_w(&cfg, &self.spec, qps_power) <= self.guarded_budget()
        })? as usize;
        let cfg = PairConfig::new(ls, Allocation::new(c2, f2, l2));
        let t = self.predictor.be_throughput(c2, self.spec.freq_ghz(f2), l2);
        Some((cfg, t))
    }

    /// Builds the best candidate for a fixed LS core count.
    ///
    /// The minimal-L1 allocation is not always optimal: LS power falls as
    /// the LS partition gains LLC ways (lower utilization at lower tail
    /// latency), so under a tight budget, spare ways given to the LS side
    /// can buy the BE partition a higher frequency. A short geometric
    /// ladder of L1 values above the minimum covers that trade-off with
    /// O(1) extra binary searches.
    fn candidate_for_c1(&self, c1: u32, qps: f64) -> Option<(PairConfig, f64)> {
        let top = self.spec.max_freq_level();
        // Minimal LLC ways at maximum frequency.
        let l1_min = least_satisfying(1, self.max_l1(), |l| self.ls_trusted(c1, top, l, qps))?;
        let mut best: Option<(PairConfig, f64)> = None;
        for step in [0u32, 2, 6, 14] {
            let l1 = l1_min + step;
            if l1 > self.max_l1() {
                break;
            }
            let Some((cfg, t)) = self.candidate_for_c1_l1(c1, l1, qps) else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, bt)| t > *bt) {
                best = Some((cfg, t));
            }
        }
        best
    }

    /// Start time and this thread's query meter, taken when a search
    /// starts; [`finish`](Self::finish) turns it into a [`SearchStats`]
    /// delta. The meter is per thread, so concurrent searches on the same
    /// predictor never leak into each other's counts.
    fn meter(&self) -> (Instant, QueryMeter) {
        (Instant::now(), QueryMeter::current())
    }

    fn finish(
        &self,
        meter: (Instant, QueryMeter),
        best: Option<(PairConfig, f64)>,
        candidates: usize,
        tally: PruneTally,
    ) -> SearchOutcome {
        let (started, start) = meter;
        Self::outcome(started, QueryMeter::since(start), best, candidates, tally)
    }

    fn outcome(
        started: Instant,
        queries: QueryMeter,
        best: Option<(PairConfig, f64)>,
        candidates: usize,
        tally: PruneTally,
    ) -> SearchOutcome {
        let stats = SearchStats {
            model_calls: queries.calls,
            candidates,
            duration: started.elapsed(),
            cache_hits: queries.hits,
            cache_misses: queries.misses,
            pruned_candidates: tally.cells,
            pruned_subspaces: tally.slices,
            frontier_reuses: tally.frontier_reuses,
        };
        let (best, predicted_throughput) = match best {
            Some((cfg, t)) => (Some(cfg), t),
            None => (None, 0.0),
        };
        SearchOutcome {
            best,
            predicted_throughput,
            stats,
        }
    }

    /// One C1 window of the §V-B scan (steps 2–4): grow C1 across
    /// `[lo, hi]`, rebuilding each candidate, keeping the best.
    ///
    /// The scan stops early once the BE partition has reached maximum
    /// frequency *and* the table bound proves no remaining (smaller-C2)
    /// slice can beat the running best. The historical break condition
    /// stopped on max frequency alone, which can miss the window optimum:
    /// a larger C1 lowers the LS partition's minimal way count, so the BE
    /// side can gain LLC ways — and throughput — even with its frequency
    /// already at the top. The `warm_break_equivalence` property test in
    /// `tests/search_pruned.rs` exhibits exactly that counterexample
    /// against the old rule; the bound-gated rule is provably equivalent
    /// to scanning the window exhaustively.
    fn scan_c1_window(&self, lo: u32, hi: u32, qps: f64) -> (Option<(PairConfig, f64)>, usize) {
        let top = self.spec.max_freq_level();
        let mut tables = None;
        let mut best: Option<(PairConfig, f64)> = None;
        let mut candidates = 0usize;
        for c1 in lo..=hi {
            let Some((cfg, t)) = self.candidate_for_c1(c1, qps) else {
                continue;
            };
            candidates += 1;
            if best.as_ref().is_none_or(|(_, bt)| t > *bt) {
                best = Some((cfg, t));
            }
            if cfg.be.freq_level == top && c1 < hi {
                let bt = best.as_ref().map(|&(_, bt)| bt).unwrap_or(t);
                let tables = tables.get_or_insert_with(|| self.predictor.model_tables(&self.spec));
                // Candidates at larger C1 draw from slices of at most
                // total − (c1+1) BE cores; their prefix bound is
                // admissible over all of them.
                let remaining = tables.slice_max_tput_upto(self.spec.total_cores - (c1 + 1));
                if remaining <= bt {
                    break;
                }
            }
        }
        (best, candidates)
    }

    /// The §V-B binary search: O(N log N) model calls.
    pub fn best_config(&self, qps: f64) -> SearchOutcome {
        let meter = self.meter();
        let top = self.spec.max_freq_level();

        // Step 1: minimum C1 at maximum frequency and cache.
        let c1_min = least_satisfying(1, self.max_c1(), |c| {
            self.ls_trusted(c, top, self.max_l1(), qps)
        });

        // Steps 2–4: grow C1, rebuilding each candidate, until the BE
        // partition reaches maximum frequency and the table bound closes.
        let (best, candidates) = match c1_min {
            Some(c1_min) => self.scan_c1_window(c1_min, self.max_c1(), qps),
            None => (None, 0),
        };

        self.finish(meter, best, candidates, PruneTally::default())
    }

    /// Warm-started §V-B search: when the load has drifted less than
    /// `WARM_START_DRIFT` since `previous` was found, the optimal LS
    /// core count can only have moved a step or two, so only a
    /// `± WARM_START_WINDOW` C1 window around the previous choice is
    /// rebuilt instead of re-running the full C1 scan. Any doubt — large
    /// drift, no feasible candidate in the window — falls back to
    /// [`best_config`](Self::best_config), so the warm path never returns
    /// `None` where the cold path would find a configuration.
    pub fn best_config_warm(
        &self,
        qps: f64,
        previous: Option<(&PairConfig, f64)>,
    ) -> SearchOutcome {
        let Some((prev, prev_qps)) = previous else {
            return self.best_config(qps);
        };
        let drift = (qps - prev_qps).abs() / prev_qps.max(1.0);
        if drift > WARM_START_DRIFT {
            return self.best_config(qps);
        }
        let meter = self.meter();
        let lo = prev.ls.cores.saturating_sub(WARM_START_WINDOW).max(1);
        let hi = (prev.ls.cores + WARM_START_WINDOW).min(self.max_c1());

        let (best, candidates) = self.scan_c1_window(lo, hi, qps);
        if best.is_none() {
            // The previous neighbourhood no longer contains a feasible
            // point (e.g. load rose past what ± window cores can absorb).
            return self.best_config(qps);
        }
        self.finish(meter, best, candidates, PruneTally::default())
    }

    /// One C1 slice of the exhaustive sweep: every `<F1, L1, F2>` for the
    /// fixed LS core count. Returns the slice's best candidate and how
    /// many were fully evaluated.
    fn exhaustive_slice(
        &self,
        c1: u32,
        qps: f64,
        qps_power: f64,
    ) -> (Option<(PairConfig, f64)>, usize) {
        let top = self.spec.max_freq_level();
        let c2 = self.spec.total_cores - c1;
        let mut best: Option<(PairConfig, f64)> = None;
        let mut candidates = 0usize;
        for f1 in 0..=top {
            for l1 in 1..=self.max_l1() {
                if !self.ls_ok(c1, f1, l1, qps) {
                    continue;
                }
                let l2 = self.spec.total_llc_ways - l1;
                for f2 in (0..=top).rev() {
                    let cfg =
                        PairConfig::new(Allocation::new(c1, f1, l1), Allocation::new(c2, f2, l2));
                    if self.predictor.total_power_w(&cfg, &self.spec, qps_power)
                        > self.guarded_budget()
                    {
                        continue;
                    }
                    candidates += 1;
                    let t = self.predictor.be_throughput(c2, self.spec.freq_ghz(f2), l2);
                    if best.as_ref().is_none_or(|(_, bt)| t > *bt) {
                        best = Some((cfg, t));
                    }
                    break; // lower F2 is strictly worse for this (c1,f1,l1)
                }
            }
        }
        (best, candidates)
    }

    fn exhaustive_impl(&self, qps: f64, parallel: bool) -> SearchOutcome {
        let started = Instant::now();
        // Same drifted-load power check as the fast path, so both searches
        // answer the same feasibility question.
        let qps_power = qps * (1.0 + self.params.power_load_headroom);
        // Each slice reads the query meter of whichever thread runs it, so
        // the summed deltas count this search's queries alone on both
        // paths. The per-slice results come back in C1 order.
        let metered = |c1: u32| {
            let start = QueryMeter::current();
            let (best, candidates) = self.exhaustive_slice(c1, qps, qps_power);
            (best, candidates, QueryMeter::since(start))
        };
        let slices: Vec<_> = if parallel {
            (1..self.max_c1() + 1)
                .into_par_iter()
                .map(metered)
                .collect()
        } else {
            (1..=self.max_c1()).map(metered).collect()
        };
        // Reduce in C1 order with the serial path's first-best-wins
        // tie-break (strict `>`), so both paths return the same config.
        let (mut best, mut candidates, mut queries) = (None, 0usize, QueryMeter::default());
        for (slice_best, slice_candidates, slice_queries) in slices {
            candidates += slice_candidates;
            queries = queries + slice_queries;
            if let Some((cfg, t)) = slice_best {
                if best.as_ref().is_none_or(|&(_, bt)| t > bt) {
                    best = Some((cfg, t));
                }
            }
        }
        Self::outcome(started, queries, best, candidates, PruneTally::default())
    }

    /// The O(N⁴) exhaustive oracle of §VII-E: sweep every
    /// `<C1, F1, L1, F2>` (C2/L2 by subtraction) and keep the feasible
    /// configuration with the highest predicted throughput. The C1 slices
    /// are evaluated in parallel across the rayon pool; the result is
    /// identical to [`exhaustive_serial`](Self::exhaustive_serial).
    pub fn exhaustive(&self, qps: f64) -> SearchOutcome {
        self.exhaustive_impl(qps, true)
    }

    /// Single-threaded exhaustive oracle — the baseline the
    /// serial-vs-parallel Criterion bench compares against, and a
    /// reference for the equivalence tests.
    pub fn exhaustive_serial(&self, qps: f64) -> SearchOutcome {
        self.exhaustive_impl(qps, false)
    }

    /// The oracle's power frontier `F2*(C1,F1,L1)`, resolved fully on the
    /// flats: the greatest F2 whose total power fits the guarded budget,
    /// with the LS term supplied from the slab envelope (`ls_env_w`). A
    /// descending linear scan over the (few-entry) BE power row
    /// reproduces the oracle's continue-on-overbudget loop exactly, so
    /// the result matches even where model noise makes predicted power
    /// non-monotone in frequency. The float arithmetic mirrors
    /// `total_power_w`'s association order, `(static + ls) + be`, so at a
    /// slab center the comparison is bit-identical to the live check.
    #[inline]
    fn lattice_f2(&self, c2: u32, ls_env_w: f64, tables: &ModelTables) -> Option<usize> {
        let base = tables.static_power_w() + ls_env_w;
        let budget = self.guarded_budget();
        (0..=self.spec.max_freq_level())
            .rev()
            .find(|&f2| base + tables.be_power_w(c2, f2) <= budget)
    }

    /// The envelope of the two slabs bracketing `qps` (the same slab
    /// twice when the bracket degenerates at a slab center).
    fn envelope(&self, slabs: &LsSlabs, bracket: (u64, u64)) -> Envelope<'_> {
        let (k_lo, k_hi) = bracket;
        Envelope {
            predictor: self.predictor,
            spec: &self.spec,
            lo: self.predictor.ls_slab(&self.spec, slabs, k_lo),
            hi: self.predictor.ls_slab(&self.spec, slabs, k_hi),
        }
    }

    /// Evaluates one envelope cell as both latticed engines do: `None`
    /// unless it is envelope-feasible and some F2 fits the budget, else
    /// the candidate with its table BE throughput.
    fn latticed_candidate(
        &self,
        env: &Envelope<'_>,
        tables: &ModelTables,
        (c1, f1, l1): (u32, usize, u32),
    ) -> Option<(PairConfig, f64)> {
        if !env.feasible(c1, f1, l1) {
            return None;
        }
        let c2 = self.spec.total_cores - c1;
        let f2 = self.lattice_f2(c2, env.ls_power_w(c1, f1, l1), tables)?;
        let l2 = self.spec.total_llc_ways - l1;
        let be = Allocation::new(c2, f2, l2);
        let t = tables.be_throughput(c2, f2, l2);
        Some((PairConfig::new(Allocation::new(c1, f1, l1), be), t))
    }

    /// The envelope oracle: an unpruned serial sweep of every
    /// `<C1, F1, L1>` cell under the exact slab-envelope semantics the
    /// pruned engine uses — AND feasibility, max LS power, table `F2*`.
    /// This is the bit-identity reference for [`pruned`](Self::pruned) at
    /// *arbitrary* loads; at a slab-center load it is additionally
    /// bit-identical to [`exhaustive_serial`](Self::exhaustive_serial),
    /// because there the bracket degenerates and every envelope value
    /// equals the live model call. It reads (and fills) the same lazy
    /// slab cells as the pruned engine.
    pub fn exhaustive_latticed(&self, qps: f64) -> SearchOutcome {
        let meter = self.meter();
        let tables = self.predictor.model_tables(&self.spec);
        let slabs = self
            .predictor
            .ls_slabs(&self.spec, self.params.power_load_headroom);
        let env = self.envelope(&slabs, slabs.bracket(qps));
        let mut best: Option<(PairConfig, f64)> = None;
        let mut candidates = 0usize;
        for c1 in 1..=self.max_c1() {
            for f1 in 0..=self.spec.max_freq_level() {
                for l1 in 1..=self.max_l1() {
                    let Some((cfg, t)) = self.latticed_candidate(&env, &tables, (c1, f1, l1))
                    else {
                        continue;
                    };
                    candidates += 1;
                    if best.as_ref().is_none_or(|(_, bt)| t > *bt) {
                        best = Some((cfg, t));
                    }
                }
            }
        }
        self.finish(meter, best, candidates, PruneTally::default())
    }

    /// The latticed, frontier-pruned engine: a best-first search over the
    /// lazy slab envelope, bit-identical to
    /// [`exhaustive_latticed`](Self::exhaustive_latticed) at every load
    /// (and to [`exhaustive_serial`](Self::exhaustive_serial) at slab
    /// centers), reading only the cells its bound cannot rule out; when a
    /// [`FrontierCache`] is attached, one exact memo entry per slab
    /// bracket and budget — see the module docs. It runs serially: a
    /// search reads a few hundred cells, far below the cost of fanning
    /// out to a thread pool.
    pub fn pruned(&self, qps: f64) -> SearchOutcome {
        let meter = self.meter();
        let slabs = self
            .predictor
            .ls_slabs(&self.spec, self.params.power_load_headroom);
        let bracket = slabs.bracket(qps);
        let key = BracketKey {
            generation: slabs.generation(),
            guarded_budget_bits: self.guarded_budget().to_bits(),
            headroom_bits: self.params.power_load_headroom.to_bits(),
            max_c1: self.max_c1(),
            max_l1: self.max_l1(),
            bracket,
        };
        if let Some(best) = self.frontiers.and_then(|fc| fc.get(&key)) {
            let tally = PruneTally {
                frontier_reuses: 1,
                ..PruneTally::default()
            };
            return self.finish(meter, best, 0, tally);
        }
        let tables = self.predictor.model_tables(&self.spec);
        let env = self.envelope(&slabs, bracket);
        let levels = self.spec.freq_level_count() as u64;
        let order = tables.cell_order(self.guarded_budget(), self.max_c1(), self.max_l1());
        let cells = &order.cells;
        let mut tally = PruneTally {
            cells: order.hopeless * levels,
            slices: order.hopeless,
            ..PruneTally::default()
        };
        let mut best: Option<(PairConfig, f64)> = None;
        let mut candidates = 0usize;
        let position = |cfg: &PairConfig| (cfg.ls.cores, cfg.ls.freq_level, cfg.ls.llc_ways);
        for (i, &(bound, c1, l1)) in cells.iter().enumerate() {
            if best.as_ref().is_some_and(|(_, bt)| bound < *bt) {
                let rest = (cells.len() - i) as u64;
                tally.cells += rest * levels;
                tally.slices += rest;
                break;
            }
            let dead = env.known_infeasible(c1, l1);
            for f1 in 0..=self.spec.max_freq_level() {
                // No later F1 of this cell can beat the incumbent, and at
                // equal throughput the incumbent comes first.
                if best
                    .as_ref()
                    .is_some_and(|(cfg, bt)| bound <= *bt && position(cfg) < (c1, f1, l1))
                {
                    tally.cells += levels - f1 as u64;
                    tally.slices += u64::from(f1 == 0);
                    break;
                }
                if dead >> (2 * f1) & 1 != 0 {
                    continue;
                }
                let Some((cfg, t)) = self.latticed_candidate(&env, &tables, (c1, f1, l1)) else {
                    continue;
                };
                candidates += 1;
                if best
                    .as_ref()
                    .is_none_or(|(inc, bt)| t > *bt || (t == *bt && position(&cfg) < position(inc)))
                {
                    best = Some((cfg, t));
                }
            }
        }
        if let Some(fc) = self.frontiers {
            fc.insert(key, best);
        }
        self.finish(meter, best, candidates, tally)
    }
}

/// The conservative envelope of the two slabs bracketing a load, read
/// cell by cell (filling each cell on first read).
struct Envelope<'a> {
    predictor: &'a PerfPowerPredictor,
    spec: &'a NodeSpec,
    lo: Arc<LsSlab>,
    hi: Arc<LsSlab>,
}

impl Envelope<'_> {
    /// Feasible at both bracketing centers (never optimistic).
    fn feasible(&self, c1: u32, f1: usize, l1: u32) -> bool {
        let cell = |slab| self.predictor.slab_feasible(self.spec, slab, c1, f1, l1);
        cell(&self.lo) && cell(&self.hi)
    }

    /// Levels of column `(c1, l1)` already known to be envelope-infeasible
    /// (see [`LsSlab::known_infeasible`]).
    fn known_infeasible(&self, c1: u32, l1: u32) -> u64 {
        self.lo.known_infeasible(c1, l1) | self.hi.known_infeasible(c1, l1)
    }

    /// The larger of the two bracketing centers' LS power.
    fn ls_power_w(&self, c1: u32, f1: usize, l1: u32) -> f64 {
        let cell = |slab| self.predictor.slab_ls_power_w(self.spec, slab, c1, f1, l1);
        cell(&self.lo).max(cell(&self.hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{PerfPowerPredictor, PredictorConfig};
    use crate::profiler::{Profiler, ProfilerConfig};
    use std::cmp::Reverse;
    use sturgeon_simnode::{NodeSpec, PowerModel};
    use sturgeon_workloads::catalog::{be_app, ls_service, BeAppId, LsServiceId};
    use sturgeon_workloads::env::CoLocationEnv;
    use sturgeon_workloads::interference::InterferenceParams;

    fn setup() -> (CoLocationEnv, PerfPowerPredictor) {
        let env = CoLocationEnv::new(
            NodeSpec::xeon_e5_2630_v4(),
            PowerModel::default(),
            ls_service(LsServiceId::Memcached),
            be_app(BeAppId::Raytrace),
            InterferenceParams::none(),
            0,
        );
        let d = Profiler::new(
            &env,
            ProfilerConfig {
                ls_samples_per_load: 120,
                ls_load_fractions: vec![0.15, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8],
                be_samples: 500,
                seed: 5,
            },
        )
        .collect()
        .unwrap();
        let p = PerfPowerPredictor::train(
            &d,
            PredictorConfig::default(),
            env.static_power_w(),
            env.be().params.input_level as f64,
            env.ls().params.qos_target_ms,
        )
        .unwrap();
        (env, p)
    }

    #[test]
    fn least_satisfying_finds_boundary() {
        assert_eq!(least_satisfying(0, 10, |x| x >= 7), Some(7));
        assert_eq!(least_satisfying(0, 10, |_| true), Some(0));
        assert_eq!(least_satisfying(0, 10, |_| false), None);
        assert_eq!(least_satisfying(5, 4, |_| true), None);
    }

    #[test]
    fn greatest_satisfying_finds_boundary() {
        assert_eq!(greatest_satisfying(0, 10, |x| x <= 7), Some(7));
        assert_eq!(greatest_satisfying(0, 10, |_| true), Some(10));
        assert_eq!(greatest_satisfying(0, 10, |_| false), None);
    }

    #[test]
    fn binary_search_matches_linear_scan() {
        // Property-style check over many monotone predicates.
        for threshold in 0..=20u32 {
            let pred = |x: u32| x >= threshold;
            let expect = (0..=15u32).find(|&x| pred(x));
            assert_eq!(least_satisfying(0, 15, pred), expect);
            let pred2 = |x: u32| x <= threshold;
            let expect2 = (0..=15u32).rev().find(|&x| pred2(x));
            assert_eq!(greatest_satisfying(0, 15, pred2), expect2);
        }
    }

    #[test]
    fn search_returns_feasible_config() {
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        for frac in [0.2, 0.35, 0.5, 0.7] {
            let qps = frac * env.ls().params.peak_qps;
            let out = search.best_config(qps);
            let cfg = out.best.expect("feasible config must exist");
            assert!(cfg.validate(env.spec()).is_ok());
            // The chosen config must actually be predicted feasible.
            assert!(p.feasible(&cfg, env.spec(), qps, env.budget_w()));
            assert!(out.predicted_throughput > 0.0);
        }
    }

    #[test]
    fn search_is_fast_in_model_calls() {
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        let out = search.best_config(0.3 * env.ls().params.peak_qps);
        // §VII-E bounds the fast search by (16 + 11·19)·4 models per
        // prediction round ≈ 900 calls; exhaustive needs ~40 000·4.
        assert!(
            out.stats.model_calls < 2_000,
            "model calls {}",
            out.stats.model_calls
        );
    }

    #[test]
    fn fast_search_close_to_exhaustive() {
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        let qps = 0.3 * env.ls().params.peak_qps;
        let fast = search.best_config(qps);
        let full = search.exhaustive(qps);
        let ft = fast.predicted_throughput;
        let xt = full.predicted_throughput;
        // The fast path restricts itself to minimal-LS candidates, so it
        // may be slightly below the oracle but must stay within 10%.
        assert!(ft >= 0.9 * xt, "fast {ft} vs exhaustive {xt}");
        assert!(full.stats.model_calls > fast.stats.model_calls * 5);
    }

    #[test]
    fn parallel_exhaustive_matches_serial() {
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        // One worker runs every C1 slice on the caller; two and three
        // split them into different chunks. Each must reduce to the
        // serial sweep's answer and query count.
        for frac in [0.25, 0.5] {
            let qps = frac * env.ls().params.peak_qps;
            let ser = search.exhaustive_serial(qps);
            for workers in 1..=3 {
                let par = rayon::with_num_threads(workers, || search.exhaustive(qps));
                assert_eq!(par.best, ser.best, "worker count {workers}");
                assert_eq!(par.stats.candidates, ser.stats.candidates);
                assert_eq!(par.stats.model_calls, ser.stats.model_calls);
                assert_eq!(
                    par.predicted_throughput.to_bits(),
                    ser.predicted_throughput.to_bits(),
                    "worker count {workers}"
                );
            }
        }
    }

    #[test]
    fn warm_start_matches_cold_search_quality() {
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        let peak = env.ls().params.peak_qps;
        let prev_qps = 0.30 * peak;
        let prev = search.best_config(prev_qps).best.unwrap();
        // 10% drift: well inside the warm window.
        let qps = 0.33 * peak;
        let warm = search.best_config_warm(qps, Some((&prev, prev_qps)));
        let cold = search.best_config(qps);
        let wcfg = warm.best.expect("warm search must find a config");
        assert!(wcfg.validate(env.spec()).is_ok());
        assert!(p.feasible(&wcfg, env.spec(), qps, env.budget_w()));
        // The warm window contains the cold optimum's neighbourhood, so
        // quality must match the full scan closely.
        assert!(
            warm.predicted_throughput >= 0.95 * cold.predicted_throughput,
            "warm {} vs cold {}",
            warm.predicted_throughput,
            cold.predicted_throughput
        );
    }

    #[test]
    fn warm_start_falls_back_on_large_drift() {
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        let peak = env.ls().params.peak_qps;
        let prev_qps = 0.2 * peak;
        let prev = search.best_config(prev_qps).best.unwrap();
        // 250% drift: far past WARM_START_DRIFT → must behave exactly like
        // the cold search.
        let qps = 0.7 * peak;
        let warm = search.best_config_warm(qps, Some((&prev, prev_qps)));
        let cold = search.best_config(qps);
        assert_eq!(warm.best, cold.best);
        // And with no previous config at all, warm == cold trivially.
        let none = search.best_config_warm(qps, None);
        assert_eq!(none.best, cold.best);
    }

    #[test]
    fn stats_expose_cache_hits() {
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        let qps = 0.3 * env.ls().params.peak_qps;
        let first = search.best_config(qps);
        // ls_feasible counts two queries per memoized verdict, so lookups
        // are bounded by (not equal to) the query count.
        assert!(first.stats.cache_hits + first.stats.cache_misses <= first.stats.model_calls);
        assert!(first.stats.cache_misses > 0, "fresh predictor must compute");
        // A repeated identical search is answered almost entirely from the
        // memo cache.
        let second = search.best_config(qps);
        assert!(
            second.stats.cache_misses == 0,
            "repeat search recomputed {} queries",
            second.stats.cache_misses
        );
        assert!(second.stats.cache_hits > 0);
    }

    #[test]
    fn impossible_load_yields_none() {
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        // 5× peak load cannot be served even by the whole node.
        let out = search.best_config(5.0 * env.ls().params.peak_qps);
        assert!(out.best.is_none());
        assert_eq!(out.predicted_throughput, 0.0);
    }

    #[test]
    fn tighter_budget_never_increases_throughput() {
        let (env, p) = setup();
        let qps = 0.3 * env.ls().params.peak_qps;
        let normal = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        )
        .best_config(qps);
        let tight = ConfigSearch::new(
            &p,
            env.spec().clone(),
            0.85 * env.budget_w(),
            SearchParams::default(),
        )
        .best_config(qps);
        assert!(tight.predicted_throughput <= normal.predicted_throughput + 1e-9);
    }

    #[test]
    fn pruned_is_bit_identical_to_latticed_oracle() {
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        for frac in [0.15, 0.3, 0.5, 0.8] {
            let qps = frac * env.ls().params.peak_qps;
            let full = search.exhaustive_latticed(qps);
            let pruned = search.pruned(qps);
            assert_eq!(pruned.best, full.best, "config mismatch at frac {frac}");
            assert_eq!(
                pruned.predicted_throughput.to_bits(),
                full.predicted_throughput.to_bits(),
                "throughput bits differ at frac {frac}"
            );
            // The engine must do strictly less work than the unpruned
            // envelope sweep, proven via stats not wall time.
            assert!(
                full.stats.candidates > pruned.stats.candidates,
                "frac {frac}: latticed oracle {} vs pruned {} candidates",
                full.stats.candidates,
                pruned.stats.candidates
            );
            assert!(
                pruned.stats.pruned_candidates > 0,
                "pruning must actually fire"
            );
            // Zero virtual model calls in the sweep (the first iteration
            // may build slabs through uncounted raw paths).
            assert_eq!(pruned.stats.model_calls, 0, "inner loop hit the models");
        }
    }

    #[test]
    fn pruned_matches_live_oracle_at_slab_centers() {
        let (env, p) = setup();
        let params = SearchParams::default();
        let search = ConfigSearch::new(&p, env.spec().clone(), env.budget_w(), params);
        let slabs = p.ls_slabs(env.spec(), params.power_load_headroom);
        // At a slab center the bracket degenerates and every envelope
        // value equals the live model call it was flattened from, so the
        // latticed engine must reproduce the live oracle bit for bit.
        for bucket in [8u64, 16, 32, 48] {
            let qps = slabs.center(bucket);
            let live = search.exhaustive_serial(qps);
            let pruned = search.pruned(qps);
            assert_eq!(pruned.best, live.best, "config mismatch at bucket {bucket}");
            assert_eq!(
                pruned.predicted_throughput.to_bits(),
                live.predicted_throughput.to_bits(),
                "throughput bits differ at bucket {bucket}"
            );
        }
    }

    #[test]
    fn pruned_reuses_frontier_cache_across_intervals() {
        let (env, p) = setup();
        let frontiers = crate::cache::FrontierCache::default();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        )
        .with_frontiers(&frontiers);
        let qps = 0.4 * env.ls().params.peak_qps;
        let first = search.pruned(qps);
        assert_eq!(first.stats.frontier_reuses, 0);
        assert_eq!(frontiers.len(), 1);
        // The next interval at the same load is answered from the memo.
        let second = search.pruned(qps);
        assert_eq!(second.stats.frontier_reuses, 1);
        assert_eq!(second.best, first.best);
        // A budget change is a different key: the search sweeps again
        // and still returns exactly the envelope oracle's answer.
        let relaxed = ConfigSearch::new(
            &p,
            env.spec().clone(),
            1.1 * env.budget_w(),
            SearchParams::default(),
        )
        .with_frontiers(&frontiers);
        let third = relaxed.pruned(qps);
        assert_eq!(third.stats.frontier_reuses, 0);
        let oracle = relaxed.exhaustive_latticed(qps);
        assert_eq!(third.best, oracle.best);
        assert_eq!(frontiers.len(), 2);
        assert_eq!(frontiers.reuses(), 1);
    }

    #[test]
    fn pruned_incremental_fast_path_reuses_parked_state() {
        let (env, p) = setup();
        let frontiers = crate::cache::FrontierCache::default();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        )
        .with_frontiers(&frontiers);
        // Both loads sit strictly inside the same slab bracket, so the
        // repeat cannot cross a bucket boundary.
        let slabs = p.ls_slabs(env.spec(), SearchParams::default().power_load_headroom);
        let q = slabs.quantum();
        let qps = slabs.center(26) + 0.3 * q;
        let first = search.pruned(qps);
        assert_eq!(first.stats.frontier_reuses, 0);
        // A different load in the same bracket answers from the memo:
        // identical outcome, zero candidates evaluated, nothing pruned.
        let second = search.pruned(qps + 0.2 * q);
        assert_eq!(second.best, first.best);
        assert_eq!(
            second.predicted_throughput.to_bits(),
            first.predicted_throughput.to_bits()
        );
        assert_eq!(second.stats.candidates, 0);
        assert_eq!(second.stats.pruned_candidates, 0);
        assert_eq!(second.stats.frontier_reuses, 1);
    }

    #[test]
    fn pruned_incremental_one_bucket_walk_is_bit_identical() {
        let (env, p) = setup();
        let params = SearchParams::default();
        let frontiers = crate::cache::FrontierCache::default();
        let warm = ConfigSearch::new(&p, env.spec().clone(), env.budget_w(), params)
            .with_frontiers(&frontiers);
        let cold = ConfigSearch::new(&p, env.spec().clone(), env.budget_w(), params);
        let slabs = p.ls_slabs(env.spec(), params.power_load_headroom);
        let q = slabs.quantum();
        // A QPS walk whose every step moves the bracket by at most one
        // bucket and keeps coming back: the memoized engine answers the
        // revisits, the stateless one re-sweeps — both must agree bit for
        // bit, and with the envelope oracle.
        let mut qps = 12.3 * q;
        let mut memo_hits = 0u64;
        for delta in [0.8, -0.5, 1.0, 0.9, -1.0, 0.4, -0.9, 0.7] {
            qps += delta * q;
            let memo = warm.pruned(qps);
            let full = cold.pruned(qps);
            assert_eq!(memo.best, full.best, "config mismatch at qps {qps}");
            assert_eq!(
                memo.predicted_throughput.to_bits(),
                full.predicted_throughput.to_bits(),
                "throughput bits differ at qps {qps}"
            );
            let oracle = cold.exhaustive_latticed(qps);
            assert_eq!(memo.best, oracle.best);
            memo_hits += memo.stats.frontier_reuses;
        }
        assert!(
            memo_hits >= 3,
            "the walk revisits brackets, so the memo must answer ({memo_hits}/8)"
        );
    }

    #[test]
    fn concurrent_searches_report_their_serial_stats() {
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        let peak = env.ls().params.peak_qps;
        let (qa, qb) = (0.3 * peak, 0.55 * peak);
        let counts = |s: SearchStats| (s.model_calls, s.cache_hits, s.cache_misses, s.candidates);
        // Warm the memo cache first, so every later run is all hits and
        // its serial counts are a fixed point.
        let _ = (search.exhaustive(qa), search.best_config(qb));
        let serial_a = counts(search.exhaustive(qa).stats);
        let serial_b = counts(search.best_config(qb).stats);
        assert!(serial_a.0 > 0 && serial_b.0 > 0);
        // Two threads now query the same predictor at once (the parallel
        // exhaustive sweep fans out further); each must still count
        // exactly its own queries.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                start.wait();
                (0..10)
                    .map(|_| counts(search.exhaustive(qa).stats))
                    .collect::<Vec<_>>()
            });
            let b = scope.spawn(|| {
                start.wait();
                (0..200)
                    .map(|_| counts(search.best_config(qb).stats))
                    .collect::<Vec<_>>()
            });
            for got in a.join().unwrap() {
                assert_eq!(got, serial_a, "exhaustive stats leaked");
            }
            for got in b.join().unwrap() {
                assert_eq!(got, serial_b, "heuristic stats leaked");
            }
        });
    }

    /// The cell order as the pruned engine computed it on every bracket
    /// memo miss before [`ModelTables`] memoized it.
    fn reference_cell_order(
        tables: &ModelTables,
        spec: &NodeSpec,
        budget: f64,
        max_c1: u32,
        max_l1: u32,
    ) -> (Vec<(u64, u32, u32)>, u64) {
        let mut cells = Vec::new();
        let mut hopeless = 0u64;
        for c1 in 1..=max_c1 {
            let c2 = spec.total_cores - c1;
            let mut bounds: Vec<f64> = Vec::new();
            for f2 in 0..=spec.max_freq_level() {
                if tables.static_power_w() + tables.be_power_w(c2, f2) > budget {
                    continue;
                }
                let row = tables.be_throughput_row(c2, f2);
                if bounds.is_empty() {
                    bounds.extend_from_slice(row);
                } else {
                    for (b, &t) in bounds.iter_mut().zip(row) {
                        *b = b.max(t);
                    }
                }
            }
            if bounds.is_empty() {
                hopeless += u64::from(max_l1);
                continue;
            }
            for l1 in 1..=max_l1 {
                let bound = bounds[(spec.total_llc_ways - l1 - 1) as usize] + 0.0;
                cells.push((bound, c1, l1));
            }
        }
        cells.sort_by_key(|&(bound, c1, l1)| (Reverse(bound.to_bits()), c1, l1));
        (bound_bits(&cells), hopeless)
    }

    fn bound_bits(cells: &[(f64, u32, u32)]) -> Vec<(u64, u32, u32)> {
        cells
            .iter()
            .map(|&(b, c1, l1)| (b.to_bits(), c1, l1))
            .collect()
    }

    #[test]
    fn memoized_cell_order_equals_a_fresh_computation() {
        let (env, mut p) = setup();
        let spec = env.spec().clone();
        let params = SearchParams::default();
        let guard = 1.0 - params.power_guard;
        let default_limits = (
            spec.total_cores - params.min_be_cores,
            spec.total_llc_ways - params.min_be_ways,
        );
        let limits = [default_limits, (12, 15), (spec.total_cores - 1, 1)];
        // Guarded budgets from 0.6 to 1.0 of the node budget, plus one
        // below static power, where no cell has an affordable F2.
        let mut budgets: Vec<f64> = [0.6, 0.7, 0.8, 0.9, 0.95, 1.0]
            .iter()
            .map(|f| f * env.budget_w() * guard)
            .collect();
        let hopeless_budget = 0.5 * env.static_power_w();
        budgets.push(hopeless_budget);
        let check = |tables: &ModelTables| {
            let mut orders = Vec::new();
            for &(max_c1, max_l1) in &limits {
                for &budget in &budgets {
                    let first = tables.cell_order(budget, max_c1, max_l1);
                    let (cells, hopeless) =
                        reference_cell_order(tables, &spec, budget, max_c1, max_l1);
                    assert_eq!(
                        bound_bits(&first.cells),
                        cells,
                        "budget {budget}, limits {max_c1}/{max_l1}"
                    );
                    assert_eq!(first.hopeless, hopeless);
                    if budget == hopeless_budget {
                        assert!(cells.is_empty());
                        assert_eq!(hopeless, u64::from(max_c1 * max_l1));
                    }
                    // The second read is the memo's entry.
                    assert!(Arc::ptr_eq(
                        &first,
                        &tables.cell_order(budget, max_c1, max_l1)
                    ));
                    orders.push((cells, hopeless));
                }
            }
            orders
        };
        let tables = p.model_tables(&spec);
        let before = check(&tables);
        // Default limits at the full guarded budget: some cell is affordable.
        assert!(before[5].1 < u64::from(default_limits.0 * default_limits.1));
        // Churning budgets wipe the bounded memo; orders stay exact.
        for i in 0..100 {
            let budget = env.budget_w() * (0.5 + 0.005 * f64::from(i));
            let order = tables.cell_order(budget, default_limits.0, default_limits.1);
            let (cells, _) =
                reference_cell_order(&tables, &spec, budget, default_limits.0, default_limits.1);
            assert_eq!(bound_bits(&order.cells), cells);
        }
        assert_eq!(check(&tables), before);
        // A retrain gets new tables, whose orders come from the new models.
        let d = Profiler::new(
            &env,
            ProfilerConfig {
                ls_samples_per_load: 120,
                ls_load_fractions: vec![0.15, 0.3, 0.5, 0.8],
                be_samples: 300,
                seed: 11,
            },
        )
        .collect()
        .unwrap();
        p.retrain(&d).unwrap();
        let retrained = p.model_tables(&spec);
        assert!(!Arc::ptr_eq(&tables, &retrained));
        assert_ne!(check(&retrained), before, "the retrain changed no order");
    }

    #[test]
    fn pruned_impossible_load_yields_none() {
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        let qps = 5.0 * env.ls().params.peak_qps;
        let pruned = search.pruned(qps);
        let full = search.exhaustive_serial(qps);
        let latticed = search.exhaustive_latticed(qps);
        assert_eq!(pruned.best, full.best);
        assert_eq!(pruned.best, latticed.best);
        assert!(pruned.best.is_none());
        assert_eq!(pruned.predicted_throughput, 0.0);
    }

    #[test]
    fn warm_break_never_misses_window_optimum() {
        // Satellite check for the early-break rule: breaking out of the C1
        // scan must never skip a window point that would have won. The old
        // rule broke as soon as any candidate ran BE at top frequency; a
        // larger C1 can still win because it lowers L1* and frees LLC ways
        // for BE. The fixed rule also requires the table bound over all
        // remaining slices to be <= the current best.
        let (env, p) = setup();
        let search = ConfigSearch::new(
            &p,
            env.spec().clone(),
            env.budget_w(),
            SearchParams::default(),
        );
        let peak = env.ls().params.peak_qps;
        for frac in [0.15, 0.25, 0.4, 0.55, 0.7, 0.85] {
            let qps = frac * peak;
            let (with_break, _) = search.scan_c1_window(1, search.max_c1(), qps);
            // Reference: the same window scanned to the end, no break.
            let mut no_break: Option<(PairConfig, f64)> = None;
            for c1 in 1..=search.max_c1() {
                if let Some((cfg, t)) = search.candidate_for_c1(c1, qps) {
                    if no_break.as_ref().is_none_or(|(_, bt)| t > *bt) {
                        no_break = Some((cfg, t));
                    }
                }
            }
            assert_eq!(
                with_break.map(|(c, t)| (c, t.to_bits())),
                no_break.map(|(c, t)| (c, t.to_bits())),
                "early break lost the optimum at frac {frac}"
            );
        }
    }
}
