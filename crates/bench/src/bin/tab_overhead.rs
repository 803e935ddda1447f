//! §VII-E reproduction: the overhead accounting of Sturgeon's predictor
//! and balancer.
//!
//! The paper's arithmetic on its platform (20 cores × 10 frequencies × 20
//! ways × 10 frequencies = 40 000 configurations, 4 models per check,
//! 0.04 ms per model call):
//!
//! * exhaustive search: 40 000 × 4 × 0.04 ms ≈ **6.4 s** — unusable at a
//!   1 s control interval;
//! * binary search: ≤ (16 + 11·19) model-call *rounds* ≈ **36 ms**, and at
//!   most ~120 ms end-to-end in their implementation;
//! * balancer: 3 candidate configurations ≈ **0.48 ms**.
//!
//! This binary measures the same quantities on our implementation: model
//! calls consumed and wall-clock time for the heuristic binary search,
//! the exhaustive oracle, and the latticed frontier-pruned engine — cold
//! (no memo attached) and warm (answered from the bracket memo) — plus
//! the per-prediction latency. Every engine is exercised once
//! untimed before measurement so the rows report steady state rather
//! than first-call lazy-initialization (table and slab builds), and each
//! row runs a repetition loop whose p50/p95/p99 per-search latencies are
//! reported alongside the single-shot stats. Pass `--json PATH` to write
//! the row summary as JSON (the committed `BENCH_search.json` numbers
//! come from this).

use std::time::Instant;
use sturgeon::prelude::*;
use sturgeon::report::OverheadSummary;

/// Runs `search` `reps` times, recording every search's stats in `ran`
/// and returning the last outcome and the sorted per-search latencies
/// in microseconds.
fn timed_reps(
    ran: &mut Vec<SearchStats>,
    reps: usize,
    mut search: impl FnMut() -> SearchOutcome,
) -> (SearchOutcome, Vec<f64>) {
    let mut durations_us: Vec<f64> = Vec::with_capacity(reps);
    let mut last = search();
    ran.push(last.stats);
    durations_us.push(last.stats.duration.as_secs_f64() * 1e6);
    for _ in 1..reps {
        last = search();
        ran.push(last.stats);
        durations_us.push(last.stats.duration.as_secs_f64() * 1e6);
    }
    durations_us.sort_by(f64::total_cmp);
    (last, durations_us)
}

fn main() {
    let json_path = {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut path = None;
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--json" => {
                    path = argv.get(i + 1).cloned();
                    i += 2;
                }
                other => {
                    eprintln!("unknown flag {other} (usage: tab_overhead [--json PATH])");
                    std::process::exit(2);
                }
            }
        }
        path
    };

    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
    let setup = ExperimentSetup::new(pair, 42);
    let predictor = setup.train_default_predictor();
    println!("§VII-E — search and prediction overhead (memcached+raytrace)\n");
    println!(
        "configuration space: {} candidates (paper: 40 000)",
        setup.spec().config_space_size()
    );

    // Per-prediction latency (paper: 0.04 ms per model).
    let reps = 20_000u64;
    let started = Instant::now();
    let mut sink = 0.0;
    for i in 0..reps {
        sink += predictor.be_throughput(1 + (i % 19) as u32, 1.2 + (i % 10) as f64 * 0.1, 10);
    }
    let per_pred_us = started.elapsed().as_secs_f64() * 1e6 / reps as f64;
    println!("per-prediction latency: {per_pred_us:.2} µs (paper: 40 µs/model) [sink {sink:.1}]");

    let fracs = [0.2, 0.35, 0.5, 0.8];
    let params = SearchParams::default();

    // Warm-up: drive every engine once at every measured load so the
    // lazy one-time builds (BE tables, QPS slabs, memo-cache fills) land
    // here and not in a measured row — the old binary@20% row read 55 ms
    // of first-call initialization against ~1 ms of steady state.
    // Every search the table runs, warm-up included, for the totals line.
    let mut ran: Vec<SearchStats> = Vec::new();
    let warmup = ConfigSearch::new(&predictor, setup.spec().clone(), setup.budget_w(), params);
    for frac in fracs {
        let qps = frac * setup.peak_qps();
        ran.push(warmup.best_config(qps).stats);
        ran.push(warmup.exhaustive(qps).stats);
        ran.push(warmup.pruned(qps).stats);
    }

    let mut summaries = Vec::new();
    for frac in fracs {
        let qps = frac * setup.peak_qps();
        let search = ConfigSearch::new(&predictor, setup.spec().clone(), setup.budget_w(), params);
        let (fast, fast_us) = timed_reps(&mut ran, 100, || search.best_config(qps));
        let (full, full_us) = timed_reps(&mut ran, 5, || search.exhaustive(qps));
        // Cold: no memo attached, so every repetition re-runs the
        // best-first search.
        let (pruned, pruned_us) = timed_reps(&mut ran, 200, || search.pruned(qps));
        let latticed = search.exhaustive_latticed(qps);
        ran.push(latticed.stats);
        // Warm: same slab bracket every time — after the first pass the
        // bracket memo answers.
        let frontiers = FrontierCache::default();
        let memoized = search.with_frontiers(&frontiers);
        ran.push(memoized.pruned(qps).stats);
        let (pruned_warm, warm_us) = timed_reps(&mut ran, 200, || memoized.pruned(qps));
        println!("\n-- load {:.0}% of peak --", frac * 100.0);
        let fast_row =
            OverheadSummary::from_stats(format!("binary@{:.0}%", frac * 100.0), &fast.stats)
                .with_percentiles(&fast_us);
        let full_row =
            OverheadSummary::from_stats(format!("exhaustive@{:.0}%", frac * 100.0), &full.stats)
                .with_percentiles(&full_us);
        let pruned_row =
            OverheadSummary::from_stats(format!("pruned@{:.0}%", frac * 100.0), &pruned.stats)
                .with_percentiles(&pruned_us);
        let warm_row = OverheadSummary::from_stats(
            format!("pruned-warm@{:.0}%", frac * 100.0),
            &pruned_warm.stats,
        )
        .with_percentiles(&warm_us);
        println!("{}  tput {:.3}", fast_row.row(), fast.predicted_throughput);
        println!("{}  tput {:.3}", full_row.row(), full.predicted_throughput);
        println!(
            "{}  tput {:.3}  (pruned {} cells, {} slices; envelope-oracle-equal: {})",
            pruned_row.row(),
            pruned.predicted_throughput,
            pruned.stats.pruned_candidates,
            pruned.stats.pruned_subspaces,
            pruned.best == latticed.best
        );
        println!(
            "{}  tput {:.3}  (memo hit: {})",
            warm_row.row(),
            pruned_warm.predicted_throughput,
            pruned_warm.stats.frontier_reuses == 1
        );
        println!(
            "speedup: binary {:.0}× fewer queries; pruned evaluates {:.0}× fewer candidates than exhaustive",
            full.stats.model_calls as f64 / fast.stats.model_calls.max(1) as f64,
            full.stats.candidates as f64 / pruned.stats.candidates.max(1) as f64,
        );
        let within_interval = fast.stats.duration.as_millis() < 1000;
        println!(
            "binary search fits the 1 s control interval: {}",
            if within_interval { "yes" } else { "NO" }
        );
        summaries.push(fast_row);
        summaries.push(full_row);
        summaries.push(pruned_row);
        summaries.push(warm_row);
    }

    let total = |count: fn(&SearchStats) -> u64| ran.iter().map(count).sum::<u64>();
    println!(
        "\nsearch totals: {} searches, {} queries, {} cache hits, {} cache misses",
        ran.len(),
        total(|s| s.model_calls),
        total(|s| s.cache_hits),
        total(|s| s.cache_misses)
    );
    let json = sturgeon::report::overhead_summary_json(&summaries);
    println!("\noverhead summary JSON:");
    println!("{json}");
    if let Some(path) = json_path {
        std::fs::write(&path, format!("{json}\n")).expect("write --json output");
        eprintln!("wrote {path}");
    }

    println!("\n=> the O(N log N) search replaces the paper's 6.4 s exhaustive sweep with a");
    println!("   millisecond-scale search, exactly the §VII-E argument; the latticed pruned");
    println!("   engine searches lazily filled slab envelopes best-first, with zero model");
    println!("   calls in the inner loop, and a load revisiting a solved slab bracket is");
    println!("   answered from the bracket memo.");
}
