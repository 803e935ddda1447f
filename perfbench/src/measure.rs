//! The untraced run: the nine end-to-end metrics and the output checks.
//!
//! Each repetition builds the system from nothing and runs it, so lazy
//! slab builds and prediction-cache fills are paid every time, as they
//! are by every real invocation.

use crate::cases::{Case, FleetCase, Geometry, NodeCase, Workload, PAIR};
use crate::util::{peak_rss_mib, ratio, timed, Metric, Report, SplitMix64};
use std::process::Command;
use std::time::{Duration, Instant};
use sturgeon::cluster::NodeResult;
use sturgeon::prelude::*;

/// Set-ups timed by each fresh process spawned for `setup_s`.
const SETUPS_PER_PROCESS: usize = 3;
/// Runs needed to check that simulated metrics repeat exactly.
const MIN_REPS: usize = 2;
/// Decision loads re-solved by the exhaustive oracle: a window of
/// consecutive intervals (exercises incremental re-search) plus
/// scattered intervals (exercises full sweeps).
const RESOLVE_WINDOW: u64 = 16;
const RESOLVE_SCATTER: u64 = 8;

/// The simulated end-to-end metrics (identical across repeats of a seed).
struct Simulated {
    qos_rate: f64,
    worst_node_qos: f64,
    be_throughput: f64,
    overload_frac: f64,
    /// Simulated operations that failed (node-faults: actuations).
    failed_frac: f64,
}

/// What the repetitions of one workload produced.
struct Repeated<R> {
    /// Fastest set-up of each fresh probe process.
    setups: Vec<f64>,
    /// Set-up plus run seconds of each repetition.
    walls: Vec<f64>,
    /// Run-phase seconds of each repetition, less the VM's steal.
    runs: Vec<f64>,
    /// Steal time subtracted from each run phase (seconds).
    stolen: Vec<f64>,
    per_run: u64,
    /// The first repetition's result (every later one must equal it).
    first: R,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl<R> Repeated<R> {
    /// Host times are the fastest repetition: the development host has
    /// slow phases (1.5-3x, lasting seconds) from co-tenant load and VM
    /// steal, and the fastest repetition is the statistic they move least.
    fn report(&self, sim: &Simulated) -> Report {
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        // A run that errors or fails a check counts as failed operations
        // on top of whatever the simulation itself failed.
        let failed_frac = sim.failed_frac + ratio(self.failed as f64, self.attempted as f64);
        eprintln!(
            "{} runs; walls {:.3?} s; steal subtracted {:.3?} s",
            self.walls.len(),
            self.walls,
            self.stolen
        );
        Report {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                Metric::new("setup_s", "s", fastest(&self.setups)),
                Metric::new("wall_s", "s", fastest(&self.walls)),
                Metric::new(
                    "node_intervals_per_s",
                    "1/s",
                    self.per_run as f64 / fastest(&self.runs),
                ),
                Metric::new("peak_rss_mib", "MiB", peak_rss_mib().unwrap_or(0.0)),
                Metric::new("qos_rate", "ratio", sim.qos_rate),
                Metric::new("worst_node_qos", "ratio", sim.worst_node_qos),
                Metric::new("be_throughput", "machines", sim.be_throughput),
                Metric::new("in_cap_frac", "ratio", 1.0 - sim.overload_frac),
                Metric::new("ok_frac", "ratio", 1.0 - failed_frac),
            ],
        }
    }
}

/// Builds and runs the workload until `window` has passed (at least
/// [`MIN_REPS`] times), timing set-up and run of each repetition; before
/// each one, `probe` samples set-up in a fresh process. A repetition
/// that errors, or whose `check` reports problems, counts its `per_run`
/// operations as failed; `check` sees the first result too.
fn repeat<S, R>(
    window: Duration,
    per_run: u64,
    mut probe: impl FnMut() -> Result<f64, String>,
    mut build: impl FnMut() -> Result<S, SturgeonError>,
    mut run: impl FnMut(S) -> Result<R, SturgeonError>,
    mut check: impl FnMut(&R, Option<&R>) -> Vec<String>,
) -> Result<Repeated<R>, String> {
    let start = Instant::now();
    let (mut setups, mut walls, mut runs, mut stolen) = (vec![], vec![], vec![], vec![]);
    let (mut first, mut correct, mut attempted, mut failed) = (None, true, 0u64, 0u64);
    while walls.len() < MIN_REPS || start.elapsed() < window {
        setups.push(probe()?);
        attempted += per_run;
        let (built, setup_s) = timed(&mut build);
        let outcome = built.and_then(|system| {
            let before = steal_per_cpu();
            let (r, run_s) = timed(|| run(system));
            // Steal is time the host took away, not time the run cost.
            r.map(|r| (r, run_s, steal_since(&before)))
        });
        let (r, run_s, steal) = match outcome {
            Ok(v) => v,
            Err(e) => {
                eprintln!("run failed: {e}");
                correct = false;
                failed += per_run;
                if walls.is_empty() && attempted >= MIN_REPS as u64 * per_run {
                    return Err(e.to_string());
                }
                continue;
            }
        };
        walls.push(setup_s + run_s - steal);
        runs.push(run_s - steal);
        stolen.push(steal);
        let problems = check(&r, first.as_ref());
        if !problems.is_empty() {
            eprintln!("output check failed: {}", problems.join("; "));
            correct = false;
            failed += per_run;
        }
        first.get_or_insert(r);
    }
    Ok(Repeated {
        setups,
        walls,
        runs,
        stolen,
        per_run,
        first: first.ok_or("no run completed")?,
        correct,
        attempted,
        failed,
    })
}

pub fn run(workload: Workload, seed: u64, case: &Case, seconds: u64) -> Result<Report, String> {
    let window = Duration::from_secs(seconds);
    let probe = || setup_probe(workload, seed);
    match case {
        Case::Fleet(c) => fleet(c, window, probe),
        Case::Node(c) => node(c, window, probe),
    }
}

/// CPU steal the VM has reported so far, per vCPU (seconds), from the
/// `steal` column of `/proc/stat`; empty where that is unavailable.
fn steal_per_cpu() -> Vec<f64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .filter_map(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        // `/proc/stat` counts in USER_HZ, 100 on every mainstream Linux target.
        .map(|jiffies| jiffies / 100.0)
        .collect()
}

/// The most steal any one vCPU suffered since `before`: a stolen vCPU
/// holds up a single-threaded run, and a parallel run waits for it.
fn steal_since(before: &[f64]) -> f64 {
    steal_per_cpu()
        .iter()
        .zip(before)
        .map(|(now, then)| now - then)
        .fold(0.0, f64::max)
}

/// One `setup_s` sample. Set-up cost varies between processes running
/// the same code (on the development host it is bimodal, ~40% apart),
/// so it is sampled the way every real invocation pays it: this spawns
/// the benchmark itself in `--setups` mode, waits for it, and returns
/// the fastest of its set-ups.
fn setup_probe(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--setups", &SETUPS_PER_PROCESS.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    match String::from_utf8_lossy(&out.stdout).trim().parse::<f64>() {
        Ok(s) if out.status.success() => Ok(s),
        _ => Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Times `n` set-ups in this process and returns the fastest (seconds).
pub fn fastest_setup(case: &Case, n: usize) -> Result<f64, String> {
    let mut fastest = f64::INFINITY;
    for _ in 0..n {
        let s = match case {
            Case::Fleet(c) => {
                let (fleet, s) = timed(|| c.build());
                fleet.map_err(|e| e.to_string())?;
                s
            }
            Case::Node(c) => timed(|| c.build()).1,
        };
        fastest = fastest.min(s);
    }
    Ok(fastest)
}

fn fleet(
    case: &FleetCase,
    window: Duration,
    probe: impl FnMut() -> Result<f64, String>,
) -> Result<Report, String> {
    let mut reps = repeat(
        window,
        case.node_intervals(),
        probe,
        || case.build(),
        |mut fleet| fleet.run_regional(&case.profiles, case.intervals),
        |r, first| {
            let mut problems = fleet_checks(case, r);
            if first.is_some_and(|f| !same_fleet(f, r)) {
                problems.push("simulated metrics differ across repeats of one seed".into());
            }
            problems
        },
    )?;
    let r = &reps.first;
    eprintln!(
        "{} searches, {} trainings, {} table builds",
        r.searches, r.trainings, r.table_builds
    );
    let sim = Simulated {
        qos_rate: r.qos_rate,
        worst_node_qos: r.nodes.iter().map(|n| n.qos_rate).fold(1.0, f64::min),
        be_throughput: r.total_be_throughput,
        overload_frac: r.nodes.iter().map(|n| n.overload_fraction).sum::<f64>()
            / r.nodes.len() as f64,
        failed_frac: 0.0,
    };
    if case.pruned() {
        let (tried, mismatched) = resolve_check(case)?;
        eprintln!(
            "re-solved {tried} decision loads with exhaustive_latticed: {mismatched} mismatches"
        );
        reps.attempted += tried;
        reps.failed += mismatched;
        reps.correct &= mismatched == 0;
    }
    Ok(reps.report(&sim))
}

/// Per-run invariants: shared training paid once, tables built at most
/// once, one finite summary per node.
fn fleet_checks(case: &FleetCase, r: &FleetResult) -> Vec<String> {
    let mut problems = Vec::new();
    if r.trainings != 1 {
        problems.push(format!("{} trainings, expected 1", r.trainings));
    }
    if r.table_builds > 1 {
        problems.push(format!("{} table builds, expected <= 1", r.table_builds));
    }
    if r.nodes.len() != case.nodes {
        problems.push(format!(
            "{} node results for {} nodes",
            r.nodes.len(),
            case.nodes
        ));
    }
    let in_unit = |x: f64| (0.0..=1.0).contains(&x);
    if !in_unit(r.qos_rate)
        || !r.total_be_throughput.is_finite()
        || r.nodes
            .iter()
            .any(|n| !in_unit(n.qos_rate) || !in_unit(n.overload_fraction))
    {
        problems.push("QoS or overload outside [0, 1], or non-finite throughput".into());
    }
    problems
}

/// Bitwise equality of two node summaries.
pub fn same_node(a: &NodeResult, b: &NodeResult) -> bool {
    a.node == b.node
        && a.qos_rate.to_bits() == b.qos_rate.to_bits()
        && a.mean_be_throughput.to_bits() == b.mean_be_throughput.to_bits()
        && a.overload_fraction.to_bits() == b.overload_fraction.to_bits()
        && a.mean_power_w.to_bits() == b.mean_power_w.to_bits()
        && a.safe_mode_entries == b.safe_mode_entries
}

fn same_fleet(a: &FleetResult, b: &FleetResult) -> bool {
    a.qos_rate.to_bits() == b.qos_rate.to_bits()
        && a.total_be_throughput.to_bits() == b.total_be_throughput.to_bits()
        && a.mean_fleet_power_w.to_bits() == b.mean_fleet_power_w.to_bits()
        && a.searches == b.searches
        && a.fault_counters == b.fault_counters
        && (
            a.budget_reclaims,
            a.migrations,
            a.evictions,
            a.assignments,
            a.set_scores,
        ) == (
            b.budget_reclaims,
            b.migrations,
            b.evictions,
            b.assignments,
            b.set_scores,
        )
        && a.nodes.len() == b.nodes.len()
        && a.nodes.iter().zip(&b.nodes).all(|(x, y)| same_node(x, y))
}

/// The shard-mean load a controller decides on at interval `t`, computed
/// the way the fleet computes it (even dispatch: every node of a region
/// gets the same share, and the shard mean sums those shares in node
/// order).
fn decision_load(
    case: &FleetCase,
    geometry: &Geometry,
    peak_per_node: f64,
    shard: usize,
    t: u64,
) -> f64 {
    let region = geometry
        .regions
        .iter()
        .position(|&(lo, hi)| (lo..hi).contains(&shard))
        .expect("every shard sits in a region");
    let (lo, hi) = geometry.regions[region];
    let peak = peak_per_node * geometry.region_nodes(region) as f64;
    let total = case.profiles[region].qps_at(t as f64, peak);
    let len = geometry.shard_lens[shard];
    let per_node = total * (1.0 / (hi - lo) as f64) / len as f64;
    let mut sum = 0.0;
    for _ in 0..len {
        sum += per_node;
    }
    sum / len as f64
}

/// Re-solves a seeded sample of the run's decision loads with the
/// exhaustive latticed oracle and counts disagreements with the pruned
/// engine (driven through a frontier cache, as the controller drives
/// it). Budget workloads also re-solve under their cut fractions.
fn resolve_check(case: &FleetCase) -> Result<(u64, u64), String> {
    let setup = ExperimentSetup::new(PAIR, case.seed);
    let predictor = match case.params.scoring.as_ref().filter(|s| s.cold_start) {
        Some(sp) => {
            train_cold_start_predictor(&setup, sp)
                .map_err(|e| e.to_string())?
                .predictor
        }
        None => setup.train_default_predictor(),
    };
    let geometry = Geometry::new(case.nodes, case.params.shards, case.params.regions);
    let mut rng = SplitMix64::new(case.seed ^ 0x5EED_0F0A_C1E5);
    let shards = geometry.shard_lens.len() as u64;
    let intervals = u64::from(case.intervals);
    let start = rng.below(intervals.saturating_sub(RESOLVE_WINDOW).max(1));
    let mut points: Vec<(u64, usize)> = (start..(start + RESOLVE_WINDOW).min(intervals))
        .map(|t| (t, 0))
        .collect();
    for _ in 0..RESOLVE_SCATTER {
        points.push((rng.below(intervals), rng.below(shards) as usize));
    }
    points.sort_unstable();
    let mut budgets = vec![1.0];
    if let Some(b) = &case.params.budget {
        budgets.extend(b.events.iter().filter_map(|e| match e.cap {
            BudgetCap::FractionOfNominal(f) => Some(f),
            BudgetCap::Watts(_) => None,
        }));
    }
    let search = case.params.controller.search;
    let (mut tried, mut mismatched) = (0u64, 0u64);
    for frac in budgets {
        let budget_w = setup.budget_w() * frac;
        let frontiers = FrontierCache::default();
        for &(t, shard) in &points {
            let qps = decision_load(case, &geometry, setup.peak_qps(), shard, t);
            let searcher = || ConfigSearch::new(&predictor, setup.spec().clone(), budget_w, search);
            let pruned = searcher().with_frontiers(&frontiers).pruned(qps);
            let oracle = searcher().exhaustive_latticed(qps);
            tried += 1;
            if pruned.best != oracle.best
                || pruned.predicted_throughput.to_bits() != oracle.predicted_throughput.to_bits()
            {
                eprintln!(
                    "pruned/oracle mismatch at t={t} shard={shard} qps={qps} budget={budget_w}"
                );
                mismatched += 1;
            }
        }
    }
    Ok((tried, mismatched))
}

fn node(
    case: &NodeCase,
    window: Duration,
    probe: impl FnMut() -> Result<f64, String>,
) -> Result<Report, String> {
    let spec = ExperimentSetup::new(PAIR, case.seed).spec().clone();
    let reps = repeat(
        window,
        u64::from(case.intervals),
        probe,
        || Ok(case.build()),
        |(setup, controller, predictor)| {
            let r = case.run(&setup, controller)?;
            Ok((r, predictor.table_builds()))
        },
        |(r, table_builds), first| {
            let mut problems = Vec::new();
            if *table_builds > 1 {
                problems.push(format!("{table_builds} table builds, expected <= 1"));
            }
            if r.log.len() != case.intervals as usize
                || r.log
                    .samples()
                    .iter()
                    .any(|s| s.config.validate(&spec).is_err())
            {
                problems.push("log length or an installed configuration is invalid".into());
            }
            if first.is_some_and(|(f, _)| !same_run(f, r)) {
                problems.push("simulated metrics differ across repeats of one seed".into());
            }
            problems
        },
    )?;
    let r = &reps.first.0;
    eprintln!("faults {:?}", r.faults);
    let sim = Simulated {
        qos_rate: r.qos_rate,
        worst_node_qos: r.qos_rate,
        be_throughput: r.mean_be_throughput,
        overload_frac: r.overload_fraction,
        failed_frac: r.faults.failed_actuations as f64 / f64::from(case.intervals),
    };
    Ok(reps.report(&sim))
}

/// Bitwise equality of two node runs (telemetry, audit and faults).
pub fn same_run(a: &RunResult, b: &RunResult) -> bool {
    a.qos_rate.to_bits() == b.qos_rate.to_bits()
        && a.mean_be_throughput.to_bits() == b.mean_be_throughput.to_bits()
        && a.overload_fraction.to_bits() == b.overload_fraction.to_bits()
        && a.faults == b.faults
        && a.log.samples() == b.log.samples()
        && a.audit.entries() == b.audit.entries()
}
