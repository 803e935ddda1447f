//! `perfbench` — the repository benchmark: four workloads through the
//! public `Fleet`/`RunBuilder` entry points, nine end-to-end metrics from
//! an untraced run, and a per-layer ledger from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-diurnal-pruned --seed 42 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` in
//! this directory for the workloads, metrics and checks.

mod cases;
mod ledger;
mod measure;
mod util;

use cases::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <fleet-diurnal-pruned|fleet-diurnal-heuristic|\
fleet-budget-placement|node-faults> --seed <n> (--seconds <n> --trace <0|1> | --setups <n>)";

struct Args {
    workload: Workload,
    seed: u64,
    mode: Mode,
}

enum Mode {
    /// The benchmark proper: `--seconds` and `--trace`.
    Measure { seconds: u64, trace: bool },
    /// `--setups n`: time `n` set-ups and print the fastest (seconds).
    /// The untraced run spawns this to sample set-up across processes.
    SetupProbe(usize),
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut setups) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--setups" => setups = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mode = match (seconds, trace, setups) {
        (Some(seconds), Some(trace), None) => Mode::Measure { seconds, trace },
        (None, None, Some(n)) => Mode::SetupProbe(n),
        _ => return Err("give --seconds and --trace, or --setups alone".into()),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        mode,
    })
}

/// Caps the rayon shim at the machine's CPU count (the shim spawns
/// scoped threads per parallel iterator and reads this variable each
/// time). Runs before any thread exists.
fn pin_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .map_or(nproc, |n| n.min(nproc));
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    (nproc, threads)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (nproc, threads) = pin_threads();
    let outcome = cases::case(args.workload, args.seed).and_then(|case| match args.mode {
        Mode::SetupProbe(n) => measure::fastest_setup(&case, n).map(|s| println!("{s}")),
        Mode::Measure { seconds, trace } => {
            println!(
                "perfbench {} seed {} seconds {seconds} trace {} nproc {nproc} threads {threads}",
                args.workload.name(),
                args.seed,
                u8::from(trace)
            );
            let report = if trace {
                ledger::run(&case)
            } else {
                measure::run(args.workload, args.seed, &case, seconds)
            };
            report.map(|r| r.print())
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
