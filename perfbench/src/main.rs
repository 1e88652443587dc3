//! The repository benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve-n100|solve-n40-batch|serve-open|proto-dynamics> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run ... -- --self-test     # metric math and count-repeat checks
//! cargo run ... -- --record        # re-record reference/*.tsv
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. Any correctness
//! failure exits non-zero. See `README.md` for workloads and metrics.

mod layers;
mod pool;
mod probes;
mod proto;
mod selftest;
mod serve;
mod solve;
mod stats;

use stats::{Metrics, Tally};

/// Set-ups per run, at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;
/// Set-ups repeat until they have taken this long in total. Over 0.5 s the
/// median `solve-n40-batch` set-up read 13–21 ms across runs; over 2 s,
/// 12.2–13.0 ms.
pub const SETUP_MIN_S: f64 = 2.0;

/// Times `setup` [`SETUP_REPEATS`] times, and more until the set-ups have
/// taken [`SETUP_MIN_S`], handing each result to the untimed `teardown`;
/// returns each set-up's seconds.
pub fn time_setups<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> Vec<f64> {
    let mut secs: Vec<f64> = Vec::new();
    while secs.len() < SETUP_REPEATS || secs.iter().sum::<f64>() < SETUP_MIN_S {
        let t = std::time::Instant::now();
        let made = std::hint::black_box(setup());
        secs.push(t.elapsed().as_secs_f64());
        teardown(made);
    }
    secs
}

/// Command-line arguments of a measuring run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["solve-n100", "solve-n40-batch", "serve-open", "proto-dynamics"];

/// The end-to-end metrics, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("solve_p50_ms", "ms"),
    ("solve_p90_ms", "ms"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MiB"),
    ("msgs_per_update", "count"),
    ("slots_per_update", "count"),
    ("reliability_gap", "frac"),
];

fn usage() -> ! {
    eprintln!(
        "usage: mrlc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         mrlc-perfbench --self-test | --record",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Runs one workload and returns its tally and reported metrics.
pub fn run_workload(args: &Args) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut m = match args.workload.as_str() {
        "solve-n100" => solve::run(&solve::SOLVE_N100, args, &mut tally),
        "solve-n40-batch" => solve::run(&solve::SOLVE_N40_BATCH, args, &mut tally),
        "serve-open" => serve::run(args, &mut tally),
        "proto-dynamics" => proto::run(args, &mut tally),
        other => unreachable!("workload {other} was validated"),
    };
    if args.trace {
        return (tally, layers::complete(&m));
    }
    m.set("ok_frac", 1.0 - tally.fail_frac(), "frac");
    m.set("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    let mut out = Metrics::default();
    for &(name, unit) in END_TO_END {
        out.set(name, m.get(name).unwrap_or(0.0), unit);
    }
    (tally, out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--record") => return pool::record(),
        Some("--self-test") => std::process::exit(selftest::run()),
        _ => {}
    }
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    let (tally, metrics) = run_workload(&args);
    for note in &tally.notes {
        eprintln!("FAIL: {note}");
    }
    println!("{}", stats::result_line(&tally, &metrics));
    if tally.failed > 0 {
        std::process::exit(1);
    }
}
