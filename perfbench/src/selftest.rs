//! `--self-test`: the metric math on known inputs, the correctness gate on
//! a corrupted fingerprint, and exact repetition of the count metrics
//! across two runs of one seed on tiny workloads.

use crate::pool::{self, Fingerprint, Reference};
use crate::solve::{self, SolveWorkload};
use crate::stats::{histogram_quantile, quantile, ratio, Metrics, Tally};
use crate::{run_workload, serve, Args};

fn check(ok: bool, what: &str, failures: &mut usize) {
    println!("{} {what}", if ok { "ok  " } else { "FAIL" });
    if !ok {
        *failures += 1;
    }
}

/// Runs every check; returns the process exit code.
pub fn run() -> i32 {
    let mut failures = 0usize;
    let f = &mut failures;

    // Quantile indexing: linear interpolation at position q·(n − 1).
    let close = |a: Option<f64>, b: f64| a.is_some_and(|a| (a - b).abs() < 1e-12);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    check(close(quantile(&ten, 0.5), 5.5), "p50 of 1..10 is 5.5", f);
    check(close(quantile(&ten, 0.9), 9.1), "p90 of 1..10 is 9.1", f);
    check(close(quantile(&ten, 1.0), 10.0), "p100 is the maximum", f);
    check(close(quantile(&ten, 0.0), 1.0), "p0 is the minimum", f);
    check(close(quantile(&[4.0], 0.9), 4.0), "one sample is every quantile", f);
    check(quantile(&[], 0.5).is_none(), "an empty sample has no quantile", f);
    check(close(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0), "unsorted input is sorted first", f);
    let pair = [3.0, 3.0, 3.0, 5.0, 5.0, 5.0];
    check(close(quantile(&pair, 0.5), 4.0), "a two-cluster median sits between clusters", f);
    check(
        histogram_quantile(&[1, 2, 4], &[1, 0, 8, 1], 0.9) == Some(4),
        "histogram p90 is the bucket bound holding rank 9 of 10",
        f,
    );
    check(
        histogram_quantile(&[1, 2, 4], &[1, 0, 8, 1], 1.0) == Some(4),
        "overflow observations report the last bound",
        f,
    );

    // Ratio bases and the fail_frac partition.
    check(ratio(3.0, 0.0) == 0.0, "a ratio over an empty base reads 0", f);
    let mut t = Tally::default();
    for i in 0..8 {
        t.record(if i % 4 == 0 { Err(format!("op {i}")) } else { Ok(()) });
    }
    check(t.attempted == 8 && t.failed == 2, "tally partitions 8 ops into 6 ok + 2 failed", f);
    check(t.fail_frac() == 0.25, "fail_frac = failed / attempted", f);
    let (first, last) = serve::quarter_medians(&[0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 3.0, 3.0]);
    check(first == 0.0 && last == 3.0, "queue-depth quarters compare first vs last", f);
    let spike = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 60.0, 30.0, 0.0];
    check(!serve::backlog_grew(&spike), "a backlog that drains is no growth", f);
    let growing = [0.0, 1.0, 0.0, 2.0, 4.0, 5.0, 7.0, 9.0, 12.0, 14.0, 16.0, 19.0];
    check(serve::backlog_grew(&growing), "a queue that never empties has grown", f);

    // The correctness gate rejects a tree that differs from the reference.
    let reference = Reference::load("n40");
    let inst = pool::instance(&pool::N40, 0);
    let sol = solve::traced_solve(&inst).expect("member 0 solves");
    check(solve::check_solution(&inst, &sol, &reference, 0).is_ok(), "member 0 matches", f);
    let fp = Fingerprint::of(&sol.tree, sol.reliability * (1.0 - 1e-6), sol.lifetime);
    check(reference.check(0, &fp).is_err(), "a perturbed Q fails the fingerprint", f);
    check(
        reference.check(1, &Fingerprint::of(&sol.tree, sol.reliability, sol.lifetime)).is_err(),
        "another member's tree fails the fingerprint",
        f,
    );

    // Counts repeat exactly across two runs of one seed.
    let tiny = SolveWorkload { pool: pool::N40, members: 4 };
    let args = Args { workload: "solve-n40-batch".into(), seed: 7, seconds: 0.0, trace: true };
    let counts = |m: &Metrics| {
        ["lp.pivots", "cut.rounds", "sep.min_cut_seeds", "ira.lp_solves"].map(|k| m.get(k))
    };
    let a = solve::run(&tiny, &args, &mut Tally::default());
    let b = solve::run(&tiny, &args, &mut Tally::default());
    check(
        counts(&a) == counts(&b) && a.get("lp.pivots").unwrap_or(0.0) > 0.0,
        "lp.pivots, cut.rounds, sep.min_cut_seeds repeat exactly",
        f,
    );
    let args = Args { workload: "proto-dynamics".into(), seed: 7, seconds: 0.0, trace: false };
    let (ta, a) = run_workload(&args);
    let (tb, b) = run_workload(&args);
    check(
        ta.failed == 0
            && tb.failed == 0
            && a.get("msgs_per_update") == b.get("msgs_per_update")
            && a.get("slots_per_update") == b.get("slots_per_update")
            && a.get("msgs_per_update").unwrap_or(0.0) > 0.0,
        "msgs_per_update and slots_per_update repeat exactly",
        f,
    );

    println!("{} check(s) failed", failures);
    i32::from(failures > 0)
}
