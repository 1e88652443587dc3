//! `bench-check trend` — the CI perf gate over two `BENCH_ira.json` files.
//!
//! Compares a freshly generated bench-perf run against the committed
//! baseline (and optionally a rolling history of prior runs), assigning a
//! typed [`Verdict`] per tracked metric and failing on hard regressions
//! (rules in DESIGN.md §13):
//!
//! - **Deterministic counters** (`lp_solves`, `pivots`, `cut_rounds` of the
//!   `warm` solver block) are seeded and machine-independent, so growth
//!   beyond 25% over the baseline is a hard failure — a real algorithmic
//!   regression, not noise.
//! - **Wall time** (`wall_ms` and the `lp_ms` / `sep_ms` / `decode_ms`
//!   stages) varies with the host, so it only regresses softly — unless
//!   the current run is over 4× a baseline of at least 50 ms, which no
//!   shared-runner jitter explains. Below that floor scheduler jitter can
//!   alone exceed 4× of a ~1 ms case.
//! - **Certificate**: a current case reporting `verified: false` (LC missed
//!   on the returned tree, or an IRA guard removal) fails.
//! - **Acceptance floor**: every current case at n ≥ 160 whose baseline
//!   recorded a single-cut run (the `single` block of schema ≤ 4, kept by
//!   hand for rand-160 in the committed schema-5 baseline) must show
//!   the engine win DESIGN.md §10 claims — ≥ 3× fewer cut rounds and ≥ 2×
//!   less wall time than that recorded run.
//! - **Storm rung**: the current `storm` block's `all_typed` and
//!   `no_leaked_workers` invariants are hard failures — a request that hung
//!   or a worker thread that leaked is a service bug regardless of the
//!   host. p99 follows the wall rule; throughput has its own (hard beyond
//!   4× slower, at any rate). Both compare only when baseline and current
//!   ran the same request count (a smoke run against a full baseline skips
//!   with a note).
//!
//! Cases present in only one file are noted but not failed, so the ladder
//! can grow without invalidating old baselines.

use wsn_obs::json::{parse, Json};

/// Growth in a deterministic counter beyond this ratio fails the check.
const COUNTER_TOLERANCE: f64 = 1.25;

/// Wall-clock growth beyond this ratio fails even on noisy runners.
const WALL_GROSS_RATIO: f64 = 4.0;

/// Below this baseline wall time the gross ratio never fails — a few
/// milliseconds of scheduler jitter on a shared runner can alone exceed
/// 4× of a ~1 ms case.
const WALL_NOISE_FLOOR_MS: f64 = 50.0;

/// Acceptance floor: engine cut rounds must beat single-cut by this factor
/// at n ≥ 160.
const MIN_ROUND_RATIO: f64 = 3.0;

/// Acceptance floor: engine wall time must beat single-cut by this factor
/// at n ≥ 160.
const MIN_SINGLE_SPEEDUP: f64 = 2.0;

/// Node count from which the acceptance floor applies.
const ACCEPTANCE_N: f64 = 160.0;

fn counter(case: &Json, path: &str, field: &str) -> Option<f64> {
    case.get(path)?.get(field)?.as_f64()
}

fn case_name(case: &Json) -> &str {
    case.get("name").and_then(Json::as_str).unwrap_or("?")
}

fn cases(doc: &Json) -> Vec<&Json> {
    doc.get("cases").and_then(Json::as_arr).map(|a| a.iter().collect()).unwrap_or_default()
}

/// Typed verdict `bench-check trend` assigns to one tracked metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Meaningfully better than the baseline.
    Improved,
    /// Within noise of the baseline.
    Flat,
    /// Worse than the baseline; `hard` regressions fail the command.
    Regressed {
        /// Beyond what runner noise explains (deterministic-counter
        /// tolerance, or the gross wall ratio over the noise floor).
        hard: bool,
    },
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Flat => "flat",
            Verdict::Regressed { hard: false } => "regressed (soft)",
            Verdict::Regressed { hard: true } => "REGRESSED",
        }
    }
}

/// One metric's baseline-vs-current comparison in a trend report.
#[derive(Clone, Debug)]
pub struct TrendLine {
    /// Case name, or `storm` for the storm rung.
    pub case: String,
    /// Metric key, e.g. `warm.pivots`.
    pub metric: String,
    pub baseline: f64,
    pub current: f64,
    pub verdict: Verdict,
}

/// What `bench-check trend` concluded.
#[derive(Clone, Debug, Default)]
pub struct TrendReport {
    /// Per-metric verdicts, in case then metric order.
    pub lines: Vec<TrendLine>,
    /// Informational notes (skips, history drift).
    pub notes: Vec<String>,
    /// Hard failures — non-empty fails the command. Every
    /// `Verdict::Regressed { hard: true }` line has a failure here.
    pub failures: Vec<String>,
}

impl TrendReport {
    /// True when no hard regression or invariant violation was found.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn tally(&self, want: fn(Verdict) -> bool) -> usize {
        self.lines.iter().filter(|l| want(l.verdict)).count()
    }

    /// Renders the trend table, failures last.
    pub fn render(&self) -> String {
        let mut out = String::from("bench-check trend — current vs baseline\n");
        for l in &self.lines {
            let ratio = if l.baseline > 0.0 { l.current / l.baseline } else { f64::NAN };
            out.push_str(&format!(
                "  {:<12} {:<16} {:>12.3} -> {:>12.3}  {:>6.2}x  {}\n",
                l.case,
                l.metric,
                l.baseline,
                l.current,
                ratio,
                l.verdict.label()
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out.push_str(&format!(
            "  verdicts: {} improved, {} flat, {} regressed ({} hard)\n",
            self.tally(|v| v == Verdict::Improved),
            self.tally(|v| v == Verdict::Flat),
            self.tally(|v| matches!(v, Verdict::Regressed { .. })),
            self.tally(|v| v == Verdict::Regressed { hard: true }),
        ));
        if self.failures.is_empty() {
            out.push_str("PASS\n");
        } else {
            for f in &self.failures {
                out.push_str("FAIL: ");
                out.push_str(f);
                out.push('\n');
            }
        }
        out
    }
}

/// Deterministic-counter verdict: seeded and machine-independent, so the
/// 25% tolerance is a hard wall.
fn counter_verdict(b: f64, c: f64) -> Verdict {
    let ratio = if b > 0.0 { c / b } else { 1.0 };
    if ratio > COUNTER_TOLERANCE {
        Verdict::Regressed { hard: true }
    } else if ratio > 1.10 {
        Verdict::Regressed { hard: false }
    } else if ratio < 0.90 {
        Verdict::Improved
    } else {
        Verdict::Flat
    }
}

/// Verdict on the growth ratio of a host-dependent metric (current over
/// baseline for a time, baseline over current for a rate): only a gross
/// blowup is hard, and only where `can_fail`.
fn noisy_verdict(ratio: f64, can_fail: bool) -> Verdict {
    if ratio > WALL_GROSS_RATIO && can_fail {
        Verdict::Regressed { hard: true }
    } else if ratio > COUNTER_TOLERANCE {
        Verdict::Regressed { hard: false }
    } else if ratio < 0.80 {
        Verdict::Improved
    } else {
        Verdict::Flat
    }
}

/// Wall-clock verdict: host-dependent, so only a gross blowup over the
/// noise floor is hard.
fn wall_verdict(b: f64, c: f64) -> Verdict {
    noisy_verdict(if b > 0.0 { c / b } else { 1.0 }, b >= WALL_NOISE_FLOOR_MS)
}

/// Throughput verdict. A rate regresses downward, and a collapse is hard
/// at any rate: the wall rule's 50 ms floor guards small *times*, and
/// applied to req/s it would let any collapse below 50 req/s pass soft.
fn throughput_verdict(b: f64, c: f64) -> Verdict {
    let slowdown = if c > 0.0 {
        b / c
    } else if b > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    noisy_verdict(slowdown, true)
}

/// The DESIGN.md §10 acceptance floor for one case at n ≥ 160, against the
/// single-cut run the baseline recorded. `bench-perf` no longer writes a
/// `single` block, so a case carries a floor only where its baseline has
/// one by hand: the committed `BENCH_ira.json` keeps rand-160's recorded
/// block, copied verbatim from the version-4 file it replaced.
fn acceptance_floor(report: &mut TrendReport, name: &str, base: &Json, cur: &Json) {
    let n = cur.get("n").and_then(Json::as_f64).unwrap_or(0.0);
    if n < ACCEPTANCE_N || base.get("single").is_none_or(|s| !s.is_obj()) {
        return;
    }
    for (metric, field, floor, min_current) in [
        ("round_ratio", "cut_rounds", MIN_ROUND_RATIO, 1.0),
        ("single_speedup", "wall_ms", MIN_SINGLE_SPEEDUP, 1e-9),
    ] {
        let (Some(single), Some(engine)) =
            (counter(base, "single", field), counter(cur, "warm", field))
        else {
            report.failures.push(format!("{name}: {metric} missing"));
            continue;
        };
        let ratio = single / engine.max(min_current);
        let detail = format!("baseline single-cut {field} {single:.1} vs {engine:.1}");
        if ratio >= floor {
            report.notes.push(format!("{name}: {metric} {ratio:.2} >= {floor} ({detail})"));
        } else {
            report.failures.push(format!(
                "{name}: {metric} {ratio:.2} below acceptance floor {floor} ({detail})"
            ));
        }
    }
}

/// Per-case metrics the trend tracks: deterministic counters plus the
/// per-stage wall breakdown (`lp_ms` / `sep_ms` / `decode_ms` ride along
/// so a regression points at the stage that moved, not just the total).
const TREND_COUNTERS: [&str; 3] = ["lp_solves", "pivots", "cut_rounds"];
const TREND_WALLS: [&str; 4] = ["wall_ms", "lp_ms", "sep_ms", "decode_ms"];

/// Compares current against baseline (and optionally a rolling history of
/// prior runs), assigning a typed [`Verdict`] per metric.
pub fn trend(baseline: &Json, current: &Json, history: &[Json]) -> TrendReport {
    let mut report = TrendReport::default();
    let base_cases = cases(baseline);
    let cur_cases = cases(current);
    if cur_cases.is_empty() {
        report.failures.push("current file has no cases".to_string());
        return report;
    }

    fn push(report: &mut TrendReport, case: &str, metric: String, b: f64, c: f64, v: Verdict) {
        if v == (Verdict::Regressed { hard: true }) {
            report.failures.push(format!(
                "{case}: {metric} regressed {b:.3} -> {c:.3} ({:.2}x)",
                if b > 0.0 { c / b } else { f64::NAN }
            ));
        }
        report.lines.push(TrendLine {
            case: case.to_string(),
            metric,
            baseline: b,
            current: c,
            verdict: v,
        });
    }

    for cur in &cur_cases {
        let name = case_name(cur);
        if cur.get("verified") == Some(&Json::Bool(false)) {
            report.failures.push(format!(
                "{name}: returned tree failed verification (LC missed or IRA guard removals)"
            ));
        }
        let Some(base) = base_cases.iter().find(|b| case_name(b) == name) else {
            report.notes.push(format!("{name}: new case, no baseline (skipped)"));
            continue;
        };
        for field in TREND_COUNTERS {
            if let (Some(b), Some(c)) = (counter(base, "warm", field), counter(cur, "warm", field))
            {
                push(&mut report, name, format!("warm.{field}"), b, c, counter_verdict(b, c));
            }
        }
        for field in TREND_WALLS {
            if let (Some(b), Some(c)) = (counter(base, "warm", field), counter(cur, "warm", field))
            {
                push(&mut report, name, format!("warm.{field}"), b, c, wall_verdict(b, c));
            }
        }
        acceptance_floor(&mut report, name, base, cur);
    }

    // Storm rung: the invariants are hard regardless of the baseline; the
    // latency/throughput trajectory gets verdicts when comparable.
    if let Some(cur) = current.get("storm").filter(|s| s.is_obj()) {
        for (field, what) in [
            ("all_typed", "a request resolved without a typed outcome"),
            ("no_leaked_workers", "the fleet leaked worker threads"),
        ] {
            if cur.get(field) != Some(&Json::Bool(true)) {
                report.failures.push(format!("storm: {what}"));
            }
        }
        let requests = |doc: &Json| doc.get("requests").and_then(Json::as_f64).unwrap_or(0.0);
        match baseline.get("storm").filter(|s| s.is_obj()) {
            None => report.notes.push("storm: no baseline storm block (trajectory skipped)".into()),
            Some(base) if requests(base) != requests(cur) => report.notes.push(format!(
                "storm: request counts differ (baseline {:.0}, current {:.0}) — trajectory skipped",
                requests(base),
                requests(cur)
            )),
            Some(base) => {
                let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
                if let (Some(b), Some(c)) = (field(base, "p99_ms"), field(cur, "p99_ms")) {
                    push(&mut report, "storm", "p99_ms".to_string(), b, c, wall_verdict(b, c));
                }
                if let (Some(b), Some(c)) =
                    (field(base, "throughput_rps"), field(cur, "throughput_rps"))
                {
                    let v = throughput_verdict(b, c);
                    push(&mut report, "storm", "throughput_rps".to_string(), b, c, v);
                }
            }
        }
    } else {
        report.notes.push("storm: no storm block in current file (skipped)".to_string());
    }

    // Rolling history: compare deterministic counters against the median
    // of prior runs — a slow drift that stays inside the per-run
    // tolerance still surfaces here (as a note, never a failure, since
    // the baseline comparison above is the gate).
    if history.len() >= 3 {
        for cur in &cur_cases {
            let name = case_name(cur);
            for field in TREND_COUNTERS {
                let Some(c) = counter(cur, "warm", field) else { continue };
                let mut past: Vec<f64> = history
                    .iter()
                    .filter_map(|doc| {
                        cases(doc)
                            .iter()
                            .find(|b| case_name(b) == name)
                            .and_then(|b| counter(b, "warm", field))
                    })
                    .collect();
                if past.len() < 3 {
                    continue;
                }
                past.sort_by(|a, b| a.total_cmp(b));
                let median = past[past.len() / 2];
                if median > 0.0 && c > median * COUNTER_TOLERANCE {
                    report.notes.push(format!(
                        "{name}: warm.{field} {c:.0} drifted above history median {median:.0} \
                         over {} run(s)",
                        past.len()
                    ));
                }
            }
        }
        report.notes.push(format!("history: compared against {} prior run(s)", history.len()));
    }

    report
}

/// Rolling-history cap: `run_trend` keeps this many most-recent runs.
const HISTORY_CAP: usize = 20;

/// `bench-check trend` entry point: compares current vs baseline (and the
/// rolling history JSONL when given), then appends the current run to the
/// history. Returns the rendered report plus the pass verdict.
pub fn run_trend(
    baseline_path: &str,
    current_path: &str,
    history_path: Option<&str>,
) -> Result<(String, bool), String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let baseline =
        parse(&read(baseline_path)?).map_err(|e| format!("{baseline_path}: invalid JSON: {e}"))?;
    let current_text = read(current_path)?;
    let current = parse(&current_text).map_err(|e| format!("{current_path}: invalid JSON: {e}"))?;

    let mut history_lines: Vec<String> = Vec::new();
    if let Some(path) = history_path {
        if let Ok(text) = std::fs::read_to_string(path) {
            history_lines =
                text.lines().filter(|l| !l.trim().is_empty()).map(String::from).collect();
        }
    }
    let history: Vec<Json> = history_lines.iter().filter_map(|l| parse(l).ok()).collect();

    let report = trend(&baseline, &current, &history);

    if let Some(path) = history_path {
        // One JSONL line per run, newest last, capped. The bench file is
        // multi-line JSON; collapsing newlines keeps it one parseable line
        // (none of its strings contain newlines).
        history_lines.push(current_text.replace('\n', " "));
        let start = history_lines.len().saturating_sub(HISTORY_CAP);
        let mut out = history_lines[start..].join("\n");
        out.push('\n');
        std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    Ok((report.render(), report.passed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cases: &str) -> Json {
        parse(&format!(
            "{{\"suite\": \"bench-perf\", \"schema_version\": 3, \"smoke\": false, \
             \"cases\": [{cases}]}}"
        ))
        .unwrap()
    }

    fn case(name: &str, n: usize, warm: (u64, u64, u64, f64), extra: &str) -> String {
        let (solves, pivots, rounds, wall) = warm;
        format!(
            "{{\"name\": \"{name}\", \"n\": {n}, \"m\": 100, \
             \"warm\": {{\"wall_ms\": {wall}, \"lp_solves\": {solves}, \"pivots\": {pivots}, \
             \"cut_rounds\": {rounds}}}, \"verified\": true{extra}}}"
        )
    }

    /// The verdict `trend` assigned to `metric`.
    fn verdict(report: &TrendReport, metric: &str) -> Verdict {
        report.lines.iter().find(|l| l.metric == metric).map(|l| l.verdict).unwrap()
    }

    #[test]
    fn identical_runs_pass() {
        let b = doc(&case("rand-20", 20, (5, 100, 6, 10.0), ""));
        let report = trend(&b, &b, &[]);
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn counter_regression_fails() {
        let b = doc(&case("rand-20", 20, (5, 100, 6, 10.0), ""));
        let c = doc(&case("rand-20", 20, (5, 200, 6, 10.0), ""));
        let report = trend(&b, &c, &[]);
        assert!(!report.passed());
        assert!(report.failures[0].contains("pivots"), "{:?}", report.failures);
    }

    #[test]
    fn counter_growth_within_tolerance_passes() {
        // +20% on every counter: soft, inside the 25% hard wall.
        let b = doc(&case("rand-20", 20, (5, 100, 6, 10.0), ""));
        let c = doc(&case("rand-20", 20, (6, 120, 7, 10.0), ""));
        let report = trend(&b, &c, &[]);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(verdict(&report, "warm.pivots"), Verdict::Regressed { hard: false });
    }

    #[test]
    fn wall_clock_noise_warns_but_gross_blowup_fails() {
        let b = doc(&case("rand-80", 80, (5, 100, 6, 100.0), ""));
        let noisy = doc(&case("rand-80", 80, (5, 100, 6, 250.0), ""));
        let report = trend(&b, &noisy, &[]);
        assert!(report.passed(), "2.5x wall is runner noise: {:?}", report.failures);
        assert_eq!(verdict(&report, "warm.wall_ms"), Verdict::Regressed { hard: false });
        let gross = doc(&case("rand-80", 80, (5, 100, 6, 1000.0), ""));
        assert!(!trend(&b, &gross, &[]).passed(), "10x wall cannot be noise");
    }

    #[test]
    fn tiny_baseline_walls_never_fail_on_ratio_alone() {
        // A ~1 ms case can blow past 4x from scheduler jitter alone; below
        // the noise floor the gross ratio downgrades to a warning.
        let b = doc(&case("dfl-16", 16, (2, 83, 2, 1.0), ""));
        let jittery = doc(&case("dfl-16", 16, (2, 83, 2, 9.0), ""));
        let report = trend(&b, &jittery, &[]);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(verdict(&report, "warm.wall_ms"), Verdict::Regressed { hard: false });
    }

    #[test]
    fn new_cases_are_skipped_not_failed() {
        let b = doc(&case("rand-20", 20, (5, 100, 6, 10.0), ""));
        let c = doc(&format!(
            "{}, {}",
            case("rand-20", 20, (5, 100, 6, 10.0), ""),
            case("rand-40", 40, (9, 400, 12, 40.0), "")
        ));
        let report = trend(&b, &c, &[]);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.notes.iter().any(|l| l.contains("no baseline")));
    }

    #[test]
    fn acceptance_floor_applies_from_160() {
        // The floor reads the single-cut side from the baseline's recorded
        // `single` block: 60 vs 12 rounds and 99 vs 30 ms clear 3x and 2x.
        let good = ", \"single\": {\"wall_ms\": 99.0, \"cut_rounds\": 60}";
        let b = doc(&case("rand-160", 160, (5, 100, 12, 30.0), good));
        let report = trend(&b, &doc(&case("rand-160", 160, (5, 100, 12, 30.0), "")), &[]);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.notes.iter().any(|n| n.contains("round_ratio 5.00")), "{report:?}");

        let weak = ", \"single\": {\"wall_ms\": 33.0, \"cut_rounds\": 14}";
        let b = doc(&case("rand-160", 160, (5, 100, 12, 30.0), weak));
        let c = doc(&case("rand-160", 160, (5, 100, 12, 30.0), ""));
        let report = trend(&b, &c, &[]);
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("round_ratio")));
        assert!(report.failures.iter().any(|f| f.contains("single_speedup")));

        // The committed baseline keeps the single-cut run recorded at
        // rand-160 (219 rounds, 37.2 s) next to the engine (66 rounds,
        // 2.2 s).
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ira.json");
        let committed = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let report = trend(&committed, &committed, &[]);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.notes.iter().any(|n| n.starts_with("rand-160: round_ratio 3.32")));
        assert!(report.notes.iter().any(|n| n.starts_with("rand-160: single_speedup 16.95")));
    }

    #[test]
    fn small_cases_are_exempt_from_the_floor() {
        let weak = ", \"single\": {\"wall_ms\": 10.0, \"cut_rounds\": 6}";
        let b = doc(&case("rand-20", 20, (5, 100, 6, 10.0), weak));
        assert!(trend(&b, &b, &[]).passed(), "n = 20 has no acceptance floor");
    }

    #[test]
    fn unverified_tree_fails() {
        let b = doc(&case("rand-20", 20, (5, 100, 6, 10.0), ""));
        let bad = case("rand-20", 20, (5, 100, 6, 10.0), "")
            .replace("\"verified\": true", "\"verified\": false");
        let report = trend(&b, &doc(&bad), &[]);
        assert!(!report.passed());
        assert!(report.failures[0].contains("failed verification"));
    }

    fn doc_with_storm(cases: &str, storm: &str) -> Json {
        parse(&format!(
            "{{\"suite\": \"bench-perf\", \"schema_version\": 4, \"smoke\": false, \
             \"cases\": [{cases}], \"storm\": {storm}}}"
        ))
        .unwrap()
    }

    fn storm(requests: u64, p99: f64, rps: f64, all_typed: bool, no_leak: bool) -> String {
        format!(
            "{{\"requests\": {requests}, \"solved\": {requests}, \"shed\": 0, \
             \"quarantined\": 0, \"parked\": 0, \"infeasible\": 0, \"cache_hits\": 0, \
             \"worker_restarts\": 0, \"wall_ms\": 1000.0, \"throughput_rps\": {rps}, \
             \"p50_ms\": 10.0, \"p99_ms\": {p99}, \"max_ms\": {p99}, \
             \"all_typed\": {all_typed}, \"no_leaked_workers\": {no_leak}}}"
        )
    }

    #[test]
    fn storm_invariants_fail_hard() {
        let c = case("rand-20", 20, (5, 100, 6, 10.0), "");
        let good = doc_with_storm(&c, &storm(1000, 100.0, 50.0, true, true));
        assert!(trend(&good, &good, &[]).passed());

        let hung = doc_with_storm(&c, &storm(1000, 100.0, 50.0, false, true));
        let report = trend(&good, &hung, &[]);
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("typed outcome")), "{report:?}");

        let leaky = doc_with_storm(&c, &storm(1000, 100.0, 50.0, true, false));
        assert!(trend(&good, &leaky, &[]).failures.iter().any(|f| f.contains("leaked")));
    }

    #[test]
    fn storm_trajectory_warns_on_noise_and_fails_on_blowup() {
        let c = case("rand-20", 20, (5, 100, 6, 10.0), "");
        let b = doc_with_storm(&c, &storm(1000, 100.0, 50.0, true, true));
        let noisy = doc_with_storm(&c, &storm(1000, 250.0, 30.0, true, true));
        let report = trend(&b, &noisy, &[]);
        assert!(report.passed(), "2.5x p99 is runner noise: {:?}", report.failures);
        assert_eq!(verdict(&report, "p99_ms"), Verdict::Regressed { hard: false });
        let gross = doc_with_storm(&c, &storm(1000, 1000.0, 5.0, true, true));
        let report = trend(&b, &gross, &[]);
        assert!(!report.passed(), "10x p99 and throughput collapse cannot be noise");
        assert!(report.failures.iter().any(|f| f.contains("p99")));
        assert!(report.failures.iter().any(|f| f.contains("throughput")));
    }

    #[test]
    fn throughput_collapse_fails_hard_at_any_rate() {
        // The committed storm's 36 req/s falling to 5 at the same request
        // count: 7.2x slower is a hard failure although both rates sit
        // below the 50-unit wall floor.
        let c = case("rand-20", 20, (5, 100, 6, 10.0), "");
        let b = doc_with_storm(&c, &storm(1000, 100.0, 36.0, true, true));
        let slow = doc_with_storm(&c, &storm(1000, 100.0, 5.0, true, true));
        let report = trend(&b, &slow, &[]);
        assert!(!report.passed());
        assert_eq!(verdict(&report, "throughput_rps"), Verdict::Regressed { hard: true });
        // A 2x dip stays soft, a gain reads as an improvement.
        let dip = doc_with_storm(&c, &storm(1000, 100.0, 18.0, true, true));
        assert_eq!(
            verdict(&trend(&b, &dip, &[]), "throughput_rps"),
            Verdict::Regressed { hard: false }
        );
        let fast = doc_with_storm(&c, &storm(1000, 100.0, 72.0, true, true));
        assert_eq!(verdict(&trend(&b, &fast, &[]), "throughput_rps"), Verdict::Improved);
    }

    #[test]
    fn storm_with_different_request_counts_skips_trajectory() {
        let c = case("rand-20", 20, (5, 100, 6, 10.0), "");
        // Full baseline vs smoke current: invariants still gate, the
        // trajectory comparison is skipped.
        let b = doc_with_storm(&c, &storm(1000, 100.0, 50.0, true, true));
        let smoke = doc_with_storm(&c, &storm(150, 5000.0, 1.0, true, true));
        let report = trend(&b, &smoke, &[]);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.notes.iter().any(|l| l.contains("request counts differ")));
    }

    #[test]
    fn v3_files_without_storm_blocks_still_check() {
        let b = doc(&case("rand-20", 20, (5, 100, 6, 10.0), ""));
        let report = trend(&b, &b, &[]);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.notes.iter().any(|l| l.contains("no storm block")));
        // v3 baseline, v4 current: the invariants gate on the current file.
        let c = doc_with_storm(
            &case("rand-20", 20, (5, 100, 6, 10.0), ""),
            &storm(150, 100.0, 10.0, true, true),
        );
        let report = trend(&b, &c, &[]);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.notes.iter().any(|l| l.contains("no baseline storm")));
    }

    /// A case with the per-stage wall breakdown the trend tracks.
    fn staged_case(name: &str, warm: (u64, u64, u64, f64), lp: f64, sep: f64, dec: f64) -> String {
        let (solves, pivots, rounds, wall) = warm;
        format!(
            "{{\"name\": \"{name}\", \"n\": 80, \"m\": 100, \
             \"warm\": {{\"wall_ms\": {wall}, \"lp_solves\": {solves}, \"pivots\": {pivots}, \
             \"cut_rounds\": {rounds}, \"lp_ms\": {lp}, \"sep_ms\": {sep}, \
             \"decode_ms\": {dec}}}, \"verified\": true}}"
        )
    }

    #[test]
    fn trend_of_identical_runs_is_flat_and_passes() {
        let b = doc(&staged_case("rand-80", (5, 100, 6, 100.0), 60.0, 30.0, 5.0));
        let report = trend(&b, &b, &[]);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(!report.lines.is_empty());
        assert!(report.lines.iter().all(|l| l.verdict == Verdict::Flat), "{report:?}");
        assert!(report.render().contains("PASS"), "{}", report.render());
    }

    #[test]
    fn trend_hard_fails_on_an_injected_synthetic_regression() {
        let b = doc(&staged_case("rand-80", (5, 100, 6, 100.0), 60.0, 30.0, 5.0));
        // Inject a 10x pivot blowup with a matching lp_ms stage blowup,
        // while decode improves — the verdicts must come back typed.
        let c = doc(&staged_case("rand-80", (5, 1000, 6, 500.0), 450.0, 30.0, 2.0));
        let report = trend(&b, &c, &[]);
        assert!(!report.passed());
        assert_eq!(verdict(&report, "warm.pivots"), Verdict::Regressed { hard: true });
        assert_eq!(verdict(&report, "warm.lp_ms"), Verdict::Regressed { hard: true });
        assert_eq!(verdict(&report, "warm.decode_ms"), Verdict::Improved);
        assert_eq!(verdict(&report, "warm.sep_ms"), Verdict::Flat);
        assert!(report.failures.iter().any(|f| f.contains("warm.pivots")), "{report:?}");
        let text = report.render();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("FAIL:"), "{text}");
    }

    #[test]
    fn trend_wall_noise_is_soft_below_the_gross_ratio() {
        let b = doc(&staged_case("rand-80", (5, 100, 6, 100.0), 60.0, 30.0, 5.0));
        let noisy = doc(&staged_case("rand-80", (5, 100, 6, 250.0), 60.0, 30.0, 5.0));
        let report = trend(&b, &noisy, &[]);
        assert!(report.passed(), "2.5x wall is runner noise: {:?}", report.failures);
        assert_eq!(verdict(&report, "warm.wall_ms"), Verdict::Regressed { hard: false });
    }

    #[test]
    fn trend_gates_storm_invariants_and_trajectory() {
        let c = case("rand-20", 20, (5, 100, 6, 10.0), "");
        let b = doc_with_storm(&c, &storm(1000, 100.0, 50.0, true, true));
        let hung = doc_with_storm(&c, &storm(1000, 100.0, 50.0, false, true));
        assert!(!trend(&b, &hung, &[]).passed());
        let gross = doc_with_storm(&c, &storm(1000, 1000.0, 50.0, true, true));
        let report = trend(&b, &gross, &[]);
        assert!(!report.passed());
        assert_eq!(verdict(&report, "p99_ms"), Verdict::Regressed { hard: true });
    }

    #[test]
    fn trend_notes_drift_against_the_history_median() {
        let mk = |pivots: u64| doc(&staged_case("rand-80", (5, pivots, 6, 100.0), 60.0, 30.0, 5.0));
        // Baseline already crept up, so current-vs-baseline stays flat —
        // only the history median exposes the slow drift.
        let history = vec![mk(100), mk(102), mk(104)];
        let report = trend(&mk(130), &mk(132), &history);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(
            report.notes.iter().any(|n| n.contains("drifted above history median")),
            "{report:?}"
        );
    }

    #[test]
    fn run_trend_appends_the_rolling_history() {
        let dir = std::env::temp_dir().join(format!("wsn-trend-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let doc_text = format!(
            "{{\"suite\": \"bench-perf\", \"schema_version\": 4, \"smoke\": false,\n \
             \"cases\": [{}]}}",
            staged_case("rand-80", (5, 100, 6, 100.0), 60.0, 30.0, 5.0)
        );
        std::fs::write(path("base.json"), &doc_text).unwrap();
        std::fs::write(path("cur.json"), &doc_text).unwrap();
        let hist = path("history.jsonl");
        for _ in 0..2 {
            let (text, passed) =
                run_trend(&path("base.json"), &path("cur.json"), Some(&hist)).unwrap();
            assert!(passed, "{text}");
        }
        let lines: Vec<String> =
            std::fs::read_to_string(&hist).unwrap().lines().map(String::from).collect();
        assert_eq!(lines.len(), 2, "one history line per run");
        for l in &lines {
            parse(l).expect("each history line is one parseable JSON doc");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_baseline_without_pool_fields_still_checks() {
        // A pre-engine baseline (schema 2) has no single/pool fields; the
        // deterministic counters still gate.
        let b = doc(&case("rand-20", 20, (5, 100, 6, 10.0), ""));
        let cur_extra = ", \"single\": {\"wall_ms\": 30.0, \"cut_rounds\": 18}, \
                        \"round_ratio\": 3.00, \"single_speedup\": 3.00";
        let c = doc(&case("rand-20", 20, (5, 100, 6, 10.0), cur_extra));
        assert!(trend(&b, &c, &[]).passed());
    }
}
