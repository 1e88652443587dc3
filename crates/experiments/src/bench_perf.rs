//! `bench-perf` — the perf-trajectory suite behind `BENCH_ira.json`.
//!
//! Runs IRA on a fixed, seeded scaling ladder (the DFL-16 testbed topology
//! plus random graphs at n ∈ {20, 40, 80, 160, 320}) and records wall
//! time, LP solves, simplex pivots, cutting-plane rounds, separation time
//! and the cut-pool engine's counters per case. The JSON file is the
//! machine-readable perf trajectory CI and humans diff across commits
//! (see `bench-check trend`); the rendered table is the human-readable
//! snapshot.
//!
//! Rungs at n ≥ 160 run only here, so every case carries its own
//! certificate: `verified` records that `verify_tree` finds the lifetime
//! bound met on the returned tree and that IRA never fired its Theorem-2
//! guard, so a perf win can never silently cost the guarantee.
//!
//! The vendored `serde` stub has no real serialization, so the JSON is
//! hand-rolled — the schema is documented in DESIGN.md §8.

use crate::table::{f, Table};
use mrlc_core::{solve_ira, verify_tree, IraConfig, MrlcInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wsn_model::{lifetime, EnergyModel};
use wsn_radio::LinkModel;
use wsn_testbed::{dfl_network, random_graph, DflConfig, RandomGraphConfig};

/// Suite parameters.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Smoke mode: DFL-16 plus the n = 20 rung only (CI-speed).
    pub smoke: bool,
}

impl Config {
    /// The CI preset.
    pub fn smoke() -> Self {
        Config { smoke: true }
    }
}

/// Solver counters for one case.
#[derive(Clone, Copy, Debug)]
pub struct PathStats {
    /// End-to-end IRA wall time, milliseconds.
    pub wall_ms: f64,
    /// Inner LP solves.
    pub lp_solves: usize,
    /// Simplex pivots across all solves.
    pub pivots: usize,
    /// Cutting-plane rounds.
    pub cut_rounds: usize,
    /// Separation wall time (pool screening + oracle), milliseconds.
    pub sep_ms: f64,
    /// LP-solve wall time, milliseconds (registry `ira.lp_ns`).
    pub lp_ms: f64,
    /// Prüfer-decode wall time, milliseconds (registry `ira.decode_ns`).
    pub decode_ms: f64,
    /// Warm solves that fell back to a cold rebuild (registry
    /// `lp.cold_fallbacks`).
    pub cold_fallbacks: usize,
    /// Cuts re-activated from the pool instead of re-derived by maxflow.
    pub pool_hits: usize,
    /// Pool screening passes.
    pub pool_scans: usize,
    /// Cuts added beyond the first of their round.
    pub cuts_batched: usize,
    /// Min-cut seeds skipped by the pruning short-circuits.
    pub seeds_pruned: usize,
}

/// One rung of the ladder.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Case label (`dfl-16`, `rand-80`, …).
    pub name: String,
    /// Node count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Solver counters, serialized as `warm` (the key every schema
    /// version uses).
    pub warm: PathStats,
    /// True when the returned tree meets the lifetime bound under
    /// `verify_tree` and IRA made no guard removals.
    pub verified: bool,
}

fn run_case(name: &str, net: wsn_model::Network, lc: f64) -> CaseResult {
    let n = net.n();
    let m = net.num_edges();
    let inst = MrlcInstance::new(net, EnergyModel::PAPER, lc).expect("valid instance");
    // A private metrics-only registry per case: the per-stage breakdown
    // comes from the same counters the whole pipeline publishes, with no
    // figure-style hand-threading of timings.
    let obs = wsn_obs::Obs::detached();
    let _ambient = wsn_obs::install(obs.clone());
    let start = Instant::now();
    let sol = solve_ira(&inst, &IraConfig::default()).expect("bench instance solves");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let reg = obs.registry();
    let ns_to_ms = |name: &str| reg.counter(name).get() as f64 / 1e6;
    let warm = PathStats {
        wall_ms,
        lp_solves: sol.stats.lp_solves,
        pivots: sol.stats.pivots,
        cut_rounds: sol.stats.cut_rounds,
        sep_ms: sol.stats.sep_ms,
        lp_ms: ns_to_ms("ira.lp_ns"),
        decode_ms: ns_to_ms("ira.decode_ns"),
        cold_fallbacks: reg.counter("lp.cold_fallbacks").get() as usize,
        pool_hits: sol.stats.pool_hits,
        pool_scans: sol.stats.pool_scans,
        cuts_batched: sol.stats.cuts_batched,
        seeds_pruned: sol.stats.seeds_pruned,
    };
    let verified = verify_tree(&inst, &sol.tree).meets_lc && sol.stats.guard_removals == 0;
    CaseResult { name: name.to_string(), n, m, warm, verified }
}

/// Everything one bench-perf invocation measures: the solver ladder plus
/// the service-fleet storm rung.
#[derive(Clone, Debug)]
pub struct BenchResults {
    /// The IRA scaling ladder.
    pub cases: Vec<CaseResult>,
    /// The solve-service request storm (throughput / latency tail).
    pub storm: crate::serve_storm::StormStats,
}

/// Runs the ladder and the storm rung.
pub fn run(config: &Config) -> BenchResults {
    let cases = run_cases(config);
    let storm_cfg = if config.smoke {
        crate::serve_storm::Config::fast()
    } else {
        crate::serve_storm::Config::default()
    };
    BenchResults { cases, storm: crate::serve_storm::run(&storm_cfg) }
}

/// Runs the IRA scaling ladder alone.
pub fn run_cases(config: &Config) -> Vec<CaseResult> {
    let model = EnergyModel::PAPER;
    // The scaling.rs pattern: a mild bound, at most 4 children anywhere.
    let lc = lifetime::node_lifetime(3000.0, &model, 4) * 0.99;

    let mut cases = Vec::new();
    let dfl =
        dfl_network(&DflConfig::default(), &LinkModel::default(), 2015).expect("DFL is connected");
    cases.push(run_case("dfl-16", dfl, lc));

    let rungs: &[usize] = if config.smoke { &[20] } else { &[20, 40, 80, 160, 320] };
    for &n in rungs {
        // Thin out dense rungs so edge counts (and LP columns) stay sane.
        let p = match n {
            _ if n <= 40 => 0.7,
            _ if n <= 80 => 0.3,
            _ if n <= 160 => 0.15,
            _ => 0.06,
        };
        let gcfg = RandomGraphConfig { n, link_probability: p, ..RandomGraphConfig::default() };
        let mut rng = StdRng::seed_from_u64(4242 + n as u64);
        let net = random_graph(&gcfg, &mut rng).expect("connected bench instance");
        cases.push(run_case(&format!("rand-{n}"), net, lc));
    }
    cases
}

fn json_path(p: &PathStats) -> String {
    format!(
        "{{\"wall_ms\": {:.3}, \"lp_solves\": {}, \"pivots\": {}, \"cut_rounds\": {}, \
         \"sep_ms\": {:.3}, \"lp_ms\": {:.3}, \"decode_ms\": {:.3}, \"cold_fallbacks\": {}, \
         \"pool_hits\": {}, \"pool_scans\": {}, \"cuts_batched\": {}, \"seeds_pruned\": {}}}",
        p.wall_ms,
        p.lp_solves,
        p.pivots,
        p.cut_rounds,
        p.sep_ms,
        p.lp_ms,
        p.decode_ms,
        p.cold_fallbacks,
        p.pool_hits,
        p.pool_scans,
        p.cuts_batched,
        p.seeds_pruned
    )
}

/// Serializes the results to the `BENCH_ira.json` schema (DESIGN.md §8).
///
/// Schema version 5 keeps one solver block per case (`warm`) plus the
/// `verified` certificate; version 4's `cold`/`single` comparison blocks,
/// their ratios and `same_tree` are gone with the comparison paths. The
/// `storm` block (the solve-service fleet's throughput/p99 rung, see
/// `serve_storm`) is unchanged since version 4.
pub fn to_json(results: &BenchResults, smoke: bool) -> String {
    let cases = &results.cases;
    let mut out = String::from("{\n  \"suite\": \"bench-perf\",\n  \"schema_version\": 5,\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n  \"cases\": [\n"));
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"m\": {}, \"warm\": {}, \"verified\": {}}}{}\n",
            c.name,
            c.n,
            c.m,
            json_path(&c.warm),
            c.verified,
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"storm\": {}\n}}\n", crate::serve_storm::to_json(&results.storm)));
    out
}

/// Renders the human-readable tables: the solver ladder, then the storm.
pub fn render(results: &BenchResults) -> String {
    format!("{}\n{}", render_cases(&results.cases), crate::serve_storm::render(&results.storm))
}

/// Renders the solver-ladder table alone.
pub fn render_cases(cases: &[CaseResult]) -> String {
    let mut t = Table::new([
        "case",
        "n",
        "m",
        "wall ms",
        "lp ms",
        "sep ms",
        "rounds",
        "pivots",
        "pool hits",
        "batched",
        "pruned",
        "verified",
    ]);
    for c in cases {
        t.push([
            c.name.clone(),
            c.n.to_string(),
            c.m.to_string(),
            f(c.warm.wall_ms, 1),
            f(c.warm.lp_ms, 1),
            f(c.warm.sep_ms, 1),
            c.warm.cut_rounds.to_string(),
            c.warm.pivots.to_string(),
            c.warm.pool_hits.to_string(),
            c.warm.cuts_batched.to_string(),
            c.warm.seeds_pruned.to_string(),
            if c.verified { "yes".into() } else { "NO".into() },
        ]);
    }
    format!("bench-perf — IRA solver trajectory (warm LP + cut-pool engine)\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_runs_and_serializes() {
        // The ladder alone: the storm rung has its own tests in
        // `serve_storm` and a small dedicated check below.
        let cases = run_cases(&Config::smoke());
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].name, "dfl-16");
        assert_eq!(cases[1].name, "rand-20");
        for c in &cases {
            assert!(c.warm.wall_ms > 0.0);
            assert!(c.warm.lp_solves >= 1);
            assert!(c.warm.pivots > 0);
            assert!(c.warm.lp_ms > 0.0, "registry-backed LP stage timing is populated");
            assert!(c.warm.lp_ms <= c.warm.wall_ms, "a stage cannot exceed the whole");
            assert!(c.verified, "{}: the returned tree must carry its certificate", c.name);
        }
        let storm = crate::serve_storm::run(&crate::serve_storm::Config {
            requests: 20,
            distinct: 2,
            n: 16,
            ..crate::serve_storm::Config::fast()
        });
        let results = BenchResults { cases, storm };
        let json = to_json(&results, true);
        assert!(json.contains("\"suite\": \"bench-perf\""));
        assert!(json.contains("\"schema_version\": 5"));
        assert!(json.contains("\"smoke\": true"));
        assert!(json.contains("\"storm\": {\"requests\": 20"));
        assert!(json.contains("\"p99_ms\""));
        assert!(json.contains("\"no_leaked_workers\": true"));
        assert!(json.contains("\"name\": \"dfl-16\""));
        assert!(json.contains("\"pivots\""));
        assert!(json.contains("\"lp_ms\""));
        assert!(json.contains("\"decode_ms\""));
        assert!(json.contains("\"cold_fallbacks\""));
        assert!(json.contains("\"pool_hits\""));
        assert!(json.contains("\"cuts_batched\""));
        assert!(json.contains("\"seeds_pruned\""));
        assert!(json.contains("\"verified\": true"));
        assert!(!json.contains("\"single\""), "v5 drops the comparison blocks");
        // Valid JSON shape, end to end (the hand-rolled writer has no
        // serializer to lean on).
        assert!(wsn_obs::json::parse(&json).is_ok(), "BENCH json must parse:\n{json}");
        let table = render(&results);
        assert!(table.contains("verified"));
        assert!(table.contains("pool hits"));
        assert!(table.contains("p99 fresh-solve latency"));
    }

    #[test]
    fn counters_are_deterministic() {
        let a = run_cases(&Config::smoke());
        let b = run_cases(&Config::smoke());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.m, y.m);
            assert_eq!(x.warm.lp_solves, y.warm.lp_solves);
            assert_eq!(x.warm.pivots, y.warm.pivots);
            assert_eq!(x.warm.cut_rounds, y.warm.cut_rounds);
            assert_eq!(x.warm.pool_hits, y.warm.pool_hits);
            assert_eq!(x.warm.pool_scans, y.warm.pool_scans);
            assert_eq!(x.warm.cuts_batched, y.warm.cuts_batched);
            assert_eq!(x.warm.seeds_pruned, y.warm.seeds_pruned);
        }
    }
}
