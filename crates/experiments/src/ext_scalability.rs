//! Extension: wall-clock scalability of the solvers.
//!
//! The paper never reports runtimes. This table shows how the
//! implementations scale with network size on `G(n, 0.7)` instances. Each
//! cell is one timed run, so it is the quick human-readable view; the
//! repository benchmark (`perfbench/`) times the solver layers with
//! repeats.

use crate::table::{f, Table};
use mrlc_core::{
    lagrangian_dbmst, solve_exact, solve_ira, ExactConfig, ExactOutcome, IraConfig,
    LagrangianConfig, MrlcInstance,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wsn_baselines::{aaml_tree, AamlConfig};
use wsn_model::{lifetime, EnergyModel};
use wsn_testbed::{random_graph, RandomGraphConfig};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Instances averaged per size.
    pub repeats: usize,
    /// Largest size the exact solver attempts.
    pub exact_limit: usize,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { sizes: vec![8, 12, 16, 24, 32], repeats: 3, exact_limit: 14, base_seed: 8400 }
    }
}

impl Config {
    /// Reduced workload for tests.
    pub fn fast() -> Self {
        Config { sizes: vec![8, 12], repeats: 1, ..Config::default() }
    }
}

/// Mean runtimes (milliseconds) per size.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Network size.
    pub n: usize,
    /// AAML mean ms.
    pub aaml_ms: f64,
    /// IRA mean ms.
    pub ira_ms: f64,
    /// Lagrangian mean ms.
    pub lagrangian_ms: f64,
    /// Exact mean ms (NaN beyond `exact_limit`).
    pub exact_ms: f64,
}

/// Runs the sweep.
pub fn run(config: &Config) -> Vec<Row> {
    config
        .sizes
        .iter()
        .map(|&n| {
            let mut acc = [0.0f64; 4];
            let mut exact_runs = 0usize;
            for r in 0..config.repeats {
                let mut rng = StdRng::seed_from_u64(config.base_seed + (n * 1000 + r) as u64);
                let net = random_graph(
                    &RandomGraphConfig { n, ..RandomGraphConfig::default() },
                    &mut rng,
                )
                .expect("connected instance");
                let model = EnergyModel::PAPER;
                let lc = lifetime::node_lifetime(3000.0, &model, 3) * 0.999;
                let inst = MrlcInstance::new(net.clone(), model, lc).unwrap();

                let t0 = Instant::now();
                let _ = aaml_tree(&net, &model, None, &AamlConfig::default());
                acc[0] += t0.elapsed().as_secs_f64() * 1e3;

                let t0 = Instant::now();
                let _ = solve_ira(&inst, &IraConfig::default());
                acc[1] += t0.elapsed().as_secs_f64() * 1e3;

                let t0 = Instant::now();
                let _ = lagrangian_dbmst(&inst, &LagrangianConfig::default());
                acc[2] += t0.elapsed().as_secs_f64() * 1e3;

                if n <= config.exact_limit {
                    let t0 = Instant::now();
                    if let ExactOutcome::Optimal { .. } | ExactOutcome::Infeasible { .. } =
                        solve_exact(&inst, &ExactConfig::default())
                    {
                        acc[3] += t0.elapsed().as_secs_f64() * 1e3;
                        exact_runs += 1;
                    }
                }
            }
            let k = config.repeats as f64;
            Row {
                n,
                aaml_ms: acc[0] / k,
                ira_ms: acc[1] / k,
                lagrangian_ms: acc[2] / k,
                exact_ms: if exact_runs > 0 { acc[3] / exact_runs as f64 } else { f64::NAN },
            }
        })
        .collect()
}

/// Renders the runtime table.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(["n", "AAML (ms)", "IRA (ms)", "Lagrangian (ms)", "exact (ms)"]);
    for r in rows {
        t.push([
            r.n.to_string(),
            f(r.aaml_ms, 2),
            f(r.ira_ms, 2),
            f(r.lagrangian_ms, 2),
            f(r.exact_ms, 2),
        ]);
    }
    format!("Extension — wall-clock scalability (means over repeats)\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_solvers_complete_at_each_size() {
        let rows = run(&Config::fast());
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.aaml_ms >= 0.0 && r.aaml_ms.is_finite());
            assert!(r.ira_ms > 0.0 && r.ira_ms.is_finite());
            assert!(r.lagrangian_ms > 0.0 && r.lagrangian_ms.is_finite());
            assert!(r.exact_ms.is_finite(), "exact within the limit at n = {}", r.n);
        }
    }

    #[test]
    fn render_is_one_row_per_size() {
        let cfg = Config::fast();
        assert_eq!(render(&run(&cfg)).lines().count(), cfg.sizes.len() + 3);
    }
}
