//! Extension: three ways to solve MRLC, head to head.
//!
//! * **IRA** — the paper's LP-based iterative relaxation;
//! * **Lagrangian** — subgradient dual ascent with MST oracles and greedy
//!   cap repair (the classical OR approach to degree-bounded trees);
//! * **Exact** — branch-and-bound ground truth.
//!
//! Beyond solution quality, the Lagrangian dual and the exact optimum
//! bracket IRA from below, exposing how much of the LP machinery the
//! problem actually needs.

use crate::table::{f, Table};
use mrlc_core::{
    lagrangian_dbmst, solve_exact, solve_ira, ExactConfig, ExactOutcome, IraConfig,
    LagrangianConfig, MrlcInstance,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wsn_model::{lifetime, EnergyModel, PaperCost};
use wsn_testbed::{random_graph, RandomGraphConfig};
use wsn_util::parallel_map;

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Instances.
    pub instances: usize,
    /// Nodes per instance.
    pub n: usize,
    /// Children bound defining LC.
    pub children_at_lc: usize,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { instances: 25, n: 12, children_at_lc: 3, base_seed: 7300 }
    }
}

impl Config {
    /// Reduced workload for tests.
    pub fn fast() -> Self {
        Config { instances: 6, n: 10, ..Config::default() }
    }
}

/// Per-instance costs in paper units (NaN where a solver produced nothing).
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Instance index.
    pub instance: usize,
    /// IRA cost.
    pub ira: f64,
    /// Lagrangian incumbent cost.
    pub lagrangian: f64,
    /// Lagrangian dual lower bound.
    pub dual_bound: f64,
    /// Exact optimum.
    pub exact: f64,
}

/// Runs the comparison.
pub fn run(config: &Config) -> Vec<Row> {
    let cfg = *config;
    parallel_map(cfg.instances, move |i| {
        let mut rng = StdRng::seed_from_u64(cfg.base_seed + i as u64);
        let gcfg =
            RandomGraphConfig { n: cfg.n, link_probability: 0.5, ..RandomGraphConfig::default() };
        let net = random_graph(&gcfg, &mut rng).expect("connected instance");
        let model = EnergyModel::PAPER;
        let lc =
            lifetime::node_lifetime(net.min_initial_energy(), &model, cfg.children_at_lc) * 0.999;
        let inst = MrlcInstance::new(net, model, lc).unwrap();

        let ira = solve_ira(&inst, &IraConfig::default())
            .map(|s| PaperCost::from_nat(s.cost).0)
            .unwrap_or(f64::NAN);
        let lag = lagrangian_dbmst(&inst, &LagrangianConfig::default());
        let exact = match solve_exact(&inst, &ExactConfig::default()) {
            ExactOutcome::Optimal { cost, .. } => PaperCost::from_nat(cost).0,
            _ => f64::NAN,
        };
        Row {
            instance: i,
            ira,
            lagrangian: if lag.best_tree.is_some() {
                PaperCost::from_nat(lag.best_cost).0
            } else {
                f64::NAN
            },
            dual_bound: PaperCost::from_nat(lag.lower_bound).0,
            exact,
        }
    })
}

/// Renders the comparison with aggregate quality figures.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(["instance", "IRA", "Lagrangian", "dual bound", "exact OPT"]);
    for r in rows {
        t.push([
            r.instance.to_string(),
            f(r.ira, 2),
            f(r.lagrangian, 2),
            f(r.dual_bound, 2),
            f(r.exact, 2),
        ]);
    }
    let closed: Vec<&Row> = rows
        .iter()
        .filter(|r| r.exact.is_finite() && r.ira.is_finite() && r.lagrangian.is_finite())
        .collect();
    let mean =
        |sel: fn(&&Row) -> f64| closed.iter().map(sel).sum::<f64>() / closed.len().max(1) as f64;
    format!(
        "Extension — solver comparison (IRA vs. Lagrangian vs. exact)\n{}\n\
         over {} fully-solved instances: IRA/OPT = {:.4}, Lagrangian/OPT = {:.4}, dual/OPT = {:.4}\n",
        t.render(),
        closed.len(),
        mean(|r| r.ira) / mean(|r| r.exact),
        mean(|r| r.lagrangian) / mean(|r| r.exact),
        mean(|r| r.dual_bound) / mean(|r| r.exact),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sandwich_holds_on_every_instance() {
        let rows = run(&Config::fast());
        for r in &rows {
            if r.exact.is_finite() {
                if r.dual_bound.is_finite() {
                    assert!(
                        r.dual_bound <= r.exact + 1e-6,
                        "instance {}: dual {} above OPT {}",
                        r.instance,
                        r.dual_bound,
                        r.exact
                    );
                }
                for (name, v) in [("IRA", r.ira), ("Lagrangian", r.lagrangian)] {
                    if v.is_finite() {
                        assert!(
                            v >= r.exact - 1e-6,
                            "instance {}: {name} {} beat OPT {}",
                            r.instance,
                            v,
                            r.exact
                        );
                    }
                }
            }
        }
        // Both heuristics should solve most instances.
        let ira_ok = rows.iter().filter(|r| r.ira.is_finite()).count();
        let lag_ok = rows.iter().filter(|r| r.lagrangian.is_finite()).count();
        assert!(ira_ok >= 5, "IRA solved only {ira_ok}/6");
        assert!(lag_ok >= 4, "Lagrangian solved only {lag_ok}/6");
    }

    #[test]
    fn render_reports_ratios() {
        let text = render(&run(&Config { instances: 3, ..Config::fast() }));
        assert!(text.contains("IRA/OPT"));
        assert!(text.contains("dual/OPT"));
    }
}
