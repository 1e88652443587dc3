//! Extension: the schemes on *spatially embedded* networks.
//!
//! §VII-B's `G(n, p)` draws link quality independently of topology; in a
//! geometric deployment long links are weak links, which punishes
//! quality-blind tree construction even harder. This experiment reruns the
//! Fig. 8 comparison on random geometric deployments.

use crate::table::{f, Table};
use crate::workloads::{aaml_paper_protocol, ira_at, paper_cost};
use wsn_model::{reliability, EnergyModel};
use wsn_radio::LinkModel;
use wsn_testbed::{geometric_deployment, GeometricConfig};
use wsn_util::parallel_map;

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Deployments to sample.
    pub instances: usize,
    /// Geometric scenario parameters.
    pub geometry: GeometricConfig,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            instances: 40,
            // A wider area than the default pushes more links into the
            // transitional region, where quality-blindness really hurts.
            geometry: GeometricConfig { side_m: 9.0, ..GeometricConfig::default() },
            base_seed: 6200,
        }
    }
}

impl Config {
    /// Reduced workload for tests.
    pub fn fast() -> Self {
        Config { instances: 6, ..Config::default() }
    }
}

/// Per-instance results.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Instance index.
    pub instance: usize,
    /// AAML cost (paper units) and reliability.
    pub aaml: (f64, f64),
    /// IRA (at `L_AAML`) cost and reliability.
    pub ira: (f64, f64),
    /// MST cost and reliability.
    pub mst: (f64, f64),
}

/// Runs the spatial comparison.
pub fn run(config: &Config) -> Vec<Row> {
    let cfg = *config;
    parallel_map(cfg.instances, move |i| {
        let dep =
            geometric_deployment(&cfg.geometry, &LinkModel::default(), cfg.base_seed + i as u64)
                .expect("connected deployment");
        let net = dep.network;
        let model = EnergyModel::PAPER;
        let aaml = aaml_paper_protocol(&net, &model).expect("AAML runs");
        let ira = ira_at(&net, model, aaml.lifetime).expect("feasible at LC");
        let mst = wsn_baselines::mst(&net).expect("connected");
        Row {
            instance: i,
            aaml: (paper_cost(&net, &aaml.tree), reliability::tree_reliability(&net, &aaml.tree)),
            ira: (paper_cost(&net, &ira.tree), ira.reliability),
            mst: (paper_cost(&net, &mst), reliability::tree_reliability(&net, &mst)),
        }
    })
}

/// Renders the spatial table plus means.
pub fn render(rows: &[Row]) -> String {
    let mut t =
        Table::new(["instance", "AAML cost", "IRA cost", "MST cost", "AAML rel", "IRA rel"]);
    for r in rows {
        t.push([
            r.instance.to_string(),
            f(r.aaml.0, 1),
            f(r.ira.0, 1),
            f(r.mst.0, 1),
            f(r.aaml.1, 3),
            f(r.ira.1, 3),
        ]);
    }
    let mean = |sel: fn(&Row) -> f64| rows.iter().map(sel).sum::<f64>() / rows.len().max(1) as f64;
    format!(
        "Extension — geometric deployments (quality follows distance)\n{}\n\
         means: AAML rel {:.3} vs IRA rel {:.3} (cost ratio IRA/AAML = {:.2})\n",
        t.render(),
        mean(|r| r.aaml.1),
        mean(|r| r.ira.1),
        mean(|r| r.ira.0) / mean(|r| r.aaml.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_gap_is_at_least_as_dramatic() {
        let rows = run(&Config { instances: 8, ..Config::default() });
        let mean_aaml_rel: f64 = rows.iter().map(|r| r.aaml.1).sum::<f64>() / 8.0;
        let mean_ira_rel: f64 = rows.iter().map(|r| r.ira.1).sum::<f64>() / 8.0;
        // On geometric networks AAML's quality-blindness costs real
        // reliability even though the paper's q ≥ 0.95 pre-filter shields
        // it from the worst links; IRA keeps a consistent lead.
        assert!(
            mean_ira_rel > mean_aaml_rel + 0.01,
            "IRA {mean_ira_rel:.3} vs AAML {mean_aaml_rel:.3}"
        );
        let mean_ira_cost: f64 = rows.iter().map(|r| r.ira.0).sum::<f64>() / 8.0;
        let mean_aaml_cost: f64 = rows.iter().map(|r| r.aaml.0).sum::<f64>() / 8.0;
        assert!(
            mean_ira_cost < 0.5 * mean_aaml_cost,
            "cost ratio {:.2}",
            mean_ira_cost / mean_aaml_cost
        );
        for r in &rows {
            assert!(r.mst.0 <= r.ira.0 + 1e-6, "MST is the cost floor");
        }
    }

    #[test]
    fn render_reports_means() {
        let text = render(&run(&Config::fast()));
        assert!(text.contains("means:"));
        assert!(text.contains("geometric"));
    }
}
