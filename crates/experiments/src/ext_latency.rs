//! Extension: the latency cost of lifetime/reliability optimization.
//!
//! Related work (Shen et al., §II) constrains delay; MRLC does not. This
//! experiment quantifies what IRA's trees give up in aggregation latency
//! (tree depth under ideal scheduling) relative to SPT/MST/AAML across
//! random instances.

use crate::table::{f, Table};
use crate::workloads::{aaml_paper_protocol, ira_at};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wsn_baselines::{mst, spt};
use wsn_model::EnergyModel;
use wsn_sim::{greedy_schedule, mean_hop_distance, round_latency_slots};
use wsn_testbed::{random_graph, RandomGraphConfig};
use wsn_util::parallel_map;

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Instances.
    pub instances: usize,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { instances: 40, base_seed: 5100 }
    }
}

impl Config {
    /// Reduced workload for tests.
    pub fn fast() -> Self {
        Config { instances: 6, ..Config::default() }
    }
}

/// Mean latency metrics per scheme.
#[derive(Clone, Debug)]
pub struct Row {
    /// Scheme name.
    pub scheme: String,
    /// Mean tree depth (ideal round latency in slots).
    pub mean_depth: f64,
    /// Mean of per-node hop distances.
    pub mean_hops: f64,
    /// Mean interference-aware TDMA schedule length.
    pub mean_tdma: f64,
}

/// Runs the comparison.
pub fn run(config: &Config) -> Vec<Row> {
    let cfg = *config;
    let per_instance = parallel_map(cfg.instances, move |i| {
        let mut rng = StdRng::seed_from_u64(cfg.base_seed + i as u64);
        let net = random_graph(&RandomGraphConfig::default(), &mut rng).expect("connected");
        let model = EnergyModel::PAPER;
        let aaml = aaml_paper_protocol(&net, &model).expect("AAML runs");
        let ira = ira_at(&net, model, aaml.lifetime).expect("feasible at L_AAML");
        let mst_t = mst(&net).expect("connected");
        let spt_t = spt(&net).expect("connected");
        [("AAML", aaml.tree), ("IRA", ira.tree), ("MST", mst_t), ("SPT", spt_t)].map(|(name, t)| {
            (
                name,
                round_latency_slots(&t) as f64,
                mean_hop_distance(&t),
                greedy_schedule(&net, &t).length() as f64,
            )
        })
    });
    let schemes = ["AAML", "IRA", "MST", "SPT"];
    schemes
        .iter()
        .enumerate()
        .map(|(k, &scheme)| {
            let depth: f64 =
                per_instance.iter().map(|r| r[k].1).sum::<f64>() / cfg.instances as f64;
            let hops: f64 = per_instance.iter().map(|r| r[k].2).sum::<f64>() / cfg.instances as f64;
            let tdma: f64 = per_instance.iter().map(|r| r[k].3).sum::<f64>() / cfg.instances as f64;
            Row { scheme: scheme.to_string(), mean_depth: depth, mean_hops: hops, mean_tdma: tdma }
        })
        .collect()
}

/// Renders the latency table.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(["scheme", "mean depth (slots)", "mean hops", "mean TDMA length"]);
    for r in rows {
        t.push([r.scheme.clone(), f(r.mean_depth, 2), f(r.mean_hops, 2), f(r.mean_tdma, 2)]);
    }
    format!("Extension — aggregation latency of the candidate trees\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spt_is_the_latency_winner_and_ira_pays_for_lifetime() {
        let rows = run(&Config { instances: 10, ..Config::default() });
        let by = |name: &str| rows.iter().find(|r| r.scheme == name).unwrap();
        // SPT minimizes path costs and, on q ∈ (0.95, 1) graphs, is shallow.
        assert!(by("SPT").mean_depth <= by("IRA").mean_depth + 1e-9);
        // IRA at L_AAML spreads children thin, which deepens the tree.
        assert!(by("IRA").mean_depth >= by("MST").mean_depth - 1e-9);
        for r in &rows {
            assert!(r.mean_depth >= 1.0);
            assert!(r.mean_hops > 0.0);
            // The interference-aware schedule is never shorter than the
            // causality floor (tree depth).
            assert!(r.mean_tdma >= r.mean_depth - 1e-9);
        }
    }

    #[test]
    fn render_lists_all_schemes() {
        let text = render(&run(&Config::fast()));
        for s in ["AAML", "IRA", "MST", "SPT"] {
            assert!(text.contains(s));
        }
    }
}
