//! Exact MRLC solver by combinatorial branch-and-bound.
//!
//! MRLC is NP-complete, so this is exponential in the worst case — but for
//! evaluation-scale instances (the paper's n = 16) it closes quickly and
//! provides the ground truth IRA's approximation guarantee is measured
//! against (the optimality-gap experiment).
//!
//! Search: edges sorted by cost ascending, include/exclude branching with
//! three prunes —
//!
//! * **degree caps**: `L(v) ≥ LC` with integer children counts is exactly
//!   `deg_T(v) ≤ ⌊(I(v)/LC − Tx)/Rx⌋ + [v ≠ sink]`;
//! * **connectivity**: the not-yet-excluded edges must still be able to
//!   span the remaining components;
//! * **cost bound**: partial cost plus the MST completion over the
//!   remaining edges (degree-free, hence a valid relaxation) must beat the
//!   incumbent.

use crate::problem::MrlcInstance;
use wsn_graph::UnionFind;
use wsn_model::{lifetime, AggregationTree, NodeId};

/// Search budget.
#[derive(Clone, Copy, Debug)]
pub struct ExactConfig {
    /// Maximum branch-and-bound nodes explored before giving up.
    pub node_limit: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig { node_limit: 20_000_000 }
    }
}

/// Outcome of the exact search.
#[derive(Clone, Debug)]
pub enum ExactOutcome {
    /// The minimum-cost tree meeting `LC`, with its natural-log cost.
    Optimal {
        /// The optimal tree.
        tree: AggregationTree,
        /// Its natural-log cost.
        cost: f64,
        /// Branch-and-bound nodes explored.
        nodes: u64,
    },
    /// No spanning tree satisfies the lifetime bound.
    Infeasible {
        /// Branch-and-bound nodes explored.
        nodes: u64,
    },
    /// The node budget ran out before the search closed.
    NodeLimit,
}

struct Search<'a> {
    edges: Vec<(usize, usize, f64, usize)>, // (u, v, cost, network edge idx)
    n: usize,
    caps: Vec<usize>, // max tree degree per node
    best_cost: f64,
    best_edges: Option<Vec<usize>>,
    nodes: u64,
    limit: u64,
    inst: &'a MrlcInstance,
}

impl Search<'_> {
    /// Degree-free MST completion over `edges[from..]` starting from the
    /// partial forest `uf` — a lower bound on any feasible completion.
    fn completion_bound(&self, from: usize, uf: &UnionFind) -> Option<f64> {
        let mut uf = uf.clone();
        let mut bound = 0.0;
        let mut needed = uf.num_components() - 1;
        if needed == 0 {
            return Some(0.0);
        }
        for &(u, v, c, _) in &self.edges[from..] {
            if uf.union(u, v) {
                bound += c;
                needed -= 1;
                if needed == 0 {
                    return Some(bound);
                }
            }
        }
        None // cannot even span without the excluded edges
    }

    fn dfs(
        &mut self,
        idx: usize,
        chosen: &mut Vec<usize>,
        deg: &mut [usize],
        uf: &UnionFind,
        cost: f64,
    ) -> bool {
        self.nodes += 1;
        if self.nodes > self.limit {
            return false; // budget exhausted; propagate
        }
        if chosen.len() == self.n - 1 {
            if cost < self.best_cost - 1e-12 {
                self.best_cost = cost;
                self.best_edges = Some(chosen.clone());
            }
            return true;
        }
        if idx >= self.edges.len() {
            return true;
        }
        // Cost bound (also certifies connectivity is still possible).
        match self.completion_bound(idx, uf) {
            Some(b) if cost + b < self.best_cost - 1e-12 => {}
            _ => return true, // pruned
        }

        let (u, v, c, _) = self.edges[idx];
        // Branch 1: include (if acyclic and within degree caps).
        if deg[u] < self.caps[u] && deg[v] < self.caps[v] {
            let mut uf2 = uf.clone();
            if uf2.union(u, v) {
                chosen.push(idx);
                deg[u] += 1;
                deg[v] += 1;
                let ok = self.dfs(idx + 1, chosen, deg, &uf2, cost + c);
                deg[u] -= 1;
                deg[v] -= 1;
                chosen.pop();
                if !ok {
                    return false;
                }
            }
        }
        // Branch 2: exclude.
        self.dfs(idx + 1, chosen, deg, uf, cost)
    }
}

/// Runs the exact search.
pub fn solve_exact(inst: &MrlcInstance, config: &ExactConfig) -> ExactOutcome {
    let net = inst.network();
    let model = inst.model();
    let n = net.n();
    if n == 1 {
        let tree = AggregationTree::from_parents(NodeId::SINK, vec![None])
            .expect("the single-node tree is always valid");
        return ExactOutcome::Optimal { tree, cost: 0.0, nodes: 0 };
    }

    // Integer degree caps implied by LC.
    let mut caps = Vec::with_capacity(n);
    for i in 0..n {
        let v = NodeId::new(i);
        let cb = lifetime::children_bound(net.initial_energy(v), model, inst.lc());
        let max_children = if cb < -1e-9 {
            return ExactOutcome::Infeasible { nodes: 0 };
        } else {
            (cb + 1e-9).floor() as usize
        };
        let cap = max_children + usize::from(v != NodeId::SINK);
        if cap == 0 {
            return ExactOutcome::Infeasible { nodes: 0 };
        }
        caps.push(cap.min(n - 1));
    }

    let mut edges: Vec<(usize, usize, f64, usize)> =
        net.edges().map(|(e, l)| (l.u().index(), l.v().index(), l.cost(), e.index())).collect();
    // total_cmp: costs are finite by construction, but a NaN-perturbed
    // instance must degrade (wrong order, still a valid tree) — not panic.
    edges.sort_by(|a, b| a.2.total_cmp(&b.2));

    let mut search = Search {
        edges,
        n,
        caps,
        best_cost: f64::INFINITY,
        best_edges: None,
        nodes: 0,
        limit: config.node_limit,
        inst,
    };
    let mut chosen = Vec::with_capacity(n - 1);
    let mut deg = vec![0usize; n];
    let uf = UnionFind::new(n);
    let closed = search.dfs(0, &mut chosen, &mut deg, &uf, 0.0);
    if !closed {
        return ExactOutcome::NodeLimit;
    }
    match search.best_edges {
        Some(idxs) => {
            let tree_edges: Vec<(NodeId, NodeId)> = idxs
                .iter()
                .map(|&i| {
                    let (u, v, _, _) = search.edges[i];
                    (NodeId::new(u), NodeId::new(v))
                })
                .collect();
            let tree = AggregationTree::from_edges(NodeId::SINK, n, &tree_edges)
                .expect("search invariants guarantee a spanning tree");
            debug_assert!(
                search.inst.meets_lifetime(&tree),
                "degree caps must imply the lifetime bound"
            );
            ExactOutcome::Optimal { tree, cost: search.best_cost, nodes: search.nodes }
        }
        None => ExactOutcome::Infeasible { nodes: search.nodes },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ira::{solve_ira, IraConfig};
    use wsn_model::{EnergyModel, NetworkBuilder};

    fn starry(n: usize) -> wsn_model::Network {
        let mut b = NetworkBuilder::new(n);
        for v in 1..n {
            b.add_edge(0, v, 0.99).unwrap();
        }
        for u in 1..n {
            for v in u + 1..n {
                b.add_edge(u, v, 0.90).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// All spanning trees by brute force.
    fn brute_opt(inst: &MrlcInstance) -> Option<f64> {
        let net = inst.network();
        let n = net.n();
        let m = net.num_edges();
        assert!(m <= 22);
        let mut best: Option<f64> = None;
        for mask in 0u32..(1 << m) {
            if mask.count_ones() as usize != n - 1 {
                continue;
            }
            let edges: Vec<(NodeId, NodeId)> = (0..m)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| net.links()[i].endpoints())
                .collect();
            if let Ok(tree) = AggregationTree::from_edges(NodeId::SINK, n, &edges) {
                if inst.meets_lifetime(&tree) {
                    let c = inst.cost(&tree);
                    best = Some(best.map_or(c, |b: f64| b.min(c)));
                }
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_constrained_star() {
        let net = starry(6);
        let model = EnergyModel::PAPER;
        let lc = lifetime::node_lifetime(3000.0, &model, 2) * 0.999;
        let inst = MrlcInstance::new(net, model, lc).unwrap();
        let brute = brute_opt(&inst).unwrap();
        match solve_exact(&inst, &ExactConfig::default()) {
            ExactOutcome::Optimal { cost, tree, .. } => {
                assert!((cost - brute).abs() < 1e-9, "exact {cost} vs brute {brute}");
                assert!(inst.meets_lifetime(&tree));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn detects_infeasibility() {
        let net = starry(5);
        let model = EnergyModel::PAPER;
        let lc = 3000.0 / model.tx * 2.0; // beyond any leaf's lifetime
        let inst = MrlcInstance::new(net, model, lc).unwrap();
        assert!(matches!(
            solve_exact(&inst, &ExactConfig::default()),
            ExactOutcome::Infeasible { .. }
        ));
    }

    #[test]
    fn unconstrained_equals_mst() {
        let net = starry(6);
        let inst = MrlcInstance::new(net.clone(), EnergyModel::PAPER, 10.0).unwrap();
        let mst = wsn_graph::mst_tree(&net).unwrap();
        match solve_exact(&inst, &ExactConfig::default()) {
            ExactOutcome::Optimal { cost, .. } => {
                assert!((cost - inst.cost(&mst)).abs() < 1e-9);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn node_limit_respected() {
        let net = starry(8);
        let model = EnergyModel::PAPER;
        let lc = lifetime::node_lifetime(3000.0, &model, 2) * 0.999;
        let inst = MrlcInstance::new(net, model, lc).unwrap();
        match solve_exact(&inst, &ExactConfig { node_limit: 3 }) {
            ExactOutcome::NodeLimit => {}
            other => panic!("expected NodeLimit, got {other:?}"),
        }
    }

    #[test]
    fn sandwiches_ira() {
        // OPT(LC) ≤ C(IRA) ≤ OPT(L'): the exact solver at both bounds
        // brackets IRA — the optimality-gap experiment's core identity.
        let net = starry(7);
        let model = EnergyModel::PAPER;
        let lc = lifetime::node_lifetime(3000.0, &model, 4) * 0.999;
        let inst = MrlcInstance::new(net, model, lc).unwrap();
        let ira = solve_ira(&inst, &IraConfig::default()).unwrap();
        let ExactOutcome::Optimal { cost: opt_lc, .. } =
            solve_exact(&inst, &ExactConfig::default())
        else {
            panic!("feasible by construction")
        };
        assert!(ira.cost >= opt_lc - 1e-9, "IRA {} below OPT {}", ira.cost, opt_lc);
        let inst_lp =
            MrlcInstance::new(inst.network().clone(), *inst.model(), ira.stats.l_prime).unwrap();
        match solve_exact(&inst_lp, &ExactConfig::default()) {
            ExactOutcome::Optimal { cost: opt_lp, .. } => {
                assert!(ira.cost <= opt_lp + 1e-9, "IRA {} above OPT(L') {}", ira.cost, opt_lp);
            }
            // L' can be integrally infeasible even when the LP was not.
            ExactOutcome::Infeasible { .. } => {}
            ExactOutcome::NodeLimit => panic!("tiny instance must close"),
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn exact_matches_brute_force(
                n in 4usize..7,
                spine_q in proptest::collection::vec(60u32..100, 6),
                extra in proptest::collection::vec((0usize..7, 0usize..7, 60u32..100), 0..8),
                k in 1usize..4,
            ) {
                let mut b = NetworkBuilder::new(n);
                for (i, &q) in spine_q.iter().enumerate().take(n - 1) {
                    b.add_edge(i, i + 1, q as f64 / 100.0).unwrap();
                }
                for (u, v, q) in extra {
                    if u < n && v < n && u != v {
                        let _ = b.add_edge(u, v, q as f64 / 100.0);
                    }
                }
                let net = b.build().unwrap();
                prop_assume!(net.num_edges() <= 20);
                let model = EnergyModel::PAPER;
                let lc = lifetime::node_lifetime(3000.0, &model, k) * 0.999;
                let inst = MrlcInstance::new(net, model, lc).unwrap();
                let brute = brute_opt(&inst);
                match solve_exact(&inst, &ExactConfig::default()) {
                    ExactOutcome::Optimal { cost, tree, .. } => {
                        let b = brute.expect("brute force must agree on feasibility");
                        prop_assert!((cost - b).abs() < 1e-9,
                            "exact {cost} vs brute {b}");
                        prop_assert!(inst.meets_lifetime(&tree));
                    }
                    ExactOutcome::Infeasible { .. } => {
                        prop_assert!(brute.is_none(),
                            "exact says infeasible but brute found {brute:?}");
                    }
                    ExactOutcome::NodeLimit => {
                        prop_assert!(false, "tiny instance hit the node limit");
                    }
                }
            }
        }
    }

    #[test]
    fn single_node() {
        let mut b = NetworkBuilder::new(1);
        b.set_uniform_energy(3000.0).unwrap();
        let inst = MrlcInstance::new(b.build().unwrap(), EnergyModel::PAPER, 1e6).unwrap();
        assert!(matches!(
            solve_exact(&inst, &ExactConfig::default()),
            ExactOutcome::Optimal { cost, .. } if cost == 0.0
        ));
    }
}
