//! Dinic's maximum-flow algorithm with min-cut extraction.
//!
//! This is the engine behind the subtour-constraint separation oracle
//! (Theorem 1 / \[12\]): each separation query becomes a small s-t min-cut on
//! an auxiliary network with real-valued capacities.

/// Floating-point slack for capacity comparisons.
const EPS: f64 = 1e-12;

#[derive(Clone, Debug)]
struct FlowEdge {
    to: usize,
    cap: f64,
    /// Capacity as originally declared — [`FlowNetwork::reset`] restores it.
    cap0: f64,
    /// Index of the reverse edge in `edges`.
    rev: usize,
}

/// Handle to an edge added with [`FlowNetwork::add_edge`] /
/// [`FlowNetwork::add_undirected_edge`], usable with
/// [`FlowNetwork::set_cap`] to re-aim a reusable network between solves.
pub type FlowEdgeId = usize;

/// A directed flow network over dense node indices with `f64` capacities.
///
/// The network doubles as a reusable **scratch arena**: after a
/// [`FlowNetwork::max_flow`] call consumed the capacities,
/// [`FlowNetwork::reset`] restores them in place (no allocation), so one
/// network can serve many flow queries — the pattern the separation
/// oracle relies on. All working buffers
/// (BFS level/queue, DFS cursors, cut marks) are preallocated once.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    adj: Vec<Vec<usize>>,
    edges: Vec<FlowEdge>,
    level: Vec<i32>,
    iter: Vec<usize>,
    queue: Vec<usize>,
}

impl FlowNetwork {
    /// Creates an empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            level: vec![0; n],
            iter: vec![0; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed edge `u → v` with the given capacity (and a zero
    /// capacity reverse edge). Returns a handle for [`FlowNetwork::set_cap`].
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64) -> FlowEdgeId {
        debug_assert!(cap >= 0.0 && (cap.is_finite() || cap == f64::INFINITY));
        let e1 = self.edges.len();
        self.edges.push(FlowEdge { to: v, cap, cap0: cap, rev: e1 + 1 });
        self.edges.push(FlowEdge { to: u, cap: 0.0, cap0: 0.0, rev: e1 });
        self.adj[u].push(e1);
        self.adj[v].push(e1 + 1);
        e1
    }

    /// Adds an undirected edge (capacity in both directions). Returns a
    /// handle for [`FlowNetwork::set_cap`] (forward direction).
    pub fn add_undirected_edge(&mut self, u: usize, v: usize, cap: f64) -> FlowEdgeId {
        debug_assert!(cap >= 0.0);
        let e1 = self.edges.len();
        self.edges.push(FlowEdge { to: v, cap, cap0: cap, rev: e1 + 1 });
        self.edges.push(FlowEdge { to: u, cap, cap0: cap, rev: e1 });
        self.adj[u].push(e1);
        self.adj[v].push(e1 + 1);
        e1
    }

    /// Overrides the *current* capacity of edge `id` (forward direction)
    /// without touching its declared capacity: the next
    /// [`FlowNetwork::reset`] reverts the override. This is how one
    /// reusable network serves per-seed queries — declare the seed edges
    /// with capacity 0, then raise one per solve.
    pub fn set_cap(&mut self, id: FlowEdgeId, cap: f64) {
        debug_assert!(cap >= 0.0 && (cap.is_finite() || cap == f64::INFINITY));
        self.edges[id].cap = cap;
    }

    /// Restores every edge to its declared capacity, undoing both flow
    /// consumption and [`FlowNetwork::set_cap`] overrides. O(edges), no
    /// allocation — the scratch API for solving many flows on one network.
    pub fn reset(&mut self) {
        for e in &mut self.edges {
            e.cap = e.cap0;
        }
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &ei in &self.adj[u] {
                let e = &self.edges[ei];
                if e.cap > EPS && self.level[e.to] < 0 {
                    self.level[e.to] = self.level[u] + 1;
                    self.queue.push(e.to);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, u: usize, t: usize, pushed: f64) -> f64 {
        if u == t {
            return pushed;
        }
        while self.iter[u] < self.adj[u].len() {
            let ei = self.adj[u][self.iter[u]];
            let (to, cap, rev) = {
                let e = &self.edges[ei];
                (e.to, e.cap, e.rev)
            };
            if cap > EPS && self.level[to] == self.level[u] + 1 {
                let d = self.dfs(to, t, pushed.min(cap));
                if d > EPS {
                    self.edges[ei].cap -= d;
                    self.edges[rev].cap += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0.0
    }

    /// Computes the maximum s→t flow. Capacities are consumed (the residual
    /// network remains for [`FlowNetwork::min_cut_source_side`]); call
    /// [`FlowNetwork::reset`] to restore them for another query.
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        assert_ne!(s, t, "source and sink must differ");
        let mut flow = 0.0;
        while self.bfs(s, t) {
            self.iter.fill(0);
            loop {
                let f = self.dfs(s, t, f64::INFINITY);
                if f <= EPS {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    /// After [`FlowNetwork::max_flow`], returns the source side of a minimum
    /// cut: all nodes reachable from `s` in the residual network.
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut side = vec![false; self.n()];
        let mut queue = Vec::with_capacity(self.n());
        self.cut_search(s, &mut side, &mut queue);
        side
    }

    /// Allocation-free variant of [`FlowNetwork::min_cut_source_side`]:
    /// marks the source side into the caller's buffer (resized/cleared
    /// here) and reuses the internal BFS queue.
    pub fn min_cut_source_side_into(&mut self, s: usize, side: &mut Vec<bool>) {
        side.clear();
        side.resize(self.n(), false);
        let mut queue = std::mem::take(&mut self.queue);
        self.cut_search(s, side, &mut queue);
        self.queue = queue;
    }

    fn cut_search(&self, s: usize, side: &mut [bool], queue: &mut Vec<usize>) {
        queue.clear();
        side[s] = true;
        queue.push(s);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &ei in &self.adj[u] {
                let e = &self.edges[ei];
                if e.cap > EPS && !side[e.to] {
                    side[e.to] = true;
                    queue.push(e.to);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_diamond() {
        // s=0 → {1,2} → t=3 with unit capacities; max flow 2.
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 1.0);
        f.add_edge(0, 2, 1.0);
        f.add_edge(1, 3, 1.0);
        f.add_edge(2, 3, 1.0);
        assert!((f.max_flow(0, 3) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_respected() {
        // 0 → 1 → 2 with capacities 5 then 3: flow 3.
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 5.0);
        f.add_edge(1, 2, 3.0);
        assert!((f.max_flow(0, 2) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn needs_augmenting_path_reversal() {
        // The classic case where a naive greedy gets stuck without residual
        // edges: two crossing paths.
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 1.0);
        f.add_edge(0, 2, 1.0);
        f.add_edge(1, 2, 1.0);
        f.add_edge(1, 3, 1.0);
        f.add_edge(2, 3, 1.0);
        assert!((f.max_flow(0, 3) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn min_cut_separates_s_from_t() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 2.0);
        f.add_edge(1, 2, 1.0); // bottleneck
        f.add_edge(2, 3, 2.0);
        let flow = f.max_flow(0, 3);
        assert!((flow - 1.0).abs() < 1e-9);
        let side = f.min_cut_source_side(0);
        assert!(side[0] && side[1]);
        assert!(!side[2] && !side[3]);
    }

    #[test]
    fn undirected_edges_carry_both_ways() {
        let mut f = FlowNetwork::new(3);
        f.add_undirected_edge(0, 1, 1.0);
        f.add_undirected_edge(1, 2, 1.0);
        assert!((f.max_flow(0, 2) - 1.0).abs() < 1e-9);
        // And reversed direction on a fresh network.
        let mut g = FlowNetwork::new(3);
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(1, 2, 1.0);
        assert!((g.max_flow(2, 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_gives_zero_flow() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 5.0);
        f.add_edge(2, 3, 5.0);
        assert_eq!(f.max_flow(0, 3), 0.0);
        let side = f.min_cut_source_side(0);
        assert!(side[0] && side[1] && !side[2] && !side[3]);
    }

    #[test]
    fn fractional_capacities() {
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 0.25);
        f.add_edge(0, 1, 0.5); // parallel edge
        f.add_edge(1, 2, 0.6);
        assert!((f.max_flow(0, 2) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn reset_restores_capacities_for_reuse() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 2.0);
        f.add_edge(1, 2, 1.0);
        f.add_edge(2, 3, 2.0);
        let first = f.max_flow(0, 3);
        // Residual is consumed: a second run on the same network sees none.
        assert!(f.max_flow(0, 3) < 1e-12);
        f.reset();
        let again = f.max_flow(0, 3);
        assert!((first - again).abs() < 1e-9, "{first} vs {again}");
    }

    #[test]
    fn set_cap_override_is_undone_by_reset() {
        // Seed-edge pattern: declare with capacity 0, raise per query.
        let mut f = FlowNetwork::new(3);
        let seed = f.add_edge(0, 1, 0.0);
        f.add_edge(1, 2, 5.0);
        assert_eq!(f.max_flow(0, 2), 0.0);
        f.reset();
        f.set_cap(seed, f64::INFINITY);
        assert!((f.max_flow(0, 2) - 5.0).abs() < 1e-9);
        f.reset();
        assert_eq!(f.max_flow(0, 2), 0.0);
    }

    #[test]
    fn cut_side_into_matches_allocating_variant() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 2.0);
        f.add_edge(1, 2, 1.0);
        f.add_edge(2, 3, 2.0);
        f.max_flow(0, 3);
        let side = f.min_cut_source_side(0);
        let mut buf = Vec::new();
        f.min_cut_source_side_into(0, &mut buf);
        assert_eq!(side, buf);
    }

    #[test]
    #[should_panic(expected = "source and sink must differ")]
    fn same_source_sink_panics() {
        let mut f = FlowNetwork::new(2);
        f.add_edge(0, 1, 1.0);
        f.max_flow(0, 0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Brute-force min cut by enumerating all subsets containing s and
        /// excluding t (only for tiny n).
        fn brute_min_cut(n: usize, edges: &[(usize, usize, f64)], s: usize, t: usize) -> f64 {
            let mut best = f64::INFINITY;
            for mask in 0u32..(1 << n) {
                if mask & (1 << s) == 0 || mask & (1 << t) != 0 {
                    continue;
                }
                let mut cut = 0.0;
                for &(u, v, c) in edges {
                    if mask & (1 << u) != 0 && mask & (1 << v) == 0 {
                        cut += c;
                    }
                }
                best = best.min(cut);
            }
            best
        }

        proptest! {
            #[test]
            fn maxflow_equals_brute_mincut(
                edges in proptest::collection::vec((0usize..5, 0usize..5, 0u32..20), 1..12)
            ) {
                let n = 5;
                let dir: Vec<(usize, usize, f64)> = edges
                    .into_iter()
                    .filter(|(u, v, _)| u != v)
                    .map(|(u, v, c)| (u, v, c as f64))
                    .collect();
                let mut f = FlowNetwork::new(n);
                for &(u, v, c) in &dir {
                    f.add_edge(u, v, c);
                }
                let flow = f.max_flow(0, n - 1);
                let cut = brute_min_cut(n, &dir, 0, n - 1);
                prop_assert!((flow - cut).abs() < 1e-6, "flow {flow} vs cut {cut}");
            }

            #[test]
            fn extracted_cut_value_matches_flow(
                edges in proptest::collection::vec((0usize..6, 0usize..6, 0u32..20), 1..15)
            ) {
                let n = 6;
                let dir: Vec<(usize, usize, f64)> = edges
                    .into_iter()
                    .filter(|(u, v, _)| u != v)
                    .map(|(u, v, c)| (u, v, c as f64))
                    .collect();
                let mut f = FlowNetwork::new(n);
                for &(u, v, c) in &dir {
                    f.add_edge(u, v, c);
                }
                let flow = f.max_flow(0, n - 1);
                let side = f.min_cut_source_side(0);
                prop_assert!(side[0]);
                prop_assert!(!side[n - 1]);
                let cut: f64 = dir
                    .iter()
                    .filter(|&&(u, v, _)| side[u] && !side[v])
                    .map(|&(_, _, c)| c)
                    .sum();
                prop_assert!((flow - cut).abs() < 1e-6, "flow {flow} vs extracted cut {cut}");
            }
        }
    }
}
