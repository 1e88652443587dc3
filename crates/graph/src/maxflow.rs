//! Dinic's maximum-flow algorithm with min-cut extraction.
//!
//! This is the engine behind the subtour-constraint separation oracle
//! (Theorem 1 / \[12\]): each separation query becomes a small s-t min-cut on
//! an auxiliary network with real-valued capacities. The queries of one
//! oracle call differ in a single arc, so the oracle solves the flow they
//! share once, keeps it ([`FlowNetwork::keep_flow`]) and starts every
//! query from it.
//!
//! The arcs live in flat arrays — head, residual and restore point — added
//! in pairs, so the reverse of arc `e` is `e ^ 1`, and each node lists its
//! arcs as `u32` indices. Each phase's BFS stops as soon as it labels the
//! sink: every augmenting path of the phase ends at the sink's level, so a
//! node at or past that level is a dead end whether it is labeled or not,
//! and the phase pushes the same paths in the same order as a full BFS
//! would. The last BFS of [`FlowNetwork::max_flow`] is the one that fails
//! to reach the sink, so it labels exactly the nodes the residual network
//! reaches from the source: the cut queries read the source side from it
//! instead of searching again, until an arc changes.

/// Floating-point slack for capacity comparisons.
const EPS: f64 = 1e-12;

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
/// oracle relies on. [`FlowNetwork::keep_flow`] moves the restore point
/// to the current residual, so every later query starts from the flow
/// kept there instead of from zero. All working buffers
/// (BFS level/queue, DFS cursors, cut marks) are preallocated once.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    /// Each node's arcs, in insertion order.
    adj: Vec<Vec<u32>>,
    /// Head of each arc; arc `e`'s reverse is `e ^ 1`.
    to: Vec<u32>,
    /// Residual capacity of each arc.
    cap: Vec<f64>,
    /// The restore point [`FlowNetwork::reset`] returns each arc to: the
    /// declared capacity, or the residual [`FlowNetwork::keep_flow`] last
    /// kept.
    cap0: Vec<f64>,
    level: Vec<i32>,
    iter: Vec<usize>,
    queue: Vec<usize>,
    /// The source whose residual reach `level` marks (`level ≥ 0`): set by
    /// [`FlowNetwork::max_flow`], cleared by every change to an arc.
    reach_of: Option<usize>,
}

impl FlowNetwork {
    /// Creates an empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            to: Vec::new(),
            cap: Vec::new(),
            cap0: Vec::new(),
            level: vec![0; n],
            iter: vec![0; n],
            queue: Vec::with_capacity(n),
            reach_of: None,
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
        self.add_pair(u, v, cap, 0.0)
    }

    /// Adds an undirected edge (capacity in both directions). Returns a
    /// handle for [`FlowNetwork::set_cap`] (forward direction).
    pub fn add_undirected_edge(&mut self, u: usize, v: usize, cap: f64) -> FlowEdgeId {
        debug_assert!(cap >= 0.0);
        self.add_pair(u, v, cap, cap)
    }

    /// Adds arc `u → v` at `cap` and its reverse at `back`.
    fn add_pair(&mut self, u: usize, v: usize, cap: f64, back: f64) -> FlowEdgeId {
        let e = self.to.len();
        self.to.extend([v as u32, u as u32]);
        self.cap.extend([cap, back]);
        self.cap0.extend([cap, back]);
        self.adj[u].push(e as u32);
        self.adj[v].push(e as u32 + 1);
        self.reach_of = None;
        e
    }

    /// Overrides the *current* residual capacity of edge `id` (forward
    /// direction) without touching its restore point: the next
    /// [`FlowNetwork::reset`] reverts the override to the declared or kept
    /// state. This is how one reusable network serves per-seed queries —
    /// declare the seed edges with capacity 0, then raise one per solve.
    /// An edge that carries no flow, such as one declared at 0, has its
    /// capacity as its residual, so raising it is exact after a
    /// [`FlowNetwork::keep_flow`] too.
    pub fn set_cap(&mut self, id: FlowEdgeId, cap: f64) {
        debug_assert!(cap >= 0.0 && (cap.is_finite() || cap == f64::INFINITY));
        self.cap[id] = cap;
        self.reach_of = None;
    }

    /// Restores every edge to its restore point — the declared capacity,
    /// or the residual of the last [`FlowNetwork::keep_flow`] — undoing
    /// both the flow pushed since and [`FlowNetwork::set_cap`] overrides.
    /// O(edges), no allocation — the scratch API for solving many flows
    /// on one network.
    pub fn reset(&mut self) {
        self.cap.copy_from_slice(&self.cap0);
        self.reach_of = None;
    }

    /// Makes the current residual the state [`FlowNetwork::reset`]
    /// restores: the flow pushed so far is kept, and every later query
    /// starts from it. After a maximum flow is kept, raising an arc and
    /// calling [`FlowNetwork::max_flow`] returns only the extra flow the
    /// raised arc admits; adding the kept value gives the new maximum.
    pub fn keep_flow(&mut self) {
        self.cap0.copy_from_slice(&self.cap);
    }

    /// Labels BFS levels from `s` over arcs with residual capacity, and
    /// stops as soon as `t` is labeled (module docs). `false` when `t` is
    /// out of reach, with every node the residual network reaches labeled.
    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let next = self.level[u] + 1;
            for &e in &self.adj[u] {
                let v = self.to[e as usize] as usize;
                if self.cap[e as usize] > EPS && self.level[v] < 0 {
                    self.level[v] = next;
                    if v == t {
                        return true;
                    }
                    self.queue.push(v);
                }
            }
        }
        false
    }

    fn dfs(&mut self, u: usize, t: usize, pushed: f64) -> f64 {
        if u == t {
            return pushed;
        }
        while self.iter[u] < self.adj[u].len() {
            let e = self.adj[u][self.iter[u]] as usize;
            let (to, cap) = (self.to[e] as usize, self.cap[e]);
            if cap > EPS && self.level[to] == self.level[u] + 1 {
                let d = self.dfs(to, t, pushed.min(cap));
                if d > EPS {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0.0
    }

    /// Computes the maximum s→t flow on the current residual network, so
    /// after a [`FlowNetwork::keep_flow`] it returns the flow on top of the
    /// kept one. Capacities are consumed (the residual network remains for
    /// [`FlowNetwork::min_cut_source_side`]); call [`FlowNetwork::reset`]
    /// to restore them for another query.
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
        self.reach_of = Some(s);
        flow
    }

    /// After [`FlowNetwork::max_flow`], returns the source side of a minimum
    /// cut: all nodes reachable from `s` in the residual network.
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut side = vec![false; self.n()];
        self.cut_side(s, &mut side, &mut Vec::new());
        side
    }

    /// Allocation-free variant of [`FlowNetwork::min_cut_source_side`]:
    /// marks the source side into the caller's buffer (resized/cleared
    /// here) and reuses the internal BFS queue.
    pub fn min_cut_source_side_into(&mut self, s: usize, side: &mut Vec<bool>) {
        side.clear();
        side.resize(self.n(), false);
        let mut queue = std::mem::take(&mut self.queue);
        self.cut_side(s, side, &mut queue);
        self.queue = queue;
    }

    /// Marks the nodes the residual network reaches from `s`: read from
    /// the levels of the last [`FlowNetwork::max_flow`] from `s` while no
    /// arc has changed since, searched for otherwise.
    fn cut_side(&self, s: usize, side: &mut [bool], queue: &mut Vec<usize>) {
        if self.reach_of == Some(s) {
            for (m, &l) in side.iter_mut().zip(&self.level) {
                *m = l >= 0;
            }
            return;
        }
        queue.clear();
        side[s] = true;
        queue.push(s);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &e in &self.adj[u] {
                let v = self.to[e as usize] as usize;
                if self.cap[e as usize] > EPS && !side[v] {
                    side[v] = true;
                    queue.push(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Dinic this module ran before its arcs went flat and its BFS
    /// stopped at the sink: adjacency lists of `usize` indices into one
    /// `Vec` of arc structs, a full BFS per phase and a fresh search for
    /// every cut. Kept as the oracle [`FlowNetwork`] must match bit for bit.
    struct Reference {
        adj: Vec<Vec<usize>>,
        edges: Vec<FlowEdge>,
        level: Vec<i32>,
        iter: Vec<usize>,
    }

    #[derive(Clone, Debug)]
    struct FlowEdge {
        to: usize,
        cap: f64,
        cap0: f64,
        rev: usize,
    }

    impl Reference {
        fn new(n: usize) -> Self {
            Reference {
                adj: vec![Vec::new(); n],
                edges: Vec::new(),
                level: vec![0; n],
                iter: vec![0; n],
            }
        }

        fn add_edge(&mut self, u: usize, v: usize, cap: f64, back: f64) -> usize {
            let e1 = self.edges.len();
            self.edges.push(FlowEdge { to: v, cap, cap0: cap, rev: e1 + 1 });
            self.edges.push(FlowEdge { to: u, cap: back, cap0: back, rev: e1 });
            self.adj[u].push(e1);
            self.adj[v].push(e1 + 1);
            e1
        }

        fn set_cap(&mut self, id: usize, cap: f64) {
            self.edges[id].cap = cap;
        }

        fn reset(&mut self) {
            for e in &mut self.edges {
                e.cap = e.cap0;
            }
        }

        fn keep_flow(&mut self) {
            for e in &mut self.edges {
                e.cap0 = e.cap;
            }
        }

        fn bfs(&mut self, s: usize, t: usize) -> bool {
            self.level.fill(-1);
            let mut queue = vec![s];
            self.level[s] = 0;
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &ei in &self.adj[u] {
                    let e = &self.edges[ei];
                    if e.cap > EPS && self.level[e.to] < 0 {
                        self.level[e.to] = self.level[u] + 1;
                        queue.push(e.to);
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

        fn max_flow(&mut self, s: usize, t: usize) -> f64 {
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

        fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
            let mut side = vec![false; self.adj.len()];
            let mut queue = vec![s];
            side[s] = true;
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
            side
        }
    }

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
    fn reset_after_keep_flow_restores_the_kept_residual() {
        // 0 → 1 → 3 saturates at 1; the seed arc 0 → 2 → 3 opens later.
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 2.0);
        f.add_edge(1, 3, 1.0);
        let seed = f.add_edge(0, 2, 0.0);
        f.add_edge(2, 3, 3.0);
        assert_eq!(f.max_flow(0, 3), 1.0);
        f.keep_flow();
        let kept = f.min_cut_source_side(0);
        assert_eq!(kept, vec![true, true, false, false]);
        // The kept flow is maximal, so nothing more fits until the seed opens.
        assert_eq!(f.max_flow(0, 3), 0.0);
        f.set_cap(seed, f64::INFINITY);
        assert_eq!(f.max_flow(0, 3), 3.0, "the extra flow through the seed");
        f.reset();
        assert_eq!(f.min_cut_source_side(0), kept, "reset returns to the kept state");
        assert_eq!(f.max_flow(0, 3), 0.0);
        f.set_cap(seed, f64::INFINITY);
        assert_eq!(f.max_flow(0, 3), 3.0, "the same extra flow again");
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
    fn arc_changes_after_a_max_flow_search_the_cut_again() {
        // 0 →(2) 1 →(1) 2 saturates at 1 with source side {0, 1}; each
        // change below opens a path to 2, so a cut read from the levels of
        // that max flow would be stale.
        let build = || {
            let mut f = FlowNetwork::new(3);
            f.add_edge(0, 1, 2.0);
            let narrow = f.add_edge(1, 2, 1.0);
            assert_eq!(f.max_flow(0, 2), 1.0);
            assert_eq!(f.reach_of, Some(0), "the cut is read from the last BFS");
            assert_eq!(f.min_cut_source_side(0), vec![true, true, false]);
            (f, narrow)
        };
        let open = vec![true, true, true];
        let mut buf = Vec::new();

        let (mut f, narrow) = build();
        f.set_cap(narrow, 5.0);
        assert_eq!(f.min_cut_source_side(0), open, "set_cap");
        f.min_cut_source_side_into(0, &mut buf);
        assert_eq!(buf, open, "set_cap");

        let (mut f, _) = build();
        f.reset();
        assert_eq!(f.min_cut_source_side(0), open, "reset");
        f.min_cut_source_side_into(0, &mut buf);
        assert_eq!(buf, open, "reset");

        let (mut f, _) = build();
        f.add_edge(0, 2, 1.0);
        assert_eq!(f.min_cut_source_side(0), open, "add_edge");
        f.min_cut_source_side_into(0, &mut buf);
        assert_eq!(buf, open, "add_edge");

        let (mut f, _) = build();
        f.add_undirected_edge(2, 1, 1.0);
        assert_eq!(f.min_cut_source_side(0), open, "add_undirected_edge");

        // Keeping the flow changes no residual: the levels stay valid.
        let (mut f, _) = build();
        f.keep_flow();
        assert_eq!(f.reach_of, Some(0));
        assert_eq!(f.min_cut_source_side(0), vec![true, true, false]);
        // A cut from another source is searched for: 2 reaches 1 and 0
        // back along the flow.
        assert_eq!(f.min_cut_source_side(2), open);
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

            /// The separation oracle's warm start: a kept maximum flow plus
            /// the extra flow after one zero arc is raised is the raised
            /// network's maximum flow, with the same minimal source side.
            /// Integer capacities keep every f64 sum exact.
            #[test]
            fn kept_flow_plus_extra_equals_a_fresh_max_flow(
                edges in proptest::collection::vec((0usize..6, 0usize..6, 0u32..20), 1..15),
                (a, b) in (0usize..6, 0usize..6),
                raised in 1u32..20,
            ) {
                let n = 6;
                prop_assume!(a != b);
                let dir: Vec<(usize, usize, f64)> = edges
                    .into_iter()
                    .filter(|(u, v, _)| u != v)
                    .map(|(u, v, c)| (u, v, c as f64))
                    .collect();
                let build = |arc_cap: f64| {
                    let mut f = FlowNetwork::new(n);
                    for &(u, v, c) in &dir {
                        f.add_edge(u, v, c);
                    }
                    let arc = f.add_edge(a, b, arc_cap);
                    (f, arc)
                };
                let (mut warm, arc) = build(0.0);
                let base = warm.max_flow(0, n - 1);
                warm.keep_flow();
                warm.set_cap(arc, raised as f64);
                let extra = warm.max_flow(0, n - 1);
                let (mut fresh, _) = build(raised as f64);
                let want = fresh.max_flow(0, n - 1);
                prop_assert_eq!(base + extra, want);
                prop_assert_eq!(warm.min_cut_source_side(0), fresh.min_cut_source_side(0));
            }

            /// Flat arcs, the BFS that stops at the sink and the cut read
            /// from the last BFS change no flow: through set-ups with arcs
            /// declared at 0 and raised later, kept flows and resets, every
            /// query returns the reference's flow, every arc's residual and
            /// the reference's cut side, bit for bit. Capacities are
            /// integers or dyadic fractions.
            #[test]
            fn flat_dinic_matches_the_reference_bit_for_bit(
                n in 2usize..=8,
                arcs in proptest::collection::vec(
                    (0usize..8, 0usize..8, 0u32..48, (0usize..3, 0u8..3)), 1..20),
                zero_arcs in proptest::collection::vec((0usize..8, 0usize..8), 0..5),
                script in proptest::collection::vec(
                    (0u8..4, 0usize..8, (0usize..8, 0usize..8), 0u32..48), 1..16),
            ) {
                let scales = [1.0, 4.0, 1024.0];
                let mut flat = FlowNetwork::new(n);
                let mut reference = Reference::new(n);
                for &(u, v, c, (scale, kind)) in &arcs {
                    let (u, v) = (u % n, v % n);
                    let cap = c as f64 / scales[scale];
                    let (id, want) = if kind == 0 {
                        (flat.add_undirected_edge(u, v, cap), reference.add_edge(u, v, cap, cap))
                    } else {
                        (flat.add_edge(u, v, cap), reference.add_edge(u, v, cap, 0.0))
                    };
                    prop_assert_eq!(id, want);
                }
                let raisable: Vec<usize> = zero_arcs
                    .iter()
                    .map(|&(u, v)| {
                        let (u, v) = (u % n, v % n);
                        let id = flat.add_edge(u, v, 0.0);
                        prop_assert_eq!(id, reference.add_edge(u, v, 0.0, 0.0));
                        Ok(id)
                    })
                    .collect::<Result<_, TestCaseError>>()?;
                let mut side = Vec::new();
                for &(op, pick, (s, t), c) in &script {
                    match op {
                        0 if !raisable.is_empty() => {
                            let id = raisable[pick % raisable.len()];
                            let cap = if c == 0 { f64::INFINITY } else { c as f64 / 4.0 };
                            flat.set_cap(id, cap);
                            reference.set_cap(id, cap);
                        }
                        1 => {
                            flat.keep_flow();
                            reference.keep_flow();
                        }
                        2 => {
                            flat.reset();
                            reference.reset();
                        }
                        _ => {}
                    }
                    let (s, t) = (s % n, t % n);
                    if s == t {
                        continue;
                    }
                    let got = flat.max_flow(s, t);
                    let want = reference.max_flow(s, t);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "flow {} vs {}", got, want);
                    for (e, arc) in reference.edges.iter().enumerate() {
                        prop_assert_eq!(flat.cap[e].to_bits(), arc.cap.to_bits(), "arc {}", e);
                    }
                    let cut = reference.min_cut_source_side(s);
                    flat.min_cut_source_side_into(s, &mut side);
                    prop_assert_eq!(&side, &cut);
                    prop_assert_eq!(flat.min_cut_source_side(s), cut);
                }
            }
        }
    }
}
