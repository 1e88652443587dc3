//! The undirected network graph `G = (V, E)` with per-node initial energy.

use crate::error::ModelError;
use crate::id::NodeId;
use crate::link::{Link, Prr};
use serde::{Deserialize, Serialize};

/// Index of an edge within a [`Network`]'s edge list.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Dense index into the edge list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An MRLC network instance: connected undirected graph, per-link PRR, and
/// per-node initial energy `I(v)` in joules.
///
/// The structure is immutable except for link qualities, which the
/// distributed-protocol experiments mutate over time (`set_prr`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Network {
    n: usize,
    links: Vec<Link>,
    /// `adj[v]` lists `(edge, neighbor)` pairs for node `v`.
    adj: Vec<Vec<(EdgeId, NodeId)>>,
    /// Initial energy `I(v)` in joules.
    energy: Vec<f64>,
}

impl Network {
    /// Number of nodes (`|V|`, including the sink).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected links.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.links.len()
    }

    /// All links in edge-id order.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link with the given id.
    #[inline]
    pub fn link(&self, e: EdgeId) -> &Link {
        &self.links[e.index()]
    }

    /// Iterator over `(EdgeId, &Link)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (EdgeId(i as u32), l))
    }

    /// Neighbors of `v` as `(edge, neighbor)` pairs.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(EdgeId, NodeId)] {
        &self.adj[v.index()]
    }

    /// Degree of `v` in the full graph.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Finds the edge between `a` and `b`, if present.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        let (scan, target) = if self.degree(a) <= self.degree(b) { (a, b) } else { (b, a) };
        self.adj[scan.index()].iter().find(|(_, nb)| *nb == target).map(|(e, _)| *e)
    }

    /// Initial energy `I(v)` in joules.
    #[inline]
    pub fn initial_energy(&self, v: NodeId) -> f64 {
        self.energy[v.index()]
    }

    /// The minimum initial energy `I_min` over all nodes (Alg. 1 line 2).
    pub fn min_initial_energy(&self) -> f64 {
        self.energy.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Replaces the PRR of one link (used by the link-dynamics experiments).
    pub fn set_prr(&mut self, e: EdgeId, prr: Prr) {
        let link = self.links[e.index()].with_prr(prr);
        self.links[e.index()] = link;
    }

    /// Returns a new network containing only links accepted by `keep`.
    ///
    /// Fails with [`ModelError::Disconnected`] if the filtered graph no
    /// longer spans all nodes (the paper's AAML evaluation filters out links
    /// with `q < 0.95` and assumes the remainder stays connected).
    pub fn restrict_edges(
        &self,
        mut keep: impl FnMut(&Link) -> bool,
    ) -> Result<Network, ModelError> {
        let mut b = NetworkBuilder::new(self.n);
        for (v, &e) in self.energy.iter().enumerate() {
            b.set_energy(NodeId::new(v), e)?;
        }
        for l in &self.links {
            if keep(l) {
                b.add_link(*l)?;
            }
        }
        b.build()
    }

    /// True if the subgraph induced by the given edge ids spans all nodes.
    pub fn edges_span(&self, edges: &[EdgeId]) -> bool {
        if self.n == 0 {
            return false;
        }
        let mut parent: Vec<usize> = (0..self.n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut components = self.n;
        for &e in edges {
            let (u, v) = self.link(e).endpoints();
            let (ru, rv) = (find(&mut parent, u.index()), find(&mut parent, v.index()));
            if ru != rv {
                parent[ru] = rv;
                components -= 1;
            }
        }
        components == 1
    }
}

/// Incremental builder validating node ranges, self-loops, duplicate edges,
/// energies, and final connectivity.
#[derive(Clone, Debug)]
pub struct NetworkBuilder {
    n: usize,
    links: Vec<Link>,
    energy: Vec<f64>,
    /// The network's adjacency, grown as links arrive: each link appends
    /// `(edge, v)` to `u`'s list, then `(edge, u)` to `v`'s.
    adj: Vec<Vec<(EdgeId, NodeId)>>,
}

impl NetworkBuilder {
    /// Starts a builder for a network of `n` nodes, each with the paper's
    /// default initial energy of 3000 J (two AA batteries).
    pub fn new(n: usize) -> Self {
        NetworkBuilder {
            n,
            links: Vec::new(),
            energy: vec![crate::energy::DEFAULT_INITIAL_ENERGY_J; n],
            adj: vec![Vec::new(); n],
        }
    }

    /// Sets the initial energy of one node.
    pub fn set_energy(&mut self, v: NodeId, joules: f64) -> Result<&mut Self, ModelError> {
        if v.index() >= self.n {
            return Err(ModelError::NodeOutOfRange { node: v, n: self.n });
        }
        if !(joules.is_finite() && joules > 0.0) {
            return Err(ModelError::InvalidEnergy(joules));
        }
        self.energy[v.index()] = joules;
        Ok(self)
    }

    /// Sets the initial energy of every node.
    pub fn set_uniform_energy(&mut self, joules: f64) -> Result<&mut Self, ModelError> {
        if !(joules.is_finite() && joules > 0.0) {
            return Err(ModelError::InvalidEnergy(joules));
        }
        self.energy.fill(joules);
        Ok(self)
    }

    /// Adds an undirected link.
    pub fn add_link(&mut self, link: Link) -> Result<&mut Self, ModelError> {
        let (u, v) = link.endpoints();
        if u.index() >= self.n || v.index() >= self.n {
            let node = if u.index() >= self.n { u } else { v };
            return Err(ModelError::NodeOutOfRange { node, n: self.n });
        }
        // A duplicate lists the other endpoint on both lists: scan the shorter.
        let (scan, other) =
            if self.adj[u.index()].len() <= self.adj[v.index()].len() { (u, v) } else { (v, u) };
        if self.adj[scan.index()].iter().any(|&(_, nb)| nb == other) {
            return Err(ModelError::DuplicateEdge(u, v));
        }
        let e = EdgeId(self.links.len() as u32);
        self.adj[u.index()].push((e, v));
        self.adj[v.index()].push((e, u));
        self.links.push(link);
        Ok(self)
    }

    /// Convenience: adds an edge given raw endpoints and a PRR value.
    pub fn add_edge(&mut self, a: usize, b: usize, prr: f64) -> Result<&mut Self, ModelError> {
        let link = Link::new(NodeId::new(a), NodeId::new(b), Prr::new(prr)?)?;
        self.add_link(link)
    }

    /// Finalizes the network, checking connectivity from node 0.
    pub fn build(self) -> Result<Network, ModelError> {
        if self.n == 0 {
            return Err(ModelError::Empty);
        }
        let adj = self.adj;
        // BFS connectivity check from node 0.
        let mut visited = vec![false; self.n];
        let mut queue = std::collections::VecDeque::new();
        visited[0] = true;
        queue.push_back(0usize);
        let mut reached = 1usize;
        while let Some(u) = queue.pop_front() {
            for &(_, nb) in &adj[u] {
                if !visited[nb.index()] {
                    visited[nb.index()] = true;
                    reached += 1;
                    queue.push_back(nb.index());
                }
            }
        }
        if reached != self.n {
            return Err(ModelError::Disconnected { component_of_root: reached, n: self.n });
        }
        Ok(Network { n: self.n, links: self.links, adj, energy: self.energy })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Network {
        let mut b = NetworkBuilder::new(4);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(1, 2, 0.8).unwrap();
        b.add_edge(2, 3, 0.7).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_connected_path() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = NetworkBuilder::new(4);
        b.add_edge(0, 1, 0.9).unwrap();
        // nodes 2, 3 isolated from 0's component
        b.add_edge(2, 3, 0.9).unwrap();
        assert_eq!(b.build().unwrap_err(), ModelError::Disconnected { component_of_root: 2, n: 4 });
    }

    #[test]
    fn rejects_duplicates_even_reversed() {
        let mut b = NetworkBuilder::new(3);
        b.add_edge(0, 1, 0.9).unwrap();
        assert!(matches!(b.add_edge(1, 0, 0.8), Err(ModelError::DuplicateEdge(_, _))));
    }

    #[test]
    fn rejects_a_duplicate_arriving_on_the_higher_degree_endpoint() {
        // Node 1 is a hub of degree 4; the duplicate is found on the other
        // endpoint's shorter list whether the hub is the link's smaller
        // endpoint or its larger, and is named in endpoint order.
        let mut b = NetworkBuilder::new(5);
        for v in [0, 2, 3, 4] {
            b.add_edge(1, v, 0.9).unwrap();
        }
        for (a, z) in [(1, 0), (0, 1), (1, 4), (4, 1)] {
            let want = ModelError::DuplicateEdge(NodeId::new(a.min(z)), NodeId::new(a.max(z)));
            assert_eq!(b.add_edge(a, z, 0.8).unwrap_err(), want);
        }
        // A rejected link leaves no trace: the hub keeps degree 4.
        let g = b.build().unwrap();
        assert_eq!(g.degree(NodeId::new(1)), 4);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = NetworkBuilder::new(2);
        assert!(matches!(b.add_edge(0, 5, 0.9), Err(ModelError::NodeOutOfRange { .. })));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(NetworkBuilder::new(0).build().unwrap_err(), ModelError::Empty);
    }

    #[test]
    fn find_edge_both_orders() {
        let g = path4();
        let e = g.find_edge(NodeId::new(2), NodeId::new(1)).unwrap();
        assert_eq!(g.link(e).endpoints(), (NodeId::new(1), NodeId::new(2)));
        assert!(g.find_edge(NodeId::new(0), NodeId::new(3)).is_none());
    }

    #[test]
    fn energy_defaults_and_overrides() {
        let mut b = NetworkBuilder::new(2);
        b.add_edge(0, 1, 1.0).unwrap();
        b.set_energy(NodeId::new(1), 1500.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.initial_energy(NodeId::new(0)), crate::energy::DEFAULT_INITIAL_ENERGY_J);
        assert_eq!(g.initial_energy(NodeId::new(1)), 1500.0);
        assert_eq!(g.min_initial_energy(), 1500.0);
    }

    #[test]
    fn invalid_energy_rejected() {
        let mut b = NetworkBuilder::new(2);
        assert!(b.set_energy(NodeId::new(0), 0.0).is_err());
        assert!(b.set_energy(NodeId::new(0), f64::NAN).is_err());
        assert!(b.set_uniform_energy(-1.0).is_err());
    }

    #[test]
    fn set_prr_updates_link() {
        let mut g = path4();
        let e = g.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        g.set_prr(e, Prr::new(0.5).unwrap());
        assert!((g.link(e).prr().value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn restrict_edges_keeps_connectivity_or_fails() {
        let g = path4();
        // Dropping the middle edge disconnects the path.
        assert!(g.restrict_edges(|l| l.prr().value() != 0.8).is_err());
        // Keeping everything succeeds and preserves energies.
        let g2 = g.restrict_edges(|_| true).unwrap();
        assert_eq!(g2.num_edges(), 3);
    }

    #[test]
    fn edges_span_detects_spanning_subsets() {
        let g = path4();
        let all: Vec<EdgeId> = g.edges().map(|(e, _)| e).collect();
        assert!(g.edges_span(&all));
        assert!(!g.edges_span(&all[..2]));
    }

    #[test]
    fn serde_roundtrip() {
        let g = path4();
        let json = serde_json_like(&g);
        assert!(json.contains("links"));
    }

    // serde_json is not a workspace dependency; a smoke check that the type
    // serializes through any serde serializer is done via the derive itself
    // (compile-time) plus this shape probe using Debug formatting.
    fn serde_json_like(g: &Network) -> String {
        format!("{g:?}").to_lowercase()
    }
}
