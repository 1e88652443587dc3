//! TDMA slot schedules for aggregation trees.
//!
//! A data-aggregation round needs every child to transmit *before* its
//! parent, and two transmissions may share a slot only if they do not
//! interfere. We use the standard protocol-interference model on the tree:
//! two tree transmissions `c₁ → p₁`, `c₂ → p₂` conflict when they share a
//! node or when one's sender is within one hop (in the *network*) of the
//! other's receiver — the hidden-terminal constraint.
//!
//! The greedy bottom-up scheduler below yields a conflict-free schedule
//! whose length lower-bounds at `depth(T)` and upper-bounds at `n − 1`; the
//! experiments use it to translate tree shape into round time, the quantity
//! the wake-up-scheduling line of related work (\[13\]) optimizes.

use wsn_model::{AggregationTree, Network, NodeId};

/// A conflict-free transmission schedule: `slot_of[v]` is the slot in which
/// non-root `v` transmits to its parent (`None` for the root).
#[derive(Clone, Debug)]
pub struct TdmaSchedule {
    slot_of: Vec<Option<usize>>,
    length: usize,
}

impl TdmaSchedule {
    /// Slot assigned to `v`'s uplink transmission.
    pub fn slot_of(&self, v: NodeId) -> Option<usize> {
        self.slot_of[v.index()]
    }

    /// Total slots per aggregation round.
    pub fn length(&self) -> usize {
        self.length
    }

    /// All transmissions in a given slot, as `(child, parent_index)` pairs.
    pub fn transmissions_in(&self, slot: usize) -> Vec<NodeId> {
        self.slot_of
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Some(slot))
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }
}

/// Do the uplink transmissions of `a` and `b` conflict under the protocol
/// model? (Shared node, or a sender adjacent to the other's receiver.)
fn conflicts(net: &Network, tree: &AggregationTree, a: NodeId, b: NodeId) -> bool {
    let pa = tree.parent(a).expect("a transmits");
    let pb = tree.parent(b).expect("b transmits");
    if a == b || a == pb || b == pa || pa == pb {
        return true;
    }
    // Hidden terminal: sender of one within range of the other's receiver.
    net.find_edge(a, pb).is_some() || net.find_edge(b, pa).is_some()
}

/// Builds a greedy bottom-up schedule: process nodes deepest-first; each
/// transmission takes the earliest slot that (a) is after all its
/// children's slots and (b) has no conflict with transmissions already in
/// that slot.
pub fn greedy_schedule(net: &Network, tree: &AggregationTree) -> TdmaSchedule {
    let n = tree.n();
    let mut order: Vec<NodeId> =
        (0..n).map(NodeId::new).filter(|&v| tree.parent(v).is_some()).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(tree.depth(v)));

    let mut slot_of: Vec<Option<usize>> = vec![None; n];
    let mut slots: Vec<Vec<NodeId>> = Vec::new();
    for &v in &order {
        // Earliest slot after every child of v has reported.
        let min_slot = tree
            .children(v)
            .iter()
            .map(|&c| slot_of[c.index()].expect("children scheduled first") + 1)
            .max()
            .unwrap_or(0);
        let mut placed = None;
        for (s, members) in slots.iter().enumerate().skip(min_slot) {
            if members.iter().all(|&m| !conflicts(net, tree, v, m)) {
                placed = Some(s);
                break;
            }
        }
        let s = placed.unwrap_or_else(|| {
            slots.push(Vec::new());
            slots.len() - 1
        });
        slots[s].push(v);
        slot_of[v.index()] = Some(s);
    }
    TdmaSchedule { slot_of, length: slots.len() }
}

/// Validates that a schedule is causal and conflict-free (test helper,
/// public so integration tests can use it).
pub fn validate_schedule(net: &Network, tree: &AggregationTree, sched: &TdmaSchedule) -> bool {
    for i in 0..tree.n() {
        let v = NodeId::new(i);
        match (tree.parent(v), sched.slot_of(v)) {
            (None, None) => {}
            (Some(_), Some(s)) => {
                // Children must come strictly earlier.
                for &c in tree.children(v) {
                    match sched.slot_of(c) {
                        Some(cs) if cs < s => {}
                        _ => return false,
                    }
                }
            }
            _ => return false,
        }
    }
    for s in 0..sched.length() {
        let members = sched.transmissions_in(s);
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if conflicts(net, tree, a, b) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_model::NetworkBuilder;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn line(k: usize) -> (Network, AggregationTree) {
        let mut b = NetworkBuilder::new(k);
        for i in 0..k - 1 {
            b.add_edge(i, i + 1, 0.9).unwrap();
        }
        let net = b.build().unwrap();
        let edges: Vec<_> = (0..k - 1).map(|i| (n(i), n(i + 1))).collect();
        let tree = AggregationTree::from_edges(n(0), k, &edges).unwrap();
        (net, tree)
    }

    #[test]
    fn chain_schedules_serially_near_the_sink() {
        let (net, tree) = line(5);
        let sched = greedy_schedule(&net, &tree);
        assert!(validate_schedule(&net, &tree, &sched));
        // A chain has no spatial reuse between adjacent hops: the deepest
        // node goes first, each ancestor one slot later.
        assert_eq!(sched.slot_of(n(4)), Some(0));
        assert_eq!(sched.slot_of(n(1)), Some(3));
        assert_eq!(sched.length(), 4);
    }

    #[test]
    fn chain_cannot_pipeline_but_branches_can() {
        // Aggregation causality makes a single chain fully serial…
        let (net, tree) = line(12);
        let sched = greedy_schedule(&net, &tree);
        assert!(validate_schedule(&net, &tree, &sched));
        assert_eq!(sched.length(), 11, "a chain is inherently serial");

        // …but parallel branches interleave: two 5-hop arms off the sink.
        let mut b = NetworkBuilder::new(11);
        for i in 0..5 {
            b.add_edge(if i == 0 { 0 } else { i }, i + 1, 0.9).unwrap(); // arm A: 0-1-2-3-4-5
        }
        for i in 0..5 {
            b.add_edge(if i == 0 { 0 } else { 5 + i }, 6 + i, 0.9).unwrap(); // arm B: 0-6-7-8-9-10
        }
        let net = b.build().unwrap();
        let mut edges = Vec::new();
        for i in 0..5 {
            edges.push((n(if i == 0 { 0 } else { i }), n(i + 1)));
            edges.push((n(if i == 0 { 0 } else { 5 + i }), n(6 + i)));
        }
        let tree = AggregationTree::from_edges(n(0), 11, &edges).unwrap();
        let sched = greedy_schedule(&net, &tree);
        assert!(validate_schedule(&net, &tree, &sched));
        assert!(sched.length() < 10, "two arms must interleave: {} slots", sched.length());
        assert!(sched.length() >= 5, "depth is a hard floor");
    }

    #[test]
    fn star_is_fully_serial() {
        let mut b = NetworkBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v, 0.9).unwrap();
        }
        let net = b.build().unwrap();
        let edges: Vec<_> = (1..5).map(|v| (n(0), n(v))).collect();
        let tree = AggregationTree::from_edges(n(0), 5, &edges).unwrap();
        let sched = greedy_schedule(&net, &tree);
        assert!(validate_schedule(&net, &tree, &sched));
        // All senders share the receiver: one transmission per slot.
        assert_eq!(sched.length(), 4);
    }

    #[test]
    fn schedule_length_bounds() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        for seed in 0..5u64 {
            let mut b = NetworkBuilder::new(10);
            for i in 0..9 {
                b.add_edge(i, i + 1, 0.9).unwrap();
            }
            // Extra chords.
            for u in 0..10 {
                for v in u + 2..10 {
                    if (u * 31 + v * 17 + seed as usize).is_multiple_of(4) {
                        let _ = b.add_edge(u, v, 0.9);
                    }
                }
            }
            let net = b.build().unwrap();
            let tree = wsn_graph::random_spanning_tree(&net, &mut rng).unwrap();
            let sched = greedy_schedule(&net, &tree);
            assert!(validate_schedule(&net, &tree, &sched));
            let depth = crate::latency::round_latency_slots(&tree);
            assert!(sched.length() >= depth, "length below depth");
            assert!(sched.length() <= 9, "length above n − 1");
        }
    }

    #[test]
    fn single_node_schedule_is_empty() {
        let mut b = NetworkBuilder::new(1);
        b.set_uniform_energy(1.0).unwrap();
        let net = b.build().unwrap();
        let tree = AggregationTree::from_parents(n(0), vec![None]).unwrap();
        let sched = greedy_schedule(&net, &tree);
        assert_eq!(sched.length(), 0);
        assert!(validate_schedule(&net, &tree, &sched));
    }
}
