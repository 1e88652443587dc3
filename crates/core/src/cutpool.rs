//! Persistent pool of separated subtour cuts.
//!
//! Every set the oracle ever separates is parked here, partitioned into
//! **active** cuts (materialized as LP rows) and **inactive** ones (found
//! in a batch but not yet worth a row). Each cut round screens the
//! inactive side against the current fractional point — a dot-product
//! scan per cut, no maxflow — and re-activates violated members, so the
//! expensive seeded min-cut oracle only runs when the pool is clean. The
//! pool deliberately survives IRA shrink steps and lifetime-constraint
//! drops: subtour cuts stay valid on any edge subset of the instance that
//! produced them.

use crate::separation::{violation_of_mask, FracEdge, ViolatedSet};
use std::collections::BTreeMap;

/// Deduplicated store of subtour sets with activation state.
#[derive(Clone, Debug, Default)]
pub struct CutPool {
    /// All pooled sets (sorted member lists), in first-seen order.
    sets: Vec<Vec<usize>>,
    active: Vec<bool>,
    /// Set → index into `sets`.
    index: BTreeMap<Vec<usize>, usize>,
    /// Activation sequence; LP row materialization follows this order.
    active_order: Vec<usize>,
}

impl CutPool {
    /// An empty pool.
    pub fn new() -> Self {
        CutPool::default()
    }

    /// Total pooled cuts, active and inactive.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when nothing has been pooled yet.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Cuts currently materialized (or due to be) as LP rows.
    pub fn active_count(&self) -> usize {
        self.active_order.len()
    }

    /// Cuts parked for screening.
    pub fn inactive_count(&self) -> usize {
        self.sets.len() - self.active_order.len()
    }

    /// The `i`-th cut in activation order (append-only, so LP row builders
    /// can materialize a stable prefix).
    pub fn active_set(&self, i: usize) -> &[usize] {
        &self.sets[self.active_order[i]]
    }

    /// True if `set` is pooled and active.
    pub fn is_active(&self, set: &[usize]) -> bool {
        self.index.get(set).is_some_and(|&i| self.active[i])
    }

    /// True if `set` is pooled at all.
    pub fn contains(&self, set: &[usize]) -> bool {
        self.index.contains_key(set)
    }

    /// Parks `set` without activating it; no-op when already pooled (in
    /// either state). Returns true when the set is new to the pool.
    pub fn insert_inactive(&mut self, set: Vec<usize>) -> bool {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "pool sets arrive sorted");
        if self.index.contains_key(&set) {
            return false;
        }
        let idx = self.sets.len();
        self.index.insert(set.clone(), idx);
        self.sets.push(set);
        self.active.push(false);
        true
    }

    /// Inserts (if new) and activates `set`. Returns true when the call
    /// changed its state to active — i.e. the LP gains a row.
    pub fn activate(&mut self, set: Vec<usize>) -> bool {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "pool sets arrive sorted");
        let idx = match self.index.get(&set) {
            Some(&i) => i,
            None => {
                let i = self.sets.len();
                self.index.insert(set.clone(), i);
                self.sets.push(set);
                self.active.push(false);
                i
            }
        };
        if self.active[idx] {
            return false;
        }
        self.active[idx] = true;
        self.active_order.push(idx);
        true
    }

    /// Screens every inactive cut against the fractional point over nodes
    /// `0..n`, returning `(screened, violated)` where `violated` lists the
    /// inactive cuts whose violation exceeds `tol` (in first-seen pool
    /// order). Each set's members are marked in one reused mask, and the
    /// violation sums the same edges in the same order as
    /// [`violation_sorted`](crate::separation::violation_sorted), so it
    /// has the same bits.
    pub fn screen(&self, n: usize, edges: &[FracEdge], tol: f64) -> (usize, Vec<ViolatedSet>) {
        let mut screened = 0;
        let mut violated = Vec::new();
        let mut member = vec![false; n];
        for (i, set) in self.sets.iter().enumerate() {
            if self.active[i] {
                continue;
            }
            screened += 1;
            // Sets are sorted; a member outside `0..n` ends no edge.
            let inside = &set[..set.partition_point(|&v| v < n)];
            for &v in inside {
                member[v] = true;
            }
            let v = violation_of_mask(edges, &member, set.len());
            for &v in inside {
                member[v] = false;
            }
            if v > tol {
                violated.push(ViolatedSet { set: set.clone(), violation: v });
            }
        }
        (screened, violated)
    }
}

/// Splits `candidates` into `(picked, rest)`: up to `k` cuts, most violated
/// first (ties toward the lexicographically smaller set), with no picked
/// cut nested (⊆ or ⊇, duplicates included) inside another picked one.
/// Nested near-copies of one violated structure add almost-parallel LP rows
/// for one reoptimization to retire, so only the strongest representative
/// of each chain is worth a row this round; the rest go to the pool.
pub fn select_batch(
    mut candidates: Vec<ViolatedSet>,
    k: usize,
) -> (Vec<ViolatedSet>, Vec<ViolatedSet>) {
    candidates.sort_by(|a, b| {
        b.violation
            .partial_cmp(&a.violation)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.set.cmp(&b.set))
    });
    let mut picked: Vec<ViolatedSet> = Vec::new();
    let mut rest = Vec::new();
    for c in candidates {
        if picked.len() < k && !picked.iter().any(|p| nested(&p.set, &c.set)) {
            picked.push(c);
        } else {
            rest.push(c);
        }
    }
    (picked, rest)
}

/// True when one sorted set contains the other (equality included).
fn nested(a: &[usize], b: &[usize]) -> bool {
    if a.len() <= b.len() {
        is_subset(a, b)
    } else {
        is_subset(b, a)
    }
}

/// Sorted-merge subset test.
fn is_subset(small: &[usize], big: &[usize]) -> bool {
    let mut it = big.iter();
    'outer: for &x in small {
        for &y in it.by_ref() {
            match y.cmp(&x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(u: usize, v: usize, x: f64) -> FracEdge {
        FracEdge { u, v, x }
    }

    fn vs(set: &[usize], violation: f64) -> ViolatedSet {
        ViolatedSet { set: set.to_vec(), violation }
    }

    #[test]
    fn duplicates_are_pooled_once() {
        let mut pool = CutPool::new();
        assert!(pool.insert_inactive(vec![1, 2, 3]));
        assert!(!pool.insert_inactive(vec![1, 2, 3]));
        assert_eq!(pool.len(), 1);
        assert!(pool.activate(vec![1, 2, 3]), "first activation adds a row");
        assert!(!pool.activate(vec![1, 2, 3]), "re-activation is a no-op");
        assert!(!pool.insert_inactive(vec![1, 2, 3]), "active cuts stay active");
        assert!(pool.is_active(&[1, 2, 3]));
        assert_eq!((pool.active_count(), pool.inactive_count()), (1, 0));
    }

    #[test]
    fn activation_order_is_stable() {
        let mut pool = CutPool::new();
        pool.insert_inactive(vec![0, 1]);
        pool.activate(vec![2, 3]);
        pool.activate(vec![0, 1]);
        pool.activate(vec![4, 5]);
        assert_eq!(pool.active_set(0), &[2, 3]);
        assert_eq!(pool.active_set(1), &[0, 1]);
        assert_eq!(pool.active_set(2), &[4, 5]);
    }

    #[test]
    fn screening_finds_only_violated_inactive_cuts() {
        let mut pool = CutPool::new();
        pool.activate(vec![0, 1, 2]); // active: never screened
        pool.insert_inactive(vec![3, 4, 5]); // violated below
        pool.insert_inactive(vec![0, 3]); // not violated
        let edges = vec![
            fe(0, 1, 1.0),
            fe(1, 2, 1.0),
            fe(0, 2, 1.0), // {0,1,2} violated but active
            fe(3, 4, 0.9),
            fe(4, 5, 0.9),
            fe(3, 5, 0.9), // {3,4,5}: 2.7 > 2
            fe(0, 3, 0.5),
        ];
        let (screened, violated) = pool.screen(6, &edges, 1e-7);
        assert_eq!(screened, 2);
        assert_eq!(violated.len(), 1);
        assert_eq!(violated[0].set, vec![3, 4, 5]);
        assert!((violated[0].violation - 0.7).abs() < 1e-9);
    }

    #[test]
    fn screening_counts_members_beyond_the_point_as_isolated() {
        // A pool kept across a solve on fewer nodes: node 7 ends no edge of
        // this point, so it only adds to |S|, as `violation_sorted` has it.
        let mut pool = CutPool::new();
        pool.insert_inactive(vec![0, 1, 7]);
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0)];
        let (screened, violated) = pool.screen(3, &edges, f64::NEG_INFINITY);
        assert_eq!((screened, violated.len()), (1, 1));
        assert_eq!(violated[0].violation, crate::separation::violation_sorted(&edges, &[0, 1, 7]));
    }

    #[test]
    fn screening_skips_nothing_when_pool_is_clean() {
        let pool = CutPool::new();
        let (screened, violated) = pool.screen(2, &[fe(0, 1, 1.0)], 1e-7);
        assert_eq!((screened, violated.len()), (0, 0));
    }

    #[test]
    fn batch_selection_ranks_by_violation() {
        let (picked, rest) =
            select_batch(vec![vs(&[0, 1], 0.1), vs(&[4, 5], 0.9), vs(&[2, 3], 0.5)], 2);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].set, vec![4, 5]);
        assert_eq!(picked[1].set, vec![2, 3]);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].set, vec![0, 1]);
    }

    #[test]
    fn batch_selection_rejects_nested_and_duplicate_sets() {
        let (picked, rest) = select_batch(
            vec![
                vs(&[0, 1, 2, 3], 0.8), // superset of the winner: rejected
                vs(&[0, 1, 2], 0.9),
                vs(&[0, 1, 2], 0.9), // duplicate: nested in itself
                vs(&[1, 2], 0.7),    // subset: rejected
                vs(&[4, 5, 6], 0.3), // disjoint: picked
            ],
            16,
        );
        let picked_sets: Vec<&[usize]> = picked.iter().map(|c| c.set.as_slice()).collect();
        assert_eq!(picked_sets, vec![&[0, 1, 2][..], &[4, 5, 6][..]]);
        assert_eq!(rest.len(), 3);
    }

    #[test]
    fn batch_selection_tie_breaks_lexicographically() {
        let (picked, _) = select_batch(vec![vs(&[2, 3], 0.5), vs(&[0, 4], 0.5)], 1);
        assert_eq!(picked[0].set, vec![0, 4]);
    }

    #[test]
    fn overlapping_but_unnested_sets_coexist() {
        let (picked, rest) = select_batch(vec![vs(&[0, 1, 2], 0.9), vs(&[2, 3, 4], 0.8)], 16);
        assert_eq!(picked.len(), 2, "overlap without containment is allowed");
        assert!(rest.is_empty());
    }

    #[test]
    fn subset_merge_is_correct() {
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(is_subset(&[], &[0]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(!is_subset(&[5], &[0, 1]));
        assert!(nested(&[0, 1, 2], &[0, 1]));
        assert!(nested(&[0, 1], &[0, 1]));
        assert!(!nested(&[0, 1], &[1, 2]));
    }
}
