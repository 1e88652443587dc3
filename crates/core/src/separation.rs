//! Separation oracle for the subtour constraints (Eq. 13).
//!
//! Given a fractional point `x` with `x(E(V)) = |V| − 1`, we must find a set
//! `S ⊆ V`, `|S| ≥ 2`, with `x(E(S)) > |S| − 1`, or certify none exists.
//!
//! Writing `w(v) = 1 − x(δ(v))/2` and using
//! `x(E(S)) = ½(Σ_{v∈S} x(δ(v)) − x(δ(S)))`, the violation functional is
//!
//! `|S| − 1 − x(E(S)) = Σ_{v∈S} w(v) + x(δ(S))/2 − 1`,
//!
//! a modular term plus a cut — minimized, for each forced seed `s ∈ S`, by
//! one s–t min-cut on an auxiliary network (the classical
//! project-selection transformation handles negative `w`). `S = V` attains
//! exactly 0 under the cardinality equality, so any value below `−tol`
//! certifies a genuine violation (Theorem 1 / \[12\]).
//!
//! # The separation engine
//!
//! [`separate`] is the engine behind both entry points. Each call builds
//! one auxiliary network over the arcs of positive capacity only, in a
//! fixed order: `src → v` at `−w(v)` where that is positive, `v → snk` at
//! `w(v)` where that is positive, `x_e / 2` both ways for every edge with
//! `x_e > 0`, then one `src → s` arc at 0 per seed. Dinic follows only
//! arcs with residual capacity, and an arc declared at 0 gains some only
//! when flow crosses its partner, which is at 0 too; with the kept arcs in
//! the same order, every flow and cut is bit for bit that of the network
//! declaring every instance edge (a proptest checks this against that
//! network). The LP's extreme points leave most instance edges at exactly
//! 0, so each seed's maxflow walks few arcs, and the cutting-plane loop
//! passes only the edges with `x_e ≠ 0`: a zero term leaves every sum
//! here bit for bit unchanged.
//!
//! The seeds of one call share one **base flow**: the network's maximum
//! flow with every seed arc still at 0, solved once and kept
//! ([`FlowNetwork::keep_flow`]). Every seed's network contains that one,
//! so the base flow is feasible for each of them. A seed query
//! [`FlowNetwork::reset`]s to the kept residual, raises its `src → s`
//! arc to infinite capacity and adds only the extra flow the arc admits
//! — no per-seed allocation. Any maximum flow leaves the same set
//! reachable from the source (the minimal min cut), so in exact
//! arithmetic every seed returns the set a from-zero flow finds; on
//! dyadic points the tests check this bit for bit against the from-zero
//! sweep. In floating point, rounding can pick the other of two minimum
//! cuts that tie to within rounding (DESIGN.md §10 counts them). Every
//! seed runs on the calling thread, on the call's one network: fanning a
//! wave out to worker threads cost more in thread spawns and network
//! clones than its min-cuts take, at every size the bench runs (DESIGN.md
//! §8). Results are merged through a `BTreeMap`, so the output order is
//! canonical.
//!
//! Before any min-cut, a **disconnected-support pre-check** answers the
//! call when the support (`x_e > tol`) splits into components and one of
//! them violates the subtour bound as a whole. On an LP point it always
//! does: `x(E(V)) = |V| − 1` and at most `tol` per crossing edge leave the
//! `k ≥ 2` components an excess of about `k − 1`, so the seeded sweep
//! only ever runs on a connected support.
//!
//! With pruning enabled (the `prune` argument of [`separate`], which the
//! cutting-plane loop always sets) one sound short-circuit cuts the
//! per-call min-cut count below `n`: the **covered-seed skip** passes
//! over seeds already contained in a violated set found earlier this
//! call. Seeds are processed in fixed-width waves of 16 (`SEED_CHUNK`), and
//! only sets found by earlier waves cover a seed. Skipping a
//! covered seed can suppress *additional* violated sets, never all of
//! them: a seed is covered only once a violated set was found, and the
//! first seed inside a violated set that is not covered finds one. The
//! oracle therefore still returns a nonempty result iff the point is
//! infeasible.

use std::collections::BTreeMap;
use wsn_graph::{components, FlowEdgeId, FlowNetwork};
use wsn_obs::{Counter, Histogram, Registry};

/// Seeds are processed in waves of this width; violated sets found by
/// earlier waves veto covered seeds in later ones, never sets found within
/// the same wave.
const SEED_CHUNK: usize = 16;

/// An edge of the current LP together with its fractional value.
#[derive(Clone, Copy, Debug)]
pub struct FracEdge {
    /// Endpoint (dense index).
    pub u: usize,
    /// Endpoint (dense index).
    pub v: usize,
    /// LP value `x_e ∈ [0, 1]`.
    pub x: f64,
}

/// A violated subtour set together with its violation amount.
#[derive(Clone, Debug, PartialEq)]
pub struct ViolatedSet {
    /// Member nodes, sorted ascending.
    pub set: Vec<usize>,
    /// `x(E(S)) − (|S| − 1) > tol`.
    pub violation: f64,
}

/// Counter handles for the oracle. The owner (`CutLp`, or the free
/// functions below) resolves these once from a metrics registry and the
/// engine bumps them as it runs each seed — the handles are plain `Arc`
/// atomics, so a solver running on a worker thread (a service worker, a
/// parallel experiment sweep) counts into the registry it was built under
/// without inheriting an ambient collector.
#[derive(Clone, Debug)]
pub struct SepCounters {
    pub(crate) calls: Counter,
    pub(crate) min_cut_seeds: Counter,
    pub(crate) violated: Counter,
    pub(crate) seeds_pruned: Counter,
    /// Cumulative wall time inside maxflow calls: each call's base flow
    /// plus every seed's extra flow.
    pub(crate) maxflow_ns: Counter,
    /// Per-seed maxflow wall time (µs) — the profiler's attribution of
    /// oracle cost to individual seeds, not just the stage total. The base
    /// flow is not a seed and is not observed here.
    pub(crate) maxflow_us: Histogram,
}

/// Per-seed maxflow wall-time buckets (µs, up to 100 ms then overflow).
const MAXFLOW_US_BUCKETS: &[u64] =
    &[1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000];

impl SepCounters {
    /// Resolves the `sep.*` handles from `reg`.
    pub fn from_registry(reg: &Registry) -> Self {
        SepCounters {
            calls: reg.counter("sep.calls"),
            min_cut_seeds: reg.counter("sep.min_cut_seeds"),
            violated: reg.counter("sep.violated_sets"),
            seeds_pruned: reg.counter("sep.seeds_pruned"),
            maxflow_ns: reg.counter("sep.maxflow_ns"),
            maxflow_us: reg.histogram("sep.maxflow_us", MAXFLOW_US_BUCKETS),
        }
    }

    fn ambient_or_detached() -> Self {
        SepCounters::from_registry(wsn_obs::current_or_detached().registry())
    }
}

/// Returns violated subtour sets (each as a sorted node list), or empty if
/// `x` satisfies every subtour constraint within `tol`.
///
/// The list is deduplicated; each returned `S` is verified to violate
/// `x(E(S)) ≤ |S| − 1` by at least `tol` before being reported.
///
/// This is [`separate`] without seed pruning; the cutting-plane loop
/// calls [`separate`] with pruning on.
pub fn violated_sets(n: usize, edges: &[FracEdge], tol: f64) -> Vec<Vec<usize>> {
    let counters = SepCounters::ambient_or_detached();
    separate(n, edges, tol, false, &counters).into_iter().map(|vs| vs.set).collect()
}

/// [`violated_sets`]. The last argument once chose a parallel fan-out of
/// the per-seed min-cuts; every seed now runs on the calling thread, and
/// the argument is ignored.
pub fn violated_sets_with(
    n: usize,
    edges: &[FracEdge],
    tol: f64,
    _parallel: bool,
) -> Vec<Vec<usize>> {
    violated_sets(n, edges, tol)
}

/// Runs the separation oracle against the fractional point `edges`, on
/// one auxiliary network built for this call over its positive-capacity
/// arcs.
///
/// Returns every violated set found — sorted members, canonical
/// collection order, verified violation — or empty iff `x` satisfies
/// all subtour constraints within `tol`. `prune` enables the seed
/// short-circuits described in the module docs; they never change the
/// empty/nonempty verdict, only how many distinct sets one call
/// reports.
pub fn separate(
    n: usize,
    edges: &[FracEdge],
    tol: f64,
    prune: bool,
    counters: &SepCounters,
) -> Vec<ViolatedSet> {
    separate_on(support_network, keep_base_flow, n, edges, tol, prune, counters)
}

/// The auxiliary network of one call plus, per seed `s`, the id of its
/// `src → s` arc (declared at 0, raised to ∞ for that seed's query).
type SeedNetwork = (FlowNetwork, Vec<FlowEdgeId>);

/// Builds the call's network over the arcs of positive capacity only, in
/// the order the module docs give; `src = n`, `snk = n + 1`.
fn support_network(n: usize, edges: &[FracEdge], w: &[f64]) -> SeedNetwork {
    let (src, snk) = (n, n + 1);
    let mut net = FlowNetwork::new(n + 2);
    for (v, &wv) in w.iter().enumerate() {
        if wv < 0.0 {
            net.add_edge(src, v, -wv);
        }
    }
    for (v, &wv) in w.iter().enumerate() {
        if wv > 0.0 {
            net.add_edge(v, snk, wv);
        }
    }
    for e in edges.iter().filter(|e| e.x > 0.0) {
        net.add_undirected_edge(e.u, e.v, e.x / 2.0);
    }
    let seed_arcs = (0..n).map(|s| net.add_edge(src, s, 0.0)).collect();
    (net, seed_arcs)
}

/// Solves the base flow of a freshly built call network — its maximum
/// flow with every seed arc still at 0 — and keeps it, so every seed
/// query starts from it (module docs). Returns its value; its wall time
/// is maxflow work and counts in `sep.maxflow_ns`.
fn keep_base_flow(net: &mut FlowNetwork, n: usize, counters: &SepCounters) -> f64 {
    let (src, snk) = (n, n + 1);
    let flow_start = std::time::Instant::now();
    let base = net.max_flow(src, snk);
    net.keep_flow();
    counters.maxflow_ns.add(flow_start.elapsed().as_nanos() as u64);
    base
}

/// One seed's maximum flow on a call network whose base flow `base` is
/// kept: back to the kept residual, the seed's `src → s` arc (`seed_arc`)
/// raised to ∞, and the extra flow added to the base. The residual is
/// left for the seed's cut side.
fn seed_flow(
    net: &mut FlowNetwork,
    seed_arc: FlowEdgeId,
    base: f64,
    n: usize,
    counters: &SepCounters,
) -> f64 {
    let (src, snk) = (n, n + 1);
    net.reset();
    net.set_cap(seed_arc, f64::INFINITY);
    let flow_start = std::time::Instant::now();
    let flow = base + net.max_flow(src, snk);
    let flow_elapsed = flow_start.elapsed();
    counters.maxflow_ns.add(flow_elapsed.as_nanos() as u64);
    counters.maxflow_us.observe(flow_elapsed.as_micros() as u64);
    flow
}

/// Node weights `w(v) = 1 − x(δ(v))/2`.
fn node_weights(n: usize, edges: &[FracEdge]) -> Vec<f64> {
    let mut half_deg = vec![0.0f64; n];
    for e in edges {
        half_deg[e.u] += e.x / 2.0;
        half_deg[e.v] += e.x / 2.0;
    }
    half_deg.iter().map(|h| 1.0 - h).collect()
}

/// [`separate`] with the network builder and the base flow as parameters,
/// so tests can run the same sweep over the network that declares every
/// instance edge, and with every seed's flow solved from zero (the oracle
/// for [`keep_base_flow`]).
fn separate_on(
    build: fn(usize, &[FracEdge], &[f64]) -> SeedNetwork,
    start: fn(&mut FlowNetwork, usize, &SepCounters) -> f64,
    n: usize,
    edges: &[FracEdge],
    tol: f64,
    prune: bool,
    counters: &SepCounters,
) -> Vec<ViolatedSet> {
    counters.calls.inc();
    let mut found: BTreeMap<Vec<usize>, f64> = BTreeMap::new();

    // --- Pre-check: components of the support graph. ---
    let support: Vec<(usize, usize)> =
        edges.iter().filter(|e| e.x > tol).map(|e| (e.u, e.v)).collect();
    let (labels, k) = components(n, support.iter().copied());
    if k > 1 {
        let mut comp_mass = vec![0.0f64; k];
        let mut comp_size = vec![0usize; k];
        for e in edges {
            if labels[e.u] == labels[e.v] {
                comp_mass[labels[e.u]] += e.x;
            }
        }
        for &l in &labels {
            comp_size[l] += 1;
        }
        for comp in 0..k {
            let viol = comp_mass[comp] - (comp_size[comp] as f64 - 1.0);
            if comp_size[comp] >= 2 && viol > tol {
                let set: Vec<usize> = (0..n).filter(|&v| labels[v] == comp).collect();
                found.insert(set, viol);
            }
        }
        if !found.is_empty() {
            counters.violated.add(found.len() as u64);
            return collect(found);
        }
    }

    // --- Exact oracle: one min-cut per uncovered seed. ---
    let mut covered = vec![false; n];
    let mut pruned = 0u64;
    let w = node_weights(n, edges);
    let p_neg: f64 = w.iter().filter(|&&x| x < 0.0).sum();
    let (mut net, seed_arcs) = build(n, edges, &w);
    let base = start(&mut net, n, counters);
    let mut side = Vec::new();

    let mut run_seed = |s: usize| -> Option<ViolatedSet> {
        counters.min_cut_seeds.inc();
        let flow = seed_flow(&mut net, seed_arcs[s], base, n, counters);
        let min_f = p_neg + flow - 1.0;
        if min_f >= -tol {
            return None;
        }
        net.min_cut_source_side_into(n, &mut side); // from `src = n`
        let size = side[..n].iter().filter(|&&b| b).count();
        if size < 2 || size >= n {
            return None;
        }
        let viol = violation_of_mask(edges, &side, size);
        (viol > tol)
            .then(|| ViolatedSet { set: (0..n).filter(|&v| side[v]).collect(), violation: viol })
    };

    let mut chunk = Vec::with_capacity(SEED_CHUNK);
    for first in (0..n).step_by(SEED_CHUNK) {
        let end = (first + SEED_CHUNK).min(n);
        chunk.clear();
        chunk.extend((first..end).filter(|&s| !(prune && covered[s])));
        pruned += (end - first - chunk.len()) as u64;
        let wave: Vec<ViolatedSet> = chunk.iter().filter_map(|&s| run_seed(s)).collect();
        for vs in wave {
            for &v in &vs.set {
                covered[v] = true;
            }
            found.insert(vs.set, vs.violation);
        }
    }
    counters.violated.add(found.len() as u64);
    counters.seeds_pruned.add(pruned);
    collect(found)
}

fn collect(found: BTreeMap<Vec<usize>, f64>) -> Vec<ViolatedSet> {
    found.into_iter().map(|(set, violation)| ViolatedSet { set, violation }).collect()
}

/// Violation-maximizing local strengthening of a separated set.
///
/// Every `S ⊆ V` yields a valid subtour row, so a separated set may be
/// traded for any deeper one. Greedy moves with strictly positive gain:
/// absorbing `v ∉ S` changes the violation by `x(v : S) − 1`, shedding
/// `v ∈ S` by `1 − x(v : S∖{v})` — the pass applies the best move until
/// none gains more than `eps`. Deeper cuts stay violated across more LP
/// reoptimizations, which is what lets the batched engine retire the
/// cutting loop in fewer rounds (DESIGN.md §10). Violation never
/// decreases, so a violated input stays violated. Returns the sorted set.
pub fn strengthen(n: usize, edges: &[FracEdge], set: &[usize], eps: f64) -> Vec<usize> {
    let mut in_set = vec![false; n];
    for &v in set {
        in_set[v] = true;
    }
    let mut size = set.len();
    // mass[v] = Σ x_e over edges between v and S∖{v}.
    let mut mass = vec![0.0f64; n];
    for e in edges {
        if e.u != e.v {
            if in_set[e.v] {
                mass[e.u] += e.x;
            }
            if in_set[e.u] {
                mass[e.v] += e.x;
            }
        }
    }
    // Each applied move raises the violation by at least `eps`, and the
    // violation is bounded by the total edge mass, so this terminates; the
    // explicit cap is belt-and-braces against float drift.
    for _ in 0..2 * n {
        let mut best = eps;
        let mut pick: Option<(usize, bool)> = None; // (node, absorb?)
        for v in 0..n {
            if in_set[v] {
                if size > 2 && 1.0 - mass[v] > best {
                    best = 1.0 - mass[v];
                    pick = Some((v, false));
                }
            } else if mass[v] - 1.0 > best {
                best = mass[v] - 1.0;
                pick = Some((v, true));
            }
        }
        let Some((v, absorb)) = pick else { break };
        in_set[v] = absorb;
        size = if absorb { size + 1 } else { size - 1 };
        for e in edges {
            if e.u == e.v {
                continue;
            }
            let delta = if absorb { e.x } else { -e.x };
            if e.u == v {
                mass[e.v] += delta;
            } else if e.v == v {
                mass[e.u] += delta;
            }
        }
    }
    (0..n).filter(|&v| in_set[v]).collect()
}

/// `x(E(S)) − (|S| − 1)` for a **sorted** set `S`, via binary search:
/// positive means `S` violates the subtour bound.
pub fn violation_sorted(edges: &[FracEdge], set: &[usize]) -> f64 {
    debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
    let member = |v: usize| set.binary_search(&v).is_ok();
    let internal: f64 = edges.iter().filter(|e| member(e.u) && member(e.v)).map(|e| e.x).sum();
    internal - (set.len() as f64 - 1.0)
}

/// As [`violation_sorted`], for a set of `size` members given as a mask
/// over the point's nodes — the form the oracle's cut sides and the cut
/// pool's screening scan already hold. It sums the same edges in the same
/// order, so it returns the same bits.
pub(crate) fn violation_of_mask(edges: &[FracEdge], member: &[bool], size: usize) -> f64 {
    let internal: f64 = edges.iter().filter(|e| member[e.u] && member[e.v]).map(|e| e.x).sum();
    internal - (size as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(u: usize, v: usize, x: f64) -> FracEdge {
        FracEdge { u, v, x }
    }

    fn detached_counters() -> (std::sync::Arc<wsn_obs::Obs>, SepCounters) {
        let obs = wsn_obs::Obs::detached();
        let counters = SepCounters::from_registry(obs.registry());
        (obs, counters)
    }

    /// The network the oracle used to cache across calls, kept as the
    /// oracle for [`support_network`]: both node arcs for every `v`, every
    /// instance edge even at `x_e = 0`, then the seed arcs.
    fn full_network(n: usize, edges: &[FracEdge], w: &[f64]) -> SeedNetwork {
        let (src, snk) = (n, n + 1);
        let mut net = FlowNetwork::new(n + 2);
        for (v, &wv) in w.iter().enumerate() {
            net.add_edge(src, v, (-wv).max(0.0));
        }
        for (v, &wv) in w.iter().enumerate() {
            net.add_edge(v, snk, wv.max(0.0));
        }
        for e in edges {
            net.add_undirected_edge(e.u, e.v, (e.x / 2.0).max(0.0));
        }
        let seed_arcs = (0..n).map(|s| net.add_edge(src, s, 0.0)).collect();
        (net, seed_arcs)
    }

    /// The start that keeps no base flow: every seed query solves its
    /// flow from zero, as the oracle did before the base flow existed —
    /// the reference [`keep_base_flow`] is checked against.
    fn from_zero(_: &mut FlowNetwork, _: usize, _: &SepCounters) -> f64 {
        0.0
    }

    /// Every seed's flow value and cut side on the call's support network,
    /// through the same seed query the sweep runs, started by `start`.
    fn seed_cuts(
        n: usize,
        edges: &[FracEdge],
        start: fn(&mut FlowNetwork, usize, &SepCounters) -> f64,
    ) -> Vec<(f64, Vec<bool>)> {
        let (_obs, counters) = detached_counters();
        let (mut net, seed_arcs) = support_network(n, edges, &node_weights(n, edges));
        let base = start(&mut net, n, &counters);
        seed_arcs
            .iter()
            .map(|&arc| {
                let flow = seed_flow(&mut net, arc, base, n, &counters);
                (flow, net.min_cut_source_side(n))
            })
            .collect()
    }

    /// Sets with the bits of their violations, for bit-for-bit comparisons.
    fn bits(sets: &[ViolatedSet]) -> Vec<(Vec<usize>, u64)> {
        sets.iter().map(|vs| (vs.set.clone(), vs.violation.to_bits())).collect()
    }

    /// Both `prune` settings of [`separate`].
    const SWEEPS: [bool; 2] = [false, true];

    #[test]
    fn spanning_tree_point_has_no_violation() {
        // A path with x = 1 on each edge satisfies all subtour constraints.
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0), fe(2, 3, 1.0)];
        assert!(violated_sets(4, &edges, 1e-7).is_empty());
    }

    #[test]
    fn integral_cycle_detected() {
        // Triangle with all ones plus isolated vertex covered by edge mass
        // elsewhere: x(E({0,1,2})) = 3 > 2.
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0), fe(0, 2, 1.0), fe(2, 3, 0.0)];
        let sets = violated_sets(4, &edges, 1e-7);
        assert!(!sets.is_empty());
        assert!(sets.iter().any(|s| s == &vec![0, 1, 2]));
    }

    #[test]
    fn fractional_violation_detected() {
        // x = 0.75 on each triangle edge: x(E(S)) = 2.25 > |S| − 1 = 2.
        // (At 2/3 the triangle would be tight; the next test covers that.)
        let edges = vec![fe(0, 1, 0.75), fe(1, 2, 0.75), fe(0, 2, 0.75), fe(0, 3, 0.75)];
        let sets = violated_sets(4, &edges, 1e-7);
        assert!(sets.iter().any(|s| s == &vec![0, 1, 2]));
    }

    #[test]
    fn fractional_tight_is_not_violated() {
        // Exactly 2/3 each: x(E(S)) = 2 = |S| − 1; must NOT be reported.
        let x = 2.0 / 3.0;
        let edges = vec![fe(0, 1, x), fe(1, 2, x), fe(0, 2, x), fe(0, 3, 1.0)];
        let sets = violated_sets(4, &edges, 1e-6);
        assert!(sets.is_empty(), "tight sets are feasible: {sets:?}");
    }

    #[test]
    fn disconnected_support_flagged_by_precheck() {
        // Two cliques, each with too much internal mass; total = n−1 = 5.
        let edges = vec![
            fe(0, 1, 1.0),
            fe(1, 2, 1.0),
            fe(0, 2, 1.0), // component {0,1,2}: mass 3 > 2
            fe(3, 4, 1.0),
            fe(4, 5, 1.0), // component {3,4,5}: mass 2 = 2 (tight, fine)
        ];
        let sets = violated_sets(6, &edges, 1e-7);
        assert!(sets.iter().any(|s| s == &vec![0, 1, 2]));
    }

    #[test]
    fn violation_helper() {
        let edges = vec![fe(0, 1, 0.9), fe(1, 2, 0.9), fe(0, 2, 0.9)];
        assert!((violation_sorted(&edges, &[0, 1, 2]) - 0.7).abs() < 1e-12);
        assert!((violation_sorted(&edges, &[0, 1]) - (-0.1)).abs() < 1e-12);
        let mask = [true, true, false];
        assert_eq!(violation_of_mask(&edges, &mask, 2), violation_sorted(&edges, &[0, 1]));
    }

    #[test]
    fn engine_reports_violation_amounts() {
        let (_obs, counters) = detached_counters();
        let edges = vec![fe(0, 1, 0.9), fe(1, 2, 0.9), fe(0, 2, 0.9), fe(0, 3, 0.3)];
        let sets = separate(4, &edges, 1e-7, false, &counters);
        let tri = sets.iter().find(|vs| vs.set == vec![0, 1, 2]).expect("triangle separated");
        assert!((tri.violation - 0.7).abs() < 1e-9, "got {}", tri.violation);
    }

    #[test]
    fn tight_parallel_pair_is_not_violated() {
        let (_obs, counters) = detached_counters();
        // Pair mass exactly 1.0 is tight, not violated.
        let edges = vec![fe(0, 1, 0.5), fe(0, 1, 0.5), fe(1, 2, 1.0)];
        let sets = separate(3, &edges, 1e-7, true, &counters);
        assert!(sets.is_empty(), "tight pair must not be reported: {sets:?}");
    }

    #[test]
    fn covered_seed_skip_crosses_waves() {
        let (obs, counters) = detached_counters();
        // One connected component spanning 18 nodes (> SEED_CHUNK), with a
        // heavy triangle at {15,16,17}. Wave 1 (seeds 0..16) finds the
        // triangle via seed 15; wave 2's seeds 16 and 17 are covered and
        // skipped. The connecting path is light (0.1), so no path seed
        // finds a violated set of its own.
        let mut edges: Vec<FracEdge> = (0..15).map(|v| fe(v, v + 1, 0.1)).collect();
        edges.push(fe(15, 16, 0.9));
        edges.push(fe(16, 17, 0.9));
        edges.push(fe(15, 17, 0.9));
        let sets = separate(18, &edges, 1e-7, true, &counters);
        assert!(sets.iter().any(|vs| vs.set == vec![15, 16, 17]));
        assert_eq!(obs.registry().counter("sep.seeds_pruned").get(), 2, "wave-2 seeds covered");
        assert_eq!(obs.registry().counter("sep.min_cut_seeds").get(), 16);
    }

    #[test]
    fn strengthening_absorbs_a_heavily_attached_neighbor() {
        // Triangle {0,1,2} at x = 1 plus node 3 attached with mass 1.8:
        // absorbing it gains 0.8 > margin, raising the violation 1.0 → 1.8.
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0), fe(0, 2, 1.0), fe(0, 3, 0.9), fe(1, 3, 0.9)];
        let deep = strengthen(4, &edges, &[0, 1, 2], 0.25);
        assert_eq!(deep, vec![0, 1, 2, 3]);
        assert!((violation_sorted(&edges, &deep) - 1.8).abs() < 1e-9);
    }

    #[test]
    fn strengthening_sheds_a_weakly_attached_member() {
        // Node 3 hangs off the violated triangle by mass 0.3: shedding it
        // gains 0.7, and the pendant edge to node 4 never matters.
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0), fe(0, 2, 1.0), fe(2, 3, 0.3), fe(3, 4, 0.4)];
        let deep = strengthen(5, &edges, &[0, 1, 2, 3], 0.25);
        assert_eq!(deep, vec![0, 1, 2]);
        assert!(violation_sorted(&edges, &deep) > violation_sorted(&edges, &[0, 1, 2, 3]));
    }

    #[test]
    fn strengthening_with_no_gaining_move_is_identity() {
        // Every outside node is attached by well under 1 + margin and every
        // member holds more than 1 − margin inside: no move fires.
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0), fe(0, 2, 1.0), fe(2, 3, 0.5)];
        assert_eq!(strengthen(4, &edges, &[0, 1, 2], 0.25), vec![0, 1, 2]);
    }

    #[test]
    fn strengthening_never_shrinks_below_a_pair() {
        // Both members of the pair hold less than 1 − margin inside it, so
        // shedding either would gain; the shed guard (|S| > 2) keeps the
        // pair, and nothing outside is worth absorbing.
        let edges = vec![fe(0, 1, 0.6), fe(0, 1, 0.6), fe(1, 2, 0.8)];
        let deep = strengthen(3, &edges, &[0, 1], 0.25);
        assert!(deep.len() >= 2);
        assert!(violation_sorted(&edges, &deep) >= violation_sorted(&edges, &[0, 1]) - 1e-12);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Brute-force check over all subsets (n ≤ 7).
        fn brute_violated(n: usize, edges: &[FracEdge], tol: f64) -> bool {
            (0u32..(1 << n)).any(|mask| {
                if mask.count_ones() < 2 {
                    return false;
                }
                let set: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
                violation_sorted(edges, &set) > tol
            })
        }

        /// Normalizes raw proptest edge tuples into a point with total mass
        /// `n − 1` (the cardinality equality the oracle assumes); `None`
        /// when the draw can't be normalized into [0, 1] values.
        fn normalized(n: usize, raw: Vec<(usize, usize, u32)>) -> Option<Vec<FracEdge>> {
            let mut edges: Vec<FracEdge> = raw
                .into_iter()
                .filter(|&(u, v, _)| u != v)
                .map(|(u, v, x)| fe(u.min(v), u.max(v), x as f64 / 100.0))
                .collect();
            if edges.is_empty() {
                return None;
            }
            let mass: f64 = edges.iter().map(|e| e.x).sum();
            if mass <= 1e-6 {
                return None;
            }
            let scale = (n as f64 - 1.0) / mass;
            for e in &mut edges {
                e.x *= scale;
            }
            edges.iter().all(|e| e.x <= 1.0 + 1e-9).then_some(edges)
        }

        /// A point shaped like the LP's extreme points: most instance
        /// edges sit at exactly 0 (draws above 115) and a few at
        /// round-off sizes `10⁻¹ … 10⁻¹⁵` (draws 101–115, on both sides of
        /// Dinic's `1e-12` and of the separation tolerance); the rest are
        /// `draw / 100`. All are scaled to a mass of `n − 1` and clipped
        /// at 1. `backbone` prepends a light path through every node, so
        /// the support is connected and the seeded sweep answers instead
        /// of the component pre-check.
        fn sparse_point(n: usize, raw: Vec<(usize, usize, u32)>, backbone: bool) -> Vec<FracEdge> {
            let value = |r: u32| match r {
                0..=100 => r as f64 / 100.0,
                101..=115 => 10f64.powi(100 - r as i32),
                _ => 0.0,
            };
            let path = (0..n - 1).filter(|_| backbone).map(|v| (v, v + 1, 5));
            let mut edges: Vec<FracEdge> = path
                .chain(raw)
                .filter(|&(u, v, _)| u != v)
                .map(|(u, v, r)| fe(u, v, value(r)))
                .collect();
            let mass: f64 = edges.iter().map(|e| e.x).sum();
            if mass > 0.0 {
                let scale = (n as f64 - 1.0) / mass;
                for e in &mut edges {
                    e.x = (e.x * scale).min(1.0);
                }
            }
            edges
        }

        /// A point shaped like the LP's: at most one edge per pair,
        /// `x ∈ [0, 1]` and total mass `n − 1`. Draws 0–100 give `draw /
        /// 100` and are scaled as `min(1, c·x)`, for the `c` that brings
        /// the total to `n − 1`; draws 101–110 sit at or below `tol`
        /// (`tol/10 … tol·10⁻¹⁰`) and are not scaled. `None` when fewer
        /// positive draws than the mass needs remain.
        fn lp_point(n: usize, raw: Vec<(usize, usize, u32)>, tol: f64) -> Option<Vec<FracEdge>> {
            let mut pairs = std::collections::BTreeSet::new();
            let mut edges: Vec<FracEdge> = raw
                .into_iter()
                .filter(|&(u, v, _)| u != v && pairs.insert((u.min(v), u.max(v))))
                .map(|(u, v, r)| match r {
                    0..=100 => fe(u, v, r as f64 / 100.0),
                    _ => fe(u, v, tol * 10f64.powi(100 - r as i32)),
                })
                .collect();
            let faint: f64 = edges.iter().filter(|e| e.x <= tol).map(|e| e.x).sum();
            let target = n as f64 - 1.0 - faint;
            let scaled = |c: f64| -> f64 {
                edges.iter().filter(|e| e.x > tol).map(|e| (c * e.x).min(1.0)).sum()
            };
            if (edges.iter().filter(|e| e.x > tol).count() as f64) < target {
                return None;
            }
            let (mut lo, mut hi) = (0.0, 1.0);
            while scaled(hi) < target {
                hi *= 2.0;
            }
            for _ in 0..100 {
                let mid = (lo + hi) / 2.0;
                if scaled(mid) < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            for e in edges.iter_mut().filter(|e| e.x > tol) {
                e.x = (hi * e.x).min(1.0);
            }
            Some(edges)
        }

        /// A point of dyadic values `x_e = k/64` on distinct pairs, over a
        /// path through every node so the seeded sweep runs. Every sum and
        /// difference the oracle takes on it is exact in f64, so flows
        /// solved from the base flow and from zero agree bit for bit.
        fn dyadic_point(n: usize, raw: Vec<(usize, usize, u32)>) -> Vec<FracEdge> {
            let mut pairs = std::collections::BTreeSet::new();
            (0..n - 1)
                .map(|v| (v, v + 1, 16))
                .chain(raw)
                .filter(|&(u, v, _)| u != v && pairs.insert((u.min(v), u.max(v))))
                .map(|(u, v, k)| fe(u, v, k as f64 / 64.0))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn oracle_agrees_with_brute_force(
                raw in proptest::collection::vec((0usize..6, 0usize..6, 0u32..=100), 5..14)
            ) {
                let n = 6;
                let Some(edges) = normalized(n, raw) else { return Ok(()) };
                let tol = 1e-6;
                let sets = violated_sets(n, &edges, tol);
                let brute = brute_violated(n, &edges, tol);
                if brute {
                    // The oracle must find at least one genuinely violated set.
                    prop_assert!(!sets.is_empty(), "oracle missed a violation");
                }
                for s in &sets {
                    prop_assert!(violation_sorted(&edges, s) > tol, "bogus set {s:?}");
                }
            }

            #[test]
            fn pruned_oracle_matches_brute_force_verdict(
                raw in proptest::collection::vec((0usize..6, 0usize..6, 0u32..=100), 5..14)
            ) {
                let n = 6;
                let Some(edges) = normalized(n, raw) else { return Ok(()) };
                let tol = 1e-6;
                let (_obs, counters) = detached_counters();
                let sets = separate(n, &edges, tol, true, &counters);
                let brute = brute_violated(n, &edges, tol);
                prop_assert_eq!(!sets.is_empty(), brute,
                    "pruning changed the feasibility verdict");
                for vs in &sets {
                    prop_assert!(violation_sorted(&edges, &vs.set) > tol, "bogus set {:?}", vs.set);
                    prop_assert!((violation_sorted(&edges, &vs.set) - vs.violation).abs() < 1e-9);
                }
            }

            #[test]
            fn disconnected_support_is_answered_without_a_min_cut(
                (n, raw) in (4usize..10).prop_flat_map(|n| {
                    (Just(n), proptest::collection::vec((0..n, 0..n, 0u32..=110), n - 1..2 * n))
                })
            ) {
                let tol = 1e-7;
                let edges = lp_point(n, raw, tol);
                prop_assume!(edges.is_some());
                let edges = edges.unwrap();
                let support = edges.iter().filter(|e| e.x > tol).map(|e| (e.u, e.v));
                prop_assume!(components(n, support).1 > 1);
                let (obs, counters) = detached_counters();
                let sets = separate(n, &edges, tol, true, &counters);
                prop_assert!(!sets.is_empty(), "a disconnected LP point must be cut off");
                prop_assert_eq!(obs.registry().counter("sep.min_cut_seeds").get(), 0);
                for vs in &sets {
                    prop_assert!(violation_sorted(&edges, &vs.set) > tol, "bogus set {:?}", vs.set);
                }
            }

            #[test]
            fn support_network_matches_the_full_network(
                raw in proptest::collection::vec((0usize..20, 0usize..20, 0u32..=300), 10..90),
                backbone in any::<bool>(),
            ) {
                let n = 20;
                let edges = sparse_point(n, raw, backbone);
                let tol = 1e-7;
                // Seed by seed: the same flow value and the same cut side.
                let w = node_weights(n, &edges);
                let (mut sup, sup_seeds) = support_network(n, &edges, &w);
                let (mut full, full_seeds) = full_network(n, &edges, &w);
                for s in 0..n {
                    sup.reset();
                    sup.set_cap(sup_seeds[s], f64::INFINITY);
                    full.reset();
                    full.set_cap(full_seeds[s], f64::INFINITY);
                    let (a, b) = (sup.max_flow(n, n + 1), full.max_flow(n, n + 1));
                    prop_assert!(a == b, "seed {}: flow {} vs {}", s, a, b);
                    prop_assert_eq!(sup.min_cut_source_side(n), full.min_cut_source_side(n));
                }
                // Whole sweeps: the same sets with bit-identical violations.
                for prune in SWEEPS {
                    let (_obs, counters) = detached_counters();
                    let got = separate(n, &edges, tol, prune, &counters);
                    let want =
                        separate_on(full_network, keep_base_flow, n, &edges, tol, prune, &counters);
                    prop_assert_eq!(bits(&got), bits(&want), "prune {}", prune);
                }
            }

            #[test]
            fn base_flow_matches_the_from_zero_sweep_on_dyadic_points(
                (n, raw) in (4usize..=24).prop_flat_map(|n| {
                    (Just(n), proptest::collection::vec((0..n, 0..n, 0u32..=64), n..3 * n))
                })
            ) {
                let edges = dyadic_point(n, raw);
                let tol = 1e-7;
                // Seed by seed: the same flow value and the same cut side.
                let warm = seed_cuts(n, &edges, keep_base_flow);
                let cold = seed_cuts(n, &edges, from_zero);
                for (s, ((fw, sw), (fc, sc))) in warm.iter().zip(&cold).enumerate() {
                    prop_assert!(fw == fc, "seed {}: {} vs {}", s, fw, fc);
                    prop_assert_eq!(sw, sc, "seed {} cut side", s);
                }
                // Whole sweeps: the same sets with bit-identical violations.
                for prune in SWEEPS {
                    let (_obs, counters) = detached_counters();
                    let got = separate(n, &edges, tol, prune, &counters);
                    let want =
                        separate_on(support_network, from_zero, n, &edges, tol, prune, &counters);
                    prop_assert_eq!(bits(&got), bits(&want), "prune {}", prune);
                }
            }

            #[test]
            fn base_flow_keeps_every_seed_verdict_on_lp_points(
                (n, raw) in (4usize..=24).prop_flat_map(|n| {
                    (Just(n), proptest::collection::vec((0..n, 0..n, 0u32..=110), n - 1..3 * n))
                })
            ) {
                let tol = 1e-7;
                let Some(edges) = lp_point(n, raw, tol) else { return Ok(()) };
                let p_neg: f64 = node_weights(n, &edges).iter().filter(|&&w| w < 0.0).sum();
                let violated = |flow: f64| p_neg + flow - 1.0 < -tol;
                let side_violation = |side: &[bool]| {
                    violation_of_mask(&edges, side, side[..n].iter().filter(|&&b| b).count())
                };
                let warm = seed_cuts(n, &edges, keep_base_flow);
                let cold = seed_cuts(n, &edges, from_zero);
                for (s, ((fw, sw), (fc, sc))) in warm.iter().zip(&cold).enumerate() {
                    prop_assert!((fw - fc).abs() <= 1e-9, "seed {}: {} vs {}", s, fw, fc);
                    prop_assert_eq!(violated(*fw), violated(*fc), "seed {} verdict", s);
                    // Rounding may land a near-tie on the other minimum cut;
                    // both sides are then violated alike.
                    if violated(*fw) && sw != sc {
                        let (vw, vc) = (side_violation(sw), side_violation(sc));
                        prop_assert!((vw - vc).abs() <= 1e-9, "seed {}: {} vs {}", s, vw, vc);
                    }
                }
            }

            #[test]
            fn zero_edges_leave_the_round_bit_identical(
                raw in proptest::collection::vec((0usize..12, 0usize..12, 0u32..=300), 10..50),
                zeros in proptest::collection::vec(
                    (0usize..12, 0usize..12, any::<bool>(), 0usize..64),
                    1..30,
                ),
                masks in proptest::collection::vec(3u32..(1 << 12), 1..8),
                backbone in any::<bool>(),
            ) {
                let n = 12;
                let tol = 1e-7;
                // The support, as the cutting-plane loop passes it, and the
                // same point with 0 and −0 edges interleaved.
                let support: Vec<FracEdge> =
                    sparse_point(n, raw, backbone).into_iter().filter(|e| e.x != 0.0).collect();
                let mut padded = support.clone();
                for (u, v, negative, at) in zeros.into_iter().filter(|&(u, v, _, _)| u != v) {
                    let x = if negative { -0.0 } else { 0.0 };
                    padded.insert(at.min(padded.len()), fe(u, v, x));
                }
                let mut sets: Vec<Vec<usize>> = masks
                    .iter()
                    .map(|&mask| (0..n).filter(|&v| mask & (1 << v) != 0).collect::<Vec<_>>())
                    .filter(|set| set.len() >= 2)
                    .collect();
                for prune in SWEEPS {
                    let (_obs, counters) = detached_counters();
                    let got = separate(n, &padded, tol, prune, &counters);
                    let want = separate(n, &support, tol, prune, &counters);
                    prop_assert_eq!(bits(&got), bits(&want), "prune {}", prune);
                    sets.extend(want.into_iter().map(|vs| vs.set));
                }
                let mut pool = crate::CutPool::new();
                for set in &sets {
                    let deep = strengthen(n, &padded, set, 0.25);
                    prop_assert_eq!(&deep, &strengthen(n, &support, set, 0.25));
                    prop_assert_eq!(
                        violation_sorted(&padded, &deep).to_bits(),
                        violation_sorted(&support, &deep).to_bits()
                    );
                    pool.insert_inactive(set.clone());
                    pool.insert_inactive(deep);
                }
                let (screened, got) = pool.screen(n, &padded, tol);
                let (_, want) = pool.screen(n, &support, tol);
                prop_assert_eq!(bits(&got), bits(&want));
                // Screening is `violation_sorted` bit for bit.
                let (_, every) = pool.screen(n, &support, f64::NEG_INFINITY);
                prop_assert_eq!(every.len(), screened);
                for vs in &every {
                    prop_assert_eq!(vs.violation.to_bits(), violation_sorted(&support, &vs.set).to_bits());
                }
            }

            #[test]
            fn strengthening_is_monotone_and_well_formed(
                raw in proptest::collection::vec((0usize..7, 0usize..7, 0u32..=100), 6..18),
                mask in 3u32..(1 << 7),
                margin in 1u32..50,
            ) {
                let n = 7;
                let Some(edges) = normalized(n, raw) else { return Ok(()) };
                let set: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
                if set.len() < 2 {
                    return Ok(());
                }
                let deep = strengthen(n, &edges, &set, margin as f64 / 100.0);
                prop_assert!(deep.len() >= 2);
                prop_assert!(deep.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
                prop_assert!(
                    violation_sorted(&edges, &deep) >= violation_sorted(&edges, &set) - 1e-9,
                    "strengthening lowered the violation: {set:?} -> {deep:?}"
                );
            }
        }
    }

    #[test]
    fn sixty_four_node_cycle_is_separated() {
        // A cycle through every node would be tight at S = V, so the
        // x = 1 cycle runs over the first n − 1 nodes and a fractional
        // edge attaches the last one, keeping the total mass at n − 1.
        let n = 64;
        let mut edges: Vec<FracEdge> = (0..n - 1).map(|v| fe(v, (v + 1) % (n - 1), 1.0)).collect();
        // mass so far = n − 1; steal mass from one cycle edge for the
        // attachment so the equality still holds.
        edges[0].x = 0.5;
        edges.push(fe(0, n - 1, 0.5));
        let sets = violated_sets(n, &edges, 1e-7);
        let expected: Vec<usize> = (0..n - 1).collect();
        assert!(sets.iter().any(|s| s == &expected), "cycle must be separated");
        assert_eq!(sets, violated_sets_with(n, &edges, 1e-7, true), "the flag is ignored");
    }
}
