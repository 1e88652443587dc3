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
//! 0, so each seed's maxflow walks few arcs. A seed query raises its
//! `src → s` arc to infinite capacity and a [`FlowNetwork::reset`] undoes
//! the residual state — no per-seed allocation. The serial path reuses
//! the call's network across waves; parallel workers each clone it.
//! Results are merged through a `BTreeMap`, so the parallel and serial
//! paths return **identical** output (a property the proptests pin down).
//!
//! With pruning enabled (the `prune` argument of [`separate`], which the
//! cutting-plane loop always sets) three sound short-circuits cut the
//! per-call min-cut count well below `n`:
//!
//! * **component pre-check bound** — a violated set within a support
//!   component `C` needs `x(E(S)) > |S| − 1 ≥ 1`, and any violated set
//!   spanning several components implies a violated set inside one of
//!   them; components with `x(E(C)) ≤ 1 + tol` (singletons included:
//!   their mass is 0) therefore contain no violated set and all their
//!   seeds are skipped;
//! * **dense-pair shortcut** — a vertex pair whose aggregated edge mass
//!   exceeds `1 + tol` is itself a violated set and is reported without
//!   any min-cut;
//! * **covered-seed skip** — seeds already contained in a violated set
//!   found earlier this call are skipped. Seeds are processed in
//!   fixed-width waves of 16 (`SEED_CHUNK`) so the serial and parallel
//!   paths skip exactly the same seeds.
//!
//! Skipping a covered seed can suppress *additional* violated sets, never
//! all of them: whenever a violated set exists, one within a single heavy
//! component exists, and that component's first uncovered seed finds a
//! violated set (or is covered because one was already found). The oracle
//! therefore still returns a nonempty result iff the point is infeasible.

use std::collections::{BTreeMap, HashMap};
use wsn_graph::{components, FlowEdgeId, FlowNetwork};
use wsn_obs::{Counter, Histogram, Registry};
use wsn_util::parallel_map_with;

/// Node count at which the per-seed min-cuts are worth fanning out.
pub(crate) const PARALLEL_SEP_THRESHOLD: usize = 64;

/// Seeds are processed in waves of this width; violated sets found by
/// earlier waves veto covered seeds in later ones. A fixed constant keeps
/// the serial and parallel paths output-identical.
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
/// engine bumps them from whatever thread runs a seed — the handles are
/// plain `Arc` atomics, so parallel workers need not inherit (or even know
/// about) an ambient collector and final sums are schedule-independent.
#[derive(Clone, Debug)]
pub struct SepCounters {
    pub(crate) calls: Counter,
    pub(crate) min_cut_seeds: Counter,
    pub(crate) violated: Counter,
    pub(crate) seeds_pruned: Counter,
    /// Cumulative wall time inside per-seed maxflow calls. A sum of
    /// atomics, so it stays schedule-independent under parallel fan-out.
    pub(crate) maxflow_ns: Counter,
    /// Per-seed maxflow wall time (µs) — the profiler's attribution of
    /// oracle cost to individual seeds, not just the stage total.
    pub(crate) maxflow_us: Histogram,
}

/// Per-seed maxflow wall-time buckets (µs, up to 100 ms then overflow).
const MAXFLOW_US_BUCKETS: &[u64] =
    &[10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000];

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
pub fn violated_sets(n: usize, edges: &[FracEdge], tol: f64) -> Vec<Vec<usize>> {
    violated_sets_with(n, edges, tol, n >= PARALLEL_SEP_THRESHOLD)
}

/// As [`violated_sets`], with explicit control over parallel fan-out of
/// the per-seed min-cuts. Output is identical either way: every returned
/// set is sorted, and the collection order is canonical (`BTreeMap`).
///
/// This is [`separate`] without seed pruning; the cutting-plane loop
/// calls [`separate`] with pruning on.
pub fn violated_sets_with(
    n: usize,
    edges: &[FracEdge],
    tol: f64,
    parallel: bool,
) -> Vec<Vec<usize>> {
    let counters = SepCounters::ambient_or_detached();
    separate(n, edges, tol, parallel, false, &counters).into_iter().map(|vs| vs.set).collect()
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
    parallel: bool,
    prune: bool,
    counters: &SepCounters,
) -> Vec<ViolatedSet> {
    separate_on(support_network, n, edges, tol, parallel, prune, counters)
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

/// Node weights `w(v) = 1 − x(δ(v))/2`.
fn node_weights(n: usize, edges: &[FracEdge]) -> Vec<f64> {
    let mut half_deg = vec![0.0f64; n];
    for e in edges {
        half_deg[e.u] += e.x / 2.0;
        half_deg[e.v] += e.x / 2.0;
    }
    half_deg.iter().map(|h| 1.0 - h).collect()
}

/// [`separate`] with the network builder as a parameter, so tests can run
/// the same sweep over the network that declares every instance edge.
fn separate_on(
    build: fn(usize, &[FracEdge], &[f64]) -> SeedNetwork,
    n: usize,
    edges: &[FracEdge],
    tol: f64,
    parallel: bool,
    prune: bool,
    counters: &SepCounters,
) -> Vec<ViolatedSet> {
    counters.calls.inc();
    let mut found: BTreeMap<Vec<usize>, f64> = BTreeMap::new();

    // --- Pre-check: components of the support graph. ---
    let support: Vec<(usize, usize)> =
        edges.iter().filter(|e| e.x > tol).map(|e| (e.u, e.v)).collect();
    let (labels, k) = components(n, support.iter().copied());
    let mut comp_mass = vec![0.0f64; k];
    let mut comp_size = vec![0usize; k];
    for e in edges {
        if labels[e.u] == labels[e.v] {
            comp_mass[labels[e.u]] += e.x;
        }
    }
    for v in 0..n {
        comp_size[labels[v]] += 1;
    }
    if k > 1 {
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

    // --- Pruning pre-passes. ---
    let mut covered = vec![false; n];
    let mut pruned = 0u64;
    if prune {
        // Dense pairs: aggregated mass above 1 + tol is a violation of
        // the two-element subtour bound, no min-cut needed.
        let mut pair_mass: HashMap<(usize, usize), f64> = HashMap::new();
        for e in edges {
            if e.u != e.v {
                *pair_mass.entry((e.u.min(e.v), e.u.max(e.v))).or_insert(0.0) += e.x;
            }
        }
        for (&(u, v), &m) in &pair_mass {
            if m > 1.0 + tol {
                found.insert(vec![u, v], m - 1.0);
                covered[u] = true;
                covered[v] = true;
            }
        }
    }

    // --- Exact oracle: one min-cut per surviving seed. ---
    let w = node_weights(n, edges);
    let p_neg: f64 = w.iter().filter(|&&x| x < 0.0).sum();
    let (net, seed_arcs) = build(n, edges, &w);
    // The serial path's network and cut-side buffer; each parallel worker
    // clones it for its wave.
    let mut scratch = (net, Vec::new());

    let src = n;
    let snk = n + 1;
    let run_seed = |(net, side): &mut (FlowNetwork, Vec<bool>), s: usize| -> Option<ViolatedSet> {
        counters.min_cut_seeds.inc();
        net.reset();
        net.set_cap(seed_arcs[s], f64::INFINITY);
        let flow_start = std::time::Instant::now();
        let flow = net.max_flow(src, snk);
        let flow_elapsed = flow_start.elapsed();
        counters.maxflow_ns.add(flow_elapsed.as_nanos() as u64);
        counters.maxflow_us.observe(flow_elapsed.as_micros() as u64);
        let min_f = p_neg + flow - 1.0;
        if min_f >= -tol {
            return None;
        }
        net.min_cut_source_side_into(src, side);
        let set: Vec<usize> = (0..n).filter(|&v| side[v]).collect();
        if set.len() < 2 || set.len() >= n {
            return None;
        }
        let viol = violation(edges, &set);
        (viol > tol).then_some(ViolatedSet { set, violation: viol })
    };

    let mut chunk = Vec::with_capacity(SEED_CHUNK);
    for base in (0..n).step_by(SEED_CHUNK) {
        chunk.clear();
        for s in base..(base + SEED_CHUNK).min(n) {
            let skip = prune && (comp_mass[labels[s]] <= 1.0 + tol || covered[s]);
            if skip {
                pruned += 1;
            } else {
                chunk.push(s);
            }
        }
        if chunk.is_empty() {
            continue;
        }
        let wave: Vec<Option<ViolatedSet>> = if parallel && chunk.len() > 1 {
            parallel_map_with(chunk.len(), || scratch.clone(), |sc, i| run_seed(sc, chunk[i]))
        } else {
            chunk.iter().map(|&s| run_seed(&mut scratch, s)).collect()
        };
        for vs in wave.into_iter().flatten() {
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

/// `x(E(S)) − (|S| − 1)`: positive means `S` violates the subtour bound.
pub fn violation(edges: &[FracEdge], set: &[usize]) -> f64 {
    let in_set: std::collections::HashSet<usize> = set.iter().copied().collect();
    let internal: f64 =
        edges.iter().filter(|e| in_set.contains(&e.u) && in_set.contains(&e.v)).map(|e| e.x).sum();
    internal - (set.len() as f64 - 1.0)
}

/// As [`violation`], for a **sorted** set, via binary search — the
/// allocation-free form the cut pool's screening scan uses.
pub fn violation_sorted(edges: &[FracEdge], set: &[usize]) -> f64 {
    debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
    let member = |v: usize| set.binary_search(&v).is_ok();
    let internal: f64 = edges.iter().filter(|e| member(e.u) && member(e.v)).map(|e| e.x).sum();
    internal - (set.len() as f64 - 1.0)
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
        // x = 2/3 on each triangle edge: x(E(S)) = 2 > |S| − 1 = 2? No —
        // equals exactly 2... use 0.75: 2.25 > 2.
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
        assert!((violation(&edges, &[0, 1, 2]) - 0.7).abs() < 1e-12);
        assert!((violation(&edges, &[0, 1]) - (-0.1)).abs() < 1e-12);
        assert!((violation_sorted(&edges, &[0, 1, 2]) - 0.7).abs() < 1e-12);
        assert!((violation_sorted(&edges, &[0, 1]) - (-0.1)).abs() < 1e-12);
    }

    #[test]
    fn engine_reports_violation_amounts() {
        let (_obs, counters) = detached_counters();
        let edges = vec![fe(0, 1, 0.9), fe(1, 2, 0.9), fe(0, 2, 0.9), fe(0, 3, 0.3)];
        let sets = separate(4, &edges, 1e-7, false, false, &counters);
        let tri = sets.iter().find(|vs| vs.set == vec![0, 1, 2]).expect("triangle separated");
        assert!((tri.violation - 0.7).abs() < 1e-9, "got {}", tri.violation);
    }

    #[test]
    fn component_bound_prunes_light_components_and_singletons() {
        let (obs, counters) = detached_counters();
        // No support component is violated *as a whole* (so the
        // disconnected-support pre-check falls through), but component
        // {0,1,2,3} hides a violated triangle. The light pendant pair
        // {4,5} (mass 0.8 ≤ 1) and the singleton {6} (mass 0) are pruned
        // by the component bound without a single min-cut.
        let edges = vec![
            fe(0, 1, 0.9),
            fe(1, 2, 0.9),
            fe(0, 2, 0.9),
            fe(2, 3, 0.2), // component mass 2.9 ≤ |C| − 1 = 3: not violated
            fe(4, 5, 0.8),
        ];
        let sets = separate(7, &edges, 1e-7, false, true, &counters);
        assert!(sets.iter().any(|vs| vs.set == vec![0, 1, 2]));
        // Seeds 4, 5 (light component) and 6 (singleton) pruned; all seven
        // seeds fit one wave, so the four heavy-component seeds all run.
        assert_eq!(obs.registry().counter("sep.seeds_pruned").get(), 3);
        assert_eq!(obs.registry().counter("sep.min_cut_seeds").get(), 4);
    }

    #[test]
    fn dense_pair_shortcut_avoids_min_cuts_for_its_nodes() {
        let (obs, counters) = detached_counters();
        // Connected support (single component, so the component pre-check
        // does not intercept). Aggregated (0,1) mass 1.2 > 1 triggers the
        // dense-pair shortcut; seeds 0 and 1 are covered by the found set
        // and only seed 2 runs a min-cut.
        let edges = vec![fe(0, 1, 0.6), fe(0, 1, 0.6), fe(1, 2, 0.8)];
        let sets = separate(3, &edges, 1e-7, false, true, &counters);
        assert!(sets.iter().any(|vs| vs.set == vec![0, 1]));
        let pair = sets.iter().find(|vs| vs.set == vec![0, 1]).unwrap();
        assert!((pair.violation - 0.2).abs() < 1e-9);
        assert_eq!(obs.registry().counter("sep.min_cut_seeds").get(), 1);
        assert_eq!(obs.registry().counter("sep.seeds_pruned").get(), 2);
    }

    #[test]
    fn dense_pair_shortcut_needs_strict_excess() {
        let (_obs, counters) = detached_counters();
        // Pair mass exactly 1.0 is tight, not violated.
        let edges = vec![fe(0, 1, 0.5), fe(0, 1, 0.5), fe(1, 2, 1.0)];
        let sets = separate(3, &edges, 1e-7, false, true, &counters);
        assert!(sets.is_empty(), "tight pair must not be reported: {sets:?}");
    }

    #[test]
    fn covered_seed_skip_crosses_waves() {
        let (obs, counters) = detached_counters();
        // One connected component spanning 18 nodes (> SEED_CHUNK), with a
        // heavy triangle at {15,16,17}. Wave 1 (seeds 0..16) finds the
        // triangle via seed 15; wave 2's seeds 16 and 17 are covered and
        // skipped. The connecting path is light (0.1) so the component
        // stays heavy only through the triangle.
        let mut edges: Vec<FracEdge> = (0..15).map(|v| fe(v, v + 1, 0.1)).collect();
        edges.push(fe(15, 16, 0.9));
        edges.push(fe(16, 17, 0.9));
        edges.push(fe(15, 17, 0.9));
        let sets = separate(18, &edges, 1e-7, false, true, &counters);
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
        assert!((violation(&edges, &deep) - 1.8).abs() < 1e-9);
    }

    #[test]
    fn strengthening_sheds_a_weakly_attached_member() {
        // Node 3 hangs off the violated triangle by mass 0.3: shedding it
        // gains 0.7, and the pendant edge to node 4 never matters.
        let edges = vec![fe(0, 1, 1.0), fe(1, 2, 1.0), fe(0, 2, 1.0), fe(2, 3, 0.3), fe(3, 4, 0.4)];
        let deep = strengthen(5, &edges, &[0, 1, 2, 3], 0.25);
        assert_eq!(deep, vec![0, 1, 2]);
        assert!(violation(&edges, &deep) > violation(&edges, &[0, 1, 2, 3]));
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
        // A violated pair with nothing worth absorbing stays a pair even
        // though both members hold less than 1 − margin... they cannot:
        // the shed guard requires |S| > 2.
        let edges = vec![fe(0, 1, 0.6), fe(0, 1, 0.6), fe(1, 2, 0.8)];
        let deep = strengthen(3, &edges, &[0, 1], 0.25);
        assert!(deep.len() >= 2);
        assert!(violation(&edges, &deep) >= violation(&edges, &[0, 1]) - 1e-12);
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
                violation(edges, &set) > tol
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
                    prop_assert!(violation(&edges, s) > tol, "bogus set {s:?}");
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
                let sets = separate(n, &edges, tol, false, true, &counters);
                let brute = brute_violated(n, &edges, tol);
                prop_assert_eq!(!sets.is_empty(), brute,
                    "pruning changed the feasibility verdict");
                for vs in &sets {
                    prop_assert!(violation(&edges, &vs.set) > tol, "bogus set {:?}", vs.set);
                    prop_assert!((violation(&edges, &vs.set) - vs.violation).abs() < 1e-9);
                }
            }

            #[test]
            fn parallel_separation_identical_to_serial(
                raw in proptest::collection::vec((0usize..9, 0usize..9, 0u32..=100), 8..24)
            ) {
                let n = 9;
                let Some(edges) = normalized(n, raw) else { return Ok(()) };
                let serial = violated_sets_with(n, &edges, 1e-6, false);
                let parallel = violated_sets_with(n, &edges, 1e-6, true);
                prop_assert_eq!(serial, parallel);

                // The pruned engine is wave-chunked precisely so this holds
                // with pruning too.
                let (_obs, counters) = detached_counters();
                let ser = separate(n, &edges, 1e-6, false, true, &counters);
                let par = separate(n, &edges, 1e-6, true, true, &counters);
                prop_assert_eq!(ser, par);
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
                for (prune, parallel) in [(false, false), (false, true), (true, false), (true, true)] {
                    let (_obs, counters) = detached_counters();
                    let got = separate(n, &edges, tol, parallel, prune, &counters);
                    let want = separate_on(full_network, n, &edges, tol, parallel, prune, &counters);
                    let bits = |sets: &[ViolatedSet]| -> Vec<(Vec<usize>, u64)> {
                        sets.iter().map(|vs| (vs.set.clone(), vs.violation.to_bits())).collect()
                    };
                    prop_assert_eq!(bits(&got), bits(&want), "prune {} parallel {}", prune, parallel);
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
                    violation(&edges, &deep) >= violation(&edges, &set) - 1e-9,
                    "strengthening lowered the violation: {set:?} -> {deep:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_path_used_above_threshold() {
        // A big cycle: x = 1 on every edge of an n-cycle violates the
        // subtour bound on the full... no — S = V attains exactly 0; put
        // the cycle on an (n − 1)-node subset and attach the last node by
        // a fractional edge so total mass is n − 1.
        let n = PARALLEL_SEP_THRESHOLD;
        let mut edges: Vec<FracEdge> = (0..n - 1).map(|v| fe(v, (v + 1) % (n - 1), 1.0)).collect();
        // mass so far = n − 1; steal mass from one cycle edge for the
        // attachment so the equality still holds.
        edges[0].x = 0.5;
        edges.push(fe(0, n - 1, 0.5));
        let sets = violated_sets(n, &edges, 1e-7); // n ≥ threshold → parallel
        let expected: Vec<usize> = (0..n - 1).collect();
        assert!(sets.iter().any(|s| s == &expected), "cycle must be separated");
        assert_eq!(sets, violated_sets_with(n, &edges, 1e-7, false));
    }
}
