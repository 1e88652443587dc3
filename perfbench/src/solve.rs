//! `solve-n100` and `solve-n40-batch`: closed-loop IRA solves, one at a
//! time, over a fixed set of pool members in seeded order.
//!
//! A pass solves every member once in the seeded order; passes
//! repeat until `--seconds` have elapsed, and the run ends on a pass
//! boundary so every member counts equally and per-solve counts repeat
//! exactly for a given seed.

use crate::layers::{self, SolverLayers, SOLVE_SPAN};
use crate::pool::{self, Fingerprint, PoolSpec, Reference};
use crate::stats::{mean, median, ms_since, quantile, ratio, Metrics, Tally};
use crate::{probes, proto, Args};
use mrlc_core::{solve_ira, verify_tree, IraConfig, IraSolution, MrlcInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wsn_model::AggregationTree;

/// One solver workload: a fixed set, the first `members` of a pool. The
/// seed orders the set; it does not choose it, because which instances a
/// run solves moves its timings more than any bound allows.
#[derive(Clone, Copy, Debug)]
pub struct SolveWorkload {
    pub pool: PoolSpec,
    pub members: usize,
}

/// `solve-n100`: the eight n = 100 members.
pub const SOLVE_N100: SolveWorkload = SolveWorkload { pool: pool::N100, members: 8 };

/// `solve-n40-batch`: the first 300 of the 600 n = 40 members.
pub const SOLVE_N40_BATCH: SolveWorkload = SolveWorkload { pool: pool::N40, members: 300 };

/// A run's generated inputs.
pub struct Inputs {
    pub members: Vec<(usize, MrlcInstance)>,
    pub reference: Reference,
}

/// Builds a run's inputs: the set in seeded order, its instances, and the
/// recorded fingerprints.
pub fn setup(w: &SolveWorkload, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1e_c7ed);
    let members = pool::permutation(w.members, &mut rng)
        .into_iter()
        .map(|i| (i, pool::instance(&w.pool, i)))
        .collect();
    Inputs { members, reference: Reference::load(w.pool.name) }
}

/// The correctness gate for one IRA solve: LC verified on the returned
/// tree, zero Theorem-2 guard removals, and the recorded fingerprint.
pub fn check_solution(
    inst: &MrlcInstance,
    sol: &IraSolution,
    reference: &Reference,
    member: usize,
) -> Result<(), String> {
    let v = verify_tree(inst, &sol.tree);
    if !v.is_valid_spanning_tree || !v.meets_lc {
        return Err(format!("member {member}: tree fails verify_tree (LC {})", v.meets_lc));
    }
    if sol.stats.guard_removals > 0 {
        return Err(format!("member {member}: {} guard removals", sol.stats.guard_removals));
    }
    reference.check(member, &Fingerprint::of(&sol.tree, v.reliability, v.lifetime))
}

/// Solves `inst` inside the benchmark's solver span.
pub fn traced_solve(inst: &MrlcInstance) -> Result<IraSolution, String> {
    let _span = wsn_obs::span(SOLVE_SPAN);
    solve_ira(inst, &IraConfig::default()).map_err(|e| e.to_string())
}

/// One pass over the set; returns each solve's wall in milliseconds and
/// keeps the first tree of every member in `trees`. With `traced`, a
/// wall-clock trace collector is installed for the pass and folded into
/// `layers`.
fn pass(
    inputs: &Inputs,
    tally: &mut Tally,
    trees: &mut [Option<AggregationTree>],
    mut traced: Option<&mut SolverLayers>,
) -> Vec<f64> {
    let obs = traced.is_some().then(layers::collector);
    let guard = obs.as_ref().map(|o| wsn_obs::install(o.clone()));
    let mut walls_ms = Vec::with_capacity(inputs.members.len());
    for (k, (member, inst)) in inputs.members.iter().enumerate() {
        let t = Instant::now();
        let res = traced_solve(inst);
        walls_ms.push(ms_since(t));
        if let (Some(layers), Some(o)) = (traced.as_deref_mut(), &obs) {
            layers.after_solve(o, res.as_ref().ok());
        }
        let verdict = res.and_then(|sol| {
            check_solution(inst, &sol, &inputs.reference, *member)?;
            trees[k].get_or_insert(sol.tree);
            Ok(())
        });
        tally.record(verdict);
    }
    drop(guard);
    if let (Some(layers), Some(o)) = (traced, &obs) {
        layers.absorb(o);
    }
    walls_ms
}

/// Runs the workload and returns its metrics: end-to-end from untraced
/// passes, or per-layer from alternating untraced/traced passes.
pub fn run(w: &SolveWorkload, args: &Args, tally: &mut Tally) -> Metrics {
    let setups = crate::time_setups(|| setup(w, args.seed), drop);
    let inputs = setup(w, args.seed);
    let mut trees: Vec<Option<AggregationTree>> = vec![None; inputs.members.len()];
    let start = Instant::now();
    let mut layers = SolverLayers::default();
    let (mut untraced, mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new(), Vec::new());
    while untraced.is_empty()
        || start.elapsed().as_secs_f64() < args.seconds
        || (args.trace && traced_ms.is_empty())
    {
        let traced = args.trace && untraced.len() > traced_ms.len();
        let t = Instant::now();
        let walls = pass(&inputs, tally, &mut trees, traced.then_some(&mut layers));
        if traced {
            traced_ms.push(ms_since(t));
        } else {
            untraced_ms.push(ms_since(t));
            untraced.push(walls);
        }
    }
    eprintln!("pass walls (ms): untraced {untraced_ms:.0?}, traced {traced_ms:.0?}");
    if args.trace {
        let mut m = layers.metrics();
        let (_, first) = &inputs.members[0];
        m.extend(probes::solver_probes(first));
        if let Some(tree) = trees.iter().flatten().next() {
            m.extend(probes::tree_probes(tree));
        }
        let overhead =
            ratio(median(&traced_ms).unwrap_or(0.0), median(&untraced_ms).unwrap_or(0.0));
        m.set("obs.trace_overhead_frac", overhead - 1.0, "frac");
        return m;
    }
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups).unwrap_or(0.0), "s");
    // Each member's median solve over the passes, then the rate and the
    // quantiles over members: a host hiccup that slows a few solves moves
    // them less than it moves per-pass figures. Interleaved runs of both
    // estimators spread 0.07–0.09 this way against 0.10–0.14 per pass on
    // `solve-n100`.
    let n = inputs.members.len();
    let per_member: Vec<f64> = (0..n)
        .map(|k| median(&untraced.iter().map(|walls| walls[k]).collect::<Vec<_>>()).unwrap_or(0.0))
        .collect();
    m.set("solves_per_s", ratio(n as f64 * 1e3, per_member.iter().sum()), "1/s");
    let p50 = quantile(&per_member, 0.5).unwrap_or(0.0);
    let p90 = quantile(&per_member, 0.9).unwrap_or(0.0);
    m.set("solve_p50_ms", p50, "ms");
    m.set("solve_p90_ms", p90, "ms");
    // A closed loop has no queue: a fresh solve's latency is its solve time.
    m.set("fresh_p50_ms", p50, "ms");
    m.set("fresh_p90_ms", p90, "ms");
    let solved: Vec<(&MrlcInstance, &AggregationTree)> = inputs
        .members
        .iter()
        .zip(&trees)
        .filter_map(|((_, inst), t)| t.as_ref().map(|t| (inst, t)))
        .collect();
    m.extend(tree_side_metrics(&solved));
    m
}

/// The protocol-side end-to-end metrics on a solver workload's own trees:
/// the Fig. 13 broadcast count and lossy ARQ slots of flooding one update
/// over each tree, and the reliability given up to meet LC relative to the
/// unconstrained maximum-reliability tree. Computed once per distinct
/// tree, outside every timed region.
pub fn tree_side_metrics(solved: &[(&MrlcInstance, &AggregationTree)]) -> Metrics {
    let mut msgs = Vec::new();
    let mut slots = Vec::new();
    let mut gaps = Vec::new();
    for (k, (inst, tree)) in solved.iter().enumerate() {
        let (m, s) = proto::update_cost(inst.network(), tree, k as u64);
        msgs.push(m);
        slots.push(s);
        let best = wsn_baselines::mst(inst.network()).expect("connected instance");
        gaps.push(1.0 - inst.reliability(tree) / inst.reliability(&best));
    }
    let mut m = Metrics::default();
    m.set("msgs_per_update", mean(&msgs).unwrap_or(0.0), "count");
    m.set("slots_per_update", mean(&slots).unwrap_or(0.0), "count");
    m.set("reliability_gap", mean(&gaps).unwrap_or(0.0), "frac");
    m
}
