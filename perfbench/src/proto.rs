//! `proto-dynamics`: the Figs. 11–13 link-dynamics replay with every
//! repair delivered over a lossy channel.
//!
//! Each replay starts from the IRA tree of DFL-16 or the seeded n = 32
//! network and runs the paper's 100 rounds: one random link of the
//! distributed tree degrades, the protocol repairs locally
//! (`ProtocolState::handle_link_worse`), the repair is flooded with
//! `DistributedNetwork::parent_change_lossy` over a seeded
//! `FaultPlan::from_network_prr` channel, replicas are checked (with
//! anti-entropy resync and a re-flood when the sink missed the update), and
//! centralized IRA re-solves the degraded network. A pass is the four
//! replays of [`REPLAYS`]; passes repeat with the same seeds until
//! `--seconds`.
//!
//! Both networks run at the ladder's bound (up to four children a node),
//! not Figs. 11–13's 70% of AAML's lifetime: under that tighter bound the
//! centralized re-solve on degraded networks trips IRA's Theorem-2 guard
//! and returns trees that miss LC, which the correctness gate rejects.

use crate::layers::{self, SolverLayers};
use crate::pool::{self, Fingerprint, Reference};
use crate::solve::traced_solve;
use crate::stats::{mean, median, median_of_groups, ms_since, ratio, Metrics, Tally};
use crate::{probes, Args};
use mrlc_core::{verify_tree, MrlcInstance};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;
use wsn_model::{AggregationTree, EnergyModel, Network, NodeId};
use wsn_proto::{
    broadcast_message_count, DistributedNetwork, FaultPlan, LossyChannel, ProtocolState,
    RetryPolicy,
};

/// Rounds per replay (the paper's 100).
const ROUNDS: usize = 100;
/// Per-event raw `−log₂ q` cost increase (the paper's `10⁻³`).
const COST_STEP: f64 = 1e-3;
/// A pass: (network, degradation seed) per replay — DFL-16 with Figs.
/// 11–13's dynamics seed 7, and three n = 32 sequences. The degradations
/// are fixed so the protocol counts do not swing with the run seed, which
/// drives the lossy channel and the replay order. One DFL-16 replay to
/// three n = 32 keeps the re-solve median inside the n = 32 cluster rather
/// than on the gap between the two networks' solve times.
const REPLAYS: [(usize, u64); 4] = [(0, 7), (1, 7), (1, 8), (1, 9)];
/// Re-floods allowed when the sink missed an update before it counts as a
/// divergence.
const MAX_REISSUES: usize = 3;

/// One replay's seeds.
#[derive(Clone, Copy, Debug)]
struct Replay {
    net: usize,
    dynamics_seed: u64,
    channel_seed: u64,
}

struct Deployment {
    net: Network,
    lc: f64,
    tree: AggregationTree,
}

/// A run's generated inputs.
struct Inputs {
    deployments: Vec<Deployment>,
    replays: Vec<Replay>,
}

fn setup(seed: u64, tally: &mut Tally) -> Inputs {
    let reference = Reference::load("proto");
    let deployments = pool::proto_networks()
        .into_iter()
        .enumerate()
        .map(|(i, net)| {
            let lc = pool::ladder_lc();
            let inst = MrlcInstance::new(net.clone(), EnergyModel::PAPER, lc).expect("valid");
            let sol = traced_solve(&inst).expect("initial IRA tree");
            let v = verify_tree(&inst, &sol.tree);
            tally.record(if v.meets_lc && sol.stats.guard_removals == 0 {
                reference.check(i, &Fingerprint::of(&sol.tree, v.reliability, v.lifetime))
            } else {
                Err(format!("proto network {i}: initial tree fails the gate"))
            });
            Deployment { net, lc, tree: sol.tree }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0d1a_5eed);
    let replays = pool::permutation(REPLAYS.len(), &mut rng)
        .into_iter()
        .map(|k| {
            let (net, dynamics_seed) = REPLAYS[k];
            Replay { net, dynamics_seed, channel_seed: rng.random() }
        })
        .collect();
    Inputs { deployments, replays }
}

/// What one distributed repair cost.
#[derive(Clone, Copy, Debug, Default)]
struct UpdateCost {
    messages: usize,
    frames: usize,
    slots: u64,
    failed_hops: usize,
    reissues: usize,
}

fn same_tree(a: &AggregationTree, b: &AggregationTree) -> bool {
    (0..a.n()).all(|v| a.parent(NodeId::new(v)) == b.parent(NodeId::new(v)))
}

/// Floods the repair `state` just made at `child` and checks every live
/// replica agrees with the protocol state afterwards.
fn deliver(
    state: &ProtocolState,
    dnet: &mut DistributedNetwork,
    child: NodeId,
    messages: usize,
    ch: &mut LossyChannel,
) -> Result<UpdateCost, String> {
    let policy = RetryPolicy::default();
    let new_parent = state.coded().parent(child).expect("a repaired node has a parent");
    let mut cost = UpdateCost { messages, ..UpdateCost::default() };
    let want = state.tree();
    loop {
        let d = dnet
            .parent_change_lossy(child, new_parent, ch, &policy)
            .map_err(|e| format!("parent change {child}->{new_parent}: {e:?}"))?;
        cost.frames += d.total_frames();
        cost.slots += d.slots;
        cost.failed_hops += d.failed_hops;
        if !dnet.is_consistent_alive(ch) {
            let r = dnet.resync(ch, &policy, 100);
            cost.frames += r.delivery.total_frames();
            cost.slots += r.delivery.slots;
            cost.failed_hops += r.delivery.failed_hops;
        }
        if dnet.is_consistent_alive(ch) && same_tree(&dnet.tree(), &want) {
            return Ok(cost);
        }
        if cost.reissues == MAX_REISSUES {
            return Err(format!("replicas still diverge after {MAX_REISSUES} re-floods"));
        }
        // The sink missed the update and resync restored its older tree:
        // the origin floods its change again.
        cost.reissues += 1;
    }
}

/// Per-pass observations.
#[derive(Default)]
struct PassLog {
    resolve_ms: Vec<f64>,
    update_ms: Vec<f64>,
    costs: Vec<UpdateCost>,
    gaps: Vec<f64>,
    /// Centralized-tree fingerprints in pass order; later passes repeat
    /// the first exactly.
    fingerprints: Vec<Fingerprint>,
}

fn replay(
    d: &Deployment,
    r: &Replay,
    tally: &mut Tally,
    log: &mut PassLog,
    mut traced: Option<(&mut SolverLayers, &wsn_obs::Obs)>,
) {
    let model = EnergyModel::PAPER;
    let mut net = d.net.clone();
    let mut rng = StdRng::seed_from_u64(r.dynamics_seed);
    let mut state = ProtocolState::new(&d.tree, d.lc, model).expect("initial tree codes");
    let mut dnet = DistributedNetwork::new(net.n());
    dnet.announce(&d.tree).expect("initial announce");
    let mut ch = LossyChannel::new(FaultPlan::from_network_prr(&d.net).with_seed(r.channel_seed));
    let factor = 2f64.powf(-COST_STEP);
    for _ in 0..ROUNDS {
        let tree = state.tree();
        let edges: Vec<(NodeId, NodeId)> = tree.edges().collect();
        let (child, parent) = edges[rng.random_range(0..edges.len())];
        let e = net.find_edge(child, parent).expect("tree edge exists");
        let degraded = net.link(e).prr().degraded(factor);
        net.set_prr(e, degraded);

        let t = Instant::now();
        let outcome = {
            let _span = wsn_obs::span("bench.update");
            let outcome = state.handle_link_worse(&net, child);
            (outcome.changes > 0)
                .then(|| deliver(&state, &mut dnet, child, outcome.messages, &mut ch))
        };
        if let Some(res) = outcome {
            log.update_ms.push(ms_since(t));
            match res {
                Ok(cost) => {
                    tally.record(Ok(()));
                    log.costs.push(cost);
                }
                Err(why) => tally.record(Err(why)),
            }
        }

        let inst = MrlcInstance::new(net.clone(), model, d.lc).expect("valid instance");
        let t = Instant::now();
        let res = traced_solve(&inst);
        log.resolve_ms.push(ms_since(t));
        if let Some((layers, obs)) = traced.as_mut() {
            layers.after_solve(obs, res.as_ref().ok());
        }
        let verdict = res.and_then(|sol| {
            let v = verify_tree(&inst, &sol.tree);
            if !v.meets_lc || sol.stats.guard_removals > 0 {
                return Err(format!(
                    "n = {}: centralized re-solve fails the gate (meets LC {}, {} guard removals)",
                    inst.network().n(),
                    v.meets_lc,
                    sol.stats.guard_removals
                ));
            }
            log.gaps.push(1.0 - inst.reliability(&state.tree()) / v.reliability);
            log.fingerprints.push(Fingerprint::of(&sol.tree, v.reliability, v.lifetime));
            Ok(())
        });
        tally.record(verdict);
    }
}

/// The Fig. 13 broadcast count of one update on `tree`, and the lossy ARQ
/// slots of one flood over it on a `FaultPlan::from_network_prr` channel.
pub fn update_cost(net: &Network, tree: &AggregationTree, seed: u64) -> (f64, f64) {
    let mut ch = LossyChannel::new(FaultPlan::from_network_prr(net).with_seed(seed));
    let mut dnet = DistributedNetwork::new(net.n());
    let d = dnet.announce_lossy(tree, &mut ch, &RetryPolicy::default()).expect("announce");
    (broadcast_message_count(tree) as f64, d.slots as f64)
}

/// Runs the workload.
pub fn run(args: &Args, tally: &mut Tally) -> Metrics {
    let setups = crate::time_setups(|| setup(args.seed, &mut Tally::default()), drop);
    let inputs = setup(args.seed, tally);
    let start = Instant::now();
    let mut layers = SolverLayers::default();
    let mut logs: Vec<PassLog> = Vec::new();
    let mut traced_logs: Vec<PassLog> = Vec::new();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    while untraced_ms.is_empty()
        || start.elapsed().as_secs_f64() < args.seconds
        || (args.trace && traced_ms.is_empty())
    {
        let traced = args.trace && (logs.len() + traced_logs.len()) % 2 == 1;
        let obs = traced.then(layers::collector);
        let guard = obs.as_ref().map(|o| wsn_obs::install(o.clone()));
        let mut log = PassLog::default();
        let t = Instant::now();
        for r in &inputs.replays {
            let hook = obs.as_deref().map(|o| (&mut layers, o));
            replay(&inputs.deployments[r.net], r, tally, &mut log, hook);
        }
        drop(guard);
        if let Some(o) = &obs {
            layers.absorb(o);
        }
        if let Some(first) = logs.first().or(traced_logs.first()) {
            if first.fingerprints != log.fingerprints {
                tally.fail("a repeated pass re-solved to different trees".to_string());
            }
        }
        if traced {
            traced_ms.push(ms_since(t));
            traced_logs.push(log);
        } else {
            untraced_ms.push(ms_since(t));
            logs.push(log);
        }
    }
    let first = logs.first().expect("at least one untraced pass");
    let updates = first.costs.len() as f64;
    let sum = |f: fn(&UpdateCost) -> f64| first.costs.iter().map(f).sum::<f64>();

    if args.trace {
        let mut m = layers.metrics();
        let n32 = &inputs.deployments[1];
        let inst = MrlcInstance::new(n32.net.clone(), EnergyModel::PAPER, n32.lc).expect("valid");
        m.extend(probes::solver_probes(&inst));
        m.extend(probes::tree_probes(&n32.tree));
        let update_us: Vec<f64> =
            traced_logs.iter().flat_map(|l| l.update_ms.iter().map(|ms| ms * 1e3)).collect();
        m.set("proto.update_us_p50", median(&update_us).unwrap_or(0.0), "us");
        m.set("proto.updates", updates, "count");
        m.set("proto.frames_per_update", ratio(sum(|c| c.frames as f64), updates), "count");
        m.set("proto.retransmissions", layers.per_pass("proto.retransmissions"), "count");
        m.set("proto.failed_hops", sum(|c| c.failed_hops as f64), "count");
        m.set("proto.reissues", sum(|c| c.reissues as f64), "count");
        let overhead =
            ratio(median(&traced_ms).unwrap_or(0.0), median(&untraced_ms).unwrap_or(0.0));
        m.set("obs.trace_overhead_frac", overhead - 1.0, "frac");
        return m;
    }
    let resolve_ms: Vec<Vec<f64>> = logs.iter().map(|l| l.resolve_ms.clone()).collect();
    let update_ms: Vec<Vec<f64>> = logs.iter().map(|l| l.update_ms.clone()).collect();
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups).unwrap_or(0.0), "s");
    // Medians over passes, as in the solver workloads.
    let rates: Vec<f64> = logs
        .iter()
        .zip(&untraced_ms)
        .map(|(l, ms)| ratio(l.resolve_ms.len() as f64 * 1e3, *ms))
        .collect();
    m.set("solves_per_s", median(&rates).unwrap_or(0.0), "1/s");
    m.set("solve_p50_ms", median_of_groups(&resolve_ms, 0.5), "ms");
    m.set("solve_p90_ms", median_of_groups(&resolve_ms, 0.9), "ms");
    m.set("fresh_p50_ms", median_of_groups(&update_ms, 0.5), "ms");
    m.set("fresh_p90_ms", median_of_groups(&update_ms, 0.9), "ms");
    m.set("msgs_per_update", ratio(sum(|c| c.messages as f64), updates), "count");
    m.set("slots_per_update", ratio(sum(|c| c.slots as f64), updates), "count");
    m.set("reliability_gap", mean(&first.gaps).unwrap_or(0.0), "frac");
    m
}
