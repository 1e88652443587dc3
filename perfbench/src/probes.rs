//! Layer probes: single calls into one layer on the workload's own inputs,
//! timed in the traced run only. Each runs inside a `bench.probe.*` span.

use crate::stats::{median, Metrics};
use mrlc_core::formulation::LpEdge;
use mrlc_core::separation::{violated_sets_with, FracEdge};
use mrlc_core::{CutLp, CutLpOutcome, MrlcInstance};
use std::hint::black_box;
use std::time::{Duration, Instant};
use wsn_graph::FlowNetwork;
use wsn_model::{lifetime, AggregationTree, NodeId};
use wsn_proto::{DistributedNetwork, Message};
use wsn_prufer::{CodedTree, PruferCode};

/// Median nanoseconds per call of `f` over seven batches of ≥ 5 ms each.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut k = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..k {
            f();
        }
        if t.elapsed() >= Duration::from_millis(5) || k >= 1 << 20 {
            break;
        }
        k *= 2;
    }
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..k {
                f();
            }
            t.elapsed().as_nanos() as f64 / k as f64
        })
        .collect();
    median(&samples).expect("seven samples")
}

/// The fractional optimum of IRA's first LP on `inst` (all edges, every
/// node capped at `L'`), as separation sees it.
pub fn first_lp_optimum(inst: &MrlcInstance) -> Vec<FracEdge> {
    let net = inst.network();
    let n = net.n();
    let model = inst.model();
    let l_prime = lifetime::tightened_bound(net.min_initial_energy(), model, inst.lc())
        .map_or(inst.lc(), |b| b.l_prime);
    let caps: Vec<(usize, f64)> = (0..n)
        .map(|i| {
            let v = NodeId::new(i);
            let beta = lifetime::degree_cap(net.initial_energy(v), model, l_prime, i == 0);
            (i, beta.min(n as f64 - 1.0))
        })
        .collect();
    let edges: Vec<LpEdge> = net
        .edges()
        .map(|(e, l)| LpEdge { u: l.u().index(), v: l.v().index(), cost: l.cost(), tag: e.index() })
        .collect();
    let x = match CutLp::new().solve(n, &edges, &caps) {
        Ok(CutLpOutcome::Optimal { x, .. }) => x,
        other => panic!("first IRA LP must be optimal on a pool instance: {other:?}"),
    };
    edges.iter().zip(x).map(|(e, x)| FracEdge { u: e.u, v: e.v, x }).collect()
}

/// Solver-side probes on `inst`: one sink-to-node max flow over the LP
/// support (capacities `x_e / 2`), and a serial seeded-min-cut sweep.
pub fn solver_probes(inst: &MrlcInstance) -> Metrics {
    let _span = wsn_obs::span("bench.probe.solver");
    let n = inst.network().n();
    let frac = first_lp_optimum(inst);
    let mut m = Metrics::default();

    let mut flow = FlowNetwork::new(n);
    for e in frac.iter().filter(|e| e.x > 1e-9) {
        flow.add_undirected_edge(e.u, e.v, e.x / 2.0);
    }
    let mut t = 0usize;
    let ns = {
        let _s = wsn_obs::span("bench.probe.maxflow");
        ns_per_call(|| {
            t = t % (n - 1) + 1;
            flow.reset();
            black_box(flow.max_flow(0, t));
        })
    };
    m.set("maxflow.us_per_call", ns / 1e3, "us");
    m.set("maxflow.calls", (n - 1) as f64, "count");

    let ns = {
        let _s = wsn_obs::span("bench.probe.sweep");
        ns_per_call(|| {
            black_box(violated_sets_with(n, &frac, 1e-7, false));
        })
    };
    m.set("sep.sweep_us_per_seed", ns / 1e3 / n as f64, "us");
    m.set("sep.sweep_n", n as f64, "count");
    m
}

/// Tree-side probes on a solved tree: Prüfer decode, one parent change,
/// the wire codec, and a lossless announce flood.
pub fn tree_probes(tree: &AggregationTree) -> Metrics {
    let _span = wsn_obs::span("bench.probe.tree");
    let n = tree.n();
    let mut m = Metrics::default();
    let code = PruferCode::encode(tree).expect("solved trees encode");
    let ns = ns_per_call(|| {
        black_box(code.decode().expect("round trip"));
    });
    m.set("prufer.decode_us", ns / 1e3, "us");

    // Move a leaf under another node outside its (singleton) subtree and
    // back again; each call is one change.
    let leaf = (1..n).map(NodeId::new).find(|&v| tree.is_leaf(v)).expect("a tree has a leaf");
    let old = tree.parent(leaf).expect("non-root leaf");
    let other = (0..n).map(NodeId::new).find(|&v| v != leaf && v != old).expect("n ≥ 3");
    let mut coded = CodedTree::from_tree(tree).expect("solved trees encode");
    let ns = ns_per_call(|| {
        coded.change_parent(leaf, other).expect("valid move");
        coded.change_parent(leaf, old).expect("valid move back");
    });
    m.set("prufer.change_parent_us", ns / 2e3, "us");

    let msgs = [
        Message::ParentChange { epoch: 7, seq: 3, child: leaf, new_parent: other },
        Message::TreeAnnounce { epoch: 7, n: n as u16, code: code.labels().to_vec() },
    ];
    let ns = ns_per_call(|| {
        for msg in &msgs {
            let frame = msg.encode();
            black_box(Message::decode(&frame).expect("round trip"));
        }
    });
    m.set("proto.codec_ns", ns / msgs.len() as f64, "ns");

    let mut dnet = DistributedNetwork::new(n);
    let ns = ns_per_call(|| {
        black_box(dnet.announce(tree).expect("announce"));
    });
    m.set("proto.announce_us", ns / 1e3, "us");
    m.set("proto.announce_n", n as f64, "count");
    m
}
