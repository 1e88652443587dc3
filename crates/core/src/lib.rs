//! The paper's primary contribution: the **MRLC** problem and the
//! **Iterative Relaxation Algorithm (IRA)**.
//!
//! Given a connected network `G = (V, E)` with per-link PRR `q_e`, per-node
//! initial energy `I(v)`, the send/receive energy model, and a lifetime
//! bound `LC`, IRA finds a data-aggregation tree `T` with `L(T) ≥ LC` whose
//! cost `C(T) = Σ −log q_e` is at most `OPT(L')`, where
//! `L' = I_min·LC/(I_min − 2·Rx·LC)` is the tightened bound of Algorithm 1.
//!
//! The pipeline:
//!
//! 1. [`formulation`] encodes `LP(G, L', W)` (Eqs. 11–15): spanning-tree
//!    (subtour) constraints plus per-node lifetime constraints, which — via
//!    `L(v) ≥ L' ⟺ Ch(v) ≤ (I(v)/L' − Tx)/Rx` — become fractional degree
//!    caps `x(δ(v)) ≤ β_v`.
//! 2. The exponential family of subtour constraints is handled by **cutting
//!    planes**: solve a relaxation with [`wsn_lp`]'s extreme-point simplex,
//!    find a violated set with the min-cut [`separation`] oracle, add it,
//!    repeat. An extreme point of a relaxation that satisfies every subtour
//!    constraint is an extreme point of the full polytope.
//! 3. [`ira`] runs Algorithm 1: drop `x_e = 0` edges, remove the lifetime
//!    constraint of any node whose **worst-case** lifetime over the support
//!    already meets `LC` (Theorem 2 guarantees one exists), iterate; once
//!    `W = ∅` the LP is the subtour LP, whose extreme points are spanning
//!    trees (Lemma 1).
//! 4. [`verify`] independently checks every returned tree.
//!
//! # Example
//!
//! ```
//! use mrlc_core::{solve_ira, IraConfig, MrlcInstance};
//! use wsn_model::{EnergyModel, NetworkBuilder};
//!
//! // A diamond with one weak shortcut; node 0 is the sink.
//! let mut b = NetworkBuilder::new(4);
//! b.add_edge(0, 1, 0.99).unwrap();
//! b.add_edge(1, 2, 0.98).unwrap();
//! b.add_edge(2, 3, 0.97).unwrap();
//! b.add_edge(0, 3, 0.80).unwrap();
//! let net = b.build().unwrap();
//!
//! let inst = MrlcInstance::new(net, EnergyModel::PAPER, 2.0e6).unwrap();
//! let sol = solve_ira(&inst, &IraConfig::default()).unwrap();
//! assert!(sol.meets_lc);
//! assert!(sol.reliability > 0.9); // the 0.80 link is avoided
//! ```

pub mod bounds;
pub mod cutpool;
pub mod exact;
pub mod formulation;
pub mod ira;
pub mod lagrangian;
pub mod pareto;
pub mod problem;
pub mod resilience;
pub mod separation;
pub mod verify;

pub use bounds::{lifetime_bounds, LifetimeBounds};
pub use cutpool::CutPool;
pub use exact::{solve_exact, solve_exact_budgeted, ExactConfig, ExactOutcome};
pub use formulation::{CutLp, CutLpOutcome};
pub use ira::{
    resume_ira, solve_ira, solve_ira_budgeted, IraCheckpoint, IraConfig, IraError, IraSolution,
    IraStats,
};
pub use lagrangian::{lagrangian_dbmst, LagrangianConfig, LagrangianResult};
pub use pareto::{dominant_points, pareto_frontier, ParetoPoint};
pub use problem::MrlcInstance;
pub use resilience::{
    solve_resilient, solve_resilient_ctx, ResilienceConfig, ResilienceError, ResilientRun,
    SolveOutcome, SolveTier,
};
pub use verify::{verify_tree, Verification};
