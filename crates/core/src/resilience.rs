//! Deadline-bounded resilient solve pipeline: the **degradation ladder**.
//!
//! [`solve_resilient`] wraps the exact IRA pipeline in a [`SolveBudget`] and
//! guarantees a graceful answer under any failure the budget or the fault
//! injector can produce:
//!
//! 1. **Exact** — [`solve_ira_budgeted`] under the caller's budget. Success
//!    carries the paper's `C(T) ≤ OPT(L')` certificate.
//! 2. **Resumed** — an interrupted solve (deadline, pivot/round cap, or a
//!    cooperative cancellation triggered by an injected oracle timeout)
//!    leaves an [`IraCheckpoint`] with the warm LP basis and cut pool;
//!    one continuation attempt runs under a fresh sub-budget.
//! 3. **Approximate** — numerical failures past what the sentinels can
//!    repair, or a second interruption, fall through to the Lagrangian
//!    degree-bounded MST ([`lagrangian_dbmst`]) whose dual bound certifies
//!    the reported gap, with AAML local search as the final rung. Neither
//!    touches the LP layer, so this tier is immune to every injected
//!    solver fault.
//!
//! Every rung returns a spanning tree with a finite reported gap; only a
//! genuinely `LC`-infeasible (or disconnected) instance yields an error,
//! and nothing in the ladder panics.

use std::sync::Arc;

use wsn_lp::{FaultKind, SolveBudget, SolveCtx};
use wsn_model::AggregationTree;

use crate::ira::{resume_ira, solve_ira_budgeted, IraCheckpoint, IraConfig, IraError, IraSolution};
use crate::lagrangian::{lagrangian_dbmst, LagrangianConfig};
use crate::problem::MrlcInstance;

/// Which rung of the degradation ladder produced the answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveTier {
    /// IRA closed within the original budget.
    Exact,
    /// IRA was interrupted and the checkpoint continuation closed.
    Resumed,
    /// The Lagrangian / AAML approximate pipeline produced the tree.
    Approximate,
}

impl SolveTier {
    fn as_str(self) -> &'static str {
        match self {
            SolveTier::Exact => "exact",
            SolveTier::Resumed => "resumed",
            SolveTier::Approximate => "approximate",
        }
    }
}

impl std::fmt::Display for SolveTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The ladder's answer: always a feasible tree, always a finite gap.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// The aggregation tree. Meets `LC` on every rung (the approximate
    /// rungs only accept `LC`-feasible trees).
    pub tree: AggregationTree,
    /// Which rung produced it.
    pub tier: SolveTier,
    /// Certified relative optimality gap. `0.0` on the exact/resumed rungs
    /// (the `C(T) ≤ OPT(L')` guarantee); on the approximate rung it is
    /// measured against the Lagrangian dual bound, falling back to the
    /// degree-free MST bound. Always finite and non-negative.
    pub gap: f64,
    /// Human-readable account of how the ladder got here.
    pub why: String,
    /// Natural-log cost `C(T)`.
    pub cost: f64,
    /// Network lifetime `L(T)` in rounds.
    pub lifetime: f64,
}

/// Ladder tuning knobs.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// IRA configuration used by the exact and resumed rungs.
    pub ira: IraConfig,
    /// Subgradient configuration for the approximate rung.
    pub lagrangian: LagrangianConfig,
    /// Fraction of the original wall allowance granted to the checkpoint
    /// continuation (caps and deadline scale together).
    pub resume_fraction: f64,
    /// Chaos injections armed on the primary solve context (one-shot; the
    /// continuation context is not re-armed). Empty in production.
    pub faults: Vec<(FaultKind, u64)>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            ira: IraConfig::default(),
            lagrangian: LagrangianConfig::default(),
            resume_fraction: 0.5,
            faults: Vec::new(),
        }
    }
}

/// The only unrecoverable outcome: the instance itself has no answer.
#[derive(Clone, Debug)]
pub enum ResilienceError {
    /// No aggregation tree meets the lifetime bound (or the network is
    /// disconnected), so no rung can produce a feasible tree.
    Infeasible {
        /// The requested bound.
        lc: f64,
        /// Which rung(s) established infeasibility.
        reason: String,
    },
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilienceError::Infeasible { lc, reason } => {
                write!(f, "no feasible tree with lifetime ≥ {lc}: {reason}")
            }
        }
    }
}

impl std::error::Error for ResilienceError {}

/// Runs the degradation ladder under `budget`.
///
/// Never panics: every failure class — deadline expiry, pivot/round caps,
/// cooperative cancellation, sentinel-detected numerical corruption, and
/// each injected fault — lands on a feasible [`SolveOutcome`] whose `tier`
/// and `why` record the path taken. Only a genuinely infeasible instance
/// returns [`ResilienceError::Infeasible`].
pub fn solve_resilient(
    inst: &MrlcInstance,
    config: &ResilienceConfig,
    budget: SolveBudget,
) -> Result<SolveOutcome, ResilienceError> {
    let ctx = budget.start();
    match solve_resilient_ctx(inst, config, budget, &ctx, None)? {
        ResilientRun::Done(out) => Ok(out),
        // The context is private to this call, so nobody can have asked
        // for a handback.
        ResilientRun::Handback(_) => unreachable!("handback requires an external ctx"),
    }
}

/// A run driven through an external context: either a finished ladder
/// outcome, or — when the caller requested a handback mid-solve — the
/// interrupted attempt's checkpoint for a later [`resume_ira`].
#[derive(Debug)]
pub enum ResilientRun {
    /// The ladder terminated normally.
    Done(SolveOutcome),
    /// [`SolveCtx::request_handback`] fired while the exact/resumed rungs
    /// were running; the warm checkpoint is returned instead of being
    /// consumed, so a restarted caller can continue where this left off.
    Handback(Box<IraCheckpoint>),
}

/// [`solve_resilient`] with an externally owned context and an optional
/// starting checkpoint — the entry point for the solve service.
///
/// The caller arms the budget itself (typically via
/// [`SolveBudget::start_with_clock`]) so it can cancel or drain the solve
/// from another thread. Behaviour is identical to [`solve_resilient`]
/// except that [`SolveCtx::request_handback`] short-circuits the ladder:
/// instead of spending the resume sub-budget, the interrupted
/// checkpoint is handed back as [`ResilientRun::Handback`]. Passing
/// `resume_from` starts from a previously handed-back checkpoint (the
/// restarted-service path); success from there lands on the
/// [`SolveTier::Resumed`] rung.
pub fn solve_resilient_ctx(
    inst: &MrlcInstance,
    config: &ResilienceConfig,
    budget: SolveBudget,
    ctx: &Arc<SolveCtx>,
    resume_from: Option<Box<IraCheckpoint>>,
) -> Result<ResilientRun, ResilienceError> {
    let _span =
        wsn_obs::span_with("solve-resilient", vec![wsn_obs::field("n", inst.network().n())]);
    for &(kind, after) in &config.faults {
        ctx.arm_fault(kind, after);
    }

    let from_checkpoint = resume_from.is_some();
    let first = match resume_from {
        Some(cp) => resume_ira(inst, &config.ira, *cp, ctx),
        None => solve_ira_budgeted(inst, &config.ira, ctx),
    };

    match first {
        // A corrupted-but-self-consistent LP can let IRA terminate with a
        // tree that misses LC (it reports, it does not guarantee) — only
        // an LC-feasible tree earns the exact tier.
        Ok(sol) if sol.meets_lc => {
            let (tier, why) = if from_checkpoint {
                (SolveTier::Resumed, "parked checkpoint continuation closed".to_string())
            } else {
                (SolveTier::Exact, "IRA closed within budget".to_string())
            };
            Ok(ResilientRun::Done(finish(sol, tier, why)))
        }
        Ok(_) => {
            record_degrade("exact_missed_lc", 0);
            approximate(inst, config, "IRA tree missed LC; approximate tier".to_string())
                .map(ResilientRun::Done)
        }
        Err(IraError::Interrupted(cp)) => {
            if ctx.handback_requested() {
                record_handback(cp.iterations());
                return Ok(ResilientRun::Handback(cp));
            }
            record_degrade("interrupted", cp.iterations());
            let resume_ctx =
                sub_budget(&budget, config.resume_fraction).start_with_clock(ctx.time_source());
            match resume_ira(inst, &config.ira, *cp, &resume_ctx) {
                Ok(sol) if sol.meets_lc => Ok(ResilientRun::Done(finish(
                    sol,
                    SolveTier::Resumed,
                    "budget expired; checkpoint continuation closed".to_string(),
                ))),
                Ok(_) => {
                    record_degrade("resumed_missed_lc", 0);
                    approximate(
                        inst,
                        config,
                        "resumed tree missed LC; approximate tier".to_string(),
                    )
                    .map(ResilientRun::Done)
                }
                Err(IraError::Interrupted(cp2)) if ctx.handback_requested() => {
                    // Drain landed while the continuation was running; park
                    // the freshest checkpoint instead of degrading.
                    record_handback(cp2.iterations());
                    Ok(ResilientRun::Handback(cp2))
                }
                Err(IraError::LifetimeUnachievable { lc, reason }) => {
                    Err(ResilienceError::Infeasible { lc, reason })
                }
                Err(e) => {
                    record_degrade("resume_failed", 0);
                    approximate(inst, config, format!("resume failed ({e}); approximate tier"))
                        .map(ResilientRun::Done)
                }
            }
        }
        Err(IraError::LifetimeUnachievable { lc, reason }) => {
            // The LP relaxation (after any configured fallback) is
            // infeasible, which certifies integral infeasibility.
            Err(ResilienceError::Infeasible { lc, reason })
        }
        Err(e) => {
            record_degrade("exact_failed", 0);
            approximate(inst, config, format!("exact tier failed ({e}); approximate tier"))
                .map(ResilientRun::Done)
        }
    }
}

/// Derives the continuation budget: `fraction` of the wall allowance and of
/// each cap, never less than one round/pivot so the continuation can move.
fn sub_budget(budget: &SolveBudget, fraction: f64) -> SolveBudget {
    let f = if fraction.is_finite() && fraction > 0.0 { fraction } else { 0.5 };
    SolveBudget {
        wall: budget.wall.map(|w| w.mul_f64(f)),
        max_pivots: budget.max_pivots.map(|p| ((p as f64 * f) as u64).max(1)),
        max_rounds: budget.max_rounds.map(|r| ((r as f64 * f) as u64).max(1)),
    }
}

fn finish(sol: IraSolution, tier: SolveTier, why: String) -> SolveOutcome {
    record_tier(tier, 0.0);
    SolveOutcome { cost: sol.cost, lifetime: sol.lifetime, tree: sol.tree, tier, gap: 0.0, why }
}

/// The final rung: Lagrangian DB-MST with a dual-bound gap certificate,
/// AAML local search as the backstop. LP-free, hence fault-immune.
fn approximate(
    inst: &MrlcInstance,
    config: &ResilienceConfig,
    why: String,
) -> Result<SolveOutcome, ResilienceError> {
    let lr = lagrangian_dbmst(inst, &config.lagrangian);
    if let Some(tree) = lr.best_tree.clone() {
        let gap = lr.gap().or_else(|| mst_gap(inst, lr.best_cost)).unwrap_or(0.0);
        let outcome = SolveOutcome {
            cost: inst.cost(&tree),
            lifetime: inst.lifetime(&tree),
            tree,
            tier: SolveTier::Approximate,
            gap,
            why: format!("{why}: Lagrangian DB-MST with dual-bound certificate"),
        };
        record_tier(SolveTier::Approximate, outcome.gap);
        return Ok(outcome);
    }

    // The subgradient never found a cap-feasible tree; let AAML chase the
    // lifetime directly and accept its tree if it clears LC.
    match wsn_baselines::aaml_tree(
        inst.network(),
        inst.model(),
        None,
        &wsn_baselines::AamlConfig::default(),
    ) {
        Ok(r) if inst.meets_lifetime(&r.tree) => {
            let cost = inst.cost(&r.tree);
            let gap = mst_gap(inst, cost).unwrap_or(0.0);
            record_tier(SolveTier::Approximate, gap);
            Ok(SolveOutcome {
                cost,
                lifetime: r.lifetime,
                tree: r.tree,
                tier: SolveTier::Approximate,
                gap,
                why: format!("{why}: AAML local search (no dual certificate)"),
            })
        }
        Ok(_) => Err(ResilienceError::Infeasible {
            lc: inst.lc(),
            reason: format!("{why}; AAML's lifetime-maximal tree misses LC"),
        }),
        Err(e) => Err(ResilienceError::Infeasible {
            lc: inst.lc(),
            reason: format!("{why}; AAML failed: {e}"),
        }),
    }
}

/// Gap against the degree-free MST cost — a valid (if loose) lower bound on
/// `OPT(LC)`, used when the Lagrangian dual bound is absent.
fn mst_gap(inst: &MrlcInstance, cost: f64) -> Option<f64> {
    if !cost.is_finite() {
        return None;
    }
    let mst = wsn_graph::mst_tree(inst.network()).ok()?;
    let lb = inst.cost(&mst);
    if !lb.is_finite() {
        return None;
    }
    Some(((cost - lb) / lb.abs().max(1e-12)).max(0.0))
}

fn record_handback(iterations: usize) {
    if let Some(obs) = wsn_obs::current() {
        obs.registry().counter("resilience.handback").inc();
    }
    wsn_obs::event("resilience.handback", vec![wsn_obs::field("iterations", iterations)]);
}

fn record_degrade(stage: &'static str, iterations: usize) {
    if let Some(obs) = wsn_obs::current() {
        obs.registry().counter("resilience.degrade").inc();
    }
    wsn_obs::warn(
        "resilience.degrade",
        vec![wsn_obs::field("stage", stage), wsn_obs::field("iterations", iterations)],
    );
}

fn record_tier(tier: SolveTier, gap: f64) {
    if let Some(obs) = wsn_obs::current() {
        obs.registry().counter(&format!("resilience.tier.{tier}")).inc();
    }
    wsn_obs::event(
        "resilience.outcome",
        vec![wsn_obs::field("tier", tier.as_str()), wsn_obs::field("gap", gap)],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wsn_model::{lifetime, EnergyModel, NetworkBuilder};

    fn grid(side: usize) -> wsn_model::Network {
        let n = side * side;
        let mut b = NetworkBuilder::new(n);
        for r in 0..side {
            for c in 0..side {
                let i = r * side + c;
                if c + 1 < side {
                    b.add_edge(i, i + 1, 0.90 + 0.005 * ((i % 10) as f64)).unwrap();
                }
                if r + 1 < side {
                    b.add_edge(i, i + side, 0.90 + 0.005 * ((i % 7) as f64)).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    fn inst(side: usize) -> MrlcInstance {
        let model = EnergyModel::PAPER;
        let lc = lifetime::node_lifetime(3000.0, &model, 3) * 0.99;
        MrlcInstance::new(grid(side), model, lc).unwrap()
    }

    #[test]
    fn unlimited_budget_is_exact_tier() {
        let inst = inst(4);
        let out =
            solve_resilient(&inst, &ResilienceConfig::default(), SolveBudget::unlimited()).unwrap();
        assert_eq!(out.tier, SolveTier::Exact);
        assert_eq!(out.gap, 0.0);
        assert!(inst.meets_lifetime(&out.tree));
    }

    #[test]
    fn exact_tier_matches_plain_ira() {
        let inst = inst(4);
        let out =
            solve_resilient(&inst, &ResilienceConfig::default(), SolveBudget::unlimited()).unwrap();
        let ira = crate::ira::solve_ira(&inst, &IraConfig::default()).unwrap();
        let a: Vec<_> = out.tree.edges().collect();
        let b: Vec<_> = ira.tree.edges().collect();
        assert_eq!(a, b);
        assert!((out.cost - ira.cost).abs() < 1e-12);
    }

    #[test]
    fn zero_deadline_still_returns_feasible_tree() {
        let inst = inst(5);
        let out =
            solve_resilient(&inst, &ResilienceConfig::default(), SolveBudget::wall(Duration::ZERO))
                .unwrap();
        assert!(inst.meets_lifetime(&out.tree), "tier {:?} missed LC", out.tier);
        assert!(out.gap.is_finite() && out.gap >= 0.0);
    }

    #[test]
    fn tight_round_cap_degrades_not_panics() {
        let inst = inst(5);
        let budget = SolveBudget { max_rounds: Some(1), ..SolveBudget::unlimited() };
        let out = solve_resilient(&inst, &ResilienceConfig::default(), budget).unwrap();
        assert!(inst.meets_lifetime(&out.tree));
        assert!(out.gap.is_finite());
    }

    #[test]
    fn infeasible_lc_is_typed_error() {
        let net = grid(3);
        let model = EnergyModel::PAPER;
        let lc = 3000.0 / model.tx * 2.0; // beyond any node's reach
        let inst = MrlcInstance::new(net, model, lc).unwrap();
        match solve_resilient(&inst, &ResilienceConfig::default(), SolveBudget::unlimited()) {
            Err(ResilienceError::Infeasible { .. }) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn handback_before_start_parks_a_resumable_checkpoint() {
        let inst = inst(4);
        let config = ResilienceConfig::default();
        let budget = SolveBudget::unlimited();
        let ctx = budget.start();
        ctx.request_handback();
        let cp = match solve_resilient_ctx(&inst, &config, budget, &ctx, None).unwrap() {
            ResilientRun::Handback(cp) => cp,
            other => panic!("expected a handback, got {other:?}"),
        };
        // A fresh context resumes the parked checkpoint to completion and
        // matches the uninterrupted ladder exactly.
        let ctx2 = SolveBudget::unlimited().start();
        let out =
            match solve_resilient_ctx(&inst, &config, SolveBudget::unlimited(), &ctx2, Some(cp))
                .unwrap()
            {
                ResilientRun::Done(out) => out,
                other => panic!("expected completion, got {other:?}"),
            };
        assert_eq!(out.tier, SolveTier::Resumed);
        let direct = solve_resilient(&inst, &config, SolveBudget::unlimited()).unwrap();
        let a: Vec<_> = out.tree.edges().collect();
        let b: Vec<_> = direct.tree.edges().collect();
        assert_eq!(a, b, "resumed tree must match the uninterrupted solve");
    }

    #[test]
    fn handback_mid_solve_keeps_partial_progress() {
        let inst = inst(5);
        let config = ResilienceConfig::default();
        // Interrupt via the round cap, with handback pre-requested: the
        // ladder must not consume the checkpoint on the resume rung.
        let budget = SolveBudget { max_rounds: Some(1), ..SolveBudget::unlimited() };
        let ctx = budget.start();
        ctx.request_handback();
        match solve_resilient_ctx(&inst, &config, budget, &ctx, None).unwrap() {
            ResilientRun::Handback(_) => {}
            other => panic!("expected a handback, got {other:?}"),
        }
    }

    #[test]
    fn external_ctx_without_handback_matches_solve_resilient() {
        let inst = inst(4);
        let config = ResilienceConfig::default();
        let budget = SolveBudget::unlimited();
        let ctx = budget.start();
        let out = match solve_resilient_ctx(&inst, &config, budget, &ctx, None).unwrap() {
            ResilientRun::Done(out) => out,
            other => panic!("expected completion, got {other:?}"),
        };
        let direct = solve_resilient(&inst, &config, SolveBudget::unlimited()).unwrap();
        assert_eq!(out.tier, direct.tier);
        let a: Vec<_> = out.tree.edges().collect();
        let b: Vec<_> = direct.tree.edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_fault_kind_lands_on_feasible_outcome() {
        for kind in wsn_lp::FAULT_KINDS {
            let inst = inst(4);
            let config =
                ResilienceConfig { faults: vec![(kind, 2)], ..ResilienceConfig::default() };
            let out = solve_resilient(&inst, &config, SolveBudget::unlimited())
                .unwrap_or_else(|e| panic!("fault {kind} produced {e}"));
            assert!(inst.meets_lifetime(&out.tree), "fault {kind} (tier {:?}) missed LC", out.tier);
            assert!(out.gap.is_finite() && out.gap >= 0.0, "fault {kind}");
        }
    }
}
