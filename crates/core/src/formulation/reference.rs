//! Test-only reference solvers: the two designs the production engine
//! replaced, kept as differential oracles.
//!
//! * [`Reference::Cold`] rebuilds the LP through the dense two-phase
//!   simplex every cut round — the pre-warm-start solver. Warm and cold
//!   must reach the same optimum at every step of a shrinking sequence.
//! * [`Reference::SingleCut`] adds one cut per round with no pool, no seed
//!   pruning and no strengthening — the textbook loop. On distinct costs
//!   the optimum is unique, so the engine must decode the identical tree.
//!
//! Tests reach them through [`CutLp::reference`]; IRA-level tests hand a
//! reference constructor to `ira::solve_ira_impl`.

use super::{lift, CutLp, CutLpError, CutLpOutcome, LpEdge, MAX_CUT_ROUNDS, SEP_TOL};
use crate::cutpool::select_batch;
use crate::separation::{self, FracEdge, PARALLEL_SEP_THRESHOLD};
use wsn_lp::{FaultKind, LpProblem, LpStatus, Relation, VarId};

/// Which solver a test-built [`CutLp`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reference {
    /// The production engine — what [`CutLp::new`] builds.
    Engine,
    /// The engine with its batch capped at `K` cuts per round.
    BatchCap(usize),
    /// The engine's separation over an LP rebuilt from scratch each round.
    Cold,
    /// One cut per round over the warm LP: no pool screening, no seed
    /// pruning, no strengthening, no parking.
    SingleCut,
}

impl CutLp {
    /// A cutting-plane state that runs `reference` instead of the engine.
    pub(crate) fn reference(reference: Reference) -> CutLp {
        CutLp { reference, ..CutLp::new() }
    }

    /// The separation step of the swapped-in reference, or `None` when it
    /// separates like the engine.
    pub(super) fn separate_reference(
        &mut self,
        n: usize,
        frac: &[FracEdge],
        round: usize,
    ) -> Option<Result<usize, CutLpError>> {
        match self.reference {
            Reference::Engine | Reference::Cold => None,
            Reference::BatchCap(k) => Some(self.separate_batch(n, frac, round, k)),
            Reference::SingleCut => Some(self.separate_single_cut(n, frac)),
        }
    }

    /// The textbook round: the most violated oracle set gets a row.
    fn separate_single_cut(&mut self, n: usize, frac: &[FracEdge]) -> Result<usize, CutLpError> {
        let mut cands = separation::separate(
            n,
            frac,
            SEP_TOL,
            n >= PARALLEL_SEP_THRESHOLD,
            false,
            &self.counters,
        );
        if cands.is_empty() {
            return Ok(0);
        }
        cands.retain(|vs| !self.pool.is_active(&vs.set));
        if cands.is_empty() {
            return Err(CutLpError::StalledCut);
        }
        let (picked, _rest) = select_batch(cands, 1);
        let added = picked.len();
        for vs in picked {
            self.pool.activate(vs.set);
            self.metrics.cuts_added.inc();
        }
        Ok(added)
    }

    /// The cold solver: every round rebuilds the LP — degree caps plus the
    /// pool's activated cuts — and solves it with the dense simplex.
    pub(super) fn solve_cold(
        &mut self,
        n: usize,
        edges: &[LpEdge],
        caps: &[(usize, f64)],
    ) -> Result<CutLpOutcome, CutLpError> {
        // Incident-edge index per capped node, hoisted out of the round
        // loop: the edge set is fixed for the whole call.
        let cap_incident: Vec<(usize, f64, Vec<usize>)> = caps
            .iter()
            .map(|&(node, beta)| {
                let inc: Vec<usize> = edges
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.u == node || e.v == node)
                    .map(|(i, _)| i)
                    .collect();
                (node, beta, inc)
            })
            .collect();

        for round in 0..MAX_CUT_ROUNDS {
            if let Some(ctx) = &self.ctx {
                if ctx.is_cancelled() || ctx.is_expired() || ctx.round_cap_hit(round as u64) {
                    return Err(CutLpError::Interrupted);
                }
            }
            let mut lp = LpProblem::new();
            let vars: Vec<VarId> = edges.iter().map(|e| lp.add_unit_var(e.cost)).collect();

            // Eq. 14: x(E(V)) = |V| − 1.
            let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            lp.add_constraint(&all, Relation::Eq, n as f64 - 1.0);

            // Eq. 15 as degree caps: x(δ(v)) ≤ β_v.
            for (_, beta, inc) in &cap_incident {
                // A cap at or above the incident count is vacuous.
                if inc.is_empty() || *beta >= inc.len() as f64 - 1e-12 {
                    continue;
                }
                let incident: Vec<(VarId, f64)> = inc.iter().map(|&i| (vars[i], 1.0)).collect();
                lp.add_constraint(&incident, Relation::Le, *beta);
            }

            // Eq. 13 for the pool's activated cuts.
            for i in 0..self.pool.active_count() {
                let set = self.pool.active_set(i);
                let member = |v: usize| set.binary_search(&v).is_ok();
                let internal: Vec<(VarId, f64)> = edges
                    .iter()
                    .zip(&vars)
                    .filter(|(e, _)| member(e.u) && member(e.v))
                    .map(|(_, &v)| (v, 1.0))
                    .collect();
                if internal.len() >= set.len() {
                    lp.add_constraint(&internal, Relation::Le, set.len() as f64 - 1.0);
                }
            }

            if let Some(ctx) = &self.ctx {
                if ctx.poll_fault(FaultKind::PoisonCut) {
                    // The validating model builder rejects non-finite rows
                    // at insertion, so the injected poison surfaces as the
                    // sentinel's typed error.
                    return Err(CutLpError::Lp(wsn_lp::LpError::Numerical));
                }
            }
            self.metrics.lp_solves.inc();
            self.metrics.cut_rounds.inc();
            let lp_start = std::time::Instant::now();
            let sol = {
                let _span = wsn_obs::span_with("lp-solve", vec![wsn_obs::field("round", round)]);
                wsn_lp::solve_with_ctx(&lp, self.ctx.as_deref()).map_err(lift)?
            };
            self.metrics.lp_ns.add(lp_start.elapsed().as_nanos() as u64);
            self.metrics.pivots.add(sol.iterations as u64);
            match sol.status {
                LpStatus::Infeasible => return Ok(CutLpOutcome::Infeasible),
                LpStatus::Unbounded => return Err(CutLpError::Lp(wsn_lp::LpError::Numerical)),
                LpStatus::Optimal => {}
            }

            let frac: Vec<FracEdge> =
                edges.iter().zip(&sol.x).map(|(e, &x)| FracEdge { u: e.u, v: e.v, x }).collect();
            let sep_start = std::time::Instant::now();
            let added = {
                let _span = wsn_obs::span_with("separation", vec![wsn_obs::field("round", round)]);
                self.separate_round(n, &frac, round)?
            };
            self.metrics.sep_ns.add(sep_start.elapsed().as_nanos() as u64);
            if added == 0 {
                return Ok(CutLpOutcome::Optimal { x: sol.x, objective: sol.objective });
            }
        }
        Err(CutLpError::CutRoundLimit)
    }
}
