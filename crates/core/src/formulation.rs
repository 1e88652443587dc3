//! The LP of Eqs. 11–15 with lazily generated subtour constraints.
//!
//! `CutLp` owns the active edge set and the per-node fractional degree caps
//! (`x(δ(v)) ≤ β_v`, the LP image of the lifetime constraints of Eq. 15)
//! and repeatedly solves a relaxation with the extreme-point simplex,
//! adding violated subtour constraints from the min-cut oracle until the
//! point is feasible for the full polytope. Extreme-point status is
//! preserved: a basic solution of the relaxation that satisfies every
//! dropped constraint is a basic solution of the full system.
//!
//! # Warm starts
//!
//! The solver keeps **one persistent [`IncrementalLp`]** alive across cut
//! rounds *and* across `solve` calls. Each cut round starts by appending
//! the subtour rows separation activated to the live LP, whose basis
//! survives, and repairs with a few dual pivots; each
//! IRA iteration (same node set, shrunken edge/cap sets) fixes dropped
//! edges to zero via bound tightening and relaxes dropped caps to a
//! vacuous right-hand side — no rebuild, no phase 1. Whenever a `solve`
//! call is *not* a shrink of the previous one (new edges, new or changed
//! caps, different `n`) the state is rebuilt transparently, so callers
//! need no protocol. The rebuild-every-round solver this replaced lives on
//! only as a unit-test reference (`reference`), the oracle the warm path
//! is checked against.
//!
//! # The cut-pool separation engine
//!
//! Each cut round runs through a [`CutPool`] + [`separation::separate`]
//! pipeline (DESIGN.md §10). The pool parks every set the oracle ever
//! separated; a round first *screens* the pool's inactive side against
//! the current point — one dot product per cut, no maxflow — and
//! re-activates up to [`MAX_CUTS_PER_ROUND`] of its most-violated,
//! non-nested members. Only when the pool is clean does the expensive
//! seeded-min-cut oracle run; its cuts are deepened by
//! violation-maximizing local search ([`separation::strengthen`]) and its
//! surplus findings are parked rather than discarded. The pool survives
//! IRA shrink steps and constraint drops (subtour cuts stay valid on any
//! edge subset); the oracle keeps no state and builds each call's network
//! on the point's support. The pre-engine loop — one cut per round, no
//! pool, no seed pruning — is likewise a unit-test reference only; both
//! terminate at an optimum of the same polytope.

use crate::cutpool::{select_batch, CutPool};
use crate::separation::{self, FracEdge, SepCounters, ViolatedSet, PARALLEL_SEP_THRESHOLD};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;
use wsn_lp::{FaultKind, IncrementalLp, LpStatus, Relation, RowId, SolveCtx, VarId};
use wsn_obs::{Counter, Histogram};

#[cfg(test)]
pub(crate) mod reference;

/// Safety valve on cutting-plane rounds (each round adds ≥ 1 new set, and
/// distinct sets are finite, but numerics deserve a cap).
const MAX_CUT_ROUNDS: usize = 400;

/// Violation tolerance for separation.
const SEP_TOL: f64 = 1e-7;

/// Cap on cuts activated per cut round: the top-K most-violated, mutually
/// non-nested sets get LP rows and the rest are parked in the pool.
pub const MAX_CUTS_PER_ROUND: usize = 64;

/// Minimum violation gain a strengthening move must bring. Small margins
/// absorb everything marginally attached and bloat the LP rows; larger
/// margins keep only decisive moves.
const STRENGTHEN_MARGIN: f64 = 0.25;

/// One active edge of the LP.
#[derive(Clone, Copy, Debug)]
pub struct LpEdge {
    /// Endpoint (dense node index).
    pub u: usize,
    /// Endpoint (dense node index).
    pub v: usize,
    /// Edge cost `c_e = −ln q_e`.
    pub cost: f64,
    /// Caller tag (the network's `EdgeId` index).
    pub tag: usize,
}

/// Outcome of a cutting-plane solve.
#[derive(Clone, Debug)]
pub enum CutLpOutcome {
    /// An optimal extreme point of `LP(G, L', W)`.
    Optimal {
        /// `x_e` per active edge (same order as the input edge slice).
        x: Vec<f64>,
        /// Objective `Σ c_e x_e`.
        objective: f64,
    },
    /// The constraints admit no fractional spanning structure.
    Infeasible,
}

/// Errors from the LP layer.
#[derive(Clone, Debug, PartialEq)]
pub enum CutLpError {
    /// The inner simplex failed (iteration limit / invalid bounds).
    Lp(wsn_lp::LpError),
    /// Cutting-plane rounds exceeded the safety cap.
    CutRoundLimit,
    /// Separation returned only sets the LP already contains — numerical
    /// stall.
    StalledCut,
    /// The solve was stopped by its budget (deadline, pivot/round cap) or
    /// an explicit cancellation. The `CutLp` remains checkpointable: its
    /// pool and warm basis are intact and a later call resumes warm.
    Interrupted,
}

impl std::fmt::Display for CutLpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CutLpError::Lp(e) => write!(f, "simplex failure: {e}"),
            CutLpError::CutRoundLimit => write!(f, "cutting-plane round limit exceeded"),
            CutLpError::StalledCut => write!(f, "cutting planes stalled on a repeated set"),
            CutLpError::Interrupted => {
                write!(f, "solve interrupted by budget or cancellation (state is resumable)")
            }
        }
    }
}

/// Maps LP-layer errors into cut-loop errors, folding the budget
/// interruption into [`CutLpError::Interrupted`].
fn lift(e: wsn_lp::LpError) -> CutLpError {
    match e {
        wsn_lp::LpError::Interrupted => CutLpError::Interrupted,
        other => CutLpError::Lp(other),
    }
}

impl std::error::Error for CutLpError {}

/// Persistent warm-start state: one live LP and basis spanning cut rounds
/// and IRA's shrinking re-solves.
#[derive(Clone, Debug)]
struct WarmState {
    lp: IncrementalLp,
    n: usize,
    /// Variable and endpoints per caller tag, in first-solve edge order.
    vars: BTreeMap<usize, (VarId, usize, usize)>,
    /// Tags whose variable is still free (upper bound 1).
    active: BTreeSet<usize>,
    /// Materialized degree-cap rows: node → (row, β, vacuous rhs).
    cap_rows: BTreeMap<usize, (RowId, f64, f64)>,
    /// Cap nodes still enforced (not yet relaxed to the vacuous rhs).
    active_caps: BTreeSet<usize>,
    /// How many of the pool's activated cuts have LP rows.
    subtour_rows: usize,
}

/// Counter handles for one `CutLp`, backed by the metrics registry that was
/// ambient at construction (or a private detached one, so counter reads
/// always work — plain unit tests, parallel sweep workers). Registry
/// counters are cumulative across every solver sharing the registry, so
/// each handle snapshots its base value at construction and per-instance
/// statistics are reported as deltas.
#[derive(Clone, Debug)]
struct CutLpMetrics {
    lp_solves: Counter,
    cuts_added: Counter,
    pivots: Counter,
    cut_rounds: Counter,
    sep_ns: Counter,
    lp_ns: Counter,
    pool_hits: Counter,
    pool_scans: Counter,
    cuts_batched: Counter,
    seeds_pruned: Counter,
    /// Per-cut-round LP wall time (µs) — the hotspot profiler's view of
    /// how round cost distributes, not just its sum.
    round_lp_us: Histogram,
    /// Per-cut-round simplex pivot count.
    round_pivots: Histogram,
    base: [u64; 9],
}

/// Per-cut-round LP wall-time buckets (µs, up to 5 s then overflow).
const ROUND_LP_US_BUCKETS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 5_000_000,
];

/// Per-cut-round pivot-count buckets.
const ROUND_PIVOT_BUCKETS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

impl CutLpMetrics {
    fn from_registry(reg: &wsn_obs::Registry) -> Self {
        let lp_solves = reg.counter("ira.lp_solves");
        let cuts_added = reg.counter("ira.cuts_added");
        let pivots = reg.counter("ira.pivots");
        let cut_rounds = reg.counter("ira.cut_rounds");
        let sep_ns = reg.counter("ira.sep_ns");
        let lp_ns = reg.counter("ira.lp_ns");
        let pool_hits = reg.counter("sep.pool_hits");
        let pool_scans = reg.counter("sep.pool_scans");
        let cuts_batched = reg.counter("sep.cuts_batched");
        let seeds_pruned = reg.counter("sep.seeds_pruned");
        let round_lp_us = reg.histogram("ira.round_lp_us", ROUND_LP_US_BUCKETS);
        let round_pivots = reg.histogram("ira.round_pivots", ROUND_PIVOT_BUCKETS);
        let base = [
            lp_solves.get(),
            cuts_added.get(),
            pivots.get(),
            cut_rounds.get(),
            sep_ns.get(),
            pool_hits.get(),
            pool_scans.get(),
            cuts_batched.get(),
            seeds_pruned.get(),
        ];
        CutLpMetrics {
            lp_solves,
            cuts_added,
            pivots,
            cut_rounds,
            sep_ns,
            lp_ns,
            pool_hits,
            pool_scans,
            cuts_batched,
            seeds_pruned,
            round_lp_us,
            round_pivots,
            base,
        }
    }
}

/// Cutting-plane state. The cut pool and the simplex basis both survive
/// across IRA iterations (subtour cuts remain valid as edges/constraints
/// are removed).
#[derive(Clone, Debug)]
pub struct CutLp {
    pool: CutPool,
    counters: SepCounters,
    state: Option<WarmState>,
    metrics: CutLpMetrics,
    /// Budget/cancellation token (and fault injector). `None` — the
    /// default — leaves every hot path byte-identical to the unbudgeted
    /// engine.
    ctx: Option<Arc<SolveCtx>>,
    /// The solver a unit test swapped in for the engine (`reference`).
    #[cfg(test)]
    reference: reference::Reference,
}

impl Default for CutLp {
    fn default() -> Self {
        Self::new()
    }
}

impl CutLp {
    /// Creates an empty cutting-plane state: warm-started LP, batched
    /// cut-pool separation.
    pub fn new() -> Self {
        let obs = wsn_obs::current_or_detached();
        let reg = obs.registry();
        CutLp {
            pool: CutPool::new(),
            counters: SepCounters::from_registry(reg),
            state: None,
            metrics: CutLpMetrics::from_registry(reg),
            ctx: None,
            #[cfg(test)]
            reference: reference::Reference::Engine,
        }
    }

    /// Installs (or clears) the budget/cancellation context, propagating
    /// it into the live warm LP so a context set mid-sequence still
    /// governs every subsequent pivot.
    pub fn set_ctx(&mut self, ctx: Option<Arc<SolveCtx>>) {
        self.ctx = ctx.clone();
        if let Some(state) = &mut self.state {
            state.lp.set_ctx(ctx);
        }
    }

    /// The installed budget context, if any.
    pub fn ctx(&self) -> Option<&Arc<SolveCtx>> {
        self.ctx.as_ref()
    }

    /// LP solves performed by this instance.
    pub fn lp_solves(&self) -> usize {
        (self.metrics.lp_solves.get() - self.metrics.base[0]) as usize
    }

    /// Subtour cuts activated (given LP rows) by this instance.
    pub fn cuts_added(&self) -> usize {
        (self.metrics.cuts_added.get() - self.metrics.base[1]) as usize
    }

    /// Simplex pivots across this instance's solves.
    pub fn pivots(&self) -> usize {
        (self.metrics.pivots.get() - self.metrics.base[2]) as usize
    }

    /// Cutting-plane rounds across this instance's solves.
    pub fn cut_rounds(&self) -> usize {
        (self.metrics.cut_rounds.get() - self.metrics.base[3]) as usize
    }

    /// Wall time this instance spent in separation (pool screening plus
    /// the min-cut oracle).
    pub fn sep_time(&self) -> Duration {
        Duration::from_nanos(self.metrics.sep_ns.get() - self.metrics.base[4])
    }

    /// Cuts re-activated from the pool instead of re-derived via maxflow.
    pub fn pool_hits(&self) -> usize {
        (self.metrics.pool_hits.get() - self.metrics.base[5]) as usize
    }

    /// Pool screening passes performed before consulting the oracle.
    pub fn pool_scans(&self) -> usize {
        (self.metrics.pool_scans.get() - self.metrics.base[6]) as usize
    }

    /// Cuts added beyond the first of their round — the direct measure of
    /// multi-cut batching versus the single-cut baseline.
    pub fn cuts_batched(&self) -> usize {
        (self.metrics.cuts_batched.get() - self.metrics.base[7]) as usize
    }

    /// Min-cut seeds skipped by the pruning short-circuits.
    pub fn seeds_pruned(&self) -> usize {
        (self.metrics.seeds_pruned.get() - self.metrics.base[8]) as usize
    }

    /// Total cuts parked in the pool (active and inactive).
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Solves `min Σ c_e x_e` over the spanning-tree polytope of the given
    /// edges intersected with the degree caps.
    ///
    /// `caps` lists `(node, β_v)` pairs — the lifetime constraints of the
    /// still-constrained set `W`. Nodes without an entry are unconstrained.
    pub fn solve(
        &mut self,
        n: usize,
        edges: &[LpEdge],
        caps: &[(usize, f64)],
    ) -> Result<CutLpOutcome, CutLpError> {
        assert!(n >= 1);
        if n == 1 {
            return Ok(CutLpOutcome::Optimal { x: vec![], objective: 0.0 });
        }
        #[cfg(test)]
        if self.reference == reference::Reference::Cold {
            return self.solve_cold(n, edges, caps);
        }
        self.solve_warm(n, edges, caps)
    }

    // ---- separation round ---------------------------------------------

    /// One separation step against the fractional point `frac`: screen the
    /// pool, then consult the oracle; activate the round's batch. Returns
    /// the number of cuts activated — 0 means `frac` is feasible for the
    /// full polytope.
    fn separate_round(
        &mut self,
        n: usize,
        frac: &[FracEdge],
        round: usize,
    ) -> Result<usize, CutLpError> {
        if let Some(ctx) = &self.ctx {
            if ctx.poll_fault(FaultKind::OracleTimeout) {
                // The injected fault mimics a real oracle deadline: the
                // whole solve is cancelled cooperatively and unwinds as
                // an interruption, never a panic.
                ctx.cancel();
                if let Some(obs) = wsn_obs::current() {
                    obs.registry().counter("sep.fault.oracle_timeout").inc();
                    wsn_obs::warn("sep.fault", vec![wsn_obs::field("kind", "oracle_timeout")]);
                }
            }
            if ctx.is_cancelled() || ctx.is_expired() {
                return Err(CutLpError::Interrupted);
            }
        }
        #[cfg(test)]
        if let Some(result) = self.separate_reference(n, frac, round) {
            return result;
        }
        self.separate_batch(n, frac, round, MAX_CUTS_PER_ROUND)
    }

    /// The engine's separation step with a batch cap of `k` cuts.
    fn separate_batch(
        &mut self,
        n: usize,
        frac: &[FracEdge],
        round: usize,
        k: usize,
    ) -> Result<usize, CutLpError> {
        // Pool first: a violated parked cut costs a dot product to find,
        // the oracle costs one maxflow per seed.
        if self.pool.inactive_count() > 0 {
            self.metrics.pool_scans.inc();
            let (_screened, violated) = self.pool.screen(frac, SEP_TOL);
            if !violated.is_empty() {
                let (picked, _rest) = select_batch(violated, k);
                let hits = picked.len();
                for vs in picked {
                    self.pool.activate(vs.set);
                    self.metrics.cuts_added.inc();
                }
                self.metrics.pool_hits.add(hits as u64);
                if hits > 1 {
                    self.metrics.cuts_batched.add(hits as u64 - 1);
                }
                wsn_obs::event(
                    "sep.pool_hit",
                    vec![wsn_obs::field("round", round), wsn_obs::field("cuts", hits)],
                );
                return Ok(hits);
            }
        }

        let mut cands = separation::separate(
            n,
            frac,
            SEP_TOL,
            n >= PARALLEL_SEP_THRESHOLD,
            true,
            &self.counters,
        );
        if cands.is_empty() {
            return Ok(0);
        }
        // A set that already has an LP row cannot cut off the current
        // point again; if the oracle returns nothing else, the loop is
        // numerically stalled.
        cands.retain(|vs| !self.pool.is_active(&vs.set));
        if cands.is_empty() {
            return Err(CutLpError::StalledCut);
        }
        // Deepen each cut, re-deduplicate (strengthened sets can collide),
        // and keep only sets that still lack an LP row. The current LP
        // point satisfies every active row, so a set with positive
        // violation is never active — the filter guards the degenerate
        // zero-violation corner only.
        let mut deep: BTreeMap<Vec<usize>, f64> = BTreeMap::new();
        for vs in cands {
            let set = separation::strengthen(n, frac, &vs.set, STRENGTHEN_MARGIN);
            let viol = separation::violation_sorted(frac, &set);
            let entry = deep.entry(set).or_insert(viol);
            *entry = entry.max(viol);
        }
        let cands: Vec<ViolatedSet> = deep
            .into_iter()
            .filter(|(set, _)| !self.pool.is_active(set))
            .map(|(set, violation)| ViolatedSet { set, violation })
            .collect();
        if cands.is_empty() {
            return Err(CutLpError::StalledCut);
        }
        let (picked, rest) = select_batch(cands, k);
        let added = picked.len();
        for vs in picked {
            self.pool.activate(vs.set);
            self.metrics.cuts_added.inc();
        }
        for vs in rest {
            self.pool.insert_inactive(vs.set);
        }
        if added > 1 {
            self.metrics.cuts_batched.add(added as u64 - 1);
        }
        Ok(added)
    }

    // ---- warm path ----------------------------------------------------

    /// True when the live LP can absorb this call as a shrink:
    /// same node count, edges a subset of the still-active tags, caps a
    /// subset of the still-enforced rows with unchanged β.
    fn compatible(state: &WarmState, n: usize, edges: &[LpEdge], caps: &[(usize, f64)]) -> bool {
        if state.n != n || edges.len() > state.active.len() {
            return false;
        }
        if !edges.iter().all(|e| state.active.contains(&e.tag)) {
            return false;
        }
        caps.iter().all(|&(node, beta)| match state.cap_rows.get(&node) {
            Some(&(_, stored_beta, vacuous)) => {
                // A cap missing from cap_rows because it was vacuous at
                // build time stays vacuous on a shrunken edge set, so only
                // materialized rows need to match.
                state.active_caps.contains(&node) && (stored_beta - beta).abs() < 1e-12
                    || beta >= vacuous - 1e-12
            }
            // Never materialized: fine iff it is (still) vacuous.
            None => beta >= incident_count(edges, node) as f64 - 1e-12,
        })
    }

    /// The LP row of `set` (sorted), or `None` when it cannot bind (fewer
    /// internal edges than the bound).
    fn subtour_row(
        vars: &BTreeMap<usize, (VarId, usize, usize)>,
        set: &[usize],
    ) -> Option<(Vec<(VarId, f64)>, f64)> {
        let member = |v: usize| set.binary_search(&v).is_ok();
        let internal: Vec<(VarId, f64)> = vars
            .values()
            .filter(|&&(_, u, v)| member(u) && member(v))
            .map(|&(var, _, _)| (var, 1.0))
            .collect();
        (internal.len() >= set.len()).then_some((internal, set.len() as f64 - 1.0))
    }

    /// Builds a fresh incremental LP for the given instance; the first cut
    /// round materializes the pool's activated cuts into it.
    fn build_state(&mut self, n: usize, edges: &[LpEdge], caps: &[(usize, f64)]) -> WarmState {
        let mut lp = IncrementalLp::new();
        lp.set_ctx(self.ctx.clone());
        let mut vars = BTreeMap::new();
        let mut active = BTreeSet::new();
        let mut all = Vec::with_capacity(edges.len());
        for e in edges {
            let v = lp.add_unit_var(e.cost);
            vars.insert(e.tag, (v, e.u, e.v));
            active.insert(e.tag);
            all.push((v, 1.0));
        }
        // Eq. 14: x(E(V)) = |V| − 1.
        lp.add_row(&all, Relation::Eq, n as f64 - 1.0);

        // Eq. 15 as degree caps; vacuous caps are skipped entirely.
        let mut cap_rows = BTreeMap::new();
        let mut active_caps = BTreeSet::new();
        for &(node, beta) in caps {
            let incident: Vec<(VarId, f64)> = edges
                .iter()
                .filter(|e| e.u == node || e.v == node)
                .map(|e| (vars[&e.tag].0, 1.0))
                .collect();
            if incident.is_empty() || beta >= incident.len() as f64 - 1e-12 {
                continue;
            }
            let vacuous = incident.len() as f64;
            let row = lp.add_row(&incident, Relation::Le, beta);
            cap_rows.insert(node, (row, beta, vacuous));
            active_caps.insert(node);
        }

        WarmState { lp, n, vars, active, cap_rows, active_caps, subtour_rows: 0 }
    }

    /// Appends LP rows for pool cuts activated since the last
    /// materialization — one batched append, one dual repair — under an
    /// `lp-append` span. Each cut round starts with it, so a fresh state
    /// picks up the whole pool.
    fn materialize_pending(&mut self) -> &mut WarmState {
        let _append = wsn_obs::span("lp-append");
        let state = self.state.as_mut().expect("warm state exists inside the solve loop");
        let mut rows = Vec::new();
        while state.subtour_rows < self.pool.active_count() {
            if let Some(row) =
                Self::subtour_row(&state.vars, self.pool.active_set(state.subtour_rows))
            {
                rows.push(row);
            }
            state.subtour_rows += 1;
        }
        if !rows.is_empty() {
            state.lp.append_le_rows(&rows);
        }
        state
    }

    fn solve_warm(
        &mut self,
        n: usize,
        edges: &[LpEdge],
        caps: &[(usize, f64)],
    ) -> Result<CutLpOutcome, CutLpError> {
        let reuse = self.state.as_ref().is_some_and(|s| Self::compatible(s, n, edges, caps));
        if reuse {
            // Apply the shrink as bound/rhs mutations on the live LP.
            let mut state = self.state.take().unwrap();
            let keep: BTreeSet<usize> = edges.iter().map(|e| e.tag).collect();
            let dropped: Vec<usize> = state.active.difference(&keep).copied().collect();
            for tag in dropped {
                state.lp.set_upper(state.vars[&tag].0, 0.0);
                state.active.remove(&tag);
            }
            let cap_keep: BTreeSet<usize> = caps.iter().map(|&(v, _)| v).collect();
            let relaxed: Vec<usize> = state.active_caps.difference(&cap_keep).copied().collect();
            for node in relaxed {
                let (row, _, vacuous) = state.cap_rows[&node];
                state.lp.relax_le_rhs(row, vacuous);
                state.active_caps.remove(&node);
            }
            self.state = Some(state);
        } else {
            let state = self.build_state(n, edges, caps);
            self.state = Some(state);
        }

        for round in 0..MAX_CUT_ROUNDS {
            if let Some(ctx) = &self.ctx {
                if ctx.is_cancelled() || ctx.is_expired() || ctx.round_cap_hit(round as u64) {
                    return Err(CutLpError::Interrupted);
                }
            }
            self.metrics.lp_solves.inc();
            self.metrics.cut_rounds.inc();
            let lp_start = std::time::Instant::now();
            let sol = {
                let _span = wsn_obs::span_with("lp-solve", vec![wsn_obs::field("round", round)]);
                self.materialize_pending().lp.solve().map_err(lift)?
            };
            let state = self.state.as_ref().expect("warm state exists inside the solve loop");
            let lp_elapsed = lp_start.elapsed();
            self.metrics.lp_ns.add(lp_elapsed.as_nanos() as u64);
            self.metrics.round_lp_us.observe(lp_elapsed.as_micros() as u64);
            self.metrics.round_pivots.observe(sol.iterations as u64);
            self.metrics.pivots.add(sol.iterations as u64);
            match sol.status {
                LpStatus::Infeasible => return Ok(CutLpOutcome::Infeasible),
                LpStatus::Unbounded => {
                    // Box-bounded variables cannot make the model genuinely
                    // unbounded; an unbounded verdict means the LP data
                    // went non-finite past what the sentinels could repair.
                    if let Some(obs) = wsn_obs::current() {
                        obs.registry().counter("lp.sentinel.unbounded_verdict").inc();
                    }
                    return Err(CutLpError::Lp(wsn_lp::LpError::Numerical));
                }
                LpStatus::Optimal => {}
            }

            // Project onto the caller's edge order.
            let x: Vec<f64> = edges.iter().map(|e| sol.x[state.vars[&e.tag].0.index()]).collect();
            let frac: Vec<FracEdge> =
                edges.iter().zip(&x).map(|(e, &x)| FracEdge { u: e.u, v: e.v, x }).collect();
            let sep_start = std::time::Instant::now();
            let added = {
                let _span = wsn_obs::span_with("separation", vec![wsn_obs::field("round", round)]);
                self.separate_round(n, &frac, round)?
            };
            self.metrics.sep_ns.add(sep_start.elapsed().as_nanos() as u64);
            if added == 0 {
                return Ok(CutLpOutcome::Optimal { x, objective: sol.objective });
            }
        }
        Err(CutLpError::CutRoundLimit)
    }
}

/// Number of edges incident to `node`.
fn incident_count(edges: &[LpEdge], node: usize) -> usize {
    edges.iter().filter(|e| e.u == node || e.v == node).count()
}
#[cfg(test)]
mod tests {
    use super::reference::Reference;
    use super::*;
    use wsn_graph::{kruskal, WeightedEdge};

    fn lpe(u: usize, v: usize, cost: f64, tag: usize) -> LpEdge {
        LpEdge { u, v, cost, tag }
    }

    /// Complete graph K5 with distinct costs.
    fn k5() -> Vec<LpEdge> {
        let mut edges = Vec::new();
        let mut tag = 0;
        for u in 0..5 {
            for v in u + 1..5 {
                // A deterministic but non-monotone cost pattern.
                let cost = ((u * 7 + v * 13) % 17) as f64 / 10.0 + 0.05;
                edges.push(lpe(u, v, cost, tag));
                tag += 1;
            }
        }
        edges
    }

    fn assert_integral_tree(n: usize, edges: &[LpEdge], x: &[f64]) {
        let mut count = 0;
        for (e, &v) in edges.iter().zip(x) {
            assert!(
                v.abs() < 1e-6 || (v - 1.0).abs() < 1e-6,
                "fractional value {v} on edge ({}, {})",
                e.u,
                e.v
            );
            if v > 0.5 {
                count += 1;
            }
        }
        assert_eq!(count, n - 1, "support must have n−1 edges");
    }

    #[test]
    fn unconstrained_lp_is_mst() {
        // Lemma 1: without degree caps, the extreme point is integral and
        // optimal ⇒ it is a minimum spanning tree.
        let edges = k5();
        let mut cut = CutLp::new();
        let out = cut.solve(5, &edges, &[]).unwrap();
        let CutLpOutcome::Optimal { x, objective } = out else { panic!("K5 is feasible") };
        assert_integral_tree(5, &edges, &x);
        let wedges: Vec<WeightedEdge> =
            edges.iter().map(|e| WeightedEdge { u: e.u, v: e.v, w: e.cost, id: e.tag }).collect();
        let mst = kruskal(5, &wedges).unwrap();
        let mst_cost: f64 =
            mst.iter().map(|&id| edges.iter().find(|e| e.tag == id).unwrap().cost).sum();
        assert!((objective - mst_cost).abs() < 1e-6, "LP {objective} vs MST {mst_cost}");
    }

    #[test]
    fn degree_cap_changes_the_tree() {
        // Star-friendly costs: all edges to node 0 are cheapest, so the MST
        // is the star at 0; capping x(δ(0)) ≤ 2 forces a different shape.
        let mut edges = Vec::new();
        let mut tag = 0;
        for v in 1..5 {
            edges.push(lpe(0, v, 0.1, tag));
            tag += 1;
        }
        for u in 1..5 {
            for v in u + 1..5 {
                edges.push(lpe(u, v, 1.0, tag));
                tag += 1;
            }
        }
        let mut cut = CutLp::new();
        let CutLpOutcome::Optimal { objective: unconstrained, .. } =
            cut.solve(5, &edges, &[]).unwrap()
        else {
            panic!()
        };
        assert!((unconstrained - 0.4).abs() < 1e-6);

        let mut cut2 = CutLp::new();
        let CutLpOutcome::Optimal { x, objective } = cut2.solve(5, &edges, &[(0, 2.0)]).unwrap()
        else {
            panic!()
        };
        // Optimal now: 2 star edges + 2 expensive edges = 0.2 + 2.0.
        assert!((objective - 2.2).abs() < 1e-6, "got {objective}");
        let deg0: f64 =
            edges.iter().zip(&x).filter(|(e, _)| e.u == 0 || e.v == 0).map(|(_, &v)| v).sum();
        assert!(deg0 <= 2.0 + 1e-6);
    }

    #[test]
    fn infeasible_caps_detected() {
        // A path graph where the middle node is capped below 2 — no spanning
        // tree can avoid degree 2 at the middle of a path.
        let edges = vec![lpe(0, 1, 1.0, 0), lpe(1, 2, 1.0, 1)];
        let mut cut = CutLp::new();
        let out = cut.solve(3, &edges, &[(1, 1.5)]).unwrap();
        assert!(matches!(out, CutLpOutcome::Infeasible));
    }

    #[test]
    fn cuts_are_needed_and_found() {
        // Two triangles sharing no vertex, joined by one expensive edge:
        // without subtour constraints the LP would love to put mass 3 on a
        // cheap triangle. The cutting plane loop must forbid it.
        let edges = vec![
            lpe(0, 1, 0.1, 0),
            lpe(1, 2, 0.1, 1),
            lpe(0, 2, 0.1, 2),
            lpe(3, 4, 0.1, 3),
            lpe(4, 5, 0.1, 4),
            lpe(3, 5, 0.1, 5),
            lpe(2, 3, 5.0, 6),
        ];
        let mut cut = CutLp::new();
        let CutLpOutcome::Optimal { x, objective } = cut.solve(6, &edges, &[]).unwrap() else {
            panic!()
        };
        assert!(cut.cuts_added() > 0, "subtour cuts must fire");
        assert_integral_tree(6, &edges, &x);
        // Must include the bridge and drop one edge per triangle.
        assert!((objective - (0.4 + 5.0)).abs() < 1e-6, "got {objective}");
        assert!((x[6] - 1.0).abs() < 1e-6, "bridge must be chosen");
    }

    #[test]
    fn single_node_trivial() {
        let mut cut = CutLp::new();
        let CutLpOutcome::Optimal { x, objective } = cut.solve(1, &[], &[]).unwrap() else {
            panic!()
        };
        assert!(x.is_empty());
        assert_eq!(objective, 0.0);
    }

    #[test]
    fn state_reuse_across_solves() {
        // Cuts accumulated on the first solve should carry to the second
        // (IRA re-solves after removing edges).
        let edges =
            vec![lpe(0, 1, 0.1, 0), lpe(1, 2, 0.1, 1), lpe(0, 2, 0.1, 2), lpe(2, 3, 2.0, 3)];
        let mut cut = CutLp::new();
        let _ = cut.solve(4, &edges, &[]).unwrap();
        let cuts_after_first = cut.cuts_added();
        let _ = cut.solve(4, &edges, &[]).unwrap();
        // No *new* cuts should be necessary the second time.
        assert_eq!(cut.cuts_added(), cuts_after_first);
    }

    /// Runs the same solve on a warm and a cold instance and checks the
    /// outcomes agree (objective within 1e-6, both feasible or both not).
    fn assert_warm_matches_cold(
        warm: &mut CutLp,
        cold: &mut CutLp,
        n: usize,
        edges: &[LpEdge],
        caps: &[(usize, f64)],
    ) {
        let a = warm.solve(n, edges, caps).unwrap();
        let b = cold.solve(n, edges, caps).unwrap();
        match (a, b) {
            (
                CutLpOutcome::Optimal { objective: oa, x },
                CutLpOutcome::Optimal { objective: ob, .. },
            ) => {
                assert!((oa - ob).abs() < 1e-6, "warm {oa} vs cold {ob}");
                let total: f64 = x.iter().sum();
                assert!((total - (n as f64 - 1.0)).abs() < 1e-6, "mass {total}");
            }
            (CutLpOutcome::Infeasible, CutLpOutcome::Infeasible) => {}
            (a, b) => panic!("outcome mismatch: warm {a:?} vs cold {b:?}"),
        }
    }

    #[test]
    fn warm_matches_cold_on_shrinking_sequence() {
        // Emulates IRA: same node set, monotonically shrinking edge and cap
        // sets. The warm path must track the cold path at every step while
        // actually reusing its basis.
        let edges = k5();
        let caps_full = vec![(0usize, 2.0f64), (1, 3.0), (2, 2.0)];
        let mut warm = CutLp::new();
        let mut cold = CutLp::reference(Reference::Cold);
        assert_warm_matches_cold(&mut warm, &mut cold, 5, &edges, &caps_full);

        // Drop two edges (keep connectivity) and one cap.
        let shrunk: Vec<LpEdge> =
            edges.iter().filter(|e| e.tag != 1 && e.tag != 7).copied().collect();
        let caps_less = vec![(0usize, 2.0f64), (2, 2.0)];
        assert_warm_matches_cold(&mut warm, &mut cold, 5, &shrunk, &caps_less);

        // Drop everything but a spanning structure and all caps.
        let smaller: Vec<LpEdge> =
            shrunk.iter().filter(|e| e.tag != 2 && e.tag != 8).copied().collect();
        assert_warm_matches_cold(&mut warm, &mut cold, 5, &smaller, &[]);
    }

    #[test]
    fn warm_matches_cold_with_subtour_cuts() {
        // The two-triangle instance forces subtour cuts; the warm path
        // appends them to the live LP instead of rebuilding.
        let edges = vec![
            lpe(0, 1, 0.1, 0),
            lpe(1, 2, 0.1, 1),
            lpe(0, 2, 0.1, 2),
            lpe(3, 4, 0.1, 3),
            lpe(4, 5, 0.1, 4),
            lpe(3, 5, 0.1, 5),
            lpe(2, 3, 5.0, 6),
        ];
        let mut warm = CutLp::new();
        let mut cold = CutLp::reference(Reference::Cold);
        assert_warm_matches_cold(&mut warm, &mut cold, 6, &edges, &[]);
        assert!(warm.cuts_added() > 0);
        // Re-solve after dropping one triangle edge: cuts carry over and
        // the basis survives.
        let shrunk: Vec<LpEdge> = edges.iter().filter(|e| e.tag != 2).copied().collect();
        assert_warm_matches_cold(&mut warm, &mut cold, 6, &shrunk, &[]);
    }

    #[test]
    fn warm_detects_infeasible_like_cold() {
        let edges = vec![lpe(0, 1, 1.0, 0), lpe(1, 2, 1.0, 1)];
        let mut warm = CutLp::new();
        let mut cold = CutLp::reference(Reference::Cold);
        assert_warm_matches_cold(&mut warm, &mut cold, 3, &edges, &[(1, 1.5)]);
    }

    #[test]
    fn incompatible_resolve_rebuilds_transparently() {
        // Growing the edge set is NOT a shrink — the warm state must
        // rebuild rather than answer from a stale basis.
        let small = vec![lpe(0, 1, 1.0, 0), lpe(1, 2, 1.0, 1)];
        let full = vec![lpe(0, 1, 1.0, 0), lpe(1, 2, 1.0, 1), lpe(0, 2, 0.5, 2)];
        let mut warm = CutLp::new();
        let CutLpOutcome::Optimal { objective: o1, .. } = warm.solve(3, &small, &[]).unwrap()
        else {
            panic!()
        };
        assert!((o1 - 2.0).abs() < 1e-6);
        let CutLpOutcome::Optimal { objective: o2, .. } = warm.solve(3, &full, &[]).unwrap() else {
            panic!()
        };
        assert!((o2 - 1.5).abs() < 1e-6, "rebuild must see the new edge: {o2}");
    }

    #[test]
    fn counters_track_solver_effort() {
        let edges = k5();
        let mut cut = CutLp::new();
        let _ = cut.solve(5, &edges, &[(0, 2.0)]).unwrap();
        assert!(cut.lp_solves() >= 1);
        assert_eq!(cut.cut_rounds(), cut.lp_solves());
        assert!(cut.pivots() > 0, "simplex work must be recorded");
    }

    #[test]
    fn counters_are_deltas_under_a_shared_registry() {
        // CutLps used in sequence under one ambient registry (the traced
        // fig8 pattern) each report only the effort since their own
        // construction, while the registry accumulates the grand total.
        let obs = wsn_obs::Obs::detached();
        let _guard = wsn_obs::install(obs.clone());
        let edges = k5();
        let mut first = CutLp::new();
        let _ = first.solve(5, &edges, &[(0, 2.0)]).unwrap();
        let first_solves = first.lp_solves();
        assert!(first_solves >= 1);
        drop(first);

        let mut second = CutLp::new();
        let _ = second.solve(5, &edges, &[(0, 2.0)]).unwrap();
        assert_eq!(second.lp_solves(), first_solves, "same instance, same effort");
        assert_eq!(
            obs.registry().counter("ira.lp_solves").get(),
            (first_solves * 2) as u64,
            "registry holds the shared total"
        );
    }

    /// Three disjoint cheap triangles joined by two expensive bridges: the
    /// first LP solve saturates at least two triangles at once, so
    /// separation yields multiple disjoint violated sets in one round.
    fn three_triangles() -> Vec<LpEdge> {
        let mut edges = Vec::new();
        let mut tag = 0;
        for base in [0usize, 3, 6] {
            for (u, v) in [(base, base + 1), (base + 1, base + 2), (base, base + 2)] {
                edges.push(lpe(u, v, 0.1 + tag as f64 * 1e-4, tag));
                tag += 1;
            }
        }
        edges.push(lpe(2, 3, 5.0, tag));
        edges.push(lpe(5, 6, 5.0, tag + 1));
        edges
    }

    #[test]
    fn batched_rounds_record_batching() {
        let edges = three_triangles();
        let mut cut = CutLp::new();
        let CutLpOutcome::Optimal { x, .. } = cut.solve(9, &edges, &[]).unwrap() else { panic!() };
        assert_integral_tree(9, &edges, &x);
        assert!(cut.cuts_added() >= 2, "multiple triangle cuts must fire");
        assert!(cut.cuts_batched() >= 1, "at least one round must add several cuts");
    }

    #[test]
    fn pool_reactivation_counts_hits() {
        // Cap the batch at one cut per round: surplus violated sets are
        // parked in the pool and must come back via screening (a pool hit)
        // rather than a fresh maxflow run.
        let edges = three_triangles();
        let mut cut = CutLp::reference(Reference::BatchCap(1));
        let CutLpOutcome::Optimal { x, .. } = cut.solve(9, &edges, &[]).unwrap() else { panic!() };
        assert_integral_tree(9, &edges, &x);
        assert!(cut.pool_scans() >= 1, "rounds after the first parked cut must screen");
        assert!(cut.pool_hits() >= 1, "a parked cut must be re-activated from the pool");
        assert_eq!(cut.cuts_batched(), 0, "K = 1 never batches");
        assert!(cut.pool_size() >= cut.cuts_added());
    }

    #[test]
    fn single_cut_baseline_agrees_with_batched() {
        // The pre-engine loop (one cut per round, no pool, no pruning)
        // must land on the same optimum, spending at least as many cut
        // rounds.
        let edges = three_triangles();
        let mut batched = CutLp::new();
        let mut single = CutLp::reference(Reference::SingleCut);
        let CutLpOutcome::Optimal { objective: ob, x: xb } = batched.solve(9, &edges, &[]).unwrap()
        else {
            panic!()
        };
        let CutLpOutcome::Optimal { objective: os, x: xs } = single.solve(9, &edges, &[]).unwrap()
        else {
            panic!()
        };
        assert!((ob - os).abs() < 1e-6, "batched {ob} vs single {os}");
        for (a, b) in xb.iter().zip(&xs) {
            assert!((a - b).abs() < 1e-6, "distinct costs force a unique optimum");
        }
        assert!(single.cut_rounds() >= batched.cut_rounds());
        assert_eq!(single.pool_scans(), 0, "single-cut mode never consults the pool");
        assert_eq!(single.seeds_pruned(), 0, "single-cut mode never prunes seeds");
    }

    #[test]
    fn pool_survives_shrinking_resolves() {
        // IRA drops edges between solves; pooled cuts must persist so the
        // shrunken re-solve starts from the accumulated polytope knowledge.
        let edges = three_triangles();
        let mut cut = CutLp::new();
        let _ = cut.solve(9, &edges, &[]).unwrap();
        let pooled = cut.pool_size();
        assert!(pooled >= 2);
        // Drop one edge of the first triangle (keep connectivity).
        let shrunk: Vec<LpEdge> = edges.iter().filter(|e| e.tag != 2).copied().collect();
        let CutLpOutcome::Optimal { x, .. } = cut.solve(9, &shrunk, &[]).unwrap() else { panic!() };
        assert_integral_tree(9, &shrunk, &x);
        assert!(cut.pool_size() >= pooled, "shrink must not evict pooled cuts");
    }
}
