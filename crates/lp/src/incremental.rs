//! Warm-started incremental simplex.
//!
//! The cutting-plane loop of `mrlc-core` solves a *sequence* of LPs where
//! each differs from the last by a handful of appended `≤` rows (subtour
//! cuts), tightened variable bounds (IRA's edge drops) or relaxed
//! right-hand sides (IRA's constraint removals). The dense two-phase
//! solver in [`crate::simplex`] cold-starts every time; this module keeps
//! the **basis and its inverse alive across solves** so each re-solve
//! costs a few dual-simplex repair pivots instead of a full phase-1
//! restart.
//!
//! Mechanics — a bounded-variable **revised** simplex:
//!
//! * The constraint matrix `A` is stored once by rows — the caller's
//!   [`LpProblem`], read times each row's sign and followed by the row's
//!   slack and artificial entries — and once by columns. Every row has a
//!   *home* column — its slack, or its artificial when it has none — that
//!   appears in no other row. Ordering rows by whether
//!   their home is basic and basic columns by whether they are a basic
//!   home makes the basis block triangular, `B = [[K, 0], [L, D]]` with
//!   `D` diagonal, so
//!   `B⁻¹ = [[K⁻¹, 0], [−D⁻¹LK⁻¹, D⁻¹]]`. The engine stores only the rows
//!   of `K⁻¹` — one sparse row (`SpRow`) per *kernel* column, a basic
//!   column that is not a basic home — and forms a basic home's row of
//!   `B⁻¹` from them on demand. Most basic columns are slacks, so the
//!   kernel is a small corner of the basis and its rows are about as wide
//!   as the structural part of the basis — far narrower than a row of
//!   `B⁻¹A`, which spans every column.
//! * A pivot builds what it needs on demand: the pivot row `ρ_rᵀA` from
//!   row `r` of `B⁻¹` and the rows of `A`, the entering column `B⁻¹a_q`
//!   from the kernel rows, the column of `A` and one back-substitution
//!   through `L`. Updating `B⁻¹` is one sparse axpy per kernel row the
//!   entering column touches.
//! * [`IncrementalLp::append_le_row`] seats the new slack basic as its
//!   row's home, which leaves the stored rows as they are. Bound and
//!   right-hand-side changes touch no factor at all: every solve starts by
//!   recomputing the basic values from `b − N·x_N` and the reduced costs
//!   from `c − (c_Bᵀ B⁻¹)A`.
//! * A mutation can leave the basis primal-infeasible but never
//!   dual-infeasible, so [`IncrementalLp::solve`] repairs with the
//!   **bounded-variable dual simplex** and then runs a primal cleanup pass.
//! * The kernel rows are rebuilt from the basis heading every
//!   `REFACTOR_EVERY` basis changes, and whenever the residual of `B·x_B`
//!   against `b − N·x_N` at a solve's entry says they have drifted.
//! * Every solve checks its result for feasibility against that
//!   [`LpProblem`], which is also what a cold rebuild reads when the warm
//!   path fails the check or hits its iteration cap.
//!
//! The pivot rules compare values that are often exactly equal (many
//! MRLC edge costs are exactly 0). Recomputing a value along a different
//! path can move it by an ulp, so the dual ratio test and the choice of
//! leaving row treat values within `1e-12` relative as tied and keep the
//! lower column or position. Pricing compares exactly (see
//! `IncrementalLp::price`).
//!
//! Pivot counts are exposed ([`IncrementalLp::total_pivots`],
//! [`LpSolution::iterations`]) so benchmarks can track solver effort, not
//! just wall time.

use crate::budget::{FaultKind, SolveCtx};
use crate::problem::{LpProblem, Relation, VarId};
use crate::simplex::{LpError, LpSolution, LpStatus};
use std::sync::Arc;

/// Feasibility/pivot tolerance.
const TOL: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
const DJ_TOL: f64 = 1e-9;
/// Entries below this magnitude are dropped from sparse rows.
const DROP_TOL: f64 = 1e-12;
/// Consecutive degenerate pivots before switching to Bland-style selection.
const BLAND_TRIGGER: usize = 64;
/// Basis changes between rebuilds of the kernel rows of `B⁻¹` from the
/// basis heading.
const REFACTOR_EVERY: usize = 128;
/// Largest residual `‖B·x_B − (b − N·x_N)‖∞`, relative to the right-hand
/// side's scale, that a solve's entry accepts before rebuilding `B⁻¹`.
const RESIDUAL_TOL: f64 = 1e-9;
/// Relative distance under which two values in a pivot rule are a tie.
const TIE_TOL: f64 = 1e-12;
/// Position of a column that is not basic.
const NONBASIC: usize = usize::MAX;

/// True when `a` and `b` are equal up to rounding: within `TIE_TOL` of
/// the larger magnitude (or of 1, near zero).
#[inline]
fn ties(a: f64, b: f64) -> bool {
    (a - b).abs() <= TIE_TOL * a.abs().max(b.abs()).max(1.0)
}

/// `v` clamped below at 0, letting NaN through so a corrupted value can
/// never win a ratio test.
#[inline]
fn nonneg(v: f64) -> f64 {
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

/// Index of a row (constraint) within an [`IncrementalLp`], aligned with
/// insertion order across both initial rows and appended rows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RowId(pub usize);

/// A sparse vector: parallel `cols`/`vals` sorted by index.
#[derive(Clone, Debug, Default)]
struct SpRow {
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl SpRow {
    fn unit(i: usize, v: f64) -> SpRow {
        SpRow { cols: vec![i as u32], vals: vec![v] }
    }

    #[cfg(test)]
    fn get(&self, col: usize) -> f64 {
        match self.cols.binary_search(&(col as u32)) {
            Ok(i) => self.vals[i],
            Err(_) => 0.0,
        }
    }

    fn push(&mut self, col: usize, v: f64) {
        self.cols.push(col as u32);
        self.vals.push(v);
    }

    fn scale(&mut self, k: f64) {
        for v in &mut self.vals {
            *v *= k;
        }
    }

    fn nnz(&self) -> usize {
        self.cols.len()
    }

    fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.cols.iter().zip(&self.vals).map(|(&c, &v)| (c as usize, v))
    }

    /// `Σ self[k]·dense[k]`, accumulated in index order.
    fn dot(&self, dense: &[f64]) -> f64 {
        let mut s = 0.0;
        for (&k, &v) in self.cols.iter().zip(&self.vals) {
            s += v * dense[k as usize];
        }
        s
    }

    /// `self += k * other`, merging into the provided scratch buffers
    /// (which are swapped in; the old storage becomes the new scratch).
    fn axpy(&mut self, k: f64, other: &SpRow, scratch: &mut (Vec<u32>, Vec<f64>)) {
        let (sc, sv) = scratch;
        sc.clear();
        sv.clear();
        sc.reserve(self.cols.len() + other.cols.len());
        sv.reserve(self.cols.len() + other.cols.len());
        let (ac, av) = (&self.cols[..], &self.vals[..]);
        let (bc, bv) = (&other.cols[..], &other.vals[..]);
        let (mut a, mut b) = (0usize, 0usize);
        while a < ac.len() && b < bc.len() {
            let (ca, cb) = (ac[a], bc[b]);
            if ca < cb {
                sc.push(ca);
                sv.push(av[a]);
                a += 1;
                continue;
            }
            let (c, v) = if cb < ca {
                (cb, k * bv[b])
            } else {
                a += 1;
                (ca, av[a - 1] + k * bv[b])
            };
            if v.abs() > DROP_TOL {
                sc.push(c);
                sv.push(v);
            }
            b += 1;
        }
        sc.extend_from_slice(&ac[a..]);
        sv.extend_from_slice(&av[a..]);
        for (&c, &w) in bc[b..].iter().zip(&bv[b..]) {
            let v = k * w;
            if v.abs() > DROP_TOL {
                sc.push(c);
                sv.push(v);
            }
        }
        std::mem::swap(&mut self.cols, sc);
        std::mem::swap(&mut self.vals, sv);
    }
}

/// `out[i] = rows[i] · col` for every row (`wcol` is an all-zero scratch
/// over the constraint rows, left all-zero).
fn column_into(rows: &[SpRow], col: &SpRow, wcol: &mut [f64], out: &mut Vec<f64>) {
    for (k, a) in col.iter() {
        wcol[k] = a;
    }
    out.clear();
    out.extend(rows.iter().map(|rho| rho.dot(wcol)));
    for (k, _) in col.iter() {
        wcol[k] = 0.0;
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ColKind {
    Structural,
    Slack,
    Artificial,
}

/// A linear program whose basis persists across solves, accepting
/// appended `≤` rows, tightened bounds and relaxed right-hand sides
/// between them. See the module docs for the warm-start contract.
#[derive(Clone, Debug, Default)]
pub struct IncrementalLp {
    /// The *current* problem as the caller wrote it: the structural costs
    /// and bounds, and the only row-wise copy of `A`'s structural part.
    /// Every solve is verified against it and every cold build reads it.
    model: LpProblem,

    // ---- engine state (empty until the first solve) ----
    solved_once: bool,
    /// Columns: structural first, then each row's slack and artificial in
    /// row order.
    kind: Vec<ColKind>,
    /// Shifted bounds: every column has lower 0; structural columns are
    /// shifted by their declared lower bound.
    upper: Vec<f64>,
    at_upper: Vec<bool>,
    /// Basis position of each column, [`NONBASIC`] when it is not basic.
    pos: Vec<usize>,
    /// `A` by columns, over row indices, sign-normalized like the rows.
    acols: Vec<SpRow>,
    /// Shifted, sign-normalized right-hand side per row.
    b: Vec<f64>,
    /// The sign the cold build multiplied each row by (+1 when appended),
    /// so the starting basis is the identity. Row `k` of the engine's `A`
    /// is the model's row `k` times `sign[k]`, then `home[k]`, then
    /// `artificial[k]` at +1.
    sign: Vec<f64>,
    /// Rows found redundant after phase 1 and dropped with their
    /// artificial; `B⁻¹` has no entry in their column.
    dropped: Vec<bool>,
    /// Home column of each row — its slack, or its artificial when it has
    /// none — and that column's coefficient.
    home: Vec<(usize, f64)>,
    /// The artificial (coefficient +1) of a `≤` or `≥` row whose slack
    /// could not start basic; that slack is still the row's home.
    artificial: Vec<Option<usize>>,
    /// The row a column is the home of ([`NONBASIC`] for the others).
    home_of: Vec<usize>,
    /// Row `i` of `B⁻¹`, over row indices, for a position holding a kernel
    /// column; empty at a position holding a basic home column, whose row
    /// is implied by the kernel rows ([`IncrementalLp::implied_row`]).
    binv: Vec<SpRow>,
    /// `xb[i]` is the current value of `basis[i]` (shifted coordinates).
    xb: Vec<f64>,
    basis: Vec<usize>,
    drow: Vec<f64>,
    /// Basis changes since the kernel rows were last rebuilt.
    since_refactor: usize,
    // ---- scratch, all-zero / empty between pivots ----
    scratch: (Vec<u32>, Vec<f64>),
    /// Dense over rows.
    wrow: Vec<f64>,
    /// Entering column `B⁻¹a_q`, over basis positions.
    alpha: Vec<f64>,
    /// Pivot row `ρ_rᵀA` over structural columns (dense) …
    prow: Vec<f64>,
    /// … and over slack/artificial columns, in ascending column order.
    prow_aux: Vec<(usize, f64)>,
    bland: bool,
    degenerate_run: usize,
    pivots_total: usize,
    solves_total: usize,
    warm_solves: usize,
    cold_fallbacks: usize,
    /// Budget/cancellation token and fault injector, shared with the
    /// caller; unlimited unless [`IncrementalLp::set_ctx`] installs one.
    ctx: Arc<SolveCtx>,
}

impl IncrementalLp {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable (before the first solve).
    ///
    /// # Panics
    /// Panics if called after the first solve.
    pub fn add_var(&mut self, cost: f64, lower: f64, upper: f64) -> VarId {
        assert!(!self.solved_once, "variables must be added before the first solve");
        self.model.add_var(cost, lower, upper)
    }

    /// Adds a `[0, 1]` variable (before the first solve).
    pub fn add_unit_var(&mut self, cost: f64) -> VarId {
        self.add_var(cost, 0.0, 1.0)
    }

    /// Adds a constraint of any sense (before the first solve).
    ///
    /// # Panics
    /// Panics if called after the first solve — append only `≤` rows then,
    /// via [`IncrementalLp::append_le_row`].
    pub fn add_row(&mut self, terms: &[(VarId, f64)], rel: Relation, rhs: f64) -> RowId {
        assert!(!self.solved_once, "use append_le_row after the first solve");
        self.model.add_constraint(terms, rel, rhs);
        RowId(self.model.num_constraints() - 1)
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.model.num_vars()
    }

    /// Simplex pivots performed across all solves.
    pub fn total_pivots(&self) -> usize {
        self.pivots_total
    }

    /// Solves that reused the previous basis (vs. cold builds).
    pub fn warm_solves(&self) -> usize {
        self.warm_solves
    }

    /// Solves redone cold after a failed attempt — the feasibility check
    /// against the model or a non-finite sentinel failed, or the warm path
    /// hit its iteration cap or a singular basis. A nonzero rate is a
    /// numerical health signal, not an error (results stay correct either
    /// way).
    pub fn cold_fallbacks(&self) -> usize {
        self.cold_fallbacks
    }

    /// A copy of the current problem as the caller wrote it, for the dense
    /// test reference.
    pub fn to_problem(&self) -> LpProblem {
        self.model.clone()
    }

    /// Installs the budget/cancellation context polled between pivots.
    /// Expiry surfaces as [`LpError::Interrupted`]; the basis stays valid
    /// and a later solve (same or fresh context) continues warm from it.
    pub fn set_ctx(&mut self, ctx: Arc<SolveCtx>) {
        self.ctx = ctx;
    }

    /// Polls the budget context; `Err(Interrupted)` on expiry/cancel.
    #[inline]
    fn poll_budget(&self) -> Result<(), LpError> {
        if self.ctx.should_stop(self.pivots_total as u64) {
            return Err(LpError::Interrupted);
        }
        Ok(())
    }

    // ---- mutations ----------------------------------------------------

    /// Appends `Σ aᵢxᵢ ≤ rhs` without discarding the basis. Before the
    /// first solve this is equivalent to [`IncrementalLp::add_row`].
    pub fn append_le_row(&mut self, terms: &[(VarId, f64)], rhs: f64) -> RowId {
        self.model.add_constraint(terms, Relation::Le, rhs);
        let id = RowId(self.model.num_constraints() - 1);
        if !self.solved_once {
            return id;
        }

        let b = self.shifted_rhs(id.0);
        let slack = self.push_col(ColKind::Slack, f64::INFINITY);
        self.push_row(b, 1.0, (slack, 1.0), None);

        // The slack is the new row's home and starts basic, so its row of
        // B⁻¹ is implied and the stored rows do not change; its value is
        // set by the next solve's refresh.
        self.pos[slack] = self.basis.len();
        self.binv.push(SpRow::default());
        self.xb.push(0.0);
        self.basis.push(slack);
        id
    }

    /// Appends a batch of `≤` rows — the multi-cut entry point. Every row
    /// joins the basis with its slack seated immediately, so the single
    /// dual-simplex repair at the next [`IncrementalLp::solve`] serves the
    /// whole batch instead of one repair per cut.
    pub fn append_le_rows(&mut self, rows: &[(Vec<(VarId, f64)>, f64)]) -> Vec<RowId> {
        rows.iter().map(|(terms, rhs)| self.append_le_row(terms, *rhs)).collect()
    }

    /// Tightens (or loosens) the upper bound of `v`. Setting it equal to
    /// the lower bound fixes the variable — IRA's edge-drop move.
    pub fn set_upper(&mut self, v: VarId, new_upper: f64) {
        let j = v.index();
        assert!(!new_upper.is_nan());
        assert!(
            new_upper >= self.model.lower[j] - TOL,
            "upper bound {new_upper} below lower {}",
            self.model.lower[j]
        );
        self.model.upper[j] = new_upper;
        if !self.solved_once {
            return;
        }
        let shifted = new_upper - self.model.lower[j];
        self.upper[j] = shifted;
        // A nonbasic column at its upper bound moves with it (the next
        // solve recomputes the basic values); one that reaches its lower
        // bound, or loses its upper one, rests at lower instead.
        if self.pos[j] == NONBASIC && self.at_upper[j] && !(shifted > TOL && shifted.is_finite()) {
            self.at_upper[j] = false;
        }
    }

    /// Relaxes the right-hand side of `≤` row `row` to `new_rhs`
    /// (`new_rhs ≥` the current one) — IRA's constraint-removal move with
    /// a finite vacuous bound instead of a deleted row.
    ///
    /// # Panics
    /// Panics if `row` is not a `≤` row or `new_rhs` shrinks it.
    pub fn relax_le_rhs(&mut self, row: RowId, new_rhs: f64) {
        let c = &mut self.model.constraints[row.0];
        assert!(c.rel == Relation::Le, "only ≤ rows can be relaxed");
        let delta = new_rhs - c.rhs;
        assert!(delta >= -TOL, "relax_le_rhs must not tighten (delta {delta})");
        if delta <= 0.0 {
            return;
        }
        c.rhs = new_rhs;
        if self.solved_once {
            self.b[row.0] += self.sign[row.0] * delta;
        }
    }

    // ---- solving ------------------------------------------------------

    /// Solves the current problem: a cold two-phase build on the first
    /// call, a dual-simplex repair plus primal cleanup afterwards. On a
    /// warm solve whose result fails verification against the model the
    /// basis is rebuilt cold transparently.
    pub fn solve(&mut self) -> Result<LpSolution, LpError> {
        self.solves_total += 1;
        for j in 0..self.model.num_vars() {
            if self.model.lower[j] > self.model.upper[j] + TOL {
                return Err(LpError::InvalidBounds);
            }
        }
        let start = self.pivots_total;
        let warm_before = self.warm_solves;
        let result = self.solve_inner();
        self.publish_solve_metrics(self.pivots_total - start, self.warm_solves > warm_before);
        result
    }

    fn solve_inner(&mut self) -> Result<LpSolution, LpError> {
        if self.ctx.poll_fault(FaultKind::PoisonCut) {
            // Chaos injection: a poisoned cut — the newest row goes
            // non-finite in the engine's `b` *and* in the model every cold
            // build reads, so no rebuild can repair it. The sentinels must
            // turn this into `LpError::Numerical`, never a panic.
            if let Some(c) = self.model.constraints.last_mut() {
                c.rhs = f64::NAN;
            }
            if let Some(v) = self.b.last_mut() {
                *v = f64::NAN;
            }
        }
        if !self.solved_once {
            return self.verified_cold_solve();
        }
        self.warm_solves += 1;
        let before = self.pivots_total;
        match self.warm_solve() {
            Ok(sol) => {
                if sol.status == LpStatus::Optimal && !self.solution_is_finite(&sol) {
                    // NaN/Inf reached the basic values: recover with a
                    // verified cold rebuild.
                    self.record_sentinel("nonfinite_warm");
                    self.abandon_warm("nonfinite");
                    return self.verified_cold_solve();
                }
                if sol.status != LpStatus::Optimal {
                    return Ok(sol);
                }
                let verified = {
                    let _s = wsn_obs::span("lp-verify");
                    self.model.is_feasible(&sol.x, 1e-6)
                };
                if verified {
                    return Ok(sol);
                }
                // Numerical drift: rebuild cold (rare; keeps warm == cold).
                self.abandon_warm("residual_warm");
                self.verified_cold_solve()
            }
            Err(e @ (LpError::IterationLimit | LpError::Numerical)) => {
                self.abandon_warm(if e == LpError::Numerical {
                    "singular_basis"
                } else {
                    "iteration_limit"
                });
                self.pivots_total = before;
                self.verified_cold_solve()
            }
            Err(e) => Err(e),
        }
    }

    /// Cold solve plus post-solve sentinels. An optimal answer that is
    /// non-finite or violates the model is rebuilt cold once more (a
    /// one-off corruption does not survive a rebuild); when the rebuild
    /// fails the same way the data itself is broken, and the solve
    /// surfaces as [`LpError::Numerical`] — the one LP error the
    /// degradation ladder cannot resume from.
    fn verified_cold_solve(&mut self) -> Result<LpSolution, LpError> {
        for attempt in 0..2 {
            let sol = self.cold_solve()?;
            if sol.status != LpStatus::Optimal {
                return Ok(sol);
            }
            let _s = wsn_obs::span("lp-verify");
            let trip = if !self.solution_is_finite(&sol) {
                "nonfinite_cold"
            } else if !self.model.is_feasible(&sol.x, 1e-5) {
                "residual_cold"
            } else {
                return Ok(sol);
            };
            self.record_sentinel(trip);
            if attempt == 0 {
                self.record_cold_fallback(trip);
            }
        }
        Err(LpError::Numerical)
    }

    /// True when the extracted solution and the live basic values and
    /// reduced costs are all finite. NaN/Inf cannot loop forever (NaN
    /// comparisons are false, so pricing terminates), but they can
    /// silently reach the answer.
    fn solution_is_finite(&self, sol: &LpSolution) -> bool {
        sol.objective.is_finite()
            && sol.x.iter().all(|v| v.is_finite())
            && self.xb.iter().all(|v| v.is_finite())
            && self.drow.iter().all(|v| v.is_finite())
    }

    /// Counts a tripped numerical sentinel and flags it on the trace.
    fn record_sentinel(&self, which: &str) {
        if let Some(obs) = wsn_obs::current() {
            obs.registry().counter("lp.sentinel.trips").inc();
            wsn_obs::warn(
                "lp.sentinel",
                vec![
                    wsn_obs::field("which", which),
                    wsn_obs::field("rows", self.basis.len()),
                    wsn_obs::field("solve", self.solves_total),
                ],
            );
        }
    }

    /// A warm solve is being abandoned for a cold rebuild.
    fn abandon_warm(&mut self, reason: &str) {
        self.warm_solves -= 1;
        self.record_cold_fallback(reason);
    }

    /// Counts a cold rebuild after a failed attempt and — when a trace
    /// collector is installed — flags it loudly, so fallback storms show
    /// up in `bench-perf` and `obs-report` instead of hiding as
    /// mysteriously slow "warm" runs.
    fn record_cold_fallback(&mut self, reason: &str) {
        self.cold_fallbacks += 1;
        if let Some(obs) = wsn_obs::current() {
            obs.registry().counter("lp.cold_fallbacks").inc();
            wsn_obs::warn(
                "lp.cold_fallback",
                vec![
                    wsn_obs::field("reason", reason),
                    wsn_obs::field("rows", self.basis.len()),
                    wsn_obs::field("solve", self.solves_total),
                ],
            );
        }
    }

    /// Publishes this solve's effort to the ambient metrics registry, if
    /// one is installed (no-op otherwise — detached solvers stay free).
    /// Beyond the effort counters this publishes the occupancy view: a
    /// pivots-per-solve histogram, the basis size (`lp.tableau_rows`), the
    /// column count and the mean nonzeros per stored row of `B⁻¹`
    /// (`lp.tableau_row_nnz_x100`, ×100).
    fn publish_solve_metrics(&self, pivots: usize, was_warm: bool) {
        const PIVOT_BUCKETS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
        if let Some(obs) = wsn_obs::current() {
            let reg = obs.registry();
            reg.counter("lp.solves").inc();
            reg.counter("lp.pivots").add(pivots as u64);
            reg.counter("lp.warm_solves").add(u64::from(was_warm));
            reg.histogram("lp.pivots_per_solve", PIVOT_BUCKETS).observe(pivots as u64);
            reg.gauge("lp.tableau_rows").set(self.basis.len() as i64);
            reg.gauge("lp.tableau_cols").set(self.kind.len() as i64);
            reg.gauge("lp.tableau_row_nnz_x100").set((self.avg_row_nnz() * 100.0) as i64);
        }
    }

    fn push_col(&mut self, kind: ColKind, upper: f64) -> usize {
        self.kind.push(kind);
        self.upper.push(upper);
        self.at_upper.push(false);
        self.pos.push(NONBASIC);
        self.drow.push(0.0);
        self.acols.push(SpRow::default());
        self.home_of.push(NONBASIC);
        if kind == ColKind::Structural {
            self.prow.push(0.0);
        }
        self.kind.len() - 1
    }

    /// The right-hand side of the model's row `k`, shifted by the
    /// structural lower bounds: `rhs − Σ aᵢ·lᵢ`.
    fn shifted_rhs(&self, k: usize) -> f64 {
        let c = &self.model.constraints[k];
        let mut b = c.rhs;
        for &(j, a) in &c.terms {
            b -= a * self.model.lower[j];
        }
        b
    }

    /// Seats the model's next row `k` in the engine, multiplied by `sign`
    /// and followed by its `home` column and, when the slack is the home
    /// but cannot start basic, its `artificial`: fills `acols` and the
    /// row's state.
    fn push_row(&mut self, b: f64, sign: f64, home: (usize, f64), artificial: Option<usize>) {
        let k = self.b.len();
        for &(j, a) in &self.model.constraints[k].terms {
            self.acols[j].push(k, sign * a);
        }
        self.acols[home.0].push(k, home.1);
        if let Some(a) = artificial {
            self.acols[a].push(k, 1.0);
        }
        self.home.push(home);
        self.home_of[home.0] = k;
        self.artificial.push(artificial);
        self.b.push(b);
        self.sign.push(sign);
        self.dropped.push(false);
        self.wrow.push(0.0);
    }

    /// True when position `i` holds a kernel column (one with a stored row
    /// of `B⁻¹`): any basic column that is not a basic home.
    fn is_kernel(&self, i: usize) -> bool {
        self.home_of[self.basis[i]] == NONBASIC
    }

    /// True when row `s`'s home column is basic.
    fn home_is_basic(&self, s: usize) -> bool {
        self.pos[self.home[s].0] != NONBASIC
    }

    fn max_iter(&self) -> usize {
        20_000 + 200 * (self.basis.len() + self.kind.len())
    }

    /// Columns the pricing loops may enter: nonbasic, movable, real.
    fn enterable(&self, j: usize) -> bool {
        self.pos[j] == NONBASIC && self.kind[j] != ColKind::Artificial && self.upper[j] > TOL
    }

    /// Current value of a column in shifted coordinates.
    fn col_value(&self, j: usize) -> f64 {
        if self.pos[j] != NONBASIC {
            self.xb[self.pos[j]]
        } else if self.at_upper[j] {
            self.upper[j]
        } else {
            0.0
        }
    }

    // ---- the two products of a pivot ----------------------------------

    /// Loads `B⁻¹a_j` into `alpha`: a dot product with each stored row,
    /// then the entries at basic homes from those
    /// ([`IncrementalLp::complete_homes`]).
    fn load_column(&mut self, j: usize) {
        let mut alpha = std::mem::take(&mut self.alpha);
        alpha.clear();
        alpha.resize(self.basis.len(), 0.0);
        let mut v = std::mem::take(&mut self.wrow);
        let mut rows: Vec<usize> = Vec::with_capacity(self.acols[j].nnz());
        for (k, a) in self.acols[j].iter() {
            v[k] = a;
            rows.push(k);
        }
        for (i, rho) in self.binv.iter().enumerate() {
            if self.is_kernel(i) {
                alpha[i] = rho.dot(&v);
            }
        }
        self.complete_homes(&mut alpha, &mut v, &mut rows);
        self.wrow = v;
        self.alpha = alpha;
    }

    /// Sets the entries of `out` (one per basis position, kernel entries
    /// already set, the rest 0) at the basic homes: for row `s` with basic
    /// home `h` of coefficient `d`, `out[pos(h)] = (v[s] − Σ A[s,c]·out[pos(c)]) / d`
    /// over the kernel columns `c` in row `s` — the block back-substitution
    /// of `B = [[K, 0], [L, D]]`. `v` is dense over rows, and `rows` lists
    /// every row with a basic home where it may be nonzero; `v` is zeroed
    /// at those rows and at every row the kernel columns touch.
    fn complete_homes(&self, out: &mut [f64], v: &mut [f64], rows: &mut Vec<usize>) {
        for (i, &x) in out.iter().enumerate() {
            if x != 0.0 && self.is_kernel(i) {
                for (s, a) in self.acols[self.basis[i]].iter() {
                    if self.home_is_basic(s) {
                        v[s] -= a * x;
                        rows.push(s);
                    }
                }
            }
        }
        for &s in rows.iter() {
            let w = std::mem::take(&mut v[s]);
            if w != 0.0 && self.home_is_basic(s) {
                let (h, d) = self.home[s];
                out[self.pos[h]] = w / d;
            }
        }
    }

    /// Loads row `r` of `B⁻¹A` into `prow` (structural columns, dense) and
    /// `prow_aux` (slack and artificial columns, ascending). Each row of
    /// `A` has its own slack/artificial columns, numbered in row order, so
    /// walking `ρ_r` in row order lists them ascending. At a basic home
    /// the implied `ρ_r` is formed into `binv[r]` until the pivot (or
    /// [`IncrementalLp::release_row`]) consumes it.
    fn load_row(&mut self, r: usize) {
        if !self.is_kernel(r) {
            self.binv[r] = self.implied_row(self.home_of[self.basis[r]]);
        }
        self.prow_aux.clear();
        for (k, v) in self.binv[r].iter() {
            let sign = self.sign[k];
            for &(j, a) in &self.model.constraints[k].terms {
                self.prow[j] += v * (sign * a);
            }
            for (c, a) in self.aux_entries(k) {
                self.prow_aux.push((c, v * a));
            }
        }
    }

    /// Row `k`'s slack and artificial entries, in column order: its home,
    /// then the artificial of a row whose slack is the home.
    fn aux_entries(&self, k: usize) -> impl Iterator<Item = (usize, f64)> {
        std::iter::once(self.home[k]).chain(self.artificial[k].map(|a| (a, 1.0)))
    }

    fn clear_row(&mut self) {
        self.prow.iter_mut().for_each(|v| *v = 0.0);
        self.prow_aux.clear();
    }

    /// Drops the loaded row `r` of `B⁻¹` when no pivot consumed it.
    fn release_row(&mut self, r: usize) {
        self.clear_row();
        if !self.is_kernel(r) {
            self.binv[r] = SpRow::default();
        }
    }

    // ---- refresh and refactorization ----------------------------------

    /// Recomputes the basic values `x_B = B⁻¹(b − N·x_N)` and returns the
    /// residual `‖B·x_B − (b − N·x_N)‖∞` relative to the right-hand side's
    /// scale — how far `B⁻¹` has drifted from the inverse of `B`.
    fn refresh_values(&mut self) -> f64 {
        let mut r = self.b.clone();
        for j in 0..self.kind.len() {
            if self.pos[j] == NONBASIC && self.at_upper[j] {
                let u = self.upper[j];
                for (k, a) in self.acols[j].iter() {
                    r[k] -= a * u;
                }
            }
        }
        let mut xb = std::mem::take(&mut self.xb);
        for (i, (x, rho)) in xb.iter_mut().zip(&self.binv).enumerate() {
            *x = if self.is_kernel(i) { rho.dot(&r) } else { 0.0 };
        }
        let mut rows: Vec<usize> = (0..r.len()).filter(|&s| self.home_is_basic(s)).collect();
        self.complete_homes(&mut xb, &mut r.clone(), &mut rows);
        self.xb = xb;
        let scale = r
            .iter()
            .zip(&self.dropped)
            .filter(|&(_, &d)| !d)
            .fold(1.0f64, |m, (v, _)| m.max(v.abs()));
        for (&x, &c) in self.xb.iter().zip(&self.basis) {
            for (k, a) in self.acols[c].iter() {
                r[k] -= a * x;
            }
        }
        let resid = r
            .iter()
            .zip(&self.dropped)
            .filter(|&(_, &d)| !d)
            .fold(0.0f64, |m, (v, _)| m.max(v.abs()));
        resid / scale
    }

    /// Recomputes reduced costs `d = c − (c_Bᵀ B⁻¹)A` — phase-1 costs (1 on
    /// artificials) or the real ones.
    fn refresh_drow(&mut self, phase1: bool) {
        let cost_of = |j: usize| match self.kind[j] {
            ColKind::Structural if !phase1 => self.model.cost[j],
            ColKind::Artificial if phase1 => 1.0,
            _ => 0.0,
        };
        // A basic home costs nothing in phase 2; in phase 1 an equality
        // row's artificial does, and its row of B⁻¹ is implied.
        let mut pi = std::mem::take(&mut self.wrow);
        let mut acc: Vec<f64> = Vec::new();
        for i in 0..self.basis.len() {
            let c = self.basis[i];
            let cb = cost_of(c);
            if cb == 0.0 {
                continue;
            }
            let implied;
            let rho = if self.is_kernel(i) {
                &self.binv[i]
            } else {
                acc.resize(pi.len(), 0.0);
                implied = self.implied_row_with(self.home_of[c], &mut acc);
                &implied
            };
            for (k, v) in rho.iter() {
                pi[k] += cb * v;
            }
        }
        for (j, d) in self.drow.iter_mut().enumerate() {
            *d = cost_of(j);
        }
        for (k, p) in pi.iter_mut().enumerate() {
            if *p != 0.0 {
                let sign = self.sign[k];
                for &(j, a) in &self.model.constraints[k].terms {
                    self.drow[j] -= *p * (sign * a);
                }
                for (c, a) in self.aux_entries(k) {
                    self.drow[c] -= *p * a;
                }
                *p = 0.0;
            }
        }
        self.wrow = pi;
        for &c in &self.basis {
            self.drow[c] = 0.0;
        }
    }

    /// The row of `B⁻¹` implied at the basic home `h` (coefficient `d`) of
    /// row `s`: `(e_s − Σ A[s,c]·ρ_pos(c)) / d` over the kernel columns `c`
    /// in row `s`, summed in position order.
    fn implied_row(&mut self, s: usize) -> SpRow {
        let mut acc = std::mem::take(&mut self.wrow);
        let rho = self.implied_row_with(s, &mut acc);
        self.wrow = acc;
        rho
    }

    /// [`IncrementalLp::implied_row`] accumulating in `acc`, an all-zero
    /// scratch over rows that it leaves all-zero.
    fn implied_row_with(&self, s: usize, acc: &mut [f64]) -> SpRow {
        let (h, d) = self.home[s];
        let sign = self.sign[s];
        let structural = self.model.constraints[s].terms.iter().map(|&(c, a)| (c, sign * a));
        let mut basic: Vec<(usize, f64)> = structural
            .chain(self.aux_entries(s))
            .filter(|&(c, _)| c != h && self.pos[c] != NONBASIC)
            .map(|(c, a)| (self.pos[c], a))
            .collect();
        basic.sort_unstable_by_key(|&(i, _)| i);
        let mut touched: Vec<u32> = vec![s as u32];
        acc[s] = 1.0;
        for (i, a) in basic {
            for (&k, &v) in self.binv[i].cols.iter().zip(&self.binv[i].vals) {
                touched.push(k);
                acc[k as usize] += -a * v;
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let mut rho = SpRow::default();
        for k in touched {
            let v = std::mem::take(&mut acc[k as usize]);
            if v.abs() > DROP_TOL {
                rho.push(k as usize, v / d);
            }
        }
        rho
    }

    /// Rebuilds the stored rows of `B⁻¹` from the basis heading, leaving
    /// the basis, its position order, the basic values and the reduced
    /// costs as they are. Those rows are the inverse of the kernel `K` —
    /// the kernel columns over the rows whose home is nonbasic — which
    /// Gauss–Jordan rebuilds from those rows' (nonbasic) home columns,
    /// pivoting each kernel column in on the open slot where it is
    /// largest. `false` when the heading is numerically singular.
    fn refactor(&mut self) -> bool {
        let kernel: Vec<usize> =
            (0..self.b.len()).filter(|&k| !self.dropped[k] && !self.home_is_basic(k)).collect();
        let kernel_cols: Vec<usize> =
            (0..self.basis.len()).filter(|&i| self.is_kernel(i)).collect();
        if kernel_cols.len() != kernel.len() {
            return false;
        }
        let mut rows: Vec<SpRow> =
            kernel.iter().map(|&k| SpRow::unit(k, 1.0 / self.home[k].1)).collect();
        let mut owner = vec![NONBASIC; rows.len()];
        let mut alpha = Vec::with_capacity(rows.len());
        let mut scratch = std::mem::take(&mut self.scratch);
        for &i in &kernel_cols {
            column_into(&rows, &self.acols[self.basis[i]], &mut self.wrow, &mut alpha);
            let mut best: Option<(usize, f64)> = None;
            for (p, &a) in alpha.iter().enumerate() {
                if owner[p] == NONBASIC && best.is_none_or(|(_, v)| a.abs() > v) {
                    best = Some((p, a.abs()));
                }
            }
            let Some((p, _)) = best.filter(|&(_, v)| v > TOL) else {
                self.scratch = scratch;
                return false;
            };
            rows[p].scale(1.0 / alpha[p]);
            let rp = std::mem::take(&mut rows[p]);
            for (q, &f) in alpha.iter().enumerate() {
                if q != p && f.abs() > DROP_TOL {
                    rows[q].axpy(-f, &rp, &mut scratch);
                }
            }
            rows[p] = rp;
            owner[p] = i;
        }
        self.scratch = scratch;
        for (p, &i) in owner.iter().enumerate() {
            self.binv[i] = std::mem::take(&mut rows[p]);
        }
        self.since_refactor = 0;
        if let Some(obs) = wsn_obs::current() {
            obs.registry().counter("lp.refactors").inc();
        }
        true
    }

    // ---- cold path ----------------------------------------------------

    fn cold_solve(&mut self) -> Result<LpSolution, LpError> {
        let nvars = self.model.num_vars();
        let build_span = wsn_obs::span("lp-cold-build");
        self.solved_once = true;
        self.kind.clear();
        self.upper.clear();
        self.at_upper.clear();
        self.pos.clear();
        self.drow.clear();
        self.acols.clear();
        self.prow.clear();
        self.b.clear();
        self.sign.clear();
        self.dropped.clear();
        self.home.clear();
        self.home_of.clear();
        self.artificial.clear();
        self.wrow.clear();
        self.binv.clear();
        self.xb.clear();
        self.basis.clear();
        self.since_refactor = 0;
        self.bland = false;
        self.degenerate_run = 0;

        for j in 0..nvars {
            self.push_col(ColKind::Structural, self.model.upper[j] - self.model.lower[j]);
        }

        // Build rows: slack for ≤/≥, artificial wherever the slack cannot
        // start basic at a nonnegative value. Sign normalization makes
        // every starting basic column +1 in its row, so B⁻¹ starts as I:
        // implied at basic homes, a stored unit row at an artificial
        // whose row's home is its (nonbasic) slack.
        let mut artificials: Vec<usize> = Vec::new();
        for k in 0..self.model.num_constraints() {
            let mut b = self.shifted_rhs(k);
            // Sign-normalize so the starting basic value is ≥ 0.
            let sign = if b < 0.0 { -1.0 } else { 1.0 };
            if sign < 0.0 {
                b = -b;
            }
            let slack = match self.model.constraints[k].rel {
                Relation::Le => Some((self.push_col(ColKind::Slack, f64::INFINITY), sign)),
                Relation::Ge => Some((self.push_col(ColKind::Slack, f64::INFINITY), -sign)),
                Relation::Eq => None,
            };
            // The slack is the home and starts basic when its (normalized)
            // coefficient is +1; otherwise an artificial starts basic, and
            // is the home of a row without a slack.
            let (home, extra) = match slack {
                Some(home) if home.1 > 0.0 => (home, None),
                Some(home) => (home, Some(self.push_col(ColKind::Artificial, f64::INFINITY))),
                None => ((self.push_col(ColKind::Artificial, f64::INFINITY), 1.0), None),
            };
            self.push_row(b, sign, home, extra);
            let basic = extra.unwrap_or(home.0);
            if self.kind[basic] == ColKind::Artificial {
                artificials.push(basic);
            }
            self.pos[basic] = self.basis.len();
            self.binv.push(if self.home_of[basic] == NONBASIC {
                SpRow::unit(k, 1.0)
            } else {
                SpRow::default()
            });
            self.xb.push(b);
            self.basis.push(basic);
        }

        drop(build_span);
        let max_iter = self.max_iter();
        let start_pivots = self.pivots_total;

        // ---- Phase 1 (only when artificials exist). ----
        if !artificials.is_empty() {
            let _s = wsn_obs::span("lp-phase1");
            self.refresh_drow(true);
            let done = self.primal_optimize(max_iter + start_pivots)?;
            debug_assert!(done, "phase 1 is bounded below by 0");
            let infeas: f64 = (0..self.basis.len())
                .filter(|&i| self.kind[self.basis[i]] == ColKind::Artificial)
                .map(|i| self.xb[i].max(0.0))
                .sum();
            if infeas > 1e-6 {
                return Ok(LpSolution {
                    status: LpStatus::Infeasible,
                    x: vec![0.0; nvars],
                    objective: f64::NAN,
                    iterations: self.pivots_total - start_pivots,
                });
            }
            self.drive_out_artificials();
            for a in artificials {
                self.upper[a] = 0.0;
            }
        }

        // ---- Phase 2. ----
        let done = {
            let _s = wsn_obs::span("lp-primal");
            self.refresh_drow(false);
            self.bland = false;
            self.degenerate_run = 0;
            self.primal_optimize(max_iter + self.pivots_total)?
        };
        if !done {
            return Ok(LpSolution {
                status: LpStatus::Unbounded,
                x: vec![0.0; nvars],
                objective: f64::NEG_INFINITY,
                iterations: self.pivots_total - start_pivots,
            });
        }
        let _s = wsn_obs::span("lp-extract");
        Ok(self.extract(self.pivots_total - start_pivots))
    }

    /// After phase 1: pivot basic artificials onto any usable real column.
    /// A position that offers none is a redundant row: its artificial is
    /// the unit column of some row `k`, so `B⁻¹` is `e_r` in column `k`,
    /// and dropping position `r` with row `k` leaves the inverse of the
    /// remaining basis.
    fn drive_out_artificials(&mut self) {
        let mut r = 0;
        while r < self.basis.len() {
            if self.kind[self.basis[r]] != ColKind::Artificial {
                r += 1;
                continue;
            }
            self.load_row(r);
            let usable = |c: usize, v: f64| {
                self.kind[c] != ColKind::Artificial && self.pos[c] == NONBASIC && v.abs() > 1e-7
            };
            let pivot = (0..self.prow.len())
                .map(|c| (c, self.prow[c]))
                .chain(self.prow_aux.iter().copied())
                .find(|&(c, v)| usable(c, v));
            match pivot {
                Some((j, alpha)) => {
                    // Zero-movement pivot: the artificial sits at 0.
                    let t = self.xb[r] / alpha;
                    self.load_column(j);
                    self.shift_nonbasic_into_basis(r, j, t, false);
                    r += 1;
                }
                None => {
                    self.clear_row();
                    let art = self.basis[r];
                    let k = self.acols[art].cols[0];
                    self.pos[art] = NONBASIC;
                    self.dropped[k as usize] = true;
                    self.binv.swap_remove(r);
                    self.xb.swap_remove(r);
                    self.basis.swap_remove(r);
                    if r < self.basis.len() {
                        self.pos[self.basis[r]] = r;
                    }
                    for rho in &mut self.binv {
                        if let Ok(e) = rho.cols.binary_search(&k) {
                            rho.cols.remove(e);
                            rho.vals.remove(e);
                        }
                    }
                }
            }
        }
    }

    // ---- warm path ----------------------------------------------------

    fn warm_solve(&mut self) -> Result<LpSolution, LpError> {
        let start_pivots = self.pivots_total;
        let cap = self.max_iter() + start_pivots;
        let repaired = {
            let _s = wsn_obs::span("lp-dual-repair");
            if self.refresh_values() > RESIDUAL_TOL {
                if !self.refactor() {
                    return Err(LpError::Numerical);
                }
                self.refresh_values();
            }
            self.refresh_drow(false);
            if self.ctx.poll_fault(FaultKind::PerturbRhs) {
                // Chaos injection: desynchronize the refreshed basic
                // values from the model; the feasibility check against
                // the model must notice and fall back to a cold rebuild.
                for v in &mut self.xb {
                    *v = *v * 1.5 + 7.0;
                }
            }
            self.bland = false;
            self.degenerate_run = 0;
            self.dual_repair(cap)
        };
        if !repaired? {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                x: vec![0.0; self.model.num_vars()],
                objective: f64::NAN,
                iterations: self.pivots_total - start_pivots,
            });
        }
        let done = {
            let _s = wsn_obs::span("lp-primal");
            self.bland = false;
            self.degenerate_run = 0;
            self.primal_optimize(cap)?
        };
        if !done {
            return Ok(LpSolution {
                status: LpStatus::Unbounded,
                x: vec![0.0; self.model.num_vars()],
                objective: f64::NEG_INFINITY,
                iterations: self.pivots_total - start_pivots,
            });
        }
        let _s = wsn_obs::span("lp-extract");
        Ok(self.extract(self.pivots_total - start_pivots))
    }

    /// Bounded-variable dual simplex: drives primal infeasibilities (basic
    /// values outside their box) out while reduced costs stay
    /// dual-feasible. Returns `false` when the problem is primal
    /// infeasible (dual unbounded).
    fn dual_repair(&mut self, max_pivots: usize) -> Result<bool, LpError> {
        loop {
            if self.pivots_total > max_pivots {
                return Err(LpError::IterationLimit);
            }
            self.poll_budget()?;
            // Leaving row: worst box violation among basic values; ties
            // keep the lower position.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, viol, to_upper)
            for i in 0..self.basis.len() {
                let v = self.xb[i];
                let ub = self.upper[self.basis[i]];
                let (viol, to_upper) = if v < -TOL {
                    (-v, false)
                } else if v > ub + TOL {
                    (v - ub, true)
                } else {
                    continue;
                };
                let better = match leave {
                    None => true,
                    Some((r, best, _)) => {
                        if self.bland {
                            self.basis[i] < self.basis[r]
                        } else {
                            viol > best && !ties(viol, best)
                        }
                    }
                };
                if better {
                    leave = Some((i, viol, to_upper));
                }
            }
            let Some((r, _, to_upper)) = leave else { return Ok(true) };

            // Entering column: the dual ratio test over the pivot row,
            // scanning columns in ascending order; ties keep the lower.
            self.load_row(r);
            let mut enter: Option<(usize, f64, f64)> = None; // (col, |theta|, alpha)
            let nvars = self.prow.len();
            let aux = std::mem::take(&mut self.prow_aux);
            let row = (0..nvars).map(|c| (c, self.prow[c])).chain(aux.iter().copied());
            for (c, alpha) in row {
                if alpha.abs() <= TOL || !self.enterable(c) {
                    continue;
                }
                // Eligibility: moving c within its box must push the basic
                // value back toward its violated bound.
                let pushes = if to_upper {
                    // basic must decrease
                    (!self.at_upper[c] && alpha > 0.0) || (self.at_upper[c] && alpha < 0.0)
                } else {
                    // basic must increase
                    (!self.at_upper[c] && alpha < 0.0) || (self.at_upper[c] && alpha > 0.0)
                };
                if !pushes {
                    continue;
                }
                let theta = (self.drow[c] / alpha).abs();
                let better = match enter {
                    None => true,
                    Some((bc, bt, _)) => {
                        if self.bland {
                            theta < bt - TOL || (theta < bt + TOL && c < bc)
                        } else {
                            theta < bt && !ties(theta, bt)
                        }
                    }
                };
                if better {
                    enter = Some((c, theta, alpha));
                }
            }
            self.prow_aux = aux;
            let Some((j, _, alpha)) = enter else {
                self.release_row(r);
                return Ok(false);
            };

            let b_leave = if to_upper { self.upper[self.basis[r]] } else { 0.0 };
            let t = (self.xb[r] - b_leave) / alpha;
            if t.abs() <= TOL {
                self.degenerate_run += 1;
                if self.degenerate_run > BLAND_TRIGGER {
                    self.escalate_bland();
                }
            } else {
                self.degenerate_run = 0;
            }
            self.load_column(j);
            self.shift_nonbasic_into_basis(r, j, t, to_upper);
        }
    }

    /// Makes nonbasic `j` basic in position `r` with entering movement
    /// `t = Δx_j`; the old basic leaves at lower (`to_upper = false`) or
    /// upper. Needs the entering column (`alpha`) and the pivot row
    /// loaded; updates the basic values, `B⁻¹` and the reduced costs.
    fn shift_nonbasic_into_basis(&mut self, r: usize, j: usize, t: f64, to_upper: bool) {
        let vj_new = if self.at_upper[j] { self.upper[j] } else { 0.0 } + t;
        if t != 0.0 {
            for (i, (x, &a)) in self.xb.iter_mut().zip(&self.alpha).enumerate() {
                if i != r && a.abs() > DROP_TOL {
                    *x -= a * t;
                }
            }
        }
        let leaving = self.basis[r];
        self.xb[r] = vj_new;
        self.pivot(r, j);
        self.at_upper[leaving] = to_upper && self.upper[leaving].is_finite();
        self.at_upper[j] = false;
    }

    /// Pivot at `(r, j)`: updates the reduced costs along the loaded pivot
    /// row, then the stored rows of `B⁻¹` along the loaded entering column,
    /// then the basis. A basic home's implied row needs no update.
    fn pivot(&mut self, r: usize, j: usize) {
        let piv = self.alpha[r];
        debug_assert!(piv.abs() > TOL, "pivot element too small: {piv}");
        let inv = 1.0 / piv;
        let df = self.drow[j];
        if df != 0.0 {
            for (d, &v) in self.drow.iter_mut().zip(&self.prow) {
                if v.abs() > DROP_TOL {
                    *d -= df * (v * inv);
                }
            }
            for &(c, v) in &self.prow_aux {
                if v.abs() > DROP_TOL {
                    self.drow[c] -= df * (v * inv);
                }
            }
        }
        self.clear_row();

        self.binv[r].scale(inv);
        let rho_r = std::mem::take(&mut self.binv[r]);
        let mut scratch = std::mem::take(&mut self.scratch);
        for i in 0..self.binv.len() {
            let f = self.alpha[i];
            if i != r && f.abs() > DROP_TOL && self.is_kernel(i) {
                self.binv[i].axpy(-f, &rho_r, &mut scratch);
            }
        }
        self.scratch = scratch;
        self.pos[self.basis[r]] = NONBASIC;
        self.pos[j] = r;
        self.basis[r] = j;
        match self.home_of[j] {
            NONBASIC => self.binv[r] = rho_r,
            s => {
                // Row s's home is basic now: no stored row may reference it.
                let s = s as u32;
                for rho in &mut self.binv {
                    if let Ok(e) = rho.cols.binary_search(&s) {
                        rho.cols.remove(e);
                        rho.vals.remove(e);
                    }
                }
            }
        }
        self.drow[j] = 0.0;
        self.pivots_total += 1;
        self.since_refactor += 1;
        if self.ctx.poll_fault(FaultKind::CorruptPivot) {
            // Chaos injection: a corrupted pivot leaves a NaN in the
            // entering column's value; the non-finite sentinel must
            // catch it (no ratio test ever picks a NaN).
            self.xb[r] = f64::NAN;
        }
        if self.since_refactor >= REFACTOR_EVERY && !self.refactor() {
            // A heading that no longer inverts leaves the old rows in
            // place; the next solve's residual check gets another look.
            self.since_refactor = 0;
        }
    }

    /// Cycling/stall sentinel: after a prolonged degenerate run, switch to
    /// Bland's rule for the rest of this solve and count the escalation.
    fn escalate_bland(&mut self) {
        if !self.bland {
            self.bland = true;
            if let Some(obs) = wsn_obs::current() {
                obs.registry().counter("lp.sentinel.bland_escalations").inc();
            }
        }
    }

    // ---- primal machinery --------------------------------------------

    /// Runs primal simplex to optimality. `Ok(false)` means unbounded.
    fn primal_optimize(&mut self, max_pivots: usize) -> Result<bool, LpError> {
        loop {
            if self.pivots_total > max_pivots {
                return Err(LpError::IterationLimit);
            }
            self.poll_budget()?;
            let Some(j) = self.price() else { return Ok(true) };
            if !self.primal_step(j) {
                return Ok(false);
            }
        }
    }

    /// Dantzig pricing (Bland after prolonged degeneracy) over enterable
    /// columns; exact ties keep the lower column. Near-ties are left to
    /// rounding on purpose: widening them to `TIE_TOL` moves DFL-16's
    /// recorded cut trajectory from 2 rounds to 3 (same tree).
    fn price(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.kind.len() {
            if !self.enterable(j) {
                continue;
            }
            let d = self.drow[j];
            let violation = if self.at_upper[j] { d } else { -d };
            if violation > DJ_TOL {
                if self.bland {
                    return Some(j);
                }
                match best {
                    Some((_, v)) if v >= violation => {}
                    _ => best = Some((j, violation)),
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// One primal iteration entering `j`. Returns `false` on an unbounded
    /// direction.
    fn primal_step(&mut self, j: usize) -> bool {
        let from_upper = self.at_upper[j];
        let dir = if from_upper { -1.0 } else { 1.0 };
        let mut t_star = self.upper[j]; // bound-flip limit (may be ∞)
        let mut leaving: Option<(usize, bool)> = None;

        self.load_column(j);
        for i in 0..self.basis.len() {
            let alpha = self.alpha[i];
            if alpha.abs() <= TOL {
                continue;
            }
            let delta = -alpha * dir; // change of basic i per unit |t|
            let (limit, exits_upper) = if delta < 0.0 {
                (nonneg(self.xb[i]) / -delta, false)
            } else {
                let ub = self.upper[self.basis[i]];
                if ub.is_infinite() {
                    continue;
                }
                (nonneg(ub - self.xb[i]) / delta, true)
            };
            if limit < t_star - TOL
                || (limit < t_star + TOL
                    && leaving.is_some_and(|(r, _)| self.bland && self.basis[i] < self.basis[r]))
            {
                t_star = limit;
                leaving = Some((i, exits_upper));
            }
        }

        if t_star.is_infinite() {
            return false;
        }
        if t_star <= TOL {
            self.degenerate_run += 1;
            if self.degenerate_run > BLAND_TRIGGER {
                self.escalate_bland();
            }
        } else {
            self.degenerate_run = 0;
        }

        let signed = dir * t_star;
        match leaving {
            None => {
                // Bound flip.
                for (x, &a) in self.xb.iter_mut().zip(&self.alpha) {
                    if a.abs() > DROP_TOL {
                        *x -= a * signed;
                    }
                }
                self.at_upper[j] = !self.at_upper[j];
                self.pivots_total += 1;
            }
            Some((r, exits_upper)) => {
                self.load_row(r);
                self.shift_nonbasic_into_basis(r, j, signed, exits_upper);
            }
        }
        true
    }

    /// Extracts the structural solution (unshifting lower bounds).
    fn extract(&self, iterations: usize) -> LpSolution {
        let nvars = self.model.num_vars();
        let mut x = vec![0.0; nvars];
        for (j, xj) in x.iter_mut().enumerate() {
            let v = self.col_value(j) + self.model.lower[j];
            let hi = self.model.upper[j];
            *xj = v.clamp(self.model.lower[j], if hi.is_finite() { hi } else { f64::INFINITY });
        }
        let objective = self.model.objective_at(&x);
        LpSolution { status: LpStatus::Optimal, x, objective, iterations }
    }

    /// Average nonzeros per stored row of `B⁻¹` (one per kernel column) —
    /// the fill diagnostic the benchmarks report.
    pub fn avg_row_nnz(&self) -> f64 {
        let stored = (0..self.basis.len()).filter(|&i| self.is_kernel(i));
        let (rows, nnz) =
            stored.fold((0usize, 0usize), |(r, z), i| (r + 1, z + self.binv[i].nnz()));
        if rows == 0 {
            0.0
        } else {
            nnz as f64 / rows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn assert_matches_cold(inc: &mut IncrementalLp) -> LpSolution {
        let warm = inc.solve().expect("warm solve");
        let cold = inc.to_problem().solve().expect("cold solve");
        assert_eq!(warm.status, cold.status, "status mismatch");
        if warm.status == LpStatus::Optimal {
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "objective warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            assert!(inc.to_problem().is_feasible(&warm.x, 1e-6), "warm point infeasible");
        }
        warm
    }

    #[test]
    fn cold_matches_dense_on_textbook() {
        let mut p = IncrementalLp::new();
        let x = p.add_var(-3.0, 0.0, f64::INFINITY);
        let y = p.add_var(-5.0, 0.0, f64::INFINITY);
        p.add_row(&[(x, 1.0)], Relation::Le, 4.0);
        p.add_row(&[(y, 2.0)], Relation::Le, 12.0);
        p.add_row(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = assert_matches_cold(&mut p);
        assert!((s.objective + 36.0).abs() < 1e-7);
    }

    #[test]
    fn append_row_warm_start() {
        // min −x−y over [0,1]² → (1,1); then append x+y ≤ 1.2 → 1.2.
        let mut p = IncrementalLp::new();
        let x = p.add_unit_var(-1.0);
        let y = p.add_unit_var(-1.0);
        let s0 = p.solve().unwrap();
        assert!((s0.objective + 2.0).abs() < 1e-8);
        p.append_le_row(&[(x, 1.0), (y, 1.0)], 1.2);
        let s1 = assert_matches_cold(&mut p);
        assert!((s1.objective + 1.2).abs() < 1e-8, "got {}", s1.objective);
        assert_eq!(p.warm_solves(), 1);
    }

    #[test]
    fn batched_append_matches_sequential_appends() {
        // min −x−y−z over [0,1]³, then three cuts at once; the batch must
        // land on the same optimum as one-at-a-time appends with a solve
        // between none of them, and repair once.
        let build = || {
            let mut p = IncrementalLp::new();
            let x = p.add_unit_var(-1.0);
            let y = p.add_unit_var(-1.0);
            let z = p.add_unit_var(-1.0);
            p.solve().unwrap();
            (p, x, y, z)
        };
        let rows = |x: VarId, y: VarId, z: VarId| {
            vec![
                (vec![(x, 1.0), (y, 1.0)], 1.5),
                (vec![(y, 1.0), (z, 1.0)], 1.0),
                (vec![(x, 1.0), (z, 1.0)], 1.2),
            ]
        };

        let (mut batched, x, y, z) = build();
        let ids = batched.append_le_rows(&rows(x, y, z));
        assert_eq!(ids.len(), 3);
        let sb = batched.solve().unwrap();

        let (mut seq, x, y, z) = build();
        for (terms, rhs) in rows(x, y, z) {
            seq.append_le_row(&terms, rhs);
        }
        let ss = seq.solve().unwrap();
        assert!((sb.objective - ss.objective).abs() < 1e-8);
        assert_eq!(sb.x, ss.x, "batch and sequential appends build the same basis");
    }

    #[test]
    fn appended_redundant_row_costs_no_pivots() {
        let mut p = IncrementalLp::new();
        let x = p.add_unit_var(-1.0);
        p.solve().unwrap();
        let before = p.total_pivots();
        p.append_le_row(&[(x, 1.0)], 5.0); // satisfied: x = 1 ≤ 5
        let s = p.solve().unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(p.total_pivots(), before, "no repair needed");
    }

    #[test]
    fn fix_variable_via_bounds() {
        // min −2x − y, x+y ≤ 1.5 over [0,1]²: optimum (1, 0.5).
        // Fixing x to 0 moves it to (0, 1).
        let mut p = IncrementalLp::new();
        let x = p.add_unit_var(-2.0);
        let y = p.add_unit_var(-1.0);
        p.add_row(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.5);
        let s0 = p.solve().unwrap();
        assert!((s0.objective + 2.5).abs() < 1e-8);
        p.set_upper(x, 0.0);
        let s1 = assert_matches_cold(&mut p);
        assert!((s1.objective + 1.0).abs() < 1e-8, "got {}", s1.objective);
        assert!(s1.x[0].abs() < 1e-9);
    }

    #[test]
    fn relax_rhs_reopens_room() {
        // min −x−y, x+y ≤ 1 over [0,1]² → −1; relax to 2 → −2.
        let mut p = IncrementalLp::new();
        let x = p.add_unit_var(-1.0);
        let y = p.add_unit_var(-1.0);
        let row = p.add_row(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        let s0 = p.solve().unwrap();
        assert!((s0.objective + 1.0).abs() < 1e-8);
        p.relax_le_rhs(row, 2.0);
        let s1 = assert_matches_cold(&mut p);
        assert!((s1.objective + 2.0).abs() < 1e-8, "got {}", s1.objective);
    }

    #[test]
    fn equality_rows_and_infeasibility() {
        let mut p = IncrementalLp::new();
        let x = p.add_unit_var(1.0);
        let y = p.add_unit_var(2.0);
        p.add_row(&[(x, 1.0), (y, 1.0)], Relation::Eq, 1.0);
        let s = assert_matches_cold(&mut p);
        assert!((s.objective - 1.0).abs() < 1e-8);
        // Appending an unsatisfiable cut flips it to infeasible, warm.
        p.append_le_row(&[(x, 1.0), (y, 1.0)], 0.5);
        let s1 = p.solve().unwrap();
        assert_eq!(s1.status, LpStatus::Infeasible);
    }

    #[test]
    fn chain_of_cuts_stays_consistent() {
        // Shave the unit square corner by corner; warm objective must track
        // the cold one at every step.
        let mut p = IncrementalLp::new();
        let x = p.add_unit_var(-1.0);
        let y = p.add_unit_var(-0.9);
        p.solve().unwrap();
        for k in 1..=8 {
            let rhs = 2.0 - k as f64 * 0.15;
            p.append_le_row(&[(x, 1.0), (y, 1.0)], rhs);
            let s = assert_matches_cold(&mut p);
            assert_eq!(s.status, LpStatus::Optimal);
        }
        assert!(p.warm_solves() >= 8);
    }

    /// A random subset cut `Σ_{j∈S} x_j ≤ ⌊|S|/3⌋` over `vars`.
    fn random_cut(rng: &mut StdRng, vars: &[VarId]) -> (Vec<(VarId, f64)>, f64) {
        let size = rng.random_range(3..12usize);
        let terms: Vec<(VarId, f64)> =
            (0..size).map(|_| (vars[rng.random_range(0..vars.len())], 1.0)).collect();
        (terms, (size / 3) as f64)
    }

    /// A knapsack row over a random subset that the current optimum
    /// violates by 30%: `Σ a_j x_j ≤ 0.7·Σ a_j x*_j` (at least 0.5).
    fn incumbent_cut(
        p: &mut IncrementalLp,
        rng: &mut StdRng,
        vars: &[VarId],
    ) -> (Vec<(VarId, f64)>, f64) {
        let x = p.solve().unwrap().x;
        let size = rng.random_range(8..16usize);
        let terms: Vec<(VarId, f64)> = (0..size)
            .map(|_| (vars[rng.random_range(0..vars.len())], rng.random_range(0.5..2.0)))
            .collect();
        let at: f64 = terms.iter().map(|&(v, a)| a * x[v.index()]).sum();
        (terms, (0.7 * at).max(0.5))
    }

    #[test]
    fn long_chain_refactors_and_tracks_the_dense_optimum() {
        // Long enough to cross several rebuilds of B⁻¹: batches of cuts
        // that cut off the incumbent, edge-drop bound fixes, and cuts two
        // batches old relaxed to a vacuous rhs (as IRA relaxes dropped
        // caps), each solve checked against the dense simplex.
        let obs = wsn_obs::Obs::detached();
        let _ambient = wsn_obs::install(obs.clone());
        let mut rng = StdRng::seed_from_u64(2015);
        let mut p = IncrementalLp::new();
        let vars: Vec<VarId> =
            (0..48).map(|_| p.add_unit_var(-rng.random_range(0.1..1.0))).collect();
        let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_row(&all, Relation::Eq, 6.0);
        assert_matches_cold(&mut p);
        let mut batches: Vec<Vec<RowId>> = Vec::new();
        for step in 0..24 {
            let batch: Vec<_> = (0..4).map(|_| incumbent_cut(&mut p, &mut rng, &vars)).collect();
            batches.push(p.append_le_rows(&batch));
            let x = assert_matches_cold(&mut p).x;
            if step % 3 == 1 {
                // Drop a variable the optimum uses.
                if let Some(&v) = vars.iter().find(|v| x[v.index()] > 0.5) {
                    p.set_upper(v, 0.0);
                    assert_matches_cold(&mut p);
                }
            }
            if step >= 2 {
                for &row in &batches[step - 2] {
                    let vacuous: f64 = p.model.constraints[row.0].terms.iter().map(|t| t.1).sum();
                    p.relax_le_rhs(row, vacuous);
                }
                assert_matches_cold(&mut p);
            }
        }
        let refactors = obs.registry().counter("lp.refactors").get();
        assert!(refactors >= 2, "only {refactors} rebuilds in {} pivots", p.total_pivots());
        assert_eq!(p.cold_fallbacks(), 0);
    }

    #[test]
    fn refactor_reproduces_the_updated_inverse() {
        // After a chain of cuts, bound fixes and a relaxed row (basic
        // structurals, slacks and a dropped-artificial-free Eq row), the
        // rebuilt B⁻¹ equals the one the pivots maintained, and B⁻¹B = I.
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = IncrementalLp::new();
        let vars: Vec<VarId> =
            (0..24).map(|_| p.add_unit_var(-rng.random_range(0.1..1.0))).collect();
        let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_row(&all, Relation::Eq, 7.5);
        p.add_row(&all[..10], Relation::Ge, 2.5);
        p.solve().unwrap();
        for step in 0..6 {
            let batch: Vec<_> = (0..3).map(|_| random_cut(&mut rng, &vars)).collect();
            let ids = p.append_le_rows(&batch);
            if step == 3 {
                p.set_upper(vars[5], 0.0);
                p.relax_le_rhs(ids[0], 9.0);
            }
            assert_matches_cold(&mut p);
        }
        // Every row of B⁻¹: stored at kernel positions, implied elsewhere.
        let full = |p: &mut IncrementalLp| -> Vec<SpRow> {
            (0..p.basis.len())
                .map(|i| {
                    if p.is_kernel(i) {
                        p.binv[i].clone()
                    } else {
                        p.implied_row(p.home_of[p.basis[i]])
                    }
                })
                .collect()
        };
        let before = full(&mut p);
        assert!(p.refactor(), "basis must invert");
        let after = full(&mut p);
        for (i, (old, new)) in before.iter().zip(&after).enumerate() {
            for k in 0..p.model.num_constraints() {
                assert!((old.get(k) - new.get(k)).abs() < 1e-9, "B⁻¹[{i}][{k}]");
            }
            for (l, &c) in p.basis.iter().enumerate() {
                let dot: f64 = p.acols[c].iter().map(|(k, a)| new.get(k) * a).sum();
                let want = if l == i { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-9, "(B⁻¹B)[{i}][{l}] = {dot}");
            }
        }
        assert!(p.basis.iter().any(|&c| p.home_of[c] == NONBASIC), "no kernel column");
        assert_matches_cold(&mut p);
    }

    /// Runs a short chain with `kind` armed on its first poll after the
    /// cold solve; returns the engine and the ambient fallback count.
    fn chain_under_fault(kind: FaultKind) -> (IncrementalLp, u64) {
        let obs = wsn_obs::Obs::detached();
        let _ambient = wsn_obs::install(obs.clone());
        let mut rng = StdRng::seed_from_u64(97);
        let mut p = IncrementalLp::new();
        let vars: Vec<VarId> =
            (0..16).map(|_| p.add_unit_var(-rng.random_range(0.1..1.0))).collect();
        let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_row(&all, Relation::Eq, 6.0);
        assert_matches_cold(&mut p);
        let ctx = crate::SolveBudget::unlimited().start();
        ctx.arm_fault(kind, 1);
        p.set_ctx(ctx);
        for _ in 0..4 {
            // Cut off the incumbent so every solve pivots.
            let cut = incumbent_cut(&mut p, &mut rng, &vars);
            p.append_le_rows(&[cut, random_cut(&mut rng, &vars)]);
            assert_matches_cold(&mut p);
        }
        let fallbacks = obs.registry().counter("lp.cold_fallbacks").get();
        (p, fallbacks)
    }

    #[test]
    fn injected_faults_take_effect_and_fall_back_cold() {
        // Each fault must reach the warm solve it is armed in — a hook the
        // entry refresh silently overwrote would leave the count at 0 —
        // and the sentinels must turn it into exactly one cold rebuild.
        for kind in [FaultKind::CorruptPivot, FaultKind::PerturbRhs] {
            let (p, fallbacks) = chain_under_fault(kind);
            assert_eq!(p.cold_fallbacks(), 1, "{kind}");
            assert_eq!(fallbacks, 1, "{kind}");
        }
    }

    #[test]
    fn corrupted_cold_solve_is_rebuilt_once() {
        // A corrupted pivot inside the very first (cold) solve: the cold
        // sentinel rebuilds once and the answer is still the optimum.
        let mut p = IncrementalLp::new();
        let x = p.add_unit_var(-1.0);
        let y = p.add_unit_var(-2.0);
        let z = p.add_unit_var(-0.5);
        p.add_row(&[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 2.0);
        p.add_row(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.5);
        let ctx = crate::SolveBudget::unlimited().start();
        ctx.arm_fault(FaultKind::CorruptPivot, 1);
        p.set_ctx(ctx);
        assert_matches_cold(&mut p);
        assert_eq!(p.cold_fallbacks(), 1);
    }

    #[test]
    fn poisoned_cut_fails_this_and_every_later_solve() {
        // The poison sits in the model row every cold build reads, not
        // only in the engine's `b`: the warm solve trips the non-finite
        // sentinel, both cold rebuilds trip it again, and so does the
        // next solve, with no fault armed.
        let obs = wsn_obs::Obs::detached();
        let _ambient = wsn_obs::install(obs.clone());
        let mut rng = StdRng::seed_from_u64(24);
        let mut p = IncrementalLp::new();
        let vars: Vec<VarId> =
            (0..16).map(|_| p.add_unit_var(-rng.random_range(0.1..1.0))).collect();
        let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_row(&all, Relation::Eq, 6.0);
        assert_matches_cold(&mut p);
        let cut = incumbent_cut(&mut p, &mut rng, &vars);
        p.append_le_rows(&[cut]);
        let ctx = crate::SolveBudget::unlimited().start();
        ctx.arm_fault(FaultKind::PoisonCut, 1);
        p.set_ctx(ctx);
        assert_eq!(p.solve().err(), Some(LpError::Numerical));
        assert_eq!(p.cold_fallbacks(), 2);
        assert_eq!(obs.registry().counter("lp.sentinel.trips").get(), 3);
        assert_eq!(p.solve().err(), Some(LpError::Numerical));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Mutation script entry: append a ≤ row, tighten a bound, or
        /// relax an appended row.
        #[derive(Clone, Debug)]
        enum Mutation {
            Append(Vec<i32>, i32),
            Tighten(usize, u32),
            Relax(usize, u32),
        }

        fn arb_mutation(nvars: usize) -> impl Strategy<Value = Mutation> {
            // The vendored proptest stub has no `prop_oneof`; draw every
            // branch's inputs and select with a discriminant instead.
            (
                0u8..3,
                proptest::collection::vec(-3i32..4, nvars),
                1i32..8,
                (0usize..nvars, 0u32..=100),
                (0usize..8, 1u32..6),
            )
                .prop_map(|(sel, row, b, (j, u), (r, d))| match sel {
                    0 => Mutation::Append(row, b),
                    1 => Mutation::Tighten(j, u),
                    _ => Mutation::Relax(r, d),
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn warm_equals_cold_under_mutation_scripts(
                n in 2usize..5,
                costs in proptest::collection::vec(-5i32..5, 4),
                base_rows in proptest::collection::vec(
                    (proptest::collection::vec(-3i32..4, 4), 1i32..7), 0..3),
                script in proptest::collection::vec(arb_mutation(4), 1..7),
            ) {
                let mut inc = IncrementalLp::new();
                let vars: Vec<VarId> =
                    costs[..n].iter().map(|&c| inc.add_unit_var(c as f64)).collect();
                for (row, b) in &base_rows {
                    let terms: Vec<(VarId, f64)> = vars
                        .iter()
                        .zip(row)
                        .map(|(&v, &a)| (v, a as f64))
                        .collect();
                    inc.add_row(&terms, Relation::Le, *b as f64);
                }
                // x = 0 is feasible for the base problem (all rhs ≥ 1).
                let s = inc.solve().unwrap();
                prop_assert_eq!(s.status, LpStatus::Optimal);

                let mut appended: Vec<RowId> = Vec::new();
                let mut uppers = vec![1.0f64; n];
                for m in &script {
                    match m {
                        Mutation::Append(row, b) => {
                            let terms: Vec<(VarId, f64)> = vars
                                .iter()
                                .zip(row)
                                .map(|(&v, &a)| (v, a as f64))
                                .collect();
                            appended.push(inc.append_le_row(&terms, *b as f64));
                        }
                        Mutation::Tighten(j, u) => {
                            if *j >= n { continue; }
                            // Only tighten (monotone, like IRA edge drops).
                            let nu = (*u as f64 / 100.0).min(uppers[*j]);
                            uppers[*j] = nu;
                            inc.set_upper(vars[*j], nu);
                        }
                        Mutation::Relax(r, d) => {
                            if appended.is_empty() { continue; }
                            let row = appended[r % appended.len()];
                            let cur = inc.to_problem();
                            let rhs = cur.constraints[row.0].rhs;
                            let _ = cur;
                            inc.relax_le_rhs(row, rhs + *d as f64);
                        }
                    }
                    matches_dense(&mut inc)?;
                }
            }

            #[test]
            fn flipped_and_shifted_rows_match_the_dense_reference(
                costs in proptest::collection::vec(-5i32..=5, 4),
                lowers in proptest::collection::vec(-2i32..=2, 4),
                base_rows in proptest::collection::vec(
                    (0usize..3, proptest::collection::vec(-3i32..=3, 4), -6i32..=6), 1..=3),
                appended in proptest::collection::vec(
                    (proptest::collection::vec(-3i32..=3, 4), -5i32..=5), 1..=5),
            ) {
                // Nonzero lower bounds shift every right-hand side, and a
                // negative shifted one makes the cold build flip its row's
                // sign; every row loop must read the model times that sign.
                let mut inc = IncrementalLp::new();
                let vars: Vec<VarId> = costs
                    .iter()
                    .zip(&lowers)
                    .map(|(&c, &l)| inc.add_var(c as f64, l as f64, l as f64 + 2.0))
                    .collect();
                let terms = |row: &[i32]| -> Vec<(VarId, f64)> {
                    vars.iter().zip(row).map(|(&v, &a)| (v, a as f64)).collect()
                };
                for (rel, row, rhs) in &base_rows {
                    let rel = [Relation::Le, Relation::Ge, Relation::Eq][*rel];
                    inc.add_row(&terms(row), rel, *rhs as f64);
                }
                matches_dense(&mut inc)?;
                for (row, rhs) in &appended {
                    inc.append_le_row(&terms(row), *rhs as f64);
                    matches_dense(&mut inc)?;
                }
            }
        }

        /// Solves `inc` and checks the answer against the dense simplex on
        /// the same problem: the same status and, when optimal, the same
        /// objective and a feasible point.
        fn matches_dense(inc: &mut IncrementalLp) -> Result<(), TestCaseError> {
            let warm = inc.solve().unwrap();
            let cold = inc.to_problem().solve().unwrap();
            prop_assert_eq!(warm.status, cold.status);
            if warm.status == LpStatus::Optimal {
                prop_assert!(
                    (warm.objective - cold.objective).abs() < 1e-6,
                    "warm {} vs cold {}",
                    warm.objective,
                    cold.objective
                );
                prop_assert!(
                    inc.to_problem().is_feasible(&warm.x, 1e-6),
                    "warm point violates the accumulated constraints"
                );
            }
            Ok(())
        }
    }
}
