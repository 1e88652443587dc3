//! Two-phase dense primal simplex with bounded variables.
//!
//! The implementation follows the classical tableau method extended with
//! upper bounds: a nonbasic variable rests at its lower *or* upper bound,
//! the ratio test additionally considers the entering variable flipping to
//! its opposite bound, and basic variables may leave at either bound.
//!
//! Phase 1 minimizes the sum of artificial variables from an all-artificial
//! starting basis (rows are sign-normalized so the start is feasible);
//! artificials are then driven out of the basis (rows that cannot be pivoted
//! are redundant and dropped) before phase 2 optimizes the real objective.
//!
//! Anti-cycling: Dantzig pricing by default, switching permanently to
//! Bland's rule after a run of degenerate pivots.

use crate::problem::{LpProblem, Relation};

/// Feasibility/pivot tolerance.
const TOL: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
const DJ_TOL: f64 = 1e-9;
/// Consecutive degenerate pivots before switching to Bland's rule.
const BLAND_TRIGGER: usize = 64;

/// Solver outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// Hard solver failures (distinct from infeasible/unbounded outcomes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpError {
    /// The iteration cap was hit — numerically stuck.
    IterationLimit,
    /// A variable was declared with `lower > upper`.
    InvalidBounds,
    /// The solve was cancelled or ran out of budget (wall deadline or
    /// pivot cap on its [`crate::SolveCtx`]); the solver state is
    /// checkpointable, not corrupt.
    Interrupted,
    /// A numerical-stability sentinel tripped (non-finite tableau values
    /// or an unrepairable residual) and cold recovery was impossible.
    Numerical,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::IterationLimit => write!(f, "simplex iteration limit reached"),
            LpError::InvalidBounds => write!(f, "a variable has lower bound above its upper bound"),
            LpError::Interrupted => write!(f, "solve interrupted by budget or cancellation"),
            LpError::Numerical => write!(f, "numerical sentinel tripped and recovery failed"),
        }
    }
}

impl std::error::Error for LpError {}

/// A solved LP.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Outcome of the solve.
    pub status: LpStatus,
    /// Variable values (meaningful when `status == Optimal`); this is a
    /// *basic* feasible solution, i.e. an extreme point.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Simplex pivots performed across both phases.
    pub iterations: usize,
}

/// Internal solver state over the equality-form tableau.
struct Tableau {
    m: usize,
    ncols: usize,
    n_real: usize, // structural + slack columns (artificials come after)
    /// Row-major `m × ncols` matrix, `B⁻¹A`.
    tab: Vec<f64>,
    /// Current basic variable values (`rhs[i]` is the value of `basis[i]`).
    rhs: Vec<f64>,
    basis: Vec<usize>,
    /// For nonbasic columns: resting at upper bound?
    at_upper: Vec<bool>,
    /// Shifted bounds: every column has lower 0, upper `upper[j]` (may be ∞).
    upper: Vec<f64>,
    /// Reduced costs of the current phase.
    drow: Vec<f64>,
    bland: bool,
    degenerate_run: usize,
    iterations: usize,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.tab[r * self.ncols + c]
    }

    fn pivot(&mut self, r: usize, j: usize) {
        let piv = self.at(r, j);
        debug_assert!(piv.abs() > TOL, "pivot element too small: {piv}");
        let inv = 1.0 / piv;
        let (start_r, end_r) = (r * self.ncols, (r + 1) * self.ncols);
        for c in start_r..end_r {
            self.tab[c] *= inv;
        }
        self.rhs[r] *= inv;
        for i in 0..self.m {
            if i == r {
                continue;
            }
            let factor = self.at(i, j);
            if factor.abs() <= TOL * 1e-3 {
                continue;
            }
            let (start_i, _) = (i * self.ncols, ());
            for c in 0..self.ncols {
                self.tab[start_i + c] -= factor * self.tab[start_r + c];
            }
            self.rhs[i] -= factor * self.rhs[r];
            let _ = start_i;
        }
        let dfactor = self.drow[j];
        if dfactor.abs() > 0.0 {
            for c in 0..self.ncols {
                self.drow[c] -= dfactor * self.tab[start_r + c];
            }
        }
        self.basis[r] = j;
        self.iterations += 1;
    }

    /// Chooses an entering column, or `None` at optimality.
    fn price(&self, allow_artificials: bool) -> Option<usize> {
        let limit = if allow_artificials { self.ncols } else { self.n_real };
        let mut best: Option<(usize, f64)> = None;
        for j in 0..limit {
            if self.basis.contains(&j) {
                continue;
            }
            let d = self.drow[j];
            let violation = if self.at_upper[j] {
                d // want d > 0 to decrease from upper
            } else {
                -d // want d < 0 to increase from lower
            };
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

    /// One simplex iteration with entering column `j`. Returns `false` when
    /// the column proves unboundedness.
    fn step(&mut self, j: usize) -> bool {
        let entering_from_upper = self.at_upper[j];
        // t ≥ 0 is the (absolute) movement of the entering variable.
        // dir = +1 when increasing from lower, −1 when decreasing from upper.
        let mut t_star = self.upper[j]; // bound-flip limit (may be ∞)
        let mut leaving: Option<(usize, bool)> = None; // (row, exits_at_upper)

        for i in 0..self.m {
            let alpha = self.at(i, j);
            if alpha.abs() <= TOL {
                continue;
            }
            // Change of basic i per unit t: −alpha when entering increases,
            // +alpha when entering decreases.
            let delta = if entering_from_upper { alpha } else { -alpha };
            let (limit, exits_upper) = if delta < 0.0 {
                // basic decreases toward 0
                ((self.rhs[i]).max(0.0) / -delta, false)
            } else {
                // basic increases toward its upper bound
                let ub = self.upper[self.basis[i]];
                if ub.is_infinite() {
                    continue;
                }
                (((ub - self.rhs[i]).max(0.0)) / delta, true)
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
            return false; // unbounded direction
        }

        if t_star <= TOL {
            self.degenerate_run += 1;
            if self.degenerate_run > BLAND_TRIGGER {
                self.bland = true;
            }
        } else {
            self.degenerate_run = 0;
        }

        match leaving {
            None => {
                // Bound flip: entering moves all the way to its other bound.
                let signed = if entering_from_upper { -t_star } else { t_star };
                for i in 0..self.m {
                    let alpha = self.at(i, j);
                    if alpha.abs() > 0.0 {
                        self.rhs[i] -= alpha * signed;
                    }
                }
                self.at_upper[j] = !self.at_upper[j];
                self.iterations += 1;
            }
            Some((r, exits_upper)) => {
                let l = self.basis[r];
                if exits_upper {
                    self.rhs[r] -= self.upper[l];
                }
                self.pivot(r, j);
                if entering_from_upper {
                    self.rhs[r] += self.upper[j];
                    self.at_upper[j] = false;
                }
                self.at_upper[l] = exits_upper;
            }
        }
        true
    }

    /// Runs the current phase to optimality. Returns `Ok(true)` on
    /// optimality, `Ok(false)` on unboundedness.
    fn optimize(&mut self, allow_artificials: bool, max_iter: usize) -> Result<bool, LpError> {
        loop {
            if self.iterations > max_iter {
                return Err(LpError::IterationLimit);
            }
            let Some(j) = self.price(allow_artificials) else {
                return Ok(true);
            };
            if !self.step(j) {
                return Ok(false);
            }
        }
    }
}

/// Solves `problem` with the two-phase bounded-variable simplex.
pub fn solve(problem: &LpProblem) -> Result<LpSolution, LpError> {
    let nvars = problem.num_vars();
    let m = problem.num_constraints();

    for j in 0..nvars {
        if problem.lower[j] > problem.upper[j] + TOL {
            return Err(LpError::InvalidBounds);
        }
    }

    // Column layout: structural | slacks | artificials.
    let n_slack = problem.constraints.iter().filter(|c| c.rel != Relation::Eq).count();
    let n_real = nvars + n_slack;
    let ncols = n_real + m;

    // Dense rows in equality form over shifted variables (lower bound 0):
    //   Σ a_j (x_j − l_j) (+ slack) = b − Σ a_j l_j
    let mut dense = vec![0.0f64; m * ncols];
    let mut b = vec![0.0f64; m];
    let mut upper = vec![0.0f64; ncols];
    for (j, u) in upper.iter_mut().enumerate().take(nvars) {
        *u = problem.upper[j] - problem.lower[j];
    }
    // Slacks and artificials are unbounded above (artificials start basic
    // and leave for good).
    for u in upper.iter_mut().skip(nvars) {
        *u = f64::INFINITY;
    }

    let mut slack_cursor = nvars;
    for (i, c) in problem.constraints.iter().enumerate() {
        let row = &mut dense[i * ncols..(i + 1) * ncols];
        let mut rhs = c.rhs;
        for &(j, a) in &c.terms {
            row[j] += a;
            rhs -= a * problem.lower[j];
        }
        match c.rel {
            Relation::Le => {
                row[slack_cursor] = 1.0;
                slack_cursor += 1;
            }
            Relation::Ge => {
                row[slack_cursor] = -1.0;
                slack_cursor += 1;
            }
            Relation::Eq => {}
        }
        b[i] = rhs;
    }
    debug_assert_eq!(slack_cursor, n_real);

    // Sign-normalize rows so the artificial start is feasible, then install
    // the artificial identity.
    for i in 0..m {
        if b[i] < 0.0 {
            for c in 0..ncols {
                dense[i * ncols + c] = -dense[i * ncols + c];
            }
            b[i] = -b[i];
        }
        dense[i * ncols + n_real + i] = 1.0;
    }

    let mut t = Tableau {
        m,
        ncols,
        n_real,
        tab: dense,
        rhs: b,
        basis: (n_real..ncols).collect(),
        at_upper: vec![false; ncols],
        upper,
        drow: vec![0.0; ncols],
        bland: false,
        degenerate_run: 0,
        iterations: 0,
    };

    let max_iter = 20_000 + 200 * (m + ncols);

    // ---- Phase 1: minimize the sum of artificials. ----
    // Reduced costs: d_j = c_j − Σ_i c_{B_i}·tab[i][j], with c = 1 on
    // artificials, 0 elsewhere, and the initial basis all-artificial.
    for j in 0..t.ncols {
        let colsum: f64 = (0..t.m).map(|i| t.at(i, j)).sum();
        let cj = if j >= n_real { 1.0 } else { 0.0 };
        t.drow[j] = cj - colsum;
    }
    let finished = t.optimize(true, max_iter)?;
    debug_assert!(finished, "phase 1 is bounded below by 0");

    let phase1_obj: f64 = (0..t.m).filter(|&i| t.basis[i] >= n_real).map(|i| t.rhs[i]).sum();
    if phase1_obj > 1e-6 {
        return Ok(LpSolution {
            status: LpStatus::Infeasible,
            x: vec![0.0; nvars],
            objective: f64::NAN,
            iterations: t.iterations,
        });
    }

    // ---- Drive artificials out of the basis; drop redundant rows. ----
    let mut drop_rows: Vec<usize> = Vec::new();
    for r in 0..t.m {
        if t.basis[r] < n_real {
            continue;
        }
        let mut pivot_col = None;
        for j in 0..n_real {
            if !t.basis.contains(&j) && t.at(r, j).abs() > 1e-7 {
                pivot_col = Some(j);
                break;
            }
        }
        match pivot_col {
            Some(j) => {
                let was_upper = t.at_upper[j];
                if was_upper {
                    // Entering at its upper bound with zero movement: after a
                    // mechanical pivot, restore its (basic) value.
                    t.pivot(r, j);
                    t.rhs[r] += t.upper[j];
                    t.at_upper[j] = false;
                } else {
                    t.pivot(r, j);
                }
            }
            None => drop_rows.push(r),
        }
    }
    if !drop_rows.is_empty() {
        // Remove redundant rows (descending index so removal is stable).
        for &r in drop_rows.iter().rev() {
            let last = t.m - 1;
            if r != last {
                for c in 0..t.ncols {
                    t.tab[r * t.ncols + c] = t.tab[last * t.ncols + c];
                }
                t.rhs[r] = t.rhs[last];
                t.basis[r] = t.basis[last];
            }
            t.tab.truncate(last * t.ncols);
            t.rhs.truncate(last);
            t.basis.truncate(last);
            t.m = last;
        }
    }

    // ---- Phase 2: real objective over shifted variables. ----
    let shifted_cost = |j: usize| -> f64 {
        if j < nvars {
            problem.cost[j]
        } else {
            0.0
        }
    };
    for j in 0..t.ncols {
        let mut d = shifted_cost(j);
        for i in 0..t.m {
            d -= shifted_cost(t.basis[i]) * t.at(i, j);
        }
        t.drow[j] = d;
    }
    // Basic columns must have zero reduced cost by construction.
    for i in 0..t.m {
        t.drow[t.basis[i]] = 0.0;
    }
    t.bland = false;
    t.degenerate_run = 0;

    let finished = t.optimize(false, max_iter)?;
    if !finished {
        return Ok(LpSolution {
            status: LpStatus::Unbounded,
            x: vec![0.0; nvars],
            objective: f64::NEG_INFINITY,
            iterations: t.iterations,
        });
    }

    // ---- Extract the basic solution (unshift lower bounds). ----
    let mut shifted = vec![0.0f64; t.ncols];
    for (j, s) in shifted.iter_mut().enumerate() {
        if t.at_upper[j] && t.upper[j].is_finite() {
            *s = t.upper[j];
        }
    }
    for i in 0..t.m {
        shifted[t.basis[i]] = t.rhs[i];
    }
    let mut x = vec![0.0f64; nvars];
    for j in 0..nvars {
        // Clamp tiny negative noise into the box.
        let v = shifted[j] + problem.lower[j];
        x[j] = v.clamp(
            problem.lower[j],
            if problem.upper[j].is_finite() { problem.upper[j] } else { f64::INFINITY },
        );
    }
    let objective = problem.objective_at(&x);
    // Non-finite sentinel: NaN/Inf cannot loop forever (comparisons against
    // a NaN are false, so pricing terminates), but they can silently reach
    // the solution. Refuse to report a poisoned optimum.
    if !objective.is_finite()
        || x.iter().any(|v| !v.is_finite())
        || t.rhs.iter().any(|v| !v.is_finite())
    {
        if let Some(obs) = wsn_obs::current() {
            obs.registry().counter("lp.sentinel.nonfinite").inc();
            wsn_obs::warn("lp.sentinel", vec![wsn_obs::field("where", "dense_simplex")]);
        }
        return Err(LpError::Numerical);
    }
    Ok(LpSolution { status: LpStatus::Optimal, x, objective, iterations: t.iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, Relation, VarId};

    fn optimal(p: &LpProblem) -> LpSolution {
        let s = p.solve().expect("solver error");
        assert_eq!(s.status, LpStatus::Optimal, "expected optimal, got {:?}", s.status);
        assert!(p.is_feasible(&s.x, 1e-6), "solution must be feasible: {:?}", s.x);
        s
    }

    #[test]
    fn trivial_box_minimum() {
        // min x, x ∈ [0.25, 3] → 0.25
        let mut p = LpProblem::new();
        p.add_var(1.0, 0.25, 3.0);
        let s = optimal(&p);
        assert!((s.objective - 0.25).abs() < 1e-9);
    }

    #[test]
    fn textbook_2d() {
        // min −3x − 5y  s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
        // optimum (2, 6) → −36.
        let mut p = LpProblem::new();
        let x = p.add_var(-3.0, 0.0, f64::INFINITY);
        let y = p.add_var(-5.0, 0.0, f64::INFINITY);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = optimal(&p);
        assert!((s.objective + 36.0).abs() < 1e-7, "obj {}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
        assert!((s.x[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints() {
        // min x + 2y  s.t. x + y = 1, x,y ∈ [0,1] → (1, 0), obj 1.
        let mut p = LpProblem::new();
        let x = p.add_unit_var(1.0);
        let y = p.add_unit_var(2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 1.0);
        let s = optimal(&p);
        assert!((s.objective - 1.0).abs() < 1e-8);
        assert!((s.x[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn ge_constraints_and_negative_rhs_normalization() {
        // min x  s.t. −x ≤ −2 (i.e. x ≥ 2), x ∈ [0, 10] → 2.
        let mut p = LpProblem::new();
        let x = p.add_var(1.0, 0.0, 10.0);
        p.add_constraint(&[(x, -1.0)], Relation::Le, -2.0);
        let s = optimal(&p);
        assert!((s.objective - 2.0).abs() < 1e-8);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = LpProblem::new();
        let x = p.add_unit_var(1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0); // x ≥ 2 but x ≤ 1
        let s = p.solve().unwrap();
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = LpProblem::new();
        let x = p.add_var(-1.0, 0.0, f64::INFINITY);
        p.add_constraint(&[(x, -1.0)], Relation::Le, 0.0); // no upper limit
        let s = p.solve().unwrap();
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn invalid_bounds_error() {
        let mut p = LpProblem::new();
        p.add_var(1.0, 2.0, 1.0);
        assert_eq!(p.solve().unwrap_err(), LpError::InvalidBounds);
    }

    #[test]
    fn nonbasic_at_upper_bound_used() {
        // min −x − y  s.t. x + y ≤ 1.5, x,y ∈ [0,1]: optimum uses one var at
        // its upper bound (bound flip machinery).
        let mut p = LpProblem::new();
        let x = p.add_unit_var(-1.0);
        let y = p.add_unit_var(-1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.5);
        let s = optimal(&p);
        assert!((s.objective + 1.5).abs() < 1e-8);
        assert!(s.x.iter().any(|&v| (v - 1.0).abs() < 1e-8));
    }

    #[test]
    fn general_lower_bounds_shifted() {
        // min x + y  s.t. x + y ≥ 5, x ∈ [1, 10], y ∈ [2, 10] → obj 5.
        let mut p = LpProblem::new();
        let x = p.add_var(1.0, 1.0, 10.0);
        let y = p.add_var(1.0, 2.0, 10.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 5.0);
        let s = optimal(&p);
        assert!((s.objective - 5.0).abs() < 1e-8);
        assert!(s.x[0] >= 1.0 - 1e-9 && s.x[1] >= 2.0 - 1e-9);
    }

    #[test]
    fn redundant_rows_dropped() {
        // Duplicate equality rows force a redundant artificial row.
        let mut p = LpProblem::new();
        let x = p.add_unit_var(1.0);
        let y = p.add_unit_var(1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 1.0);
        p.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 2.0);
        let s = optimal(&p);
        assert!((s.objective - 1.0).abs() < 1e-8);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate corner: many constraints active at the optimum.
        let mut p = LpProblem::new();
        let x = p.add_var(-1.0, 0.0, f64::INFINITY);
        let y = p.add_var(-1.0, 0.0, f64::INFINITY);
        for k in 1..=8 {
            let k = k as f64;
            p.add_constraint(&[(x, 1.0), (y, k)], Relation::Le, 1.0);
            p.add_constraint(&[(x, k), (y, 1.0)], Relation::Le, 1.0);
        }
        let s = optimal(&p);
        assert!(s.objective <= 0.0);
    }

    #[test]
    fn fractional_extreme_point_structure() {
        // min −x−y−z s.t. x+y ≤ 1, y+z ≤ 1, x+z ≤ 1 over [0,1]³.
        // Unique optimum (½,½,½) — a genuinely fractional extreme point.
        let mut p = LpProblem::new();
        let v: Vec<VarId> = (0..3).map(|_| p.add_unit_var(-1.0)).collect();
        p.add_constraint(&[(v[0], 1.0), (v[1], 1.0)], Relation::Le, 1.0);
        p.add_constraint(&[(v[1], 1.0), (v[2], 1.0)], Relation::Le, 1.0);
        p.add_constraint(&[(v[0], 1.0), (v[2], 1.0)], Relation::Le, 1.0);
        let s = optimal(&p);
        assert!((s.objective + 1.5).abs() < 1e-8);
        for val in &s.x {
            assert!((val - 0.5).abs() < 1e-8);
        }
    }

    #[test]
    fn assignment_problem_is_integral() {
        // 3×3 assignment LP: extreme points of the Birkhoff polytope are
        // permutation matrices, so the simplex answer must be integral.
        let costs = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut p = LpProblem::new();
        let mut vars = [[VarId(0); 3]; 3];
        for (i, row) in costs.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                vars[i][j] = p.add_unit_var(c);
            }
        }
        for (i, vars_i) in vars.iter().enumerate() {
            let row: Vec<_> = vars_i.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&row, Relation::Eq, 1.0);
            let col: Vec<_> = vars.iter().map(|vars_j| (vars_j[i], 1.0)).collect();
            p.add_constraint(&col, Relation::Eq, 1.0);
        }
        let s = optimal(&p);
        // Optimal assignment: (0,1)=2, (1,0)=4 or (1,2)… brute force: try all
        // 6 permutations.
        let mut best = f64::INFINITY;
        let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for perm in perms {
            let c: f64 = (0..3).map(|i| costs[i][perm[i]]).sum();
            best = best.min(c);
        }
        assert!((s.objective - best).abs() < 1e-8, "{} vs {}", s.objective, best);
        for v in &s.x {
            assert!(v.abs() < 1e-7 || (v - 1.0).abs() < 1e-7, "non-integral {v}");
        }
    }

    mod stress {
        //! Classic adversarial LPs: Beale's cycling example and the
        //! Klee-Minty cube.
        use super::*;

        #[test]
        fn beale_cycling_example() {
            // Beale (1955): cycles under naive Dantzig pricing without an
            // anti-cycling rule. Optimum -0.05 at x = (1/25, 0, 1, 0).
            let mut p = LpProblem::new();
            let x4 = p.add_var(-0.75, 0.0, f64::INFINITY);
            let x5 = p.add_var(150.0, 0.0, f64::INFINITY);
            let x6 = p.add_var(-0.02, 0.0, f64::INFINITY);
            let x7 = p.add_var(6.0, 0.0, f64::INFINITY);
            p.add_constraint(
                &[(x4, 0.25), (x5, -60.0), (x6, -1.0 / 25.0), (x7, 9.0)],
                Relation::Le,
                0.0,
            );
            p.add_constraint(
                &[(x4, 0.5), (x5, -90.0), (x6, -1.0 / 50.0), (x7, 3.0)],
                Relation::Le,
                0.0,
            );
            p.add_constraint(&[(x6, 1.0)], Relation::Le, 1.0);
            let s = p.solve().expect("must terminate despite degeneracy");
            assert_eq!(s.status, LpStatus::Optimal);
            assert!((s.objective + 0.05).abs() < 1e-9, "obj {}", s.objective);
        }

        #[test]
        fn klee_minty_cube_n5() {
            // Klee-Minty: exponential for textbook Dantzig pivoting but must
            // still land on the optimum 5^n.
            let n = 5usize;
            let mut p = LpProblem::new();
            let vars: Vec<VarId> = (0..n)
                .map(|j| p.add_var(-(2f64.powi((n - 1 - j) as i32)), 0.0, f64::INFINITY))
                .collect();
            for i in 0..n {
                let mut terms: Vec<(VarId, f64)> =
                    (0..i).map(|j| (vars[j], 2.0 * 2f64.powi((i - j) as i32))).collect();
                terms.push((vars[i], 1.0));
                p.add_constraint(&terms, Relation::Le, 5f64.powi(i as i32 + 1));
            }
            let s = p.solve().unwrap();
            assert_eq!(s.status, LpStatus::Optimal);
            assert!(
                (s.objective + 5f64.powi(n as i32)).abs() < 1e-6,
                "obj {} vs -{}",
                s.objective,
                5f64.powi(n as i32)
            );
        }

        #[test]
        fn massively_redundant_constraints() {
            // The same binding constraint repeated 60 times: phase 1 must
            // drop the redundancy and phase 2 must still optimize.
            let mut p = LpProblem::new();
            let x = p.add_var(-1.0, 0.0, f64::INFINITY);
            let y = p.add_var(-1.0, 0.0, f64::INFINITY);
            for k in 0..60 {
                let scale = 1.0 + (k % 7) as f64;
                p.add_constraint(&[(x, scale), (y, scale)], Relation::Le, 10.0 * scale);
            }
            let s = p.solve().unwrap();
            assert_eq!(s.status, LpStatus::Optimal);
            assert!((s.objective + 10.0).abs() < 1e-7);
        }

        #[test]
        fn wide_problem_many_variables() {
            // 200 variables, one coupling row: the cheapest variable wins.
            let mut p = LpProblem::new();
            let vars: Vec<VarId> =
                (0..200).map(|j| p.add_unit_var(1.0 + (j % 13) as f64)).collect();
            let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&all, Relation::Ge, 5.0);
            let s = p.solve().unwrap();
            assert_eq!(s.status, LpStatus::Optimal);
            // Five cheapest (cost 1) variables at their upper bound 1.
            assert!((s.objective - 5.0).abs() < 1e-7, "obj {}", s.objective);
        }
    }

    mod brute_force {
        //! Optimality cross-check against exhaustive vertex enumeration for
        //! tiny random LPs over the unit box.
        use super::*;
        use proptest::prelude::*;

        /// Solves a k×k linear system with partial pivoting; `None` when
        /// singular.
        fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
            let k = b.len();
            for col in 0..k {
                let (pivot_row, pivot_val) = (col..k)
                    .map(|r| (r, a[r][col].abs()))
                    .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap())?;
                if pivot_val < 1e-10 {
                    return None;
                }
                a.swap(col, pivot_row);
                b.swap(col, pivot_row);
                let pivot = a[col][col..k].to_vec();
                for r in 0..k {
                    if r != col {
                        let f = a[r][col] / a[col][col];
                        for (x, p) in a[r][col..k].iter_mut().zip(&pivot) {
                            *x -= f * p;
                        }
                        b[r] -= f * b[col];
                    }
                }
            }
            Some((0..k).map(|i| b[i] / a[i][i]).collect())
        }

        /// Enumerates all candidate vertices of
        /// `{x ∈ [0,1]ⁿ : rows·x ≤ rhs}` by activating every n-subset of the
        /// constraints (rows plus box facets) and returns the best feasible
        /// objective.
        fn brute_optimum(cost: &[f64], rows: &[Vec<f64>], rhs: &[f64]) -> Option<f64> {
            let n = cost.len();
            // Build the full facet list: rows, x_j ≥ 0 (as −x_j ≤ 0), x_j ≤ 1.
            let mut facets: Vec<(Vec<f64>, f64)> = Vec::new();
            for (r, row) in rows.iter().enumerate() {
                facets.push((row.clone(), rhs[r]));
            }
            for j in 0..n {
                let mut lo = vec![0.0; n];
                lo[j] = -1.0;
                facets.push((lo, 0.0));
                let mut hi = vec![0.0; n];
                hi[j] = 1.0;
                facets.push((hi, 1.0));
            }
            let f = facets.len();
            let mut best: Option<f64> = None;
            // Iterate n-subsets via bitmask (f ≤ 12 for our sizes).
            for mask in 0u32..(1 << f) {
                if mask.count_ones() as usize != n {
                    continue;
                }
                let chosen: Vec<usize> = (0..f).filter(|&i| mask & (1 << i) != 0).collect();
                let a: Vec<Vec<f64>> = chosen.iter().map(|&i| facets[i].0.clone()).collect();
                let b: Vec<f64> = chosen.iter().map(|&i| facets[i].1).collect();
                let Some(x) = solve_dense(a, b) else { continue };
                // Feasibility of the candidate vertex.
                let ok = x.iter().all(|&v| (-1e-7..=1.0 + 1e-7).contains(&v))
                    && rows.iter().zip(rhs).all(|(row, &r)| {
                        row.iter().zip(&x).map(|(a, v)| a * v).sum::<f64>() <= r + 1e-7
                    });
                if ok {
                    let obj: f64 = cost.iter().zip(&x).map(|(c, v)| c * v).sum();
                    best = Some(best.map_or(obj, |b: f64| b.min(obj)));
                }
            }
            best
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn simplex_matches_vertex_enumeration(
                n in 2usize..4,
                cost_raw in proptest::collection::vec(-5i32..5, 3),
                rows_raw in proptest::collection::vec(
                    (proptest::collection::vec(-3i32..4, 3), 1i32..6), 1..4),
            ) {
                let cost: Vec<f64> = cost_raw[..n].iter().map(|&c| c as f64).collect();
                let rows: Vec<Vec<f64>> = rows_raw
                    .iter()
                    .map(|(r, _)| r[..n].iter().map(|&a| a as f64).collect())
                    .collect();
                let rhs: Vec<f64> = rows_raw.iter().map(|&(_, b)| b as f64).collect();

                let mut p = LpProblem::new();
                let vars: Vec<VarId> = cost.iter().map(|&c| p.add_unit_var(c)).collect();
                for (row, &r) in rows.iter().zip(&rhs) {
                    let terms: Vec<(VarId, f64)> =
                        vars.iter().copied().zip(row.iter().copied()).collect();
                    p.add_constraint(&terms, Relation::Le, r);
                }
                let s = p.solve().unwrap();
                // The box keeps the problem bounded and x = 0 is feasible
                // (all rhs ≥ 1 > 0), so the solve must be optimal.
                prop_assert_eq!(s.status, LpStatus::Optimal);
                prop_assert!(p.is_feasible(&s.x, 1e-6));
                let brute = brute_optimum(&cost, &rows, &rhs).expect("0 is feasible");
                prop_assert!(
                    (s.objective - brute).abs() < 1e-5,
                    "simplex {} vs brute {}", s.objective, brute
                );
            }
        }
    }
}
