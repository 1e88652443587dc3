//! LP model builder.

use crate::simplex::{self, LpError, LpSolution};

/// Index of a variable within an [`LpProblem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub usize);

impl VarId {
    /// Dense index of the variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Constraint sense.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

#[derive(Clone, Debug)]
pub(crate) struct Constraint {
    pub terms: Vec<(usize, f64)>,
    pub rel: Relation,
    pub rhs: f64,
}

/// A minimization LP: `min cᵀx` s.t. `Ax {≤,=,≥} b`, `l ≤ x ≤ u`.
#[derive(Clone, Debug, Default)]
pub struct LpProblem {
    pub(crate) cost: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with objective coefficient `cost` and bounds
    /// `[lower, upper]` (`upper` may be `f64::INFINITY`).
    ///
    /// # Panics
    /// Panics on non-finite `cost`/`lower` or a NaN `upper`.
    pub fn add_var(&mut self, cost: f64, lower: f64, upper: f64) -> VarId {
        assert!(cost.is_finite(), "objective coefficient must be finite");
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(!upper.is_nan(), "upper bound must not be NaN");
        self.cost.push(cost);
        self.lower.push(lower);
        self.upper.push(upper);
        VarId(self.cost.len() - 1)
    }

    /// Adds a variable with bounds `[0, 1]` — the shape of every `x_e`.
    pub fn add_unit_var(&mut self, cost: f64) -> VarId {
        self.add_var(cost, 0.0, 1.0)
    }

    /// Adds a linear constraint. Its terms are stored by variable index;
    /// duplicate variable mentions are summed in the order given, starting
    /// from `0.0` (so a lone `−0.0` is stored as `+0.0`).
    ///
    /// # Panics
    /// Panics if a term references an unknown variable or has a non-finite
    /// coefficient, or if `rhs` is non-finite.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], rel: Relation, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        let mut pairs: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(v, a) in terms {
            assert!(v.index() < self.cost.len(), "constraint references unknown variable");
            assert!(a.is_finite(), "constraint coefficient must be finite");
            pairs.push((v.index(), a));
        }
        // Stable, so repeated mentions keep their input order.
        pairs.sort_by_key(|&(j, _)| j);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(pairs.len());
        for (j, a) in pairs {
            match merged.last_mut() {
                Some((last, sum)) if *last == j => *sum += a,
                _ => merged.push((j, 0.0 + a)),
            }
        }
        self.constraints.push(Constraint { terms: merged, rel, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.cost.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Solves the problem with the two-phase bounded-variable simplex.
    ///
    /// The returned solution, when optimal, is a basic feasible solution —
    /// an extreme point of the feasible polytope.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        simplex::solve(self)
    }

    /// Evaluates the objective at a point (for tests and verification).
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.cost.len());
        self.cost.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks primal feasibility of a point within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.cost.len() {
            return false;
        }
        for (j, &xj) in x.iter().enumerate() {
            if xj < self.lower[j] - tol || xj > self.upper[j] + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(j, a)| a * x[j]).sum();
            let ok = match c.rel {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let mut p = LpProblem::new();
        let x = p.add_unit_var(1.0);
        let y = p.add_var(-2.0, 0.0, f64::INFINITY);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.objective_at(&[1.0, 2.0]), 1.0 - 4.0);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        let mut p = LpProblem::new();
        let x = p.add_unit_var(1.0);
        p.add_constraint(&[(x, 1.0), (x, 2.0)], Relation::Le, 1.5);
        // 3x ≤ 1.5 → x ≤ 0.5
        assert!(p.is_feasible(&[0.5], 1e-9));
        assert!(!p.is_feasible(&[0.6], 1e-9));
    }

    #[test]
    fn feasibility_checks_bounds_and_rows() {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 1.0, 2.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 1.5);
        assert!(p.is_feasible(&[1.5], 1e-9));
        assert!(!p.is_feasible(&[0.5], 1e-9)); // below lower bound
        assert!(!p.is_feasible(&[1.2], 1e-9)); // violates row
        assert!(!p.is_feasible(&[2.5], 1e-9)); // above upper bound
        assert!(!p.is_feasible(&[], 1e-9)); // wrong arity
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A coefficient drawn to stress the merge: signed zeros, and
        /// magnitudes far enough apart that a sum's rounding depends on
        /// the order of its terms.
        fn coefficient(kind: u32, k: i32) -> f64 {
            match kind {
                0 => 0.0,
                1 => -0.0,
                2 => k as f64 * 0.1,
                3 => k as f64 * 1e15,
                4 => k as f64 / 3.0,
                _ => k as f64 * 1e-17,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            // Lists run past 20 terms: shorter slices sort stably even
            // with an unstable sort.
            #[test]
            fn terms_merge_like_an_ordered_map(
                raw in proptest::collection::vec((0usize..6, 0u32..6, -40i32..41), 0..64)
            ) {
                let terms: Vec<(VarId, f64)> =
                    raw.iter().map(|&(j, kind, k)| (VarId(j), coefficient(kind, k))).collect();
                let mut p = LpProblem::new();
                for _ in 0..6 {
                    p.add_unit_var(1.0);
                }
                p.add_constraint(&terms, Relation::Le, 1.0);
                // The builder this replaced: one map entry per variable,
                // each sum started at 0.0 and taken in input order.
                let mut want = std::collections::BTreeMap::new();
                for &(v, a) in &terms {
                    *want.entry(v.index()).or_insert(0.0) += a;
                }
                let bits = |t: &[(usize, f64)]| -> Vec<(usize, u64)> {
                    t.iter().map(|&(j, a)| (j, a.to_bits())).collect()
                };
                let want: Vec<(usize, f64)> = want.into_iter().collect();
                prop_assert_eq!(bits(&p.constraints[0].terms), bits(&want));
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn rejects_foreign_var() {
        let mut p = LpProblem::new();
        p.add_constraint(&[(VarId(3), 1.0)], Relation::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan_cost() {
        let mut p = LpProblem::new();
        p.add_var(f64::NAN, 0.0, 1.0);
    }
}
