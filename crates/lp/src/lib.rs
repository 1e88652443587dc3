//! Linear-programming substrate for the MRLC reproduction.
//!
//! IRA (Algorithm 1 of the paper) repeatedly needs an **extreme point**
//! solution of `LP(G, L', W)` — Theorem 1 only asks for a polynomial
//! algorithm with a separation oracle, and the proofs (Lemma 1/4) rely on
//! the solution being a *basic* feasible solution. The mature Rust LP
//! ecosystem does not offer a pure-Rust simplex with that guarantee, so this
//! crate implements one from scratch:
//!
//! * **the engine**, [`IncrementalLp`] ([`incremental`]): a warm-started
//!   bounded-variable revised simplex that keeps its basis and a sparse
//!   basis inverse across appended `≤` rows, tightened bounds and relaxed
//!   right-hand sides, repairing with dual-simplex pivots. It pivots on
//!   the rows of the [`LpProblem`] its caller built, kept as written, plus
//!   a copy of `A` by columns. It stores the inverse's rows only for the
//!   basic columns that are not a row's basic slack (the rest follow from
//!   those) and rebuilds them on a fixed cadence. It is the only LP the
//!   cutting-plane loop of `mrlc-core` runs;
//! * **the reference**, a dense **two-phase primal simplex with bounded
//!   variables** ([`simplex`]) over a model builder ([`LpProblem`]) for
//!   `min cᵀx` subject to `Ax {≤,=,≥} b` and box bounds `l ≤ x ≤ u`:
//!   nonbasic variables sit at either bound, the ratio test handles bound
//!   flips, and Bland's rule kicks in after prolonged degeneracy so the
//!   algorithm terminates. The engine checks every solve for feasibility
//!   against that [`LpProblem`], and the tests cross-check its optima
//!   against this solver;
//! * **the budget**, [`SolveCtx`] ([`budget`]): the cancellation token,
//!   work caps and seeded fault injector the engine polls between pivots.
//!   Every [`IncrementalLp`] holds one, unlimited unless its caller
//!   installs another; the reference simplex takes none;
//! * solutions are always **basic** — exactly the extreme points Lemma 1's
//!   integrality argument needs.
//!
//! # Example
//!
//! ```
//! use wsn_lp::{LpProblem, LpStatus, Relation};
//!
//! // min −3x − 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0.
//! let mut p = LpProblem::new();
//! let x = p.add_var(-3.0, 0.0, f64::INFINITY);
//! let y = p.add_var(-5.0, 0.0, f64::INFINITY);
//! p.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
//! p.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
//! p.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
//!
//! let sol = p.solve().unwrap();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective + 36.0).abs() < 1e-7); // optimum at (2, 6)
//! ```

pub mod budget;
pub mod incremental;
pub mod problem;
pub mod simplex;

pub use budget::{FaultKind, SolveBudget, SolveCtx, FAULT_KINDS};
pub use incremental::{IncrementalLp, RowId};
pub use problem::{LpProblem, Relation, VarId};
pub use simplex::{LpError, LpSolution, LpStatus};
