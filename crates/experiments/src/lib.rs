//! Regenerates every figure of the MRLC evaluation (§VII) plus the
//! motivation and illustration figures (§III, §VI).
//!
//! Each `figN` module exposes a `Config` (with a `fast()` preset used by
//! the integration tests), a `run` function returning structured rows, and
//! a `render` helper that prints the same series the paper plots. The
//! binary `mrlc-experiments` dispatches on figure name:
//!
//! ```text
//! mrlc-experiments all            # every figure, paper-scale parameters
//! mrlc-experiments fig8 --fast    # one figure, reduced workload
//! ```
//!
//! Numbers will not match the paper exactly — the substrate is the
//! calibrated simulator described in DESIGN.md, not the authors' testbed —
//! but every qualitative relationship the paper reports is asserted by the
//! tests in these modules (and recorded in EXPERIMENTS.md).

pub mod ablation;
pub mod bench_check;
pub mod bench_perf;
pub mod ext_drift;
pub mod ext_faults;
pub mod ext_latency;
pub mod ext_optgap;
pub mod ext_pareto;
pub mod ext_resilience;
pub mod ext_scalability;
pub mod ext_solvers;
pub mod ext_spatial;
pub mod ext_stability;
pub mod fig1;
pub mod fig10;
pub mod fig11_13;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod obs_report;
pub mod pins;
pub mod serve_storm;
pub mod table;
pub mod workloads;

pub use table::Table;
