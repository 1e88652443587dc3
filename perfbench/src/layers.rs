//! Per-layer numbers from traced passes.
//!
//! A traced pass installs a wall-clock [`wsn_obs::Obs`] trace collector on
//! the benchmark thread. The program's own spans (`lp-solve`,
//! `lp-dual-repair`, `lp-primal`, `lp-verify`, `separation`, `decode`,
//! `protocol-round`, ...) and registry counters are read back; the only
//! spans added are the benchmark's own `bench.*` spans around its calls
//! into each layer. Service worker traces run on the virtual clock and are
//! never read here.

use crate::stats::{histogram_quantile, ratio, Metrics};
use mrlc_core::IraSolution;
use std::collections::BTreeMap;
use std::sync::Arc;
use wsn_obs::{Clock, Obs};

/// The benchmark's span around one solver call; its total is the wall base
/// of every solver share.
pub const SOLVE_SPAN: &str = "bench.solve";

/// A wall-clock trace collector for one traced pass.
pub fn collector() -> Arc<Obs> {
    Obs::with_trace(Clock::wall())
}

/// Solver-layer aggregates over every traced pass of a run.
#[derive(Debug, Default)]
pub struct SolverLayers {
    /// Total nanoseconds per span name (summed over every path ending in it).
    span_ns: BTreeMap<String, u64>,
    /// Closed `bench.solve` spans.
    solves: u64,
    counters: BTreeMap<String, u64>,
    round_bounds: Vec<u64>,
    round_counts: Vec<u64>,
    /// Final tableau rows and average row nonzeros, summed per solve.
    rows_sum: f64,
    nnz_sum: f64,
    gauge_samples: u64,
    iterations: u64,
    guard_removals: u64,
    passes: u64,
}

impl SolverLayers {
    /// Reads the tableau gauges after one traced solve and keeps the IRA
    /// statistics the registry does not carry.
    pub fn after_solve(&mut self, obs: &Obs, sol: Option<&IraSolution>) {
        let reg = obs.registry();
        self.rows_sum += reg.gauge("lp.tableau_rows").get() as f64;
        self.nnz_sum += reg.gauge("lp.tableau_row_nnz_x100").get() as f64 / 100.0;
        self.gauge_samples += 1;
        if let Some(sol) = sol {
            self.iterations += sol.stats.iterations as u64;
            self.guard_removals += sol.stats.guard_removals as u64;
        }
    }

    /// Folds one finished traced pass into the aggregate.
    pub fn absorb(&mut self, obs: &Obs) {
        self.passes += 1;
        let profile = wsn_obs::profile_trace(&obs.trace_jsonl()).expect("own trace parses");
        assert_eq!(profile.clock, "wall", "per-layer times come from the wall clock only");
        for path in &profile.paths {
            let name = path.path.last().expect("non-empty path");
            // A name nested under itself is counted once, at the outermost.
            if path.path[..path.path.len() - 1].contains(name) {
                continue;
            }
            *self.span_ns.entry(name.clone()).or_default() += path.total;
            if name == SOLVE_SPAN {
                self.solves += path.count;
            }
        }
        let reg = obs.registry();
        for (name, value) in reg.counter_snapshot() {
            *self.counters.entry(name).or_default() += value;
        }
        let hist = reg.histogram("ira.round_lp_us", &[1]);
        if self.round_bounds.is_empty() {
            self.round_bounds = hist.bounds().to_vec();
            self.round_counts = vec![0; hist.bucket_counts().len()];
        }
        for (acc, c) in self.round_counts.iter_mut().zip(hist.bucket_counts()) {
            *acc += c;
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn span_ms(&self, name: &str) -> f64 {
        self.span_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Registry counter `name`, averaged over the traced passes.
    pub fn per_pass(&self, name: &str) -> f64 {
        ratio(self.counter(name), self.passes as f64)
    }

    /// The LP, separation, cutting-plane and IRA metrics, per traced solve.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let solves = self.solves as f64;
        let per = |x: f64| ratio(x, solves);
        let lp_ms = self.counter("ira.lp_ns") / 1e6;
        let sep_ms = self.counter("ira.sep_ns") / 1e6;
        let pivots = self.counter("ira.pivots");
        let wall_ms = self.span_ms(SOLVE_SPAN);
        let seeds = self.counter("sep.min_cut_seeds");
        let pruned = self.counter("sep.seeds_pruned");
        let violated = self.counter("sep.violated_sets");
        let pool_hits = self.counter("sep.pool_hits");
        let round_samples: u64 = self.round_counts.iter().sum();

        m.set("ira.solves", solves, "count");
        m.set("lp.ms", per(lp_ms), "ms");
        m.set("lp.pivots", per(pivots), "count");
        m.set("lp.us_per_pivot", ratio(lp_ms * 1e3, pivots), "us");
        m.set("lp.dual_repair_ms", per(self.span_ms("lp-dual-repair")), "ms");
        m.set("lp.primal_ms", per(self.span_ms("lp-primal")), "ms");
        m.set("lp.verify_ms", per(self.span_ms("lp-verify")), "ms");
        let p90_us = histogram_quantile(&self.round_bounds, &self.round_counts, 0.9).unwrap_or(0);
        m.set("lp.round_ms_p90", p90_us as f64 / 1e3, "ms");
        m.set("lp.round_samples", round_samples as f64, "count");
        m.set("lp.tableau_rows", ratio(self.rows_sum, self.gauge_samples as f64), "count");
        m.set("lp.row_nnz", ratio(self.nnz_sum, self.gauge_samples as f64), "count");
        m.set("lp.cold_fallbacks", self.counter("lp.cold_fallbacks"), "count");
        m.set("lp.sentinel_trips", self.counter("lp.sentinel.trips"), "count");
        m.set(
            "lp.warm_frac",
            ratio(self.counter("lp.warm_solves"), self.counter("lp.solves")),
            "frac",
        );

        m.set("sep.ms", per(sep_ms), "ms");
        m.set("sep.maxflow_ms", per(self.counter("sep.maxflow_ns") / 1e6), "ms");
        m.set("sep.min_cut_seeds", per(seeds), "count");
        m.set("sep.seeds_pruned", per(pruned), "count");
        m.set("sep.prune_frac", ratio(pruned, pruned + seeds), "frac");
        m.set("sep.us_per_seed", ratio(self.counter("sep.maxflow_ns") / 1e3, seeds), "us");
        m.set("sep.violated_sets", per(violated), "count");
        m.set("sep.pool_hits", per(pool_hits), "count");
        m.set("sep.pool_scans", per(self.counter("sep.pool_scans")), "count");
        m.set("sep.cut_yield", ratio(self.counter("ira.cuts_added"), violated + pool_hits), "frac");

        m.set("cut.rounds", per(self.counter("ira.cut_rounds")), "count");
        m.set("cut.cuts_added", per(self.counter("ira.cuts_added")), "count");
        m.set("cut.cuts_batched", per(self.counter("sep.cuts_batched")), "count");
        m.set("ira.iterations", per(self.iterations as f64), "count");
        m.set("ira.lp_solves", per(self.counter("ira.lp_solves")), "count");
        m.set("ira.guard_removals", self.guard_removals as f64, "count");
        let decode_ms = self.counter("ira.decode_ns") / 1e6;
        m.set("ira.decode_ms", per(decode_ms), "ms");
        m.set(
            "ira.unattributed_frac",
            1.0 - ratio(
                self.span_ms("lp-solve") + self.span_ms("separation") + self.span_ms("decode"),
                wall_ms,
            ),
            "frac",
        );
        m.set("layer.wall_ms", per(wall_ms), "ms");
        m.set("layer.lp_share", ratio(self.span_ms("lp-solve"), wall_ms), "frac");
        m.set("layer.sep_share", ratio(self.span_ms("separation"), wall_ms), "frac");
        m
    }
}

/// Every per-layer metric name, so a workload that lacks a layer still
/// reports it (as 0) and every run prints the same set.
pub const ALL: &[(&str, &str)] = &[
    ("ira.solves", "count"),
    ("lp.ms", "ms"),
    ("lp.pivots", "count"),
    ("lp.us_per_pivot", "us"),
    ("lp.dual_repair_ms", "ms"),
    ("lp.primal_ms", "ms"),
    ("lp.verify_ms", "ms"),
    ("lp.round_ms_p90", "ms"),
    ("lp.round_samples", "count"),
    ("lp.tableau_rows", "count"),
    ("lp.row_nnz", "count"),
    ("lp.cold_fallbacks", "count"),
    ("lp.sentinel_trips", "count"),
    ("lp.warm_frac", "frac"),
    ("sep.ms", "ms"),
    ("sep.maxflow_ms", "ms"),
    ("sep.min_cut_seeds", "count"),
    ("sep.seeds_pruned", "count"),
    ("sep.prune_frac", "frac"),
    ("sep.us_per_seed", "us"),
    ("sep.violated_sets", "count"),
    ("sep.pool_hits", "count"),
    ("sep.pool_scans", "count"),
    ("sep.cut_yield", "frac"),
    ("sep.sweep_us_per_seed", "us"),
    ("sep.sweep_n", "count"),
    ("maxflow.us_per_call", "us"),
    ("maxflow.calls", "count"),
    ("cut.rounds", "count"),
    ("cut.cuts_added", "count"),
    ("cut.cuts_batched", "count"),
    ("ira.iterations", "count"),
    ("ira.lp_solves", "count"),
    ("ira.guard_removals", "count"),
    ("ira.decode_ms", "ms"),
    ("ira.unattributed_frac", "frac"),
    ("layer.wall_ms", "ms"),
    ("layer.lp_share", "frac"),
    ("layer.sep_share", "frac"),
    ("svc.submit_us_p50", "us"),
    ("svc.submit_samples", "count"),
    ("svc.cached_p50_ms", "ms"),
    ("svc.cached_samples", "count"),
    ("svc.cache_hit_frac", "frac"),
    ("svc.queue_depth_p90", "count"),
    ("svc.depth_samples", "count"),
    ("svc.depth_first_quarter", "count"),
    ("svc.depth_last_quarter", "count"),
    ("svc.shed", "count"),
    ("svc.retries", "count"),
    ("svc.worker_restarts", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.samples", "count"),
    ("prufer.decode_us", "us"),
    ("prufer.change_parent_us", "us"),
    ("proto.codec_ns", "ns"),
    ("proto.announce_us", "us"),
    ("proto.announce_n", "count"),
    ("proto.update_us_p50", "us"),
    ("proto.updates", "count"),
    ("proto.frames_per_update", "count"),
    ("proto.retransmissions", "count"),
    ("proto.failed_hops", "count"),
    ("proto.reissues", "count"),
    ("obs.trace_overhead_frac", "frac"),
];

/// `m` completed to the full per-layer set, in [`ALL`] order; names a
/// workload did not measure read 0.
pub fn complete(m: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in ALL {
        out.set(name, m.get(name).unwrap_or(0.0), unit);
    }
    out
}
