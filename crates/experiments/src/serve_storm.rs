//! `serve-storm` — throughput/latency benchmark of the solve-service
//! fleet under a concurrent request storm.
//!
//! Several client threads fire a seeded mix of requests at a
//! [`wsn_service::SolveService`]: a handful of distinct MRLC instances
//! submitted over and over (exercising the duplicate cache), a fraction
//! carrying tight deadlines (exercising admission shedding), and an
//! optional seeded worker-kill schedule (exercising supervisor recovery).
//! Every ticket must resolve to a typed outcome; the storm reports
//! end-to-end throughput and the latency distribution of the solved
//! requests (p50/p99/max), which `bench-perf` embeds as the `storm` block
//! of `BENCH_ira.json` and `bench-check` gates on.
//!
//! Wall-clock figures vary with the host; the hard invariants are
//! `all_typed` (no request ever hangs or vanishes) and
//! `no_leaked_workers` (the fleet joins every thread it spawned).

use crate::table::{f, Table};
use mrlc_core::MrlcInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use wsn_model::{lifetime, EnergyModel};
use wsn_service::{BlackBox, ChaosConfig, ServiceConfig, SolveRequest, SolveService};
use wsn_testbed::{random_graph, RandomGraphConfig};

/// Storm parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Total submissions across all clients.
    pub requests: usize,
    /// Distinct instances the mix cycles over (the rest are duplicates).
    pub distinct: usize,
    /// Node count per instance.
    pub n: usize,
    /// Random-graph link probability (denser for small `n`).
    pub link_probability: f64,
    /// Fleet worker threads.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Submitting client threads.
    pub clients: usize,
    /// Seed for instance generation and the service's backoff jitter.
    pub seed: u64,
    /// Every k-th request carries this deadline (`None` disables the mix).
    pub deadline_every: usize,
    /// The deadline those requests carry.
    pub deadline: Duration,
    /// Seeded chaos: panic every k-th dequeue fleet-wide.
    pub kill_every: Option<u64>,
}

impl Default for Config {
    /// The full rung: a 1000-request storm at n = 80.
    fn default() -> Self {
        Config {
            requests: 1000,
            distinct: 20,
            n: 80,
            link_probability: 0.3,
            workers: 4,
            queue_capacity: 1024,
            clients: 4,
            seed: 0x5702,
            deadline_every: 5,
            deadline: Duration::from_millis(2000),
            kill_every: None,
        }
    }
}

impl Config {
    /// CI-speed preset: fewer, smaller instances, same request shape.
    pub fn fast() -> Self {
        Config { requests: 150, distinct: 8, n: 40, link_probability: 0.5, ..Config::default() }
    }

    /// The chaos preset the CI `service-chaos-smoke` job drives: a
    /// seeded worker-kill schedule over full-size (n = 80) instances,
    /// with the request count trimmed to CI speed.
    pub fn chaos() -> Self {
        Config { kill_every: Some(11), requests: 150, distinct: 8, ..Config::default() }
    }
}

/// What the storm measured.
#[derive(Clone, Debug)]
pub struct StormStats {
    /// Requests submitted.
    pub requests: usize,
    /// Outcome tallies (these five partition `requests` when `all_typed`).
    pub solved: usize,
    pub shed: usize,
    pub quarantined: usize,
    pub parked: usize,
    pub infeasible: usize,
    /// Solved requests resolved at admission from the duplicate cache
    /// (`attempts == 0`); the remainder of `solved` ran on a worker.
    pub cached: usize,
    /// Fleet counters after the drain.
    pub cache_hits: u64,
    pub worker_restarts: u64,
    /// End-to-end storm wall time (first submit to last completion).
    pub wall_ms: f64,
    /// Completed requests per second of storm wall time.
    pub throughput_rps: f64,
    /// Latency distribution over the *fresh-solved* requests only — cache
    /// hits resolve in ~0 ms and would otherwise flatten p50 to zero.
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    /// Median latency of the cache-hit completions (≈0; kept separate so
    /// the fresh-solve quantiles above stay meaningful).
    pub cached_p50_ms: f64,
    /// Every submission resolved to a typed outcome (nothing hung).
    pub all_typed: bool,
    /// The drained fleet joined every worker it ever spawned.
    pub no_leaked_workers: bool,
    /// Black-box dumps the fleet cut at incidents (worker crashes under
    /// the chaos kill schedule, shed storms, ...).
    pub black_boxes: Vec<BlackBox>,
}

/// Builds the `distinct` seeded instances the mix cycles over.
fn instances(cfg: &Config) -> Vec<MrlcInstance> {
    let model = EnergyModel::PAPER;
    let lc = lifetime::node_lifetime(3000.0, &model, 4) * 0.99;
    (0..cfg.distinct)
        .map(|i| {
            let gcfg = RandomGraphConfig {
                n: cfg.n,
                link_probability: cfg.link_probability,
                ..RandomGraphConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(i as u64));
            let net = random_graph(&gcfg, &mut rng).expect("connected storm instance");
            MrlcInstance::new(net, model, lc).expect("valid storm instance")
        })
        .collect()
}

/// Runs the storm and drains the fleet.
pub fn run(cfg: &Config) -> StormStats {
    let insts = instances(cfg);
    // The fleet publishes its counters to the collector installed on the
    // thread that starts it; a private one keeps the storm's tallies
    // (cache hits, restarts) separate from any ambient figure metrics.
    let obs = wsn_obs::Obs::detached();
    let _ambient = wsn_obs::install(obs.clone());
    let service = SolveService::start(ServiceConfig {
        workers: cfg.workers,
        queue_capacity: cfg.queue_capacity,
        seed: cfg.seed,
        chaos: ChaosConfig { kill_every: cfg.kill_every, ..ChaosConfig::default() },
        ..ServiceConfig::default()
    });

    let start = Instant::now();
    let per_client = cfg.requests.div_ceil(cfg.clients.max(1));
    let completions = crossbeam::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients.max(1))
            .map(|c| {
                let service = &service;
                let insts = &insts;
                s.spawn(move |_| {
                    let mut done = Vec::new();
                    let first = c * per_client;
                    for j in first..(first + per_client).min(cfg.requests) {
                        let mut req = SolveRequest::new(insts[j % insts.len()].clone());
                        if cfg.deadline_every > 0 && j % cfg.deadline_every == 0 {
                            req.deadline = Some(cfg.deadline);
                        }
                        let ticket = service.submit(req);
                        // Generous bound: a hang here is the bug the storm
                        // exists to catch, not a tolerable slow solve.
                        done.push(ticket.wait_timeout(Duration::from_secs(300)));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    })
    .expect("storm clients never panic");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let report = service.drain();
    let reg = obs.registry();
    let all_typed = completions.iter().all(Option::is_some);
    // A cache hit resolves at admission with `attempts == 0`; a fresh
    // solve ran on a worker (attempts >= 1). Quantiles over the combined
    // population flatten p50 to ~0 the moment hits dominate, so the two
    // latency populations are kept apart.
    let mut fresh_latencies: Vec<f64> = Vec::new();
    let mut cached_latencies: Vec<f64> = Vec::new();
    let (mut solved, mut shed, mut quarantined, mut parked, mut infeasible) = (0, 0, 0, 0, 0);
    for c in completions.iter().flatten() {
        match &c.outcome {
            wsn_service::ServiceOutcome::Solved(_) => {
                solved += 1;
                if c.attempts == 0 {
                    cached_latencies.push(c.latency_ms);
                } else {
                    fresh_latencies.push(c.latency_ms);
                }
            }
            wsn_service::ServiceOutcome::Shed(_) => shed += 1,
            wsn_service::ServiceOutcome::Quarantined { .. } => quarantined += 1,
            wsn_service::ServiceOutcome::Parked => parked += 1,
            wsn_service::ServiceOutcome::Infeasible { .. } => infeasible += 1,
        }
    }
    fresh_latencies.sort_by(|a, b| a.total_cmp(b));
    cached_latencies.sort_by(|a, b| a.total_cmp(b));
    let quantile = |lat: &[f64], q: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        lat[((lat.len() - 1) as f64 * q).round() as usize]
    };

    StormStats {
        requests: cfg.requests,
        solved,
        shed,
        quarantined,
        parked,
        infeasible,
        cached: cached_latencies.len(),
        cache_hits: reg.counter("svc.cache_hits").get(),
        worker_restarts: reg.counter("svc.worker_restarts").get(),
        wall_ms,
        throughput_rps: cfg.requests as f64 / (wall_ms / 1e3).max(1e-9),
        p50_ms: quantile(&fresh_latencies, 0.50),
        p99_ms: quantile(&fresh_latencies, 0.99),
        max_ms: fresh_latencies.last().copied().unwrap_or(0.0),
        cached_p50_ms: quantile(&cached_latencies, 0.50),
        all_typed,
        no_leaked_workers: report.no_leaked_workers(),
        black_boxes: report.black_boxes,
    }
}

/// Serializes the stats as the `storm` block of `BENCH_ira.json`.
pub fn to_json(s: &StormStats) -> String {
    format!(
        "{{\"requests\": {}, \"solved\": {}, \"shed\": {}, \"quarantined\": {}, \
         \"parked\": {}, \"infeasible\": {}, \"cached\": {}, \"cache_hits\": {}, \
         \"worker_restarts\": {}, \"wall_ms\": {:.3}, \"throughput_rps\": {:.2}, \
         \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_ms\": {:.3}, \"cached_p50_ms\": {:.3}, \
         \"black_boxes\": {}, \"all_typed\": {}, \"no_leaked_workers\": {}}}",
        s.requests,
        s.solved,
        s.shed,
        s.quarantined,
        s.parked,
        s.infeasible,
        s.cached,
        s.cache_hits,
        s.worker_restarts,
        s.wall_ms,
        s.throughput_rps,
        s.p50_ms,
        s.p99_ms,
        s.max_ms,
        s.cached_p50_ms,
        s.black_boxes.len(),
        s.all_typed,
        s.no_leaked_workers
    )
}

/// Renders the human-readable storm report.
pub fn render(s: &StormStats) -> String {
    let mut t = Table::new(["metric", "value"]);
    t.push(["requests".into(), s.requests.to_string()]);
    t.push(["solved".into(), s.solved.to_string()]);
    t.push(["shed".into(), s.shed.to_string()]);
    t.push(["quarantined".into(), s.quarantined.to_string()]);
    t.push(["parked".into(), s.parked.to_string()]);
    t.push(["infeasible".into(), s.infeasible.to_string()]);
    t.push(["cached (admission)".into(), s.cached.to_string()]);
    t.push(["cache hits".into(), s.cache_hits.to_string()]);
    t.push(["worker restarts".into(), s.worker_restarts.to_string()]);
    t.push(["black boxes".into(), s.black_boxes.len().to_string()]);
    t.push(["wall (ms)".into(), f(s.wall_ms, 1)]);
    t.push(["throughput (req/s)".into(), f(s.throughput_rps, 1)]);
    t.push(["p50 fresh-solve latency (ms)".into(), f(s.p50_ms, 1)]);
    t.push(["p99 fresh-solve latency (ms)".into(), f(s.p99_ms, 1)]);
    t.push(["max fresh-solve latency (ms)".into(), f(s.max_ms, 1)]);
    t.push(["p50 cached latency (ms)".into(), f(s.cached_p50_ms, 1)]);
    let yesno = |b: bool| if b { "yes".to_string() } else { "NO".to_string() };
    t.push(["all typed".into(), yesno(s.all_typed)]);
    t.push(["no leaked workers".into(), yesno(s.no_leaked_workers)]);
    format!("serve-storm — solve-service fleet under concurrent load\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_storm_resolves_every_request() {
        let cfg = Config { requests: 40, distinct: 4, n: 16, ..Config::fast() };
        let stats = run(&cfg);
        assert!(stats.all_typed, "every submission must resolve to a typed outcome");
        assert!(stats.no_leaked_workers);
        assert_eq!(
            stats.solved + stats.shed + stats.quarantined + stats.parked + stats.infeasible,
            stats.requests,
            "outcome kinds partition the storm"
        );
        assert!(stats.solved > 0, "an un-chaosed storm solves most requests");
        assert!(stats.cached <= stats.solved, "cache hits are a subset of solved");
        assert!(stats.p99_ms >= stats.p50_ms);
        assert!(stats.max_ms >= stats.p99_ms);
        assert!(stats.p50_ms > 0.0, "fresh-solve p50 excludes the ~0 ms cache hits");
        assert!(stats.throughput_rps > 0.0);
        let json = to_json(&stats);
        assert!(json.contains("\"throughput_rps\""), "{json}");
        assert!(json.contains("\"cached_p50_ms\""), "{json}");
        assert!(json.contains("\"black_boxes\""), "{json}");
        assert!(json.contains("\"all_typed\": true"), "{json}");
        let table = render(&stats);
        assert!(table.contains("p99 fresh-solve latency"), "{table}");
        assert!(table.contains("p50 cached latency"), "{table}");
    }

    #[test]
    fn chaos_storm_still_types_every_outcome() {
        // Cache hits never reach a worker, but each distinct instance's
        // first submission does: with `distinct >= kill_every` the kill
        // fires whatever the client interleaving.
        let cfg =
            Config { requests: 30, distinct: 5, n: 16, kill_every: Some(5), ..Config::fast() };
        let stats = run(&cfg);
        assert!(stats.all_typed);
        assert!(stats.no_leaked_workers);
        assert_eq!(
            stats.solved + stats.shed + stats.quarantined + stats.parked + stats.infeasible,
            stats.requests
        );
        assert!(
            stats.black_boxes.iter().any(|b| b.reason == "worker-crash"),
            "a seeded kill schedule must leave at least one black box"
        );
        for b in &stats.black_boxes {
            assert!(b.jsonl.starts_with("{\"type\":\"blackbox_header\""), "{}", b.jsonl);
        }
    }
}
