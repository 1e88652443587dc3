//! `serve-open`: an open loop of seeded Poisson arrivals into the solve
//! service.
//!
//! One generator thread (this one) submits each request at its due time,
//! whatever the service is doing, and never spawns a thread per ticket;
//! tickets are collected after the last arrival. Latency is taken from the
//! due time, so a stalled generator charges every request it delayed. Two
//! workers take 180 arrivals/s, about a third of their fresh-solve
//! capacity on the n = 30 pool: at half capacity a slower host stretched
//! queue waits enough to move p90 half again as far as the solves
//! themselves. A third of the arrivals repeat an earlier instance (cache
//! reads), and every fifth carries a deadline (admission).
//!
//! The instances are n = 30, below the size (32) at which separation fans
//! its seeds out across threads. At n = 40, identical runs split into two
//! regimes — fresh p90 of 33–41 ms in some, 59–76 ms in others — as two
//! workers' per-wave fan-outs contend for the two cores; no bound holds
//! across that, while n = 30 repeats within a few percent.

use crate::layers::SolverLayers;
use crate::pool::{self, Fingerprint, PoolSpec, Reference};
use crate::solve::{traced_solve, tree_side_metrics};
use crate::stats::{median, median_of_groups, ms_since, quantile, ratio, Metrics, Tally};
use crate::{layers, probes, Args};
use mrlc_core::{verify_tree, MrlcInstance};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use wsn_model::AggregationTree;
use wsn_service::{ServiceConfig, ServiceOutcome, SolveRequest, SolveService};

/// Arrivals per second.
const RATE_PER_S: f64 = 180.0;
/// Share of arrivals that repeat an earlier instance.
const REPEAT_FRAC: f64 = 1.0 / 3.0;
/// Every k-th arrival carries [`DEADLINE`], which sends it through
/// admission's projected-wait test. The test projects queue depth times an
/// EWMA of completion latency, queue wait included, so after a host stall
/// both factors jump at once: with a 10 s deadline, stopping the process
/// for 1 s shed 8 requests. The deadline is long enough that a stall of a
/// few seconds is admitted rather than shed.
const DEADLINE_EVERY: usize = 5;
const DEADLINE: Duration = Duration::from_secs(600);
/// Worker threads (the benchmark host's core count).
const WORKERS: usize = 2;
/// Admission queue capacity: room for several seconds of arrivals, so a
/// stalled host delays requests (charged to latency from their due time)
/// instead of shedding them.
const QUEUE_CAPACITY: usize = 4096;
/// A run whose generator ran later than this at the median is invalid. A
/// generator that cannot keep up falls behind on most arrivals; a host
/// stall makes late only the arrivals due during it.
const MAX_LATE_P50_MS: f64 = 20.0;
/// A run whose sampled queue depth stayed more than this above the first
/// quarter's median through the whole last quarter of its arrivals is
/// invalid: under a sustained overload the queue never empties, while a
/// backlog left by one stall clears within the quarter.
const MAX_DEPTH_GROWTH: f64 = 2.0;
/// Fresh instances solved in-thread after the traced loop, for the solver
/// layers (service workers trace on the virtual clock).
const PROBE_SOLVES: usize = 64;
/// Solved trees the protocol-side analogues are computed on.
const TREE_SIDE_TREES: usize = 300;
/// Untimed warm-up before each loop.
const WARMUP_S: f64 = 1.0;
/// Warm-up instances: `G(30, 0.7)` from a seed range of their own, so the
/// warm-up can never turn a measured request into a cache hit.
const WARMUP_POOL: PoolSpec = PoolSpec { name: "warmup", base_seed: 39_000, ..pool::N30 };

#[derive(Clone, Copy, Debug)]
struct Arrival {
    due_s: f64,
    member: usize,
    deadline: bool,
}

/// The seeded arrival schedule over `seconds`: a Poisson process
/// conditioned on its count (uniform due times, sorted), exactly a third
/// of them repeats of an instance already sent. Once the pool's fresh
/// members run out, every arrival is a repeat.
fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0be7_10ad);
    let count = ((RATE_PER_S * seconds).round() as usize).max(1);
    let mut dues: Vec<f64> = (0..count).map(|_| rng.random::<f64>() * seconds).collect();
    dues.sort_by(f64::total_cmp);
    let mut is_repeat = vec![false; count];
    let repeats = ((count as f64 * REPEAT_FRAC).round() as usize).min(count - 1);
    for p in pool::permutation(count - 1, &mut rng).into_iter().take(repeats) {
        is_repeat[p + 1] = true;
    }
    let fresh_order = pool::permutation(pool::N30.size, &mut rng);
    let mut sent: Vec<usize> = Vec::new();
    dues.into_iter()
        .enumerate()
        .map(|(i, due_s)| {
            let member = if is_repeat[i] || sent.len() == fresh_order.len() {
                sent[rng.random_range(0..sent.len())]
            } else {
                sent.push(fresh_order[sent.len()]);
                *sent.last().expect("just pushed")
            };
            Arrival { due_s, member, deadline: (i + 1) % DEADLINE_EVERY == 0 }
        })
        .collect()
}

/// A run's generated inputs.
struct Inputs {
    arrivals: Vec<Arrival>,
    instances: BTreeMap<usize, MrlcInstance>,
    reference: Reference,
}

fn inputs(seed: u64, seconds: f64) -> Inputs {
    let arrivals = schedule(seed, seconds);
    let mut instances = BTreeMap::new();
    for a in &arrivals {
        instances.entry(a.member).or_insert_with(|| pool::instance(&pool::N30, a.member));
    }
    Inputs { arrivals, instances, reference: Reference::load(pool::N30.name) }
}

fn start_service(seed: u64) -> SolveService {
    SolveService::start(ServiceConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        seed,
        ..ServiceConfig::default()
    })
}

/// What one open loop observed.
#[derive(Default)]
struct LoopLog {
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    depths: Vec<f64>,
    /// Fresh-request latency from the due time, and service-side, per
    /// quarter of the schedule.
    fresh_ms: [Vec<f64>; 4],
    service_ms: [Vec<f64>; 4],
    cached_ms: Vec<f64>,
    end_s: f64,
    /// First tree the service returned per member.
    trees: BTreeMap<usize, AggregationTree>,
}

/// Sends [`WARMUP_S`] of evenly spaced arrivals at the loop's rate and
/// waits for them: a freshly started fleet serves its first second or two
/// slower than the rest, in some runs and not others.
fn warm_up(service: &SolveService, tally: &mut Tally) {
    let count = (RATE_PER_S * WARMUP_S) as usize;
    let start = Instant::now();
    let tickets: Vec<_> = (0..count)
        .map(|i| {
            let inst = pool::instance(&WARMUP_POOL, i);
            let due = start + Duration::from_secs_f64(i as f64 / RATE_PER_S);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let ticket = service.submit(SolveRequest::new(inst.clone()));
            (inst, ticket)
        })
        .collect();
    for (inst, ticket) in tickets {
        tally.record(match ticket.wait_timeout(Duration::from_secs(60)).map(|c| c.outcome) {
            Some(ServiceOutcome::Solved(out)) if verify_tree(&inst, &out.tree).meets_lc => Ok(()),
            _ => Err("a warm-up request did not solve within LC".to_string()),
        });
    }
}

/// Warms `service` up, runs the schedule against it, and drains it.
fn open_loop(inp: &Inputs, service: SolveService, tally: &mut Tally) -> LoopLog {
    warm_up(&service, tally);
    let mut log = LoopLog::default();
    let mut tickets = Vec::with_capacity(inp.arrivals.len());
    let start = Instant::now();
    for a in &inp.arrivals {
        let mut req = SolveRequest::new(inp.instances[&a.member].clone());
        req.deadline = a.deadline.then_some(DEADLINE);
        let due = start + Duration::from_secs_f64(a.due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        log.depths.push(service.queue_depth() as f64);
        let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        let t = Instant::now();
        let ticket = {
            let _span = wsn_obs::span("bench.submit");
            service.submit(req)
        };
        let submit_ms = ms_since(t);
        log.submit_us.push(submit_ms * 1e3);
        log.late_ms.push(late_ms);
        tickets.push((a, late_ms, submit_ms, ticket));
    }
    let span_s = inp.arrivals.last().map_or(1.0, |a| a.due_s.max(1e-9));
    for (a, late_ms, submit_ms, ticket) in tickets {
        let Some(c) = ticket.wait_timeout(Duration::from_secs(60)) else {
            tally.record(Err(format!("request for member {} timed out", a.member)));
            continue;
        };
        let verdict = match c.outcome {
            ServiceOutcome::Solved(out) => {
                if c.attempts == 0 {
                    log.cached_ms.push(late_ms + submit_ms);
                } else {
                    let q = ((4.0 * a.due_s / span_s) as usize).min(3);
                    log.fresh_ms[q].push(late_ms + c.latency_ms);
                    log.service_ms[q].push(c.latency_ms);
                    log.end_s = log.end_s.max(a.due_s + (late_ms + c.latency_ms) / 1e3);
                }
                let v = verify_tree(&inp.instances[&a.member], &out.tree);
                if !v.is_valid_spanning_tree || !v.meets_lc {
                    Err(format!("member {}: service tree fails verify_tree", a.member))
                } else {
                    let fp = Fingerprint::of(&out.tree, v.reliability, v.lifetime);
                    log.trees.entry(a.member).or_insert(out.tree);
                    inp.reference.check(a.member, &fp)
                }
            }
            other => Err(format!("member {}: request ended {}", a.member, other.kind())),
        };
        tally.record(verdict);
    }
    let report = service.drain();
    if !report.no_leaked_workers() {
        tally.fail("the drained service leaked workers".to_string());
    }
    // Honesty checks: a lagging generator or a growing backlog means the
    // loop did not run at its stated rate, so the run is not reported.
    let late_p50 = median(&log.late_ms).unwrap_or(0.0);
    if late_p50 > MAX_LATE_P50_MS {
        tally.fail(format!("generator lagged: late p50 {late_p50:.1} ms"));
    }
    if backlog_grew(&log.depths) {
        let (first, last) = quarter_medians(&log.depths);
        tally.fail(format!("backlog grew: median depth {first:.2} -> {last:.2}"));
    }
    log
}

/// The first and the last quarter of `samples`.
fn quarters(samples: &[f64]) -> (&[f64], &[f64]) {
    let q = (samples.len() / 4).max(1).min(samples.len());
    (&samples[..q], &samples[samples.len() - q..])
}

/// Median of the first and of the last quarter of `samples`.
pub(crate) fn quarter_medians(samples: &[f64]) -> (f64, f64) {
    let (first, last) = quarters(samples);
    (median(first).unwrap_or(0.0), median(last).unwrap_or(0.0))
}

/// Whether the queue depth stayed above the first quarter's median plus
/// [`MAX_DEPTH_GROWTH`] at every sample of the last quarter.
pub(crate) fn backlog_grew(depths: &[f64]) -> bool {
    let (first, last) = quarters(depths);
    let floor = last.iter().copied().fold(f64::INFINITY, f64::min);
    !last.is_empty() && floor > median(first).unwrap_or(0.0) + MAX_DEPTH_GROWTH
}

/// Runs the workload.
pub fn run(args: &Args, tally: &mut Tally) -> Metrics {
    // Traced runs split the time into an untraced and a traced loop over
    // the same schedule.
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    // Set-up is the inputs alone. With the service's start inside the
    // timed region (and its drain between set-ups), the set-up median
    // read 70 ms in some runs and 100 ms in others, and two sets of ten
    // runs had medians 27% apart; the inputs alone read 70 ms in most.
    let setups = crate::time_setups(|| inputs(args.seed, seconds), drop);
    let inp = inputs(args.seed, seconds);
    let base = open_loop(&inp, start_service(args.seed), tally);

    if !args.trace {
        let mut m = Metrics::default();
        m.set("setup_s", median(&setups).unwrap_or(0.0), "s");
        let fresh: usize = base.fresh_ms.iter().map(Vec::len).sum();
        m.set("solves_per_s", ratio(fresh as f64, base.end_s), "1/s");
        // Medians over the schedule's quarters, like the medians over
        // passes of the closed-loop workloads.
        m.set("solve_p50_ms", median_of_groups(&base.service_ms, 0.5), "ms");
        m.set("solve_p90_ms", median_of_groups(&base.service_ms, 0.9), "ms");
        m.set("fresh_p50_ms", median_of_groups(&base.fresh_ms, 0.5), "ms");
        m.set("fresh_p90_ms", median_of_groups(&base.fresh_ms, 0.9), "ms");
        let solved: Vec<(&MrlcInstance, &AggregationTree)> =
            base.trees.iter().take(TREE_SIDE_TREES).map(|(k, t)| (&inp.instances[k], t)).collect();
        m.extend(tree_side_metrics(&solved));
        return m;
    }

    let obs = layers::collector();
    let traced = {
        let _guard = wsn_obs::install(obs.clone());
        open_loop(&inp, start_service(args.seed), tally)
    };
    let reg = obs.registry();
    let mut m = Metrics::default();
    m.set("svc.submit_us_p50", median(&traced.submit_us).unwrap_or(0.0), "us");
    m.set("svc.submit_samples", traced.submit_us.len() as f64, "count");
    m.set("svc.cached_p50_ms", median(&traced.cached_ms).unwrap_or(0.0), "ms");
    m.set("svc.cached_samples", traced.cached_ms.len() as f64, "count");
    m.set(
        "svc.cache_hit_frac",
        ratio(reg.counter("svc.cache_hits").get() as f64, traced.late_ms.len() as f64),
        "frac",
    );
    m.set("svc.queue_depth_p90", quantile(&traced.depths, 0.9).unwrap_or(0.0), "count");
    m.set("svc.depth_samples", traced.depths.len() as f64, "count");
    let (first, last) = quarter_medians(&traced.depths);
    m.set("svc.depth_first_quarter", first, "count");
    m.set("svc.depth_last_quarter", last, "count");
    m.set("svc.shed", reg.counter("svc.shed").get() as f64, "count");
    m.set("svc.retries", reg.counter("svc.retries").get() as f64, "count");
    m.set("svc.worker_restarts", reg.counter("svc.worker_restarts").get() as f64, "count");
    m.set("loadgen.late_p99_ms", quantile(&traced.late_ms, 0.99).unwrap_or(0.0), "ms");
    m.set("loadgen.samples", traced.late_ms.len() as f64, "count");
    let overhead =
        ratio(median_of_groups(&traced.fresh_ms, 0.5), median_of_groups(&base.fresh_ms, 0.5));
    m.set("obs.trace_overhead_frac", overhead - 1.0, "frac");

    // Solver layers on this workload's own fresh instances, in-thread.
    let mut solver = SolverLayers::default();
    let probe_obs = layers::collector();
    {
        let _guard = wsn_obs::install(probe_obs.clone());
        for (k, inst) in inp.instances.iter().take(PROBE_SOLVES) {
            let res = traced_solve(inst);
            solver.after_solve(&probe_obs, res.as_ref().ok());
            tally.record(res.and_then(|sol| {
                let v = verify_tree(inst, &sol.tree);
                inp.reference.check(*k, &Fingerprint::of(&sol.tree, v.reliability, v.lifetime))
            }));
        }
    }
    solver.absorb(&probe_obs);
    m.extend(solver.metrics());
    if let Some((k, tree)) = traced.trees.iter().next() {
        m.extend(probes::solver_probes(&inp.instances[k]));
        m.extend(probes::tree_probes(tree));
    }
    m
}
