//! Chaos suite for the supervised solve fleet.
//!
//! Acceptance bar: under seeded worker kills, slow-worker stalls, poison
//! pills, duplicate submissions and a request storm, every submission
//! resolves to a typed [`ServiceOutcome`], no worker thread leaks
//! (`workers_spawned == workers_joined` after drain), drain hands back
//! resumable checkpoints, and with injectors off the service returns
//! trees identical to direct `solve_resilient` calls.

use std::time::Duration;

use mrlc_core::{solve_resilient, MrlcInstance, ResilienceConfig, SolveTier};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wsn_lp::SolveBudget;
use wsn_model::{lifetime, EnergyModel};
use wsn_obs::TimeSource;
use wsn_service::{
    instance_hash, ChaosConfig, ServiceConfig, ServiceOutcome, ShedReason, SolveRequest,
    SolveService,
};
use wsn_testbed::{random_graph, RandomGraphConfig};

fn instance(seed: u64, n: usize) -> MrlcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = random_graph(
        &RandomGraphConfig { n, link_probability: 0.5, ..RandomGraphConfig::default() },
        &mut rng,
    )
    .expect("connected instance");
    let model = EnergyModel::PAPER;
    let lc = lifetime::node_lifetime(3000.0, &model, 3) * 0.999;
    MrlcInstance::new(net, model, lc).unwrap()
}

/// Waits generously; a `None` here means the fleet hung, which is itself
/// a suite failure.
fn wait(ticket: &wsn_service::Ticket) -> wsn_service::Completion {
    ticket.wait_timeout(Duration::from_secs(120)).expect("fleet hung: ticket never resolved")
}

#[test]
fn injectors_off_matches_direct_solve_resilient() {
    let svc = SolveService::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let seeds = [31u64, 32, 33, 34];
    let tickets: Vec<_> =
        seeds.iter().map(|&s| svc.submit(SolveRequest::new(instance(s, 24)))).collect();
    for (&seed, ticket) in seeds.iter().zip(&tickets) {
        let inst = instance(seed, 24);
        let completion = wait(ticket);
        let out = match completion.outcome {
            ServiceOutcome::Solved(out) => out,
            other => panic!("seed {seed}: expected a solve, got {other:?}"),
        };
        let direct =
            solve_resilient(&inst, &ResilienceConfig::default(), SolveBudget::unlimited()).unwrap();
        assert_eq!(out.tier, direct.tier, "seed {seed}");
        let a: Vec<_> = out.tree.edges().collect();
        let b: Vec<_> = direct.tree.edges().collect();
        assert_eq!(a, b, "seed {seed}: service tree differs from direct solve");
    }
    let report = svc.drain();
    assert!(report.no_leaked_workers(), "{report:?}");
    assert!(report.parked.is_empty());
}

#[test]
fn duplicate_submissions_are_served_from_the_cache() {
    let obs = wsn_obs::Obs::detached();
    let _g = wsn_obs::install(obs.clone());
    let svc = SolveService::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let inst = instance(77, 24);
    let first = wait(&svc.submit(SolveRequest::new(inst.clone())));
    let first_tree: Vec<_> = match &first.outcome {
        ServiceOutcome::Solved(out) => out.tree.edges().collect(),
        other => panic!("expected a solve, got {other:?}"),
    };
    for _ in 0..10 {
        let dup = wait(&svc.submit(SolveRequest::new(inst.clone())));
        match dup.outcome {
            ServiceOutcome::Solved(out) => {
                let t: Vec<_> = out.tree.edges().collect();
                assert_eq!(t, first_tree, "cache must return the identical tree");
            }
            other => panic!("duplicate got {other:?}"),
        }
    }
    let reg = obs.registry();
    assert_eq!(reg.counter("svc.cache_hits").get(), 10);
    assert_eq!(reg.counter("svc.accepted").get(), 11);
    assert_eq!(reg.counter("svc.completed").get(), 1, "one real solve serves all duplicates");
    assert_eq!(reg.histogram("svc.latency_solved_ms", &[]).count(), 1);
    assert_eq!(reg.histogram("svc.latency_cached_ms", &[]).count(), 10);
    let report = svc.drain();
    assert!(report.no_leaked_workers());
}

#[test]
fn seeded_worker_kills_are_recovered_by_the_supervisor() {
    let obs = wsn_obs::Obs::detached();
    let _g = wsn_obs::install(obs.clone());
    let svc = SolveService::start(ServiceConfig {
        workers: 2,
        cache: false,
        chaos: ChaosConfig { kill_every: Some(3), ..ChaosConfig::default() },
        ..ServiceConfig::default()
    });
    let tickets: Vec<_> =
        (0..9).map(|i| svc.submit(SolveRequest::new(instance(100 + i, 24)))).collect();
    for ticket in &tickets {
        let completion = wait(ticket);
        match completion.outcome {
            ServiceOutcome::Solved(out) => {
                assert!(out.gap.is_finite() && out.gap >= 0.0);
            }
            // A job unlucky enough to be held by several killed workers
            // trips the breaker — typed, and exactly the design.
            ServiceOutcome::Quarantined { ref why } => {
                assert!(why.contains("worker crashed"), "{why}");
            }
            ref other => panic!("expected solved/quarantined, got {other:?}"),
        }
    }
    let restarts = obs.registry().counter("svc.worker_restarts").get();
    assert!(restarts >= 2, "kill_every=3 over 9+ dequeues must restart workers, saw {restarts}");
    let report = svc.drain();
    assert!(report.no_leaked_workers(), "{report:?}");
}

#[test]
fn poison_pill_quarantines_and_is_never_retried_hot() {
    let obs = wsn_obs::Obs::detached();
    let _g = wsn_obs::install(obs.clone());
    let inst = instance(55, 24);
    let hash = instance_hash(&inst);
    let svc = SolveService::start(ServiceConfig {
        workers: 2,
        quarantine_after: 3,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(10),
        chaos: ChaosConfig { panic_hashes: vec![hash], ..ChaosConfig::default() },
        ..ServiceConfig::default()
    });
    let poisoned = wait(&svc.submit(SolveRequest::new(inst.clone())));
    match poisoned.outcome {
        ServiceOutcome::Quarantined { ref why } => assert!(why.contains("poisoned"), "{why}"),
        ref other => panic!("expected quarantine, got {other:?}"),
    }
    let reg = obs.registry();
    assert_eq!(reg.counter("svc.retries").get(), 2, "two retries before the third strike");
    assert_eq!(reg.counter("svc.quarantined").get(), 1);

    // Resubmission must resolve instantly from the breaker, not re-solve.
    let hot = wait(&svc.submit(SolveRequest::new(inst.clone())));
    assert!(matches!(hot.outcome, ServiceOutcome::Quarantined { .. }));
    assert_eq!(reg.counter("svc.quarantine_hits").get(), 1);
    assert_eq!(reg.counter("svc.panics").get(), 3, "no further solve attempts after the breaker");

    // A healthy tenant is unaffected by the poisoned one.
    let healthy = wait(&svc.submit(SolveRequest::new(instance(56, 24))));
    assert!(healthy.outcome.is_solved(), "{:?}", healthy.outcome);
    let report = svc.drain();
    assert!(report.no_leaked_workers());
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].0, hash);
    assert_eq!(report.quarantined[0].1.failures, 3);
}

#[test]
fn manual_clock_schedules_retries_without_real_sleeping() {
    let mc = wsn_obs::ManualClock::new();
    let inst = instance(60, 24);
    let hash = instance_hash(&inst);
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        quarantine_after: 2,
        backoff_base: Duration::from_millis(50),
        backoff_cap: Duration::from_millis(200),
        clock: TimeSource::manual(mc.clone()),
        chaos: ChaosConfig { panic_hashes: vec![hash], ..ChaosConfig::default() },
        ..ServiceConfig::default()
    });
    let ticket = svc.submit(SolveRequest::new(inst));
    // Attempt 1 panics immediately; the retry is scheduled at
    // manual-now + backoff, and manual time does not pass on its own —
    // the request must still be pending.
    assert!(
        ticket.wait_timeout(Duration::from_millis(200)).is_none(),
        "retry ran before its backoff elapsed on the manual clock"
    );
    // One virtual second covers the jittered backoff; the retry then
    // panics again and the breaker opens. No real time was slept.
    mc.advance(Duration::from_secs(1));
    let completion = wait(&ticket);
    assert!(matches!(completion.outcome, ServiceOutcome::Quarantined { .. }));
    assert_eq!(completion.attempts, 2);
    let report = svc.drain();
    assert!(report.no_leaked_workers());
}

#[test]
fn queue_wait_does_not_inflate_the_projected_wait() {
    // One worker on a manual clock, stalled 300 ms of real time on every
    // dequeue. A hopeless instance (LC beyond any node's reach) holds the
    // worker while B queues behind it and ten virtual seconds pass; A
    // resolves Infeasible, which teaches the wait estimate nothing. B then
    // solves in no virtual time: it waited long but solved fast, so the
    // estimate must stay near zero, and a deadline request behind one
    // in-flight job is admitted rather than shed as ProjectedWait.
    let mc = wsn_obs::ManualClock::new();
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        initial_ewma_ms: 0.0,
        clock: TimeSource::manual(mc.clone()),
        chaos: ChaosConfig {
            stall: Some((1, Duration::from_millis(300))),
            ..ChaosConfig::default()
        },
        ..ServiceConfig::default()
    });
    let base = instance(90, 16);
    let lc = 3000.0 / EnergyModel::PAPER.tx * 2.0;
    let hopeless = MrlcInstance::new(base.network().clone(), *base.model(), lc).unwrap();
    let a = svc.submit(SolveRequest::new(hopeless));
    let b = svc.submit(SolveRequest::new(instance(91, 16)));
    mc.advance(Duration::from_secs(10));
    assert!(matches!(wait(&a).outcome, ServiceOutcome::Infeasible { .. }));
    let done = wait(&b);
    assert!(done.outcome.is_solved());
    assert!(done.latency_ms >= 10_000.0, "latency keeps the queue wait: {}", done.latency_ms);
    // D occupies the worker (its stall): depth 1 when C arrives.
    let d = svc.submit(SolveRequest::new(instance(92, 16)));
    std::thread::sleep(Duration::from_millis(50));
    // A 1 s deadline behind one job: projected 1 × EWMA(solve time).
    let c = svc.submit(SolveRequest {
        instance: instance(93, 16),
        budget: SolveBudget::unlimited(),
        deadline: Some(Duration::from_secs(1)),
    });
    match wait(&c).outcome {
        ServiceOutcome::Solved(_) => {}
        other => panic!("queue wait leaked into the solve-time estimate: {other:?}"),
    }
    assert!(wait(&d).outcome.is_solved());
    let report = svc.drain();
    assert!(report.no_leaked_workers());
}

#[test]
fn backpressure_sheds_with_typed_reasons() {
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        initial_ewma_ms: 0.0,
        chaos: ChaosConfig {
            stall: Some((1, Duration::from_millis(300))),
            ..ChaosConfig::default()
        },
        ..ServiceConfig::default()
    });
    // First request occupies the (stalled) worker...
    let t1 = svc.submit(SolveRequest::new(instance(70, 24)));
    std::thread::sleep(Duration::from_millis(50));
    // ...second fills the single queue slot, third finds it full.
    let t2 = svc.submit(SolveRequest {
        instance: instance(71, 24),
        budget: SolveBudget::unlimited(),
        deadline: Some(Duration::from_millis(10)),
    });
    let t3 = svc.submit(SolveRequest::new(instance(72, 24)));
    let c3 = wait(&t3);
    match c3.outcome {
        ServiceOutcome::Shed(ShedReason::QueueFull) => {}
        other => panic!("expected QueueFull shed, got {other:?}"),
    }
    // #2 sat behind a 300ms stall with a 10ms deadline: shed at dequeue.
    let c2 = wait(&t2);
    match c2.outcome {
        ServiceOutcome::Shed(ShedReason::ExpiredInQueue) => {}
        other => panic!("expected ExpiredInQueue shed, got {other:?}"),
    }
    assert!(wait(&t1).outcome.is_solved());
    let report = svc.drain();
    assert!(report.no_leaked_workers());
}

#[test]
fn projected_wait_shedding_consults_the_deadline() {
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        initial_ewma_ms: 10_000.0,
        chaos: ChaosConfig {
            stall: Some((1, Duration::from_millis(200))),
            ..ChaosConfig::default()
        },
        ..ServiceConfig::default()
    });
    // Depth 0: even a deadline under the 10s EWMA prior is admitted. It is
    // long enough that #1 cannot expire in the queue before a late worker
    // wakes.
    let t1 = svc.submit(SolveRequest {
        instance: instance(80, 24),
        budget: SolveBudget::unlimited(),
        deadline: Some(Duration::from_secs(5)),
    });
    // Let the worker pull #1 into its stall: it now counts as in-flight.
    while svc.queue_depth() != 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(50));
    // Depth ≥ 1 with a 10s EWMA prior: a 50ms deadline is hopeless and
    // must be rejected at admission, not queued to die.
    let t2 = svc.submit(SolveRequest {
        instance: instance(81, 24),
        budget: SolveBudget::unlimited(),
        deadline: Some(Duration::from_millis(50)),
    });
    let c2 = wait(&t2);
    match c2.outcome {
        ServiceOutcome::Shed(ShedReason::ProjectedWait { projected_ms, deadline_ms }) => {
            assert!(projected_ms > deadline_ms, "{projected_ms} vs {deadline_ms}");
        }
        other => panic!("expected ProjectedWait shed, got {other:?}"),
    }
    // An undeadlined request is still welcome at any depth.
    let t3 = svc.submit(SolveRequest::new(instance(82, 24)));
    assert!(wait(&t1).outcome.is_solved());
    assert!(wait(&t3).outcome.is_solved());
    let report = svc.drain();
    assert!(report.no_leaked_workers());
}

#[test]
fn drain_parks_work_and_a_restarted_service_resumes_it() {
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        chaos: ChaosConfig {
            stall: Some((1, Duration::from_millis(200))),
            ..ChaosConfig::default()
        },
        ..ServiceConfig::default()
    });
    let seeds = [90u64, 91];
    let tickets: Vec<_> =
        seeds.iter().map(|&s| svc.submit(SolveRequest::new(instance(s, 24)))).collect();
    // Drain while #1 stalls pre-solve and #2 waits in the queue.
    std::thread::sleep(Duration::from_millis(50));
    let report = svc.drain();
    assert!(report.no_leaked_workers(), "{report:?}");
    assert_eq!(report.parked.len(), 2, "both requests must be parked, not dropped");
    for ticket in &tickets {
        assert!(matches!(wait(ticket).outcome, ServiceOutcome::Parked));
    }

    // A fresh service picks the parked work back up; checkpointed parks
    // continue via resume_ira and land on the resumed tier.
    let svc2 = SolveService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    for parked in report.parked {
        let seed = seeds
            .iter()
            .copied()
            .find(|&s| instance_hash(&instance(s, 24)) == parked.hash)
            .expect("parked hash matches a submitted seed");
        let had_checkpoint = parked.checkpoint.is_some();
        let completion = wait(&svc2.submit_parked(parked));
        let out = match completion.outcome {
            ServiceOutcome::Solved(out) => out,
            other => panic!("parked resubmission got {other:?}"),
        };
        if had_checkpoint {
            assert_eq!(out.tier, SolveTier::Resumed, "checkpointed park must resume, not re-solve");
        }
        let direct = solve_resilient(
            &instance(seed, 24),
            &ResilienceConfig::default(),
            SolveBudget::unlimited(),
        )
        .unwrap();
        let a: Vec<_> = out.tree.edges().collect();
        let b: Vec<_> = direct.tree.edges().collect();
        assert_eq!(a, b, "seed {seed}: resumed tree differs from the uninterrupted solve");
    }
    let report2 = svc2.drain();
    assert!(report2.no_leaked_workers());
}

#[test]
fn request_storm_resolves_every_submission_with_a_typed_outcome() {
    let obs = wsn_obs::Obs::detached();
    let _g = wsn_obs::install(obs.clone());
    let svc = SolveService::start(ServiceConfig {
        workers: 4,
        queue_capacity: 16,
        chaos: ChaosConfig { kill_every: Some(7), ..ChaosConfig::default() },
        ..ServiceConfig::default()
    });
    let instances: Vec<MrlcInstance> = (0..6).map(|i| instance(200 + i, 24)).collect();
    let per_client = 15usize;
    let clients = 4usize;
    let all = std::sync::Mutex::new(Vec::new());
    crossbeam::scope(|s| {
        for c in 0..clients {
            let svc = &svc;
            let instances = &instances;
            let all = &all;
            s.spawn(move |_| {
                let mut local = Vec::new();
                for i in 0..per_client {
                    let inst = instances[(c * per_client + i) % instances.len()].clone();
                    let deadline = if i % 5 == 4 { Some(Duration::from_millis(1)) } else { None };
                    let ticket = svc.submit(SolveRequest {
                        instance: inst,
                        budget: SolveBudget::unlimited(),
                        deadline,
                    });
                    local.push(ticket);
                }
                all.lock().unwrap().extend(local);
            });
        }
    })
    .expect("client threads never panic");
    let tickets = all.into_inner().unwrap();
    assert_eq!(tickets.len(), clients * per_client);
    let mut kinds: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for ticket in &tickets {
        let completion = wait(ticket);
        *kinds.entry(completion.outcome.kind()).or_default() += 1;
    }
    let typed: usize = kinds.values().sum();
    assert_eq!(typed, clients * per_client, "every request must resolve typed: {kinds:?}");
    let report = svc.drain();
    assert!(report.no_leaked_workers(), "{report:?}");
}

#[test]
fn worker_traces_are_collected_and_reportable() {
    let svc = SolveService::start(ServiceConfig {
        workers: 2,
        trace_workers: true,
        ..ServiceConfig::default()
    });
    let tickets: Vec<_> =
        (0..4).map(|i| svc.submit(SolveRequest::new(instance(300 + i, 24)))).collect();
    for t in &tickets {
        assert!(wait(t).outcome.is_solved());
    }
    let report = svc.drain();
    assert!(report.no_leaked_workers());
    assert_eq!(report.worker_traces.len(), 2);
    for (wid, trace) in &report.worker_traces {
        let lenient = wsn_obs::profile_trace(trace)
            .unwrap_or_else(|e| panic!("worker {wid} trace invalid: {e}"));
        assert_eq!(lenient.skipped, 0, "worker {wid}");
    }
}

/// Acceptance: a seeded kill schedule cuts at least one worker-crash
/// black box, and two identically-seeded runs dump byte-identical boxes
/// (the worker ring runs on a per-incarnation virtual clock with seeded
/// ids, so the dump is part of the deterministic surface).
#[test]
fn seeded_worker_kills_cut_byte_identical_black_boxes() {
    // One worker and strictly serial submit-then-wait clients make the
    // dequeue order — and so the kill schedule and ring contents — a pure
    // function of the seeds.
    let run_once = || {
        let svc = SolveService::start(ServiceConfig {
            workers: 1,
            // A ring deep enough to retain whole jobs: at the 128-slot
            // default a single solve wraps the ring, so only the innermost
            // LP spans of the newest job would survive to the dump.
            flight_recorder: 4096,
            chaos: ChaosConfig { kill_every: Some(4), ..ChaosConfig::default() },
            ..ServiceConfig::default()
        });
        for s in 0..6u64 {
            let done = wait(&svc.submit(SolveRequest::new(instance(500 + s, 16))));
            assert!(matches!(done.outcome, ServiceOutcome::Solved(_)), "{done:?}");
        }
        let report = svc.drain();
        assert!(report.no_leaked_workers(), "{report:?}");
        report.black_boxes
    };
    let a = run_once();
    let b = run_once();
    assert!(!a.is_empty(), "the kill schedule must cut at least one black box");
    assert_eq!(a.len(), b.len(), "same schedule, same incident count");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.reason, "worker-crash");
        assert_eq!(x.worker, Some(0));
        assert!(x.jsonl.starts_with("{\"type\":\"blackbox_header\""), "{}", x.jsonl);
        assert!(x.jsonl.contains("svc.job"), "the ring must hold the jobs before the kill");
        assert_eq!(x.jsonl, y.jsonl, "identically-seeded runs must dump byte-identical boxes");
    }
}

/// A poison pill that exhausts its retries leaves a quarantine black box
/// holding the attempts that opened the breaker.
#[test]
fn quarantined_poison_pills_leave_a_black_box() {
    let inst = instance(91, 16);
    let hash = instance_hash(&inst);
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        quarantine_after: 2,
        chaos: ChaosConfig { panic_hashes: vec![hash], ..ChaosConfig::default() },
        ..ServiceConfig::default()
    });
    let done = wait(&svc.submit(SolveRequest::new(inst)));
    assert!(matches!(done.outcome, ServiceOutcome::Quarantined { .. }), "{done:?}");
    let report = svc.drain();
    let reasons: Vec<&str> = report.black_boxes.iter().map(|b| b.reason.as_str()).collect();
    assert!(reasons.contains(&"quarantine"), "{reasons:?}");
}
