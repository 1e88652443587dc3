//! The supervised solve fleet.
//!
//! ```text
//!                    submit() ──► admission ──► bounded queue ──► workers (N)
//!                                   │  ▲                            │   │
//!      shed (full / projected wait /│  │ retry w/ backoff + jitter  │   │ epitaphs
//!      draining / quarantine hit)   │  └────────────────────────────┘   ▼
//!                                   ▼                               supervisor
//!                                ticket ◄── typed outcome ◄── (respawn, recover job)
//! ```
//!
//! Robustness invariants, each chaos-tested:
//!
//! * **Crash isolation.** A solve runs under `catch_unwind`; a panic is a
//!   retry/quarantine decision, never fleet death. A panic *outside* the
//!   per-job guard (the chaos worker-kill) unwinds the worker thread,
//!   whose epitaph wakes the supervisor to recover the in-flight job from
//!   the worker's slot and respawn a replacement.
//! * **Backpressure.** The queue is bounded; admission sheds with a typed
//!   reason (`QueueFull`, or `ProjectedWait` when the EWMA-projected wait
//!   already blows the request deadline) instead of queueing hopeless work.
//! * **Circuit breaker.** An instance hash that fails `quarantine_after`
//!   times is parked with its latest checkpoint and a typed `why`; later
//!   submissions of the same hash resolve `Quarantined` immediately.
//! * **Drain.** `drain()` stops admission, requests a checkpoint handback
//!   from every in-flight solve, parks the still-queued jobs, and joins
//!   every thread — the report carries the parked checkpoints so a
//!   restarted service continues via `resume_ira` instead of re-solving.
//! * **Every request resolves.** Each path above fills the ticket with a
//!   typed [`ServiceOutcome`]; there is no drop, hang, or panic escape.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use mrlc_core::{
    IraCheckpoint, MrlcInstance, ResilienceConfig, ResilienceError, ResilientRun, SolveOutcome,
};
use wsn_lp::SolveCtx;
use wsn_obs::{Clock, Counter, Gauge, Histogram, Level, Obs, TimeSource};

use crate::queue::{AdmissionQueue, Popped};
use crate::request::{
    instance_hash, Completion, ServiceOutcome, ShedReason, SolveRequest, Ticket, TicketSlot,
};

/// Seeded failure injection for the chaos harness. All hooks are off by
/// default; production configs never set them.
#[derive(Clone, Debug, Default)]
pub struct ChaosConfig {
    /// Panic the worker thread (outside the per-job guard) before every
    /// k-th dequeue fleet-wide — exercises supervisor recovery/respawn.
    pub kill_every: Option<u64>,
    /// Sleep `(duration)` before every k-th solve — a slow-worker stall.
    pub stall: Option<(u64, Duration)>,
    /// Instance hashes whose solve always panics (poison pills) —
    /// exercises retry exhaustion into quarantine.
    pub panic_hashes: Vec<u64>,
}

/// Fleet tuning. `Default` is a sane 4-worker production shape.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (minimum 1).
    pub workers: usize,
    /// Bounded queue capacity; admissions beyond it shed `QueueFull`.
    pub queue_capacity: usize,
    /// Failures of one instance hash before the circuit breaker opens.
    pub quarantine_after: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Prior for the projected-wait estimate before any solve completes.
    pub initial_ewma_ms: f64,
    /// Serve duplicate submissions from the instance-hash result cache.
    pub cache: bool,
    /// Degradation-ladder configuration used by every solve.
    pub resilience: ResilienceConfig,
    /// Clock for deadlines, latency accounting and backoff scheduling.
    /// A [`wsn_obs::ManualClock`]-backed source makes shed/expiry tests
    /// deterministic with zero real sleeping.
    pub clock: TimeSource,
    /// Failure injection (off by default).
    pub chaos: ChaosConfig,
    /// Give each worker a virtual-clock trace, collected on drain.
    pub trace_workers: bool,
    /// Flight-recorder ring capacity (records kept per worker, plus one
    /// service-level ring on the admission path); `0` disables the
    /// recorder. When armed, a worker crash, a quarantine decision, a
    /// budget expiry, or a shed storm snapshots the relevant ring into a
    /// deterministic black-box dump carried by [`DrainReport`].
    pub flight_recorder: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            quarantine_after: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(500),
            seed: 0xC0FFEE,
            initial_ewma_ms: 50.0,
            cache: true,
            resilience: ResilienceConfig::default(),
            clock: TimeSource::wall(),
            chaos: ChaosConfig::default(),
            trace_workers: false,
            flight_recorder: 128,
        }
    }
}

/// Consecutive sheds (with no admission in between) that count as a shed
/// storm and trigger a service-ring black-box dump. One dump per storm:
/// the trigger fires when the streak *reaches* the threshold, and re-arms
/// only after an admission resets the streak.
const SHED_STORM_STREAK: u64 = 8;

/// A black-box dump snapshotted from a flight-recorder ring at an
/// incident. `jsonl` is a `blackbox_header` line plus the retained
/// records (see `wsn_obs::FlightRecorder::dump_jsonl`), renderable with
/// `obs-report postmortem`. Worker rings run on virtual clocks with
/// per-incarnation span ids, so identically-seeded runs dump
/// byte-identical black boxes.
#[derive(Clone, Debug)]
pub struct BlackBox {
    /// Worker id for worker-ring dumps; `None` for the service-level
    /// admission ring (shed storms).
    pub worker: Option<usize>,
    /// Incident kind: `worker-crash`, `quarantine`, `budget-expiry`, or
    /// `shed-storm`.
    pub reason: String,
    /// The JSONL dump.
    pub jsonl: String,
}

/// A solve the drain protocol handed back instead of finishing.
#[derive(Debug)]
pub struct ParkedSolve {
    /// Submission id at park time.
    pub id: u64,
    /// Instance hash.
    pub hash: u64,
    /// Attempts consumed before parking.
    pub attempts: u32,
    /// The original request, ready for resubmission.
    pub request: SolveRequest,
    /// Warm checkpoint when the solve had started; `None` for jobs parked
    /// straight out of the queue.
    pub checkpoint: Option<Box<IraCheckpoint>>,
}

/// A quarantined instance hash and its post-mortem.
#[derive(Clone, Debug)]
pub struct QuarantineEntry {
    /// The failure that opened the breaker.
    pub why: String,
    /// Total failures recorded for the hash.
    pub failures: u32,
    /// Latest checkpoint, when any failing attempt got far enough.
    pub checkpoint: Option<Box<IraCheckpoint>>,
}

/// What `drain()` returns: proof of a clean shutdown plus everything a
/// restarted service needs to continue.
#[derive(Debug)]
pub struct DrainReport {
    /// Interrupted/unstarted work with checkpoints, for resubmission.
    pub parked: Vec<ParkedSolve>,
    /// Open circuit breakers at shutdown, keyed by instance hash.
    pub quarantined: Vec<(u64, QuarantineEntry)>,
    /// Worker threads ever spawned (initial pool + respawns).
    pub workers_spawned: usize,
    /// Worker threads joined; equals `workers_spawned` iff nothing leaked.
    pub workers_joined: usize,
    /// Per-worker JSONL traces when `trace_workers` was set, in worker-id
    /// order (a respawned worker id appears once per incarnation).
    pub worker_traces: Vec<(usize, String)>,
    /// Black-box dumps snapshotted at incidents (crash, quarantine,
    /// budget expiry, shed storm), in incident order.
    pub black_boxes: Vec<BlackBox>,
}

impl DrainReport {
    /// True when every thread the fleet ever spawned was joined.
    pub fn no_leaked_workers(&self) -> bool {
        self.workers_spawned == self.workers_joined
    }
}

struct Metrics {
    accepted: Counter,
    shed: Counter,
    completed: Counter,
    retries: Counter,
    quarantined: Counter,
    quarantine_hits: Counter,
    worker_restarts: Counter,
    cache_hits: Counter,
    panics: Counter,
    parked: Counter,
    infeasible: Counter,
    queue_depth: Gauge,
    latency_cached_ms: Histogram,
    latency_solved_ms: Histogram,
}

const LATENCY_BOUNDS: &[u64] =
    &[1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000, 60000];

impl Metrics {
    fn new(obs: &Obs) -> Self {
        let reg = obs.registry();
        Metrics {
            accepted: reg.counter("svc.accepted"),
            shed: reg.counter("svc.shed"),
            completed: reg.counter("svc.completed"),
            retries: reg.counter("svc.retries"),
            quarantined: reg.counter("svc.quarantined"),
            quarantine_hits: reg.counter("svc.quarantine_hits"),
            worker_restarts: reg.counter("svc.worker_restarts"),
            cache_hits: reg.counter("svc.cache_hits"),
            panics: reg.counter("svc.panics"),
            parked: reg.counter("svc.parked"),
            infeasible: reg.counter("svc.infeasible"),
            queue_depth: reg.gauge("svc.queue_depth"),
            latency_cached_ms: reg.histogram("svc.latency_cached_ms", LATENCY_BOUNDS),
            latency_solved_ms: reg.histogram("svc.latency_solved_ms", LATENCY_BOUNDS),
        }
    }
}

/// One unit of queued work. Cloned only into the worker's recovery slot
/// (the checkpoint is taken out before solving, so a recovered clone
/// restarts that attempt cold — progress, not correctness, is what a
/// crashed worker loses).
#[derive(Clone)]
pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) hash: u64,
    pub(crate) attempt: u32,
    pub(crate) submitted_ns: u64,
    pub(crate) not_before_ns: u64,
    pub(crate) request: SolveRequest,
    pub(crate) checkpoint: Option<Box<IraCheckpoint>>,
    pub(crate) slot: Arc<TicketSlot>,
}

struct Inflight {
    job: Job,
    ctx: Arc<SolveCtx>,
}

struct FleetState {
    /// EWMA of solve time from dequeue, ms: the projected-wait estimate.
    ewma_ms: f64,
    fail_counts: HashMap<u64, u32>,
    quarantine: HashMap<u64, QuarantineEntry>,
    cache: HashMap<u64, SolveOutcome>,
}

struct Shared {
    cfg: ServiceConfig,
    obs: Arc<Obs>,
    metrics: Metrics,
    queue: AdmissionQueue,
    state: Mutex<FleetState>,
    inflight: Vec<Mutex<Option<Inflight>>>,
    draining: AtomicBool,
    shutdown: AtomicBool,
    dequeues: AtomicU64,
    next_id: AtomicU64,
    parked: Mutex<Vec<ParkedSolve>>,
    traces: Mutex<Vec<(usize, String)>>,
    black_boxes: Mutex<Vec<BlackBox>>,
    /// Service-level flight ring fed by admission-path shed events; the
    /// virtual clock keeps shed-storm dumps deterministic.
    svc_ring: Option<Arc<Obs>>,
    shed_streak: AtomicU64,
}

impl Shared {
    fn state(&self) -> MutexGuard<'_, FleetState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now_ns(&self) -> u64 {
        self.cfg.clock.now_ns()
    }

    fn ms_since(&self, start_ns: u64) -> f64 {
        self.now_ns().saturating_sub(start_ns) as f64 / 1e6
    }

    fn inflight_count(&self) -> usize {
        self.inflight
            .iter()
            .filter(|s| s.lock().unwrap_or_else(|e| e.into_inner()).is_some())
            .count()
    }

    fn push_black_box(&self, worker: Option<usize>, reason: &str, jsonl: String) {
        self.black_boxes.lock().unwrap_or_else(|e| e.into_inner()).push(BlackBox {
            worker,
            reason: reason.to_string(),
            jsonl,
        });
    }

    /// Snapshot the ambient (worker) ring into a black box, when armed.
    fn dump_ambient_ring(&self, worker: Option<usize>, reason: &str) {
        if let Some(obs) = wsn_obs::current() {
            if let Some(jsonl) = obs.blackbox_jsonl(reason, worker) {
                self.push_black_box(worker, reason, jsonl);
            }
        }
    }

    /// Record a shed on the service ring and fire the shed-storm trigger
    /// when the consecutive-shed streak reaches the threshold.
    fn note_shed(&self, reason: &ShedReason) {
        let Some(ring) = &self.svc_ring else { return };
        ring.emit_event(
            Level::Warn,
            "svc.shed",
            vec![wsn_obs::field("reason", reason.to_string())],
        );
        let streak = self.shed_streak.fetch_add(1, Ordering::SeqCst) + 1;
        if streak == SHED_STORM_STREAK {
            if let Some(jsonl) = ring.blackbox_jsonl("shed-storm", None) {
                self.push_black_box(None, "shed-storm", jsonl);
            }
        }
    }

    /// An admission (or cache hit) breaks any shed streak.
    fn note_admitted(&self) {
        self.shed_streak.store(0, Ordering::SeqCst);
    }

    fn resolve(&self, job: Job, outcome: ServiceOutcome) {
        let latency_ms = self.ms_since(job.submitted_ns);
        job.slot.fill(Completion {
            id: job.id,
            hash: job.hash,
            outcome,
            latency_ms,
            attempts: job.attempt,
        });
    }
}

enum Epitaph {
    Crashed { wid: usize },
    Exited { wid: usize },
}

struct SupervisorStats {
    spawned: usize,
    joined: usize,
}

/// The running fleet. `submit` from any thread; `drain` to shut down.
/// Dropping without draining performs an implicit drain (nothing leaks
/// either way), discarding the report.
pub struct SolveService {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<SupervisorStats>>,
}

impl SolveService {
    /// Spawns the supervisor and the initial worker pool. Metric handles
    /// bind to the *calling* thread's ambient [`Obs`] (or a detached one),
    /// so install an observer first to see `svc.*` counters.
    pub fn start(cfg: ServiceConfig) -> SolveService {
        let obs = wsn_obs::current_or_detached();
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            metrics: Metrics::new(&obs),
            obs,
            queue: AdmissionQueue::new(cfg.queue_capacity),
            state: Mutex::new(FleetState {
                ewma_ms: cfg.initial_ewma_ms.max(0.0),
                fail_counts: HashMap::new(),
                quarantine: HashMap::new(),
                cache: HashMap::new(),
            }),
            inflight: (0..workers).map(|_| Mutex::new(None)).collect(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            dequeues: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            parked: Mutex::new(Vec::new()),
            traces: Mutex::new(Vec::new()),
            black_boxes: Mutex::new(Vec::new()),
            svc_ring: (cfg.flight_recorder > 0)
                .then(|| Obs::with_flight(Clock::virtual_ticks(), cfg.flight_recorder)),
            shed_streak: AtomicU64::new(0),
            cfg: ServiceConfig { workers, ..cfg },
        });
        let sup_shared = shared.clone();
        let supervisor = std::thread::Builder::new()
            .name("wsn-svc-supervisor".into())
            .spawn(move || supervise(sup_shared))
            .expect("spawn supervisor thread");
        SolveService { shared, supervisor: Some(supervisor) }
    }

    /// Submits a request; always returns a ticket that resolves to a
    /// typed outcome (possibly immediately, on the shed/cache paths).
    pub fn submit(&self, request: SolveRequest) -> Ticket {
        self.submit_inner(request, None, 1)
    }

    /// Resubmits work parked by a previous service's drain; a parked
    /// checkpoint makes the solve continue via `resume_ira` instead of
    /// starting cold.
    pub fn submit_parked(&self, parked: ParkedSolve) -> Ticket {
        self.submit_inner(parked.request, parked.checkpoint, parked.attempts.max(1))
    }

    fn submit_inner(
        &self,
        request: SolveRequest,
        checkpoint: Option<Box<IraCheckpoint>>,
        attempt: u32,
    ) -> Ticket {
        let sh = &self.shared;
        let id = sh.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let hash = instance_hash(&request.instance);
        let slot = TicketSlot::new();
        let ticket = Ticket { id, slot: slot.clone() };
        let now = sh.now_ns();
        let immediate = |outcome: ServiceOutcome| {
            slot.fill(Completion { id, hash, outcome, latency_ms: 0.0, attempts: 0 });
        };

        if sh.draining.load(Ordering::SeqCst) {
            sh.metrics.shed.inc();
            sh.note_shed(&ShedReason::Draining);
            immediate(ServiceOutcome::Shed(ShedReason::Draining));
            return ticket;
        }
        let quarantined_why = sh.state().quarantine.get(&hash).map(|q| q.why.clone());
        if let Some(why) = quarantined_why {
            sh.metrics.quarantine_hits.inc();
            immediate(ServiceOutcome::Quarantined { why });
            return ticket;
        }
        if sh.cfg.cache && checkpoint.is_none() {
            let cached = sh.state().cache.get(&hash).cloned();
            if let Some(out) = cached {
                sh.metrics.accepted.inc();
                sh.metrics.cache_hits.inc();
                sh.metrics.latency_cached_ms.observe(0);
                sh.note_admitted();
                immediate(ServiceOutcome::Solved(out));
                return ticket;
            }
        }
        if let Some(deadline) = request.deadline {
            let depth = sh.queue.len() + sh.inflight_count();
            let ewma = sh.state().ewma_ms.max(sh.cfg.initial_ewma_ms);
            let projected_ms = depth as f64 / sh.cfg.workers as f64 * ewma;
            let deadline_ms = deadline.as_secs_f64() * 1e3;
            if projected_ms > deadline_ms {
                sh.metrics.shed.inc();
                let reason = ShedReason::ProjectedWait { projected_ms, deadline_ms };
                sh.note_shed(&reason);
                immediate(ServiceOutcome::Shed(reason));
                return ticket;
            }
        }

        let job = Job {
            id,
            hash,
            attempt,
            submitted_ns: now,
            not_before_ns: now,
            request,
            checkpoint,
            slot: slot.clone(),
        };
        match sh.queue.try_push(job) {
            Ok(()) => {
                sh.metrics.accepted.inc();
                sh.metrics.queue_depth.set(sh.queue.len() as i64);
                sh.note_admitted();
            }
            Err(job) => {
                sh.metrics.shed.inc();
                sh.note_shed(&ShedReason::QueueFull);
                sh.resolve(job, ServiceOutcome::Shed(ShedReason::QueueFull));
            }
        }
        ticket
    }

    /// Current queue depth (runnable + backoff).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Graceful shutdown: stop admission, hand back in-flight checkpoints,
    /// park queued work, join every thread.
    pub fn drain(mut self) -> DrainReport {
        self.drain_inner()
    }

    fn drain_inner(&mut self) -> DrainReport {
        let sh = self.shared.clone();
        sh.draining.store(true, Ordering::SeqCst);
        for slot in &sh.inflight {
            if let Some(inf) = slot.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
                inf.ctx.request_handback();
            }
        }
        for job in sh.queue.close_and_drain() {
            park(&sh, job, None);
        }
        sh.shutdown.store(true, Ordering::SeqCst);
        let stats = match self.supervisor.take() {
            Some(handle) => handle.join().expect("supervisor thread never panics"),
            None => SupervisorStats { spawned: 0, joined: 0 },
        };
        let quarantined: Vec<(u64, QuarantineEntry)> = {
            let mut st = sh.state();
            let mut q: Vec<_> = st.quarantine.drain().collect();
            q.sort_by_key(|(h, _)| *h);
            q
        };
        let mut worker_traces =
            std::mem::take(&mut *sh.traces.lock().unwrap_or_else(|e| e.into_inner()));
        worker_traces.sort_by_key(|(wid, _)| *wid);
        let parked = std::mem::take(&mut *sh.parked.lock().unwrap_or_else(|e| e.into_inner()));
        let black_boxes =
            std::mem::take(&mut *sh.black_boxes.lock().unwrap_or_else(|e| e.into_inner()));
        DrainReport {
            parked,
            quarantined,
            workers_spawned: stats.spawned,
            workers_joined: stats.joined,
            worker_traces,
            black_boxes,
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        if self.supervisor.is_some() {
            let _ = self.drain_inner();
        }
    }
}

fn supervise(shared: Arc<Shared>) -> SupervisorStats {
    let (tx, rx): (Sender<Epitaph>, Receiver<Epitaph>) = channel::unbounded();
    let workers = shared.cfg.workers;
    let mut handles: Vec<Option<JoinHandle<()>>> =
        (0..workers).map(|wid| Some(spawn_worker(&shared, wid, tx.clone()))).collect();
    let mut spawned = workers;
    let mut joined = 0usize;
    let mut live = workers;

    while live > 0 || !shared.shutdown.load(Ordering::SeqCst) {
        match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(Epitaph::Crashed { wid }) => {
                shared.metrics.worker_restarts.inc();
                if let Some(h) = handles[wid].take() {
                    let _ = h.join();
                    joined += 1;
                }
                // Recover the job the dead worker was holding: it goes
                // back through the retry/quarantine policy, so queued work
                // survives worker death.
                let recovered =
                    shared.inflight[wid].lock().unwrap_or_else(|e| e.into_inner()).take();
                if let Some(inf) = recovered {
                    retry_or_quarantine(&shared, inf.job, None, "worker crashed mid-solve".into());
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    live -= 1;
                } else {
                    handles[wid] = Some(spawn_worker(&shared, wid, tx.clone()));
                    spawned += 1;
                }
            }
            Ok(Epitaph::Exited { wid }) => {
                if let Some(h) = handles[wid].take() {
                    let _ = h.join();
                    joined += 1;
                }
                live -= 1;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Defensive: join anything still held (cannot happen when every worker
    // sends an epitaph, but a leak must show up in the report, not hide).
    for h in handles.iter_mut().filter_map(Option::take) {
        let _ = h.join();
        joined += 1;
    }
    SupervisorStats { spawned, joined }
}

fn spawn_worker(shared: &Arc<Shared>, wid: usize, tx: Sender<Epitaph>) -> JoinHandle<()> {
    let shared = shared.clone();
    std::thread::Builder::new()
        .name(format!("wsn-svc-worker-{wid}"))
        .spawn(move || {
            // Each incarnation gets a fresh virtual clock and span-id
            // sequence, so its trace — and any black-box dump cut from its
            // flight ring — is deterministic under a fixed seed.
            let ring = shared.cfg.flight_recorder;
            let obs = match (shared.cfg.trace_workers, ring > 0) {
                (true, true) => Some(Obs::with_trace_and_flight(Clock::virtual_ticks(), ring)),
                (true, false) => Some(Obs::with_trace(Clock::virtual_ticks())),
                (false, true) => Some(Obs::with_flight(Clock::virtual_ticks(), ring)),
                (false, false) => None,
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _guard = obs.as_ref().map(|o| wsn_obs::install(o.clone()));
                worker_loop(&shared, wid)
            }));
            if let Some(obs) = &obs {
                if shared.cfg.trace_workers {
                    shared
                        .traces
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((wid, obs.trace_jsonl()));
                }
                // An unwind that escaped the per-job guard killed this
                // worker; cut the black box before the thread is gone.
                if result.is_err() {
                    if let Some(jsonl) = obs.blackbox_jsonl("worker-crash", Some(wid)) {
                        shared.push_black_box(Some(wid), "worker-crash", jsonl);
                    }
                }
            }
            let epitaph = match result {
                Ok(()) => Epitaph::Exited { wid },
                Err(_) => Epitaph::Crashed { wid },
            };
            // The supervisor outlives every worker; a send failure means
            // it is already gone, in which case there is nobody left to
            // recover for.
            let _ = tx.send(epitaph);
        })
        .expect("spawn worker thread")
}

fn worker_loop(shared: &Arc<Shared>, wid: usize) {
    loop {
        let mut job = match shared.queue.pop(&shared.cfg.clock) {
            Popped::Closed => return,
            Popped::Job(job) => *job,
        };
        let dequeued_ns = shared.now_ns();
        shared.metrics.queue_depth.set(shared.queue.len() as i64);
        let nth = shared.dequeues.fetch_add(1, Ordering::SeqCst) + 1;
        // Register the job immediately: it must count as in-flight for the
        // projected-wait estimate, and be recoverable the instant this
        // thread can die (the chaos kill below). The placeholder context
        // is replaced once the real one is armed.
        *shared.inflight[wid].lock().unwrap_or_else(|e| e.into_inner()) =
            Some(Inflight { job: job.clone(), ctx: SolveCtx::unlimited() });

        if let Some(deadline) = job.request.deadline {
            let waited_ns = shared.now_ns().saturating_sub(job.submitted_ns);
            if waited_ns > u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX) {
                shared.inflight[wid].lock().unwrap_or_else(|e| e.into_inner()).take();
                shared.metrics.shed.inc();
                shared.note_shed(&ShedReason::ExpiredInQueue);
                shared.resolve(job, ServiceOutcome::Shed(ShedReason::ExpiredInQueue));
                continue;
            }
        }

        if shared.cfg.chaos.kill_every.is_some_and(|k| k > 0 && nth.is_multiple_of(k)) {
            // Die where no guard catches it: the supervisor must earn its
            // keep by recovering the job just registered above.
            panic!("chaos: worker kill on dequeue #{nth}");
        }
        if let Some((every, stall)) = shared.cfg.chaos.stall {
            if every > 0 && nth.is_multiple_of(every) {
                std::thread::sleep(stall);
            }
        }

        let checkpoint = job.checkpoint.take();
        let ctx = job.request.budget.start_with_clock(shared.cfg.clock.clone());
        *shared.inflight[wid].lock().unwrap_or_else(|e| e.into_inner()) =
            Some(Inflight { job: job.clone(), ctx: ctx.clone() });
        // Close the race with a drain that swept the slots before this
        // job was registered: never start a solve a drain cannot stop.
        if shared.draining.load(Ordering::SeqCst) {
            ctx.request_handback();
        }

        let _span = wsn_obs::span_with(
            "svc.job",
            vec![wsn_obs::field("id", job.id), wsn_obs::field("attempt", u64::from(job.attempt))],
        );
        let outcome = {
            let instance: &MrlcInstance = &job.request.instance;
            let resilience: &ResilienceConfig = &shared.cfg.resilience;
            let budget = job.request.budget;
            let poisoned = shared.cfg.chaos.panic_hashes.contains(&job.hash);
            catch_unwind(AssertUnwindSafe(move || {
                if poisoned {
                    panic!("chaos: poisoned instance");
                }
                mrlc_core::solve_resilient_ctx(instance, resilience, budget, &ctx, checkpoint)
            }))
        };
        let expired = shared.inflight[wid]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .is_some_and(|inf| inf.ctx.is_expired());
        if expired {
            // The budget ran out mid-solve: snapshot what the worker was
            // doing when the deadline hit, whatever the ladder salvaged.
            shared.dump_ambient_ring(Some(wid), "budget-expiry");
        }

        match outcome {
            Ok(Ok(ResilientRun::Done(out))) => complete(shared, job, out, dequeued_ns),
            Ok(Ok(ResilientRun::Handback(cp))) => park(shared, job, Some(cp)),
            Ok(Err(ResilienceError::Infeasible { lc, reason })) => {
                shared.metrics.infeasible.inc();
                wsn_obs::event("svc.outcome", vec![wsn_obs::field("kind", "infeasible")]);
                shared.resolve(job, ServiceOutcome::Infeasible { lc, reason });
            }
            Err(payload) => {
                shared.metrics.panics.inc();
                retry_or_quarantine(shared, job, None, panic_message(payload));
            }
        }
    }
}

/// Records a solved job. The projected-wait EWMA learns the solve time
/// from dequeue: admission multiplies it by the queue depth, so feeding it
/// submit-to-completion latency would count queue wait and retry backoff
/// twice and over-shed deadline requests after any stall. The latency
/// histograms keep submit-to-completion, which is what a caller waits.
fn complete(shared: &Arc<Shared>, job: Job, out: SolveOutcome, dequeued_ns: u64) {
    let latency_ms = shared.ms_since(job.submitted_ns);
    let solve_ms = shared.ms_since(dequeued_ns);
    {
        let mut st = shared.state();
        st.fail_counts.remove(&job.hash);
        st.ewma_ms = if st.ewma_ms <= 0.0 { solve_ms } else { 0.8 * st.ewma_ms + 0.2 * solve_ms };
        if shared.cfg.cache {
            st.cache.insert(job.hash, out.clone());
        }
    }
    shared.metrics.completed.inc();
    shared.obs.registry().counter(&format!("svc.outcome.{}", out.tier)).inc();
    shared.metrics.latency_solved_ms.observe(latency_ms.max(0.0) as u64);
    wsn_obs::event("svc.outcome", vec![wsn_obs::field("kind", out.tier.to_string())]);
    shared.resolve(job, ServiceOutcome::Solved(out));
}

fn park(shared: &Arc<Shared>, job: Job, checkpoint: Option<Box<IraCheckpoint>>) {
    shared.metrics.parked.inc();
    wsn_obs::event("svc.outcome", vec![wsn_obs::field("kind", "parked")]);
    let parked = ParkedSolve {
        id: job.id,
        hash: job.hash,
        attempts: job.attempt,
        request: job.request.clone(),
        checkpoint,
    };
    shared.parked.lock().unwrap_or_else(|e| e.into_inner()).push(parked);
    shared.resolve(job, ServiceOutcome::Parked);
}

fn retry_or_quarantine(
    shared: &Arc<Shared>,
    mut job: Job,
    checkpoint: Option<Box<IraCheckpoint>>,
    why: String,
) {
    let failures = {
        let mut st = shared.state();
        let f = st.fail_counts.entry(job.hash).or_insert(0);
        *f += 1;
        *f
    };
    if failures >= shared.cfg.quarantine_after {
        let entry = QuarantineEntry { why: why.clone(), failures, checkpoint };
        {
            let mut st = shared.state();
            st.fail_counts.remove(&job.hash);
            st.quarantine.insert(job.hash, entry);
        }
        shared.metrics.quarantined.inc();
        wsn_obs::warn("svc.quarantine", vec![wsn_obs::field("failures", u64::from(failures))]);
        // On the worker-panic path the ambient ring holds the attempts
        // that opened the breaker; on the supervisor's crash-recovery
        // path there is no ambient ring (the crash dump already fired).
        shared.dump_ambient_ring(None, "quarantine");
        shared.resolve(job, ServiceOutcome::Quarantined { why });
        return;
    }
    shared.metrics.retries.inc();
    job.attempt += 1;
    job.checkpoint = checkpoint;
    job.not_before_ns =
        shared.now_ns().saturating_add(backoff_ns(&shared.cfg, job.hash, job.attempt));
    if let Err(job) = shared.queue.push_again(job) {
        // Queue closed under us: the fleet is draining, park instead.
        park(shared, job, None);
    }
}

/// Capped exponential backoff with deterministic jitter in `[0.5, 1.5)`,
/// keyed on `(seed, hash, attempt)` so reruns schedule identically.
fn backoff_ns(cfg: &ServiceConfig, hash: u64, attempt: u32) -> u64 {
    let exp = attempt.saturating_sub(2).min(20);
    let base = u64::try_from(cfg.backoff_base.as_nanos()).unwrap_or(u64::MAX);
    let cap = u64::try_from(cfg.backoff_cap.as_nanos()).unwrap_or(u64::MAX);
    let raw = base.saturating_mul(1u64 << exp).min(cap);
    let r = splitmix64(cfg.seed ^ hash ^ u64::from(attempt).rotate_left(32));
    let factor = 0.5 + (r % 1024) as f64 / 1024.0;
    (raw as f64 * factor) as u64
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}
