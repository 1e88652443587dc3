//! Solve budgets, cooperative cancellation, and the seeded fault injector.
//!
//! A [`SolveBudget`] declares *how much* work a solve may do (wall-clock
//! deadline, pivot cap, cut-round cap); arming it with
//! [`SolveBudget::start`] produces a shared [`SolveCtx`] that the LP
//! layer, the separation engine and the IRA loop all poll cooperatively.
//! Budget expiry, like an explicit [`SolveCtx::cancel`], surfaces as
//! [`crate::LpError::Interrupted`] — never a panic — so callers can
//! checkpoint and resume or degrade to an approximate tier.
//!
//! The same context carries the **solver-fault injector** used by the
//! chaos test suite: each [`FaultKind`] has a one-shot countdown cell that
//! fires at a deterministic poll index, letting tests place a corrupted
//! pivot, a perturbed right-hand side, a forced oracle timeout or a
//! poisoned cut at a reproducible point in the solve.
//!
//! Every solver holds a context: [`SolveCtx::unlimited`] (the `Default`)
//! unless its caller installs one. An unlimited context has no cancel, no
//! cap and no deadline, so `should_stop` returns `false` without reading a
//! clock; with no faults armed every `poll_fault` is a single relaxed
//! atomic load. Neither emits a record, so an unbudgeted solve takes the
//! same pivots and writes the same trace as an engine with no budget
//! layer at all.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wsn_obs::TimeSource;

/// How often (in polls) the deadline consults the system clock;
/// cancellation and pivot caps are checked on every poll.
const DEADLINE_STRIDE: u64 = 64;

/// Injectable solver-fault classes (one-shot each, see [`SolveCtx::arm_fault`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Writes a NaN into the entering column's basic value at a pivot —
    /// exercises the non-finite sentinels and the cold rebuild.
    CorruptPivot = 0,
    /// Perturbs the basic values right after a warm solve's entry has
    /// recomputed them — exercises the feasibility check against the
    /// model and the cold fallback.
    PerturbRhs = 1,
    /// Forces the separation oracle to act as if its deadline expired —
    /// exercises interruption, checkpointing and warm resume.
    OracleTimeout = 2,
    /// Poisons the newest LP row with a non-finite rhs, in the engine and in
    /// the model every cold build reads — exercises unrecoverable-numerics
    /// degradation to the approximate tier.
    PoisonCut = 3,
}

/// All fault classes, in discriminant order.
pub const FAULT_KINDS: [FaultKind; 4] = [
    FaultKind::CorruptPivot,
    FaultKind::PerturbRhs,
    FaultKind::OracleTimeout,
    FaultKind::PoisonCut,
];

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultKind::CorruptPivot => "corrupt_pivot",
            FaultKind::PerturbRhs => "perturb_rhs",
            FaultKind::OracleTimeout => "oracle_timeout",
            FaultKind::PoisonCut => "poison_cut",
        };
        write!(f, "{name}")
    }
}

/// Declarative work limits for one resilient solve. `Default` is
/// unlimited — identical to running without a budget at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveBudget {
    /// Wall-clock allowance, measured from [`SolveBudget::start`].
    pub wall: Option<Duration>,
    /// Cap on simplex pivots across the whole solve.
    pub max_pivots: Option<u64>,
    /// Cap on cutting-plane rounds per LP solve.
    pub max_rounds: Option<u64>,
}

impl SolveBudget {
    /// A budget with no limits (polls always pass).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A wall-clock-only budget.
    pub fn wall(d: Duration) -> Self {
        Self { wall: Some(d), ..Self::default() }
    }

    /// Arms the budget against the wall clock: the deadline starts now.
    pub fn start(self) -> Arc<SolveCtx> {
        self.start_with_clock(TimeSource::wall())
    }

    /// Arms the budget against an explicit time source. With a
    /// [`wsn_obs::ManualClock`]-backed source the deadline only moves
    /// when the test advances it — no real sleeping, no flakiness.
    pub fn start_with_clock(self, clock: TimeSource) -> Arc<SolveCtx> {
        Arc::new(self.arm(clock))
    }

    fn arm(self, clock: TimeSource) -> SolveCtx {
        let started_ns = clock.now_ns();
        let deadline_ns = self
            .wall
            .map(|d| started_ns.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)));
        SolveCtx {
            clock,
            deadline_ns,
            max_pivots: self.max_pivots,
            max_rounds: self.max_rounds,
            cancelled: AtomicBool::new(false),
            expired: AtomicBool::new(false),
            handback: AtomicBool::new(false),
            polls: AtomicU64::new(0),
            faults: Default::default(),
        }
    }
}

/// A live, shareable cancellation/budget token (plus fault injector).
///
/// Cloned `Arc`s of one context observe the same cancellation flag and
/// fault cells, so a single `cancel()` stops every cooperating layer.
#[derive(Debug)]
pub struct SolveCtx {
    clock: TimeSource,
    deadline_ns: Option<u64>,
    max_pivots: Option<u64>,
    max_rounds: Option<u64>,
    cancelled: AtomicBool,
    /// Latched once the deadline has been observed in the past.
    expired: AtomicBool,
    /// Set by a draining service: cancel, but hand the checkpoint back to
    /// the caller instead of spending the remaining budget on a resume.
    handback: AtomicBool,
    polls: AtomicU64,
    /// One-shot countdowns per [`FaultKind`]: 0 = disarmed, k ≥ 1 fires on
    /// the k-th poll of that fault site.
    faults: [AtomicI64; 4],
}

impl Default for SolveCtx {
    /// The unlimited context on the wall clock.
    fn default() -> Self {
        SolveBudget::unlimited().arm(TimeSource::wall())
    }
}

impl SolveCtx {
    /// An always-passing context with no limits and no faults.
    pub fn unlimited() -> Arc<Self> {
        Arc::default()
    }

    /// Requests cooperative cancellation; every subsequent poll stops.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once `cancel()` was called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Requests cancellation *and* marks that the interrupted solve's
    /// checkpoint should be handed back to the caller (drain protocol)
    /// rather than consumed by an in-process resume.
    pub fn request_handback(&self) {
        self.handback.store(true, Ordering::Relaxed);
        self.cancel();
    }

    /// True once `request_handback()` was called.
    pub fn handback_requested(&self) -> bool {
        self.handback.load(Ordering::Relaxed)
    }

    /// True once the deadline has been observed to pass.
    pub fn is_expired(&self) -> bool {
        self.expired.load(Ordering::Relaxed) || self.check_deadline_now()
    }

    /// The time source this context measures its deadline against.
    /// Resume budgets must be armed against the same source so virtual
    /// time stays coherent across the degradation ladder.
    pub fn time_source(&self) -> TimeSource {
        self.clock.clone()
    }

    /// True when `round` (0-based) exceeds the configured round cap.
    pub fn round_cap_hit(&self, round: u64) -> bool {
        self.max_rounds.is_some_and(|cap| round >= cap)
    }

    /// The hot-loop poll: cancellation and the pivot cap are checked every
    /// call; the deadline consults the clock once per `DEADLINE_STRIDE`
    /// polls (and latches, so expiry is never un-observed).
    pub fn should_stop(&self, pivots: u64) -> bool {
        if self.cancelled.load(Ordering::Relaxed) || self.expired.load(Ordering::Relaxed) {
            return true;
        }
        if self.max_pivots.is_some_and(|cap| pivots >= cap) {
            return true;
        }
        if self.deadline_ns.is_some() {
            let n = self.polls.fetch_add(1, Ordering::Relaxed);
            if n.is_multiple_of(DEADLINE_STRIDE) {
                return self.check_deadline_now();
            }
        }
        false
    }

    fn check_deadline_now(&self) -> bool {
        match self.deadline_ns {
            Some(d) if self.clock.now_ns() >= d => {
                self.expired.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    // ---- fault injector ----------------------------------------------

    /// Arms `kind` to fire on its `after`-th poll (`after ≥ 1`; one-shot).
    pub fn arm_fault(&self, kind: FaultKind, after: u64) {
        assert!(after >= 1, "fault countdown must be at least 1");
        self.faults[kind as usize].store(after as i64, Ordering::Relaxed);
    }

    /// Decrements the countdown of `kind`; returns `true` exactly once,
    /// on the poll the countdown reaches zero. Disarmed cells cost one
    /// relaxed load.
    pub fn poll_fault(&self, kind: FaultKind) -> bool {
        let cell = &self.faults[kind as usize];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            if cur <= 0 {
                return false;
            }
            match cell.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(prev) => return prev == 1,
                Err(now) => cur = now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_stops() {
        let ctx = SolveCtx::unlimited();
        for p in 0..1000 {
            assert!(!ctx.should_stop(p));
        }
        assert!(!ctx.is_cancelled());
        assert!(!ctx.is_expired());
    }

    #[test]
    fn cancellation_latches() {
        let ctx = SolveCtx::unlimited();
        assert!(!ctx.should_stop(0));
        ctx.cancel();
        assert!(ctx.should_stop(0));
        assert!(ctx.should_stop(0), "cancellation is sticky");
    }

    #[test]
    fn pivot_cap_trips() {
        let ctx = SolveBudget { max_pivots: Some(10), ..Default::default() }.start();
        assert!(!ctx.should_stop(9));
        assert!(ctx.should_stop(10));
    }

    #[test]
    fn zero_deadline_expires() {
        let ctx = SolveBudget::wall(Duration::ZERO).start();
        // Poll 0 hits the clock immediately (stride starts at 0).
        assert!(ctx.should_stop(0));
        assert!(ctx.is_expired());
    }

    #[test]
    fn generous_deadline_passes() {
        let ctx = SolveBudget::wall(Duration::from_secs(3600)).start();
        for p in 0..200 {
            assert!(!ctx.should_stop(p));
        }
        assert!(!ctx.is_expired());
    }

    #[test]
    fn round_cap() {
        let ctx = SolveBudget { max_rounds: Some(3), ..Default::default() }.start();
        assert!(!ctx.round_cap_hit(2));
        assert!(ctx.round_cap_hit(3));
        assert!(!SolveCtx::unlimited().round_cap_hit(u64::MAX));
    }

    #[test]
    fn fault_fires_exactly_once_at_countdown() {
        let ctx = SolveCtx::unlimited();
        ctx.arm_fault(FaultKind::CorruptPivot, 3);
        assert!(!ctx.poll_fault(FaultKind::CorruptPivot));
        assert!(!ctx.poll_fault(FaultKind::CorruptPivot));
        assert!(ctx.poll_fault(FaultKind::CorruptPivot), "fires on the 3rd poll");
        assert!(!ctx.poll_fault(FaultKind::CorruptPivot), "one-shot");
        // Other classes stay independent.
        assert!(!ctx.poll_fault(FaultKind::PoisonCut));
    }

    #[test]
    fn handback_implies_cancel_and_latches() {
        let ctx = SolveCtx::unlimited();
        assert!(!ctx.handback_requested());
        ctx.request_handback();
        assert!(ctx.handback_requested());
        assert!(ctx.is_cancelled(), "handback must also stop the solve");
        assert!(ctx.should_stop(0));
    }

    #[test]
    fn plain_cancel_is_not_a_handback() {
        let ctx = SolveCtx::unlimited();
        ctx.cancel();
        assert!(!ctx.handback_requested());
    }

    #[test]
    fn manual_clock_deadline_expires_only_when_advanced() {
        let mc = wsn_obs::ManualClock::new();
        let ctx = SolveBudget::wall(Duration::from_millis(10))
            .start_with_clock(TimeSource::manual(mc.clone()));
        assert!(!ctx.is_expired());
        mc.advance(Duration::from_millis(9));
        assert!(!ctx.is_expired());
        mc.advance(Duration::from_millis(1));
        assert!(ctx.is_expired(), "deadline reached exactly");
        assert!(ctx.should_stop(0));
    }

    #[test]
    fn manual_clock_deadline_measures_from_current_reading() {
        let mc = wsn_obs::ManualClock::new();
        mc.advance(Duration::from_secs(5));
        let ctx = SolveBudget::wall(Duration::from_secs(1))
            .start_with_clock(TimeSource::manual(mc.clone()));
        mc.advance(Duration::from_millis(999));
        assert!(!ctx.is_expired());
        mc.advance(Duration::from_millis(1));
        assert!(ctx.is_expired());
    }

    #[test]
    fn time_source_round_trips_through_the_context() {
        let mc = wsn_obs::ManualClock::new();
        let ctx = SolveBudget::unlimited().start_with_clock(TimeSource::manual(mc.clone()));
        let ts = ctx.time_source();
        mc.advance(Duration::from_nanos(7));
        assert_eq!(ts.now_ns(), 7);
        assert!(ts.is_manual());
    }

    #[test]
    fn fault_kind_display_names() {
        let names: Vec<String> = FAULT_KINDS.iter().map(|k| k.to_string()).collect();
        assert_eq!(names, ["corrupt_pivot", "perturb_rhs", "oracle_timeout", "poison_cut"]);
    }
}
