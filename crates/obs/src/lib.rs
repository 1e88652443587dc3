//! `wsn-obs` — zero-dependency tracing and metrics for the MRLC workspace.
//!
//! Three layers, one crate:
//!
//! * **Spans & events** ([`trace`]): nested spans with key-value fields,
//!   emitted to an ambient per-thread collector installed with
//!   [`install`]. A [`Clock::virtual_ticks`] clock makes traces byte-stable
//!   under a fixed seed; [`Clock::wall`] gives real timings.
//! * **Metrics** ([`metrics`]): a name-keyed registry of counters, gauges,
//!   and fixed-bucket histograms whose handles are plain `Arc`-atomics —
//!   cheap enough for the parallel separation workers, which must never
//!   emit ordered records but may bump schedule-independent sums.
//! * **Export & reporting** ([`trace::Obs::trace_jsonl`], [`profile`],
//!   [`report`]): JSONL traces and one reader of them. [`profile_trace`]
//!   replays span nesting once, checking every record and counting
//!   damage; the strict validator, the `obs-report` summary (per-span
//!   self/total time, top-k hot spans) and the hotspot profiler (self
//!   time by span path, top-K tables, flamegraph-compatible folded
//!   stacks) are all views of its [`Profile`].
//!
//! A fixed-capacity **flight recorder** ([`ring`]) rides on the span
//! stream too, keeping the newest records at bounded cost for black-box
//! postmortem dumps.
//!
//! The crate is std-only so it works in the offline build environment,
//! mirroring `wsn-util`.

pub mod clock;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod ring;
pub mod trace;

pub use clock::{Clock, ManualClock, TimeSource};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use profile::{profile_trace, EventAgg, HotPath, Profile, SpanAgg};
pub use report::{merge_traces, render_metrics, render_postmortem, render_summary, validate_trace};
pub use ring::{FlightRecorder, RingRecord};
pub use trace::{
    counter, current, current_or_detached, event, field, install, span, span_with, warn,
    FieldValue, InstallGuard, Level, Obs, SpanGuard, TraceRecord, TRACE_SCHEMA_VERSION,
};
