//! Structured spans and events with an ambient per-thread collector.
//!
//! An [`Obs`] bundles a [`Clock`], a metrics [`Registry`], and (optionally)
//! a trace buffer. Installing one with [`install`] makes it the ambient
//! collector for the current thread; library code calls [`current`],
//! [`span`], and [`event`] without threading a handle through every
//! signature. Worker threads spawned by `wsn_util::parallel_map` do *not*
//! inherit the ambient collector — by design: events from racing workers
//! would destroy byte-stability. Workers may only bump [`Counter`] handles
//! (whose final sums are schedule-independent).
//!
//! When no collector is installed, [`span`]/[`event`] are cheap no-ops and
//! instrumented code that needs counters regardless (e.g. `CutLp`) creates
//! a private detached `Obs`.

use crate::clock::Clock;
use crate::json::json_string;
use crate::metrics::{Counter, Registry};
use crate::ring::{FlightRecorder, RingRecord};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Trace schema version emitted in the header line and checked by the
/// validator in `report`.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Event severity. `Warn` marks anomalies (cold fallbacks, failed hops,
/// heartbeat divergences) that a summary should surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    Info,
    Warn,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// A typed key-value field attached to a span or event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One JSONL trace record.
#[derive(Clone, Debug)]
pub enum TraceRecord {
    SpanStart {
        id: u64,
        parent: Option<u64>,
        name: String,
        t: u64,
        fields: Vec<(String, FieldValue)>,
    },
    SpanEnd {
        id: u64,
        t: u64,
    },
    Event {
        span: Option<u64>,
        name: String,
        t: u64,
        level: Level,
        fields: Vec<(String, FieldValue)>,
    },
}

/// Observability context: clock + metrics registry + optional trace buffer
/// + optional flight-recorder ring.
pub struct Obs {
    clock: Clock,
    registry: Registry,
    trace: Option<Mutex<Vec<TraceRecord>>>,
    flight: Option<Arc<FlightRecorder>>,
    next_span_id: AtomicU64,
}

impl Obs {
    /// Collector that records a trace using the given clock.
    pub fn with_trace(clock: Clock) -> Arc<Obs> {
        Arc::new(Obs {
            clock,
            registry: Registry::new(),
            trace: Some(Mutex::new(Vec::new())),
            flight: None,
            next_span_id: AtomicU64::new(1),
        })
    }

    /// Collector whose only record sink is a fixed-capacity flight ring:
    /// spans and events land in the ring (newest `capacity` retained),
    /// never in an unbounded buffer — the "always on" black-box mode.
    pub fn with_flight(clock: Clock, capacity: usize) -> Arc<Obs> {
        Arc::new(Obs {
            clock,
            registry: Registry::new(),
            trace: None,
            flight: Some(FlightRecorder::new(capacity)),
            next_span_id: AtomicU64::new(1),
        })
    }

    /// Full trace buffer *and* a flight ring: every record goes to both.
    pub fn with_trace_and_flight(clock: Clock, capacity: usize) -> Arc<Obs> {
        Arc::new(Obs {
            clock,
            registry: Registry::new(),
            trace: Some(Mutex::new(Vec::new())),
            flight: Some(FlightRecorder::new(capacity)),
            next_span_id: AtomicU64::new(1),
        })
    }

    /// Metrics-only context: counters and gauges work, span/event calls are
    /// dropped. This is what instrumented code falls back to when nothing
    /// is installed, so counter reads always have a home.
    pub fn detached() -> Arc<Obs> {
        Arc::new(Obs {
            clock: Clock::wall(),
            registry: Registry::new(),
            trace: None,
            flight: None,
            next_span_id: AtomicU64::new(1),
        })
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trace clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// True if this context buffers trace records.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The flight ring, when one is armed.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// True if spans/events have at least one sink (trace buffer or ring).
    fn collecting(&self) -> bool {
        self.trace.is_some() || self.flight.is_some()
    }

    fn record(&self, rec: TraceRecord) {
        match (&self.flight, &self.trace) {
            (Some(ring), Some(trace)) => {
                ring.push(RingRecord::Trace(rec.clone()));
                trace.lock().unwrap().push(rec);
            }
            (Some(ring), None) => ring.push(RingRecord::Trace(rec)),
            (None, Some(trace)) => trace.lock().unwrap().push(rec),
            (None, None) => {}
        }
    }

    /// Bumps counter `name` on this registry and, when the flight ring is
    /// armed, logs the delta into the ring with a clock stamp so
    /// postmortems can see which counters moved before an incident.
    pub fn counter_delta(&self, name: &str, delta: u64) {
        self.registry.counter(name).add(delta);
        if let Some(ring) = &self.flight {
            ring.push(RingRecord::CounterDelta {
                name: name.to_string(),
                delta,
                t: self.clock.now(),
            });
        }
    }

    /// Records an unparented event directly on this collector (no ambient
    /// install required) — used by admission paths whose calling threads
    /// never install the service collector.
    pub fn emit_event(&self, level: Level, name: &str, fields: Vec<(String, FieldValue)>) {
        if !self.collecting() {
            return;
        }
        let t = self.clock.now();
        self.record(TraceRecord::Event { span: None, name: name.to_string(), t, level, fields });
    }

    /// Serializes the flight ring as a black-box JSONL dump, or `None`
    /// when no ring is armed. See [`FlightRecorder::dump_jsonl`].
    pub fn blackbox_jsonl(&self, reason: &str, worker: Option<usize>) -> Option<String> {
        self.flight.as_ref().map(|ring| ring.dump_jsonl(self.clock.kind(), reason, worker))
    }

    /// Serializes the buffered trace as JSONL: a header line followed by
    /// one record per line, in emission order.
    pub fn trace_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"trace_header\",\"schema_version\":{},\"clock\":{}}}\n",
            TRACE_SCHEMA_VERSION,
            json_string(self.clock.kind())
        );
        if let Some(trace) = &self.trace {
            for rec in trace.lock().unwrap().iter() {
                out.push_str(&record_json(rec));
                out.push('\n');
            }
        }
        out
    }
}

pub(crate) fn record_json(rec: &TraceRecord) -> String {
    match rec {
        TraceRecord::SpanStart { id, parent, name, t, fields } => {
            let mut s = format!("{{\"type\":\"span_start\",\"id\":{id},\"t\":{t}");
            if let Some(p) = parent {
                s.push_str(&format!(",\"parent\":{p}"));
            }
            s.push_str(&format!(",\"name\":{}", json_string(name)));
            push_fields(&mut s, fields);
            s.push('}');
            s
        }
        TraceRecord::SpanEnd { id, t } => {
            format!("{{\"type\":\"span_end\",\"id\":{id},\"t\":{t}}}")
        }
        TraceRecord::Event { span, name, t, level, fields } => {
            let mut s = format!("{{\"type\":\"event\",\"t\":{t}");
            if let Some(sp) = span {
                s.push_str(&format!(",\"span\":{sp}"));
            }
            s.push_str(&format!(
                ",\"name\":{},\"level\":{}",
                json_string(name),
                json_string(level.as_str())
            ));
            push_fields(&mut s, fields);
            s.push('}');
            s
        }
    }
}

fn push_fields(s: &mut String, fields: &[(String, FieldValue)]) {
    if fields.is_empty() {
        return;
    }
    s.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&json_string(k));
        s.push(':');
        match v {
            FieldValue::U64(n) => s.push_str(&n.to_string()),
            FieldValue::I64(n) => s.push_str(&n.to_string()),
            FieldValue::F64(x) => s.push_str(&json_f64(*x)),
            FieldValue::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            FieldValue::Str(t) => s.push_str(&json_string(t)),
        }
    }
    s.push('}');
}

/// Formats an `f64` as JSON: finite values use Rust's shortest round-trip
/// repr (deterministic), non-finite values become `null`.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // Bare integers like "3" are valid JSON numbers but ambiguous to
        // typed readers; keep them as-is (the parser treats all numbers
        // as f64 anyway).
        s
    } else {
        "null".to_string()
    }
}

thread_local! {
    static AMBIENT: RefCell<Vec<Arc<Obs>>> = const { RefCell::new(Vec::new()) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Makes `obs` the ambient collector for this thread until the returned
/// guard drops. Installs nest: the previous collector is restored.
pub fn install(obs: Arc<Obs>) -> InstallGuard {
    AMBIENT.with(|a| a.borrow_mut().push(obs));
    InstallGuard { _priv: () }
}

/// Restores the previously installed collector on drop.
pub struct InstallGuard {
    _priv: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        AMBIENT.with(|a| {
            a.borrow_mut().pop();
        });
    }
}

/// The ambient collector for this thread, if one is installed.
pub fn current() -> Option<Arc<Obs>> {
    AMBIENT.with(|a| a.borrow().last().cloned())
}

/// The ambient collector, or a fresh detached (metrics-only) one.
pub fn current_or_detached() -> Arc<Obs> {
    current().unwrap_or_else(Obs::detached)
}

/// Counter handle on the ambient registry; detached if none is installed
/// (the bumps then go nowhere observable, but stay valid and cheap).
pub fn counter(name: &str) -> Counter {
    current_or_detached().registry().counter(name)
}

/// Opens a span on the ambient collector. No-op (and allocation-free on the
/// trace buffer) when nothing is installed or tracing is disabled.
pub fn span(name: &str) -> SpanGuard {
    span_with(name, Vec::new())
}

/// [`span`] with attached key-value fields.
pub fn span_with(name: &str, fields: Vec<(String, FieldValue)>) -> SpanGuard {
    let Some(obs) = current() else {
        return SpanGuard { active: None };
    };
    if !obs.collecting() {
        return SpanGuard { active: None };
    }
    let id = obs.next_span_id.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    let t = obs.clock.now();
    obs.record(TraceRecord::SpanStart { id, parent, name: name.to_string(), t, fields });
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard { active: Some((obs, id)) }
}

/// Closes its span on drop.
pub struct SpanGuard {
    active: Option<(Arc<Obs>, u64)>,
}

impl SpanGuard {
    /// Span id, if a collector recorded this span.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|(_, id)| *id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((obs, id)) = self.active.take() {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack.last() == Some(&id) {
                    stack.pop();
                } else {
                    // Out-of-order drop (guards held across moves); remove
                    // wherever it is so parenting stays sane.
                    stack.retain(|&x| x != id);
                }
            });
            let t = obs.clock.now();
            obs.record(TraceRecord::SpanEnd { id, t });
        }
    }
}

/// Emits an info event on the ambient collector (no-op when none).
pub fn event(name: &str, fields: Vec<(String, FieldValue)>) {
    emit(Level::Info, name, fields);
}

/// Emits a warn event on the ambient collector (no-op when none).
pub fn warn(name: &str, fields: Vec<(String, FieldValue)>) {
    emit(Level::Warn, name, fields);
}

fn emit(level: Level, name: &str, fields: Vec<(String, FieldValue)>) {
    let Some(obs) = current() else { return };
    if !obs.collecting() {
        return;
    }
    let span = SPAN_STACK.with(|s| s.borrow().last().copied());
    let t = obs.clock.now();
    obs.record(TraceRecord::Event { span, name: name.to_string(), t, level, fields });
}

/// Builds a field list tersely: `fields![("k", 3usize), ("s", "x")]` is
/// provided as a function because the vendored toolchain keeps macros out
/// of public APIs.
pub fn field(key: &str, value: impl Into<FieldValue>) -> (String, FieldValue) {
    (key.to_string(), value.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_ambient_means_noop() {
        assert!(current().is_none());
        let g = span("orphan");
        assert!(g.id().is_none());
        event("nothing", vec![]);
        drop(g);
    }

    #[test]
    fn spans_nest_and_events_attach() {
        let obs = Obs::with_trace(Clock::virtual_ticks());
        let guard = install(obs.clone());
        {
            let outer = span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = span_with("inner", vec![field("k", 7usize)]);
                assert_ne!(inner.id().unwrap(), outer_id);
                event("hello", vec![field("x", true)]);
            }
            warn("anomaly", vec![]);
        }
        drop(guard);
        let jsonl = obs.trace_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 7, "header + 2 starts + 2 events + 2 ends: {jsonl}");
        assert!(lines[0].contains("\"type\":\"trace_header\""));
        assert!(lines[0].contains("\"clock\":\"virtual\""));
        assert!(lines[2].contains("\"parent\":1"), "inner parents to outer: {}", lines[2]);
        assert!(lines[3].contains("\"span\":2"), "event attaches to inner: {}", lines[3]);
        assert!(lines[5].contains("\"level\":\"warn\""));
    }

    #[test]
    fn virtual_clock_traces_are_byte_identical() {
        let run = || {
            let obs = Obs::with_trace(Clock::virtual_ticks());
            let guard = install(obs.clone());
            for i in 0..3usize {
                let _s = span_with("work", vec![field("i", i)]);
                event("tick", vec![]);
            }
            drop(guard);
            obs.trace_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn install_nests_and_restores() {
        let a = Obs::with_trace(Clock::virtual_ticks());
        let b = Obs::with_trace(Clock::virtual_ticks());
        let ga = install(a.clone());
        {
            let gb = install(b.clone());
            event("to-b", vec![]);
            drop(gb);
        }
        event("to-a", vec![]);
        drop(ga);
        assert!(a.trace_jsonl().contains("to-a"));
        assert!(!a.trace_jsonl().contains("to-b"));
        assert!(b.trace_jsonl().contains("to-b"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn flight_only_collector_records_spans_into_the_ring() {
        let obs = Obs::with_flight(Clock::virtual_ticks(), 16);
        assert!(!obs.tracing_enabled(), "no unbounded buffer in flight-only mode");
        let guard = install(obs.clone());
        {
            let outer = span("job");
            assert!(outer.id().is_some(), "flight arming keeps spans live");
            event("inside", vec![field("k", 1usize)]);
        }
        obs.counter_delta("svc.completed", 1);
        drop(guard);
        assert_eq!(obs.registry().counter("svc.completed").get(), 1);
        let dump = obs.blackbox_jsonl("unit-test", Some(0)).unwrap();
        assert!(dump.contains("\"type\":\"blackbox_header\""), "{dump}");
        assert!(dump.contains("\"name\":\"job\""), "{dump}");
        assert!(dump.contains("\"type\":\"counter_delta\""), "{dump}");
        // Same pushes, same bytes: the dump is deterministic.
        assert!(obs.trace_jsonl().lines().count() == 1, "trace stays header-only");
    }

    #[test]
    fn trace_and_flight_both_receive_records() {
        let obs = Obs::with_trace_and_flight(Clock::virtual_ticks(), 4);
        let guard = install(obs.clone());
        {
            let _s = span("dual");
        }
        drop(guard);
        assert!(obs.trace_jsonl().contains("\"name\":\"dual\""));
        assert!(obs.blackbox_jsonl("x", None).unwrap().contains("\"name\":\"dual\""));
    }

    #[test]
    fn detached_counters_work() {
        let obs = Obs::detached();
        obs.registry().counter("x").add(3);
        assert_eq!(obs.registry().counter("x").get(), 3);
        assert!(!obs.tracing_enabled());
    }
}
