//! Flight recorder: a fixed-capacity ring of recent trace records.
//!
//! The ring is the "always on" counterpart to the unbounded trace buffer:
//! it keeps the last `capacity` spans/events/counter deltas at bounded
//! memory and near-zero cost, so that when a worker panics, a request is
//! quarantined, sheds storm, or a budget expires, the supervisor can
//! snapshot the telemetry leading up to the incident into a deterministic
//! JSONL "black box" dump (see [`FlightRecorder::dump_jsonl`]).
//!
//! Writers claim a slot with one atomic `fetch_add` and then lock only
//! that slot, so concurrent writers never contend on a shared lock; the
//! global sequence number doubles as the drop counter (everything older
//! than `head - capacity` has been overwritten).

use crate::trace::{record_json, TraceRecord, TRACE_SCHEMA_VERSION};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One entry in the flight ring: either a full trace record or a counter
/// delta (counters are not part of the span stream, but postmortems want
/// to see which ones moved right before an incident).
#[derive(Clone, Debug)]
pub enum RingRecord {
    /// A span start/end or event, identical to the trace stream.
    Trace(TraceRecord),
    /// A named counter bumped by `delta` at ring time `t`.
    CounterDelta {
        /// Registry counter name.
        name: String,
        /// Amount added.
        delta: u64,
        /// Clock reading when the bump was logged.
        t: u64,
    },
}

/// Fixed-capacity lossy ring buffer of [`RingRecord`]s.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<(u64, RingRecord)>>>,
    head: AtomicU64,
}

impl FlightRecorder {
    /// A ring holding the most recent `capacity` records (capacity is
    /// clamped to at least 1).
    pub fn new(capacity: usize) -> Arc<FlightRecorder> {
        let capacity = capacity.max(1);
        Arc::new(FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        })
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Appends a record, overwriting the oldest when full.
    pub fn push(&self, rec: RingRecord) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % self.slots.len() as u64) as usize;
        let mut slot = self.slots[idx].lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some((seq, rec));
    }

    /// The retained records in sequence order, plus how many older records
    /// were overwritten before the snapshot.
    pub fn snapshot(&self) -> (Vec<(u64, RingRecord)>, u64) {
        let mut out: Vec<(u64, RingRecord)> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let g = slot.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((seq, rec)) = g.as_ref() {
                out.push((*seq, rec.clone()));
            }
        }
        out.sort_by_key(|(seq, _)| *seq);
        let dropped = self.pushed().saturating_sub(out.len() as u64);
        (out, dropped)
    }

    /// Serializes the retained records as a black-box JSONL dump: a
    /// `blackbox_header` line followed by one record per line in sequence
    /// order, each carrying its global `seq`. With a virtual clock and a
    /// seeded workload the dump is byte-identical across runs.
    pub fn dump_jsonl(&self, clock_kind: &str, reason: &str, worker: Option<usize>) -> String {
        let (records, dropped) = self.snapshot();
        let mut out = format!(
            "{{\"type\":\"blackbox_header\",\"schema_version\":{},\"clock\":{},\"reason\":{}",
            TRACE_SCHEMA_VERSION,
            crate::json::json_string(clock_kind),
            crate::json::json_string(reason)
        );
        if let Some(w) = worker {
            out.push_str(&format!(",\"worker\":{w}"));
        }
        out.push_str(&format!(",\"records\":{},\"dropped\":{dropped}}}\n", records.len()));
        for (seq, rec) in &records {
            match rec {
                RingRecord::Trace(tr) => {
                    // Splice the seq into the record object: record_json
                    // always emits `{"type":...}`, so drop its `{`.
                    let body = record_json(tr);
                    out.push_str(&format!("{{\"seq\":{seq},{}", &body[1..]));
                }
                RingRecord::CounterDelta { name, delta, t } => {
                    out.push_str(&format!(
                        "{{\"seq\":{seq},\"type\":\"counter_delta\",\"t\":{t},\"name\":{},\"delta\":{delta}}}",
                        crate::json::json_string(name)
                    ));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FieldValue, Level};

    fn ev(name: &str, t: u64) -> RingRecord {
        RingRecord::Trace(TraceRecord::Event {
            span: None,
            name: name.to_string(),
            t,
            level: Level::Info,
            fields: Vec::<(String, FieldValue)>::new(),
        })
    }

    #[test]
    fn ring_keeps_the_newest_records() {
        let fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.push(ev(&format!("e{i}"), i));
        }
        let (records, dropped) = fr.snapshot();
        assert_eq!(dropped, 2);
        let seqs: Vec<u64> = records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn dump_has_header_and_seq_ordered_lines() {
        let fr = FlightRecorder::new(4);
        fr.push(ev("first", 1));
        fr.push(RingRecord::CounterDelta { name: "svc.shed".to_string(), delta: 2, t: 2 });
        let dump = fr.dump_jsonl("virtual", "worker-crash", Some(1));
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3, "{dump}");
        assert!(lines[0].contains("\"type\":\"blackbox_header\""), "{}", lines[0]);
        assert!(lines[0].contains("\"reason\":\"worker-crash\""), "{}", lines[0]);
        assert!(lines[0].contains("\"worker\":1"), "{}", lines[0]);
        assert!(lines[0].contains("\"records\":2"), "{}", lines[0]);
        assert!(lines[0].contains("\"dropped\":0"), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"seq\":0,\"type\":\"event\""), "{}", lines[1]);
        assert!(lines[2].contains("\"type\":\"counter_delta\""), "{}", lines[2]);
        assert!(lines[2].contains("\"name\":\"svc.shed\""), "{}", lines[2]);
    }

    #[test]
    fn dump_is_deterministic_for_identical_pushes() {
        let mk = || {
            let fr = FlightRecorder::new(8);
            for i in 0..12u64 {
                fr.push(ev("tick", i));
            }
            fr.dump_jsonl("virtual", "shed-storm", None)
        };
        assert_eq!(mk(), mk());
        assert!(mk().lines().next().unwrap().contains("\"dropped\":4"));
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let fr = FlightRecorder::new(0);
        assert_eq!(fr.capacity(), 1);
        fr.push(ev("only", 1));
        assert_eq!(fr.snapshot().0.len(), 1);
    }
}
