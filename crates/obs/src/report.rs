//! Trace validation, merging, and the human-readable renderers behind
//! `mrlc-experiments obs-report`.
//!
//! [`validate_trace`] is [`profile_trace`] with no tolerance for damage:
//! the first malformed record line, or any span left open, is an error.
//! [`render_summary`] prints a profile's top-k spans by name and its event
//! tallies; [`merge_traces`] folds per-worker traces into one timeline.

use crate::json::{parse, Json};
use crate::profile::{profile_trace, unit, validate_header, Profile};
use crate::trace::TRACE_SCHEMA_VERSION;
use std::collections::HashMap;

/// Validates `text` as a JSONL trace and returns its profile. Every schema
/// violation is an error naming the offending line, and so is a span left
/// open at the end.
pub fn validate_trace(text: &str) -> Result<Profile, String> {
    let profile = profile_trace(text)?;
    if let Some((_, reason)) = &profile.first_skip {
        return Err(reason.clone());
    }
    if profile.unclosed > 0 {
        return Err(format!("trace ends with {} unclosed span(s)", profile.unclosed));
    }
    Ok(profile)
}

/// Merges per-worker JSONL traces into one deterministic trace.
///
/// The service fleet collects one virtual-clock trace per worker thread;
/// a single merged timeline is what `obs-report` wants to summarize. Each
/// input is `(label, jsonl)` — the label (worker name) is stamped on every
/// merged record as a `"w"` field, which the reader ignores. Records
/// are stably ordered by `(timestamp, input index, line order)`, so the
/// merge of the same traces is byte-identical regardless of how the files
/// were gathered. Span ids are remapped to a fresh sequence per first
/// appearance so ids from different workers never collide; `parent` and
/// event `span` references (always intra-worker) are rewritten to match.
///
/// All inputs must share the same clock kind — merging wall-clock and
/// virtual-tick timelines would interleave incomparable timestamps.
/// The merged header carries a `merged_from` count. Truncated inputs
/// (unclosed spans) merge fine; corrupt record lines are an error naming
/// the offending input and line.
pub fn merge_traces(traces: &[(String, String)]) -> Result<String, String> {
    if traces.is_empty() {
        return Err("nothing to merge: no traces given".to_string());
    }
    let mut clock: Option<String> = None;
    // (t, input index, per-input line order, record)
    let mut records: Vec<(u64, usize, usize, Json)> = Vec::new();
    for (widx, (label, text)) in traces.iter().enumerate() {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| format!("trace {label:?}: empty"))?;
        let this_clock =
            validate_header(header, "trace_header").map_err(|e| format!("trace {label:?}: {e}"))?;
        match &clock {
            None => clock = Some(this_clock),
            Some(c) if *c == this_clock => {}
            Some(c) => {
                return Err(format!(
                    "trace {label:?} uses the {this_clock:?} clock but earlier traces use {c:?}"
                ))
            }
        }
        for (seq, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let lineno = seq + 2;
            let rec = parse(line).map_err(|e| format!("trace {label:?} line {lineno}: {e}"))?;
            let t = rec
                .get("t")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("trace {label:?} line {lineno}: missing integer \"t\""))?;
            records.push((t, widx, seq, rec));
        }
    }
    records.sort_by_key(|(t, widx, seq, _)| (*t, *widx, *seq));

    let mut id_map: HashMap<(usize, u64), u64> = HashMap::new();
    let mut next_id = 1u64;
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"trace_header\",\"schema_version\":{TRACE_SCHEMA_VERSION},\
         \"clock\":\"{}\",\"merged_from\":{}}}\n",
        clock.expect("at least one trace"),
        traces.len()
    ));
    for (_, widx, _, mut rec) in records {
        let kind = rec.get("type").and_then(Json::as_str).unwrap_or("").to_string();
        let remap =
            |id_map: &mut HashMap<(usize, u64), u64>, field: &mut Json| -> Result<(), String> {
                let old = field.as_u64().ok_or_else(|| {
                    format!("trace {:?}: span reference is not an id", traces[widx].0)
                })?;
                let new = id_map.get(&(widx, old)).copied().ok_or_else(|| {
                    format!("trace {:?}: reference to unknown span id {old}", traces[widx].0)
                })?;
                *field = Json::Num(new as f64);
                Ok(())
            };
        if let Json::Obj(fields) = &mut rec {
            for (key, value) in fields.iter_mut() {
                match (kind.as_str(), key.as_str()) {
                    ("span_start", "id") => {
                        let old = value.as_u64().ok_or_else(|| {
                            format!("trace {:?}: span_start id is not an integer", traces[widx].0)
                        })?;
                        let new = next_id;
                        next_id += 1;
                        id_map.insert((widx, old), new);
                        *value = Json::Num(new as f64);
                    }
                    ("span_end", "id") | ("span_start", "parent") | ("event", "span") => {
                        remap(&mut id_map, value)?;
                    }
                    _ => {}
                }
            }
            fields.push(("w".to_string(), Json::Str(traces[widx].0.clone())));
        } else {
            return Err(format!("trace {:?}: record is not an object", traces[widx].0));
        }
        out.push_str(&rec.render());
        out.push('\n');
    }
    Ok(out)
}

/// Renders a profile as a fixed-width table: the top-`top_k` span names by
/// total time plus every event tally. Deterministic for a deterministic
/// trace.
pub fn render_summary(profile: &Profile, top_k: usize) -> String {
    let (unit, note) = unit(&profile.clock);
    let spans = profile.spans();
    let mut out = String::new();
    out.push_str(&format!("trace: {} records, {} clock{note}\n\n", profile.records, profile.clock));
    out.push_str(&format!(
        "{:<28} {:>8} {:>14} {:>14} {:>12}\n",
        "span",
        "count",
        format!("total ({unit})"),
        format!("self ({unit})"),
        "max"
    ));
    for agg in spans.iter().take(top_k) {
        out.push_str(&format!(
            "{:<28} {:>8} {:>14} {:>14} {:>12}\n",
            agg.name, agg.count, agg.total, agg.self_time, agg.max
        ));
    }
    if spans.len() > top_k {
        out.push_str(&format!("... and {} more span name(s)\n", spans.len() - top_k));
    }
    if !profile.events.is_empty() {
        out.push_str(&format!("\n{:<28} {:>8} {:>8}\n", "event", "count", "warns"));
        for agg in &profile.events {
            out.push_str(&format!("{:<28} {:>8} {:>8}\n", agg.name, agg.count, agg.warns));
        }
    }
    out
}

/// Renders a metrics-registry JSON export ([`crate::Registry::to_json`])
/// as fixed-width tables: every counter (the `ira.*` solver effort and
/// `sep.*` cut-pool engine counters included), every gauge, and every
/// histogram with bucket-estimated p50/p90/p99 quantiles.
/// Deterministic — the registry serializes in name order.
pub fn render_metrics(text: &str) -> Result<String, String> {
    let doc = parse(text).map_err(|e| format!("invalid metrics JSON: {e}"))?;
    let section = |key: &str| -> Result<Vec<(String, f64)>, String> {
        match doc.get(key) {
            None => Ok(Vec::new()),
            Some(Json::Obj(entries)) => entries
                .iter()
                .map(|(name, v)| {
                    v.as_f64()
                        .map(|n| (name.clone(), n))
                        .ok_or_else(|| format!("metric {name:?} is not a number"))
                })
                .collect(),
            Some(_) => Err(format!("metrics field {key:?} is not an object")),
        }
    };
    let counters = section("counters")?;
    let gauges = section("gauges")?;
    let histograms = histogram_section(&doc)?;
    let mut out = String::new();
    out.push_str(&format!("{:<28} {:>16}\n", "counter", "value"));
    for (name, value) in &counters {
        out.push_str(&format!("{:<28} {:>16}\n", name, *value as u64));
    }
    if !gauges.is_empty() {
        out.push_str(&format!("\n{:<28} {:>16}\n", "gauge", "value"));
        for (name, value) in &gauges {
            out.push_str(&format!("{:<28} {:>16}\n", name, value));
        }
    }
    if !histograms.is_empty() {
        out.push_str(&format!(
            "\n{:<28} {:>8} {:>12} {:>9} {:>9} {:>9}\n",
            "histogram", "count", "sum", "p50", "p90", "p99"
        ));
        for (name, bounds, counts, sum) in &histograms {
            let count: u64 = counts.iter().sum();
            out.push_str(&format!(
                "{:<28} {:>8} {:>12} {:>9} {:>9} {:>9}\n",
                name,
                count,
                sum,
                histogram_quantile(bounds, counts, 0.50),
                histogram_quantile(bounds, counts, 0.90),
                histogram_quantile(bounds, counts, 0.99),
            ));
        }
    }
    if let Some(digest) = fleet_digest(&counters) {
        out.push('\n');
        out.push_str(&digest);
    }
    Ok(out)
}

/// Parses the `"histograms"` export section into
/// `(name, bounds, per-bucket counts, sum)` rows.
#[allow(clippy::type_complexity)]
fn histogram_section(doc: &Json) -> Result<Vec<(String, Vec<u64>, Vec<u64>, u64)>, String> {
    let entries = match doc.get("histograms") {
        None => return Ok(Vec::new()),
        Some(Json::Obj(entries)) => entries,
        Some(_) => return Err("metrics field \"histograms\" is not an object".to_string()),
    };
    let u64_list = |name: &str, v: Option<&Json>, key: &str| -> Result<Vec<u64>, String> {
        match v {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|x| x.as_u64().ok_or_else(|| format!("histogram {name:?}: bad {key} entry")))
                .collect(),
            _ => Err(format!("histogram {name:?} missing {key:?} array")),
        }
    };
    let mut out = Vec::new();
    for (name, body) in entries {
        let bounds = u64_list(name, body.get("bounds"), "bounds")?;
        let counts = u64_list(name, body.get("counts"), "counts")?;
        if bounds.is_empty() {
            return Err(format!("histogram {name:?} has no bucket bounds"));
        }
        if counts.len() != bounds.len() + 1 {
            return Err(format!("histogram {name:?}: counts/bounds length mismatch"));
        }
        let sum = body
            .get("sum")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("histogram {name:?} missing \"sum\""))?;
        out.push((name.clone(), bounds, counts, sum));
    }
    Ok(out)
}

/// Quantile estimate from fixed buckets: the inclusive upper bound of the
/// bucket containing the `q`-th observation, `">last"` when it falls in
/// the overflow bucket, `"-"` when the histogram is empty.
fn histogram_quantile(bounds: &[u64], counts: &[u64], q: f64) -> String {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return "-".to_string();
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut acc = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        acc += c;
        if acc >= target {
            return match bounds.get(i) {
                Some(b) => format!("<={b}"),
                None => format!(">{}", bounds[bounds.len() - 1]),
            };
        }
    }
    format!(">{}", bounds[bounds.len() - 1])
}

/// Renders a flight-recorder black-box dump
/// ([`crate::ring::FlightRecorder::dump_jsonl`]) as an incident timeline:
/// one line per retained record in ring-sequence order, prefixed by a
/// header naming the trigger, the worker, and how many older records the
/// ring had already overwritten.
pub fn render_postmortem(text: &str) -> Result<String, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty dump: missing blackbox_header line")?;
    let clock = validate_header(header, "blackbox_header")?;
    let h = parse(header)?;
    let reason = h.get("reason").and_then(Json::as_str).unwrap_or("?").to_string();
    let worker = h.get("worker").and_then(Json::as_u64);
    let dropped = h.get("dropped").and_then(Json::as_u64).unwrap_or(0);
    let (unit, _) = unit(&clock);
    let mut out = format!(
        "black box: {reason}{} — {clock} clock, {dropped} older record(s) overwritten\n\n",
        worker.map(|w| format!(" (worker {w})")).unwrap_or_default()
    );
    out.push_str(&format!("{:>6} {:>10}  {:<14} detail\n", "seq", format!("t ({unit})"), "record"));
    let mut rendered = 0usize;
    let mut warns = 0usize;
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let rec = parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let seq = rec
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {lineno}: record missing \"seq\""))?;
        let t = rec
            .get("t")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {lineno}: record missing \"t\""))?;
        let fields = || match rec.get("fields") {
            Some(Json::Obj(kv)) => {
                let pairs: Vec<String> =
                    kv.iter().map(|(k, v)| format!("{k}={}", v.render())).collect();
                format!(" {{{}}}", pairs.join(", "))
            }
            _ => String::new(),
        };
        let name = || rec.get("name").and_then(Json::as_str).unwrap_or("?").to_string();
        let (kind, detail) = match rec.get("type").and_then(Json::as_str) {
            Some("span_start") => {
                let id = rec.get("id").and_then(Json::as_u64).unwrap_or(0);
                let parent = rec
                    .get("parent")
                    .and_then(Json::as_u64)
                    .map(|p| format!(", parent {p}"))
                    .unwrap_or_default();
                ("span_start", format!("{} [id {id}{parent}]{}", name(), fields()))
            }
            Some("span_end") => {
                let id = rec.get("id").and_then(Json::as_u64).unwrap_or(0);
                ("span_end", format!("[id {id}]"))
            }
            Some("event") => {
                let level = rec.get("level").and_then(Json::as_str).unwrap_or("info");
                if level == "warn" {
                    warns += 1;
                    ("event(warn)", format!("{}{}", name(), fields()))
                } else {
                    ("event", format!("{}{}", name(), fields()))
                }
            }
            Some("counter_delta") => {
                let delta = rec.get("delta").and_then(Json::as_u64).unwrap_or(0);
                ("counter", format!("{} +{delta}", name()))
            }
            Some(other) => return Err(format!("line {lineno}: unknown record type {other:?}")),
            None => return Err(format!("line {lineno}: record missing \"type\"")),
        };
        out.push_str(&format!("{seq:>6} {t:>10}  {kind:<14} {detail}\n"));
        rendered += 1;
    }
    out.push_str(&format!("\n{rendered} record(s), {warns} warn(s)\n"));
    Ok(out)
}

/// Rolls the service-fleet (`svc.*`) and degradation-ladder
/// (`resilience.*`) counters up into short prose lines, appended below the
/// raw tables so a fleet run's health reads at a glance. `None` when the
/// export has no fleet counters at all (e.g. a plain solver run).
fn fleet_digest(counters: &[(String, f64)]) -> Option<String> {
    let get = |name: &str| counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v as u64);
    let has_svc = counters.iter().any(|(n, _)| n.starts_with("svc."));
    let has_res = counters.iter().any(|(n, _)| n.starts_with("resilience."));
    if !has_svc && !has_res {
        return None;
    }
    let mut out = String::from("fleet digest\n");
    if has_svc {
        out.push_str(&format!(
            "  svc: {} accepted, {} completed, {} shed, {} retries, {} quarantined \
             ({} hot hits), {} worker restart(s), {} cache hit(s), {} parked\n",
            get("svc.accepted"),
            get("svc.completed"),
            get("svc.shed"),
            get("svc.retries"),
            get("svc.quarantined"),
            get("svc.quarantine_hits"),
            get("svc.worker_restarts"),
            get("svc.cache_hits"),
            get("svc.parked"),
        ));
        // svc.outcome.<tier> counters are dynamic; the registry already
        // serializes name-sorted, so this sub-line is deterministic.
        let outcomes: Vec<String> = counters
            .iter()
            .filter_map(|(n, v)| {
                n.strip_prefix("svc.outcome.").map(|tier| format!("{tier} {}", *v as u64))
            })
            .collect();
        if !outcomes.is_empty() {
            out.push_str(&format!("  svc outcomes: {}\n", outcomes.join(", ")));
        }
    }
    if has_res {
        out.push_str(&format!(
            "  resilience: {} degraded attempt(s), {} checkpoint handback(s)\n",
            get("resilience.degrade"),
            get("resilience.handback"),
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::trace::{event, field, install, span, span_with, warn, Obs};

    fn sample_trace() -> String {
        let obs = Obs::with_trace(Clock::virtual_ticks());
        let guard = install(obs.clone());
        {
            let _outer = span("ira-attempt");
            for i in 0..2usize {
                let _lp = span_with("lp-solve", vec![field("round", i)]);
                event("lp.pivot_batch", vec![field("pivots", 3usize)]);
            }
            let _sep = span("separation");
            warn("lp.cold_fallback", vec![field("reason", "drift")]);
        }
        drop(guard);
        obs.trace_jsonl()
    }

    #[test]
    fn round_trip_validates_and_aggregates() {
        let jsonl = sample_trace();
        let summary = validate_trace(&jsonl).expect("generated trace must validate");
        assert_eq!(summary.clock, "virtual");
        let outer = summary.span("ira-attempt").unwrap();
        assert_eq!(outer.count, 1);
        let lp = summary.span("lp-solve").unwrap();
        assert_eq!(lp.count, 2);
        assert!(outer.total >= lp.total + summary.span("separation").unwrap().total);
        assert!(outer.self_time < outer.total, "children must subtract from self time");
        let fallback = summary.event("lp.cold_fallback").unwrap();
        assert_eq!(fallback.warns, 1);
    }

    #[test]
    fn renderer_mentions_spans_and_events() {
        let summary = validate_trace(&sample_trace()).unwrap();
        let text = render_summary(&summary, 10);
        assert!(text.contains("lp-solve"));
        assert!(text.contains("separation"));
        assert!(text.contains("lp.cold_fallback"));
        assert!(text.contains("virtual clock"));
    }

    #[test]
    fn rejects_missing_header() {
        let err = validate_trace("{\"type\":\"event\",\"t\":1}\n").unwrap_err();
        assert!(err.contains("trace_header"), "{err}");
    }

    #[test]
    fn rejects_bad_records() {
        let header = "{\"type\":\"trace_header\",\"schema_version\":1,\"clock\":\"virtual\"}\n";
        let cases = [
            ("{\"type\":\"span_end\",\"id\":9,\"t\":1}", "unopened"),
            ("{\"type\":\"mystery\",\"t\":1}", "unknown record type"),
            ("{\"type\":\"event\",\"t\":1,\"name\":\"x\",\"level\":\"fatal\"}", "unknown level"),
            ("{\"type\":\"span_start\",\"id\":1,\"t\":1,\"name\":\"a\",\"parent\":7}", "not open"),
        ];
        for (line, want) in cases {
            let err = validate_trace(&format!("{header}{line}\n")).unwrap_err();
            assert!(err.contains(want), "{line} -> {err}");
        }
    }

    #[test]
    fn rejects_unclosed_spans() {
        let text = "{\"type\":\"trace_header\",\"schema_version\":1,\"clock\":\"virtual\"}\n\
                    {\"type\":\"span_start\",\"id\":1,\"t\":1,\"name\":\"a\"}\n";
        let err = validate_trace(text).unwrap_err();
        assert!(err.contains("unclosed"), "{err}");
    }

    #[test]
    fn rejects_time_reversal() {
        let text = "{\"type\":\"trace_header\",\"schema_version\":1,\"clock\":\"virtual\"}\n\
                    {\"type\":\"span_start\",\"id\":1,\"t\":5,\"name\":\"a\"}\n\
                    {\"type\":\"span_end\",\"id\":1,\"t\":3}\n";
        let err = validate_trace(text).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn lenient_skips_and_counts_corrupt_lines() {
        let header = "{\"type\":\"trace_header\",\"schema_version\":1,\"clock\":\"virtual\"}\n";
        let text = format!(
            "{header}\
             {{\"type\":\"span_start\",\"id\":1,\"t\":1,\"name\":\"a\"}}\n\
             {{\"type\":\"event\",\"t\":2,\"name\":\"x\",\"level\":\"fatal\"}}\n\
             garbage not json\n\
             {{\"type\":\"event\",\"t\":3,\"name\":\"x\",\"level\":\"info\"}}\n\
             {{\"type\":\"span_end\",\"id\":1,\"t\":5}}\n"
        );
        assert!(validate_trace(&text).is_err(), "strict reader must reject");
        let lenient = profile_trace(&text).unwrap();
        assert_eq!(lenient.skipped, 2);
        assert_eq!(lenient.unclosed, 0);
        assert_eq!(lenient.first_skip.as_ref().unwrap().0, 3);
        assert_eq!(lenient.span("a").unwrap().total, 4);
        assert_eq!(lenient.event("x").unwrap().count, 1);
    }

    #[test]
    fn lenient_tolerates_truncation() {
        // A trace cut off mid-run: the last span never ends.
        let text = "{\"type\":\"trace_header\",\"schema_version\":1,\"clock\":\"virtual\"}\n\
                    {\"type\":\"span_start\",\"id\":1,\"t\":1,\"name\":\"a\"}\n\
                    {\"type\":\"span_start\",\"id\":2,\"t\":2,\"name\":\"b\"}\n\
                    {\"type\":\"span_end\",\"id\":2,\"t\":3}\n";
        assert!(validate_trace(text).is_err(), "strict reader must reject");
        let lenient = profile_trace(text).unwrap();
        assert_eq!(lenient.skipped, 0);
        assert_eq!(lenient.unclosed, 1);
        assert_eq!(lenient.span("b").unwrap().count, 1);
        assert!(lenient.span("a").is_none(), "partial span time is dropped");
    }

    #[test]
    fn lenient_still_rejects_bad_headers() {
        assert!(profile_trace("").is_err());
        assert!(profile_trace("not json\n").is_err());
        assert!(profile_trace("{\"type\":\"event\",\"t\":1}\n").is_err());
    }

    #[test]
    fn lenient_matches_strict_on_clean_traces() {
        let jsonl = sample_trace();
        let strict = validate_trace(&jsonl).unwrap();
        let lenient = profile_trace(&jsonl).unwrap();
        assert_eq!(lenient.skipped, 0);
        assert_eq!(lenient.unclosed, 0);
        assert_eq!(lenient.records, strict.records);
        assert_eq!(lenient.spans().len(), strict.spans().len());
    }

    #[test]
    fn renders_registry_export_with_engine_counters() {
        let obs = Obs::detached();
        let reg = obs.registry();
        reg.counter("ira.cut_rounds").add(7);
        reg.counter("sep.pool_hits").add(3);
        reg.counter("sep.pool_scans").add(5);
        reg.counter("sep.cuts_batched").add(4);
        reg.counter("sep.seeds_pruned").add(11);
        reg.gauge("lp.rows").set(42);
        let text = render_metrics(&reg.to_json()).unwrap();
        for needle in [
            "ira.cut_rounds",
            "sep.pool_hits",
            "sep.pool_scans",
            "sep.cuts_batched",
            "sep.seeds_pruned",
            "lp.rows",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(text.contains("11"), "counter values render");
    }

    #[test]
    fn render_metrics_rejects_malformed_documents() {
        assert!(render_metrics("not json").is_err());
        assert!(render_metrics("{\"counters\": 3}").is_err());
        assert!(render_metrics("{\"counters\": {\"a\": \"x\"}}").is_err());
    }

    fn worker_trace(spans: &[&str]) -> String {
        let obs = Obs::with_trace(Clock::virtual_ticks());
        let guard = install(obs.clone());
        for name in spans {
            let _s = span(name);
            event("job.done", vec![field("name", *name)]);
        }
        drop(guard);
        obs.trace_jsonl()
    }

    #[test]
    fn merge_produces_a_valid_trace_with_worker_tags() {
        let a = worker_trace(&["solve-a", "solve-b"]);
        let b = worker_trace(&["solve-c"]);
        let merged = merge_traces(&[("w0".to_string(), a), ("w1".to_string(), b)]).unwrap();
        let summary = validate_trace(&merged).expect("merged trace must validate strictly");
        assert_eq!(summary.clock, "virtual");
        assert_eq!(summary.span("solve-a").unwrap().count, 1);
        assert_eq!(summary.span("solve-c").unwrap().count, 1);
        assert_eq!(summary.event("job.done").unwrap().count, 3);
        assert!(merged.contains("\"merged_from\":2"), "{merged}");
        assert!(merged.contains("\"w\":\"w0\"") && merged.contains("\"w\":\"w1\""));
    }

    #[test]
    fn merge_is_deterministic_and_order_stable() {
        // Two workers whose virtual timestamps collide on every tick: the
        // (t, input index, line order) sort must fully decide the layout.
        let a = worker_trace(&["x"]);
        let b = worker_trace(&["y"]);
        let inputs = [("w0".to_string(), a), ("w1".to_string(), b)];
        let once = merge_traces(&inputs).unwrap();
        let twice = merge_traces(&inputs).unwrap();
        assert_eq!(once, twice, "same inputs must merge byte-identically");
        // w0's records win ties, so "x" must appear before "y".
        assert!(once.find("\"x\"").unwrap() < once.find("\"y\"").unwrap());
    }

    #[test]
    fn merge_remaps_colliding_span_ids() {
        // Both single-worker traces start their id sequence at the same
        // point; a naive concatenation would reuse ids.
        let a = worker_trace(&["a"]);
        let b = worker_trace(&["b"]);
        let merged = merge_traces(&[("w0".to_string(), a), ("w1".to_string(), b)]).unwrap();
        let summary = validate_trace(&merged).unwrap();
        assert_eq!(summary.span("a").unwrap().count, 1);
        assert_eq!(summary.span("b").unwrap().count, 1);
    }

    #[test]
    fn merge_preserves_parent_links_within_a_worker() {
        let obs = Obs::with_trace(Clock::virtual_ticks());
        let guard = install(obs.clone());
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        drop(guard);
        let nested = obs.trace_jsonl();
        let flat = worker_trace(&["flat"]);
        let merged = merge_traces(&[("w0".to_string(), nested), ("w1".to_string(), flat)]).unwrap();
        let summary = validate_trace(&merged).unwrap();
        let outer = summary.span("outer").unwrap();
        assert!(outer.self_time < outer.total, "inner must still nest under outer");
    }

    #[test]
    fn merge_rejects_mixed_clocks_and_corrupt_lines() {
        let virt = worker_trace(&["a"]);
        let wall = "{\"type\":\"trace_header\",\"schema_version\":1,\"clock\":\"wall\"}\n";
        let err =
            merge_traces(&[("w0".to_string(), virt.clone()), ("w1".to_string(), wall.to_string())])
                .unwrap_err();
        assert!(err.contains("clock"), "{err}");
        let err = merge_traces(&[(
            "w0".to_string(),
            format!("{}garbage\n", virt.lines().next().unwrap().to_string() + "\n"),
        )])
        .unwrap_err();
        assert!(err.contains("w0") && err.contains("line 2"), "{err}");
        assert!(merge_traces(&[]).is_err());
    }

    #[test]
    fn merged_truncated_traces_stay_reportable() {
        // A crashed worker's trace may end mid-span; the merge keeps it and
        // the profiler accounts for it.
        let healthy = worker_trace(&["ok"]);
        let truncated = "{\"type\":\"trace_header\",\"schema_version\":1,\"clock\":\"virtual\"}\n\
                         {\"type\":\"span_start\",\"id\":1,\"t\":1,\"name\":\"dead\"}\n";
        let merged =
            merge_traces(&[("w0".to_string(), healthy), ("w1".to_string(), truncated.to_string())])
                .unwrap();
        let lenient = profile_trace(&merged).unwrap();
        assert_eq!(lenient.skipped, 0);
        assert_eq!(lenient.unclosed, 1);
        assert_eq!(lenient.span("ok").unwrap().count, 1);
    }

    #[test]
    fn merge_of_empty_input_set_is_rejected() {
        let err = merge_traces(&[]).unwrap_err();
        assert!(err.contains("nothing to merge"), "{err}");
    }

    #[test]
    fn merge_of_a_single_trace_validates_and_is_tagged() {
        let merged = merge_traces(&[("w0".to_string(), worker_trace(&["solo"]))]).unwrap();
        let summary = validate_trace(&merged).expect("single-input merge must validate");
        assert_eq!(summary.span("solo").unwrap().count, 1);
        assert!(merged.contains("\"merged_from\":1"), "{merged}");
        assert!(merged.contains("\"w\":\"w0\""), "{merged}");
    }

    #[test]
    fn merge_tolerates_duplicate_worker_tags() {
        // Two incarnations of the same worker slot legitimately share a
        // label; the (t, input index, line order) sort and the per-input id
        // remap must keep their records apart anyway.
        let a = worker_trace(&["first"]);
        let b = worker_trace(&["second"]);
        let merged = merge_traces(&[("w0".to_string(), a), ("w0".to_string(), b)]).unwrap();
        let summary = validate_trace(&merged).expect("duplicate tags must still merge");
        assert_eq!(summary.span("first").unwrap().count, 1);
        assert_eq!(summary.span("second").unwrap().count, 1);
        assert_eq!(merged.matches("\"w\":\"w0\"").count(), summary.records);
    }

    #[test]
    fn merge_remaps_id_collisions_across_many_workers() {
        // Four workers all start their id sequence at 1 and nest spans, so
        // every raw id collides with every other input. Strict validation
        // of the merge proves the remap kept ids unique and parent links
        // intra-worker.
        let nested = || {
            let obs = Obs::with_trace(Clock::virtual_ticks());
            let guard = install(obs.clone());
            {
                let _outer = span("outer");
                let _inner = span("inner");
            }
            drop(guard);
            obs.trace_jsonl()
        };
        let inputs: Vec<(String, String)> = (0..4).map(|w| (format!("w{w}"), nested())).collect();
        let merged = merge_traces(&inputs).unwrap();
        let summary = validate_trace(&merged).expect("4-way id collision must remap cleanly");
        assert_eq!(summary.span("outer").unwrap().count, 4);
        assert_eq!(summary.span("inner").unwrap().count, 4);
        let outer = summary.span("outer").unwrap();
        assert!(outer.self_time < outer.total, "nesting survives the remap");
    }

    #[test]
    fn render_metrics_reports_every_histogram_quantile() {
        let obs = Obs::detached();
        let reg = obs.registry();
        let h = reg.histogram("svc.latency_solved_ms", &[1, 10, 100]);
        for v in [5u64, 5, 5, 5, 5, 5, 5, 5, 5, 500] {
            h.observe(v);
        }
        let g = reg.histogram("lp.pivots_per_solve", &[4, 16]);
        g.observe(3);
        reg.histogram("empty.hist", &[1]);
        let text = render_metrics(&reg.to_json()).unwrap();
        assert!(text.contains("histogram"), "{text}");
        assert!(text.contains("svc.latency_solved_ms"), "{text}");
        assert!(text.contains("lp.pivots_per_solve"), "{text}");
        let line = text.lines().find(|l| l.contains("svc.latency_solved_ms")).unwrap();
        assert!(line.contains("<=10"), "p50/p90 land in the <=10 bucket: {line}");
        assert!(line.contains(">100"), "p99 lands in the overflow bucket: {line}");
        let empty = text.lines().find(|l| l.contains("empty.hist")).unwrap();
        assert!(empty.contains('-'), "empty histograms render '-': {empty}");
    }

    #[test]
    fn render_metrics_rejects_malformed_histograms() {
        let bad = "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":{\"bounds\":[1],\
                   \"counts\":[0],\"sum\":0,\"count\":0}}}";
        let err = render_metrics(bad).unwrap_err();
        assert!(err.contains("length mismatch"), "{err}");
    }

    #[test]
    fn render_metrics_rejects_a_histogram_without_bounds() {
        let bad = "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":{\"bounds\":[],\
                   \"counts\":[3],\"sum\":7,\"count\":3}}}";
        let err = render_metrics(bad).unwrap_err();
        assert!(err.contains("histogram \"h\" has no bucket bounds"), "{err}");
    }

    #[test]
    fn postmortem_renders_an_incident_timeline() {
        let obs = Obs::with_flight(Clock::virtual_ticks(), 8);
        let guard = install(obs.clone());
        {
            let _job = span_with("svc.job", vec![field("id", 3usize)]);
            warn("lp.cold_fallback", vec![field("reason", "drift")]);
        }
        obs.counter_delta("svc.retries", 1);
        drop(guard);
        let dump = obs.blackbox_jsonl("worker-crash", Some(2)).unwrap();
        let text = render_postmortem(&dump).unwrap();
        assert!(text.contains("black box: worker-crash (worker 2)"), "{text}");
        assert!(text.contains("svc.job"), "{text}");
        assert!(text.contains("event(warn)"), "{text}");
        assert!(text.contains("svc.retries +1"), "{text}");
        assert!(text.contains("1 warn(s)"), "{text}");
    }

    #[test]
    fn postmortem_rejects_traces_and_garbage() {
        let err = render_postmortem(&sample_trace()).unwrap_err();
        assert!(err.contains("blackbox_header"), "{err}");
        assert!(render_postmortem("").is_err());
        assert!(render_postmortem("not json\n").is_err());
    }

    #[test]
    fn metrics_digest_summarizes_fleet_counters() {
        let obs = Obs::detached();
        let reg = obs.registry();
        reg.counter("svc.accepted").add(12);
        reg.counter("svc.completed").add(9);
        reg.counter("svc.shed").add(2);
        reg.counter("svc.quarantined").add(1);
        reg.counter("svc.outcome.exact").add(7);
        reg.counter("svc.outcome.resumed").add(2);
        reg.counter("resilience.degrade").add(3);
        reg.counter("resilience.handback").add(1);
        let text = render_metrics(&reg.to_json()).unwrap();
        assert!(text.contains("fleet digest"), "{text}");
        assert!(text.contains("12 accepted"), "{text}");
        assert!(text.contains("exact 7, resumed 2"), "{text}");
        assert!(text.contains("3 degraded"), "{text}");
        assert!(text.contains("1 checkpoint handback"), "{text}");
    }

    #[test]
    fn metrics_digest_absent_without_fleet_counters() {
        let obs = Obs::detached();
        let reg = obs.registry();
        reg.counter("ira.cut_rounds").add(7);
        let text = render_metrics(&reg.to_json()).unwrap();
        assert!(!text.contains("fleet digest"), "{text}");
    }
}
