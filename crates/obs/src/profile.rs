//! The one reader of the JSONL span stream.
//!
//! [`profile_trace`] replays a trace's span nesting once and aggregates
//! time by *span path* — the stack of span names from the root to the
//! span — rather than by bare name, so `ira-attempt;lp-solve;lp-primal`
//! is attributed separately from a hypothetical `lp-primal` reached some
//! other way. Per path it keeps the instance count, total (end − start)
//! time, self time (total minus time covered by child spans) and the
//! largest instance; per event name it keeps the count and the warns.
//!
//! Every record line is checked against the schema [`crate::trace`]
//! emits: timestamps never decrease, span ids are unique, a parent must
//! be open, levels are `info` or `warn`, and an event's span must be
//! open. A line that fails is skipped and counted, and spans still open
//! at the end are counted, so a truncated or damaged trace still
//! profiles; [`crate::validate_trace`] turns either into an error. Only a
//! missing or malformed header is fatal here.
//!
//! A profile renders three ways: a top-K hotspot table
//! ([`Profile::render`]), flamegraph-compatible folded stacks
//! ([`Profile::folded`], one `a;b;c value` line per path, consumable by
//! `flamegraph.pl` or `inferno`), and the by-name `obs-report` summary
//! ([`crate::render_summary`]).

use crate::json::{parse, Json};
use crate::trace::TRACE_SCHEMA_VERSION;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Aggregate over every span instance sharing one root-to-leaf name path.
#[derive(Clone, Debug)]
pub struct HotPath {
    /// Span names from root to this span.
    pub path: Vec<String>,
    /// Instances closed on this path.
    pub count: u64,
    /// Sum of (end − start) over the instances.
    pub total: u64,
    /// Total minus time covered by child spans.
    pub self_time: u64,
    /// Largest single instance.
    pub max: u64,
}

/// Aggregate over every span with the same name, whatever its path: a
/// by-name view of [`Profile::paths`].
#[derive(Clone, Debug)]
pub struct SpanAgg {
    pub name: String,
    pub count: u64,
    /// Sum of (end − start) over all instances.
    pub total: u64,
    /// Total minus time covered by child spans.
    pub self_time: u64,
    /// Largest single instance.
    pub max: u64,
}

/// Aggregate over every event with the same name.
#[derive(Clone, Debug)]
pub struct EventAgg {
    pub name: String,
    pub count: u64,
    pub warns: u64,
}

/// A replayed trace: path-keyed span aggregates and event tallies, plus an
/// account of what had to be dropped to get them.
#[derive(Clone, Debug)]
pub struct Profile {
    /// `"wall"` (nanoseconds) or `"virtual"` (one tick per record).
    pub clock: String,
    /// Path-sorted aggregates (lexicographic on the path).
    pub paths: Vec<HotPath>,
    /// Sorted by name.
    pub events: Vec<EventAgg>,
    /// Record lines that passed every check (header excluded).
    pub records: usize,
    /// Malformed record lines skipped.
    pub skipped: usize,
    /// Line number and reason of the first skip, for diagnostics.
    pub first_skip: Option<(usize, String)>,
    /// Spans still open at end of input — the signature of a truncated
    /// file. Their partial time is dropped, not guessed.
    pub unclosed: usize,
}

struct OpenSpan {
    path: Vec<String>,
    start: u64,
    parent: Option<u64>,
    child_time: u64,
}

/// What the replay has open and what it has folded in so far.
#[derive(Default)]
struct Replay {
    open: HashMap<u64, OpenSpan>,
    seen_ids: HashSet<u64>,
    paths: BTreeMap<Vec<String>, HotPath>,
    events: BTreeMap<String, EventAgg>,
    last_t: u64,
}

impl Replay {
    /// Checks and folds in one record line. On error the state may have
    /// absorbed part of the record (its timestamp, its span id), so a
    /// damaged line still constrains the lines after it.
    fn apply(&mut self, lineno: usize, line: &str) -> Result<(), String> {
        let rec = parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if !rec.is_obj() {
            return Err(format!("line {lineno}: record is not an object"));
        }
        let t = rec
            .get("t")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {lineno}: missing integer \"t\""))?;
        if t < self.last_t {
            return Err(format!(
                "line {lineno}: timestamp {t} goes backwards (last {})",
                self.last_t
            ));
        }
        self.last_t = t;
        if let Some(fields) = rec.get("fields") {
            if !fields.is_obj() {
                return Err(format!("line {lineno}: \"fields\" must be an object"));
            }
        }
        match rec.get("type").and_then(Json::as_str) {
            Some("span_start") => {
                let id = rec
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("line {lineno}: span_start missing id"))?;
                if !self.seen_ids.insert(id) {
                    return Err(format!("line {lineno}: span id {id} reused"));
                }
                let name = rec
                    .get("name")
                    .and_then(Json::as_str)
                    .filter(|n| !n.is_empty())
                    .ok_or_else(|| format!("line {lineno}: span_start missing name"))?;
                let (parent, mut path) = match rec.get("parent") {
                    None => (None, Vec::new()),
                    Some(p) => {
                        let pid = p
                            .as_u64()
                            .ok_or_else(|| format!("line {lineno}: parent must be an id"))?;
                        let parent = self.open.get(&pid).ok_or_else(|| {
                            format!("line {lineno}: parent span {pid} is not open")
                        })?;
                        (Some(pid), parent.path.clone())
                    }
                };
                path.push(name.to_string());
                self.open.insert(id, OpenSpan { path, start: t, parent, child_time: 0 });
            }
            Some("span_end") => {
                let id = rec
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("line {lineno}: span_end missing id"))?;
                let span = self
                    .open
                    .remove(&id)
                    .ok_or_else(|| format!("line {lineno}: span_end for unopened span {id}"))?;
                let dur = t - span.start;
                if let Some(parent) = span.parent.and_then(|p| self.open.get_mut(&p)) {
                    parent.child_time += dur;
                }
                let agg = self.paths.entry(span.path).or_insert_with_key(|path| HotPath {
                    path: path.clone(),
                    count: 0,
                    total: 0,
                    self_time: 0,
                    max: 0,
                });
                agg.count += 1;
                agg.total += dur;
                agg.self_time += dur.saturating_sub(span.child_time);
                agg.max = agg.max.max(dur);
            }
            Some("event") => {
                let name = rec
                    .get("name")
                    .and_then(Json::as_str)
                    .filter(|n| !n.is_empty())
                    .ok_or_else(|| format!("line {lineno}: event missing name"))?;
                let level = rec
                    .get("level")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {lineno}: event missing level"))?;
                if !matches!(level, "info" | "warn") {
                    return Err(format!("line {lineno}: unknown level {level:?}"));
                }
                if let Some(sp) = rec.get("span") {
                    let sid = sp
                        .as_u64()
                        .ok_or_else(|| format!("line {lineno}: \"span\" must be an id"))?;
                    if !self.open.contains_key(&sid) {
                        return Err(format!("line {lineno}: event references closed span {sid}"));
                    }
                }
                let agg = self.events.entry(name.to_string()).or_insert_with_key(|name| EventAgg {
                    name: name.clone(),
                    count: 0,
                    warns: 0,
                });
                agg.count += 1;
                if level == "warn" {
                    agg.warns += 1;
                }
            }
            Some(other) => return Err(format!("line {lineno}: unknown record type {other:?}")),
            None => return Err(format!("line {lineno}: record missing \"type\"")),
        }
        Ok(())
    }
}

/// Checks the header line of a `kind` document (`trace_header` or
/// `blackbox_header`) and returns its clock. A file without a well-formed
/// header is not a trace, so every reader rejects it.
pub(crate) fn validate_header(line: &str, kind: &str) -> Result<String, String> {
    let header = parse(line).map_err(|e| format!("line 1: {e}"))?;
    if header.get("type").and_then(Json::as_str) != Some(kind) {
        return Err(format!("line 1: first record must be a {kind}"));
    }
    match header.get("schema_version").and_then(Json::as_u64) {
        Some(TRACE_SCHEMA_VERSION) => {}
        Some(v) => return Err(format!("line 1: unsupported schema_version {v}")),
        None => return Err(format!("line 1: {kind} missing schema_version")),
    }
    match header.get("clock").and_then(Json::as_str) {
        Some(c @ ("wall" | "virtual")) => Ok(c.to_string()),
        Some(c) => Err(format!("line 1: unknown clock {c:?}")),
        None => Err(format!("line 1: {kind} missing clock")),
    }
}

/// The unit of a duration on `clock`, and a title-line note saying what it
/// measures. The virtual clock ticks once per record, so there a duration
/// counts trace records, not time.
pub(crate) fn unit(clock: &str) -> (&'static str, &'static str) {
    if clock == "virtual" {
        ("records", "; durations count trace records, not time")
    } else {
        ("ns", "")
    }
}

/// Profiles `text` (a JSONL trace from [`crate::Obs::trace_jsonl`] or a
/// [`crate::merge_traces`] output). Lenient on record lines — damage is
/// counted, not fatal — but a missing or malformed header is an error.
pub fn profile_trace(text: &str) -> Result<Profile, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty trace: missing header line")?;
    let clock = validate_header(header, "trace_header")?;
    let mut replay = Replay::default();
    let (mut records, mut skipped, mut first_skip) = (0, 0, None);
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        match replay.apply(idx + 1, line) {
            Ok(()) => records += 1,
            Err(reason) => {
                skipped += 1;
                first_skip.get_or_insert((idx + 1, reason));
            }
        }
    }
    Ok(Profile {
        clock,
        paths: replay.paths.into_values().collect(),
        events: replay.events.into_values().collect(),
        records,
        skipped,
        first_skip,
        unclosed: replay.open.len(),
    })
}

impl Profile {
    /// Per-name aggregates over every path ending in that name, sorted by
    /// total time descending, then name.
    pub(crate) fn spans(&self) -> Vec<SpanAgg> {
        let mut by_name: BTreeMap<&str, SpanAgg> = BTreeMap::new();
        for p in &self.paths {
            let name = p.path.last().expect("a path names at least one span");
            let agg = by_name.entry(name).or_insert_with(|| SpanAgg {
                name: name.clone(),
                count: 0,
                total: 0,
                self_time: 0,
                max: 0,
            });
            agg.count += p.count;
            agg.total += p.total;
            agg.self_time += p.self_time;
            agg.max = agg.max.max(p.max);
        }
        let mut spans: Vec<SpanAgg> = by_name.into_values().collect();
        spans.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.name.cmp(&b.name)));
        spans
    }

    /// Aggregate for one span name, if any such span closed.
    pub fn span(&self, name: &str) -> Option<SpanAgg> {
        self.spans().into_iter().find(|s| s.name == name)
    }

    /// Aggregate for one event name, if present.
    pub fn event(&self, name: &str) -> Option<&EventAgg> {
        self.events.iter().find(|e| e.name == name)
    }

    /// Sum of self time over every path (the profiled "wall" of the trace).
    pub fn total_self(&self) -> u64 {
        self.paths.iter().map(|p| p.self_time).sum()
    }

    /// Fraction of the total time of spans named `name` that is covered by
    /// their direct child spans — i.e. how much of the stage is attributed
    /// to named sub-stages. `None` when no such span closed (or its total
    /// is zero).
    pub fn attributed_fraction(&self, name: &str) -> Option<f64> {
        let total: u64 = self
            .paths
            .iter()
            .filter(|p| p.path.last().map(String::as_str) == Some(name))
            .map(|p| p.total)
            .sum();
        if total == 0 {
            return None;
        }
        let children: u64 = self
            .paths
            .iter()
            .filter(|p| p.path.len() >= 2 && p.path[p.path.len() - 2] == name)
            .map(|p| p.total)
            .sum();
        Some(children as f64 / total as f64)
    }

    /// Folded-stack text: one `root;child;leaf self_time` line per path in
    /// lexicographic path order — the flamegraph collapse format.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            out.push_str(&format!("{} {}\n", p.path.join(";"), p.self_time));
        }
        out
    }

    /// Top-`top_k` hotspot table, ranked by self time descending (path
    /// lexicographic on ties). Deterministic for a deterministic trace.
    pub fn render(&self, top_k: usize) -> String {
        let (unit, note) = unit(&self.clock);
        let total_self = self.total_self().max(1);
        let mut ranked: Vec<&HotPath> = self.paths.iter().collect();
        ranked.sort_by(|a, b| b.self_time.cmp(&a.self_time).then_with(|| a.path.cmp(&b.path)));
        let mut out = format!(
            "hotspots: {} path(s), {} clock{}{}{note}\n\n",
            self.paths.len(),
            self.clock,
            if self.skipped > 0 {
                format!(", {} line(s) skipped", self.skipped)
            } else {
                String::new()
            },
            if self.unclosed > 0 {
                format!(", {} span(s) unclosed", self.unclosed)
            } else {
                String::new()
            },
        );
        out.push_str(&format!(
            "{:>14} {:>14} {:>8} {:>7}  path\n",
            format!("self ({unit})"),
            format!("total ({unit})"),
            "count",
            "self%"
        ));
        for p in ranked.iter().take(top_k) {
            out.push_str(&format!(
                "{:>14} {:>14} {:>8} {:>6.1}%  {}\n",
                p.self_time,
                p.total,
                p.count,
                100.0 * p.self_time as f64 / total_self as f64,
                p.path.join(";")
            ));
        }
        if self.paths.len() > top_k {
            out.push_str(&format!("... and {} more path(s)\n", self.paths.len() - top_k));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::trace::{install, span, Obs};

    fn nested_trace() -> String {
        let obs = Obs::with_trace(Clock::virtual_ticks());
        let guard = install(obs.clone());
        {
            let _solve = span("lp-solve");
            {
                let _r = span("lp-dual-repair");
            }
            {
                let _p = span("lp-primal");
            }
        }
        {
            let _other = span("separation");
        }
        drop(guard);
        obs.trace_jsonl()
    }

    #[test]
    fn paths_nest_and_self_time_subtracts_children() {
        let profile = profile_trace(&nested_trace()).unwrap();
        assert_eq!(profile.clock, "virtual");
        assert_eq!(profile.skipped, 0);
        let find = |path: &[&str]| {
            profile
                .paths
                .iter()
                .find(|p| p.path.iter().map(String::as_str).collect::<Vec<_>>() == path)
                .unwrap_or_else(|| panic!("missing path {path:?}"))
        };
        let solve = find(&["lp-solve"]);
        let repair = find(&["lp-solve", "lp-dual-repair"]);
        let primal = find(&["lp-solve", "lp-primal"]);
        assert_eq!(solve.count, 1);
        assert_eq!(solve.self_time, solve.total - repair.total - primal.total);
        find(&["separation"]);
    }

    #[test]
    fn attribution_fraction_counts_direct_children() {
        let profile = profile_trace(&nested_trace()).unwrap();
        let f = profile.attributed_fraction("lp-solve").unwrap();
        assert!(f > 0.0 && f < 1.0, "partially attributed: {f}");
        assert!(
            profile.attributed_fraction("separation").is_none()
                || profile.attributed_fraction("separation") == Some(0.0),
            "leaf spans attribute nothing"
        );
        assert!(profile.attributed_fraction("nonexistent").is_none());
    }

    #[test]
    fn folded_output_is_flamegraph_shaped() {
        let profile = profile_trace(&nested_trace()).unwrap();
        let folded = profile.folded();
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("stack <space> value");
            assert!(!stack.is_empty());
            value.parse::<u64>().expect("numeric value");
        }
        assert!(folded.contains("lp-solve;lp-dual-repair "), "{folded}");
        assert_eq!(profile.folded(), folded, "deterministic");
    }

    #[test]
    fn render_ranks_by_self_time() {
        let profile = profile_trace(&nested_trace()).unwrap();
        let text = profile.render(10);
        assert!(text.contains("hotspots:"), "{text}");
        assert!(text.contains("lp-solve;lp-primal"), "{text}");
        let short = profile.render(1);
        assert!(short.contains("more path(s)"), "{short}");
    }

    #[test]
    fn profiler_requires_a_trace_header_but_tolerates_damage() {
        assert!(profile_trace("").is_err());
        assert!(profile_trace("{\"type\":\"event\",\"t\":1}\n").is_err());
        let text = "{\"type\":\"trace_header\",\"schema_version\":1,\"clock\":\"virtual\"}\n\
                    garbage\n\
                    {\"type\":\"span_start\",\"id\":1,\"t\":1,\"name\":\"a\"}\n\
                    {\"type\":\"span_start\",\"id\":2,\"t\":2,\"name\":\"b\",\"parent\":1}\n\
                    {\"type\":\"span_end\",\"id\":2,\"t\":3}\n";
        let profile = profile_trace(text).unwrap();
        assert_eq!(profile.skipped, 1);
        assert_eq!(profile.unclosed, 1, "truncated outer span is reported");
        assert_eq!(profile.paths.len(), 1, "only the closed child aggregates");
        assert_eq!(profile.paths[0].path, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn profiler_counts_reused_ids_and_backward_time_as_damage() {
        // The second start reuses id 1 and the first end runs backwards:
        // both lines are damage, so span "a" keeps its id and closes at 4.
        let text = "{\"type\":\"trace_header\",\"schema_version\":1,\"clock\":\"virtual\"}\n\
                    {\"type\":\"span_start\",\"id\":1,\"t\":1,\"name\":\"a\"}\n\
                    {\"type\":\"span_start\",\"id\":1,\"t\":2,\"name\":\"b\"}\n\
                    {\"type\":\"span_end\",\"id\":1,\"t\":1}\n\
                    {\"type\":\"span_end\",\"id\":1,\"t\":4}\n";
        let profile = profile_trace(text).unwrap();
        assert_eq!(profile.skipped, 2);
        assert_eq!(profile.unclosed, 0);
        assert_eq!(profile.paths.len(), 1);
        assert_eq!(profile.paths[0].path, vec!["a".to_string()]);
        assert_eq!(profile.paths[0].total, 3);
    }

    #[test]
    fn profiles_merged_traces() {
        let mk = || {
            let obs = Obs::with_trace(Clock::virtual_ticks());
            let guard = install(obs.clone());
            {
                let _s = span("svc.job");
                let _inner = span("lp-solve");
            }
            drop(guard);
            obs.trace_jsonl()
        };
        let merged =
            crate::report::merge_traces(&[("w0".to_string(), mk()), ("w1".to_string(), mk())])
                .unwrap();
        let profile = profile_trace(&merged).unwrap();
        let job = profile
            .paths
            .iter()
            .find(|p| p.path == vec!["svc.job".to_string(), "lp-solve".to_string()])
            .unwrap();
        assert_eq!(job.count, 2);
    }
}
