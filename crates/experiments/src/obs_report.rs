//! `obs-report` — reads JSONL traces written by `--trace` and renders the
//! human-readable summary (per-span total/self time, hot spans first,
//! event counts with warnings called out) or the path-keyed hotspot table.
//! With `--metrics m.json` it also renders the metrics-registry export —
//! the `ira.*` solver counters and the `sep.*` cut-pool engine counters
//! (pool hits/scans, batched cuts, pruned seeds).
//!
//! The heavy lifting lives in `wsn_obs`; this module is the thin CLI
//! adapter: read the files, merge them when there are several, profile
//! the result, render. A crashed or budget-killed run leaves truncated
//! traces that are still worth reporting, so malformed lines are skipped
//! and counted, not fatal. Only a file that is not a trace at all
//! (missing/bad header) is a hard error.

use wsn_obs::Profile;

/// Reads the traces at `paths` and profiles them. Several traces (e.g. a
/// fleet's per-worker traces) are first merged into one deterministic
/// timeline via [`wsn_obs::merge_traces`], each record tagged with its
/// file path.
fn load(paths: &[String]) -> Result<Profile, String> {
    let mut traces = Vec::with_capacity(paths.len());
    for path in paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
        traces.push((path.clone(), text));
    }
    let text = match traces.len() {
        1 => traces.pop().expect("one trace").1,
        _ => wsn_obs::merge_traces(&traces)?,
    };
    wsn_obs::profile_trace(&text).map_err(|e| format!("invalid trace: {e}"))
}

/// `obs-report <trace.jsonl>...` — the rendered summary of one trace or of
/// the merge of several. Damage is reported inline; errors are strings
/// ready for `eprintln!`.
pub fn run(paths: &[String], top_k: usize) -> Result<String, String> {
    let profile = load(paths)?;
    let mut out = String::new();
    if paths.len() > 1 {
        out.push_str(&format!("merged {} trace(s)\n", paths.len()));
    }
    out.push_str(&wsn_obs::render_summary(&profile, top_k));
    if let Some((lineno, reason)) = &profile.first_skip {
        out.push_str(&format!(
            "\nwarning: skipped {} malformed line(s); first at line {lineno}: {reason}\n",
            profile.skipped
        ));
    }
    if profile.unclosed > 0 {
        out.push_str(&format!(
            "warning: trace truncated — {} span(s) never closed (partial time dropped)\n",
            profile.unclosed
        ));
    }
    Ok(out)
}

/// Reads a metrics JSON export (written by `--metrics`) and renders its
/// counter and gauge tables.
pub fn run_metrics(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read metrics {path}: {e}"))?;
    wsn_obs::render_metrics(&text)
}

/// `obs-report postmortem <dump.jsonl>` — renders a black-box dump cut
/// from a flight-recorder ring (a worker crash, quarantine, budget
/// expiry, or shed storm) as an incident timeline.
pub fn run_postmortem(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read dump {path}: {e}"))?;
    wsn_obs::render_postmortem(&text)
}

/// `obs-report hotspots <trace.jsonl>...` — profiles one trace (or the
/// merge of several) by span path and renders the top-`top_k` hotspot
/// table; `folded` instead emits flamegraph-compatible folded stacks
/// (`a;b;c self_time` per line).
pub fn run_hotspots(paths: &[String], top_k: usize, folded: bool) -> Result<String, String> {
    let profile = load(paths)?;
    Ok(if folded { profile.folded() } else { profile.render(top_k) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn reports_a_valid_trace() {
        let obs = wsn_obs::Obs::with_trace(wsn_obs::Clock::virtual_ticks());
        {
            let _g = wsn_obs::install(obs.clone());
            let _outer = wsn_obs::span("outer");
            {
                let _inner = wsn_obs::span("inner");
            }
            wsn_obs::event("tick", vec![wsn_obs::field("k", 1u64)]);
        }
        let path = write_temp("obs_report_valid.jsonl", &obs.trace_jsonl());
        let text = run(&[path.to_str().unwrap().to_string()], 10).unwrap();
        assert!(text.contains("outer"));
        assert!(text.contains("inner"));
        assert!(text.contains("tick"));
    }

    #[test]
    fn rejects_garbage() {
        let path = write_temp("obs_report_garbage.jsonl", "not json\n");
        let err = run(&[path.to_str().unwrap().to_string()], 10).unwrap_err();
        assert!(err.contains("invalid trace"), "{err}");
    }

    #[test]
    fn truncated_trace_still_reports_with_warning() {
        let obs = wsn_obs::Obs::with_trace(wsn_obs::Clock::virtual_ticks());
        {
            let _g = wsn_obs::install(obs.clone());
            let _outer = wsn_obs::span("outer");
            {
                let _inner = wsn_obs::span("inner");
            }
        }
        let full = obs.trace_jsonl();
        // Drop the final line (the outer span_end) and corrupt one more.
        let mut lines: Vec<&str> = full.lines().collect();
        lines.pop();
        let mut damaged = lines.join("\n");
        damaged.push_str("\n{\"type\":\"mystery\"\n");
        let path = write_temp("obs_report_truncated.jsonl", &damaged);
        let text = run(&[path.to_str().unwrap().to_string()], 10).unwrap();
        assert!(text.contains("inner"), "{text}");
        assert!(text.contains("skipped 1 malformed line"), "{text}");
        assert!(text.contains("never closed"), "{text}");
    }

    #[test]
    fn missing_file_is_an_error() {
        let err = run(&["/nonexistent/trace.jsonl".to_string()], 10).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn reports_engine_counters_from_a_metrics_export() {
        let obs = wsn_obs::Obs::detached();
        let reg = obs.registry();
        reg.counter("sep.pool_hits").add(2);
        reg.counter("sep.seeds_pruned").add(9);
        let path = write_temp("obs_report_metrics.json", &reg.to_json());
        let text = run_metrics(path.to_str().unwrap()).unwrap();
        assert!(text.contains("sep.pool_hits"), "{text}");
        assert!(text.contains("sep.seeds_pruned"), "{text}");
    }

    #[test]
    fn metrics_garbage_is_an_error() {
        let path = write_temp("obs_report_metrics_bad.json", "nope");
        assert!(run_metrics(path.to_str().unwrap()).is_err());
    }

    fn one_span_trace(name: &str) -> String {
        let obs = wsn_obs::Obs::with_trace(wsn_obs::Clock::virtual_ticks());
        {
            let _g = wsn_obs::install(obs.clone());
            let _s = wsn_obs::span(name);
        }
        obs.trace_jsonl()
    }

    #[test]
    fn merges_multiple_worker_traces() {
        let p0 = write_temp("obs_report_merge_w0.jsonl", &one_span_trace("solve-left"));
        let p1 = write_temp("obs_report_merge_w1.jsonl", &one_span_trace("solve-right"));
        let paths = [p0, p1].map(|p| p.to_str().unwrap().to_string());
        let text = run(&paths, 10).unwrap();
        assert!(text.contains("merged 2 trace(s)"), "{text}");
        assert!(text.contains("solve-left") && text.contains("solve-right"), "{text}");
    }

    #[test]
    fn renders_a_postmortem_dump() {
        let obs = wsn_obs::Obs::with_flight(wsn_obs::Clock::virtual_ticks(), 16);
        {
            let _g = wsn_obs::install(obs.clone());
            let _s = wsn_obs::span("svc.job");
            wsn_obs::warn("svc.quarantine", vec![wsn_obs::field("failures", 3u64)]);
        }
        let dump = obs.blackbox_jsonl("worker-crash", Some(2)).unwrap();
        let path = write_temp("obs_report_postmortem.jsonl", &dump);
        let text = run_postmortem(path.to_str().unwrap()).unwrap();
        assert!(text.contains("worker-crash"), "{text}");
        assert!(text.contains("svc.job"), "{text}");
        assert!(text.contains("svc.quarantine"), "{text}");
    }

    #[test]
    fn postmortem_rejects_a_plain_trace() {
        let path = write_temp("obs_report_postmortem_bad.jsonl", &one_span_trace("a"));
        assert!(run_postmortem(path.to_str().unwrap()).is_err());
    }

    #[test]
    fn hotspots_profiles_one_trace_and_a_merged_fleet() {
        let nested = {
            let obs = wsn_obs::Obs::with_trace(wsn_obs::Clock::virtual_ticks());
            {
                let _g = wsn_obs::install(obs.clone());
                let _outer = wsn_obs::span("lp-solve");
                let _inner = wsn_obs::span("lp-primal");
            }
            obs.trace_jsonl()
        };
        let p0 = write_temp("obs_report_hot_w0.jsonl", &nested);
        let p1 = write_temp("obs_report_hot_w1.jsonl", &one_span_trace("separation"));
        let one = [p0.to_str().unwrap().to_string()];
        let table = run_hotspots(&one, 10, false).unwrap();
        assert!(table.contains("lp-solve;lp-primal"), "{table}");
        let folded = run_hotspots(&one, 10, true).unwrap();
        assert!(folded.lines().any(|l| l.starts_with("lp-solve;lp-primal ")), "{folded}");
        let both = [one[0].clone(), p1.to_str().unwrap().to_string()];
        let merged = run_hotspots(&both, 10, false).unwrap();
        assert!(merged.contains("separation"), "{merged}");
    }

    #[test]
    fn merge_with_a_missing_file_is_an_error() {
        let p0 = write_temp("obs_report_merge_ok.jsonl", &one_span_trace("a"));
        let paths = [p0.to_str().unwrap().to_string(), "/nonexistent/w9.jsonl".to_string()];
        let err = run(&paths, 10).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
