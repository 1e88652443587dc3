//! Metric math and the result line: quantiles, ratios with their bases,
//! peak memory, and the one-line JSON report.

use std::time::Instant;

/// Quantile of `values` (`q` in `[0, 1]`) by linear interpolation between
/// the closest ranks (position `q·(n − 1)` in the sorted sample). On a
/// sample drawn from a few instances, interpolation keeps the median off
/// the jump between instance clusters. `None` on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Interpolated median.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The median over `groups` (passes, or quarters of a run) of each group's
/// `q` quantile: a host hiccup that slows one group moves it less than it
/// moves a quantile of the pooled sample. 0 when no group has samples.
pub fn median_of_groups(groups: &[Vec<f64>], q: f64) -> f64 {
    let per_group: Vec<f64> = groups.iter().filter_map(|g| quantile(g, q)).collect();
    median(&per_group).unwrap_or(0.0)
}

/// Arithmetic mean; `None` on an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank quantile over a fixed-bucket histogram: the upper bound of
/// the bucket holding the rank. Observations in the overflow bucket report
/// the last finite bound. `None` when the histogram is empty.
pub fn histogram_quantile(bounds: &[u64], counts: &[u64], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(bounds[i.min(bounds.len() - 1)]);
        }
    }
    bounds.last().copied()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in insertion order, each with its unit.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends (or overwrites) `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for (name, value, unit) in other.0 {
            self.set(&name, value, unit);
        }
    }
}

/// Operation tally for `attempted`, `failed` and the correctness gate.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` counts it as failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }

    /// Failed over attempted operations.
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
