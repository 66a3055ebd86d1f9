//! Sample statistics, the ordered metric report, and the run's
//! environment record.

use std::collections::BTreeMap;

use rj_store::metrics::MetricsSnapshot;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 for
/// no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of the samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Adds a ledger delta into a running total.
pub fn add_ledger(total: &mut MetricsSnapshot, d: &MetricsSnapshot) {
    total.kv_reads += d.kv_reads;
    total.kv_writes += d.kv_writes;
    total.network_bytes += d.network_bytes;
    total.rpc_calls += d.rpc_calls;
    total.sim_seconds += d.sim_seconds;
    total.node_seconds += d.node_seconds;
    total.admin_kv_reads += d.admin_kv_reads;
}

/// Metrics in the order they are added, each with its unit.
#[derive(Default)]
pub struct Report {
    entries: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_owned(), value, unit));
    }

    /// Prints every metric, one `name value unit` line each.
    pub fn print_lines(&self) {
        for (name, value, unit) in &self.entries {
            println!("{name:<44} {value:>16.6} {unit}");
        }
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` object.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite number in full precision (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one, else
/// from the `RJPERF_COMMIT` environment variable, else `unknown`.
pub fn commit() -> String {
    if let Ok(c) = std::env::var("RJPERF_COMMIT") {
        return c;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

/// Named host-time samples and counts one run collects.
#[derive(Default)]
pub struct Samples {
    series: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    /// Appends one sample to a series.
    pub fn push(&mut self, series: &'static str, v: f64) {
        self.series.entry(series).or_default().push(v);
    }

    /// A series (empty if never pushed).
    pub fn get(&self, series: &str) -> &[f64] {
        self.series.get(series).map_or(&[], Vec::as_slice)
    }

    /// Percentile of a series.
    pub fn pct(&self, series: &str, q: f64) -> f64 {
        percentile(self.get(series), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn report_json_keeps_full_precision() {
        let mut r = Report::default();
        r.put("a", 0.1 + 0.2, "s");
        r.put("b", f64::NAN, "ms");
        assert_eq!(
            r.json(),
            "{\"a\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"b\": {\"value\": 0.0, \"unit\": \"ms\"}}"
        );
    }
}
