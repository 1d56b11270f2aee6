//! Metric names and units, the result line the benchmark ends with, and the
//! host facts recorded with every report.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("accesses_per_s", "1/s"),
    ("submits_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_ratio", "ratio"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.  A
/// metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("trace.pull_ns_per_access", "ns"),
    ("trace.open_us", "us"),
    ("trace.jobs_per_distinct_stream", "count"),
    ("memsim.cache_ns_per_access", "ns"),
    ("memsim.l1_misses_per_kaccess", "count"),
    ("memsim.offchip_misses_per_kaccess", "count"),
    ("memsim.invalidations_per_kaccess", "count"),
    ("account.replay_ns_per_access", "ns"),
    ("sms.ns_per_access", "ns"),
    ("sms.pht_hit_ratio", "ratio"),
    ("sms.stream_requests_per_kaccess", "count"),
    ("sms.useful_prefetch_ratio", "ratio"),
    ("ghb.ns_per_access", "ns"),
    ("ghb.useful_prefetch_ratio", "ratio"),
    ("timing.ns_per_access", "ns"),
    ("engine.prepare_us_per_job", "us"),
    ("engine.worker_busy_ratio", "ratio"),
    ("engine.segment_speedup", "ratio"),
    ("engine.plain_over_segmented_1t", "ratio"),
    ("engine.critical_stage_share", "ratio"),
    ("server.frame_encode_us", "us"),
    ("server.frame_decode_us", "us"),
    ("server.cache_lookup_us", "us"),
    ("server.cache_insert_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_evictions", "count"),
    ("server.rejected", "count"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p90_ms", "ms"),
    ("server.engine_share_of_miss", "ratio"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("serve.hit_samples", "count"),
    ("serve.miss_samples", "count"),
    ("tracelog.overhead_ratio", "ratio"),
    ("ledger.explained_ratio", "ratio"),
    ("bench.span_overhead_ratio", "ratio"),
];

/// What one run measured: the operation counts and the metric values.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every output matched its reference.
    pub correct: bool,
    /// Operations attempted (jobs run, or submissions sent).
    pub attempted: u64,
    /// Operations that failed, were refused or returned wrong results.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Method errors found by the guards: a parallel ratio above the worker
    /// count, a too-small sample, a cross-path comparison.
    pub method_errors: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts `failed` of `attempted` operations.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.correct = false;
        }
    }

    /// The JSON object the benchmark prints last: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics being exactly the
    /// names in `table`.
    ///
    /// # Errors
    ///
    /// A metric of `table` that was not measured, or is not finite.
    pub fn result_line(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, unit) in table {
            let value = self
                .metrics
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Host threads available to the benchmark.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resets the process's peak resident set size.  Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since the last reset, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The `q` quantile of `values` by the nearest-rank rule, or `None` when
/// fewer than 10 samples lie above it.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    if sorted.len() < rank + 10 {
        return None;
    }
    Some(sorted[rank - 1])
}
