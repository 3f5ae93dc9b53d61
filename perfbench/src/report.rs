//! Metric tables, per-run outcome accounting, and the result line.
//!
//! The two tables mirror `BENCHMARK.json` (the self-test checks that they
//! agree). Every workload reports every end-to-end metric; a per-layer
//! metric of a layer the workload does not call reads 0 (see README.md).

use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_cpu_s", "1/s"),
    ("op_cpu_p50_ms", "ms"),
    ("op_cpu_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.load_tsv_ms", "ms"),
    ("corpus.append_tsv_ms", "ms"),
    ("net.collapse_ms", "ms"),
    ("net.collapse_delta_ms", "ms"),
    ("hier.construct_ms", "ms"),
    ("hier.update_ms", "ms"),
    ("hier.topics", "count"),
    ("phrases.mine_ms", "ms"),
    ("phrases.count", "count"),
    ("phrases.segment_ms", "ms"),
    ("core.mine_ms", "ms"),
    ("core.derive_residual_ms", "ms"),
    ("core.update_ms", "ms"),
    ("core.update_residual_ms", "ms"),
    ("serve.store_load_ms", "ms"),
    ("serve.to_snapshot_ms", "ms"),
    ("serve.save_v2_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("serve.artifact_mb", "MB"),
    ("serve.load_ms", "ms"),
    ("query.index_build_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.write_us", "us"),
    ("serve.rtt_ms", "ms"),
    ("serve.transport_residual_ms", "ms"),
    ("serve.search_ms", "ms"),
    ("serve.topic_ms", "ms"),
    ("serve.hierarchy_ms", "ms"),
    ("query.run_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("host.nproc", "count"),
    ("host.steal_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Whole second of the timed phase in which the operation started.
    pub window: u64,
    /// Wall-clock time.
    pub secs: f64,
    /// CPU time of the whole process (client and server threads alike).
    pub cpu: f64,
}

/// Times `f` on the wall clock and on the process CPU clock.
pub fn timed<T>(window: u64, f: impl FnOnce() -> T) -> Result<(T, Op), String> {
    let cpu = crate::host::process_cpu_secs()?;
    let start = std::time::Instant::now();
    let value = f();
    let secs = start.elapsed().as_secs_f64();
    let cpu = crate::host::process_cpu_secs()? - cpu;
    Ok((value, Op { window, secs, cpu }))
}

/// How many failure details a run prints before it only counts them.
const MAX_FAILURE_NOTES: usize = 5;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase (plus set-up checks).
    pub attempted: u64,
    /// Operations that failed or produced an incorrect output.
    pub failed: u64,
    /// Metric values by name (end-to-end and per-layer alike).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable context printed to stderr (digests, host, checks).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; `Err` carries why its output was wrong.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failed as usize <= MAX_FAILURE_NOTES {
                self.notes.push(format!("check failed: {why}"));
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Sets the operation metrics from the timed operations, on the
    /// process CPU clock: `work_per_cpu_s` is the median over one-second
    /// windows of the timed phase (an operation longer than a second is a
    /// window of its own) of the items completed in the window over their
    /// summed CPU time, and `op_cpu_p50_ms` / `op_cpu_p90_ms` are quantiles
    /// of the CPU time per operation. The same figures on the wall clock go
    /// to stderr.
    pub fn set_op_metrics(&mut self, ops: &[Op], items_per_op: f64) {
        let figures = |time: fn(&Op) -> f64| {
            let times: Vec<f64> = ops.iter().map(time).collect();
            let mut windows: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
            for op in ops {
                let w = windows.entry(op.window).or_insert((0.0, 0.0));
                w.0 += items_per_op;
                w.1 += time(op);
            }
            let rates: Vec<f64> = windows.values().map(|(items, secs)| items / secs).collect();
            (
                quantile(&rates, 0.5),
                quantile(&times, 0.5) * 1e3,
                quantile(&times, 0.9) * 1e3,
                rates.len(),
            )
        };
        let (rate, p50, p90, windows) = figures(|op| op.cpu);
        self.set("work_per_cpu_s", rate);
        self.set("op_cpu_p50_ms", p50);
        self.set("op_cpu_p90_ms", p90);
        let (rate, p50, p90, _) = figures(|op| op.secs);
        self.note(format!(
            "wall clock: {rate:.3} per second, p50 {p50:.3} ms, p90 {p90:.3} ms"
        ));
        self.note(format!(
            "timed ops: {} in {windows} windows ({} beyond p90)",
            ops.len(),
            ops.len() - (ops.len() as f64 * 0.9).ceil() as usize
        ));
    }

    /// The result line: the metrics of the requested table, by name.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(&v) => v,
                // A per-layer metric of a layer this workload never calls.
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Linearly interpolated quantile `q` in `[0, 1]` (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// FNV-1a 64 digest, printed so artifact drift between commits shows.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}
