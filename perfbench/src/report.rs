//! The run result: metrics by name with units, the correctness verdict,
//! and the context a result needs to be compared across commits.

use std::collections::BTreeMap;

use serde_json::{json, Value};

/// End-to-end metrics and their units, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cols_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("ok_frac", "share"),
    ("peak_rss_mb", "MiB"),
    ("test_f1_weighted", "f1"),
];

/// Per-layer metrics and their units, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("req_p99_ms", "ms"),
    ("tokenizer.encode_us", "us"),
    ("encoder.forward_us", "us"),
    ("nn.allocs_per_col", "count"),
    ("nn.alloc_bytes_per_col", "B"),
    ("nn.tape_nodes_per_col", "count"),
    ("ann.top_k_us", "us"),
    ("core.predict_us", "us"),
    ("core.views_us", "us"),
    ("core.batch_us_per_col", "us"),
    ("core.refresh_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("train.step_us", "us"),
    ("api.req_decode_us", "us"),
    ("api.resp_encode_us", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.frontend_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.table_cols_per_s", "1/s"),
    ("serve.table_p50_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_full", "count"),
    ("serve.jobs_expired", "count"),
    ("serve.jobs_retried", "count"),
    ("pool.threads", "count"),
    ("proc.threads", "count"),
    ("proc.cpu_ms_per_col", "ms"),
    ("trace.unexplained_us", "us"),
    ("trace.unexplained_frac", "share"),
    ("trace.overhead_frac", "share"),
];

/// Everything one run prints.
#[derive(Default)]
pub struct Report {
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (requests, or fine-tunes and interpreted
    /// columns on `train`).
    pub attempted: u64,
    /// Operations failed, refused or answered wrongly.
    pub failed: u64,
    /// Violations of an output check; any makes `correct` false.
    pub violations: Vec<String>,
    /// Run context (not metrics).
    pub info: BTreeMap<String, Value>,
}

impl Report {
    /// Records a metric of [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    /// Panics on a name neither list declares.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics.insert(name, value);
    }

    /// Records run context.
    pub fn note(&mut self, key: &str, value: Value) {
        self.info.insert(key.to_string(), value);
    }

    /// Records a failed output check.
    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// The final line with the metrics of `keep`; an error names the
    /// first one the workload did not record.
    pub fn result_line(&self, keep: &[(&str, &str)]) -> Result<Value, String> {
        let mut metrics = BTreeMap::new();
        for &(name, unit) in keep {
            let value =
                self.metrics.get(name).ok_or_else(|| format!("metric {name} was not recorded"))?;
            metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
        }
        Ok(json!({
            "correct": self.violations.is_empty(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        }))
    }
}
