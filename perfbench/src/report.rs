//! The run's result: operation counts, correctness and named metrics.

use axsnn_bench::json::{bench_row, write_bench_json};
use std::fmt::Write as _;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (samples, crafts, requests, checks).
    pub attempted: u64,
    /// Operations that failed, including failed correctness checks.
    pub failed: u64,
    /// `(name, value, unit)` in insertion order: the manifest's metrics,
    /// printed on the result line.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Workload-specific measurements that only this workload has: they
    /// go to standard error and the run record, not the result line.
    pub extras: Vec<(String, f64, &'static str)>,
    /// Human-readable notes for the standard-error log.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts `n` successful operations.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one correctness check; a failure is logged and counted.
    pub fn check(&mut self, pass: bool, what: &str) {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a workload-specific measurement (see [`Report::extras`]).
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_string(), value, unit));
    }

    /// Records a note.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// `true` when nothing failed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The one-line JSON result.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }

    /// Writes the provenance-carrying record (ISA features, dispatch,
    /// `nproc`, seed) next to the metrics.
    pub fn write_record(
        &self,
        path: &str,
        workload: &str,
        seed: u64,
        trace: bool,
    ) -> std::io::Result<()> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut row = bench_row(&format!("perfbench.{workload}"))
            .num("nproc", nproc as f64, 0)
            .str("seed", &seed.to_string())
            .num("trace", f64::from(u8::from(trace)), 0)
            .num("attempted", self.attempted as f64, 0)
            .num("failed", self.failed as f64, 0);
        for (name, value, _) in self.metrics.iter().chain(&self.extras) {
            row = row.num(name, *value, 6);
        }
        write_bench_json(path, &[row])
    }
}
