//! Metric records, the declaration in `BENCHMARK.json`, and the output of a
//! run.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::host::HostStamp;
use crate::stats;

/// One reported metric: its value with the spread and size of the sample
/// it is the median (or percentile, or count) of.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The reported value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: String,
    /// First quartile of the sample (the value itself for a single sample).
    pub q1: f64,
    /// Third quartile of the sample.
    pub q3: f64,
    /// Sample size.
    pub samples: usize,
}

impl Metric {
    /// A timing reported as the median of `samples`.
    pub fn median(name: &str, unit: &str, samples: &[f64]) -> Self {
        let s = stats::summary(samples);
        Self {
            name: name.into(),
            value: s.median,
            unit: unit.into(),
            q1: s.q1,
            q3: s.q3,
            samples: s.samples,
        }
    }

    /// The nearest-rank `percent` percentile of pooled latencies. Warns when
    /// fewer than [`stats::SAMPLES_BEYOND`] samples lie beyond it.
    pub fn percentile(name: &str, unit: &str, samples: &[f64], percent: f64) -> Self {
        if !stats::supports(samples.len(), percent) {
            eprintln!(
                "mc-benchmark: {name} has only {} of {} samples beyond it",
                stats::samples_beyond(samples.len(), percent),
                samples.len()
            );
        }
        let s = stats::summary(samples);
        Self {
            name: name.into(),
            value: stats::percentile(samples, percent),
            unit: unit.into(),
            q1: s.q1,
            q3: s.q3,
            samples: s.samples,
        }
    }

    /// A count, ratio or single measurement.
    pub fn single(name: &str, unit: &str, value: f64) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.into(),
            q1: value,
            q3: value,
            samples: 1,
        }
    }
}

/// What a run measured, before it is stamped: the checked reads and the
/// metrics.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Reads attempted in the checked phases.
    pub attempted: u64,
    /// Reads classified differently from the oracle, or in a request that
    /// errored or was refused.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Measured {
    /// Add a count, ratio or single measurement.
    pub fn put(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push(Metric::single(name, unit, value));
    }
}

/// A workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadDecl {
    /// Its name.
    pub name: String,
}

/// A metric of `BENCHMARK.json`, end-to-end or per-layer.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricDecl {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: String,
}

/// The part of `BENCHMARK.json` the program checks itself against.
#[derive(Debug, Clone, Deserialize)]
pub struct Declaration {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadDecl>,
    /// The end-to-end metrics, reported by an untraced run.
    pub end_to_end: Vec<MetricDecl>,
    /// The per-layer metrics, reported by a traced run.
    pub per_layer: Vec<MetricDecl>,
}

impl Declaration {
    /// Parse `BENCHMARK.json` at `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Declared `(name, unit)` pairs of a traced (`per_layer`) or untraced
    /// (`end_to_end`) run, sorted by name.
    pub fn declared(&self, traced: bool) -> Vec<(String, String)> {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out: Vec<(String, String)> = metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        out.sort();
        out
    }
}

/// Everything one run reports.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// The workload.
    pub workload: String,
    /// Whether this was the traced run.
    pub traced: bool,
    /// What it ran on.
    pub host: HostStamp,
    /// Reads attempted in the checked phases.
    pub attempted: u64,
    /// Reads classified differently from the oracle, or in a request that
    /// errored or was refused.
    pub failed: u64,
    /// `failed ÷ attempted`.
    pub failed_share: f64,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

#[derive(Serialize)]
struct ValueUnit {
    value: f64,
    unit: String,
}

/// The last line of standard output.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ValueUnit>,
}

impl Report {
    /// Names and units this report carries that `declared` lacks or spells
    /// differently, and declared ones it lacks. Empty when they agree.
    pub fn disagreements(&self, declared: &[(String, String)]) -> Vec<String> {
        let mut got: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        got.sort();
        let mut out = Vec::new();
        for pair in &got {
            if !declared.contains(pair) {
                out.push(format!(
                    "reported but not declared: {} [{}]",
                    pair.0, pair.1
                ));
            }
        }
        for pair in declared {
            if !got.contains(pair) {
                out.push(format!(
                    "declared but not reported: {} [{}]",
                    pair.0, pair.1
                ));
            }
        }
        for pair in got.windows(2) {
            if pair[0].0 == pair[1].0 {
                out.push(format!("reported twice: {}", pair[0].0));
            }
        }
        out
    }

    /// A table of every metric: name, value, unit, quartiles, samples.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {} ({}), seed {}: {} of {} reads failed (failed_share {})\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.host.seed,
            self.failed,
            self.attempted,
            self.failed_share
        );
        out.push_str(&format!(
            "{:<40} {:>16} {:<10} {:>16} {:>16} {:>8}\n",
            "metric", "value", "unit", "q1", "q3", "samples"
        ));
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<40} {:>16.6} {:<10} {:>16.6} {:>16.6} {:>8}\n",
                m.name, m.value, m.unit, m.q1, m.q3, m.samples
            ));
        }
        out
    }

    /// The full record, as JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }

    /// The driver's result line.
    pub fn result_line(&self) -> String {
        let line = ResultLine {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        ValueUnit {
                            value: m.value,
                            unit: m.unit.clone(),
                        },
                    )
                })
                .collect(),
        };
        serde_json::to_string(&line).expect("result line serialises")
    }
}
