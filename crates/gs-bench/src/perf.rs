//! The machine-readable perf trajectory: `BENCH_<name>.json` reports.
//!
//! Every serving benchmark binary can emit its headline numbers as a small
//! JSON document (`--out BENCH_<name>.json`), so a CI run leaves behind a
//! comparable artifact per benchmark instead of only human-formatted
//! tables. The schema is deliberately flat and stable:
//!
//! ```json
//! {
//!   "bench": "serve_scaling",
//!   "scenarios": [
//!     {
//!       "scenario": "cache+batch8/workers=4",
//!       "throughput_rps": 812.4,
//!       "p50_ms": 3.1,
//!       "p90_ms": 6.0,
//!       "p99_ms": 9.8,
//!       "hit_rate": 0.62,
//!       "mean_batch": 2.4
//!     }
//!   ]
//! }
//! ```
//!
//! Benchmarks that measure the render kernels directly (currently
//! `serve_scaling`'s kernel microbench) additionally emit a `"roofline"`
//! array: one entry per kernel phase with its measured time, achieved
//! GFLOP/s and GB/s, operational intensity, modelled roofline efficiency,
//! and speedup over the scalar reference kernel. The section is omitted
//! when empty, so older readers and artifacts stay compatible.
//!
//! The writer is hand-rolled (the workspace is std-only); values are always
//! finite (`NaN`/`Inf` are written as `0`) so the output is strict JSON.
//! [`BenchReport::from_json`] reads the documents back (via [`crate::json`])
//! so CI can diff consecutive artifacts.

use std::io;
use std::path::Path;

use gs_serve::ServeStats;

use crate::json::{self, JsonValue};

/// One measured configuration of a benchmark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchScenario {
    /// Configuration label, unique within the report.
    pub scenario: String,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Median request latency in milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency in milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
    /// Frame-cache hit rate in `[0, 1]` (0 when the cache is off).
    pub hit_rate: f64,
    /// Mean rendered batch size (0 when nothing was batched).
    pub mean_batch: f64,
    /// The p99 latency SLO this scenario is held to, in milliseconds
    /// (0 = no SLO declared). `bench_diff` raises an `::error::`
    /// annotation — still warn-only for the job — when `p99_ms` exceeds
    /// it, independent of any baseline comparison.
    pub slo_p99_ms: f64,
}

impl BenchScenario {
    /// The scenario a [`ServeStats`] snapshot measures.
    pub fn from_serve_stats(scenario: impl Into<String>, stats: &ServeStats) -> Self {
        Self {
            scenario: scenario.into(),
            throughput_rps: stats.throughput_rps(),
            p50_ms: stats.latency.p50 * 1e3,
            p90_ms: stats.latency.p90 * 1e3,
            p99_ms: stats.latency.p99 * 1e3,
            hit_rate: stats.cache.hit_rate(),
            mean_batch: stats.mean_batch_size(),
            slo_p99_ms: 0.0,
        }
    }

    /// Declares the p99 latency SLO the scenario is held to.
    #[must_use]
    pub fn with_slo_p99_ms(mut self, slo_p99_ms: f64) -> Self {
        self.slo_p99_ms = slo_p99_ms;
        self
    }
}

/// One kernel phase's achieved-vs-peak roofline measurement.
///
/// Produced by pairing a phase's [`gs_render::cost`] work estimate with its
/// measured wall-clock time (see `gs_platform::roofline::RooflinePoint`);
/// flattened here to plain numbers so the JSON schema stays self-contained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RooflineEntry {
    /// Phase label, e.g. `project/reference` or `raster/tiled-x2`.
    pub phase: String,
    /// Measured wall-clock seconds for the phase.
    pub seconds: f64,
    /// Achieved GFLOP/s.
    pub gflops: f64,
    /// Achieved GB/s of memory traffic.
    pub gbytes_s: f64,
    /// Operational intensity, FLOP/byte.
    pub intensity: f64,
    /// Fraction of the modelled roofline ceiling achieved (1.0 = at the
    /// roof).
    pub efficiency: f64,
    /// Throughput relative to the scalar reference kernel of the same
    /// phase (1.0 for the reference itself).
    pub speedup: f64,
}

/// A benchmark's full perf report: one [`BenchScenario`] per configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Benchmark name (`serve_scaling`, `cluster_scaling`, ...).
    pub bench: String,
    /// Measured configurations, in sweep order.
    pub scenarios: Vec<BenchScenario>,
    /// Kernel-phase roofline measurements (empty for benchmarks that only
    /// measure end-to-end serving).
    pub roofline: Vec<RooflineEntry>,
}

impl BenchReport {
    /// An empty report for `bench`.
    pub fn new(bench: impl Into<String>) -> Self {
        Self {
            bench: bench.into(),
            scenarios: Vec::new(),
            roofline: Vec::new(),
        }
    }

    /// Appends one measured scenario.
    pub fn push(&mut self, scenario: BenchScenario) {
        self.scenarios.push(scenario);
    }

    /// Appends one kernel-phase roofline measurement.
    pub fn push_roofline(&mut self, entry: RooflineEntry) {
        self.roofline.push(entry);
    }

    /// Serializes the report as strict JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_str(&self.bench)));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"scenario\": {},\n", json_str(&s.scenario)));
            out.push_str(&format!(
                "      \"throughput_rps\": {},\n",
                json_num(s.throughput_rps)
            ));
            out.push_str(&format!("      \"p50_ms\": {},\n", json_num(s.p50_ms)));
            out.push_str(&format!("      \"p90_ms\": {},\n", json_num(s.p90_ms)));
            out.push_str(&format!("      \"p99_ms\": {},\n", json_num(s.p99_ms)));
            out.push_str(&format!("      \"hit_rate\": {},\n", json_num(s.hit_rate)));
            // The SLO member is written only when declared, so artifacts
            // from benchmarks without SLOs stay byte-identical to the old
            // schema (and old readers ignore it when present).
            if s.slo_p99_ms > 0.0 {
                out.push_str(&format!(
                    "      \"slo_p99_ms\": {},\n",
                    json_num(s.slo_p99_ms)
                ));
            }
            out.push_str(&format!(
                "      \"mean_batch\": {}\n",
                json_num(s.mean_batch)
            ));
            out.push_str(if i + 1 == self.scenarios.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        if self.roofline.is_empty() {
            out.push_str("  ]\n}\n");
            return out;
        }
        out.push_str("  ],\n");
        out.push_str("  \"roofline\": [\n");
        for (i, r) in self.roofline.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"phase\": {},\n", json_str(&r.phase)));
            out.push_str(&format!("      \"seconds\": {},\n", json_num(r.seconds)));
            out.push_str(&format!("      \"gflops\": {},\n", json_num(r.gflops)));
            out.push_str(&format!("      \"gbytes_s\": {},\n", json_num(r.gbytes_s)));
            out.push_str(&format!(
                "      \"intensity\": {},\n",
                json_num(r.intensity)
            ));
            out.push_str(&format!(
                "      \"efficiency\": {},\n",
                json_num(r.efficiency)
            ));
            out.push_str(&format!("      \"speedup\": {}\n", json_num(r.speedup)));
            out.push_str(if i + 1 == self.roofline.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report previously produced by [`Self::to_json`].
    ///
    /// Unknown fields are ignored and missing numeric fields default to 0,
    /// so reports written by older or newer versions of the schema still
    /// load — exactly what the CI artifact diff needs.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when `input` is not valid JSON or
    /// is missing the report skeleton (`bench`, `scenarios`).
    pub fn from_json(input: &str) -> Result<Self, String> {
        let doc = json::parse(input).map_err(|e| e.to_string())?;
        let bench = doc
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"bench\" field")?
            .to_string();
        let scenarios = doc
            .get("scenarios")
            .and_then(JsonValue::as_array)
            .ok_or("missing \"scenarios\" array")?
            .iter()
            .map(|s| {
                Ok(BenchScenario {
                    scenario: s
                        .get("scenario")
                        .and_then(JsonValue::as_str)
                        .ok_or("scenario entry missing \"scenario\" label")?
                        .to_string(),
                    throughput_rps: num_field(s, "throughput_rps"),
                    p50_ms: num_field(s, "p50_ms"),
                    p90_ms: num_field(s, "p90_ms"),
                    p99_ms: num_field(s, "p99_ms"),
                    hit_rate: num_field(s, "hit_rate"),
                    mean_batch: num_field(s, "mean_batch"),
                    slo_p99_ms: num_field(s, "slo_p99_ms"),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let roofline = doc
            .get("roofline")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|r| {
                Ok(RooflineEntry {
                    phase: r
                        .get("phase")
                        .and_then(JsonValue::as_str)
                        .ok_or("roofline entry missing \"phase\" label")?
                        .to_string(),
                    seconds: num_field(r, "seconds"),
                    gflops: num_field(r, "gflops"),
                    gbytes_s: num_field(r, "gbytes_s"),
                    intensity: num_field(r, "intensity"),
                    efficiency: num_field(r, "efficiency"),
                    speedup: num_field(r, "speedup"),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            bench,
            scenarios,
            roofline,
        })
    }

    /// Writes the JSON report to `path` (creating parent directories, so
    /// `--out perf-reports/BENCH_x.json` works in a fresh CI checkout) and
    /// prints where it went.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())?;
        println!(
            "\nwrote perf report: {} ({} scenario(s), {} roofline row(s))",
            path.display(),
            self.scenarios.len(),
            self.roofline.len()
        );
        Ok(())
    }
}

/// A numeric member of `node`, defaulting to 0 when absent or non-numeric.
fn num_field(node: &JsonValue, key: &str) -> f64 {
    node.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// A finite JSON number (`NaN`/`Inf` degrade to `0`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_as_strict_json() {
        let mut report = BenchReport::new("serve_scaling");
        report.push(BenchScenario {
            scenario: "cache/workers=1".to_string(),
            throughput_rps: 123.5,
            p50_ms: 3.25,
            p90_ms: 5.5,
            p99_ms: 9.0,
            hit_rate: 0.5,
            mean_batch: 1.75,
            slo_p99_ms: 0.0,
        });
        report.push(BenchScenario {
            scenario: "weird \"label\"\\".to_string(),
            throughput_rps: f64::NAN,
            ..BenchScenario::default()
        });
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"serve_scaling\""));
        assert!(json.contains("\"throughput_rps\": 123.5"));
        // Non-finite numbers degrade to 0, never to invalid JSON tokens.
        assert!(!json.contains("NaN"));
        assert!(json.contains("\"weird \\\"label\\\"\\\\\""));
        // Balanced braces/brackets and no trailing commas before closers.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n    }\n"));
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = BenchReport::new("serve_scaling");
        report.push(BenchScenario {
            scenario: "cache/workers=2".to_string(),
            throughput_rps: 412.25,
            p50_ms: 2.5,
            p90_ms: 4.0,
            p99_ms: 8.125,
            hit_rate: 0.25,
            mean_batch: 1.5,
            slo_p99_ms: 0.0,
        });
        report.push_roofline(RooflineEntry {
            phase: "raster/tiled".to_string(),
            seconds: 0.015625,
            gflops: 12.5,
            gbytes_s: 30.0,
            intensity: 0.75,
            efficiency: 0.40625,
            speedup: 2.5,
        });
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn reports_without_a_roofline_section_still_load() {
        // The pre-roofline schema: CI must be able to read last week's
        // artifact to diff against it.
        let legacy = "{\n  \"bench\": \"serve_scaling\",\n  \"scenarios\": [\n    {\n      \
                      \"scenario\": \"a\",\n      \"throughput_rps\": 10\n    }\n  ]\n}\n";
        let parsed = BenchReport::from_json(legacy).unwrap();
        assert_eq!(parsed.bench, "serve_scaling");
        assert_eq!(parsed.scenarios.len(), 1);
        assert_eq!(parsed.scenarios[0].throughput_rps, 10.0);
        assert_eq!(parsed.scenarios[0].p99_ms, 0.0);
        assert!(parsed.roofline.is_empty());
    }

    #[test]
    fn slo_thresholds_round_trip_and_stay_optional() {
        let mut report = BenchReport::new("trace_replay");
        report.push(
            BenchScenario {
                scenario: "flash-crowd".to_string(),
                p99_ms: 12.0,
                ..BenchScenario::default()
            }
            .with_slo_p99_ms(250.0),
        );
        report.push(BenchScenario {
            scenario: "no-slo".to_string(),
            ..BenchScenario::default()
        });
        let json = report.to_json();
        assert!(json.contains("\"slo_p99_ms\": 250"));
        assert_eq!(
            json.matches("slo_p99_ms").count(),
            1,
            "undeclared SLOs must be omitted: {json}"
        );
        let parsed = BenchReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_json_rejects_non_reports() {
        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{\"bench\": \"x\"}").is_err());
        assert!(BenchReport::from_json("{\"scenarios\": []}").is_err());
    }

    #[test]
    fn write_lands_on_disk() {
        let dir = std::env::temp_dir().join(format!("gs_bench_perf_{}", std::process::id()));
        // No create_dir_all here: write() must create missing parents itself.
        let path = dir.join("perf-reports").join("BENCH_test.json");
        let report = BenchReport::new("test");
        report.write(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, report.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
