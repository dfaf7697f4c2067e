//! The result of one benchmark run and how it is printed.

use std::fmt::Write as _;
use std::process::Command;

/// Which list a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end metric printed by the untraced run (`BENCHMARK.json`
    /// `end_to_end`).
    EndToEnd,
    /// Per-layer metric printed by the traced run (`per_layer`).
    Layer,
    /// Recorded in the run record only: workload-specific end-to-end
    /// figures that have no meaning on every workload.
    Record,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Number of samples behind the value.
    pub samples: usize,
    /// Which list the metric belongs to.
    pub kind: Kind,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Units of work attempted (steps or requests) plus output checks.
    pub attempted: u64,
    /// Failed steps or requests plus failed output checks.
    pub failed: u64,
    /// Named output checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Every measured metric.
    pub metrics: Vec<Metric>,
    /// Workload settings worth recording (`key`, `value`).
    pub settings: Vec<(String, String)>,
}

impl RunResult {
    /// Records an output check; a failed check counts as a failure.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    /// Adds an end-to-end metric; its unit and direction come from
    /// [`crate::END_TO_END`].
    pub fn e2e(&mut self, name: &str, value: f64, samples: usize) {
        self.listed(crate::END_TO_END, Kind::EndToEnd, name, value, samples);
    }

    /// Adds a per-layer metric; its unit and direction come from
    /// [`crate::PER_LAYER`].
    pub fn layer(&mut self, name: &str, value: f64, samples: usize) {
        self.listed(crate::PER_LAYER, Kind::Layer, name, value, samples);
    }

    /// Adds a metric that only the run record carries.
    pub fn record(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        better: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            better,
            samples,
            kind: Kind::Record,
        });
    }

    fn listed(
        &mut self,
        list: &[(&'static str, &'static str, &'static str)],
        kind: Kind,
        name: &str,
        value: f64,
        samples: usize,
    ) {
        let &(_, unit, better) = list
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not listed"));
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            better,
            samples,
            kind,
        });
    }

    /// Records a workload setting.
    pub fn setting(&mut self, key: &str, value: impl ToString) {
        self.settings.push((key.to_string(), value.to_string()));
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The metric called `name`, if measured.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Output of a short command, trimmed; `none` when it cannot run.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".to_string())
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which fail the run) print as `0`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Run identity recorded next to the numbers.
pub struct RunInfo<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
}

/// Prints the human-readable table, the full run record and, as the last
/// line, the result object (`correct`, `attempted`, `failed`, `metrics`)
/// holding the end-to-end metrics (untraced run) or the per-layer metrics
/// (traced run) named in `names`.
pub fn print(info: &RunInfo<'_>, result: &RunResult, names: &[&str]) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rustc = command_output("rustc", &["-V"]);
    let sha = command_output("git", &["--git-dir=.git", "rev-parse", "HEAD"]);

    println!(
        "workload {} seed {} seconds {} trace {} | nproc {nproc} | {profile} | {rustc} | git {sha}",
        info.workload, info.seed, info.seconds, info.trace as u8
    );
    for (k, v) in &result.settings {
        println!("  setting {k} = {v}");
    }
    println!(
        "  {:<28} {:>14} {:<6} {:<7} {:>8}",
        "metric", "value", "unit", "better", "samples"
    );
    for m in &result.metrics {
        let tag = match m.kind {
            Kind::EndToEnd => "",
            Kind::Layer => "  [layer]",
            Kind::Record => "  [record]",
        };
        println!(
            "  {:<28} {:>14.4} {:<6} {:<7} {:>8}{tag}",
            m.name, m.value, m.unit, m.better, m.samples
        );
    }
    for (name, ok) in &result.checks {
        println!("  check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }

    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"profile\":{},\"rustc\":{},\"git_sha\":{},\"settings\":{{",
        json_str(info.workload),
        info.seed,
        info.seconds,
        info.trace,
        json_str(profile),
        json_str(&rustc),
        json_str(&sha)
    );
    let settings: Vec<String> = result
        .settings
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    record.push_str(&settings.join(","));
    record.push_str("},\"checks\":{");
    let checks: Vec<String> = result
        .checks
        .iter()
        .map(|(k, ok)| format!("{}:{ok}", json_str(k)))
        .collect();
    record.push_str(&checks.join(","));
    record.push_str("},\"metrics\":{");
    let all: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"better\":{},\"samples\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                json_str(m.better),
                m.samples
            )
        })
        .collect();
    record.push_str(&all.join(","));
    record.push_str("}}");
    println!("record {record}");

    let mut correct = result.correct();
    let mut out: Vec<String> = Vec::new();
    for name in names {
        match result.get(name) {
            Some(m) => out.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(m.value),
                json_str(m.unit)
            )),
            None => {
                eprintln!("metric {name} was not measured");
                correct = false;
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.attempted.max(1),
        result.failed,
        out.join(",")
    );
}
