//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-split|train-grow|serve-zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, runs it, checks the
//! outputs, and prints a table, a `record` line with every measured value
//! and the run's identity, and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of the separate traced
//! run (`--trace 1`). See `perfbench/README.md`.

mod report;
mod serve;
mod spans;
mod stats;
mod train;

use std::process::ExitCode;

use report::{RunInfo, RunResult};
use spans::Spans;

/// End-to-end metrics, reported by every workload: `(name, unit, better)`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("images_per_s", "1/s", "higher"),
];

/// Per-layer metrics, reported by every workload; a layer that is not on
/// a workload's path reports 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("render.cull_ms", "ms", "lower"),
    ("train.split_search_ms", "ms", "lower"),
    ("train.stage_ms", "ms", "lower"),
    ("render.forward_ms", "ms", "lower"),
    ("render.project_ms", "ms", "lower"),
    ("render.bin_ms", "ms", "lower"),
    ("render.raster_ms", "ms", "lower"),
    ("render.backward_ms", "ms", "lower"),
    ("train.grad_accum_ms", "ms", "lower"),
    ("optim.geom_adam_ms", "ms", "lower"),
    ("optim.host_adam_ms", "ms", "lower"),
    ("optim.updated_ratio", "ratio", "lower"),
    ("train.densify_ms", "ms", "lower"),
    ("train.densify_events", "count", "higher"),
    ("train.final_gaussians", "count", "higher"),
    ("train.flush_ms", "ms", "lower"),
    ("train.active_ratio", "ratio", "lower"),
    ("train.split_ratio", "ratio", "lower"),
    ("train.step_residual_ms", "ms", "lower"),
    ("scene.ground_truth_ms", "ms", "lower"),
    ("metrics.eval_ms", "ms", "lower"),
    ("model.frustum_cull_ms", "ms", "lower"),
    ("model.h2d_params_ms", "ms", "lower"),
    ("model.gpu_fwd_bwd_ms", "ms", "lower"),
    ("model.d2h_grads_ms", "ms", "lower"),
    ("model.msq_optimizer_ms", "ms", "lower"),
    ("model.cpu_optimizer_ms", "ms", "lower"),
    ("http.self_ms", "ms", "lower"),
    ("cluster.self_ms", "ms", "lower"),
    ("cluster.relay_ms", "ms", "lower"),
    ("serve.self_ms", "ms", "lower"),
    ("kernel.render_ms", "ms", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.mean_batch", "count", "higher"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("cluster.replications", "count", "lower"),
    ("cluster.shed", "count", "lower"),
    ("cluster.brownouts", "count", "lower"),
    ("cluster.failovers", "count", "lower"),
    ("gen.lateness_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["train-split", "train-grow", "serve-zipf"];

/// Set-ups per run; `setup_s` is their median. The first `SETUPS_BEFORE`
/// come before the measured part of the run (the last of them is the one
/// measured) and the rest after it, so the median samples the host's
/// speed at both ends of the run, not in one stretch of it.
pub const SETUPS: usize = 9;
/// Set-ups before the measured part; see `SETUPS`.
pub const SETUPS_BEFORE: usize = 5;

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Writes the traced run's spans under the build directory named by
/// `CARGO_TARGET_DIR`, else under the package's own `target/`.
pub fn write_spans(workload: &str, seed: u64, spans: &Spans) {
    let dir = std::env::var("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("perfbench/target"))
        .join("perfbench-spans");
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {}", spans.spans().len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(25);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload.
pub fn run_workload(workload: &str, seed: u64, seconds: u64, trace: bool) -> RunResult {
    let mut result = match workload {
        "train-split" => train::run(&train::split_spec(seconds), seed, trace),
        "train-grow" => train::run(&train::grow_spec(seconds), seed, trace),
        "serve-zipf" => serve::run(&serve::zipf_spec(seconds), seed, trace),
        other => unreachable!("workload {other} was validated"),
    };
    if trace {
        for &(name, _, _) in PER_LAYER {
            if result.get(name).is_none() {
                result.layer(name, 0.0, 0);
            }
        }
    }
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run_workload(&args.workload, args.seed, args.seconds, args.trace);
    let names: Vec<&str> = if args.trace { PER_LAYER } else { END_TO_END }
        .iter()
        .map(|&(name, _, _)| name)
        .collect();
    report::print(
        &RunInfo {
            workload: &args.workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        },
        &result,
        &names,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_scene::SceneConfig;
    use gs_train::densify::DensifyConfig;

    fn listed(result: &RunResult, list: &[(&str, &str, &str)]) {
        for &(name, _, _) in list {
            let m = result.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(m.value.is_finite(), "{name} = {}", m.value);
        }
    }

    fn passed(result: &RunResult, prefix: &str) -> bool {
        result
            .checks
            .iter()
            .any(|(name, ok)| name.starts_with(prefix) && *ok)
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(name, unit, better)| (name, Some((unit, better))))
            .chain(WORKLOADS.iter().map(|&w| (w, None)));
        let mut count = 0;
        for (name, unit_better) in names {
            count += 1;
            let entry = format!("{{\"name\": \"{name}\"");
            let at = json
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} not in BENCHMARK.json"));
            if let Some((unit, better)) = unit_better {
                let line = &json[at..json[at..].find('}').map_or(json.len(), |e| at + e)];
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
                assert!(
                    line.contains(&format!("\"better\": \"{better}\"")),
                    "{line}"
                );
            }
        }
        assert_eq!(json.matches("{\"name\": ").count(), count);
    }

    fn tiny_scene(gaussians: usize, init: usize, ratio: f64, far: f64) -> SceneConfig {
        SceneConfig {
            name: "tiny".to_string(),
            num_gaussians: gaussians,
            init_points: init,
            width: 32,
            height: 24,
            num_train_views: 4,
            num_test_views: 2,
            target_active_ratio: ratio,
            extent: 40.0,
            far_view_fraction: far,
            seed: 3,
        }
    }

    #[test]
    fn train_split_smoke() {
        let mut spec = train::split_spec(1);
        spec.scene = tiny_scene(200, 200, 0.9, 1.0);
        spec.steps = 6;
        for traced in [false, true] {
            let result = train::run(&spec, 5, traced);
            listed(&result, END_TO_END);
            assert!(passed(&result, "loss finite"));
            assert!(passed(&result, "params finite"));
            assert!(passed(&result, "every step split"));
            if traced {
                assert!(result.get("train.split_search_ms").unwrap().value > 0.0);
                assert!(result.get("render.backward_ms").unwrap().value > 0.0);
            }
        }
    }

    #[test]
    fn train_grow_smoke() {
        let mut spec = train::grow_spec(1);
        spec.scene = tiny_scene(400, 100, 0.2, 0.0);
        spec.steps = 8;
        spec.densify = DensifyConfig {
            start_iteration: 2,
            stop_iteration: 9,
            interval: 2,
            grad_threshold: 0.0,
            ..spec.densify
        };
        let result = train::run(&spec, 5, true);
        listed(&result, END_TO_END);
        assert!(passed(&result, "loss finite"));
        assert!(passed(&result, "densification changed"));
        assert!(result.get("train.densify_events").unwrap().value >= 3.0);
        assert!(result.get("optim.host_adam_ms").unwrap().value > 0.0);
    }

    #[test]
    fn serve_zipf_smoke() {
        let mut spec = serve::zipf_spec(1);
        spec.scenes = 3;
        spec.gaussians = 150;
        spec.sharded_gaussians = 1000;
        for (rung, rate) in spec.ladder.iter_mut().zip([40.0, 80.0, 400.0]) {
            rung.rate_rps = rate;
            rung.seconds = 0.5;
        }
        spec.warmup = 10;
        spec.replay = 15;
        let result = serve::run(&spec, 5, true);
        listed(&result, END_TO_END);
        assert!(result.correct(), "{:?}", result.checks);
        assert!(result.get("kernel.render_ms").unwrap().samples > 0);
    }
}
