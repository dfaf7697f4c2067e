//! The training workloads: GS-Scale (`OffloadOptions::full()`) training
//! on a synthetic scene, timed per `Trainer::step`.
//!
//! Each workload trains one fixed scene (its layout sets the work per
//! step, and `SceneDataset::generate` places cameras from a seed-dependent
//! altitude search, which moved step time by ±15% between scene seeds).
//! The run seed draws the rest of the input: the order in which the
//! training views are visited and a jitter of the initial Gaussians, so
//! every seed trains a different trajectory on the same scene.
//!
//! The traced run calls each layer's public function on the iteration's
//! real inputs (the trainer's current parameters, the view and its
//! target) just before `Trainer::step`, inside spans. The optimizer
//! layers run on mirror optimizers that start equal to the trainer's;
//! they stay exact until the first densification and are rebuilt fresh
//! after each one, so their times are approximations.

use std::time::Instant;

use gs_core::camera::{Camera, Viewport};
use gs_core::gaussian::{GaussianParams, ParamGroup, SparseGrads};
use gs_core::image::Image;
use gs_core::math::Vec3;
use gs_core::rng::Rng64;
use gs_core::scene::init_gaussians_from_point_cloud;
use gs_optim::{DeferredAdam, DenseAdam};
use gs_platform::PlatformSpec;
use gs_render::culling::frustum_cull;
use gs_render::loss::loss_and_grad;
use gs_render::pipeline::{render, render_backward, to_sparse_grads};
use gs_scene::{SceneConfig, SceneDataset};
use gs_train::densify::{DensifyAccumulator, DensifyConfig};
use gs_train::splitting::find_balanced_split;
use gs_train::{evaluate, OffloadOptions, OffloadTrainer, RunStats, TrainConfig, Trainer};

use crate::report::{peak_rss_mib, RunResult};
use crate::spans::Spans;
use crate::stats::{mean, median, percentile, windowed, windowed_rate, WINDOWS};
use crate::{SETUPS, SETUPS_BEFORE};

/// Training steps per requested second: sized so a run measures about
/// `--seconds` on a 2-core host. The count is a function of the
/// arguments only, never of the host's speed, so every build trains the
/// same number of steps.
const SPLIT_STEPS_PER_S: f64 = 7.0;
const GROW_STEPS_PER_S: f64 = 40.0;

/// A training workload's inputs, minus the seed.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Workload name.
    pub name: &'static str,
    /// Scene generator settings, including the fixed scene seed.
    pub scene: SceneConfig,
    /// Image-splitting threshold (`mem_limit`).
    pub mem_limit: f64,
    /// Densification schedule.
    pub densify: DensifyConfig,
    /// Training steps.
    pub steps: usize,
}

/// `train-split`: a compact scene whose every view exceeds `mem_limit`,
/// so each step renders two balanced sub-views; no densification.
pub fn split_spec(seconds: u64) -> TrainSpec {
    TrainSpec {
        name: "train-split",
        scene: SceneConfig {
            name: "compact".to_string(),
            num_gaussians: 3000,
            init_points: 3000,
            width: 128,
            height: 96,
            num_train_views: 16,
            num_test_views: 4,
            target_active_ratio: 0.9,
            extent: 40.0,
            far_view_fraction: 1.0,
            seed: 1,
        },
        mem_limit: 0.3,
        densify: DensifyConfig::disabled(),
        steps: (seconds as f64 * SPLIT_STEPS_PER_S).round().max(1.0) as usize,
    }
}

/// `train-grow`: a wider scene whose views mostly stay under `mem_limit`
/// (raised to 0.7, the user setting the paper sweeps in Fig. 15), with a
/// densification round every 50 steps that grows the model several-fold.
pub fn grow_spec(seconds: u64) -> TrainSpec {
    let steps = (seconds as f64 * GROW_STEPS_PER_S).round().max(1.0) as usize;
    TrainSpec {
        name: "train-grow",
        scene: SceneConfig {
            name: "wide".to_string(),
            num_gaussians: 12_000,
            init_points: 700,
            width: 128,
            height: 96,
            num_train_views: 16,
            num_test_views: 4,
            target_active_ratio: 0.15,
            extent: 80.0,
            far_view_fraction: 0.0,
            seed: 7,
        },
        mem_limit: 0.7,
        densify: DensifyConfig {
            start_iteration: 50,
            stop_iteration: steps + 1,
            interval: 50,
            grad_threshold: 0.0,
            split_scale_fraction: 0.01,
            prune_opacity: 0.005,
            max_gaussians: 5000,
        },
        steps,
    }
}

struct Setup {
    scene: SceneDataset,
    targets: Vec<Image>,
    /// Training view of each step.
    views: Vec<usize>,
    trainer: OffloadTrainer,
    init: GaussianParams,
    ground_truth_ms: Vec<f64>,
}

fn train_config(spec: &TrainSpec, scene: &SceneDataset) -> TrainConfig {
    let mut config = TrainConfig::reference(spec.steps, scene.scene_extent());
    config.mem_limit = spec.mem_limit;
    config.densify = spec.densify;
    config
}

fn set_up(spec: &TrainSpec, seed: u64) -> Setup {
    let scene = SceneDataset::generate(spec.scene.clone());
    let mut ground_truth_ms = Vec::new();
    let targets = scene
        .train_cameras
        .iter()
        .map(|cam| {
            let t = Instant::now();
            let image = scene.ground_truth(cam);
            ground_truth_ms.push(t.elapsed().as_secs_f64() * 1e3);
            image
        })
        .collect();
    let mut rng = Rng64::seed_from_u64(crate::mix(seed, 1));
    let mut init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
    for i in 0..init.len() {
        let r = 0.1 * init.scale(i).max_elem();
        let jitter = Vec3::new(
            rng.gen_range(-r..r),
            rng.gen_range(-r..r),
            rng.gen_range(-r..r),
        );
        init.set_mean(i, init.mean(i) + jitter);
    }
    // Every epoch visits each training view once, in a seeded order.
    let n_views = scene.train_cameras.len();
    let mut views = Vec::with_capacity(spec.steps);
    while views.len() < spec.steps {
        let mut epoch: Vec<usize> = (0..n_views).collect();
        for k in (1..n_views).rev() {
            epoch.swap(k, rng.gen_range(0..k + 1));
        }
        views.extend(epoch);
    }
    views.truncate(spec.steps);
    let trainer = OffloadTrainer::new(
        train_config(spec, &scene),
        OffloadOptions::full(),
        PlatformSpec::laptop_rtx4070m(),
        init.clone(),
        scene.scene_extent(),
    )
    .expect("the benchmark scenes fit the modelled laptop GPU");
    Setup {
        scene,
        targets,
        views,
        trainer,
        init,
        ground_truth_ms,
    }
}

/// Mirror of the trainer's optimizer state for the traced layer calls.
struct Mirror {
    params: GaussianParams,
    geom: DenseAdam,
    host: DeferredAdam,
    accum: DensifyAccumulator,
}

impl Mirror {
    fn new(trainer: &OffloadTrainer, config: &TrainConfig) -> Self {
        let params = trainer.params().clone();
        let n = params.len();
        Self {
            params,
            geom: DenseAdam::new(config.adam, n),
            host: DeferredAdam::new(config.adam, n),
            accum: DensifyAccumulator::new(n),
        }
    }
}

/// Per-step layer times of the traced run, in milliseconds.
#[derive(Default)]
struct Ledger {
    project: f64,
    bin: f64,
    raster: f64,
    updated: usize,
    total: usize,
}

/// Calls every layer of one GS-Scale step on `params` (the trainer's
/// current parameters), in the trainer's order, inside spans under `root`.
#[allow(clippy::too_many_arguments)]
fn probe_step(
    spans: &mut Spans,
    group: u64,
    root: usize,
    mirror: &mut Mirror,
    params: &GaussianParams,
    cam: &Camera,
    target: &Image,
    config: &TrainConfig,
    ledger: &mut Ledger,
) {
    let parent = Some(root);
    let total = params.len();
    let full_vp = Viewport::full(cam);
    let cull = spans.time(group, "render.cull", parent, || {
        frustum_cull(params, cam, &full_vp)
    });
    let split = total > 0 && cull.num_active() as f64 / total as f64 > config.mem_limit;
    let viewports = if split {
        let plan = spans.time(group, "train.split_search", parent, || {
            find_balanced_split(params, cam)
        });
        let (l, r) = plan.viewports(cam);
        vec![l, r]
    } else {
        vec![full_vp]
    };
    let full_pixels = cam.num_pixels() as f32;
    let mut merged = SparseGrads::new();
    for vp in &viewports {
        let ids = if split {
            spans.time(group, "render.cull", parent, || {
                frustum_cull(params, cam, vp).ids
            })
        } else {
            cull.ids.clone()
        };
        let staged = spans.time(group, "train.stage", parent, || {
            mirror
                .host
                .peek_restored(params, &ids, &ParamGroup::NON_GEOMETRIC)
        });
        let (output, d_image) = spans.time(group, "render.forward", parent, || {
            let output = render(&staged, cam, config.sh_degree, vp, config.background);
            let crop = if split {
                target.crop(vp.x0, vp.y0, vp.x1, vp.y1)
            } else {
                target.clone()
            };
            let (_, mut d_image) = loss_and_grad(config.loss, &output.image, &crop);
            let scale = vp.num_pixels() as f32 / full_pixels;
            if (scale - 1.0).abs() > f32::EPSILON {
                d_image.data_mut().iter_mut().for_each(|v| *v *= scale);
            }
            (output, d_image)
        });
        ledger.project += output.timings.project_s * 1e3;
        ledger.bin += output.timings.bin_s * 1e3;
        ledger.raster += output.timings.raster_s * 1e3;
        spans.time(group, "render.backward", parent, || {
            let grads = render_backward(&staged, cam, config.sh_degree, &output, &d_image);
            merged.merge(&to_sparse_grads(&ids, grads));
        });
    }
    let dense = spans.time(group, "train.grad_accum", parent, || {
        let dense = merged.to_dense(total);
        let all_ids: Vec<u32> = (0..total as u32).collect();
        mirror.accum.record(&all_ids, &dense);
        dense
    });
    spans.time(group, "optim.geom_adam", parent, || {
        let t = mirror.geom.advance();
        mirror
            .geom
            .apply_groups(&mut mirror.params, &dense, &ParamGroup::GEOMETRIC, t);
    });
    let stats = spans.time(group, "optim.host_adam", parent, || {
        mirror
            .host
            .step_groups(&mut mirror.params, &merged, &ParamGroup::NON_GEOMETRIC)
    });
    ledger.updated += stats.updated_gaussians;
    ledger.total += stats.total_gaussians;
}

fn params_finite(params: &GaussianParams) -> bool {
    ParamGroup::ALL
        .iter()
        .all(|&g| params.group(g).iter().all(|v| v.is_finite()))
}

/// Runs a training workload and returns what it measured.
pub fn run(spec: &TrainSpec, seed: u64, traced: bool) -> RunResult {
    let mut result = RunResult::default();
    result.setting("scene_gaussians", spec.scene.num_gaussians);
    result.setting("init_gaussians", spec.scene.init_points);
    result.setting(
        "image",
        format!("{}x{}", spec.scene.width, spec.scene.height),
    );
    result.setting("target_active_ratio", spec.scene.target_active_ratio);
    result.setting("mem_limit", spec.mem_limit);
    result.setting(
        "densify",
        if spec.densify.enabled() {
            format!(
                "every {} from {} to {}, grad_threshold {}, max {}",
                spec.densify.interval,
                spec.densify.start_iteration,
                spec.densify.stop_iteration,
                spec.densify.grad_threshold,
                spec.densify.max_gaussians
            )
        } else {
            "off".to_string()
        },
    );
    result.setting("steps", spec.steps);
    result.setting("options", "OffloadOptions::full()");
    result.setting("platform", "laptop_rtx4070m");

    // Set up several times; the last set-up is the one trained.
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS_BEFORE {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(spec, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Setup {
        scene,
        targets,
        views,
        mut trainer,
        init,
        ground_truth_ms,
    } = setup.expect("at least one set-up");

    let t_eval = Instant::now();
    let initial_psnr = evaluate(&init, &scene).psnr;
    let mut eval_ms = vec![t_eval.elapsed().as_secs_f64() * 1e3];
    drop(init);

    let config = train_config(spec, &scene);
    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let mut mirror = traced.then(|| Mirror::new(&trainer, &config));
    let mut ledger = Ledger::default();

    let mut run_stats = RunStats::default();
    let mut step_ms = Vec::with_capacity(spec.steps);
    // When each step (with its densification) finished, in seconds of
    // the trainer's own time.
    let mut done_s = Vec::with_capacity(spec.steps);
    let mut densify_ms_total = 0.0;
    let mut densify_events = 0usize;
    let mut bad_steps = 0u64;

    let loop_start = Instant::now();
    for (i, &view) in views.iter().enumerate() {
        let cam = &scene.train_cameras[view];
        let target = &targets[view];
        let group = i as u64;
        let root = traced.then(|| spans.open(group, "iteration", None));
        if let (Some(root), Some(mirror)) = (root, mirror.as_mut()) {
            probe_step(
                &mut spans,
                group,
                root,
                mirror,
                trainer.params(),
                cam,
                target,
                &config,
                &mut ledger,
            );
        }
        let t = Instant::now();
        let step = trainer.step(cam, target);
        let t_step = t.elapsed();
        step_ms.push(t_step.as_secs_f64() * 1e3);
        if let Some(root) = root {
            let start = spans.at(t);
            spans.push(
                group,
                "trainer.step",
                Some(root),
                start,
                start + t_step.as_nanos() as u64,
            );
        }
        match step {
            Ok(stats) => {
                if !stats.loss.is_finite() {
                    bad_steps += 1;
                }
                run_stats.iterations.push(stats);
            }
            Err(e) => {
                eprintln!("step {i} failed: {e}");
                bad_steps += 1;
            }
        }
        let before = trainer.num_gaussians();
        let t = Instant::now();
        let densified = trainer.densify_if_due();
        let t_densify = t.elapsed();
        densify_ms_total += t_densify.as_secs_f64() * 1e3;
        if let Some(root) = root {
            let start = spans.at(t);
            spans.push(
                group,
                "train.densify",
                Some(root),
                start,
                start + t_densify.as_nanos() as u64,
            );
        }
        if densified.is_err() {
            bad_steps += 1;
        }
        done_s.push(if traced {
            // Probes excluded: the trainer's share of the wall clock.
            done_s.last().copied().unwrap_or(0.0) + (t_step + t_densify).as_secs_f64()
        } else {
            loop_start.elapsed().as_secs_f64()
        });
        if trainer.num_gaussians() != before {
            densify_events += 1;
            if let Some(mirror) = mirror.as_mut() {
                *mirror = Mirror::new(&trainer, &config);
            }
        }
        if let Some(root) = root {
            spans.close(root);
        }
    }
    let t = Instant::now();
    trainer.flush();
    let flush_ms = t.elapsed().as_secs_f64() * 1e3;
    let wall_s = loop_start.elapsed().as_secs_f64();
    let steps = spec.steps as f64;

    let t_eval = Instant::now();
    let psnr = evaluate(trainer.params(), &scene).psnr;
    eval_ms.push(t_eval.elapsed().as_secs_f64() * 1e3);

    result.attempted += spec.steps as u64;
    result.failed += bad_steps;
    result.check("loss finite every step", bad_steps == 0);
    result.check("params finite after flush", params_finite(trainer.params()));
    result.check(
        format!("psnr {psnr:.3} dB beats the initial model's {initial_psnr:.3} dB"),
        psnr > initial_psnr,
    );

    let split_ratio = run_stats.split_fraction();
    let active_ratio = run_stats.mean_active_ratio();
    if spec.densify.enabled() {
        result.check(
            format!("densification changed the model {densify_events} times (>= 3)"),
            densify_events >= 3,
        );
    } else {
        result.check(
            format!("every step split ({:.3} of steps)", split_ratio),
            split_ratio >= 0.999,
        );
    }

    // End-to-end: medians over windows of the run.
    let n = step_ms.len();
    result.e2e("peak_rss_mib", peak_rss_mib(), 1);
    for _ in SETUPS_BEFORE..SETUPS {
        let t = Instant::now();
        let extra = set_up(spec, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(extra);
    }
    result.e2e("setup_s", median(&setup_s), setup_s.len());
    result.e2e(
        "ok_ratio",
        1.0 - result.failed as f64 / result.attempted.max(1) as f64,
        result.attempted as usize,
    );
    result.e2e("images_per_s", windowed_rate(&done_s, WINDOWS), n);

    // Workload-specific end-to-end figures (recorded, not gated).
    result.record("images_per_s_whole_run", steps / wall_s, "1/s", "higher", n);
    result.record(
        "failed_ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
        "ratio",
        "lower",
        result.attempted as usize,
    );
    result.record("step_p50_ms", percentile(&step_ms, 0.5), "ms", "lower", n);
    result.record(
        "step_p50_windowed_ms",
        windowed(&step_ms, WINDOWS, median),
        "ms",
        "lower",
        n,
    );
    result.record("step_p90_ms", percentile(&step_ms, 0.9), "ms", "lower", n);
    result.record("psnr_db", psnr, "dB", "higher", scene.test_cameras.len());
    result.record(
        "initial_psnr_db",
        initial_psnr,
        "dB",
        "higher",
        scene.test_cameras.len(),
    );
    result.record(
        "model_images_per_s",
        run_stats.throughput_images_per_s(),
        "1/s",
        "higher",
        run_stats.iterations.len(),
    );
    result.record(
        "model_peak_gpu_mib",
        trainer.peak_gpu_memory() as f64 / (1u64 << 20) as f64,
        "MiB",
        "lower",
        1,
    );

    // Per-layer.
    result.layer("train.active_ratio", active_ratio, n);
    result.layer("train.split_ratio", split_ratio, n);
    result.layer("train.densify_events", densify_events as f64, n);
    result.layer("train.final_gaussians", trainer.num_gaussians() as f64, 1);
    result.layer("train.densify_ms", densify_ms_total / steps, n);
    result.layer("train.flush_ms", flush_ms, 1);
    result.layer(
        "scene.ground_truth_ms",
        mean(&ground_truth_ms),
        ground_truth_ms.len(),
    );
    result.layer("metrics.eval_ms", mean(&eval_ms), eval_ms.len());
    for (phase, secs) in run_stats.phase_breakdown() {
        result.layer(&format!("model.{phase}_ms"), secs * 1e3 / steps, n);
    }
    if traced {
        let self_ms = spans.self_ms_by_name();
        let per_step = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / steps;
        let names = [
            "render.cull",
            "train.split_search",
            "train.stage",
            "render.forward",
            "render.backward",
            "train.grad_accum",
            "optim.geom_adam",
            "optim.host_adam",
        ];
        let mut layers_ms = 0.0;
        for name in names {
            layers_ms += per_step(name);
            result.layer(&format!("{name}_ms"), per_step(name), n);
        }
        result.layer("render.project_ms", ledger.project / steps, n);
        result.layer("render.bin_ms", ledger.bin / steps, n);
        result.layer("render.raster_ms", ledger.raster / steps, n);
        result.layer(
            "optim.updated_ratio",
            ledger.updated as f64 / ledger.total.max(1) as f64,
            n,
        );
        let step_mean = mean(&step_ms);
        result.layer("train.step_residual_ms", step_mean - layers_ms, n);
        // Tracing overhead: traced wall time per image (probes, spans and
        // the trainer) minus the untraced path's (trainer step + densify).
        let untraced_ms = (step_ms.iter().sum::<f64>() + densify_ms_total) / steps;
        result.layer("trace.overhead_ms", wall_s * 1e3 / steps - untraced_ms, n);
        crate::write_spans(spec.name, seed, &spans);
    }
    result
}
