//! Seeded property tests pinning the render kernel's one invariant: the
//! production rasterizer is **bit-identical** to the scalar oracles at any
//! thread count and on any viewport.
//!
//! The render crate keeps the pixel-outer scalar rasterizers as
//! `rasterize_{forward,layer}_reference` oracles; these tests drive the
//! row-blend band driver behind `rasterize_forward` and `rasterize_layer`
//! (at several thread counts), the whole pipeline, and the sharded
//! [`FrameLayer`] relay composite against them across randomly generated
//! scenes, cameras, background colors and viewports: the full image
//! (including sides that are not tile multiples), both halves of a
//! `split_at_column` (what balance-aware image splitting renders every
//! training step), and an offset sub-viewport with unaligned sides (what
//! `POST /render` accepts). Like `property_invariants.rs`, the cases are
//! driven by the workspace's own deterministic [`Rng64`], so every failure
//! is reproducible from its seed.

use gs_scale::core::camera::{Camera, Viewport};
use gs_scale::core::gaussian::GaussianParams;
use gs_scale::core::math::Vec3;
use gs_scale::core::rng::Rng64;
use gs_scale::core::sh;
use gs_scale::render::pipeline::{render, render_tiled};
use gs_scale::render::tiles::{TileGrid, TILE_SIZE};
use gs_scale::render::{
    project_splats, rasterize_forward, rasterize_forward_reference, rasterize_layer,
    rasterize_layer_reference, FrameLayer,
};

const CASES: u64 = 12;

/// A random scene with anisotropic-ish placement and non-trivial SH bands,
/// so every SH degree produces distinct colors.
fn random_scene(rng: &mut Rng64) -> GaussianParams {
    let n = rng.gen_range(40usize..160);
    let mut p = GaussianParams::with_capacity(n);
    for _ in 0..n {
        let opacity = rng.gen_range(0.1f32..0.95);
        p.push_isotropic(
            Vec3::new(
                rng.gen_range(-6.0f32..6.0),
                rng.gen_range(-5.0f32..5.0),
                rng.gen_range(-3.0f32..7.0),
            ),
            rng.gen_range(0.05f32..0.5),
            [rng.gen_f32(), rng.gen_f32(), rng.gen_f32()],
            opacity,
        );
    }
    for i in 0..p.len() {
        for (k, v) in p.sh_coeffs_mut(i).iter_mut().enumerate() {
            *v += (i as f32 + 1.0) * 0.01 * (k as f32 * 0.7).sin();
        }
    }
    p
}

/// A random camera with a viewport whose sides are deliberately not always
/// multiples of the tile size, so partial edge tiles stay covered.
fn random_camera(rng: &mut Rng64) -> Camera {
    Camera::look_at(
        rng.gen_range(33usize..97),
        rng.gen_range(17usize..73),
        rng.gen_range(0.7f32..1.5),
        Vec3::new(
            rng.gen_range(-2.0f32..2.0),
            rng.gen_range(-2.0f32..2.0),
            rng.gen_range(-13.0f32..-7.0),
        ),
        Vec3::ZERO,
        Vec3::new(0.0, 1.0, 0.0),
    )
}

fn random_background(rng: &mut Rng64) -> [f32; 3] {
    [rng.gen_f32(), rng.gen_f32(), rng.gen_f32()]
}

/// The sub-viewports a render is asked for besides the full image: both
/// halves of a random `split_at_column`, and an offset viewport
/// (`x0, y0 > 0`) whose sides are not multiples of the tile size.
fn sub_viewports(rng: &mut Rng64, cam: &Camera) -> [(&'static str, Viewport); 3] {
    let full = Viewport::full(cam);
    let (left, right) = full.split_at_column(rng.gen_range(1..cam.width));
    let unaligned = |n: usize| n - usize::from(n.is_multiple_of(TILE_SIZE));
    let x0 = rng.gen_range(1..cam.width / 3);
    let y0 = rng.gen_range(1..cam.height / 3);
    let width = unaligned(rng.gen_range(TILE_SIZE + 1..cam.width - x0 + 1));
    let height = unaligned(rng.gen_range(2..cam.height - y0 + 1));
    let offset = Viewport {
        x0,
        y0,
        x1: x0 + width,
        y1: y0 + height,
    };
    [("left", left), ("right", right), ("offset", offset)]
}

/// The production rasterizer, on one thread and fanned out (including more
/// threads than tile rows), must reproduce the scalar reference image,
/// transmittance and per-pixel processed counts on the full image and on
/// every kind of sub-viewport.
#[test]
fn raster_kernels_match_reference_across_scenes_and_threads() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xa57e + seed);
        let params = random_scene(&mut rng);
        let cam = random_camera(&mut rng);
        let bg = random_background(&mut rng);
        let full = ("full", Viewport::full(&cam));
        for (name, vp) in std::iter::once(full).chain(sub_viewports(&mut rng, &cam)) {
            let splats = project_splats(&params, &cam, sh::MAX_DEGREE, &vp);
            let grid = TileGrid::build(&splats, vp);
            let (img_ref, aux_ref) = rasterize_forward_reference(&splats, &grid, bg);
            for threads in [1usize, 2, 3, 7, 64] {
                let (img, aux) = rasterize_forward(&splats, &grid, bg, threads);
                assert_eq!(
                    img.data(),
                    img_ref.data(),
                    "image: seed {seed} {name} viewport threads {threads}"
                );
                assert_eq!(
                    aux.final_transmittance, aux_ref.final_transmittance,
                    "transmittance: seed {seed} {name} viewport threads {threads}"
                );
                assert_eq!(
                    aux.n_processed, aux_ref.n_processed,
                    "processed counts: seed {seed} {name} viewport threads {threads}"
                );
            }
        }
    }
}

/// The whole pipeline — projection, binning, rasterization — is
/// thread-count-invariant end to end, including its stats.
#[test]
fn tiled_pipeline_matches_sequential_across_scenes() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x71e0 + seed);
        let params = random_scene(&mut rng);
        let cam = random_camera(&mut rng);
        let vp = Viewport::full(&cam);
        let bg = random_background(&mut rng);
        let degree = rng.gen_range(0usize..sh::MAX_DEGREE + 1);
        let sequential = render(&params, &cam, degree, &vp, bg);
        for threads in [2usize, 5] {
            let tiled = render_tiled(&params, &cam, degree, &vp, bg, threads);
            assert_eq!(
                tiled.image.data(),
                sequential.image.data(),
                "pipeline image: seed {seed} threads {threads}"
            );
            assert_eq!(
                tiled.stats, sequential.stats,
                "pipeline stats: seed {seed} threads {threads}"
            );
        }
    }
}

/// Depth-disjoint shards relayed through one running [`FrameLayer`] — with
/// each shard rasterized on one thread or fanned out — must reproduce the
/// single-pass frame byte for byte on the full image and on every kind of
/// sub-viewport, which is the invariant the cluster's cross-node sharded
/// rendering rests on.
#[test]
fn sharded_layer_relay_matches_single_pass_across_scenes() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x5a4d + seed);
        let params = random_scene(&mut rng);
        let cam = random_camera(&mut rng);
        let bg = random_background(&mut rng);
        check_relay(
            &mut rng,
            &params,
            &cam,
            Viewport::full(&cam),
            bg,
            seed,
            "full",
        );
        for (name, vp) in sub_viewports(&mut rng, &cam) {
            check_relay(&mut rng, &params, &cam, vp, bg, seed, name);
        }
    }
}

/// One relay case: cuts the depth-sorted splats of `vp` into 2–4 shards at
/// random points and relays them through sequential, fanned-out and scalar
/// reference layers.
fn check_relay(
    rng: &mut Rng64,
    params: &GaussianParams,
    cam: &Camera,
    vp: Viewport,
    bg: [f32; 3],
    seed: u64,
    name: &str,
) {
    let mut splats = project_splats(params, cam, sh::MAX_DEGREE, &vp);
    // Depth-disjoint shards: globally sort by depth, cut at random points.
    // Sorting first keeps the single-pass composition order identical (the
    // tile sort is stable and by depth already).
    splats.sort_by(|a, b| a.depth.partial_cmp(&b.depth).unwrap());
    let full_grid = TileGrid::build(&splats, vp);
    let (single, _) = rasterize_forward(&splats, &full_grid, bg, 1);

    let shards = rng.gen_range(2usize..5);
    let mut cuts: Vec<usize> = (0..shards - 1)
        .map(|_| rng.gen_range(0usize..splats.len() + 1))
        .collect();
    cuts.push(splats.len());
    cuts.sort_unstable();

    let mut relay = FrameLayer::new(vp.width(), vp.height());
    let mut relay_tiled = FrameLayer::new(vp.width(), vp.height());
    let mut reference = FrameLayer::new(vp.width(), vp.height());
    let mut start = 0;
    for &end in &cuts {
        let shard = &splats[start..end];
        let grid = TileGrid::build(shard, vp);
        rasterize_layer(shard, &grid, &mut relay, 1);
        rasterize_layer(shard, &grid, &mut relay_tiled, 3);
        rasterize_layer_reference(shard, &grid, &mut reference);
        start = end;
    }
    assert_eq!(
        relay.finish(bg).data(),
        single.data(),
        "relay drifted from the single pass: seed {seed} {name} viewport"
    );
    assert_eq!(
        relay_tiled, relay,
        "tiled relay drifted from the sequential relay: seed {seed} {name} viewport"
    );
    assert_eq!(
        reference, relay,
        "layer kernel drifted from the scalar layer kernel: seed {seed} {name} viewport"
    );
}
