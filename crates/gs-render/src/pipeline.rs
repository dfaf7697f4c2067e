//! The end-to-end differentiable render used by the trainers.
//!
//! [`render`] runs projection → tile binning → rasterization and returns the
//! image plus everything needed for the backward pass. [`render_backward`]
//! takes a gradient image and produces dense gradients over the parameter
//! container that was rendered. When the container holds only the gathered
//! visible Gaussians (as it does in every offloading trainer), those
//! gradients are exactly the sparse gradients GS-Scale moves between devices.

use gs_core::camera::{Camera, Viewport};
use gs_core::gaussian::{GaussianGrads, GaussianParams, SparseGrads};
use gs_core::image::Image;

use crate::cost::{self, WorkEstimate};
use crate::loss::{loss_and_grad, LossKind};
use crate::projection::{project_splats, projection_backward, Splat};
use crate::rasterize::{
    rasterize_backward, rasterize_forward, rasterize_layer, FrameLayer, RasterAux,
};
use crate::tiles::TileGrid;

/// Counters describing how much work one render performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenderStats {
    /// Number of Gaussians in the input container.
    pub num_input: usize,
    /// Number of splats that survived fine-grained projection culling.
    pub num_splats: usize,
    /// Number of (splat, tile-pixel) pairs processed by the rasterizer.
    pub num_pairs: usize,
    /// Number of output pixels.
    pub num_pixels: usize,
}

impl RenderStats {
    /// Work estimate for the forward pass (projection + rasterization).
    pub fn forward_work(&self) -> WorkEstimate {
        cost::projection_cost(self.num_splats)
            .combine(&cost::raster_forward_cost(self.num_pairs, self.num_pixels))
    }

    /// Work estimate for the backward pass (rasterizer + projection backward).
    pub fn backward_work(&self) -> WorkEstimate {
        cost::backward_cost(self.num_pairs, self.num_splats, self.num_pixels)
    }
}

/// Wall-clock phase timings of one forward render, for roofline-style
/// achieved-vs-peak accounting. Kept separate from [`RenderStats`] (which
/// stays `Eq`-comparable across runs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RenderTimings {
    /// Seconds spent in projection (EWA projection and SH color).
    pub project_s: f64,
    /// Seconds spent binning splats into tiles.
    pub bin_s: f64,
    /// Seconds spent rasterizing (blending).
    pub raster_s: f64,
}

impl RenderTimings {
    /// Total render time across phases, in seconds.
    pub fn total_s(&self) -> f64 {
        self.project_s + self.bin_s + self.raster_s
    }
}

/// Everything produced by a forward render.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// Rendered image, sized to the viewport.
    pub image: Image,
    /// Projected splats (parallel with the gradients computed in backward).
    pub splats: Vec<Splat>,
    /// Tile binning used by the rasterizer.
    pub grid: TileGrid,
    /// Per-pixel auxiliary state for the backward pass.
    pub aux: RasterAux,
    /// Work counters.
    pub stats: RenderStats,
    /// Per-phase wall-clock timings.
    pub timings: RenderTimings,
}

impl RenderOutput {
    /// Indices (into the rendered parameter container) of Gaussians that
    /// produced splats, deduplicated and sorted.
    pub fn contributing_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.splats.iter().map(|s| s.idx).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Renders `params` from `cam` over `viewport`.
///
/// `sh_degree` selects the number of SH bands used for color (0..=3) and
/// `background` is composited behind the splats.
pub fn render(
    params: &GaussianParams,
    cam: &Camera,
    sh_degree: usize,
    viewport: &Viewport,
    background: [f32; 3],
) -> RenderOutput {
    render_tiled(params, cam, sh_degree, viewport, background, 1)
}

/// [`render`] with rasterization fanned out over up to `threads` scoped
/// worker threads, each blending a contiguous band of tile rows.
///
/// Bit-identical to the sequential [`render`] at any thread count: bands
/// write disjoint pixel rows and every pixel's blend runs the same
/// floating-point sequence. `threads <= 1` is the sequential pass.
pub fn render_tiled(
    params: &GaussianParams,
    cam: &Camera,
    sh_degree: usize,
    viewport: &Viewport,
    background: [f32; 3],
    threads: usize,
) -> RenderOutput {
    let ((image, aux), splats, grid, stats, timings) =
        render_with(params, cam, sh_degree, viewport, |splats, grid| {
            rasterize_forward(splats, grid, background, threads)
        });
    RenderOutput {
        image,
        splats,
        grid,
        aux,
        stats,
        timings,
    }
}

/// Renders `params` as a partial frame *into* `layer`, continuing the
/// layer's per-pixel front-to-back blend (see
/// [`crate::rasterize::FrameLayer`]).
///
/// This is the per-shard render of scene sharding: each shard of a
/// partitioned scene is rendered into the running layer in front-to-back
/// shard order, and [`FrameLayer::finish`] composites the background once
/// at the end. For depth-disjoint shards the result is bit-identical to
/// rendering the whole scene at once.
///
/// # Panics
///
/// Panics if `layer`'s size does not match the viewport.
pub fn render_layer(
    params: &GaussianParams,
    cam: &Camera,
    sh_degree: usize,
    viewport: &Viewport,
    layer: &mut FrameLayer,
) -> RenderStats {
    render_layer_tiled(params, cam, sh_degree, viewport, layer, 1).0
}

/// [`render_layer`] with rasterization fanned out over up to `threads`
/// scoped worker threads (see [`render_tiled`]), also reporting per-phase
/// wall time for the serving tier's live kernel-phase profiling.
/// Bit-identical to the sequential pass.
///
/// # Panics
///
/// Panics if `layer`'s size does not match the viewport.
pub fn render_layer_tiled(
    params: &GaussianParams,
    cam: &Camera,
    sh_degree: usize,
    viewport: &Viewport,
    layer: &mut FrameLayer,
    threads: usize,
) -> (RenderStats, RenderTimings) {
    let ((), _, _, stats, timings) =
        render_with(params, cam, sh_degree, viewport, |splats, grid| {
            rasterize_layer(splats, grid, layer, threads)
        });
    (stats, timings)
}

/// The project → bin → raster body every forward entry point shares:
/// `raster` blends the binned splats (into a fresh image or a running
/// layer), and its result is returned with the splats, the tile grid, the
/// work counters and the per-phase wall time.
fn render_with<R>(
    params: &GaussianParams,
    cam: &Camera,
    sh_degree: usize,
    viewport: &Viewport,
    raster: impl FnOnce(&[Splat], &TileGrid) -> R,
) -> (R, Vec<Splat>, TileGrid, RenderStats, RenderTimings) {
    let t0 = std::time::Instant::now();
    let splats = project_splats(params, cam, sh_degree, viewport);
    let t1 = std::time::Instant::now();
    let grid = TileGrid::build(&splats, *viewport);
    let t2 = std::time::Instant::now();
    let rastered = raster(&splats, &grid);
    let t3 = std::time::Instant::now();
    let stats = RenderStats {
        num_input: params.len(),
        num_splats: splats.len(),
        num_pairs: grid.total_pairs(),
        num_pixels: viewport.num_pixels(),
    };
    let timings = RenderTimings {
        project_s: (t1 - t0).as_secs_f64(),
        bin_s: (t2 - t1).as_secs_f64(),
        raster_s: (t3 - t2).as_secs_f64(),
    };
    (rastered, splats, grid, stats, timings)
}

/// Renders the full camera image (convenience wrapper over [`render`]).
pub fn render_image(
    params: &GaussianParams,
    cam: &Camera,
    sh_degree: usize,
    background: [f32; 3],
) -> Image {
    let vp = Viewport::full(cam);
    render(params, cam, sh_degree, &vp, background).image
}

/// Backpropagates a gradient image through a previously computed
/// [`RenderOutput`], returning dense gradients over `params`.
///
/// # Panics
///
/// Panics if `d_image` does not match the render's viewport size.
pub fn render_backward(
    params: &GaussianParams,
    cam: &Camera,
    sh_degree: usize,
    output: &RenderOutput,
    d_image: &Image,
) -> GaussianGrads {
    let splat_grads = rasterize_backward(&output.splats, &output.grid, &output.aux, d_image);
    projection_backward(params, cam, sh_degree, &output.splats, &splat_grads)
}

/// Result of a full differentiable render-and-loss step.
#[derive(Debug, Clone)]
pub struct ForwardBackwardResult {
    /// Scalar photometric loss.
    pub loss: f32,
    /// Rendered image.
    pub image: Image,
    /// Dense gradients over the parameter container that was rendered.
    pub grads: GaussianGrads,
    /// Work counters from the forward pass.
    pub stats: RenderStats,
}

/// Runs a full forward + loss + backward step against a ground-truth image
/// restricted to `viewport` (the ground truth is cropped internally).
///
/// # Panics
///
/// Panics if `target` does not match the camera's full image size.
pub fn forward_backward(
    params: &GaussianParams,
    cam: &Camera,
    sh_degree: usize,
    viewport: &Viewport,
    background: [f32; 3],
    target: &Image,
    loss_kind: LossKind,
) -> ForwardBackwardResult {
    assert_eq!(target.width(), cam.width, "target width mismatch");
    assert_eq!(target.height(), cam.height, "target height mismatch");
    let output = render(params, cam, sh_degree, viewport, background);
    let target_crop = if viewport.width() == cam.width && viewport.height() == cam.height {
        target.clone()
    } else {
        target.crop(viewport.x0, viewport.y0, viewport.x1, viewport.y1)
    };
    let (loss, d_image) = loss_and_grad(loss_kind, &output.image, &target_crop);
    let grads = render_backward(params, cam, sh_degree, &output, &d_image);
    ForwardBackwardResult {
        loss,
        image: output.image,
        grads,
        stats: output.stats,
    }
}

/// Converts dense gradients over a gathered subset back into globally indexed
/// sparse gradients.
///
/// `gathered_ids[k]` must be the global index of packed entry `k` (i.e. the
/// id list used to gather the parameters that were rendered).
///
/// # Panics
///
/// Panics if `grads.len() != gathered_ids.len()`.
pub fn to_sparse_grads(gathered_ids: &[u32], grads: GaussianGrads) -> SparseGrads {
    assert_eq!(grads.len(), gathered_ids.len(), "grad/id length mismatch");
    SparseGrads {
        ids: gathered_ids.to_vec(),
        grads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::math::Vec3;

    fn cam() -> Camera {
        Camera::look_at(
            48,
            32,
            std::f32::consts::FRAC_PI_2,
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        )
    }

    fn scene() -> GaussianParams {
        let mut p = GaussianParams::new();
        p.push_isotropic(Vec3::new(0.0, 0.0, 0.0), 0.4, [0.9, 0.2, 0.1], 0.9);
        p.push_isotropic(Vec3::new(0.8, 0.3, 1.0), 0.3, [0.1, 0.8, 0.2], 0.8);
        p.push_isotropic(Vec3::new(-0.7, -0.4, 0.5), 0.3, [0.2, 0.2, 0.9], 0.7);
        p.push_isotropic(Vec3::new(0.0, 0.0, -30.0), 0.3, [1.0, 1.0, 1.0], 0.9); // behind cam
        p
    }

    #[test]
    fn render_produces_expected_sizes_and_stats() {
        let p = scene();
        let c = cam();
        let vp = Viewport::full(&c);
        let out = render(&p, &c, 3, &vp, [0.0; 3]);
        assert_eq!(out.image.width(), 48);
        assert_eq!(out.image.height(), 32);
        assert_eq!(out.stats.num_input, 4);
        assert_eq!(out.stats.num_splats, 3);
        assert_eq!(out.stats.num_pixels, 48 * 32);
        assert!(out.stats.num_pairs > 0);
        assert_eq!(out.contributing_ids(), vec![0, 1, 2]);
        assert!(out.stats.forward_work().flops > 0.0);
        assert!(out.stats.backward_work().flops > out.stats.forward_work().flops * 0.5);
    }

    #[test]
    fn render_image_is_not_background_everywhere() {
        let p = scene();
        let c = cam();
        let img = render_image(&p, &c, 3, [0.0; 3]);
        assert!(img.mean() > 0.01);
    }

    #[test]
    fn rendering_on_split_viewports_matches_full_render() {
        let p = scene();
        let c = cam();
        let full = Viewport::full(&c);
        let (left, right) = full.split_at_column(20);
        let whole = render(&p, &c, 3, &full, [0.1, 0.2, 0.3]).image;
        let l = render(&p, &c, 3, &left, [0.1, 0.2, 0.3]).image;
        let r = render(&p, &c, 3, &right, [0.1, 0.2, 0.3]).image;
        let mut stitched = Image::zeros(48, 32);
        stitched.paste(&l, 0, 0);
        stitched.paste(&r, 20, 0);
        for y in 0..32 {
            for x in 0..48 {
                let a = whole.pixel(x, y);
                let b = stitched.pixel(x, y);
                for ch in 0..3 {
                    assert!(
                        (a[ch] - b[ch]).abs() < 1e-5,
                        "pixel ({x},{y}) ch {ch}: {} vs {}",
                        a[ch],
                        b[ch]
                    );
                }
            }
        }
    }

    #[test]
    fn forward_backward_produces_sparse_gradients() {
        let p = scene();
        let c = cam();
        let vp = Viewport::full(&c);
        let target = Image::filled(48, 32, [0.5, 0.5, 0.5]);
        let result = forward_backward(&p, &c, 3, &vp, [0.0; 3], &target, LossKind::L1);
        assert!(result.loss > 0.0);
        // The Gaussian behind the camera must receive exactly zero gradient.
        assert!(result.grads.is_zero_for(3));
        // At least one visible Gaussian receives a non-zero gradient.
        assert!((0..3).any(|i| !result.grads.is_zero_for(i)));
    }

    #[test]
    fn gradient_descent_on_means_reduces_loss() {
        // Single Gaussian offset from where the target wants it; a few L1
        // gradient steps on the mean should reduce the loss.
        let mut p = GaussianParams::new();
        p.push_isotropic(Vec3::new(0.6, 0.0, 0.0), 0.5, [1.0, 1.0, 1.0], 0.95);
        let c = cam();
        let vp = Viewport::full(&c);
        // Target: the same Gaussian rendered at the origin.
        let mut target_params = GaussianParams::new();
        target_params.push_isotropic(Vec3::ZERO, 0.5, [1.0, 1.0, 1.0], 0.95);
        let target = render_image(&target_params, &c, 3, [0.0; 3]);

        let initial = forward_backward(&p, &c, 3, &vp, [0.0; 3], &target, LossKind::Mse);
        let mut current = p.clone();
        let mut loss = initial.loss;
        for _ in 0..30 {
            let res = forward_backward(&current, &c, 3, &vp, [0.0; 3], &target, LossKind::Mse);
            loss = res.loss;
            // Normalized gradient descent on the means only: a fixed 0.03
            // world-unit step along the negative gradient direction keeps the
            // test independent of the absolute gradient magnitude.
            for i in 0..current.len() {
                let g = Vec3::new(
                    res.grads.means[3 * i],
                    res.grads.means[3 * i + 1],
                    res.grads.means[3 * i + 2],
                );
                if g.norm() > 0.0 {
                    current.set_mean(i, current.mean(i) - g.normalized() * 0.03);
                }
            }
        }
        assert!(
            loss < initial.loss * 0.7,
            "loss did not decrease enough: {} -> {}",
            initial.loss,
            loss
        );
    }

    #[test]
    fn tiled_render_matches_sequential_bitwise() {
        let p = scene();
        let c = cam();
        let vp = Viewport::full(&c);
        let bg = [0.1, 0.2, 0.3];
        let seq = render(&p, &c, 3, &vp, bg);
        for threads in [2, 4] {
            let par = render_tiled(&p, &c, 3, &vp, bg, threads);
            assert_eq!(par.image.data(), seq.image.data(), "{threads} threads");
            assert_eq!(par.aux, seq.aux, "{threads} threads");
            assert_eq!(par.stats, seq.stats, "{threads} threads");
        }
    }

    #[test]
    fn tiled_render_layer_matches_sequential_bitwise() {
        let p = scene();
        let c = cam();
        let vp = Viewport::full(&c);
        let mut seq = FrameLayer::new(vp.width(), vp.height());
        let seq_stats = render_layer(&p, &c, 3, &vp, &mut seq);
        let mut par = FrameLayer::new(vp.width(), vp.height());
        let (par_stats, _) = render_layer_tiled(&p, &c, 3, &vp, &mut par, 3);
        assert_eq!(par, seq);
        assert_eq!(par_stats, seq_stats);
    }

    #[test]
    fn render_layer_matches_render_bitwise() {
        let p = scene();
        let c = cam();
        let vp = Viewport::full(&c);
        let bg = [0.1, 0.2, 0.3];
        let reference = render(&p, &c, 3, &vp, bg);
        let mut layer = FrameLayer::new(vp.width(), vp.height());
        let stats = render_layer(&p, &c, 3, &vp, &mut layer);
        assert_eq!(layer.finish(bg).data(), reference.image.data());
        assert_eq!(stats, reference.stats);
    }

    #[test]
    fn to_sparse_grads_preserves_ids() {
        let grads = GaussianGrads::zeros(3);
        let sparse = to_sparse_grads(&[5, 9, 11], grads);
        assert_eq!(sparse.ids, vec![5, 9, 11]);
        assert_eq!(sparse.len(), 3);
    }

    #[test]
    #[should_panic(expected = "grad/id length mismatch")]
    fn to_sparse_grads_validates_lengths() {
        let grads = GaussianGrads::zeros(2);
        let _ = to_sparse_grads(&[1, 2, 3], grads);
    }
}
