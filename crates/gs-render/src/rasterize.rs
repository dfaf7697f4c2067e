//! Tile-based alpha-blending rasterizer (forward and backward).
//!
//! The forward pass composites depth-sorted splats front-to-back per pixel
//! with early termination once the transmittance is exhausted, exactly like
//! the reference CUDA rasterizer. The backward pass replays each pixel
//! back-to-front, reconstructing the per-splat transmittance from the stored
//! final transmittance, and accumulates gradients w.r.t. every splat's 2D
//! mean, conic, color and opacity.

use gs_core::image::Image;

use crate::projection::{Splat, SplatGrad};
use crate::tiles::{TileGrid, TILE_SIZE};

/// Alpha values below this threshold are skipped (1/255, as in 3DGS).
pub const ALPHA_SKIP: f32 = 1.0 / 255.0;
/// Alpha is clamped to this maximum to keep `1 - alpha` away from zero.
pub const ALPHA_MAX: f32 = 0.999;
/// Blending terminates once the transmittance falls below this value.
pub const TRANSMITTANCE_MIN: f32 = 1.0e-4;

/// Per-pixel auxiliary state saved by the forward pass for the backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RasterAux {
    /// Final transmittance per viewport pixel (row-major, viewport-local).
    pub final_transmittance: Vec<f32>,
    /// Per pixel: exclusive end position in the tile bin up to which splats
    /// were processed before early termination.
    pub n_processed: Vec<u32>,
    /// Background color composited behind the splats.
    pub background: [f32; 3],
}

#[inline]
fn gaussian_weight(splat: &Splat, px: f32, py: f32) -> Option<(f32, f32, f32)> {
    let dx = px - splat.mean2d.x;
    let dy = py - splat.mean2d.y;
    // Restrict every splat to its own bounding box so that which pixels a
    // splat touches does not depend on how the image happens to be tiled;
    // this is what makes a sub-viewport render identical to the crop of a
    // full render (balance-aware image splitting relies on it).
    if dx.abs() > splat.radius || dy.abs() > splat.radius {
        return None;
    }
    let sigma =
        0.5 * (splat.conic.xx * dx * dx + splat.conic.yy * dy * dy) + splat.conic.xy * dx * dy;
    if sigma < 0.0 || !sigma.is_finite() {
        return None;
    }
    Some((sigma, dx, dy))
}

#[inline]
fn splat_alpha(splat: &Splat, sigma: f32) -> Option<(f32, bool)> {
    let raw = splat.opacity * (-sigma).exp();
    if raw < ALPHA_SKIP {
        return None;
    }
    if raw > ALPHA_MAX {
        Some((ALPHA_MAX, true))
    } else {
        Some((raw, false))
    }
}

/// The per-pixel front-to-back blend kernel of the scalar oracles
/// ([`rasterize_forward_reference`] and [`rasterize_layer_reference`]):
/// composites the bin's splats into the running `(color, t)` state
/// (premultiplied, no background) with early termination at
/// [`TRANSMITTANCE_MIN`], and returns how many bin entries were processed.
#[inline]
fn blend_pixel(
    splats: &[Splat],
    bin: &[u32],
    cx: f32,
    cy: f32,
    color: &mut [f32; 3],
    t: &mut f32,
) -> u32 {
    let mut processed = 0u32;
    for &si in bin {
        processed += 1;
        let s = &splats[si as usize];
        let Some((sigma, _, _)) = gaussian_weight(s, cx, cy) else {
            continue;
        };
        let Some((alpha, _)) = splat_alpha(s, sigma) else {
            continue;
        };
        color[0] += s.color[0] * alpha * *t;
        color[1] += s.color[1] * alpha * *t;
        color[2] += s.color[2] * alpha * *t;
        *t *= 1.0 - alpha;
        if *t < TRANSMITTANCE_MIN {
            break;
        }
    }
    processed
}

/// The splat-outer, lane-batched row blend kernel.
///
/// Where [`blend_pixel`] walks the bin once per pixel, this kernel walks the
/// bin once per *tile row*, applying each splat to a batch of up to
/// [`TILE_SIZE`] pixel lanes. Per-splat fields are hoisted out of the lane
/// loop, and a row-level `dy` test rejects splats that miss the whole row
/// before any per-lane work. Each lane still sees the bin's splats in the
/// same order and runs the same floating-point operations as the scalar
/// path, so the result is bit-identical — only the interleaving across
/// pixels (which share no state) changes.
///
/// `colors`/`ts`/`processed` are parallel lanes for the row's pixels
/// starting at viewport-absolute column `x0`. Lanes whose incoming
/// transmittance is already below [`TRANSMITTANCE_MIN`] are left untouched
/// (the cross-shard early termination of [`rasterize_layer`]).
fn blend_row(
    splats: &[Splat],
    bin: &[u32],
    x0: usize,
    cy: f32,
    colors: &mut [[f32; 3]],
    ts: &mut [f32],
    processed: &mut [u32],
) {
    let width = ts.len();
    debug_assert!(width <= TILE_SIZE);
    debug_assert_eq!(colors.len(), width);
    debug_assert_eq!(processed.len(), width);
    let mut live = [false; TILE_SIZE];
    let mut remaining = 0usize;
    for (l, &t) in ts.iter().enumerate() {
        let alive = t >= TRANSMITTANCE_MIN;
        live[l] = alive;
        remaining += usize::from(alive);
    }
    if remaining == 0 {
        return;
    }
    for &si in bin {
        let s = &splats[si as usize];
        let dy = cy - s.mean2d.y;
        if dy.abs() > s.radius {
            // The splat's bounding box misses the whole row: every live lane
            // counts the bin entry as processed (as the scalar path's bbox
            // miss does) and no per-lane work runs.
            for (l, p) in processed.iter_mut().enumerate() {
                *p += u32::from(live[l]);
            }
            continue;
        }
        let mean_x = s.mean2d.x;
        let radius = s.radius;
        let (cxx, cxy, cyy) = (s.conic.xx, s.conic.xy, s.conic.yy);
        let opacity = s.opacity;
        let col = s.color;
        for l in 0..width {
            if !live[l] {
                continue;
            }
            processed[l] += 1;
            let dx = ((x0 + l) as f32 + 0.5) - mean_x;
            if dx.abs() > radius {
                continue;
            }
            let sigma = 0.5 * (cxx * dx * dx + cyy * dy * dy) + cxy * dx * dy;
            if sigma < 0.0 || !sigma.is_finite() {
                continue;
            }
            let raw = opacity * (-sigma).exp();
            if raw < ALPHA_SKIP {
                continue;
            }
            let alpha = if raw > ALPHA_MAX { ALPHA_MAX } else { raw };
            let t = ts[l];
            colors[l][0] += col[0] * alpha * t;
            colors[l][1] += col[1] * alpha * t;
            colors[l][2] += col[2] * alpha * t;
            let t_next = t * (1.0 - alpha);
            ts[l] = t_next;
            if t_next < TRANSMITTANCE_MIN {
                live[l] = false;
                remaining -= 1;
            }
        }
        if remaining == 0 {
            break;
        }
    }
}

/// Splits `0..tiles_y` into at most `threads` contiguous tile-row bands.
fn band_bounds(tiles_y: usize, threads: usize) -> Vec<(usize, usize)> {
    let n = threads.clamp(1, tiles_y.max(1));
    let base = tiles_y / n;
    let extra = tiles_y % n;
    let mut bands = Vec::with_capacity(n);
    let mut start = 0;
    for b in 0..n {
        let len = base + usize::from(b < extra);
        bands.push((start, start + len));
        start += len;
    }
    bands
}

/// The band driver every raster entry point shares: blends tile rows
/// `ty0..ty1` into band-local slices of a layer's premultiplied color
/// (`3 * width` floats per pixel row) and transmittance, continuing each
/// pixel's running state. When `counts` is given it receives each pixel's
/// processed bin-entry count (the backward pass's replay bound).
///
/// Every pixel runs the same code however the image is banded, which is
/// what makes the output bit-identical at any thread count.
fn blend_band(
    splats: &[Splat],
    grid: &TileGrid,
    (ty0, ty1): (usize, usize),
    color: &mut [f32],
    transmittance: &mut [f32],
    mut counts: Option<&mut [u32]>,
) {
    let vp = grid.viewport();
    let width = vp.width();
    let band_row0 = ty0 * TILE_SIZE;
    for ty in ty0..ty1 {
        for tx in 0..grid.tiles_x() {
            let bin = grid.bin(tx, ty);
            if bin.is_empty() {
                continue;
            }
            let (x0, y0, x1, y1) = grid.tile_pixel_range(tx, ty);
            let row_w = x1 - x0;
            let lx0 = x0 - vp.x0;
            for py in y0..y1 {
                let cy = py as f32 + 0.5;
                let ly = (py - vp.y0) - band_row0;
                let pix0 = ly * width + lx0;
                let mut colors = [[0.0f32; 3]; TILE_SIZE];
                let mut ts = [1.0f32; TILE_SIZE];
                let mut procs = [0u32; TILE_SIZE];
                for l in 0..row_w {
                    let pix = pix0 + l;
                    colors[l] = [color[3 * pix], color[3 * pix + 1], color[3 * pix + 2]];
                    ts[l] = transmittance[pix];
                }
                blend_row(
                    splats,
                    bin,
                    x0,
                    cy,
                    &mut colors[..row_w],
                    &mut ts[..row_w],
                    &mut procs[..row_w],
                );
                for l in 0..row_w {
                    let pix = pix0 + l;
                    color[3 * pix..3 * pix + 3].copy_from_slice(&colors[l]);
                    transmittance[pix] = ts[l];
                }
                if let Some(counts) = counts.as_deref_mut() {
                    counts[pix0..pix0 + row_w].copy_from_slice(&procs[..row_w]);
                }
            }
        }
    }
}

/// Fans [`blend_band`] out over at most `threads` contiguous tile-row bands,
/// one scoped thread each, over disjoint pixel-row slices of the buffers
/// (split at band boundaries, so no pixel is touched by two threads).
/// `threads <= 1`, or a single tile row, runs the one band on the calling
/// thread.
fn blend_bands(
    splats: &[Splat],
    grid: &TileGrid,
    color: &mut [f32],
    transmittance: &mut [f32],
    counts: Option<&mut [u32]>,
    threads: usize,
) {
    let bands = band_bounds(grid.tiles_y(), threads);
    if let [band] = bands[..] {
        blend_band(splats, grid, band, color, transmittance, counts);
        return;
    }
    let vp = grid.viewport();
    let width = vp.width();
    let height = vp.height();
    std::thread::scope(|scope| {
        let mut c_rest = color;
        let mut t_rest = transmittance;
        let mut p_rest = counts;
        for &(ty0, ty1) in &bands {
            let px = ((ty1 * TILE_SIZE).min(height) - ty0 * TILE_SIZE) * width;
            let (c_band, c_next) = std::mem::take(&mut c_rest).split_at_mut(3 * px);
            let (t_band, t_next) = std::mem::take(&mut t_rest).split_at_mut(px);
            let p_band = p_rest.take().map(|p| {
                let (band, next) = p.split_at_mut(px);
                p_rest = Some(next);
                band
            });
            c_rest = c_next;
            t_rest = t_next;
            scope.spawn(move || blend_band(splats, grid, (ty0, ty1), c_band, t_band, p_band));
        }
    });
}

/// Composites `background` behind premultiplied `color` through the
/// remaining per-pixel `transmittance`: `color += background * t`.
fn add_background(color: &mut [f32], transmittance: &[f32], background: [f32; 3]) {
    for (i, &t) in transmittance.iter().enumerate() {
        for ch in 0..3 {
            color[3 * i + ch] += background[ch] * t;
        }
    }
}

/// Rasterizes splats over the grid's viewport, returning the rendered image
/// (sized to the viewport) and the auxiliary state needed for the backward
/// pass.
///
/// Blends into a fresh [`FrameLayer`] with tile rows fanned out over up to
/// `threads` scoped threads, then composites `background` in place. Output
/// is bit-identical to [`rasterize_forward_reference`] at any thread count.
pub fn rasterize_forward(
    splats: &[Splat],
    grid: &TileGrid,
    background: [f32; 3],
    threads: usize,
) -> (Image, RasterAux) {
    let vp = grid.viewport();
    let FrameLayer {
        mut color,
        mut transmittance,
    } = FrameLayer::new(vp.width(), vp.height());
    let mut n_processed = vec![0u32; vp.num_pixels()];
    blend_bands(
        splats,
        grid,
        color.data_mut(),
        &mut transmittance,
        Some(&mut n_processed),
        threads,
    );
    add_background(color.data_mut(), &transmittance, background);
    (
        color,
        RasterAux {
            final_transmittance: transmittance,
            n_processed,
            background,
        },
    )
}

/// The seed scalar forward pass (pixel-outer [`blend_pixel`] walk), kept
/// verbatim as the bit-identity oracle for the lane-batched and
/// tile-parallel paths and as the "before" baseline in kernel benchmarks.
pub fn rasterize_forward_reference(
    splats: &[Splat],
    grid: &TileGrid,
    background: [f32; 3],
) -> (Image, RasterAux) {
    let vp = grid.viewport();
    let width = vp.width();
    let height = vp.height();
    let mut image = Image::zeros(width, height);
    let mut final_t = vec![1.0f32; width * height];
    let mut n_processed = vec![0u32; width * height];

    for ty in 0..grid.tiles_y() {
        for tx in 0..grid.tiles_x() {
            let bin = grid.bin(tx, ty);
            let (x0, y0, x1, y1) = grid.tile_pixel_range(tx, ty);
            for py in y0..y1 {
                for px in x0..x1 {
                    let cx = px as f32 + 0.5;
                    let cy = py as f32 + 0.5;
                    let mut t = 1.0f32;
                    let mut color = [0.0f32; 3];
                    let processed = blend_pixel(splats, bin, cx, cy, &mut color, &mut t);
                    color[0] += background[0] * t;
                    color[1] += background[1] * t;
                    color[2] += background[2] * t;
                    let lx = px - vp.x0;
                    let ly = py - vp.y0;
                    image.set_pixel(lx, ly, color);
                    final_t[ly * width + lx] = t;
                    n_processed[ly * width + lx] = processed;
                }
            }
        }
    }

    (
        image,
        RasterAux {
            final_transmittance: final_t,
            n_processed,
            background,
        },
    )
}

/// A partial frame: premultiplied color plus per-pixel transmittance.
///
/// This is the unit of work scene sharding exchanges: each shard of a large
/// scene is rasterized into a layer, and layers combine front-to-back into
/// the frame a single unsharded render would have produced. Color is stored
/// *premultiplied* (splat contributions only, no background); the
/// transmittance records how much light still passes through, so that
/// whatever lies behind the layer — further shards, then the background —
/// can be composited underneath it.
///
/// Two composition styles are supported:
///
/// * **Threaded** — [`rasterize_layer`] rasterizes splats *into* an existing
///   layer, continuing each pixel's running `(color, transmittance)` state
///   exactly where the previous (nearer) shard left it, including the
///   early-termination cutoff at [`TRANSMITTANCE_MIN`]. When shard depth
///   ranges are disjoint along the view ray this replays the unsharded
///   rasterization's floating-point operation sequence verbatim, so the
///   composite is **bit-identical** to the unsharded render.
/// * **Independent** — each shard renders into a fresh layer (no shared
///   state, e.g. on different nodes) and [`FrameLayer::composite_onto`]
///   merges them front-to-back. Algebraically identical, but the
///   multiplication re-association perturbs the result by a few ulps even
///   for depth-disjoint shards.
///
/// For shards whose depth ranges overlap along a view ray, both styles
/// approximate: splats are blended shard-by-shard instead of in globally
/// sorted depth order, which perturbs pixels where splats from different
/// shards interleave in depth.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameLayer {
    color: Image,
    transmittance: Vec<f32>,
}

impl FrameLayer {
    /// An empty (fully transparent) layer of the given size.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            color: Image::zeros(width, height),
            transmittance: vec![1.0; width * height],
        }
    }

    /// Reassembles a layer from its parts — the decode boundary of wire
    /// encodings that ship layers between nodes. The exact inverse of
    /// [`FrameLayer::into_parts`]: `from_parts(layer.into_parts())` is the
    /// identity, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `transmittance` does not hold one value per pixel of
    /// `color`.
    pub fn from_parts(color: Image, transmittance: Vec<f32>) -> Self {
        assert_eq!(
            transmittance.len(),
            color.width() * color.height(),
            "transmittance must hold one value per pixel"
        );
        Self {
            color,
            transmittance,
        }
    }

    /// Disassembles the layer into its premultiplied color image and
    /// per-pixel transmittance (the encode boundary of wire encodings).
    pub fn into_parts(self) -> (Image, Vec<f32>) {
        (self.color, self.transmittance)
    }

    /// Layer width in pixels.
    pub fn width(&self) -> usize {
        self.color.width()
    }

    /// Layer height in pixels.
    pub fn height(&self) -> usize {
        self.color.height()
    }

    /// The premultiplied color accumulated so far (no background).
    pub fn color(&self) -> &Image {
        &self.color
    }

    /// Per-pixel transmittance (row-major), 1.0 where nothing was blended.
    pub fn transmittance(&self) -> &[f32] {
        &self.transmittance
    }

    /// Composites `behind` underneath this layer (this layer is nearer):
    /// `color += behind.color * t` and `t *= behind.t` per pixel.
    ///
    /// # Panics
    ///
    /// Panics if the layer sizes differ.
    pub fn composite_onto(&mut self, behind: &FrameLayer) {
        assert_eq!(self.width(), behind.width(), "layer width mismatch");
        assert_eq!(self.height(), behind.height(), "layer height mismatch");
        let data = self.color.data_mut();
        for (i, t) in self.transmittance.iter_mut().enumerate() {
            for ch in 0..3 {
                data[3 * i + ch] += behind.color.data()[3 * i + ch] * *t;
            }
            *t *= behind.transmittance[i];
        }
    }

    /// Finishes the composite by blending `background` behind the remaining
    /// transmittance, producing the final frame.
    pub fn finish(&self, background: [f32; 3]) -> Image {
        let mut image = self.color.clone();
        add_background(image.data_mut(), &self.transmittance, background);
        image
    }
}

/// Rasterizes splats *into* `layer`, continuing each pixel's running
/// front-to-back blend where the previous (nearer) content left off, with
/// tile rows fanned out over up to `threads` scoped threads.
///
/// Pixels whose incoming transmittance is already below
/// [`TRANSMITTANCE_MIN`] are skipped entirely — the same early termination
/// the unsharded forward pass applies mid-pixel, which is what makes the
/// threaded shard composite bit-identical for depth-disjoint shards (and
/// lets far shards skip work behind opaque geometry). Bit-identical to
/// [`rasterize_layer_reference`] at any thread count.
///
/// # Panics
///
/// Panics if `layer`'s size does not match the grid's viewport.
pub fn rasterize_layer(splats: &[Splat], grid: &TileGrid, layer: &mut FrameLayer, threads: usize) {
    let vp = grid.viewport();
    assert_eq!(layer.width(), vp.width(), "layer width mismatch");
    assert_eq!(layer.height(), vp.height(), "layer height mismatch");
    blend_bands(
        splats,
        grid,
        layer.color.data_mut(),
        &mut layer.transmittance,
        None,
        threads,
    );
}

/// The seed scalar layer pass (pixel-outer [`blend_pixel`] walk), kept
/// verbatim as the bit-identity oracle for the lane-batched and
/// tile-parallel layer paths.
///
/// # Panics
///
/// Panics if `layer`'s size does not match the grid's viewport.
pub fn rasterize_layer_reference(splats: &[Splat], grid: &TileGrid, layer: &mut FrameLayer) {
    let vp = grid.viewport();
    let width = vp.width();
    let height = vp.height();
    assert_eq!(layer.width(), width, "layer width mismatch");
    assert_eq!(layer.height(), height, "layer height mismatch");

    for ty in 0..grid.tiles_y() {
        for tx in 0..grid.tiles_x() {
            let bin = grid.bin(tx, ty);
            if bin.is_empty() {
                continue;
            }
            let (x0, y0, x1, y1) = grid.tile_pixel_range(tx, ty);
            for py in y0..y1 {
                for px in x0..x1 {
                    let lx = px - vp.x0;
                    let ly = py - vp.y0;
                    let pix = ly * width + lx;
                    let mut t = layer.transmittance[pix];
                    if t < TRANSMITTANCE_MIN {
                        continue;
                    }
                    let cx = px as f32 + 0.5;
                    let cy = py as f32 + 0.5;
                    let mut color = layer.color.pixel(lx, ly);
                    blend_pixel(splats, bin, cx, cy, &mut color, &mut t);
                    layer.color.set_pixel(lx, ly, color);
                    layer.transmittance[pix] = t;
                }
            }
        }
    }
}

/// Backpropagates a per-pixel image gradient to per-splat gradients.
///
/// `d_image` must have the same dimensions as the forward output (the
/// viewport size). Returns one [`SplatGrad`] per input splat (zero for
/// splats that contributed to no pixel).
///
/// # Panics
///
/// Panics if `d_image` does not match the grid's viewport dimensions or if
/// `aux` was produced for a different viewport.
pub fn rasterize_backward(
    splats: &[Splat],
    grid: &TileGrid,
    aux: &RasterAux,
    d_image: &Image,
) -> Vec<SplatGrad> {
    let vp = grid.viewport();
    let width = vp.width();
    let height = vp.height();
    assert_eq!(d_image.width(), width, "gradient image width mismatch");
    assert_eq!(d_image.height(), height, "gradient image height mismatch");
    assert_eq!(
        aux.final_transmittance.len(),
        width * height,
        "aux size mismatch"
    );

    let mut grads = vec![SplatGrad::default(); splats.len()];

    for ty in 0..grid.tiles_y() {
        for tx in 0..grid.tiles_x() {
            let bin = grid.bin(tx, ty);
            if bin.is_empty() {
                continue;
            }
            let (x0, y0, x1, y1) = grid.tile_pixel_range(tx, ty);
            for py in y0..y1 {
                for px in x0..x1 {
                    let lx = px - vp.x0;
                    let ly = py - vp.y0;
                    let pix = ly * width + lx;
                    let d_c = d_image.pixel(lx, ly);
                    if d_c == [0.0, 0.0, 0.0] {
                        continue;
                    }
                    let cx = px as f32 + 0.5;
                    let cy = py as f32 + 0.5;
                    let processed = aux.n_processed[pix] as usize;
                    let t_final = aux.final_transmittance[pix];

                    // Walk back-to-front reconstructing the transmittance in
                    // front of each contributing splat and the suffix color
                    // behind it.
                    let mut t_behind = t_final;
                    let mut suffix = [
                        aux.background[0] * t_final,
                        aux.background[1] * t_final,
                        aux.background[2] * t_final,
                    ];
                    for &si in bin[..processed].iter().rev() {
                        let s = &splats[si as usize];
                        let Some((sigma, dx, dy)) = gaussian_weight(s, cx, cy) else {
                            continue;
                        };
                        let Some((alpha, clamped)) = splat_alpha(s, sigma) else {
                            continue;
                        };
                        let t_front = t_behind / (1.0 - alpha);

                        // Color gradient.
                        let g = &mut grads[si as usize];
                        let w = alpha * t_front;
                        g.d_color[0] += w * d_c[0];
                        g.d_color[1] += w * d_c[1];
                        g.d_color[2] += w * d_c[2];

                        // Alpha gradient: dC/dalpha = c * T_front - suffix/(1-alpha).
                        let inv_one_minus = 1.0 / (1.0 - alpha);
                        let mut d_alpha = 0.0f32;
                        for ch in 0..3 {
                            d_alpha +=
                                (s.color[ch] * t_front - suffix[ch] * inv_one_minus) * d_c[ch];
                        }

                        if !clamped {
                            // alpha = opacity * exp(-sigma).
                            let exp_neg = (-sigma).exp();
                            g.d_opacity += exp_neg * d_alpha;
                            let d_sigma = -alpha * d_alpha;
                            // sigma = 0.5(a dx^2 + c dy^2) + b dx dy.
                            g.d_conic.xx += 0.5 * dx * dx * d_sigma;
                            g.d_conic.xy += dx * dy * d_sigma;
                            g.d_conic.yy += 0.5 * dy * dy * d_sigma;
                            // d = pixel - mean2d, so d(mean2d) = -d(d).
                            let d_dx = (s.conic.xx * dx + s.conic.xy * dy) * d_sigma;
                            let d_dy = (s.conic.yy * dy + s.conic.xy * dx) * d_sigma;
                            g.d_mean2d.x -= d_dx;
                            g.d_mean2d.y -= d_dy;
                        }

                        // Update running suffix and transmittance for the next
                        // (nearer) splat.
                        for (suffix_ch, color_ch) in suffix.iter_mut().zip(&s.color) {
                            *suffix_ch += color_ch * alpha * t_front;
                        }
                        t_behind = t_front;
                    }
                }
            }
        }
    }

    grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::camera::Viewport;
    use gs_core::math::{Sym2, Vec2};

    fn vp(w: usize, h: usize) -> Viewport {
        Viewport {
            x0: 0,
            y0: 0,
            x1: w,
            y1: h,
        }
    }

    fn simple_splat(idx: u32, x: f32, y: f32, color: [f32; 3], opacity: f32, depth: f32) -> Splat {
        Splat {
            idx,
            mean2d: Vec2::new(x, y),
            depth,
            conic: Sym2::new(0.25, 0.0, 0.25),
            radius: 12.0,
            color,
            opacity,
        }
    }

    #[test]
    fn empty_scene_renders_background() {
        let grid = TileGrid::build(&[], vp(8, 8));
        let (img, aux) = rasterize_forward(&[], &grid, [0.2, 0.4, 0.6], 1);
        assert_eq!(img.pixel(3, 3), [0.2, 0.4, 0.6]);
        assert!(aux.final_transmittance.iter().all(|&t| t == 1.0));
    }

    #[test]
    fn single_opaque_splat_dominates_center() {
        let splats = vec![simple_splat(0, 8.0, 8.0, [1.0, 0.0, 0.0], 0.99, 1.0)];
        let grid = TileGrid::build(&splats, vp(16, 16));
        let (img, _) = rasterize_forward(&splats, &grid, [0.0, 0.0, 0.0], 1);
        let center = img.pixel(8, 8);
        assert!(center[0] > 0.9, "red channel {}", center[0]);
        assert!(center[1] < 0.05);
        // Far corner should be near background.
        let corner = img.pixel(0, 0);
        assert!(corner[0] < 0.2);
    }

    #[test]
    fn occlusion_respects_depth_order() {
        // Near-opaque red in front of near-opaque green at the same position.
        let splats = vec![
            simple_splat(0, 8.0, 8.0, [0.0, 1.0, 0.0], 0.95, 5.0),
            simple_splat(1, 8.0, 8.0, [1.0, 0.0, 0.0], 0.95, 1.0),
        ];
        let grid = TileGrid::build(&splats, vp(16, 16));
        let (img, _) = rasterize_forward(&splats, &grid, [0.0, 0.0, 0.0], 1);
        let c = img.pixel(8, 8);
        assert!(c[0] > 4.0 * c[1], "red should occlude green: {c:?}");
    }

    #[test]
    fn transmittance_decreases_with_more_splats() {
        let one = vec![simple_splat(0, 8.0, 8.0, [0.5; 3], 0.5, 1.0)];
        let two = vec![
            simple_splat(0, 8.0, 8.0, [0.5; 3], 0.5, 1.0),
            simple_splat(1, 8.0, 8.0, [0.5; 3], 0.5, 2.0),
        ];
        let g1 = TileGrid::build(&one, vp(16, 16));
        let g2 = TileGrid::build(&two, vp(16, 16));
        let (_, a1) = rasterize_forward(&one, &g1, [0.0; 3], 1);
        let (_, a2) = rasterize_forward(&two, &g2, [0.0; 3], 1);
        let p = 8 * 16 + 8;
        assert!(a2.final_transmittance[p] < a1.final_transmittance[p]);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        // Three overlapping, partially transparent splats.
        let base = vec![
            simple_splat(0, 6.0, 8.0, [0.9, 0.1, 0.2], 0.6, 1.0),
            simple_splat(1, 9.0, 7.0, [0.1, 0.8, 0.3], 0.5, 2.0),
            simple_splat(2, 8.0, 10.0, [0.2, 0.3, 0.9], 0.7, 3.0),
        ];
        let viewport = vp(16, 16);
        let bg = [0.1, 0.1, 0.1];

        // Loss: weighted sum of all pixels (weights vary per pixel/channel).
        let weight = |x: usize, y: usize, ch: usize| {
            ((x as f32 * 0.7 + y as f32 * 1.3 + ch as f32 * 0.37).sin()) * 0.5
        };
        let loss = |splats: &[Splat]| -> f64 {
            let grid = TileGrid::build(splats, viewport);
            let (img, _) = rasterize_forward(splats, &grid, bg, 1);
            let mut l = 0.0f64;
            for y in 0..16 {
                for x in 0..16 {
                    let p = img.pixel(x, y);
                    for (ch, p_ch) in p.iter().enumerate() {
                        l += (p_ch * weight(x, y, ch)) as f64;
                    }
                }
            }
            l
        };

        let grid = TileGrid::build(&base, viewport);
        let (_, aux) = rasterize_forward(&base, &grid, bg, 1);
        let d_image = Image::from_fn(16, 16, |x, y| {
            [weight(x, y, 0), weight(x, y, 1), weight(x, y, 2)]
        });
        let grads = rasterize_backward(&base, &grid, &aux, &d_image);

        let eps = 1e-3;
        let tol = |fd: f32| 3e-2 * (1.0 + fd.abs());

        for i in 0..base.len() {
            // mean2d.x / mean2d.y
            for axis in 0..2 {
                let mut plus = base.clone();
                let mut minus = base.clone();
                if axis == 0 {
                    plus[i].mean2d.x += eps;
                    minus[i].mean2d.x -= eps;
                } else {
                    plus[i].mean2d.y += eps;
                    minus[i].mean2d.y -= eps;
                }
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                let analytic = if axis == 0 {
                    grads[i].d_mean2d.x
                } else {
                    grads[i].d_mean2d.y
                };
                assert!(
                    (fd - analytic).abs() < tol(fd),
                    "splat {i} mean2d axis {axis}: fd={fd} analytic={analytic}"
                );
            }
            // opacity
            {
                let mut plus = base.clone();
                let mut minus = base.clone();
                plus[i].opacity += eps;
                minus[i].opacity -= eps;
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                assert!(
                    (fd - grads[i].d_opacity).abs() < tol(fd),
                    "splat {i} opacity: fd={fd} analytic={}",
                    grads[i].d_opacity
                );
            }
            // color channels
            for ch in 0..3 {
                let mut plus = base.clone();
                let mut minus = base.clone();
                plus[i].color[ch] += eps;
                minus[i].color[ch] -= eps;
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                assert!(
                    (fd - grads[i].d_color[ch]).abs() < tol(fd),
                    "splat {i} color {ch}: fd={fd} analytic={}",
                    grads[i].d_color[ch]
                );
            }
            // conic entries
            for which in 0..3 {
                let mut plus = base.clone();
                let mut minus = base.clone();
                match which {
                    0 => {
                        plus[i].conic.xx += eps;
                        minus[i].conic.xx -= eps;
                    }
                    1 => {
                        plus[i].conic.xy += eps;
                        minus[i].conic.xy -= eps;
                    }
                    _ => {
                        plus[i].conic.yy += eps;
                        minus[i].conic.yy -= eps;
                    }
                }
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                let analytic = match which {
                    0 => grads[i].d_conic.xx,
                    1 => grads[i].d_conic.xy,
                    _ => grads[i].d_conic.yy,
                };
                assert!(
                    (fd - analytic).abs() < tol(fd),
                    "splat {i} conic {which}: fd={fd} analytic={analytic}"
                );
            }
        }
    }

    /// A spread of overlapping translucent splats at distinct depths.
    fn layered_scene() -> Vec<Splat> {
        let mut splats = Vec::new();
        for i in 0..12u32 {
            let f = i as f32;
            splats.push(simple_splat(
                i,
                4.0 + (f * 1.7).sin() * 5.0 + f * 0.6,
                8.0 + (f * 2.3).cos() * 5.0,
                [
                    (f * 0.31).sin().abs(),
                    (f * 0.17).cos().abs(),
                    0.2 + f * 0.05,
                ],
                0.35 + 0.04 * f,
                1.0 + f * 0.5,
            ));
        }
        splats
    }

    /// A taller scene spanning several tile rows, with a near-opaque pair to
    /// exercise mid-bin early termination in the lane kernel.
    fn tall_scene() -> Vec<Splat> {
        let mut splats = layered_scene();
        for i in 0..24u32 {
            let f = i as f32;
            splats.push(simple_splat(
                12 + i,
                8.0 + (f * 0.9).sin() * 7.0,
                4.0 + f * 2.3,
                [(f * 0.13).sin().abs(), 0.4, (f * 0.29).cos().abs()],
                0.3 + 0.025 * f,
                2.0 + f * 0.25,
            ));
        }
        // Stacked near-opaque splats drive some pixels below the
        // transmittance cutoff mid-bin.
        splats.push(simple_splat(36, 8.5, 24.5, [1.0, 0.2, 0.1], 0.9999, 0.5));
        splats.push(simple_splat(37, 8.5, 24.5, [0.9, 0.1, 0.2], 0.9999, 0.6));
        splats
    }

    #[test]
    fn lane_batched_forward_matches_the_scalar_reference_bitwise() {
        let splats = tall_scene();
        let viewport = vp(24, 56);
        let grid = TileGrid::build(&splats, viewport);
        let bg = [0.1, 0.2, 0.3];
        let (reference, ref_aux) = rasterize_forward_reference(&splats, &grid, bg);
        let (fast, fast_aux) = rasterize_forward(&splats, &grid, bg, 1);
        assert_eq!(fast.data(), reference.data());
        assert_eq!(fast_aux, ref_aux);
    }

    #[test]
    fn lane_batched_layer_matches_the_scalar_reference_bitwise() {
        let splats = tall_scene();
        let viewport = vp(24, 56);
        // Start from a partially blended layer so entry-dead lanes and
        // mid-blend continuation are both exercised.
        let (near, far) = splats.split_at(14);
        let far_grid = TileGrid::build(far, viewport);
        let mut seed = FrameLayer::new(24, 56);
        rasterize_layer(near, &TileGrid::build(near, viewport), &mut seed, 1);
        let mut reference = seed.clone();
        rasterize_layer_reference(far, &far_grid, &mut reference);
        let mut fast = seed;
        rasterize_layer(far, &far_grid, &mut fast, 1);
        assert_eq!(fast, reference);
    }

    #[test]
    fn tiled_forward_is_bit_identical_to_sequential_at_any_thread_count() {
        let splats = tall_scene();
        let viewport = vp(24, 56);
        let grid = TileGrid::build(&splats, viewport);
        let bg = [0.05, 0.1, 0.15];
        let (seq, seq_aux) = rasterize_forward(&splats, &grid, bg, 1);
        for threads in [0, 1, 2, 3, 7, 64] {
            let (par, par_aux) = rasterize_forward(&splats, &grid, bg, threads);
            assert_eq!(par.data(), seq.data(), "{threads} threads");
            assert_eq!(par_aux, seq_aux, "{threads} threads");
        }
    }

    #[test]
    fn tiled_layer_is_bit_identical_to_sequential_at_any_thread_count() {
        let splats = tall_scene();
        let viewport = vp(24, 56);
        let grid = TileGrid::build(&splats, viewport);
        let mut seq = FrameLayer::new(24, 56);
        rasterize_layer(&splats, &grid, &mut seq, 1);
        for threads in [2, 3, 64] {
            let mut par = FrameLayer::new(24, 56);
            rasterize_layer(&splats, &grid, &mut par, threads);
            assert_eq!(par, seq, "{threads} threads");
        }
    }

    #[test]
    fn fresh_layer_matches_forward_pass_bitwise() {
        let splats = layered_scene();
        let viewport = vp(16, 16);
        let grid = TileGrid::build(&splats, viewport);
        let bg = [0.1, 0.2, 0.3];
        let (forward, aux) = rasterize_forward(&splats, &grid, bg, 1);
        let mut layer = FrameLayer::new(16, 16);
        rasterize_layer(&splats, &grid, &mut layer, 1);
        assert_eq!(layer.finish(bg).data(), forward.data());
        assert_eq!(layer.transmittance(), &aux.final_transmittance[..]);
    }

    #[test]
    fn threaded_layers_over_depth_groups_are_bit_identical() {
        // Split the splats into depth-disjoint groups and rasterize each
        // group into the same running layer front-to-back: the composite
        // must reproduce the single-pass render byte for byte.
        let mut splats = layered_scene();
        splats.sort_by(|a, b| a.depth.partial_cmp(&b.depth).unwrap());
        let viewport = vp(16, 16);
        let bg = [0.05, 0.05, 0.08];
        let full_grid = TileGrid::build(&splats, viewport);
        let (forward, _) = rasterize_forward(&splats, &full_grid, bg, 1);

        for split_points in [vec![4], vec![3, 8], vec![2, 5, 9]] {
            let mut layer = FrameLayer::new(16, 16);
            let mut start = 0;
            let mut bounds = split_points.clone();
            bounds.push(splats.len());
            for end in bounds {
                let group = &splats[start..end];
                let grid = TileGrid::build(group, viewport);
                rasterize_layer(group, &grid, &mut layer, 1);
                start = end;
            }
            assert_eq!(
                layer.finish(bg).data(),
                forward.data(),
                "threaded depth-disjoint layers must match the single pass"
            );
        }
    }

    #[test]
    fn independent_layer_composition_is_epsilon_close() {
        let mut splats = layered_scene();
        splats.sort_by(|a, b| a.depth.partial_cmp(&b.depth).unwrap());
        let viewport = vp(16, 16);
        let bg = [0.05, 0.05, 0.08];
        let full_grid = TileGrid::build(&splats, viewport);
        let (forward, _) = rasterize_forward(&splats, &full_grid, bg, 1);

        let (near_splats, far_splats) = splats.split_at(6);
        let mut near = FrameLayer::new(16, 16);
        rasterize_layer(
            near_splats,
            &TileGrid::build(near_splats, viewport),
            &mut near,
            1,
        );
        let mut far = FrameLayer::new(16, 16);
        rasterize_layer(
            far_splats,
            &TileGrid::build(far_splats, viewport),
            &mut far,
            1,
        );
        near.composite_onto(&far);
        let composed = near.finish(bg);
        for (a, b) in composed.data().iter().zip(forward.data()) {
            assert!(
                (a - b).abs() < 1e-5,
                "independent layers must agree to float tolerance: {a} vs {b}"
            );
        }
    }

    #[test]
    fn opaque_near_layer_skips_far_shard_work() {
        // A fully opaque near splat exhausts the transmittance; a far shard
        // rasterized afterwards must leave those pixels untouched — the
        // cross-shard analogue of in-pixel early termination.
        // Two stacked near-opaque splats: alpha clamps at ALPHA_MAX, so one
        // splat leaves t = 1e-3; two leave 1e-6 < TRANSMITTANCE_MIN.
        let near_splats = vec![
            simple_splat(0, 8.5, 8.5, [1.0, 0.0, 0.0], 0.9999, 1.0),
            simple_splat(1, 8.5, 8.5, [1.0, 0.0, 0.0], 0.9999, 2.0),
        ];
        let viewport = vp(16, 16);
        let mut layer = FrameLayer::new(16, 16);
        rasterize_layer(
            &near_splats,
            &TileGrid::build(&near_splats, viewport),
            &mut layer,
            1,
        );
        let before = layer.clone();
        let p = 8 * 16 + 8;
        assert!(layer.transmittance()[p] < TRANSMITTANCE_MIN);

        let far_splats = vec![simple_splat(0, 8.5, 8.5, [0.0, 1.0, 0.0], 0.9, 5.0)];
        rasterize_layer(
            &far_splats,
            &TileGrid::build(&far_splats, viewport),
            &mut layer,
            1,
        );
        assert_eq!(
            layer.color().pixel(8, 8),
            before.color().pixel(8, 8),
            "opaque pixels must not blend far-shard splats"
        );
    }

    #[test]
    fn layer_parts_roundtrip_is_the_identity() {
        let splats = layered_scene();
        let viewport = vp(16, 16);
        let mut layer = FrameLayer::new(16, 16);
        rasterize_layer(&splats, &TileGrid::build(&splats, viewport), &mut layer, 1);
        let rebuilt = {
            let (color, transmittance) = layer.clone().into_parts();
            FrameLayer::from_parts(color, transmittance)
        };
        assert_eq!(rebuilt, layer);
    }

    #[test]
    #[should_panic(expected = "one value per pixel")]
    fn from_parts_rejects_mismatched_transmittance() {
        let _ = FrameLayer::from_parts(Image::zeros(4, 4), vec![1.0; 15]);
    }

    #[test]
    #[should_panic(expected = "layer width mismatch")]
    fn layer_size_must_match_the_grid() {
        let grid = TileGrid::build(&[], vp(8, 8));
        let mut layer = FrameLayer::new(4, 8);
        rasterize_layer(&[], &grid, &mut layer, 1);
    }

    #[test]
    #[should_panic(expected = "gradient image width mismatch")]
    fn backward_rejects_wrong_gradient_size() {
        let grid = TileGrid::build(&[], vp(8, 8));
        let (_, aux) = rasterize_forward(&[], &grid, [0.0; 3], 1);
        let d_image = Image::zeros(4, 8);
        let _ = rasterize_backward(&[], &grid, &aux, &d_image);
    }
}
