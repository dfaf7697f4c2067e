//! Software 3D Gaussian Splatting renderer with analytic gradients.
//!
//! This crate is the substrate the GS-Scale training system runs on. It
//! reimplements, in portable Rust, the parts of gsplat's CUDA pipeline that
//! the paper's host-offloading design depends on:
//!
//! * [`culling`] — frustum culling over geometric parameters only, the
//!   operation GS-Scale moves back onto the GPU via *selective offloading*.
//! * [`projection`] — EWA projection of 3D Gaussians to 2D splats
//!   (mean, conic, radius, color from spherical harmonics, opacity) and its
//!   analytic backward pass.
//! * [`tiles`] — tile binning and per-tile depth sorting.
//! * [`rasterize`] — front-to-back alpha blending and its backward pass.
//! * [`pipeline`] — the end-to-end differentiable render used by training,
//!   producing *sparse* gradients (only the Gaussians that actually
//!   contributed), which is the workload property GS-Scale exploits.
//! * [`loss`] — L1 / MSE photometric losses with gradients.
//! * [`cost`] — arithmetic and memory-traffic estimates per kernel, consumed
//!   by the platform timing model.
//!
//! The renderer is deterministic by design so that gradient checks and
//! cross-trainer equivalence tests are exact. Each kernel stage has one
//! implementation: a scalar projection loop ([`projection::project_splats`])
//! and one row-blend band driver behind [`rasterize::rasterize_forward`] and
//! [`rasterize::rasterize_layer`], which fan tile rows out across threads.
//! Their output is bit-identical at any thread count to the pixel-outer
//! scalar rasterizers ([`rasterize::rasterize_forward_reference`],
//! [`rasterize::rasterize_layer_reference`]), kept in-tree as oracles.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod culling;
pub mod loss;
pub mod pipeline;
pub mod projection;
pub mod rasterize;
pub mod tiles;

pub use culling::{frustum_cull, CullResult};
pub use pipeline::{
    render, render_backward, render_layer, render_layer_tiled, render_tiled, RenderOutput,
    RenderStats, RenderTimings,
};
pub use projection::{project_splats, projection_backward, Splat, SplatGrad};
pub use rasterize::{
    rasterize_backward, rasterize_forward, rasterize_forward_reference, rasterize_layer,
    rasterize_layer_reference, FrameLayer, RasterAux,
};
